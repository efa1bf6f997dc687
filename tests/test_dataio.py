import os
import re

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sparse

import sketchlab.dataio
from oracles import load_svmlight_oracle
from sketchlab.dataio import (
    load_edge_list,
    load_matrix_market,
    load_svmlight,
    save_matrix_market,
    save_svmlight,
)


def random_csr(n, d, seed, density=0.3):
    rng = np.random.default_rng(seed)
    mask = rng.random((n, d)) < density
    return sparse.csr_matrix(np.where(mask, rng.standard_normal((n, d)), 0.0))


class TestSvmlight:
    def test_basic_line(self, tmp_path):
        p = tmp_path / "a.svm"
        p.write_text("1 3:0.5 7:1.2\n")
        m = load_svmlight(p)
        assert m.shape == (1, 7)
        assert m[0, 2] == 0.5 and m[0, 6] == 1.2
        assert m.nnz == 2

    def test_empty_feature_line_keeps_row(self, tmp_path):
        p = tmp_path / "a.svm"
        p.write_text("1 2:1.0\n-1\n1 1:3.0\n")
        m = load_svmlight(p)
        assert m.shape == (3, 2)
        assert m[1].nnz == 0

    def test_zero_index_rejected(self, tmp_path):
        p = tmp_path / "a.svm"
        p.write_text("1 0:2.0\n")
        with pytest.raises(ValueError, match="1-indexed"):
            load_svmlight(p)

    def test_malformed_line_reports_lineno(self, tmp_path):
        p = tmp_path / "a.svm"
        p.write_text("1 1:1.0\n1 2:not_a_number\n")
        with pytest.raises(ValueError, match=":2:"):
            load_svmlight(p)

    def test_non_increasing_ids_rejected(self, tmp_path):
        p = tmp_path / "a.svm"
        p.write_text("1 3:1.0 2:1.0\n")
        with pytest.raises(ValueError, match="strictly increasing"):
            load_svmlight(p)

    def test_roundtrip(self, tmp_path):
        a = random_csr(9, 6, seed=0)
        p = tmp_path / "rt.svm"
        save_svmlight(p, a)
        b = load_svmlight(p, n_cols=6)
        assert (a != b).nnz == 0
        assert (a.indptr == b.indptr).all()
        assert (a.data == b.data).all()

    def test_n_cols_override_too_small(self, tmp_path):
        p = tmp_path / "a.svm"
        p.write_text("1 5:1.0\n")
        with pytest.raises(ValueError, match="n_cols"):
            load_svmlight(p, n_cols=3)

    def test_id_beyond_int64_names_line(self, tmp_path):
        p = tmp_path / "a.svm"
        p.write_text("0 1:1\n0 1:1 99999999999999999999:1\n")
        with pytest.raises(ValueError, match=r"a\.svm:2: feature id 99999999999999999999 "
                                             "does not fit in int64"):
            load_svmlight(p)

    def test_fault_before_undecodable_bytes_names_line(self, tmp_path):
        # the per-token reference decodes 8 KiB blocks, so it raises
        # UnicodeDecodeError here; faults are reported in line order
        p = tmp_path / "a.svm"
        p.write_bytes(several_chunks("0 2:1 1:1", "0 1:1").encode() + b"0 \xff:1\n")
        with pytest.raises(ValueError, match=rf"a\.svm:{2 * CHUNK + 1}: feature ids "
                                             "must be strictly increasing"):
            load_svmlight(p)

    def test_bulk_reject_without_line_fault_raises(self, tmp_path, monkeypatch):
        def reject(lines):
            raise ValueError("bulk check")

        monkeypatch.setattr(sketchlab.dataio, "_parse_svmlight_chunk", reject)
        p = tmp_path / "a.svm"
        p.write_text("0 1:1\n")
        with pytest.raises(RuntimeError, match="line-by-line check accepts"):
            load_svmlight(p)

    def test_bulk_reject_names_the_chunk_lines(self, tmp_path, monkeypatch):
        def reject(lines):
            raise ValueError("bulk check")

        monkeypatch.setattr(sketchlab.dataio, "_parse_svmlight_chunk", reject)
        p = tmp_path / "a.svm"
        p.write_text("0 1:1\n0 2:1\n")
        with pytest.raises(RuntimeError, match=r"a\.svm:1-2: the bulk parse"):
            load_svmlight(p)


CHUNK = sketchlab.dataio._SVMLIGHT_CHUNK_LINES


def several_chunks(*tail: str) -> str:
    """Valid rows over two chunks, blank and label-only lines included,
    followed by the lines of ``tail``, the first of which opens the third
    chunk."""
    rows = [f"{i % 3} {i % 7 + 1}:{i}.5 {i % 7 + 9}:-{i}" for i in range(2 * CHUNK)]
    rows[5] = ""
    rows[CHUNK - 1] = "1"
    rows[CHUNK] = "  "
    return "\n".join(rows + list(tail)) + "\n"


DIFFERENTIAL_INPUTS = {
    "double_colon_label": ("1:2:3 4\n", None),
    "double_colon_feature": ("0 1:2:3 4\n", None),
    "empty_value": ("0 1:\n", None),
    "empty_id": ("0 :5\n", None),
    "qid": ("0 qid:3 1:1\n", None),
    "comment_line": ("0 1:1\n# header\n0 2:1\n", None),
    "comment_line_like_a_row": ("0 1:1\n#5 2:1\n", None),
    "inline_comment": ("0 1:1 # note\n", None),
    "blank_lines": ("\n0 1:1\n\n   \n0 2:1\n\n", None),
    "crlf": ("0 1:1\r\n0 2:1 3:4\r\n", None),
    "lone_cr": ("0 1:1\r0 2:1\r", None),
    "form_feed_inside_line": ("0 1:1\x0c 2:1\n", None),
    "unicode_spaces_inside_line": ("0 1:1\x85 2:1\u2028 3:1\x1c 4:1\n", None),
    "label_only_line": ("1\n0 2:1\n", None),
    "ids_restart_per_row": ("0 5:1 6:1\n1\n0 1:1\n", None),
    "duplicate_ids": ("0 3:1 3:1\n", None),
    "zero_id": ("0 0:1\n", None),
    "negative_id": ("0 -2:1\n", None),
    "nan_value": ("0 1:nan\n", None),
    "inf_value": ("0 1:inf\n", None),
    "explicit_zero": ("0 3:0 4:1\n", None),
    "subnormal": ("0 1:1e-320\n", None),
    "underscore_id": ("0 1_0:1\n", None),
    "unicode_digit_ids": ("0 \u0661:1 \u0663:2.5\n", None),
    "n_cols_below_largest_id": ("0 5:1\n", 3),
    "n_cols_above_largest_id": ("0 2:1\n", 6),
    "empty_file": ("", None),
    "no_features_no_n_cols": ("1\n-1\n", None),
    "no_features_with_n_cols": ("1\n-1\n", 4),
    "several_chunks": (several_chunks("0 1:1", "", "0 3:2"), None),
    "several_chunks_fault_first_in_chunk": (
        several_chunks("0 2:1 1:1", "0 1:1", "0 0:1"), None),
    "several_chunks_comment_first_in_chunk": (several_chunks("#1 2:3", "0 0:1"), None),
    # bytes that are not utf-8, on line 3003 of one chunk
    "undecodable_after_fault": (
        b"0 1:1\n0 2:1 1:1\n" + b"0 1:1\n" * 3000 + b"0 1:\xff\n", None),
    "undecodable_first_fault": (b"0 1:1\n" * 3002 + b"0 1:\xff\n", None),
    "undecodable_label": (b"0 1:1\n\xff 2:1\n", None),
}


def first_undecodable_line(path) -> int:
    lines = path.read_bytes().splitlines()
    for lineno, line in enumerate(lines, start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return lineno
    raise AssertionError(f"{path} is utf-8")


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_INPUTS))
def test_load_svmlight_matches_per_token_oracle(tmp_path, name):
    text, n_cols = DIFFERENTIAL_INPUTS[name]
    p = tmp_path / "a.svm"
    p.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    outcomes = []
    for load in (load_svmlight_oracle, load_svmlight):
        try:
            outcomes.append(load(p, n_cols=n_cols))
        except Exception as exc:
            outcomes.append(exc)
    ref, got = outcomes
    if isinstance(ref, UnicodeDecodeError):
        # the reference decodes 8 KiB blocks, the loader one line, so the
        # positions differ; the bytes, the reason and the line are compared
        assert type(got) is UnicodeDecodeError
        assert got.object[got.start:got.end] == ref.object[ref.start:ref.end]
        assert got.reason == f"{p}:{first_undecodable_line(p)}: {ref.reason}"
        return
    if isinstance(ref, Exception):
        assert (type(got), str(got)) == (type(ref), str(ref))
        return
    assert not isinstance(got, Exception), got
    assert got.shape == ref.shape
    for field in ("data", "indices", "indptr"):
        a, b = getattr(got, field), getattr(ref, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


class TestMatrixMarket:
    def test_coordinate_entry(self, tmp_path):
        p = tmp_path / "a.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 5.0\n"
        )
        m = load_matrix_market(p)
        assert sparse.issparse(m)
        assert m.nnz == 1 and m[0, 1] == 5.0

    def test_duplicate_entries_summed(self, tmp_path, caplog):
        p = tmp_path / "a.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n1 1 2.0\n1 1 3.0\n"
        )
        with caplog.at_level("INFO", logger="sketchlab.dataio"):
            m = load_matrix_market(p)
        assert m[0, 0] == 5.0 and m.nnz == 1
        assert "collapsed" in caplog.text

    def test_array_format_dense(self, tmp_path):
        p = tmp_path / "a.mtx"
        p.write_text(
            "%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n4.0\n"
        )
        m = load_matrix_market(p)
        assert isinstance(m, np.ndarray)
        assert m.tolist() == [[1.0, 3.0], [2.0, 4.0]]

    def test_complex_rejected(self, tmp_path):
        p = tmp_path / "a.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n"
        )
        with pytest.raises(ValueError, match="complex"):
            load_matrix_market(p)

    def test_pattern_rejected(self, tmp_path):
        p = tmp_path / "a.mtx"
        p.write_text("%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n")
        with pytest.raises(ValueError, match="pattern"):
            load_matrix_market(p)

    @pytest.mark.parametrize(
        "header, message",
        [
            ("%%MatrixMarket matrix coordinate real", "not a MatrixMarket file"),
            ("%MatrixMarket matrix coordinate real general", "not a MatrixMarket file"),
            ("%%MatrixMarket vector coordinate real general", "unsupported object 'vector'"),
            ("%%MatrixMarket matrix coordinate real symmetric",
             "unsupported symmetry 'symmetric'"),
        ],
    )
    def test_header_rejected(self, tmp_path, header, message):
        p = tmp_path / "a.mtx"
        p.write_text(f"{header}\n1 1 1\n1 1 1.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}: {message}")):
            load_matrix_market(p)

    def test_roundtrip_sparse_bit_exact(self, tmp_path):
        a = random_csr(8, 5, seed=1)
        p = tmp_path / "rt.mtx"
        save_matrix_market(p, a)
        b = load_matrix_market(p)
        assert (a != b).nnz == 0
        assert (a.data == b.data).all()

    def test_roundtrip_dense_bit_exact(self, tmp_path):
        a = np.random.default_rng(2).standard_normal((6, 4))
        p = tmp_path / "rt.mtx"
        save_matrix_market(p, a)
        b = load_matrix_market(p)
        assert (a == b).all()


class TestEdgeList:
    def test_small_graph(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# comment\n1 2\n3 2\n")
        adj = load_edge_list(p)
        assert adj.shape == (3, 3)
        assert adj.nnz == 2
        assert adj[0, 1] == 1.0 and adj[2, 1] == 1.0

    def test_self_loop_kept(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("2 2\n")
        adj = load_edge_list(p)
        assert adj[1, 1] == 1.0

    def test_duplicate_edge_collapsed(self, tmp_path, caplog):
        p = tmp_path / "g.txt"
        p.write_text("1 2\n1 2\n")
        with caplog.at_level("INFO", logger="sketchlab.dataio"):
            adj = load_edge_list(p)
        assert adj.nnz == 1 and adj[0, 1] == 1.0
        assert "1 duplicate edges collapsed" in caplog.text

    def test_zero_indexed_mode(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\n")
        adj = load_edge_list(p, one_indexed=False)
        assert adj.shape == (2, 2) and adj[0, 1] == 1.0

    def test_zero_id_rejected_when_one_indexed(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\n")
        with pytest.raises(ValueError, match="one-indexed"):
            load_edge_list(p)

    def test_negative_id_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("-1 2\n")
        with pytest.raises(ValueError, match="negative"):
            load_edge_list(p, one_indexed=False)

    def test_non_integer_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("1 two\n")
        with pytest.raises(ValueError, match="non-integer"):
            load_edge_list(p)

    def test_no_edges_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# comment only\n\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}: no edges found")):
            load_edge_list(p)

    def test_token_count_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("1 2 3\n")
        with pytest.raises(ValueError, match="tokens"):
            load_edge_list(p)

    def test_id_beyond_int64_names_line(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# comment\n1 2\n99999999999999999999 1\n")
        with pytest.raises(ValueError, match=r"g\.txt:3: node id 99999999999999999999 "
                                             "does not fit in int64"):
            load_edge_list(p)

    def test_fault_before_undecodable_bytes_names_line(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_bytes(b"1 2\n1 x\n3 \xff\n")
        with pytest.raises(ValueError, match=r"g\.txt:2: non-integer node id"):
            load_edge_list(p)

    def test_decode_error_names_its_line(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_bytes(b"# caf\xc3\xa9\n1 2\n3 4\xe9\n1 3\n")
        with pytest.raises(UnicodeDecodeError) as info:
            load_edge_list(p)
        assert info.value.reason == f"{p}:3: invalid continuation byte"
        assert info.value.object[info.value.start:info.value.end] == b"\xe9"


SVMLIGHT_BAD = b"0 1:1\n0 \xff:1\n"
MTX_OK = b"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 5.0\n"


@pytest.mark.parametrize("load, content", [
    (load_svmlight, b"0 1:1\n0 2:1\n"),
    (load_svmlight, b"0 2:1 1:1\n"),
    (load_svmlight, SVMLIGHT_BAD),
    (load_svmlight, several_chunks().encode() + SVMLIGHT_BAD),
    (load_edge_list, b"1 2\n3 1\n"),
    (load_edge_list, b"1 2\n1 x\n"),
    (load_edge_list, b"1 2\n3 \xff\n"),
    (load_matrix_market, MTX_OK),
    (load_matrix_market, b"%%MatrixMarket matrix array real general\n1 1\n2.0\n"),
    (load_matrix_market, b"%%MatrixMarket matrix coordinate pattern general\n"),
    (load_matrix_market, MTX_OK.replace(b"5.0", b"x")),
], ids=["svm", "svm_fault", "svm_undecodable", "svm_undecodable_third_chunk",
        "edges", "edges_fault", "edges_undecodable",
        "mtx_coordinate", "mtx_array", "mtx_header_fault", "mtx_body_fault"])
def test_loader_opens_its_path_once(tmp_path, monkeypatch, load, content):
    # an open is a call of the module's open, or a path handed to mmread
    opens = []

    def counting_open(*args, **kwargs):
        opens.append(args[0])
        return open(*args, **kwargs)

    def mmread(source, **kwargs):
        if isinstance(source, (str, os.PathLike)):
            opens.append(source)
        return scipy_mmread(source, **kwargs)

    scipy_mmread = scipy.io.mmread
    monkeypatch.setattr(sketchlab.dataio, "open", counting_open, raising=False)
    monkeypatch.setattr(scipy.io, "mmread", mmread)
    p = tmp_path / "data"
    p.write_bytes(content)
    try:
        load(p)
    except ValueError:
        pass
    assert opens == [p]
