import csv
import json
import logging
import re

import numpy as np
import pytest
import scipy.sparse as sparse

import sketchlab.bench as bench
from sketchlab.bench import (
    BenchConfig,
    ResultRow,
    derive_seed,
    emit_results,
    load_config,
    run_benchmark,
    run_method,
)
from sketchlab.datagen import SyntheticSpec, generate_synthetic
from sketchlab.linalg import NumericalError

# marks a config key that a test case removes
DROP = object()


def small_cfg(**overrides):
    base = dict(
        dataset=SyntheticSpec(n=60, d=12, k=3, zeta=5.0),
        methods=("fd", "spemb"),
        k=3,
        ell_sweep=(3, 3, 6),
        repetitions=(1, 2),
        seed=7,
    )
    base.update(overrides)
    return BenchConfig(**base)


class TestConfig:
    def test_sweep_must_start_at_k(self):
        with pytest.raises(ValueError, match="start"):
            small_cfg(ell_sweep=(2, 1, 6))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            small_cfg(methods=("gaussian",))

    def test_bad_reps(self):
        with pytest.raises(ValueError):
            small_cfg(repetitions=(0, 1))

    def test_k_below_one(self):
        # best_rank_k would refuse it only once the first matrix is generated
        with pytest.raises(ValueError, match=re.escape("k must be >= 1, got 0")):
            small_cfg(k=0, ell_sweep=(3, 3, 6))

    def test_negative_seed(self):
        # SeedSequence would refuse it only once the campaign runs
        with pytest.raises(ValueError, match=re.escape("seed must be >= 0, got -1")):
            small_cfg(seed=-1)

    @pytest.mark.parametrize(
        "methods, first, second",
        [(("fd", "fd", "FD"), "fd", "fd"), (("spfd5", "fd", " SPFD5"), "spfd5", " SPFD5")],
        ids=["same", "respelled"],
    )
    def test_repeated_method_rejected(self, methods, first, second):
        # a repeated sketcher would pool its repetitions into one row
        message = f"methods '{first}' and '{second}' name the same sketcher"
        with pytest.raises(ValueError, match=re.escape(message)):
            small_cfg(methods=methods)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"ell_sweep": (3, 0, 6)}, "invalid ell sweep (3, 0, 6)"),
            ({"ell_sweep": (6, 3, 3)}, "invalid ell sweep (6, 3, 3)"),
            ({"methods": ()}, "at least one method is required"),
            ({"format": "xml"}, "unknown output format 'xml'"),
        ],
    )
    def test_invalid_field_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            small_cfg(**overrides)

    def test_ells_inclusive(self):
        assert small_cfg(ell_sweep=(3, 10, 23)).ells == [3, 13, 23]


class TestLoadConfig:
    def write(self, tmp_path, payload):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(payload))
        return p

    def valid_payload(self):
        return {
            "schema_version": 1,
            "dataset": {"type": "synthetic", "n": 50, "d": 10, "k": 2, "zeta": 5},
            "methods": ["fd", "spfd5"],
            "k": 2,
            "ell_sweep": "2:2:6",
            "repetitions": {"outer": 1, "inner": 2},
            "seed": 3,
            "output": "out.csv",
            "format": "csv",
        }

    def test_valid(self, tmp_path):
        cfg = load_config(self.write(tmp_path, self.valid_payload()))
        assert cfg.methods == ("fd", "spfd5")
        assert cfg.ell_sweep == (2, 2, 6)
        assert isinstance(cfg.dataset, SyntheticSpec)

    def test_unknown_key_rejected(self, tmp_path):
        payload = self.valid_payload()
        payload["unexpected"] = True
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(self.write(tmp_path, payload))

    def test_unknown_dataset_key_rejected(self, tmp_path):
        payload = self.valid_payload()
        payload["dataset"]["rows"] = 5
        with pytest.raises(ValueError, match="unknown dataset keys"):
            load_config(self.write(tmp_path, payload))

    def test_schema_version_required(self, tmp_path):
        payload = self.valid_payload()
        del payload["schema_version"]
        with pytest.raises(ValueError, match="schema_version"):
            load_config(self.write(tmp_path, payload))

    def test_file_dataset(self, tmp_path):
        payload = self.valid_payload()
        payload["dataset"] = {"type": "file", "path": "x.mtx",
                              "format": "matrixmarket"}
        cfg = load_config(self.write(tmp_path, payload))
        assert cfg.dataset == ("x.mtx", "matrixmarket")

    def test_zeta_absent_keeps_default_null_disables(self, tmp_path):
        payload = self.valid_payload()
        del payload["dataset"]["zeta"]
        cfg = load_config(self.write(tmp_path, payload))
        assert cfg.dataset.zeta == 10.0
        payload["dataset"]["zeta"] = None
        cfg = load_config(self.write(tmp_path, payload))
        assert cfg.dataset.zeta is None

    def test_integral_numbers_accepted(self, tmp_path):
        payload = self.valid_payload()
        payload["k"] = 2.0
        payload["ell_sweep"] = {"start": 2.0, "step": "2", "end": 6}
        payload["output"] = None
        cfg = load_config(self.write(tmp_path, payload))
        assert (cfg.k, cfg.ell_sweep, cfg.output) == (2, (2, 2, 6), None)
        assert all(type(v) is int for v in (cfg.k, *cfg.ell_sweep))

    def test_k_below_one(self, tmp_path):
        payload = self.valid_payload()
        payload["k"] = 0
        with pytest.raises(ValueError, match=re.escape("k must be >= 1, got 0")):
            load_config(self.write(tmp_path, payload))

    def test_bad_sweep_string(self, tmp_path):
        payload = self.valid_payload()
        payload["ell_sweep"] = "2:6"
        with pytest.raises(ValueError, match="start:step:end"):
            load_config(self.write(tmp_path, payload))

    def test_config_must_be_an_object(self, tmp_path):
        path = self.write(tmp_path, [self.valid_payload()])
        with pytest.raises(ValueError, match=re.escape(f"{path}: config must be a JSON object")):
            load_config(path)

    @pytest.mark.parametrize(
        "keys, value, message",
        [
            (("methods",), DROP, "missing required key 'methods'"),
            (("k",), DROP, "missing required key 'k'"),
            (("ell_sweep",), DROP, "missing required key 'ell_sweep'"),
            (("dataset", "n"), DROP, "missing required key 'dataset.n'"),
            (("dataset", "d"), DROP, "missing required key 'dataset.d'"),
            (("dataset",), {"type": "file", "format": "edges"},
             "missing required key 'dataset.path'"),
            (("ell_sweep",), {"step": 2, "end": 6},
             "missing required key 'ell_sweep.start'"),
            (("ell_sweep",), {"start": 2, "end": 6},
             "missing required key 'ell_sweep.step'"),
            (("ell_sweep",), {"start": 2, "step": 2},
             "missing required key 'ell_sweep.end'"),
            (("methods",), "fd", "methods must be a list of strings"),
            (("methods",), ["fd", 5], "methods must be a list of strings"),
            (("repetitions",), 3, "repetitions must be an object"),
            (("repetitions", "inner"), "two",
             "repetitions.inner must be an integer, got 'two'"),
            (("ell_sweep",), "2:x:6", "ell_sweep.step must be an integer, got 'x'"),
            (("ell_sweep",), {"start": 2, "step": None, "end": 6},
             "ell_sweep.step must be an integer, got None"),
            (("ell_sweep",), "2:6", "ell_sweep must look like 'start:step:end'"),
            (("k",), "ten", "k must be an integer, got 'ten'"),
            (("seed",), "x", "seed must be an integer, got 'x'"),
            (("dataset", "n"), [50], "dataset.n must be an integer, got [50]"),
            (("dataset", "zeta"), "loud", "dataset.zeta must be a number, got 'loud'"),
            (("k",), 2.9, "k must be an integer, got 2.9"),
            (("seed",), 1.7, "seed must be an integer, got 1.7"),
            (("dataset", "n"), True, "dataset.n must be an integer, got True"),
            (("repetitions", "outer"), False,
             "repetitions.outer must be an integer, got False"),
            (("ell_sweep",), {"start": 2, "step": 2.5, "end": 6},
             "ell_sweep.step must be an integer, got 2.5"),
            (("dataset", "zeta"), True, "dataset.zeta must be a number, got True"),
            (("output",), 5, "output must be a string, got 5"),
            (("output",), ["out.csv"], "output must be a string, got ['out.csv']"),
            (("ell_sweep",), {"start": 2, "step": 2, "end": 6, "stop": 8},
             "unknown ell_sweep keys ['stop']"),
            (("ell_sweep",), 6, "ell_sweep must be a 'start:step:end' string or an object"),
            (("dataset",), "data.mtx", "dataset must be an object with a 'type'"),
            (("dataset", "type"), DROP, "dataset must be an object with a 'type'"),
            (("dataset", "type"), "random", "unknown dataset type 'random'"),
            (("repetitions", "middle"), 1, "unknown repetition keys"),
            (("dataset",), {"type": "file", "path": "g.txt", "format": "edges", "n": 5},
             "unknown dataset keys ['n']"),
            (("dataset",), {"type": "file", "path": "g.txt", "format": "csv"},
             "unknown dataset format 'csv'"),
        ],
    )
    def test_malformed_config_names_file_and_key(self, tmp_path, keys, value, message):
        payload = self.valid_payload()
        *parents, last = keys
        target = payload
        for key in parents:
            target = target[key]
        if value is DROP:
            del target[last]
        else:
            target[last] = value
        path = self.write(tmp_path, payload)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_config(path)


class TestSeeds:
    def test_deterministic(self):
        assert derive_seed(1, 2, 3, "fd", 10) == derive_seed(1, 2, 3, "fd", 10)

    def test_distinct_across_coordinates(self):
        seeds = {
            derive_seed(1, m, r, method, ell)
            for m in range(2)
            for r in range(3)
            for method in ("fd", "spemb")
            for ell in (5, 10)
        }
        assert len(seeds) == 24


class TestRunMethod:
    @pytest.mark.parametrize("method", ["fd", "spemb", "normsamp", "dct", "spfd2"])
    def test_each_method(self, method):
        a = generate_synthetic(SyntheticSpec(n=40, d=10, k=2, zeta=5.0, seed=1))
        factors, elapsed = run_method(a, method, ell=4, k=2, seed=9)
        assert factors.left.shape == (40, 2)
        assert elapsed >= 0.0


class TestRunBenchmark:
    def test_rank_k_input_gives_unit_ratio(self):
        cfg = BenchConfig(
            dataset=SyntheticSpec(n=80, d=16, k=3, zeta=None),
            methods=("fd",),
            k=3,
            ell_sweep=(4, 2, 6),
            repetitions=(1, 2),
            seed=11,
        )
        rows = run_benchmark(cfg)
        assert len(rows) == 2
        for row in rows:
            assert row.fro_ratio == pytest.approx(1.0, abs=1e-6)
            assert row.spec_ratio == pytest.approx(1.0, abs=1e-6)
            assert row.reps == 2

    def test_rows_sorted_and_reproducible(self):
        cfg = small_cfg()
        r1, r2 = run_benchmark(cfg), run_benchmark(cfg)
        keys = [(r.method, r.ell) for r in r1]
        assert keys == sorted(keys)
        assert [
            (a.method, a.ell, a.fro_ratio, a.spec_ratio, a.reps)
            for a in r1
        ] == [
            (b.method, b.ell, b.fro_ratio, b.spec_ratio, b.reps)
            for b in r2
        ]

    def test_error_declines_with_sketch_size(self):
        # coarse shape check on the sweep: bigger sketches approximate better
        from scipy.stats import spearmanr

        cfg = BenchConfig(
            dataset=SyntheticSpec(n=400, d=60, k=5, zeta=7.0),
            methods=("spemb",),
            k=5,
            ell_sweep=(5, 15, 50),
            repetitions=(2, 3),
            seed=13,
        )
        rows = run_benchmark(cfg)
        ratios = [r.fro_ratio for r in rows]
        rho = spearmanr(range(len(ratios)), ratios).statistic
        assert rho < 0

    def test_large_matrix_skips_ratios(self, monkeypatch):
        monkeypatch.setattr(bench, "EXACT_REFERENCE_CELL_CAP", 100)
        rows = run_benchmark(small_cfg())
        for row in rows:
            assert row.fro_ratio is None and row.spec_ratio is None
            assert row.elapsed_seconds >= 0.0

    def test_tall_cap_counts_the_whole_matrix(self, monkeypatch, tmp_path, caplog):
        # a tail 1e-6 below the signal is too small for the Gram route's
        # rounding bound, so the reference of this tall CSR takes one svd
        # of the densified matrix: its 120 x 15 = 1800 cells exceed a cap
        # of 1000, although its d x d Gram matrix holds 225, and nothing is
        # densified
        import sketchlab.lowrank
        from sketchlab.dataio import save_svmlight

        rng = np.random.default_rng(4)
        u, _ = np.linalg.qr(rng.standard_normal((120, 15)))
        v, _ = np.linalg.qr(rng.standard_normal((15, 15)))
        sigma = np.concatenate([[3.0, 2.0, 1.0], 1e-6 * np.linspace(1.0, 0.5, 12)])
        a = (u * sigma) @ v.T
        path = tmp_path / "data.svm"
        save_svmlight(path, a)
        cfg = small_cfg(dataset=(str(path), "svmlight"))
        densified = []
        real = sketchlab.lowrank.svd

        def recorded(x):
            densified.append(x.shape)
            return real(x)

        monkeypatch.setattr(sketchlab.lowrank, "svd", recorded)
        monkeypatch.setattr(bench, "EXACT_REFERENCE_CELL_CAP", 10**6)
        assert all(row.fro_ratio >= 1.0 - 1e-8 for row in run_benchmark(cfg))
        assert a.shape in densified
        densified.clear()
        monkeypatch.setattr(bench, "EXACT_REFERENCE_CELL_CAP", 1000)
        with caplog.at_level(logging.WARNING, logger="sketchlab.bench"):
            rows = run_benchmark(cfg)
        assert rows
        for row in rows:
            assert row.fro_ratio is None and row.spec_ratio is None
        assert "skipping exact reference" in caplog.text
        assert a.shape not in densified

    def test_file_dataset(self, tmp_path):
        from sketchlab.dataio import save_matrix_market

        a = generate_synthetic(SyntheticSpec(n=50, d=10, k=2, zeta=5.0, seed=2))
        path = tmp_path / "data.mtx"
        save_matrix_market(path, a)
        cfg = small_cfg(dataset=(str(path), "matrixmarket"), k=2,
                        ell_sweep=(2, 2, 4), methods=("normsamp",))
        rows = run_benchmark(cfg)
        assert {r.ell for r in rows} == {2, 4}

    def test_edges_dataset(self, tmp_path):
        # an edge-list campaign scores the loaded adjacency as a
        # MatrixMarket campaign over the same matrix does
        from sketchlab.dataio import load_edge_list, save_matrix_market

        rng = np.random.default_rng(5)
        edges = tmp_path / "graph.txt"
        edges.write_text("".join(
            f"{i} {j}\n" for i, j in rng.integers(1, 41, size=(200, 2))
        ) + "40 1\n")
        mtx = tmp_path / "graph.mtx"
        save_matrix_market(mtx, load_edge_list(edges))
        runs = [
            run_benchmark(small_cfg(dataset=(str(path), fmt), k=2,
                                    ell_sweep=(2, 2, 4), repetitions=(1, 1)))
            for path, fmt in ((edges, "edges"), (mtx, "matrixmarket"))
        ]
        keep = [[(r.method, r.ell, r.fro_ratio, r.spec_ratio, r.reps, r.failed)
                 for r in rows] for rows in runs]
        assert len(keep[0]) == 4 and all(r[2] is not None for r in keep[0])
        assert keep[0] == keep[1]

    def test_unknown_dataset_file_format(self):
        # load_config refuses it first; the loader names the formats it reads
        with pytest.raises(ValueError, match="unknown dataset format 'csv', expected one of"):
            bench.load_dataset_file("data.csv", "csv")

    def test_svmlight_reference_stays_sparse(self, monkeypatch, tmp_path):
        # the exact reference decomposes the loaded CSR as it is, and its
        # ratios match a reference taken from the densified matrix
        from sketchlab.dataio import save_svmlight

        rng = np.random.default_rng(3)
        a = np.where(rng.random((120, 15)) < 0.3, rng.standard_normal((120, 15)), 0.0)
        path = tmp_path / "data.svm"
        save_svmlight(path, a)
        cfg = small_cfg(dataset=(str(path), "svmlight"))
        real = bench.best_rank_k
        seen = []

        def recorded(m, k):
            seen.append(sparse.issparse(m))
            return real(m, k)

        monkeypatch.setattr(bench, "best_rank_k", recorded)
        rows = run_benchmark(cfg)
        assert seen == [True]
        monkeypatch.setattr(bench, "best_rank_k", lambda m, k: real(m.toarray(), k))
        dense_rows = run_benchmark(cfg)
        assert len(rows) == len(dense_rows) == 4
        for got, ref in zip(rows, dense_rows):
            assert (got.method, got.ell, got.reps) == (ref.method, ref.ell, ref.reps)
            assert got.fro_ratio == pytest.approx(ref.fro_ratio, rel=1e-12, abs=0)
            assert got.spec_ratio == pytest.approx(ref.spec_ratio, rel=1e-12, abs=0)

    def test_programming_error_aborts(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("ratio below the optimality floor")

        monkeypatch.setattr(bench, "error_report", broken)
        with pytest.raises(ValueError, match="optimality floor"):
            run_benchmark(small_cfg())

    def test_numerical_failure_counted(self, monkeypatch, caplog):
        real = bench.run_method

        def flaky(a, method, *args):
            if method == "spemb":
                raise NumericalError("did not converge")
            return real(a, method, *args)

        monkeypatch.setattr(bench, "run_method", flaky)
        with caplog.at_level(logging.WARNING, logger="sketchlab.bench"):
            rows = run_benchmark(small_cfg())
        # all-failed cells keep their rows, with no medians
        assert [(r.method, r.ell, r.reps, r.failed) for r in rows] == [
            ("fd", 3, 2, 0), ("fd", 6, 2, 0), ("spemb", 3, 0, 2), ("spemb", 6, 0, 2),
        ]
        for row in rows[2:]:
            assert row.fro_ratio is None and row.spec_ratio is None
            assert row.elapsed_seconds is None
        assert "2 of 2 repetitions failed" in caplog.text

    def test_all_failed_cells_emitted(self, monkeypatch, tmp_path):
        def failing(a, method, *args):
            raise NumericalError("did not converge")

        monkeypatch.setattr(bench, "run_method", failing)
        rows = run_benchmark(small_cfg(methods=("spemb",)))
        emit_results(rows, tmp_path / "out.csv", "csv")
        emit_results(rows, tmp_path / "out.json", "json")
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[2:] == ["spemb,3,nan,nan,nan,0,2", "spemb,6,nan,nan,nan,0,2"]
        payload = json.loads((tmp_path / "out.json").read_text())
        assert payload[0] == {
            "method": "spemb", "ell": 3, "fro_ratio": None, "spec_ratio": None,
            "elapsed_seconds": None, "reps": 0, "failed": 2,
        }


class TestEmit:
    def rows(self):
        return [
            ResultRow("fd", 10, 1.0123456789123, 1.25, 0.5, 5),
            ResultRow("spemb", 10, None, None, 0.125, 5),
        ]

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_results([], path, "csv")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "method,ell,fro_ratio,spec_ratio,elapsed_seconds,reps,failed"
        assert len(lines) == 2
        emit_results([], tmp_path / "out.json", "json")
        assert json.loads((tmp_path / "out.json").read_text()) == []

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_results(self.rows(), path, "csv")
        with open(path) as fh:
            data = [row for row in csv.reader(fh) if not row[0].startswith("#")]
        assert data[0] == ["method", "ell", "fro_ratio", "spec_ratio",
                           "elapsed_seconds", "reps", "failed"]
        assert data[1][6] == "0"
        assert data[1][0] == "fd"
        assert float(data[1][2]) == pytest.approx(1.012345679, rel=1e-9)
        assert data[2][2] == "nan"

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "out.json"
        emit_results(self.rows(), path, "json")
        payload = json.loads(path.read_text())
        assert payload[0]["method"] == "fd"
        assert payload[0]["fro_ratio"] == pytest.approx(1.012345679, rel=1e-9)
        assert payload[1]["fro_ratio"] is None

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results(self.rows(), p1, "csv")
        emit_results(self.rows(), p2, "csv")
        assert p1.read_bytes() == p2.read_bytes()

    def test_ten_significant_digits(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_results([ResultRow("fd", 1, 1.0 / 3.0, 1.0, 0.1, 1)], path, "csv")
        body = path.read_text().splitlines()[2]
        assert "0.3333333333" in body

    def test_golden_bytes(self, tmp_path):
        # the whole file: column and key order, number formats, indentation
        rows = [
            ResultRow("fd", 10, 1.0 / 3.0, 1.0, 1e-05, 4, failed=1),
            ResultRow("spemb", 10, None, None, None, 0, failed=3),
            ResultRow("spfd50", 150, 1.0123456789123, 1.25, 0.5, 5),
        ]
        emit_results(rows, tmp_path / "out.csv", "csv")
        emit_results(rows, tmp_path / "out.json", "json")
        assert (tmp_path / "out.csv").read_bytes() == (
            b"# medians use the lower-median convention (even repetition counts"
            b" report the smaller central value) over completed repetitions only\n"
            b"method,ell,fro_ratio,spec_ratio,elapsed_seconds,reps,failed\n"
            b"fd,10,0.3333333333,1,1e-05,4,1\n"
            b"spemb,10,nan,nan,nan,0,3\n"
            b"spfd50,150,1.012345679,1.25,0.5,5,0\n"
        )
        assert (tmp_path / "out.json").read_bytes() == (
            b'[\n  {\n    "method": "fd",\n    "ell": 10,\n'
            b'    "fro_ratio": 0.3333333333,\n    "spec_ratio": 1.0,\n'
            b'    "elapsed_seconds": 1e-05,\n    "reps": 4,\n    "failed": 1\n  },\n'
            b'  {\n    "method": "spemb",\n    "ell": 10,\n    "fro_ratio": null,\n'
            b'    "spec_ratio": null,\n    "elapsed_seconds": null,\n'
            b'    "reps": 0,\n    "failed": 3\n  },\n'
            b'  {\n    "method": "spfd50",\n    "ell": 150,\n'
            b'    "fro_ratio": 1.012345679,\n    "spec_ratio": 1.25,\n'
            b'    "elapsed_seconds": 0.5,\n    "reps": 5,\n    "failed": 0\n  }\n]\n'
        )

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError, match="cannot write"):
            emit_results([], tmp_path / "missing_dir" / "out.csv", "csv")

    def test_unknown_format_writes_nothing(self, tmp_path):
        path = tmp_path / "out.xml"
        with pytest.raises(ValueError, match="unknown output format 'xml'"):
            emit_results([], path, "xml")
        assert not path.exists()
