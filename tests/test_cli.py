import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sketchlab.cli
from sketchlab.cli import main
from sketchlab.dataio import load_matrix_market
from sketchlab.sketch import (
    SpfdConfig,
    dct_sketch,
    fd_sketch,
    norm_sampling_sketch,
    spemb_sketch,
    spfd_sketch,
)


def write_graph(tmp_path):
    p = tmp_path / "g.txt"
    lines = ["# demo graph"]
    rng = np.random.default_rng(0)
    for _ in range(120):
        i, j = rng.integers(1, 31, size=2)
        if i != j:
            lines.append(f"{i} {j}")
    p.write_text("\n".join(lines) + "\n")
    return p


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        a1, a2 = tmp_path / "a1.mtx", tmp_path / "a2.mtx"
        argv = ["gen", "--n", "100", "--d", "20", "--k", "5",
                "--zeta", "10", "--seed", "7"]
        assert main(argv + ["--out", str(a1)]) == 0
        assert main(argv + ["--out", str(a2)]) == 0
        assert a1.read_bytes() == a2.read_bytes()

    def test_loads_back(self, tmp_path):
        out = tmp_path / "a.mtx"
        assert main(["gen", "--n", "30", "--d", "8", "--k", "2",
                     "--seed", "1", "--out", str(out)]) == 0
        m = load_matrix_market(out)
        assert m.shape == (30, 8)


class TestSketch:
    DIRECT = {
        "fd": lambda a: fd_sketch(a, 4),
        "spemb": lambda a: spemb_sketch(a, 4, 3),
        "normsamp": lambda a: norm_sampling_sketch(a, 4, 3),
        "dct": lambda a: dct_sketch(a, 4, 3),
        "spfd2": lambda a: spfd_sketch(a, SpfdConfig(ell=4, q=2, seed=3)),
    }

    @pytest.mark.parametrize("method", sorted(DIRECT))
    def test_writes_b_and_v(self, tmp_path, method):
        data = tmp_path / "a.mtx"
        main(["gen", "--n", "40", "--d", "10", "--k", "3", "--seed", "2",
              "--out", str(data)])
        out_b, out_v = tmp_path / "b.mtx", tmp_path / "v.mtx"
        code = main([
            "sketch", "--input", str(data), "--format", "matrixmarket",
            "--method", method, "--ell", "4", "--seed", "3",
            "--out-b", str(out_b), "--out-v", str(out_v),
        ])
        assert code == 0
        b = load_matrix_market(out_b)
        v = load_matrix_market(out_v)
        assert b.shape == (4, 10)
        assert v.shape == (10, 4)
        assert np.abs(v.T @ v - np.eye(4)).max() <= 1e-10
        # 17 significant digits round-trip float64 exactly
        direct = self.DIRECT[method](load_matrix_market(data))
        assert np.array_equal(b, direct.sketch)
        assert np.array_equal(v, direct.basis)


class TestBench:
    def test_runs_config(self, tmp_path):
        out = tmp_path / "results.csv"
        cfg = {
            "schema_version": 1,
            "dataset": {"type": "synthetic", "n": 60, "d": 12, "k": 3,
                        "zeta": 5},
            "methods": ["fd", "spemb"],
            "k": 3,
            "ell_sweep": "3:3:6",
            "repetitions": {"outer": 1, "inner": 2},
            "seed": 5,
            "output": str(out),
            "format": "csv",
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(cfg_path)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1].startswith("method,ell")
        assert len(lines) == 2 + 4  # 2 methods x 2 sketch sizes

    def test_method_override(self, tmp_path):
        out = tmp_path / "results.csv"
        cfg = {
            "schema_version": 1,
            "dataset": {"type": "synthetic", "n": 60, "d": 12, "k": 3,
                        "zeta": 5},
            "methods": ["fd", "spemb"],
            "k": 3,
            "ell_sweep": "3:3:3",
            "seed": 5,
            "output": str(out),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(cfg_path),
                     "--methods", "normsamp"]) == 0
        assert "normsamp" in out.read_text()
        assert "fd," not in out.read_text()

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_rejected(self, tmp_path, capsys, where):
        cfg = {
            "schema_version": 1,
            "dataset": {"type": "synthetic", "n": 60, "d": 12, "k": 3},
            "methods": ["fd"],
            "k": 3,
            "ell_sweep": "3:3:3",
            "seed": -1 if where == "config" else 5,
            "output": str(tmp_path / "results.csv"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        flag = ["--seed", "-1"] if where == "flag" else []
        assert main(["bench", "--config", str(cfg_path), *flag]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    def test_repeated_method_override_rejected(self, tmp_path, capsys):
        cfg = {
            "schema_version": 1,
            "dataset": {"type": "synthetic", "n": 60, "d": 12, "k": 3},
            "methods": ["fd"],
            "k": 3,
            "ell_sweep": "3:3:3",
            "output": str(tmp_path / "results.csv"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(cfg_path),
                     "--methods", "fd,spemb,FD"]) == 2
        assert "methods 'fd' and 'FD' name the same sketcher" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()


class TestNetwork:
    def test_json_schema(self, tmp_path):
        graph = write_graph(tmp_path)
        out = tmp_path / "ranks.json"
        code = main([
            "network", "--edges", str(graph), "--k", "10",
            "--methods", "hits,expm,fd,spfd5", "--seed", "4",
            "--out", str(out),
        ])
        assert code == 0
        records = json.loads(out.read_text())
        assert [r["method"] for r in records] == ["hits", "expm", "fd", "spfd5"]
        for rec in records:
            assert len(rec["top_hubs"]) == 10
            assert len(rec["top_authorities"]) == 10
            assert rec["elapsed_seconds"] >= 0.0
            assert rec["overlap_vs_exact"]["hubs"] <= 10
            # ids reported in the file's one-indexed numbering
            assert min(rec["top_hubs"]) >= 1
        expm_rec = records[1]
        assert expm_rec["overlap_vs_exact"] == {"hubs": 10, "authorities": 10}

    def test_k_above_node_count(self, tmp_path):
        graph = tmp_path / "five.txt"
        graph.write_text("1 2\n2 3\n3 4\n4 5\n5 1\n")
        out = tmp_path / "ranks.json"
        assert main(["network", "--edges", str(graph), "--k", "10",
                     "--methods", "hits,expm", "--out", str(out)]) == 0
        records = json.loads(out.read_text())
        assert [r["method"] for r in records] == ["hits", "expm"]
        for rec in records:
            assert sorted(rec["top_hubs"]) == [1, 2, 3, 4, 5]
            # every node is in both lists, so all five are shared
            assert rec["overlap_vs_exact"] == {"hubs": 5, "authorities": 5}

    def test_exact_step_only_when_expm_listed(self, tmp_path, capsys):
        # 4500 nodes exceed the exact step's guard of 4000
        rng = np.random.default_rng(0)
        src = np.arange(1, 4501)
        dst = np.concatenate((rng.integers(1, 51, size=4000), src[-500:]))
        graph = tmp_path / "big.txt"
        graph.write_text("".join(f"{i} {j}\n" for i, j in zip(src, dst)))
        out = tmp_path / "ranks.json"
        argv = ["network", "--edges", str(graph), "--k", "5", "--out", str(out)]
        assert main([*argv, "--methods", "hits,fd"]) == 0
        records = json.loads(out.read_text())
        assert [r["method"] for r in records] == ["hits", "fd"]
        assert all(r["overlap_vs_exact"] is None for r in records)
        out.unlink()
        assert main([*argv, "--methods", "fd,expm"]) == 2
        assert "n=4500 exceeds the guard 4000" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["gen", "--bogus", "1"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("command", ["gen", "sketch", "network"])
    def test_negative_seed_names_flag(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        edges = write_graph(tmp_path)
        argv = {
            "gen": ["gen", "--n", "20", "--d", "5", "--k", "2", "--out", str(out)],
            "sketch": ["sketch", "--input", str(edges), "--format", "edges",
                       "--method", "spfd2", "--ell", "2", "--out-b", str(out)],
            "network": ["network", "--edges", str(edges), "--methods", "hits",
                        "--out", str(out)],
        }[command]
        assert main([*argv, "--seed", "-1"]) == 2
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_without_output_path(self, tmp_path, capsys):
        cfg = {"schema_version": 1,
               "dataset": {"type": "synthetic", "n": 30, "d": 6, "k": 2},
               "methods": ["fd"], "k": 2, "ell_sweep": "2:2:2"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(cfg_path)]) == 2
        assert ("no output path: set 'output' in the config or --output"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == [cfg_path]

    def test_nan_tol_rejected(self, tmp_path, capsys):
        out = tmp_path / "ranks.json"
        argv = ["network", "--edges", str(write_graph(tmp_path)), "--methods", "hits",
                "--tol", "nan", "--out", str(out)]
        assert main(argv) == 2
        assert "tol must be finite and > 0, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_tol_checked_before_ranking(self, tmp_path, capsys, monkeypatch):
        # --tol is checked by hits' rule before the exact expm step runs
        def unreachable(*args, **kwargs):
            raise AssertionError("expm_scores_exact ran before --tol was checked")

        monkeypatch.setattr(sketchlab.cli, "expm_scores_exact", unreachable)
        out = tmp_path / "ranks.json"
        argv = ["network", "--edges", str(write_graph(tmp_path)), "--methods", "expm,hits",
                "--tol", "nan", "--out", str(out)]
        assert main(argv) == 2
        assert "tol must be finite and > 0, got nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("methods, message", [
        ("expm,bogus", "unknown sketcher id 'bogus'"),
        ("expm,spfd0", "bad sketcher id 'spfd0'"),
        ("expm,", "unknown sketcher id ''"),
    ])
    def test_methods_checked_before_ranking(self, tmp_path, capsys, monkeypatch,
                                            methods, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("expm_scores_exact ran before --methods was checked")

        monkeypatch.setattr(sketchlab.cli, "expm_scores_exact", unreachable)
        out = tmp_path / "ranks.json"
        argv = ["network", "--edges", str(write_graph(tmp_path)), "--methods", methods,
                "--out", str(out)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("k, p, message", [
        ("0", "5", "need k >= 1 and p >= 0, got k=0, p=5"),
        ("5", "-1", "need k >= 1 and p >= 0, got k=5, p=-1"),
        ("20", "15", "sketch size k+p=35 exceeds n=30"),
    ])
    def test_sketch_size_checked_before_ranking(self, tmp_path, capsys, monkeypatch,
                                                k, p, message):
        # k and p are checked before the graph is read, k + p right after
        def unreachable(*args, **kwargs):
            raise AssertionError("expm_scores_exact ran before --k and --p were checked")

        monkeypatch.setattr(sketchlab.cli, "expm_scores_exact", unreachable)
        out = tmp_path / "ranks.json"
        argv = ["network", "--edges", str(write_graph(tmp_path)), "--methods", "expm,fd",
                "--k", k, "--p", p, "--out", str(out)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_sketch_size_checked_before_load(self, tmp_path, capsys):
        # a bad --k is reported although the edge file does not exist
        argv = ["network", "--edges", str(tmp_path / "missing.txt"), "--methods", "fd",
                "--k", "0", "--out", str(tmp_path / "ranks.json")]
        assert main(argv) == 2
        assert "need k >= 1 and p >= 0, got k=0, p=5" in capsys.readouterr().err

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        code = main([
            "sketch", "--input", str(tmp_path / "nope.mtx"),
            "--format", "matrixmarket", "--method", "fd", "--ell", "2",
            "--out-b", str(tmp_path / "b.mtx"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err


def test_import_loads_only_numpy_and_scipy_sparse():
    # a fresh interpreter: this one has loaded the rest of scipy already;
    # a dense dct sketch forms its transform rows and loads no FFT module
    deferred = ["scipy.fft", "scipy.linalg", "scipy.io", "scipy.sparse.linalg",
                "scipy.special"]
    report = f"print([m for m in {deferred!r} if m in sys.modules])"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import numpy, sketchlab, sketchlab.cli; "
            f"{report}; "
            "sketchlab.dct_sketch(numpy.ones((8, 3)), 2, 0); "
            f"print('scipy.fft' in sys.modules)")
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.split("\n")[:2] == ["[]", "False"]
