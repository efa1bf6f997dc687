import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import sketchlab

TOOLS = Path(__file__).resolve().parent.parent / "tools"
PERFBENCH = TOOLS.parent / "perfbench"
spec = importlib.util.spec_from_file_location("bench_pair", TOOLS / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pair)

FIXTURE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment keeps its line


class Thing:
    """Class docstring."""

    def method(self):
        """Method
        docstring."""
        text = """a string
that is not a docstring"""
        return os.sep + text

    def one_liner(self): """Docstring on the def line."""
'''


def test_src_lines_counts_code_lines(tmp_path):
    package = tmp_path / "src" / "sketchlab"
    package.mkdir(parents=True)
    (package / "fixture.py").write_text(FIXTURE, encoding="utf-8")
    # import, class, def, two lines of text, return, one-liner def
    assert bench_pair.code_lines(FIXTURE) == 7
    assert bench_pair.src_lines(tmp_path) == {
        "modules": {"fixture.py": 18}, "total": 18,
        "code_modules": {"fixture.py": 7}, "code_total": 7,
    }


def fake_run(root, side, seed, pass_s, exact_s, after=None):
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "metrics": {"pass_s": {"value": pass_s, "unit": "s"}},
        "ops": {"pass_s": {"median": pass_s, "n": 3, "samples": [pass_s] * 3},
                "rank_s.expm_exact": {"median": exact_s, "n": 3,
                                      "samples": [exact_s] * 3}},
        "accuracy": {"fro_ratio_max": 1.03} if after is None else {
            "fro_ratio_max": 1.03, "outside_window_s": after},
        "environment": {"steal_s": 0.0},
    }
    (results / f"network-expm-seed{seed}-trace0.json").write_text(
        json.dumps(record), encoding="utf-8")
    result = {"correct": True, "attempted": 3, "failed": 0}
    run = bench_pair.read_run(root, "network-expm", seed, 0, result)
    run.pop("environment")
    run.update(side=side, seed=seed)
    return run


def test_tier1_fails_on_a_warning(tmp_path):
    # CI's tier-1 step runs with warnings as errors
    (tmp_path / "test_warns.py").write_text(
        "import warnings\n\n\ndef test_warns():\n    warnings.warn('stale')\n",
        encoding="utf-8",
    )
    tier1 = bench_pair.tier1_seconds(tmp_path)
    assert tier1["exit"] != 0
    assert "1 failed" in tier1["summary"]


def test_ops_compared_per_pair(tmp_path):
    runs = []
    for seed in range(1, 5):
        runs.append(fake_run(tmp_path / "parent", "parent", seed, 1.2, 0.9))
        runs.append(fake_run(tmp_path / "change", "change", seed, 1.0 + seed / 100,
                             0.7 if seed > 1 else 1.0))
    assert runs[0]["ops"] == {"pass_s": 1.2, "rank_s.expm_exact": 0.9}
    entry = bench_pair.compare_runs(runs, {"pass_s": "lower"})
    assert set(entry["ops"]) == {"pass_s", "rank_s.expm_exact"}
    exact = entry["ops"]["rank_s.expm_exact"]
    assert (exact["change_wins"], exact["parent_wins"], exact["pairs"]) == (3, 1, 4)
    assert exact["change"]["median"] == 0.7 and exact["parent"]["median"] == 0.9
    assert entry["metrics"]["pass_s"]["change_wins"] == 4
    assert "crit7_ratio" not in entry
    # runs without times after the window give no after_window entry
    assert runs[0]["after_window"] == {} and "after_window" not in entry


def test_after_window_compared_per_pair(tmp_path):
    runs = []
    for seed in range(1, 5):
        runs.append(fake_run(tmp_path / "parent", "parent", seed, 1.2, 0.9,
                             {"exact_ref_s": 3.3, "reconstruct_s": 0.01}))
        runs.append(fake_run(tmp_path / "change", "change", seed, 1.2, 0.9,
                             {"exact_ref_s": 0.1 if seed > 1 else 3.5,
                              "error_report_s": 0.02}))
    assert runs[0]["after_window"] == {"exact_ref_s": 3.3, "reconstruct_s": 0.01}
    entry = bench_pair.compare_runs(runs, {"pass_s": "lower"})
    # only the operations every run timed are compared
    assert set(entry["after_window"]) == {"exact_ref_s"}
    exact = entry["after_window"]["exact_ref_s"]
    assert (exact["change_wins"], exact["parent_wins"], exact["pairs"]) == (3, 1, 4)
    assert exact["parent"]["median"] == 3.3 and exact["change"]["median"] == 0.1
    assert exact["pair_ratio"]["median"] == pytest.approx(0.1 / 3.3)
    # 3 of 4 pairs fall short of the gain rule's share
    assert exact["gain"] is False and "resolved" not in exact


def test_pair_ratio_and_resolution():
    # ratios 0.7 .. 1.3 spread wider than a 0.25 bound; 1.0 .. 1.045 do not
    wide = bench_pair.compare([1.0] * 10, [0.7, 0.8, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.2, 1.3],
                              "lower", bound=0.25)
    assert wide["pair_ratio"]["median"] == 1.0
    assert wide["pair_ratio"]["p10"] < 0.9 and wide["pair_ratio"]["p90"] > 1.1
    assert wide["resolved"] is False
    narrow = bench_pair.compare([2.0] * 10, [2.0 + i / 100 for i in range(10)],
                                "lower", bound=0.25)
    assert narrow["resolved"] is True
    assert 1.0 < narrow["pair_ratio"]["median"] < 1.05
    # a zero parent leaves the ratio undefined, and no bound means no verdict
    zero = bench_pair.compare([0.0] * 4, [0.0] * 4, "lower", bound=0.01)
    assert zero["pair_ratio"] is None and zero["resolved"] is False
    assert "resolved" not in bench_pair.compare([1.0] * 4, [1.0] * 4, "lower")


def test_end_to_end_bounds_from_benchmark_spec(tmp_path):
    runs = []
    for seed in range(1, 11):
        runs.append(fake_run(tmp_path / "parent", "parent", seed, 1.0, 0.9))
        runs.append(fake_run(tmp_path / "change", "change", seed,
                             0.7 if seed % 2 else 1.3, 0.9))
    spec = json.loads((TOOLS.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    entry = bench_pair.compare_runs(runs, {"pass_s": "lower"}, bounds)
    assert entry["metrics"]["pass_s"]["resolved"] is False
    assert "resolved" not in entry["ops"]["rank_s.expm_exact"]
    assert entry["ops"]["rank_s.expm_exact"]["pair_ratio"]["median"] == 1.0


def test_aa_pair_ratio_copied_beside_each_metric():
    ratio = {"median": 1.01, "p10": 0.95, "p90": 1.08}
    aa = {"workloads": {
        "network-expm": {"metrics": {"pass_s": {"pair_ratio": ratio}}}}}
    out = {"workloads": {
        "network-expm": {"metrics": {"pass_s": {"pair_ratio": None},
                                     "peak_rss_mb": {"pair_ratio": None}}},
        "dense-fd": {"metrics": {"pass_s": {"pair_ratio": None}}}}}
    bench_pair.add_aa(out, aa)
    expm = out["workloads"]["network-expm"]["metrics"]
    assert expm["pass_s"]["aa_pair_ratio"] == ratio
    # a metric or workload the A/A record lacks gets None
    assert expm["peak_rss_mb"]["aa_pair_ratio"] is None
    assert out["workloads"]["dense-fd"]["metrics"]["pass_s"]["aa_pair_ratio"] is None
    assert bench_pair.ratio_text(ratio) == "1.01 [0.95, 1.08]"
    assert bench_pair.ratio_text(None) == "n/a"


def test_perfbench_wraps_only_names_the_library_has(monkeypatch):
    # the benchmark patches these names of the library; a rename would make
    # its runs fail, so the names are checked here too (perfbench is only
    # read)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    own = [name for name in ("layers", "run", "spans", "stats", "workloads")
           if name not in sys.modules]
    try:
        layers, run, spans = (importlib.import_module(name)
                              for name in ("layers", "run", "spans"))
        patches = (layers.tracing_patches(sketchlab, spans.Recorder())
                   + run.Capture(sketchlab).patches)
    finally:
        for name in own:
            sys.modules.pop(name, None)
    missing = [(module.__name__, attr) for module, attr, _ in patches
               if not hasattr(module, attr)]
    assert not missing
    wrapped = {(module.__name__, attr) for module, attr, _ in patches}
    assert {("sketchlab.sketch", "spemb_apply"),
            ("sketchlab.sketch", "spfd_intermediate")} <= wrapped


def test_no_test_name_defined_twice():
    # a second definition of a name shadows the first, which pytest then
    # never collects
    twice = []
    for path in sorted([*TOOLS.parent.glob("tests/*.py"), *PERFBENCH.glob("test_*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]:
            names = [node.name for node in scope.body
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                     and node.name.lower().startswith("test")]
            twice += [f"{path.name}:{getattr(scope, 'name', '<module>')}.{name}"
                      for name in sorted(set(names)) if names.count(name) > 1]
    assert not twice


@pytest.fixture
def ab_ops(monkeypatch):
    """``tools/ab_ops.py``, with the modules it imports removed afterwards."""
    monkeypatch.syspath_prepend(str(TOOLS))
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("ab_ops", TOOLS / "ab_ops.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in set(sys.modules) - before:
        del sys.modules[name]


def test_ab_ops_times_both_trees_in_one_process(ab_ops, monkeypatch, tmp_path):
    # the parent tree is a copy of this one, so every output is identical
    def export(rev, dest):
        assert rev == "abc123"
        (dest / "src").mkdir(parents=True)
        (dest / "src" / "sketchlab").symlink_to(TOOLS.parent / "src" / "sketchlab")

    monkeypatch.setattr(ab_ops, "export", export)
    monkeypatch.setattr(ab_ops, "git", lambda *args: "" if args[0] == "status" else "abc123")
    out = tmp_path / "ab.json"
    assert ab_ops.main(["--parent", "HEAD", "--workload", "dense-sweep", "--op", "sketch",
                        "--method", "fd", "--ell", "10", "--calls", "3",
                        "--out", str(out)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["parent"] == "abc123" and record["op"] == "sketch"
    assert {side: len(t) for side, t in record["times_s"].items()} == {"parent": 3,
                                                                      "change": 3}
    assert record["change_wins"] + record["parent_wins"] <= 3
    for side in ("parent", "change"):
        assert record["min_s"][side] == min(record["times_s"][side])
        assert record["median_s"][side] == sorted(record["times_s"][side])[1]
    assert record["identical"] is True
    assert record["digests"]["parent"] == record["digests"]["change"]
    # the two packages are distinct modules, each importing its own submodules
    parent, change = sys.modules["sketchlab_parent"], sys.modules["sketchlab_change"]
    assert parent is not change and parent.sketch is sys.modules["sketchlab_parent.sketch"]
    assert change.sketch.fd_sketch is not parent.sketch.fd_sketch


def test_ab_ops_alternates_and_flags_differing_outputs(ab_ops):
    order = []
    fns = {"parent": lambda: order.append("parent") or 1.0,
           "change": lambda: order.append("change") or 2.0}
    result = ab_ops.alternate(fns, 4, repr)
    # one untimed call per side, then the first side alternates per pair
    assert order == ["parent", "change", "parent", "change", "change", "parent",
                     "parent", "change", "change", "parent"]
    assert result["identical"] is False
    assert result["digests"] == {"parent": ["1.0"], "change": ["2.0"]}
