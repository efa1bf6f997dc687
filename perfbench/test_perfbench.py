"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from layers import SKETCHERS, layer_metrics, trace_targets, tracing_patches
from spans import Recorder, Span, patched, self_times
from stats import high_percentile

lib = run.import_library()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# --------------------------------------------------------------------------
# generators
# --------------------------------------------------------------------------


def test_dense_matrix_deterministic_per_seed():
    a = workloads.dense_matrix(lib, 3, n=50, d=20)
    assert np.array_equal(a, workloads.dense_matrix(lib, 3, n=50, d=20))
    assert not np.array_equal(a, workloads.dense_matrix(lib, 4, n=50, d=20))


def test_w8a_like_deterministic_per_seed():
    a = workloads.w8a_like(3, n=9000, d=40)
    b = workloads.w8a_like(3, n=9000, d=40)
    assert (a != b).nnz == 0
    assert (a != workloads.w8a_like(4, n=9000, d=40)).nnz > 0
    assert set(np.unique(a.data)) == {1.0}
    assert 0.02 < a.nnz / (9000 * 40) < 0.06


def test_skewed_digraph_deterministic_per_seed(tmp_path):
    pairs = workloads.skewed_digraph(3, n=300, edges=2000)
    assert np.array_equal(pairs, workloads.skewed_digraph(3, n=300, edges=2000))
    assert not np.array_equal(pairs, workloads.skewed_digraph(4, n=300, edges=2000))
    assert (pairs[:, 0] != pairs[:, 1]).all()
    path = tmp_path / "g.txt"
    workloads.write_edge_list(path, pairs)
    assert lib.dataio.load_edge_list(path).shape == (300, 300)


def test_sweep_inputs_deterministic_per_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("SKETCHLAB_THREADS", "7")
    configs, matrices = [], []
    for seed, sub in ((3, "a"), (3, "b"), (4, "c")):
        (tmp_path / sub).mkdir()
        w = workloads.DenseSweep(lib, seed, tmp_path / sub)
        try:
            w.setup()
        finally:
            w.restore()
        config = json.loads(w.config.read_text())
        matrices.append(Path(config["dataset"].pop("path")).read_bytes())
        configs.append(config)
    assert configs[0] == configs[1] != configs[2]
    # one matrix for every seed; the seed moves the campaign's sketch draws
    assert matrices[0] == matrices[1] == matrices[2]
    assert os.environ["SKETCHLAB_THREADS"] == "7"


# --------------------------------------------------------------------------
# percentile helper
# --------------------------------------------------------------------------


def test_high_percentile_needs_eleven_samples():
    assert high_percentile([1.0] * 10) is None
    tail = high_percentile([float(i) for i in range(11)])
    assert tail == {"p": 9, "value": 0.0, "n": 11}


@pytest.mark.parametrize("n", [11, 12, 19, 20, 30, 99, 100, 101, 1000, 1001])
def test_high_percentile_leaves_ten_samples_beyond(n):
    values = [float(v) for v in np.random.default_rng(n).permutation(n)]
    tail = high_percentile(values)
    beyond = sum(v > tail["value"] for v in values)
    assert tail["n"] == n
    assert beyond >= 10
    # the next whole percentile would leave fewer than ten samples beyond
    next_rank = -(-(tail["p"] + 1) * n // 100)
    assert n - next_rank < 10


# --------------------------------------------------------------------------
# spans and self time
# --------------------------------------------------------------------------


def test_self_time_of_nested_spans():
    clock = FakeClock()
    rec = Recorder(clock)
    with rec.span("outer"):
        clock.now = 2.0
        with rec.span("mid"):
            clock.now = 3.0
            with rec.span("inner"):
                clock.now = 4.0
            clock.now = 5.0
        clock.now = 6.0
        with rec.span("mid"):
            clock.now = 7.5
        clock.now = 10.0
    own = self_times(rec.spans)
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(own[s.id])
    assert by_name["outer"] == [pytest.approx(5.5)]  # 10 - 3 - 1.5
    assert sorted(by_name["mid"]) == [pytest.approx(1.5), pytest.approx(2.0)]
    assert by_name["inner"] == [pytest.approx(1.0)]


def test_self_time_ignores_children_on_other_threads():
    spans = [
        Span(1, "parent", 0.0, 10.0, None, thread=1),
        Span(2, "child", 1.0, 4.0, 1, thread=1),
        Span(3, "overlapping child", 3.0, 6.0, 1, thread=1),
        Span(4, "worker", 2.0, 9.0, 1, thread=2),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(5.0)  # 10 - union([1, 6])
    assert own[4] == pytest.approx(7.0)


def test_spans_on_worker_threads_start_their_own_tree():
    rec = Recorder()
    with rec.span("main"):
        t = threading.Thread(target=_open_and_close, args=(rec,))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        with rec.span("nested"):
            pass
    parents = {s.name: s.parent for s in rec.spans}
    main_id = next(s.id for s in rec.spans if s.name == "main")
    assert parents["worker"] is None
    assert parents["nested"] == main_id
    threads = {s.name: s.thread for s in rec.spans}
    assert threads["worker"] != threads["main"] == threads["nested"]


def _open_and_close(rec):
    with rec.span("worker"):
        pass


def test_span_records_error_and_reraises():
    rec = Recorder()
    with pytest.raises(ZeroDivisionError):
        with rec.span("boom"):
            1 / 0
    assert rec.spans[0].attrs["error"] == "ZeroDivisionError"


# --------------------------------------------------------------------------
# patching
# --------------------------------------------------------------------------


def test_tracing_restores_every_patched_attribute():
    patches = tracing_patches(lib, Recorder())
    before = [(m, a, getattr(m, a)) for m, a, _ in patches]
    assert len({(id(m), a) for m, a, _ in before}) == len(before)
    with pytest.raises(RuntimeError):
        with patched(patches):
            assert all(getattr(m, a) is not orig for m, a, orig in before)
            raise RuntimeError("body fails")
    assert all(getattr(m, a) is orig for m, a, orig in before)


def test_tracing_limited_to_callers():
    patches = tracing_patches(lib, Recorder(), callers={"datagen"})
    assert {m for m, _, _ in patches} == {lib.datagen}
    assert {a for _, a, _ in patches} == {"generate_synthetic", "thin_qr"}


def test_capture_then_trace_restores_in_order():
    capture = run.Capture(lib)
    original = lib.bench.fd_sketch
    with patched(capture.patches):
        captured = lib.bench.fd_sketch
        with patched(tracing_patches(lib, Recorder())):
            assert lib.bench.fd_sketch is not captured
        assert lib.bench.fd_sketch is captured
    assert lib.bench.fd_sketch is original


def test_every_target_exists_and_sketchers_are_known():
    for module, attr, name, _ in trace_targets(lib):
        assert callable(getattr(module, attr)), (module.__name__, attr)
        assert name.split(".")[0] in {
            "bench", "sketch", "lowrank", "linalg", "datagen", "dataio", "netrank"}
    assert set(SKETCHERS) <= set(dir(lib.sketch))


def test_traced_run_method_counts_shrink_rounds():
    a = workloads.dense_matrix(lib, 1, n=400, d=50)
    rec = Recorder()
    with patched(tracing_patches(lib, rec)):
        factors, _ = lib.bench.run_method(a, "fd", 10, 5, 0)
        lib.bench.run_method(a, "spfd4", 10, 5, 0)
        exact = lib.lowrank.best_rank_k(a, 5)
        lib.lowrank.error_report(a, factors, exact, 0.0)
    m = {k: v for k, (v, _) in layer_metrics(rec.spans).items()}
    assert m["sketch.shrink_rounds.fd"] == 39  # 400 / 10 blocks, first fills
    assert m["sketch.shrink_rounds"] == 39 + 3
    assert m["bench.reps_attempted"] == 2
    assert m["lowrank.power_iters"] > 0
    assert m["linalg.svd_calls.lowrank"] == 3  # two reconstructions, one exact
    assert m["sketch.embed_s"] > 0


def test_output_checks_count_violations():
    a = workloads.dense_matrix(lib, 1, n=200, d=30)
    good = lib.sketch.fd_sketch(a, 10)
    first = run.PassRecord(1.0, {}, {}, [("bench", "fd", (a, 10), good)], "same")
    ops = workloads.Ops(run.clock)
    run.check_outputs(lib, ops, [first, first], first)
    assert (ops.attempted, ops.failed) == (3, 0)

    bad = lib.sketch.SketchOutput(sketch=2 * good.sketch, basis=good.basis,
                                  deltas=good.deltas)
    violating = run.PassRecord(1.0, {}, {}, [("bench", "fd", (a, 10), bad)], "same")
    other = run.PassRecord(1.0, {}, {}, [], "different")
    ops = workloads.Ops(run.clock)
    run.check_outputs(lib, ops, [violating, other], other)
    assert (ops.attempted, ops.failed) == (3, 3)


def test_digest_separates_values_and_ignores_identity():
    x = np.arange(6.0).reshape(2, 3)
    assert workloads.digest({"a": x, "b": [1, 2]}) == workloads.digest({"b": [1, 2], "a": x.copy()})
    assert workloads.digest(x) != workloads.digest(x.T)
    assert workloads.digest(x) != workloads.digest(x + 1e-300)
