"""The four workloads: seeded input generators, one timed pass each, and the
accuracy figures computed after the timed passes.

The library sees only the generated inputs.  Every library call goes
through the attribute of the module that the caller would use
(``lib.bench.run_method``, ``lib.netrank.hits``, ...), so the traced run can
wrap it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import statistics
from pathlib import Path

import numpy as np
import scipy.sparse as sparse

K = 10
DENSE_FD_ELL = 100
SPARSE_ELL = 30
SWEEP_ELLS = "10:20:150"
# The campaign matrix is generated from this fixed seed; --seed varies the
# campaign's sketch draws.  On matrices generated from different seeds the
# power iteration on the exact residual takes anywhere from ~80 to ~700
# steps, which swings the pass time far beyond any usable bound.
SWEEP_MATRIX_SEED = 0
NETWORK_P = 5
# Calls well under a second are repeated within a pass; the run reports the
# median over all their calls.
SHORT_CALL_REPEATS = 8


def digest(obj, h=None) -> str:
    """sha256 over arrays (bytes, dtype, shape), numbers and containers."""
    top = h is None
    h = h or hashlib.sha256()
    if sparse.issparse(obj):
        obj = obj.tocsr()
        digest((obj.shape, obj.data, obj.indices, obj.indptr), h)
    elif isinstance(obj, np.ndarray):
        h.update(repr((obj.dtype.str, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        digest([getattr(obj, f.name) for f in dataclasses.fields(obj)], h)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            digest(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            digest(item, h)
        h.update(b"]")
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else ""


class Ops:
    """Times library calls and counts attempted and failed operations.  An
    output check is an operation too; a failed check counts as failed."""

    def __init__(self, clock):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def timed(self, times: dict, key: str, fn, *args, **kwargs):
        self.attempted += 1
        t0 = self.clock()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.problems.append(f"{key}: {type(exc).__name__}: {exc}")
            raise
        times[key] = times.get(key, 0.0) + self.clock() - t0
        return out

    def repeated(self, times: dict, key: str, repeats: int, comparable, fn,
                 *args, **kwargs):
        """Call ``fn`` ``repeats`` times; ``times[key]`` gets the list of
        call times, and ``comparable(output)`` must be identical across the
        calls."""
        outs, samples = [], []
        for _ in range(repeats):
            once: dict = {}
            outs.append(self.timed(once, key, fn, *args, **kwargs))
            samples.append(once[key])
        times[key] = samples
        first = digest(comparable(outs[0]))
        self.check(f"repeated {key} calls agree",
                   all(digest(comparable(o)) == first for o in outs[1:]))
        return outs[0]

    def tally(self, name: str, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{name}: {failed} of {attempted} failed")

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.tally(f"check {name} {detail}".rstrip(), 1, 0 if ok else 1)
        return ok


def is_sketched(method: str) -> bool:
    """Randomised embeddings: spemb and the block-embedded spfd<q>."""
    return method == "spemb" or method.startswith("spfd")


# --------------------------------------------------------------------------
# input generators (pure functions of the seed)
# --------------------------------------------------------------------------


def dense_matrix(lib, seed: int, n: int = 10000, d: int = 1000) -> np.ndarray:
    spec = lib.datagen.SyntheticSpec(n=n, d=d, k=K, zeta=10.0, seed=seed)
    return lib.datagen.generate_synthetic(spec)


def w8a_like(seed: int, n: int = 64700, d: int = 300, density: float = 0.04):
    """Binary CSR rows with skewed feature frequencies, like the w8a corpus:
    feature ``j`` is on with probability proportional to ``rank_j ** -0.7``,
    scaled so the mean density is ``density``."""
    rng = np.random.default_rng(seed)
    weights = rng.permutation(np.arange(1, d + 1) ** -0.7)
    p = np.minimum(weights * density * d / weights.sum(), 0.5)
    chunks = []
    for start in range(0, n, 8192):
        rows = min(8192, n - start)
        chunks.append(sparse.csr_matrix(rng.random((rows, d)) < p))
    return sparse.vstack(chunks, format="csr", dtype=np.float64)


def skewed_digraph(seed: int, n: int = 2000, edges: int = 16000) -> np.ndarray:
    """Directed edges ``(src, dst)``, 1-indexed, without self loops.  Every
    node has one out-edge; the rest are drawn with out- and in-degree
    weights ``rank ** -0.8`` under independent node orders.  Duplicates are
    left for the loader to collapse."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n + 1) ** -0.8
    p_out = rng.permutation(ranks)
    p_in = rng.permutation(ranks)
    p_out /= p_out.sum()
    p_in /= p_in.sum()
    src = np.concatenate([np.arange(n), rng.choice(n, edges - n, p=p_out)])
    dst = rng.choice(n, edges, p=p_in)
    keep = src != dst
    return np.stack([src[keep], dst[keep]], axis=1) + 1


def write_binary_svmlight(path: Path, a: sparse.csr_matrix) -> None:
    """svmlight rows ``0 j:1 ...`` (1-indexed) for a 0/1 CSR matrix."""
    tokens = [f" {j + 1}:1" for j in range(a.shape[1])]
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.split(a.indices, a.indptr[1:-1]):
            fh.write("0" + "".join([tokens[j] for j in row]) + "\n")


def write_edge_list(path: Path, pairs: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{i} {j}\n" for i, j in pairs))


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


class Workload:
    """``setup`` builds the inputs (timed as set-up); ``run_pass`` is one
    timed pass, filling ``times`` and returning outputs that must repeat
    bit for bit; ``finish`` computes the accuracy figures after the timed
    passes, from the last pass's outputs and the sketcher calls it made."""

    name = ""
    why = ""

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib, self.seed, self.workdir = lib, seed, workdir

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, ops: Ops, times: dict) -> dict:
        raise NotImplementedError

    def finish(self, ops: Ops, outputs: dict, sketches: list) -> dict:
        raise NotImplementedError

    def sketched_s(self, samples: dict) -> float:
        """Time of one pass's randomised-sketch calls (spemb, spfd<q>), from
        the medians of the run's per-operation ``samples``."""
        return sum(
            statistics.median(v) for key, v in samples.items()
            if key.startswith("approx_s.") and is_sketched(key[len("approx_s."):])
        )

    def restore(self) -> None:
        """Undo anything ``setup`` changed outside the work directory."""


def _factors(run_method_output):
    return run_method_output[0]


def _ranking(r):
    return (r.hub_scores, r.authority_scores, r.top_hubs, r.top_authorities)


def _ratios(reports) -> dict:
    return {
        "fro_ratio_max": max(r.fro_ratio for r in reports),
        "spec_ratio_max": max(r.spec_ratio for r in reports),
    }


class DenseFd(Workload):
    name = "dense-fd"
    why = "the paper's timing shape: fd and spfd50 on dense 10000x1000, dominated by FD shrink rounds"
    methods = ("fd", "spfd50")

    def setup(self):
        self.a = dense_matrix(self.lib, self.seed)
        warm = self.a[:2000, :200]
        for method in self.methods:
            self.lib.bench.run_method(warm, method, DENSE_FD_ELL // 5, K, self.seed)

    def run_pass(self, ops, times):
        out = {}
        for method in self.methods:
            out[method], _ = ops.timed(
                times, f"approx_s.{method}", self.lib.bench.run_method,
                self.a, method, DENSE_FD_ELL, K, self.seed,
            )
        return out

    def finish(self, ops, outputs, sketches):
        lowrank = self.lib.lowrank
        info = {}
        exact = ops.timed(info, "exact_ref_s", lowrank.best_rank_k, self.a, K)
        reports = [
            ops.timed(info, f"error_report_s.{m}", lowrank.error_report,
                      self.a, outputs[m], exact, 0.0)
            for m in self.methods
        ]
        return {**_ratios(reports), "outside_window_s": info}


class DenseSweep(Workload):
    name = "dense-sweep"
    why = "the paper-figure campaign: spemb and spfd50 swept over ell on one dense 2000x200 matrix, serial pool"
    methods = ("spemb", "spfd50")

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        self._threads = os.environ.get("SKETCHLAB_THREADS")

    def setup(self):
        self.config = self.workdir / "sweep.json"
        self.output = self.workdir / "sweep.csv"
        matrix = self.workdir / "sweep.mtx"
        self.lib.dataio.save_matrix_market(
            matrix, dense_matrix(self.lib, SWEEP_MATRIX_SEED, n=2000, d=200))
        campaign = {
            "schema_version": 1,
            "dataset": {"type": "file", "path": str(matrix),
                        "format": "matrixmarket"},
            "methods": list(self.methods),
            "k": K,
            "ell_sweep": SWEEP_ELLS,
            "repetitions": {"outer": 1, "inner": 1},
            "seed": self.seed,
            "format": "csv",
        }
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(campaign, fh)
        self.pool(serial=True)
        bench = self.lib.bench
        warm = bench.BenchConfig(
            dataset=self.lib.datagen.SyntheticSpec(n=200, d=60, k=K, seed=self.seed),
            methods=self.methods, k=K, ell_sweep=(10, 20, 50),
        )
        bench.run_benchmark(warm)

    def pool(self, serial: bool) -> None:
        """Pin the library's campaign pool to one worker, or leave it at the
        library default."""
        if serial:
            os.environ["SKETCHLAB_THREADS"] = "1"
        else:
            os.environ.pop("SKETCHLAB_THREADS", None)

    def restore(self):
        if self._threads is None:
            os.environ.pop("SKETCHLAB_THREADS", None)
        else:
            os.environ["SKETCHLAB_THREADS"] = self._threads

    def expected_reps(self, cfg) -> int:
        outer, inner = cfg.repetitions
        return len(cfg.methods) * len(cfg.ells) * outer * inner

    def run_pass(self, ops, times):
        bench = self.lib.bench
        cfg = ops.timed(times, "load_config_s", bench.load_config, self.config)
        rows = ops.timed(times, "campaign_s", bench.run_benchmark, cfg)
        ops.timed(times, "emit_s", bench.emit_results, rows, self.output, cfg.format)
        expected = self.expected_reps(cfg)
        done = sum(r.reps for r in rows)
        ops.tally("campaign repetitions", expected, expected - done)
        # With the pool pinned to one worker the library's per-repetition
        # clock covers exactly the sketch and reconstruction of each cell.
        times["campaign_reported_s"] = float(sum(r.elapsed_seconds for r in rows))
        times["reported_rep_s"] = [r.elapsed_seconds for r in rows]
        return {
            "rows": [(r.method, r.ell, r.fro_ratio, r.spec_ratio, r.reps)
                     for r in rows],
        }

    def sketched_s(self, samples):
        return statistics.median(samples["campaign_reported_s"])

    def finish(self, ops, outputs, sketches):
        rows = outputs["rows"]
        return {
            "fro_ratio_max": max(r[2] for r in rows),
            "spec_ratio_max": max(r[3] for r in rows),
        }


class SparseW8a(Workload):
    name = "sparse-w8a"
    why = "the same sketch and lowrank code through the sparse paths, on a w8a-shaped binary CSR input"
    methods = ("fd", "spfd10", "spemb")

    def setup(self):
        self.path = self.workdir / "w8a.svm"
        matrix = w8a_like(self.seed)
        self.n_cols = matrix.shape[1]
        write_binary_svmlight(self.path, matrix)
        warm = matrix[:3000]
        for method in self.methods:
            self.lib.bench.run_method(warm, method, SPARSE_ELL, K, self.seed)

    def run_pass(self, ops, times):
        lib = self.lib
        a = ops.timed(times, "load_s", lib.dataio.load_svmlight, self.path,
                      n_cols=self.n_cols)
        exact = ops.timed(times, "exact_ref_s", lib.lowrank.best_rank_k, a, K)
        out = {"matrix": a, "exact": exact}
        for method in self.methods:
            repeats = SHORT_CALL_REPEATS if is_sketched(method) else 1
            out[method], _ = ops.repeated(
                times, f"approx_s.{method}", repeats, _factors, lib.bench.run_method,
                a, method, SPARSE_ELL, K, self.seed,
            )
        return out

    def finish(self, ops, outputs, sketches):
        # error_report stays out of the timed pass: its power iteration
        # takes a data-dependent number of steps (0.3 to 1.0 s per call
        # across seeds), which would swamp the spread of pass_s.
        info = {}
        reports = [
            ops.timed(info, f"error_report_s.{m}", self.lib.lowrank.error_report,
                      outputs["matrix"], outputs[m], outputs["exact"], 0.0)
            for m in self.methods
        ]
        return {**_ratios(reports), "outside_window_s": info}


class NetworkExpm(Workload):
    name = "network-expm"
    why = "netrank and approx_svd on a skewed 2000-node digraph: exact expm, spfd50-sketched expm, HITS"

    def setup(self):
        self.path = self.workdir / "graph.txt"
        write_edge_list(self.path, skewed_digraph(self.seed))
        netrank = self.lib.netrank
        warm = sparse.random(200, 200, density=0.05, random_state=self.seed,
                             format="csr")
        warm.data[:] = 1.0
        netrank.expm_scores_exact(warm)
        netrank.expm_scores_sketched(warm, "spfd50", k=K, p=NETWORK_P, rng=self.seed)
        netrank.hits(warm, rng=self.seed)

    def run_pass(self, ops, times):
        lib = self.lib
        netrank = lib.netrank
        adj = ops.timed(times, "load_s", lib.dataio.load_edge_list, self.path)
        exact = ops.timed(times, "rank_s.expm_exact", netrank.expm_scores_exact,
                          adj, top_k=K)
        sketched = ops.repeated(
            times, "rank_s.expm_spfd50", SHORT_CALL_REPEATS, _ranking,
            netrank.expm_scores_sketched, adj, "spfd50", k=K, p=NETWORK_P,
            rng=self.seed,
        )
        hub = ops.timed(times, "rank_s.hits", netrank.hits, adj, rng=self.seed,
                        top_k=K)
        ops.check("hits converged", hub.status == "ok", f"(status {hub.status})")
        overlaps = [
            netrank.ranking_overlap(exact, sketched, K, kind)
            for kind in ("hubs", "authorities")
        ]
        return {
            "adj": adj,
            "rankings": [_ranking(r) for r in (exact, sketched, hub)],
            "overlap_min": min(overlaps),
        }

    def sketched_s(self, samples):
        return statistics.median(samples["rank_s.expm_spfd50"])

    def finish(self, ops, outputs, sketches):
        """Error ratios of the rank-k approximation in the row space of the
        spfd50 basis that the sketched ranking used."""
        lowrank = self.lib.lowrank
        adj = outputs["adj"]
        basis = next(out.basis for caller, _, _, out in sketches if caller == "netrank")
        info = {}
        exact = ops.timed(info, "exact_ref_s", lowrank.best_rank_k, adj, K)
        factors = ops.timed(info, "reconstruct_s", lowrank.approx_from_basis,
                            adj, basis, K)
        report = ops.timed(info, "error_report_s", lowrank.error_report,
                           adj, factors, exact, 0.0)
        return {**_ratios([report]), "overlap_min": outputs["overlap_min"],
                "outside_window_s": info}


WORKLOADS = {w.name: w for w in (DenseFd, DenseSweep, SparseW8a, NetworkExpm)}
