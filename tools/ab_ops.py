"""In-process A/B timing of one library operation against a parent revision.

Usage, from the repository root:

    python3 tools/ab_ops.py --parent HEAD~1 --workload dense-sweep \\
        --op run_method --method spfd50 --ell 110 --out ab.json

The parent's committed files are exported with ``git archive`` into a
temporary directory, as ``tools/bench_pair.py`` does, and its
``src/sketchlab`` and the working tree's are imported into this one process
as the packages ``sketchlab_parent`` and ``sketchlab_change``.  The input is
the named workload's, built once by ``perfbench/workloads.py``'s generators
(which are only read) at ``--seed``: the dense 10000x1000 matrix of
``dense-fd``, the 2000x200 campaign matrix of ``dense-sweep``, the
w8a-shaped CSR of ``sparse-w8a`` or the adjacency of ``network-expm``'s
digraph.  One untimed call per side warms up; then ``--calls`` calls per
side alternate, the side that goes first alternating from pair to pair.

The output file holds each side's per-call times, median and minimum, the
pairs each side won, the median of the per-pair change/parent ratio, and
the sha256 digests of each side's outputs, with ``identical`` true when
every call on both sides gave the same bytes.  When they did not,
``max_rel_diff`` is the largest difference between the two sides' first
outputs, array by array, relative to the parent array's largest
magnitude, so that a rounding-level change reads as one.  An output with
frequent-directions rounds (a `SketchOutput`) also gives each side's round
count and ``gram_fallbacks`` (``fd_rounds``), and the printed line names
them when the two sides' differ, so a change of round route shows beside
the times.  The operations
(``OPS``) compare their results only, not their clocks: ``run_method``
gives the rank-k factors of `bench.run_method`, ``sketch`` the
`SketchOutput` of `bench.sketch_by_id`, ``expm_exact`` and
``expm_sketched`` the hub and authority scores, and ``twins`` the
``(first, group, count)`` grouping of the adjacency's columns by
`netrank._twins`.  The record and the printed line name only the inputs
the operation reads (`op_inputs`): ``--method`` and ``--ell`` for
``run_method`` and ``sketch``, ``--method`` for ``expm_sketched``, whose
sketch size is ``k + p = 15``, and neither for ``expm_exact`` and
``twins``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from bench_pair import ROOT, blas_threads, export, git

K = 10
NETWORK_P = 5


def _scores(r):
    return r.hub_scores, r.authority_scores


OPS = {
    "run_method": lambda lib, a, o: lib.bench.run_method(a, o.method, o.ell, K, o.seed)[0],
    "sketch": lambda lib, a, o: lib.bench.sketch_by_id(a, o.method, o.ell, o.seed),
    "expm_exact": lambda lib, a, o: _scores(lib.netrank.expm_scores_exact(a, top_k=K)),
    "expm_sketched": lambda lib, a, o: _scores(lib.netrank.expm_scores_sketched(
        a, o.method, k=K, p=NETWORK_P, rng=o.seed)),
    "twins": lambda lib, a, o: lib.netrank._twins(lib.linalg.as_csr(a).T.tocsr()),
}


def op_inputs(args) -> dict:
    """The options operation ``args.op`` reads, with the values it uses."""
    if args.op in ("run_method", "sketch"):
        return {"method": args.method, "ell": args.ell}
    if args.op == "expm_sketched":
        return {"method": args.method, "ell": K + NETWORK_P}
    return {}


def arrays(obj) -> list:
    """The arrays and numbers of an operation's output, in field order."""
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    if isinstance(obj, (list, tuple)):
        return [x for item in obj for x in arrays(item)]
    return [] if obj is None else [np.asarray(obj, dtype=float)]


def fd_rounds(out):
    """The round count and ``gram_fallbacks`` of a `SketchOutput`, or
    ``None`` for any other output."""
    if not hasattr(out, "gram_fallbacks"):
        return None
    return {"rounds": int(out.deltas.size), "gram_fallbacks": int(out.gram_fallbacks)}


def max_rel_diff(parent, change):
    """The largest ``max|p - c| / max|p|`` over the corresponding arrays of
    two outputs (0 where both arrays are zero, inf where only ``c`` is not),
    or ``None`` when their arrays differ in number or shape."""
    ps, cs = arrays(parent), arrays(change)
    if [p.shape for p in ps] != [c.shape for c in cs]:
        return None
    worst = 0.0
    for p, c in zip(ps, cs):
        if p.size:
            diff, scale = float(np.abs(p - c).max()), float(np.abs(p).max())
            worst = max(worst, diff / scale if scale else np.inf if diff else 0.0)
    return worst


def load_module(path: Path, name: str, package_dir=None):
    """Import the file ``path`` as the module ``name``; a package's
    ``__init__.py`` takes its directory as ``package_dir``."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=package_dir and [str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_package(root: Path, name: str):
    """The ``src/sketchlab`` package of the tree at ``root``, imported as
    ``name``; its modules import each other relatively, so they load as
    ``name.<module>``."""
    package = root / "src" / "sketchlab"
    return load_module(package / "__init__.py", name, package)


def workload_input(wl, lib, workload: str, seed: int, tmp: Path):
    """The input matrix of ``workload`` at ``seed``, built by perfbench's
    workloads module ``wl`` as its runs build it."""
    if workload == "dense-fd":
        return wl.dense_matrix(lib, seed)
    if workload == "dense-sweep":
        return wl.dense_matrix(lib, wl.SWEEP_MATRIX_SEED, n=2000, d=200)
    if workload == "sparse-w8a":
        return lib.linalg.as_csr(wl.w8a_like(seed))
    if workload == "network-expm":
        path = tmp / "graph.txt"
        wl.write_edge_list(path, wl.skewed_digraph(seed))
        return lib.dataio.load_edge_list(path)
    raise ValueError(f"unknown workload '{workload}'")


def alternate(fns: dict, calls: int, digest) -> dict:
    """One untimed call per side of ``fns`` (``{"parent": f, "change": g}``),
    then ``calls`` timed calls per side in alternating order; per-call
    times, their medians and minimums, pair wins, the median per-pair
    ratio and the digests of the outputs; when those differ, the
    `max_rel_diff` of the untimed outputs; for sketch outputs, each side's
    `fd_rounds`."""
    times = {side: [] for side in fns}
    first = {side: fn() for side, fn in fns.items()}
    digests = {side: {digest(out)} for side, out in first.items()}
    sides = list(fns)
    for i in range(calls):
        for side in (sides if i % 2 == 0 else sides[::-1]):
            t0 = time.perf_counter()
            out = fns[side]()
            times[side].append(time.perf_counter() - t0)
            digests[side].add(digest(out))
    parent, change = times["parent"], times["change"]
    identical = len(digests["parent"] | digests["change"]) == 1
    rounds = {side: fd_rounds(out) for side, out in first.items()}
    return {
        "calls": calls,
        "times_s": times,
        "median_s": {side: statistics.median(t) for side, t in times.items()},
        "min_s": {side: min(t) for side, t in times.items()},
        "change_wins": sum(c < p for p, c in zip(parent, change)),
        "parent_wins": sum(p < c for p, c in zip(parent, change)),
        "pair_ratio_median": statistics.median(c / p for p, c in zip(parent, change)),
        "digests": {side: sorted(d) for side, d in digests.items()},
        "identical": identical,
        **({} if identical else
           {"max_rel_diff": max_rel_diff(first["parent"], first["change"])}),
        **({"fd_rounds": rounds} if None not in rounds.values() else {}),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--workload", required=True,
                        choices=("dense-fd", "dense-sweep", "sparse-w8a", "network-expm"))
    parser.add_argument("--op", required=True, choices=sorted(OPS))
    parser.add_argument("--method", default="spfd50", help="sketcher id")
    parser.add_argument("--ell", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--calls", type=int, default=20)
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    args = parser.parse_args(argv)

    parent_rev = git("rev-parse", args.parent)
    with tempfile.TemporaryDirectory(prefix="ab-ops-") as tmp:
        parent_root = Path(tmp) / "parent"
        export(parent_rev, parent_root)
        libs = {"parent": load_package(parent_root, "sketchlab_parent"),
                "change": load_package(ROOT, "sketchlab_change")}
        wl = load_module(ROOT / "perfbench" / "workloads.py", "ab_ops_workloads")
        a = workload_input(wl, libs["change"], args.workload, args.seed, Path(tmp))
        op = OPS[args.op]
        fns = {side: (lambda lib=lib: op(lib, a, args)) for side, lib in libs.items()}
        result = alternate(fns, args.calls, wl.digest)
    inputs = op_inputs(args)
    out = {
        "parent": parent_rev,
        "change": {"head": git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(git("status", "--porcelain",
                                                   "--untracked-files=no"))},
        "workload": args.workload, "op": args.op, **inputs, "seed": args.seed,
        "blas_threads": blas_threads(), **result,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    med, low = out["median_s"], out["min_s"]
    label = " ".join([args.workload, args.op, *(f"{k}={v}" for k, v in inputs.items())])
    differ = "" if out["identical"] else f", max_rel_diff {out['max_rel_diff']}"
    rounds = out.get("fd_rounds")
    if rounds and rounds["parent"] != rounds["change"]:
        p, c = rounds["parent"], rounds["change"]
        differ += (f", rounds {p['rounds']} -> {c['rounds']}, gram_fallbacks "
                   f"{p['gram_fallbacks']} -> {c['gram_fallbacks']}")
    print(f"{label}: median "
          f"{med['parent'] * 1e3:.4g} -> {med['change'] * 1e3:.4g} ms, min "
          f"{low['parent'] * 1e3:.4g} -> {low['change'] * 1e3:.4g} ms, change wins "
          f"{out['change_wins']}/{args.calls}, ratio {out['pair_ratio_median']:.3f}, "
          f"identical {out['identical']}{differ}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
