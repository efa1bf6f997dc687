"""Paired benchmark of the working tree against a parent revision.

Usage, from the repository root:

    python3 tools/bench_pair.py --parent HEAD~1 --out BENCH_<n>.json

The parent's committed files are exported with ``git archive`` into a
temporary directory, which is removed at the end; the repository's own
``.git`` is only read.  For every workload of ``BENCHMARK.json`` and each
of ten seeds, ``perfbench/run.py --trace 0`` runs once on each side for the
benchmark's ``run_seconds``, serially, with the side that runs first
alternating from seed to seed.  After the pairs, one ``--trace 1`` run
per side at the first seed gives the per-layer metrics of ``TRACED``.  The
output file holds, per workload, for each end-to-end metric and (under
``ops``) for each operation's median time in a run, such as
``rank_s.expm_exact``, and (under ``after_window``) for each operation
timed after the window, such as ``exact_ref_s``, each side's median and
quartiles, the pairs each side won and ``pair_ratio``, the median and the
10th and 90th percentiles of the per-pair change/parent ratio.  An end-to-end metric is also marked
``resolved``: false when that ratio's p90 - p10 exceeds the metric's
``bound`` in ``BENCHMARK.json``, so that its pairs cannot tell a change
within the bound from noise.  The file also holds every run's values and
its hypervisor steal time (``steal_s``, ``None`` where unreadable),
``crit7_ratio`` from the ``dense-fd`` run records, each side's traced
metrics, the tier-1 wall time, exit and summary of each side (run as CI
runs it, with warnings as errors), its ``src_lines`` (per
``src/sketchlab/*.py`` module and in total: its lines, and its code lines,
those that are not blank, comments or docstrings), and the environment of
the first run's record, with the BLAS thread count added.

``BENCH_AA.json``, when the repository root holds it, is an A/A record: the
same command run with the parent as both sides.  Each workload's end-to-end
``pair_ratio`` there is copied beside the new one as ``aa_pair_ratio``, the
spread that pairs of identical code show on this machine, and printed on
the summary line.
"""

from __future__ import annotations

import argparse
import ast
import ctypes
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time
import tokenize
from pathlib import Path
from typing import Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
# the fewest pairs a gain claim is judged on
PAIRS = 10
# a gain needs this share of pairs won, as well as a median gap wider than
# the distance between the parent's quartiles
GAIN_SHARE = 0.9
# per-layer metrics recorded from each side's traced run
TRACED = ("dataio.load_s", "sketch.embed_s", "lowrank.reconstruct_s",
          "lowrank.exact_ref_s", "lowrank.error_report_s", "lowrank.residual_spec_s",
          "lowrank.residual_fro_s", "lowrank.power_iters", "linalg.svd_calls.lowrank",
          "sketch.shrink_rounds")
TRACED_NOTE = ("sketch.shrink_rounds reads 0 while perfbench counts a round as "
               "a sketch.svd call, which only fallback rounds make (ROADMAP item 1)")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The committed files of ``rev``, written under ``dest``."""
    with tempfile.TemporaryFile() as fh:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                       check=True, stdout=fh)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(dest, filter="data")


def run_perfbench(root: Path, workload: str, seed: int, seconds: float,
                  trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return read_run(root, workload, seed, trace, json.loads(lines[-1]))


def read_run(root: Path, workload: str, seed: int, trace: int, result: dict) -> dict:
    """One run's result line joined with its record file: metric values,
    each operation's median time, the times of the operations after the
    window (``accuracy.outside_window_s``; empty where the record has
    none), ``crit7_ratio`` and the environment."""
    record_file = root / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(record_file.read_text(encoding="utf-8"))
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: m["value"] for k, m in record["metrics"].items()},
        "ops": {k: op["median"] for k, op in record["ops"].items()},
        "after_window": dict(record["accuracy"].get("outside_window_s", {})),
        "crit7_ratio": record.get("crit7_ratio"),
        "environment": record["environment"],
    }


def tier1_seconds(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-W", "error", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - t0, "exit": proc.returncode,
            "summary": lines[-1] if lines else ""}


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold a token other than a comment or a
    module, class or function docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            docstrings.add((node.body[0].lineno, node.body[0].col_offset))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip and tok.start not in docstrings:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def src_lines(root: Path) -> dict:
    paths = sorted((root / "src" / "sketchlab").glob("*.py"))
    counts = {path.name: path.read_bytes().count(b"\n") for path in paths}
    code = {path.name: code_lines(path.read_text(encoding="utf-8")) for path in paths}
    return {"modules": counts, "total": sum(counts.values()),
            "code_modules": code, "code_total": sum(code.values())}


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or ``None`` if unknown."""
    try:
        with open("/proc/self/maps", encoding="ascii") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def quartiles(values: list) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3)}


def compare(parent: list, change: list, better: str, bound=None) -> dict:
    """Medians, quartiles, pair wins and per-pair ratios of one metric on
    one workload; with a ``bound``, whether the ratios' 10th to 90th
    percentile spread is within it.  A parent value of 0 leaves the ratios
    undefined (``None``), and such a metric unresolved."""
    sign = 1.0 if better == "lower" else -1.0
    change_wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    parent_wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    out = {"better": better, "parent": quartiles(parent), "change": quartiles(change),
           "pairs": len(parent), "change_wins": change_wins, "parent_wins": parent_wins}
    gap = sign * (out["parent"]["median"] - out["change"]["median"])
    iqr = out["parent"]["q3"] - out["parent"]["q1"]
    out["change_over_parent"] = (out["change"]["median"] / out["parent"]["median"]
                                 if out["parent"]["median"] else None)
    out["gain"] = change_wins >= GAIN_SHARE * len(parent) and gap > iqr
    out["pair_ratio"] = None
    if all(parent):
        p10, med, p90 = np.percentile([c / p for p, c in zip(parent, change)],
                                      [10, 50, 90])
        out["pair_ratio"] = {"median": float(med), "p10": float(p10), "p90": float(p90)}
    if bound is not None:
        ratio = out["pair_ratio"]
        out["resolved"] = ratio is not None and ratio["p90"] - ratio["p10"] <= bound
    return out


def compare_runs(runs: list, better: dict, bounds: Optional[dict] = None) -> dict:
    """Per-pair comparisons of one workload's runs: every end-to-end metric
    under ``metrics``, checked against its entry in ``bounds``, and every
    operation time both sides recorded in all their runs under ``ops``
    and, for the operations after the window, under ``after_window``
    (lower is better; a workload whose runs share none has no
    ``after_window``)."""
    by_side = {s: [r for r in runs if r["side"] == s] for s in ("parent", "change")}
    entry = {"runs": runs, "metrics": {}, "ops": {}}
    for name in runs[0]["metrics"]:
        entry["metrics"][name] = compare(
            [r["metrics"][name] for r in by_side["parent"]],
            [r["metrics"][name] for r in by_side["change"]],
            better.get(name, "lower"), (bounds or {}).get(name))
    for key in ("ops", "after_window"):
        for name in sorted(set.intersection(*(set(r[key]) for r in runs))):
            entry.setdefault(key, {})[name] = compare(
                [r[key][name] for r in by_side["parent"]],
                [r[key][name] for r in by_side["change"]], "lower")
    if runs[0]["crit7_ratio"] is not None:
        entry["crit7_ratio"] = {s: quartiles([r["crit7_ratio"] for r in side_runs])
                                for s, side_runs in by_side.items()}
    return entry


def add_aa(out: dict, aa: dict) -> None:
    """Give every end-to-end metric of ``out`` the ``pair_ratio`` of the
    same workload and metric in the A/A record ``aa`` as ``aa_pair_ratio``
    (``None`` where ``aa`` has none)."""
    for workload, entry in out["workloads"].items():
        aa_metrics = aa["workloads"].get(workload, {}).get("metrics", {})
        for name, m in entry["metrics"].items():
            m["aa_pair_ratio"] = aa_metrics.get(name, {}).get("pair_ratio")


def ratio_text(ratio) -> str:
    return "n/a" if ratio is None else (
        f"{ratio['median']:.4g} [{ratio['p10']:.4g}, {ratio['p90']:.4g}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--out", required=True, type=Path, help="BENCH_<n>.json to write")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + PAIRS))
    parent_rev = git("rev-parse", args.parent)
    out = {
        "parent": parent_rev,
        "change": {"head": git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(git("status", "--porcelain",
                                                   "--untracked-files=no"))},
        "seconds": seconds, "seeds": seeds, "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        parent_root = Path(tmp)
        export(parent_rev, parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        for workload in workloads:
            runs = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    run = run_perfbench(roots[side], workload, seed, seconds)
                    env = run.pop("environment")
                    if "environment" not in out:
                        out["environment"] = dict(env, blas_threads=blas_threads())
                    run.update(side=side, seed=seed, first=order[0],
                               steal_s=env.get("steal_s"))
                    runs.append(run)
                    print(f"{workload} seed {seed} {side}: pass_s "
                          f"{run['metrics'].get('pass_s', float('nan')):.4g}", flush=True)
            entry = compare_runs(runs, better, bounds)
            entry["traced"] = {"seed": seeds[0], "note": TRACED_NOTE}
            for side, root in roots.items():
                metrics = run_perfbench(root, workload, seeds[0], seconds, trace=1)["metrics"]
                entry["traced"][side] = {name: metrics[name] for name in TRACED}
            out["workloads"][workload] = entry
        out["tier1"] = {side: tier1_seconds(root) for side, root in roots.items()}
        out["src_lines"] = {side: src_lines(root) for side, root in roots.items()}
    aa_file = ROOT / "BENCH_AA.json"
    if aa_file.is_file():
        add_aa(out, json.loads(aa_file.read_text(encoding="utf-8")))
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    for workload, entry in out["workloads"].items():
        for name, m in entry["metrics"].items():
            aa = f"  aa {ratio_text(m['aa_pair_ratio'])}" if "aa_pair_ratio" in m else ""
            print(f"{workload} {name}: parent {m['parent']['median']:.6g} "
                  f"change {m['change']['median']:.6g}  wins {m['change_wins']}/"
                  f"{m['pairs']}  ratio {ratio_text(m['pair_ratio'])}{aa}  "
                  f"gain {m['gain']}  resolved {m.get('resolved')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
