"""sketchlab benchmark: one workload per process, seeded inputs, output checks.

Usage, from the repository root:

    python3 perfbench/run.py --workload dense-fd --seed 1 --seconds 20 --trace 0

``--trace 0`` times whole passes with nothing wrapped and reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs one untraced and one
traced pass and reports the per-layer metrics.  Human-readable lines go to
standard output, the full record to ``.perfbench/results/``, and the last
line of standard output is the JSON result.  See BENCHMARK.md.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from layers import SKETCHERS, layer_metrics, tracing_patches  # noqa: E402
from spans import Recorder, patched  # noqa: E402
from stats import high_percentile, median  # noqa: E402
from workloads import WORKLOADS, Ops, digest  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150
clock = time.perf_counter


class LibraryMissing(RuntimeError):
    pass


def import_library():
    """Import sketchlab from ``src/`` of this checkout and nowhere else."""
    src = ROOT / "src"
    if not (src / "sketchlab" / "__init__.py").is_file():
        raise LibraryMissing(f"no sketchlab package under {src}")
    sys.path.insert(0, str(src))
    import sketchlab
    from sketchlab import bench, datagen, dataio, linalg, lowrank, netrank, sketch  # noqa: F401

    if Path(sketchlab.__file__).resolve().parent != (src / "sketchlab").resolve():
        raise LibraryMissing(f"sketchlab was imported from {sketchlab.__file__}")
    return sketchlab


def steal_s():
    """Seconds of CPU time the hypervisor gave to others so far, summed over
    this machine's CPUs (``/proc/stat``); ``None`` where that is unknown."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def fresh_import_s() -> float:
    """Seconds to import sketchlab (and with it numpy and scipy) in a fresh
    interpreter; a set-up repeated within one process cannot re-import."""
    code = ("import sys, time; t0 = time.perf_counter(); "
            "sys.path.insert(0, sys.argv[1]); import sketchlab; "
            "print(time.perf_counter() - t0)")
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)
    return float(done.stdout)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # internal: one traced pass for the BLAS-at-one-thread baseline
    parser.add_argument("--single-pass", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Capture:
    """Keeps every sketcher call made through ``bench`` or ``netrank``, for
    the output checks.  The wrapper reads no clock."""

    def __init__(self, lib):
        self.calls: list = []
        self.patches = []
        for module in (lib.bench, lib.netrank):
            caller = module.__name__.rsplit(".", 1)[-1]
            for name, method_of in SKETCHERS.items():
                if hasattr(module, name):
                    self.patches.append(
                        (module, name, self._make(caller, method_of)))

    def _make(self, caller, method_of):
        def make(fn):
            def captured(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.calls.append((caller, method_of(*args, **kwargs), args, out))
                return out

            return captured

        return make

    def take(self) -> list:
        calls, self.calls = self.calls, []
        return calls


@dataclasses.dataclass
class PassRecord:
    pass_s: float
    times: dict
    outputs: dict
    sketches: list
    digest: str


def one_pass(workload, ops, capture) -> PassRecord:
    times: dict = {}
    capture.take()  # drop calls made outside the pass, such as warm-up
    t0 = clock()
    outputs = workload.run_pass(ops, times)
    pass_s = clock() - t0
    sketches = capture.take()
    fingerprint = digest([outputs, [(c, m, out) for c, m, _, out in sketches]])
    return PassRecord(pass_s, times, outputs, sketches, fingerprint)


def traced_pass(lib, workload, ops, capture, recorder) -> PassRecord:
    with patched(tracing_patches(lib, recorder)):
        return one_pass(workload, ops, capture)


def guarded(ops, label, fn, *args):
    """Run ``fn``; an exception is printed and counted as one failed
    operation (unless ``Ops.timed`` already counted it) and gives ``None``."""
    before = ops.failed
    try:
        return fn(*args)
    except Exception:
        print(f"perfbench: {label} failed", file=sys.stderr)
        traceback.print_exc()
        if ops.failed == before:
            ops.tally(label, 1, 1)
        return None


def timed_passes(workload, ops, capture, seconds) -> list[PassRecord]:
    """At least ``MIN_PASSES`` passes, stopping once another pass would end
    more than half a pass past ``seconds``; one pass when ``seconds`` is
    ``None``."""
    passes: list[PassRecord] = []
    t_begin = clock()
    while True:
        rec = guarded(ops, "pass", one_pass, workload, ops, capture)
        if rec is None:
            return passes
        passes.append(rec)
        if seconds is None:
            return passes
        if (len(passes) >= MIN_PASSES
                and clock() - t_begin + rec.pass_s / 2 >= seconds):
            return passes


def check_outputs(lib, ops, passes, traced) -> None:
    """FD property P3 on the first pass's fd-family sketches, then bit-for-bit
    agreement of every pass (and the traced pass) with the first."""
    for caller, method, args, out in passes[0].sketches:
        if method == "fd":
            x = args[0]
        elif method.startswith("spfd"):
            x = lib.sketch.spfd_intermediate(args[0], args[1])
        else:
            continue
        # ||X||_F^2 - ||B||_F^2 - ell * sum(delta) >= 0 up to roundoff, with
        # X the matrix the frequent-directions loop consumed
        ell = out.sketch.shape[0]
        x_sq = lib.linalg.fro_norm(x) ** 2
        slack = x_sq - float(np.sum(out.sketch**2)) - ell * out.delta_total
        ops.check(f"FD P3 {caller}.{method} ell={ell}", slack >= -1e-8 * x_sq,
                  f"(slack {slack:.3e}, ||X||^2 {x_sq:.3e})")
    for i, rec in enumerate(passes[1:], start=2):
        ops.check(f"pass {i} repeats pass 1 bit for bit",
                  rec.digest == passes[0].digest)
    if traced is not None:
        ops.check("traced outputs equal untraced outputs",
                  traced.digest == passes[0].digest)


def environment(lib) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "SKETCHLAB_THREADS": os.environ.get("SKETCHLAB_THREADS"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "sketchlab": lib.__version__,
    }


def op_summary(passes: list[PassRecord]) -> dict:
    """Samples, median and, where there are enough samples, a high
    percentile of every per-operation time across the passes."""
    samples: dict[str, list[float]] = {"pass_s": [p.pass_s for p in passes]}
    for p in passes:
        for key, value in p.times.items():
            samples.setdefault(key, []).extend(
                value if isinstance(value, list) else [value])
    return {
        key: {"median": median(v), "n": len(v), "tail": high_percentile(v),
              "samples": v}
        for key, v in samples.items()
    }


def blas_one_thread_pass(args) -> dict:
    """The workload's pass in a child process with BLAS at one thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--trace", "1", "--single-pass"]
    done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"BLAS-1 child exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def single_pass(lib, workload, ops, capture, environment_block) -> int:
    """Child mode: one traced pass, printed as one JSON line."""
    recorder = Recorder()
    rec = traced_pass(lib, workload, ops, capture, recorder)
    layers = layer_metrics(recorder.spans)
    print(json.dumps({
        "pass_s": rec.pass_s,
        **{k: v for k, v in rec.times.items() if k.startswith("approx_s.")},
        **{k: layers[k][0] for k in ("sketch.shrink_rounds",
                                     "sketch.shrink_ms_per_round", "sketch.shrink_s")},
        "environment": environment_block,
    }))
    return 0 if ops.failed == 0 else 1


def default_pool_pass(lib, workload, ops, capture, serial: PassRecord) -> dict:
    """One traced dense-sweep pass with the library's default pool, as a
    user of ``sketchlab bench`` gets it."""
    workload.pool(serial=False)
    recorder = Recorder()
    try:
        pooled = traced_pass(lib, workload, ops, capture, recorder)
    finally:
        workload.pool(serial=True)
    reported = pooled.times["campaign_reported_s"]
    return {
        "workers": os.cpu_count(),
        "pass_s": pooled.pass_s,
        "reported_s": reported,
        "serial_reported_s": serial.times["campaign_reported_s"],
        "reported_inflation": reported / serial.times["campaign_reported_s"],
        "rep_busy_s": layer_metrics(recorder.spans)["bench.rep_busy_s"][0],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        lib = import_library()
    except (LibraryMissing, ImportError) as exc:
        print(f"perfbench: cannot import sketchlab from this checkout: {exc}",
              file=sys.stderr)
        return 2
    import_s = clock() - _START

    steal_at_start = steal_s()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workdir = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](lib, args.seed, workdir)
    ops = Ops(clock)
    capture = Capture(lib)
    record: dict = {"workload": args.workload, "seed": args.seed,
                    "trace": args.trace, "why": workload.why}
    traced = None
    recorder = Recorder()
    try:
        with patched(capture.patches):
            setup_times = []
            for _ in range(1 if args.trace else SETUP_REPEATS):
                # the traced run records input generation, and nothing else,
                # during set-up
                with patched(tracing_patches(lib, recorder, callers={"datagen"})
                             if args.trace else []):
                    t0 = clock()
                    workload.setup()
                    setup_times.append(clock() - t0)
                if not args.trace:
                    setup_times[-1] += fresh_import_s()
            record["environment"] = environment(lib)
            if args.single_pass:
                return single_pass(lib, workload, ops, capture, record["environment"])

            passes = timed_passes(workload, ops, capture,
                                  None if args.trace else args.seconds)
            if not passes:
                print("perfbench: no pass completed", file=sys.stderr)
                return 1
            if args.trace:
                traced = guarded(ops, "traced pass", traced_pass, lib, workload,
                                 ops, capture, recorder)
            last = traced or passes[-1]
            with patched(tracing_patches(lib, recorder) if traced else []):
                accuracy = guarded(ops, "finish", workload.finish, ops,
                                   last.outputs, last.sketches) or {}
            check_outputs(lib, ops, passes, traced)

            # informational, never gated
            if traced and workload.name == "dense-sweep":
                record["default_pool"] = guarded(
                    ops, "default-pool pass", default_pool_pass, lib, workload,
                    ops, capture, traced)
            if args.trace and workload.name == "dense-fd":
                record["blas_1_thread"] = guarded(
                    ops, "BLAS-1 pass", blas_one_thread_pass, args)
    finally:
        workload.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    steal_at_end = steal_s()
    if steal_at_start is not None and steal_at_end is not None:
        # host contention: a run that lost CPU time to other guests reads slow
        record["environment"]["steal_s"] = steal_at_end - steal_at_start
    summary = op_summary(passes)
    record.update({"attempted": ops.attempted, "failed": ops.failed,
                   "problems": ops.problems, "import_s": import_s,
                   "setup_runs_s": setup_times, "ops": summary,
                   "outputs_digest": passes[0].digest, "accuracy": accuracy,
                   "fail_ratio": ops.failed / ops.attempted})
    if workload.name == "dense-fd":
        record["crit7_ratio"] = (summary["approx_s.fd"]["median"]
                                 / summary["approx_s.spfd50"]["median"])

    if args.trace:
        values = layer_metrics(recorder.spans)
        values["tracing_overhead_s"] = (
            traced.pass_s - passes[0].pass_s if traced else float("nan"), "s")
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": (median(setup_times), "s"),
            "pass_s": (summary["pass_s"]["median"], "s"),
            "sketched_s": (workload.sketched_s(
                {k: v["samples"] for k, v in summary.items()}), "s"),
            "fro_ratio_max": (accuracy.get("fro_ratio_max", float("nan")), "ratio"),
            "spec_ratio_max": (accuracy.get("spec_ratio_max", float("nan")), "ratio"),
            "ok_ratio": (1.0 - record["fail_ratio"], "fraction"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        wanted = spec["end_to_end"]
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    print_report(record)
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    print(f"record: {out_file.relative_to(ROOT)}")

    metrics = {}
    for m in wanted:
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            raise ValueError(f"{m['name']}: unit {unit} but BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": float(value), "unit": unit}
    correct = ops.failed == 0 and all(np.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": bool(correct), "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


def print_report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print(f"  why: {record['why']}")
    for key, value in record["environment"].items():
        print(f"  env {key}: {value}")
    print(f"  ops attempted {record['attempted']}  failed {record['failed']}"
          f"  fail_ratio {record['fail_ratio']:.6g}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    for key, s in record["ops"].items():
        tail = s["tail"]
        extra = f"  p{tail['p']} {tail['value']:.6g} s" if tail else ""
        print(f"  op {key}: median {s['median']:.6g} s  n={s['n']}{extra}")
    if "crit7_ratio" in record:
        print(f"  crit7_ratio: {record['crit7_ratio']:.6g}")
    for key, value in record["accuracy"].items():
        print(f"  accuracy {key}: {value}")
    for key in ("default_pool", "blas_1_thread"):
        if record.get(key):
            print(f"  {key}: {json.dumps(record[key], default=str)}")
    for key, m in record["metrics"].items():
        print(f"  metric {key}: {m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
