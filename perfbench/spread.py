"""Run one workload on several seeds and print each end-to-end metric's
median and quartile spread (Q3 - Q1 over the median) next to its bound.

    python3 perfbench/spread.py dense-fd 1 2 3 4 5 6 7 8 9 10

Runs are serial, untraced and use BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

from stats import median, quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    workload, seeds = argv[0], argv[1:]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict[str, list[float]] = {}
    for seed in seeds:
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
             "--seed", seed, "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        wall = time.perf_counter() - t0
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: wall {wall:.1f} s correct {result['correct']} "
              f"attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()),
              flush=True)
        for key, m in result["metrics"].items():
            values.setdefault(key, []).append(m["value"])
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        spread = quartile_spread(v) if len(v) >= 2 else float("nan")
        print(f"{m['name']:>16}: median {median(v):.5g}  spread {spread:.4f}  "
              f"bound {m['bound']}  bound/3 {m['bound'] / 3:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
