"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 perfbench/spread.py --workload W [--seeds 10] [--first-seed 1]

Runs ``run.py`` once per seed, one run at a time, and prints for each metric
its median and the distance between its first and third quartiles as a share
of the median, next to the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={m['value']:.4g}"
                         for k, m in result["metrics"].items()), flush=True)
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
    for metric in bench["end_to_end"]:
        xs = values[metric["name"]]
        q1, _, q3 = statistics.quantiles(xs, n=4)
        med = statistics.median(xs)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
        print(f"{metric['name']:14s} median {med:12.5g}  spread {spread:7.2%}"
              f"  bound {metric['bound']:.0%}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
