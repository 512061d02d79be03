"""Run-to-run spread of the end-to-end metrics.

Usage, from the root of a checkout:

    python3 bench/spread.py --workload check --seeds 1-10 --seconds 20

Runs ``bench/run.py`` once per seed, one run at a time, and prints for each
metric the median of the runs and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound from BENCHMARK.json.
"""

import argparse
import fractions
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", default=None,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or str(spec["run_seconds"])
    values, shares = {}, set()
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add(fractions.Fraction(result["failed"], result["attempted"]))
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':<14}{'median':>12}{'iqr/median':>12}{'bound':>8}")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        print(f"{name:<14}{med:>12.4g}{(q3 - q1) / med:>12.4f}{bounds.get(name, 0):>8}")
    print(f"failed share of attempted: {sorted(str(s) for s in shares)}")


if __name__ == "__main__":
    main()
