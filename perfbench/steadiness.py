"""Run workloads repeatedly and print how much each metric spreads.

    python3 perfbench/steadiness.py --runs 10 [--workload paper-grid ...]

Runs ``run.py`` once per seed (seeds ``--first-seed`` onwards), one run
at a time, and prints for every end-to-end metric of every workload the
median, the quartiles (``statistics.quantiles(values, n=4)``), the
quartile spread as a share of the median, and max - min, next to the
metric's bound from ``BENCHMARK.json``.  The exit code is non-zero if a
run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0, max(values) - min(values)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload in args.workload:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(run_once(workload, seed, args.seconds))
            print(f"# {workload} seed {seed}: attempted {runs[-1]['attempted']}"
                  f" failed {runs[-1]['failed']}", file=sys.stderr, flush=True)
        print(f"\n{workload}: {len(runs)} runs of {args.seconds} s, seeds "
              f"{args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"{'metric':<26}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'iqr/med':>9}{'max-min':>12}{'bound':>7}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, rel, rng = spread(values) if len(values) > 1 else (
                values[0], values[0], values[0], 0.0, 0.0)
            bound = bounds.get(name)
            print(f"{name:<26}{med:>12.4g}{q1:>12.4g}{q3:>12.4g}{rel:>9.3f}"
                  f"{rng:>12.4g}{'' if bound is None else bound:>7}")
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"failed share: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
