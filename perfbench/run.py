"""End-to-end benchmark of the kNN-on-road-networks system.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 10 --trace 0

Run from the repository root.  Builds nothing: the program is the
pure-Python package under ``src/``, imported from this checkout.  Each
run sets the system up from scratch (several times; ``setup_s`` is the
median), measures for ``--seconds``, checks every answer against an
independent reference and prints, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer ones (and writes the
spans under ``perfbench/out/``).  The exit code is non-zero when any
operation failed or any answer was wrong.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: String hashing is fixed so that set and dict orders repeat run to run.
HASH_SEED = "0"

WORKLOADS = ("paper-grid", "serve-hotspot", "serve-churn")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable,
                 [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])
    # One core for the whole run, threads included: on two, the hand-off
    # between client and server threads settled per process into one of
    # two speeds (p50 0.51 or 0.67 ms on serve-churn), which split the
    # serving figures between runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [SRC, HERE]

    from metrics import END_TO_END, PER_LAYER, labelled
    from tracer import Tracer

    if args.workload == "paper-grid":
        from paper_grid import run
    elif args.workload == "serve-hotspot":
        from serving import run_hotspot as run
    else:
        from serving import run_churn as run

    tracer = Tracer(enabled=bool(args.trace))
    outcome = run(args.seed, args.seconds, tracer)
    if tracer.enabled:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.write(
            os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl"),
            meta=vars(args),
        )
    metrics = (
        labelled(outcome.layers, PER_LAYER) if tracer.enabled
        else labelled(outcome.end_to_end, END_TO_END)
    )
    wrong = sum(a.get("wrong", 0) for a in outcome.accounting.values())
    summary = {"accounting": outcome.accounting,
               "host_factors": outcome.host_factors,
               "problems": outcome.problems}
    if tracer.enabled:
        # The traced run's end-to-end figures, against which the untraced
        # run's give the tracing overhead.
        summary["end_to_end"] = outcome.end_to_end
    print(json.dumps(summary))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
