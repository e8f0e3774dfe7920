"""The smartbag benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload pipeline|backlog|train \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory. With --trace 0 the last line of standard output is a
JSON object holding every end-to-end metric; with --trace 1 it holds every
per-layer metric, taken from spans, after an untraced and a traced run of
the same inputs (their difference is the tracing overhead). Lines before
it give the workload's own metric names, the environment, and notes.

Any failed correctness check exits with status 1. See perfbench/README.md
for the workloads, layers and predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("pipeline", "backlog", "train")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink set-up for a quick smoke run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "smartbag" / "__init__.py").is_file():
        print(f"error: no smartbag sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import harness

    workload = __import__(args.workload)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        result, layers = measure(workload, args, workdir, harness)
    except harness.GateFailure as e:
        print(f"correctness gate failed: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit in harness.PER_LAYER.items()}
    else:
        values = dict(result["metrics"], peak_rss_mb=harness.peak_rss_mb())
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in harness.END_TO_END.items()}
    attempted, failed = result["attempted"], result["failed"]
    print(json.dumps({"workload": args.workload, **result["report"],
                      "error_ratio": failed / attempted}))
    print(json.dumps({"environment": harness.environment()}))
    for note in result["notes"]:
        print(f"note: {note}")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def measure(workload, args, workdir, harness):
    """Run the workload; in trace mode run it untraced, then traced."""
    tracer = harness.Tracer(False)
    result = workload.run(args.seed, args.seconds, tracer, workdir / "run",
                          args.tiny)
    if not args.trace:
        return result, None

    tracer = harness.Tracer(True)
    traced = workload.run(args.seed, args.seconds, tracer, workdir / "traced",
                          args.tiny)
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"spans-{args.workload}.jsonl")
    windows = traced["windows"]
    unaccounted = [(end - start) / 1e9 - covered for (start, end), covered
                   in zip(windows, tracer.accounted_s(windows))]
    layers = dict(traced["layers"])
    layers["trace.overhead_ms"] = (traced["metrics"]["latency_ms.p50"]
                                   - result["metrics"]["latency_ms.p50"])
    layers["trace.unaccounted_ms"] = harness.median(unaccounted) * 1e3
    layers["trace.spans"] = len(tracer.spans)
    traced["attempted"] += result["attempted"]
    traced["failed"] += result["failed"]
    return traced, layers


if __name__ == "__main__":
    sys.exit(main())
