"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload session --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics of an untraced run; ``--trace 1`` installs the layer probes and
prints the per-layer metrics instead (spans go to ``perfbench/out/``).
The last line of standard output is the result object; the process exits
non-zero when a check fails or the program's source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("session", "chain", "batch")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"no program source at {source}: run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path[:0] = [source, ROOT]

    import importlib

    from perfbench.common import END_TO_END, OUT_DIR
    from perfbench.layers import PER_LAYER_METRICS, PROBES, layer_metrics
    from perfbench.tracing import LayerTracer

    workload = importlib.import_module(f"perfbench.{args.workload}")
    tracer = LayerTracer(PROBES) if args.trace else None
    outcome = workload.run(args.seed, args.seconds, tracer)

    for message in outcome.failures + outcome.problems:
        print(f"{args.workload}: {message}", file=sys.stderr)
    # Context for a reader: rounds run, traced-region wall time, host pace
    # and the end-to-end metrics in plain wall seconds.
    print(json.dumps({"rounds": outcome.rounds,
                      "measured_wall_s": outcome.traced_wall_s,
                      "pace": outcome.pace, "wall_metrics": outcome.raw}),
          file=sys.stderr)
    if tracer is not None:
        values = layer_metrics(tracer, outcome.traced_wall_s, outcome.counts)
        units = PER_LAYER_METRICS
        tracer.write_spans(os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        values = outcome.end_to_end
        units = END_TO_END
    correct = not outcome.problems and all(name in values
                                           for name, _ in units)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units if name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
