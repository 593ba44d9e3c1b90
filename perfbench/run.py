"""The query service's end-to-end benchmark: one command, three workloads.

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 8 --trace 0

Run from the repository root.  ``--seed`` fixes every input; ``--seconds``
sizes the work to about that many seconds of serving on today's code.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
once untraced and once traced and prints the per-layer metrics instead.
Every answer is checked byte for byte against a reference computed outside
the timed region; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is 1 when
any answer was wrong or missing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

WORKLOADS = ("acceptance", "tenants_served", "gamma_growth")

#: Set-ups before each pass (and, in-process, after the last); ``setup_s`` is the median of all.
SETUP_REPEATS = 2

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SOURCE}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(HERE)]
    import workloads
    from metrics import END_TO_END_UNITS, PER_LAYER_UNITS

    try:
        report = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), SETUP_REPEATS)
    except workloads.InvalidRun as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 3
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    missing = set(units) - set(report.metrics)
    if missing:
        raise RuntimeError(f"workload {args.workload} did not report {sorted(missing)}")
    for name, unit in units.items():
        print(f"{args.workload} {name} {report.metrics[name]:.6g} {unit}")
    print(
        f"{args.workload} failed_share {report.failed / report.attempted:.6g} "
        f"({report.failed} of {report.attempted})"
    )
    for note in report.notes:
        print(f"{args.workload} {note}")
    correct = report.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": {
                    name: {"value": report.metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
