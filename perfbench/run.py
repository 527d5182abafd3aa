"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout: the program is imported from the
checkout's ``src/`` directory and nowhere else.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it are for people.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  The exit code is 0 only when every checked output was
correct.

The program reads ``REPRO_*`` environment variables for engine, sharding,
observability and serving defaults.  The command drops them all before it
imports the program, so the measured code path is the one named here and
not one an ambient setting selects.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve-mixed", "batch-large", "verify-small")


def _import_checkout() -> None:
    """Put the checkout's ``src/`` first on the path and insist on it."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"cannot import the program from {src}: {exc}")
    if Path(repro.__file__).resolve().parent.parent != src:
        raise SystemExit(f"repro was imported from {repro.__file__}, not from {src}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the self-test")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt the first checked MIS (self-test of the failure path)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_checkout()

    import batch_large
    import serve_mixed
    import verify_small
    from harness import END_TO_END, PER_LAYER, Outcome

    workload = {
        "serve-mixed": serve_mixed,
        "batch-large": batch_large,
        "verify-small": verify_small,
    }[args.workload]
    outcome = Outcome(corrupt_next_check=args.inject_fault)
    workload.run(args.seed, args.seconds, bool(args.trace), args.size, outcome)

    units = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        raise SystemExit(f"{args.workload} did not measure {', '.join(missing)}")
    for line in outcome.notes:
        print(line)
    metrics = {name: {"value": float(outcome.metrics[name]), "unit": unit}
               for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name:<52} {metric['value']:>16.6f} {metric['unit']}")
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
