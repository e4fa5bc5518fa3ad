"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload page-loads --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the closed loop for ``--seconds`` with tracing off
and prints the end-to-end metrics; ``--trace 1`` runs one pass untraced,
one with layer spans and one under cProfile, and prints the per-layer
metrics.  Earlier lines carry provenance (host, inputs, samples) and,
when traced, the separation checks; the last line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.

``--pin`` rewrites ``pinned.json`` with the outputs of the default seed;
do so only after checking that a change of outputs is intended.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("page-loads", "bulk-transfer-loads", "hint-fleet", "hint-churn")


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without leaving ``root``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def host() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_sha": git_sha(ROOT),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin", action="store_true", help="rewrite pinned.json and exit"
    )
    args = parser.parse_args(argv)
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources at {SRC.relative_to(ROOT)}/repro; "
            "run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    import measure

    if args.pin:
        with open(measure.PINNED_PATH, "w") as handle:
            json.dump(measure.pin_records(), handle, indent=1)
            handle.write("\n")
        return 0

    if args.trace:
        outcome = measure.trace(args.workload, args.seed)
    else:
        outcome = measure.measure(args.workload, args.seed, args.seconds)
    print(json.dumps({"provenance": {"host": host(), "inputs": outcome.info}}))
    if outcome.checks:
        print(json.dumps({"checks": outcome.checks}))
    for name, value in outcome.metrics.items():
        print(f"{name:34s} {value:>16.6g} {outcome.units[name]}")
    print(f"attempted {outcome.attempted}  failed {outcome.failed}")
    print(outcome.result_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
