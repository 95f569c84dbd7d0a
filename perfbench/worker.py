"""Fresh workload process started by run.py; prints one JSON line.

The package is imported from the checkout's own src/ directory.
"""
import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.runner import run  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 trace_path=args.trace_out)
    result["failures"] = [repr(f)[:300] for f in result["failures"]]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
