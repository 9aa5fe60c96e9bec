"""Set-up step of the finalg benchmark, run in a fresh interpreter.

Imports finalg from the checkout's `src`, writes the seeded inputs and the
job list of one workload, and prints the seconds this took as JSON.
`run.py` starts it several times and reports the median as `setup_s`.

    python3 perfbench/prepare.py --workload structure --seed 1 --out perfbench/out/structure-1
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import finalg

    if Path(finalg.__file__).resolve().parent != ROOT / "src" / "finalg":
        print(f"error: finalg imported from {finalg.__file__}, not this checkout", file=sys.stderr)
        return 1
    import workloads

    jobs = workloads.prepare(args.workload, args.seed, ROOT, Path(args.out))
    print(json.dumps({"setup_s": time.perf_counter() - STARTED, "jobs": len(jobs)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
