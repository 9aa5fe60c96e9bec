"""Print the pinned answers of every pinned job as JSON.

    python3 perfbench/pin.py > perfbench/reference.json

Run it only when an answer change is intended and announced: the
benchmark counts every job whose answer differs from reference.json as
failed.  Answers are label-invariant (see `workloads.answer`), so the seed
used here does not matter; test_perfbench.py checks that on two seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PIN_SEED = 0


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from finalg import cli

    import workloads

    pinned = {}
    out_dir = HERE / "out" / "pin"
    try:
        for workload in workloads.WORKLOADS:
            for job in workloads.prepare(workload, PIN_SEED, ROOT, out_dir / workload):
                if job["check"] not in ("pinned", "expand"):
                    continue
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(job["argv"])
                pinned[job["id"]] = workloads.answer(code, json.loads(out.getvalue()))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(pinned, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
