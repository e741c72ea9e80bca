"""Check that the benchmark counts a wrong output as a failure.

    python3 benchmarks/selfcheck.py

Runs verify_high_dim for one second (three passes) with one document whose
orientation has a flipped sign.  `spheremap verify` must reject that
document in every pass, and the run must report it: correct false, an
ops_failed_ratio of 1/4 (one of each pass's four operations) and no
traceback anywhere in its output.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    proc = subprocess.run(
        [
            sys.executable, "benchmarks/run.py", "--workload", "verify_high_dim",
            "--seed", "1", "--seconds", "1", "--trace", "0", "--corrupt",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    failed_ratio = result["failed"] / result["attempted"]
    ok_ratio = result["metrics"]["ops_ok_ratio"]["value"]
    problems = [
        msg
        for ok, msg in (
            (proc.returncode == 1, f"run exited {proc.returncode}, expected 1"),
            (not result["correct"], "run reported correct: true"),
            # the corrupted document is one of the four operations of each pass
            (failed_ratio == 0.25, f"ops_failed_ratio {failed_ratio}, expected 1/4"),
            (ok_ratio == 1 - failed_ratio, f"ops_ok_ratio {ok_ratio} != 1 - ops_failed_ratio"),
            ("ValidationError" in proc.stderr, "the failure is not verify's ValidationError"),
            ("Traceback" not in proc.stdout + proc.stderr, "a traceback was printed"),
        )
        if not ok
    ]
    for msg in problems:
        print(f"selfcheck: {msg}", file=sys.stderr)
    print(
        f"selfcheck: ops_failed_ratio {failed_ratio:.4g} "
        f"({result['failed']}/{result['attempted']}): {'ok' if not problems else 'FAILED'}"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
