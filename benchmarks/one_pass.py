"""One pass of one workload, in the interpreter it is started in.

    python3 benchmarks/one_pass.py --workload NAME --seed N --trace 0|1 [--corrupt]

Imports spheremap from ``src/`` of the checkout, sets up the workload's
inputs, runs its CLI operations in-process through ``spheremap.cli.main``
and checks each output.  Prints one JSON line: setup and pass wall time,
CPU time, peak RSS, operations attempted and failed with the failure
messages, and with ``--trace 1`` the per-layer metrics; the spans go to
``.bench_build/benchmarks/spans-NAME.json``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import signal
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "benchmarks"

# Host speed probe: fixed pure-Python work that touches nothing of
# spheremap.  PROBE_REF_S is its time on the reference host, and
# PROBE_EVERY_S how often it runs during a pass.  When the probe runs s
# times slower, spheremap's passes run about s**PROBE_EXPONENT times
# slower: fitted on the reference host over three series of 36 to 91
# passes each (search_circle and build_high_degree), which gave 0.85-0.92.
PROBE_DATA = [tuple((i * 7919 + k * 104729) % 97 for k in range(4)) for i in range(600)]
PROBE_REF_S = 0.00025
PROBE_EVERY_S = 0.1
PROBE_EXPONENT = 0.9


def probe() -> float:
    """Seconds for one round of tuple, sort and dict work, timed on its
    second run so the first warms the caches, with the collector off."""
    gc.disable()
    try:
        for _ in range(2):
            start = perf_counter()
            seen: dict = {}
            for tup in PROBE_DATA:
                key = tuple(sorted(tup))
                seen[key] = seen.get(key, 0) + 1
            elapsed = perf_counter() - start
    finally:
        gc.enable()
    return elapsed


class HostClock:
    """Elapsed time both as measured and at reference host speed.

    A SIGALRM every PROBE_EVERY_S runs the probe; the time between two
    probes counts (PROBE_REF_S / their mean) ** PROBE_EXPONENT times at
    reference speed, so a stretch where neighbours slow the host down
    counts for what it would have taken on a quiet one.  Time spent in the
    probe counts for neither.
    """

    def __init__(self):
        self.raw = self.ref = 0.0
        self.last = probe()
        self.mark = perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def _tick(self, *_):
        span = perf_counter() - self.mark
        p = probe()
        self.raw += span
        self.ref += span * (2 * PROBE_REF_S / (self.last + p)) ** PROBE_EXPONENT
        self.last = p
        self.mark = perf_counter()

    def lap(self) -> tuple[float, float]:
        """(measured, reference-speed) seconds since the last lap."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick()
        out = (self.raw, self.ref)
        self.raw = self.ref = 0.0
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return out

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_op(op) -> "str | None":
    """None if the operation exited 0 and its output checks out, else why
    not.  A crash in the program or in a check counts as a failure."""
    cli = sys.modules["spheremap.cli"]
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(op.argv)
        if code != 0:
            return f"exit {code}: {err.getvalue().strip()[-300:]}"
        return op.check(out.getvalue())
    except SystemExit as e:
        return f"exit {e.code}: {err.getvalue().strip()[-300:]}"
    except Exception as e:
        return f"{type(e).__name__}: {e}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()

    clock = HostClock()
    sys.path.insert(0, str(ROOT / "src"))
    import spheremap.cli  # noqa: F401  (the import is part of set-up)

    import spans
    from workloads import WORKLOADS

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        ops = WORKLOADS[args.workload](args.seed, Path(tmp), args.corrupt)
        tracer = spans.install() if args.trace else None
        setup_s, ref_setup_s = clock.lap()
        start, cpu_start = perf_counter(), process_time()
        failures = [problem for problem in map(run_op, ops) if problem]
        elapsed_s, cpu_s = perf_counter() - start, process_time() - cpu_start
        wall_s, ref_wall_s = clock.lap()
        clock.stop()
    result = {
        "setup_s": setup_s,
        "ref_setup_s": ref_setup_s,
        "wall_s": wall_s,
        "ref_wall_s": ref_wall_s,
        "elapsed_s": elapsed_s,
        "cpu_s": cpu_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(OUT_DIR / f"spans-{args.workload}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
