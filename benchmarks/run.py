"""spheremap benchmark: run one workload (or all) and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Repeats fresh-interpreter passes of the
workload (benchmarks/one_pass.py) until S seconds have gone and at least
three have run, all with the inputs the seed makes, and prints the medians
over passes.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` alternates traced and untraced passes and
reports its per-layer metrics, with the tracing overhead.  The last line of
output is one JSON object; the lines before it give the machine and a
readable summary.  ``--workload all`` runs every workload in turn.  Exits 0
when every output checked out, 1 when one did not, 2 when there is no
spheremap source to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# a run must end within 180 s; no pass starts that would likely run past this
RUN_LIMIT_S = 170.0
# a median needs a few passes, even when one pass outlasts --seconds
MIN_PASSES = 3


def machine() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (
        f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"cpu={cpu!r}"
    )


def run_pass(workload: str, seed: int, traced: bool, corrupt: bool, timeout: float):
    """One fresh-interpreter pass; None if it crashed or timed out."""
    cmd = [
        sys.executable, str(HERE / "one_pass.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
    ] + (["--corrupt"] if corrupt else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"# {workload}: pass timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(
            f"# {workload}: pass exited {proc.returncode}\n{proc.stderr[-2000:]}",
            file=sys.stderr,
        )
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def median(key: str, runs: list) -> float:
    return statistics.median(r[key] for r in runs)


def run_workload(workload: str, args, spec: dict):
    """Passes until --seconds have gone; returns (attempted, failed, metrics),
    the metrics as {name: (value, unit)}."""
    run_start = perf_counter()
    deadline = run_start + args.seconds
    passes, attempted, failed = [], 0, 0
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 0
        t = perf_counter()
        timeout = max(1.0, RUN_LIMIT_S - (t - run_start))
        result = run_pass(workload, args.seed, traced, args.corrupt, timeout)
        if result is None:
            attempted, failed = attempted + 1, failed + 1
            break
        attempted += result["attempted"]
        failed += result["failed"]
        for problem in result["failures"]:
            print(f"# {workload}: FAILED {problem}", file=sys.stderr)
        passes.append((traced, result))
        now = perf_counter()
        if now + (now - t) - run_start > RUN_LIMIT_S:
            break
        if len(passes) >= MIN_PASSES and now >= deadline:
            break

    metrics: dict[str, float] = {}
    plain = [r for traced, r in passes if not traced]
    if plain:
        print(
            f"# {workload}: measured wall_s median {median('wall_s', plain):.4g} s, "
            f"host slowdown {statistics.median(r['wall_s'] / r['ref_wall_s'] for r in plain):.3g}"
        )
    traced_runs = [r for traced, r in passes if traced]
    if args.trace:
        if traced_runs and plain:
            metrics["run.wall_s"] = median("wall_s", traced_runs)
            metrics["run.trace_overhead_s"] = (
                median("ref_wall_s", traced_runs) - median("ref_wall_s", plain)
            )
            metrics["run.wait_s"] = statistics.median(
                r["elapsed_s"] - r["cpu_s"] for _, r in passes
            )
            metrics["run.host_slowdown"] = statistics.median(
                r["wall_s"] / r["ref_wall_s"] for _, r in passes
            )
            for m in spec["per_layer"]:
                if m["name"] not in metrics:
                    # median_low: a count stays a count that some pass made
                    metrics[m["name"]] = statistics.median_low(
                        r["layers"].get(m["name"], 0) for r in traced_runs
                    )
    elif plain:
        metrics["wall_s"] = median("ref_wall_s", plain)
        metrics["setup_s"] = median("ref_setup_s", plain)
        metrics["peak_rss_mib"] = median("peak_rss_mib", plain)
        metrics["ops_ok_ratio"] = 1 - failed / attempted
    print(
        f"# {workload}: {len(passes)} passes, ops_failed_ratio {failed / attempted:.4g} "
        f"({failed}/{attempted})"
    )
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return attempted, failed, {k: (v, units[k]) for k, v in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description="spheremap benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt", action="store_true",
        help="verify_high_dim only: feed one document with a flipped orientation sign",
    )
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "spheremap" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no spheremap source under {ROOT / 'src'} to benchmark", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        parser.error(f"--workload must be one of {names} or all")
    if args.corrupt and workloads != ["verify_high_dim"]:
        parser.error("--corrupt applies to verify_high_dim only")

    print(f"# machine: {machine()}")
    attempted = failed = 0
    out: dict[str, dict] = {}
    for workload in workloads:
        a, f, metrics = run_workload(workload, args, spec)
        attempted, failed = attempted + a, failed + f
        prefix = "" if len(workloads) == 1 else workload + "."
        for name, (value, unit) in metrics.items():
            shown = f"{value:.6g}" if isinstance(value, float) else value
            print(f"# {prefix}{name} = {shown} {unit}")
            out[prefix + name] = {"value": value, "unit": unit}
    correct = failed == 0 and bool(out)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
