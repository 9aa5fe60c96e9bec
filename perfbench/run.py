"""Benchmark of the finalg CLI: named workloads of real jobs, checked answers.

    python3 perfbench/run.py --workload structure --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports finalg from its `src`.  Each
job calls `finalg.cli.main(argv)` in this process, one at a time (a closed
loop with one caller); the report it prints is captured and checked after
timing.  The job list is run in passes until `--seconds` is spent.

With `--trace 0` the last line of standard output holds the end-to-end
metrics (medians over passes).  With `--trace 1` the first half of the
time runs untraced passes and the second half traced ones, and the last
line holds the per-layer metrics (see layertrace.py).  The line before
the last records the environment, the command-time sums, and the failed
and capped job ratios.  README.md in this directory defines every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "finalg"
SETUPS_FIRST = 3
SETUPS_PER_PASS = 1
SETUP_TIMEOUT_S = 120
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as info:
        cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(PACKAGE.glob("*.py"))
        ),
    }


def timed_setups(workload: str, seed: int, out_dir: Path, count: int) -> list[float]:
    """Run the set-up step in fresh interpreters and return its times."""
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(out_dir.relative_to(ROOT))],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()}")
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


class Pass:
    """One run of the whole job list."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.peak_rss_mib = 0.0  # of the whole process, when the pass ended
        self.job_times: list[float] = []
        self.outcomes: list[tuple[int | None, str, str | None]] = []  # code, stdout, error
        self.layers = None


def run_pass(jobs: list[dict], main, tracer=None) -> Pass:
    record = Pass()
    if tracer is not None:
        tracer.begin_pass()
    started = time.perf_counter()
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = main(job["argv"])
                else:
                    code = tracer.run_job(main, job["argv"])
        except Exception as exc:  # a job that raises is a failed job; keep going
            where = traceback.extract_tb(exc.__traceback__)[-1]
            error = f"{type(exc).__name__}: {exc} ({Path(where.filename).name}:{where.lineno})"
        record.job_times.append(time.perf_counter() - t0)
        record.outcomes.append((code, out.getvalue(), error))
    record.wall = time.perf_counter() - started
    record.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        record.layers = tracer.end_pass()
    return record


def run_passes(jobs, main, budget: float, tracer=None, between=None) -> list[Pass]:
    """Passes until the next one would take the pass time past the budget;
    at least one.  `between` runs after each pass, outside the budget."""
    passes = [run_pass(jobs, main, tracer)]
    while True:
        if between is not None:
            between()
        spent = sum(p.wall for p in passes)
        if spent + passes[-1].wall > budget:
            return passes
        passes.append(run_pass(jobs, main, tracer))


def check_passes(jobs, passes, reference, workloads) -> tuple[int, int, int, list[str]]:
    """(attempted, failed, capped, first failure reasons)."""
    attempted = failed = capped = 0
    reasons: list[str] = []
    for record in passes:
        for job, (code, stdout, error) in zip(jobs, record.outcomes):
            attempted += 1
            capped += int(code == workloads.EXIT_CAPPED)
            reason = error or workloads.check(job, code, stdout, reference)
            if reason is not None:
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"{job['id']}: {reason}")
    return attempted, failed, capped, reasons


def command_sums(jobs, passes, workloads) -> dict:
    """Median over passes of the summed job time of each command group."""
    sums: dict[str, list[float]] = {}
    for record in passes:
        per_pass: dict[str, float] = {}
        for job, seconds in zip(jobs, record.job_times):
            group = workloads.command_group(job)
            per_pass[group] = per_pass.get(group, 0.0) + seconds
        for group, seconds in per_pass.items():
            sums.setdefault(group, []).append(seconds)
    return {group: statistics.median(values) for group, values in sums.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no finalg sources under {PACKAGE.parent}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    os.chdir(ROOT)
    env = environment()
    out_dir = HERE / "out" / f"{args.workload}-{args.seed}"
    try:
        # set-up samples are spread over the run, before the first pass and
        # after each one, so that their median does not hang on the speed
        # of the shared machine during one second
        setup_times = timed_setups(args.workload, args.seed, out_dir, SETUPS_FIRST)

        def sample_setup():
            setup_times.extend(timed_setups(args.workload, args.seed, out_dir, SETUPS_PER_PASS))

        jobs = json.loads((out_dir / "jobs.json").read_text(encoding="utf-8"))
        reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

        sys.path.insert(0, str(ROOT / "src"))
        from finalg import cli

        if Path(cli.__file__).resolve().parent != PACKAGE:
            print(f"error: finalg imported from {cli.__file__}", file=sys.stderr)
            return 2

        tracer = None
        if args.trace:
            from layertrace import LayerTracer

            passes = run_passes(jobs, cli.main, args.seconds / 2)
            tracer = LayerTracer(PACKAGE)
            tracer.install()
            remaining = args.seconds - sum(p.wall for p in passes)
            try:
                traced = run_passes(jobs, cli.main, remaining, tracer)
            finally:
                tracer.uninstall()
        else:
            passes = run_passes(jobs, cli.main, args.seconds, between=sample_setup)
            traced = []
        attempted, failed, capped, reasons = check_passes(jobs, passes + traced, reference, workloads)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    wall_s = statistics.median(p.wall for p in passes)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "env": env,
        "jobs": len(jobs),
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "traced_passes": len(traced),
        "setup_runs_s": setup_times,
        "commands_s": command_sums(jobs, passes, workloads),
        "failed_ratio": failed / attempted,
        "capped_ratio": capped / attempted,
        "failures": reasons,
    }
    problem = None
    if tracer is None:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            # after the first pass, so that the number of passes that fit
            # in the run does not move it
            "peak_rss_mib": {"value": passes[0].peak_rss_mib, "unit": "MiB"},
        }
    else:
        metrics, extra, problem = traced_metrics(args, tracer, traced, wall_s)
        info.update(extra, self_check=problem or "ok")
    print(json.dumps(info))
    correct = failed == 0 and problem is None
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def _report_bytes(stdout: str) -> int:
    """Bytes of a report without its wall-time line, the one line that
    differs between runs of the same job."""
    return sum(
        len(line.encode("utf-8"))
        for line in stdout.splitlines(keepends=True)
        if '"wall_time_seconds"' not in line
    )


def traced_metrics(args, tracer, traced, untraced_wall):
    """Per-layer metrics (medians over traced passes), the workload shares,
    and the first self-check failure, if any; writes the spans to out/."""
    import layertrace

    per_pass = []
    problem = None
    for record in traced:
        report_bytes = sum(_report_bytes(stdout) for _, stdout, _ in record.outcomes)
        per_pass.append(layertrace.layer_metrics(record.layers, untraced_wall, report_bytes))
        problem = problem or layertrace.self_check(record.layers)
    medians = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics = {name: {"value": value, "unit": layertrace.unit(name)} for name, value in medians.items()}
    spans_path = HERE / "out" / f"trace-{args.workload}-{args.seed}.json"
    spans_path.write_text(json.dumps(tracer.span_table()), encoding="utf-8")
    extra = {
        "shares": layertrace.workload_shares(args.workload, medians),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, extra, problem


if __name__ == "__main__":
    sys.exit(main())
