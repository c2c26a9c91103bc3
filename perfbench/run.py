"""Benchmark of the spongedim CLI: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 40 --trace 0

Each job is a real command line run in-process through
``spongedim.cli.run(argv)`` with stdout and stderr captured and output
files written to a scratch directory.  One client, no threads: a job starts
when the previous one has finished and been checked.  The job list is run
in whole passes for as long as another pass fits in ``--seconds``, and at
least as many passes as ``job_tail_s`` needs (see ``min_passes``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` half the time runs untraced and half with the boundary
tracer installed, and the last line carries the per-layer metrics, per pass
of the job list, and the tracing overhead.  A run summary, and for a traced
run the span tree, go to ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import check
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
REFERENCES = HERE / "reference"

# set-ups timed per untraced run; setup_s is their median
SETUP_REPEATS = 21
# percentiles tried for job_tail_s, highest first; an untraced run times
# enough job runs for the last of them
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_ABOVE = 10

_SETUP_CHILD = """
import sys
from pathlib import Path
root, here = Path(sys.argv[1]), sys.argv[2]
sys.path[:0] = [str(root / "src"), here]
import workloads
workloads.setup(sys.argv[3], int(sys.argv[4]), root, Path(sys.argv[5]))
"""


@dataclass
class Phase:
    """Timings of one measured phase: whole passes over the job list."""

    job_seconds: list[list[float]]
    passes: int = 0
    passed: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.passed + self.failed

    @property
    def run_times(self) -> list[float]:
        """Wall time of every timed job run."""
        return [t for ts in self.job_seconds for t in ts]

    @property
    def jobs_per_s(self) -> float:
        """Jobs that passed per second of timed wall time."""
        return self.passed / sum(self.run_times)


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of the pct-th percentile of n values."""
    return max(1, math.ceil(pct / 100 * n))


def percentile(run_times: list[float], pct: float) -> float:
    """Nearest-rank percentile: a time one of the runs actually took."""
    return sorted(run_times)[_rank(pct, len(run_times)) - 1]


def _above(pct: float, n: int) -> int:
    """Runs above the nearest-rank percentile of n runs."""
    return n - _rank(pct, n)


def tail(run_times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with ten runs above it."""
    n = len(run_times)
    for pct in TAIL_LADDER:
        if _above(pct, n) >= TAIL_MIN_ABOVE:
            return pct, percentile(run_times, pct)
    raise ValueError(f"{n} job runs leave no percentile with {TAIL_MIN_ABOVE} above it")


def min_passes(jobs_per_pass: int) -> int:
    """Fewest passes whose job runs give job_tail_s a percentile of the ladder."""
    passes = 1
    while _above(TAIL_LADDER[-1], passes * jobs_per_pass) < TAIL_MIN_ABOVE:
        passes += 1
    return passes


def load_references(workload: str) -> dict:
    path = REFERENCES / f"{workload}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def run_job(cli, job: workloads.Job, tmp: Path,
            spans: tracer.Tracer | None = None) -> tuple[dict, float]:
    """Run one job in-process; return its observed result and wall time."""
    argv = job.resolve(ROOT, tmp)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            if spans is None:
                code = cli.run(argv)
            else:
                code = spans.job(job.key, cli.run, argv)
        except Exception as exc:  # a job that raises is a failed job, not a failed run
            code = f"raised {type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
    wrote = next(
        (line.replace(str(tmp), "{tmp}") for line in err.getvalue().splitlines()
         if line.startswith("wrote ")),
        None,
    )
    files = {}
    for name in job.outputs:
        path = tmp / name
        if path.exists():
            files[name] = hashlib.sha256(path.read_bytes()).hexdigest()
            path.unlink()
        else:
            files[name] = None
    return {"exit": code, "stdout": out.getvalue(), "wrote": wrote, "files": files}, seconds


def job_problems(job: workloads.Job, result: dict, refs: dict, seed: int) -> list[str]:
    problems = check.invariant_problems(job.expect, result)
    ref = refs.get(job.key)
    if ref is not None:
        problems += check.reference_problems(ref, result)
    elif seed == workloads.DEFAULT_SEED:
        problems.append("no reference recorded for this job")
    return problems


def measure(cli, jobs: list[workloads.Job], tmp: Path, budget_s: float, refs: dict,
            seed: int, spans: tracer.Tracer | None = None, passes: int = 1) -> Phase:
    """Whole passes while another one fits in budget_s, and at least `passes`."""
    phase = Phase([[] for _ in jobs])
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        for job, seconds_so_far in zip(jobs, phase.job_seconds):
            gc.collect()
            result, seconds = run_job(cli, job, tmp, spans)
            seconds_so_far.append(seconds)
            problems = job_problems(job, result, refs, seed)
            if problems:
                phase.failed += 1
                phase.failures.append(f"{job.key}: {'; '.join(problems[:3])}")
            else:
                phase.passed += 1
        phase.passes += 1
        now = perf_counter()
        if phase.passes >= passes and (now - start) + (now - pass_start) > budget_s:
            return phase


def time_setups(workload: str, seed: int, scratch: Path) -> list[float]:
    """Wall time of fresh interpreters doing a run's set-up, up to the first job."""
    times = []
    for i in range(SETUP_REPEATS):
        tmp = scratch / f"setup{i}"
        tmp.mkdir()
        argv = [sys.executable, "-c", _SETUP_CHILD, str(ROOT), str(HERE),
                workload, str(seed), str(tmp)]
        t0 = perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return times


def assert_untraced() -> None:
    for mod in tracer.package_modules():
        for attr, value in vars(mod).items():
            if tracer.is_wrapper(value):
                raise RuntimeError(f"{mod.__name__}.{attr} is still traced")


def plain_run(cli, jobs, tmp: Path, args, refs: dict, setup_times: list[float]):
    """End-to-end metrics of an untraced run."""
    assert_untraced()
    phase = measure(cli, jobs, tmp, args.seconds, refs, args.seed,
                    passes=min_passes(len(jobs)))
    times = phase.run_times
    pct, tail_s = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "jobs_per_s": (phase.jobs_per_s, "1/s"),
        "job_p50_s": (percentile(times, 50), "s"),
        "job_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    summary = {
        "passes": phase.passes,
        "tail_percentile": pct,
        "tail_job_runs": len(times),
        "setup_s_samples": setup_times,
        "job_seconds": {j.key: ts for j, ts in zip(jobs, phase.job_seconds)},
    }
    return summary, metrics, [phase]


def traced_run(cli, jobs, tmp: Path, args, refs: dict):
    """Untraced then traced passes, half the time each; per-layer metrics."""
    assert_untraced()
    plain = measure(cli, jobs, tmp, args.seconds / 2, refs, args.seed)
    spans = tracer.Tracer()
    spans.install()
    try:
        traced = measure(cli, jobs, tmp, args.seconds / 2, refs, args.seed, spans)
    finally:
        spans.uninstall()
    assert_untraced()
    spans.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")

    metrics = tracer.layer_metrics(spans, traced.passes)
    metrics["trace.jobs_per_s"] = (traced.jobs_per_s, "1/s")
    metrics["trace.untraced_jobs_per_s"] = (plain.jobs_per_s, "1/s")
    metrics["trace.slowdown"] = (plain.jobs_per_s / traced.jobs_per_s, "ratio")
    failed = plain.failed + traced.failed
    metrics["fail_ratio"] = (failed / (plain.attempted + traced.attempted), "ratio")
    summary = {"untraced_passes": plain.passes, "traced_passes": traced.passes}
    return summary, metrics, [plain, traced]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "spongedim", ROOT / "sample_specs"):
        if not needed.is_dir():
            print(f"error: {needed} not found; run from a checkout of the "
                  "repository", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        setup_times = [] if args.trace else time_setups(args.workload, args.seed, scratch)
        tmp = scratch / "jobs"
        tmp.mkdir()
        jobs = workloads.setup(args.workload, args.seed, ROOT, tmp)
        from spongedim import cli

        refs = load_references(args.workload)
        if args.trace:
            summary, metrics, phases = traced_run(cli, jobs, tmp, args, refs)
        else:
            summary, metrics, phases = plain_run(cli, jobs, tmp, args, refs, setup_times)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    failures = [f for p in phases for f in p.failures]
    summary.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   jobs_per_pass=len(jobs), attempted=attempted, failed=failed,
                   failures=failures)
    (OUT / f"summary-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1), encoding="utf-8")
    for line in failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({k: v for k, v in summary.items()
                      if k not in ("job_seconds", "failures")}), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
