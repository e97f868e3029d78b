"""Closed-loop job runner; run.py starts it in a fresh interpreter.

One client, one thread: each job calls ``spanforge.cli.main(argv)`` and
the next starts only after it returns.  Jobs start while less than
``seconds`` have passed since the first one began; an untraced run
starts at least the workload's ``quality_jobs`` in any case.  In a traced
run every job runs twice in a row, first untraced and then traced with
identical argv, so the two medians give the tracing overhead.  An
untraced run times calibrate.py's reference kernel, in its helper
process, once before the first job and once after each job, outside the
job's timing; run.py scales each job by the kernel times around it.

Usage: python3 loop.py PLAN.json  (written by run.py; results go to the
plan's ``out`` path)
"""

from __future__ import annotations

import contextlib
import gc
import json
import resource
import sys
import time
import traceback
from collections.abc import Callable
from pathlib import Path

import calibrate
from layers import WRAP_POINTS
from tracer import Tracer
from workloads import WORKLOADS, Workload, job_seed

import spanforge.cli


def run_job(argv: list[str]) -> tuple[float, int | str]:
    start = time.perf_counter()
    try:
        code = spanforge.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = traceback.format_exc(limit=5)
    return time.perf_counter() - start, code


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    workload = WORKLOADS[plan["workload"]]
    tracer = Tracer(WRAP_POINTS) if plan["trace"] else None
    with (contextlib.nullcontext() if tracer else calibrate.gauge()) as kernel_s:
        jobs, loop_s = run_jobs(plan, workload, tracer, kernel_s)
    out = {
        "jobs": jobs,
        "loop_s": loop_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        out["trace"] = tracer.dump()
    Path(plan["out"]).write_text(json.dumps(out))
    return 0


def run_jobs(plan: dict, workload: Workload, tracer: Tracer | None,
             kernel_s: Callable[[], float] | None) -> tuple[list[dict], float]:
    job_root = Path(plan["job_root"])
    input_path = Path(plan["input"]) if plan["input"] else None
    modes = [False, True] if tracer else [False]
    min_jobs = 1 if tracer else workload.quality_jobs
    jobs = []
    begin = time.perf_counter()
    kernel = kernel_s() if kernel_s else None
    index = 0
    while index < min_jobs or time.perf_counter() - begin < plan["seconds"]:
        seed = job_seed(workload.name, plan["seed"], index)
        for traced in modes:
            job_dir = job_root / f"job{len(jobs):03d}"
            job_dir.mkdir(parents=True)
            argv = workload.argv(job_dir, seed, input_path)
            gc.collect()
            if traced:
                with tracer.job(len(jobs)):
                    wall, code = run_job(argv)
            else:
                wall, code = run_job(argv)
            job = {"index": index, "seed": seed, "traced": traced, "argv": argv,
                   "dir": str(job_dir), "wall_s": wall, "exit": code}
            if kernel is not None:
                after = kernel_s()
                job["kernel_s"] = [kernel, after]
                kernel = after
            jobs.append(job)
        index += 1
    return jobs, time.perf_counter() - begin


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
