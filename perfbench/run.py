"""spanforge benchmark: CLI workloads in a closed loop, checked, with an
optional outside-in traced run for per-layer numbers.

Usage (from the repository root):

    python3 perfbench/run.py --workload build-gnp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One run: write the workload's inputs from --seed (not timed), measure
``setup_s`` as the median import time of ``spanforge.cli`` over several
fresh interpreters, run the closed loop (loop.py) in one more fresh
interpreter with SPANFORGE_THREADS unset, then check every job's outputs
and print the metrics.

Times are in reference seconds, because the shared host's speed drifts
by up to 2x within a run.  Each job is scaled by the time of
calibrate.py's fixed reference kernel, run between jobs, averaged over
the job's neighbourhood.  Import speed drifts apart from the speed of Python code, so each
import of spanforge.cli is scaled instead by the import time of numpy,
its one heavy dependency, in fresh interpreters just before and just
after it.  On a machine that runs the kernel in
``calibrate.REFERENCE_S`` and imports numpy in ``NUMPY_IMPORT_S`` the
scaled times are wall times.  The raw wall times, kernel times and
numpy import times are kept in the per-run results.

The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of layers.py.

End-to-end metrics of an untraced run:
  setup_s                 median scaled import time of spanforge.cli
  job_s_p50               median scaled job wall time (sample count in the
                          table; a run holds too few jobs for a tail
                          percentile)
  edges_per_s             sum of input edges / sum of scaled job times
  peak_rss_mb             peak resident memory of the loop process
  ok_frac                 share of jobs that exited 0 and passed every check
  kept_frac               spanner edges / input edges, mean over jobs
  stretch_max_over_bound  largest stretch ratio / the schedule's bound, the
                          median over jobs (program's audit on audit-gnp,
                          pair ratios on apsp-gnp, the sampled check else)
  stretch_mean_ratio      mean stretch ratio (pair ratios on apsp-gnp, the
                          sampled discarded edges else), mean over jobs
The last four are taken over the workload's first ``quality_jobs`` jobs.

Everything the run writes goes under .perfbench-out/ in the checkout:
the per-run results (environment, input and report digests, per-job
counts, metrics) and, for traced runs, the spans.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calibrate
import checks
from layers import PER_LAYER, edge_visits, layer_metrics
from tracer import Span
from workloads import GNM_M, GNM_N, WORKLOADS, Workload, job_seed, write_gnm

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPS = 7
# numpy's import time on the reference machine (2 shared vCPUs, Python
# 3.11.7); spanforge.cli took about 1.4 times as long there.
NUMPY_IMPORT_S = 0.15
LOOP_TIMEOUT_S = 150

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("job_s_p50", "s", "lower"),
    ("edges_per_s", "edges/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("ok_frac", "ratio", "higher"),
    ("kept_frac", "ratio", "lower"),
    ("stretch_max_over_bound", "ratio", "lower"),
    ("stretch_mean_ratio", "ratio", "lower"),
]

IMPORT_PROBE = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "SPANFORGE_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def import_s(module: str) -> float:
    """Import time of module in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE.format(module)], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip())


def measure_setup() -> tuple[list[float], list[float], list[float]]:
    """Import times of spanforge.cli in fresh interpreters, raw and scaled
    by numpy's import time around each, and the numpy times.  The first
    import, which may compile bytecode, is discarded."""
    raw, scaled, numpy = [], [], [import_s("numpy")]
    for rep in range(SETUP_REPS + 1):
        cli = import_s("spanforge.cli")
        numpy.append(import_s("numpy"))
        if rep:
            raw.append(cli)
            scaled.append(cli * NUMPY_IMPORT_S / ((numpy[-2] + numpy[-1]) / 2))
    return raw, scaled, numpy


def environment() -> dict:
    def version(pkg: str) -> str | None:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
    }


@functools.lru_cache(maxsize=1)
def generated_graph(spec: str, seed: int) -> tuple[int, list]:
    """A --gen input as the program saw it: it is defined by the program's
    own generator.  A traced job and its untraced twin share the seed."""
    from spanforge.graph import parse_generator_spec

    g = parse_generator_spec(spec)[1](seed)
    return g.n, g.edges


def read_report(job_dir: Path, m: int) -> tuple[dict, dict]:
    """The job's JSON report and the start of its per-job record."""
    data = (job_dir / "report.json").read_bytes()
    record = {"report_sha256": hashlib.sha256(data).hexdigest(), "report_bytes": len(data), "m": m}
    return json.loads(data), record


def check_build(workload: Workload, job: dict, written: list | None, schema) -> tuple[list, dict]:
    job_dir = Path(job["dir"])
    n, edges = (GNM_N, written) if written else generated_graph(workload.gen, job["seed"])
    report, record = read_report(job_dir, len(edges))
    bound = workload.bound()
    problems = checks.check_schema(report, schema)
    if problems:
        return problems, record
    if report["graph"] != {"n": n, "m": len(edges)}:
        return [f"report graph {report['graph']} != input n={n} m={len(edges)}"], record
    problems += checks.check_dispositions(report)
    if problems:
        return problems, record
    spanner = report["spanner_edges"]
    problems += checks.check_spanner_file(job_dir / "spanner.txt", n, edges, spanner)
    problems += checks.check_connectivity(n, edges, spanner)
    ratios = checks.sampled_stretch(
        n, edges, spanner, bound, workload.stretch_sources, random.Random(job["seed"])
    )
    cap = None
    worst = max(ratios.values(), default=1.0)
    if "audit" in report:
        audit = report["audit"]
        cap = audit["max_ratio"]
        if not audit["passed"] or audit["edges"] != len(edges) or cap > bound:
            problems.append(f"audit {audit['passed']=} edges={audit['edges']} max={cap}")
        if not math.isclose(audit["bound"], bound, rel_tol=1e-12):
            problems.append(f"audit bound {audit['bound']} != schedule bound {bound}")
        worst = cap
    problems += checks.check_stretch(ratios, bound, cap)
    record.update(
        kept_frac=len(spanner) / len(edges),
        stretch_max_over_bound=worst / bound,
        stretch_mean_ratio=statistics.fmean(ratios.values()) if ratios else 1.0,
        stretch_checked=len(ratios),
        edge_visits=edge_visits(len(edges), report["epochs"]),
        discarded=report["dispositions"]["discarded"],
    )
    return problems, record


def check_apsp(workload: Workload, job: dict, written: None, schema) -> tuple[list, dict]:
    job_dir = Path(job["dir"])
    _, edges = generated_graph(workload.gen, job["seed"])
    report, record = read_report(job_dir, len(edges))
    bound = workload.bound()
    problems = checks.check_schema(report, schema)
    if problems:
        return problems, record
    max_ratio, mean_ratio = report["max_ratio"], report["mean_ratio"]
    # Checked here because apsp.py's own assert vanishes under python -O.
    if not max_ratio <= bound:
        problems.append(f"APSP max_ratio {max_ratio} > bound {bound}")
    if not 1.0 <= mean_ratio <= max_ratio * (1 + 1e-12):
        problems.append(f"APSP mean_ratio {mean_ratio} outside [1, max_ratio]")
    if report["trials"] != 1 or report["params"] != {"k": workload.k, "t": workload.t}:
        problems.append("APSP summary params or trials differ from the job")
    rows = (job_dir / "trials.csv").read_text().splitlines()
    if len(rows) != 2 or float(rows[1].split(",")[3]) != max_ratio:
        problems.append("APSP trial CSV does not match the summary")
    record.update(
        kept_frac=report["mean_size"] / len(edges),
        stretch_max_over_bound=max_ratio / bound,
        stretch_mean_ratio=mean_ratio,
    )
    return problems, record


def run_loop(workload: Workload, seed: int, seconds: float, trace: bool,
             run_dir: Path, input_path: Path | None) -> dict:
    plan = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "job_root": str(run_dir / "jobs"), "input": str(input_path) if input_path else None,
        "out": str(run_dir / "loop.json"),
    }
    (run_dir / "plan.json").write_text(json.dumps(plan))
    subprocess.run(
        [sys.executable, str(HERE / "loop.py"), str(run_dir / "plan.json")],
        env=child_env(), cwd=ROOT, stdout=sys.stderr, timeout=LOOP_TIMEOUT_S, check=True,
    )
    return json.loads((run_dir / "loop.json").read_text())


def job_times(jobs: list[dict]) -> list[float]:
    """Untraced jobs' wall times in reference seconds."""
    kernels = [jobs[0]["kernel_s"][0]] + [j["kernel_s"][1] for j in jobs]
    return calibrate.scaled([j["wall_s"] for j in jobs], kernels)


def end_to_end(workload: Workload, jobs: list[dict], records: list[dict],
               setup: list[float], rss: float) -> dict:
    # Output quality depends on the seed and not on how many jobs fitted in.
    first = records[:workload.quality_jobs]

    def quality(key, agg):
        values = [r[key] for r in first if r["ok"]]
        return agg(values) if values else 0.0

    walls = job_times(jobs)
    return {
        "setup_s": statistics.median(setup),
        "job_s_p50": statistics.median(walls),
        "edges_per_s": sum(r["m"] for r in records) / sum(walls),
        "peak_rss_mb": rss,
        "ok_frac": sum(r["ok"] for r in records) / len(records),
        "kept_frac": quality("kept_frac", statistics.fmean),
        "stretch_max_over_bound": quality("stretch_max_over_bound", statistics.median),
        "stretch_mean_ratio": quality("stretch_mean_ratio", statistics.fmean),
    }


def per_layer(jobs: list[dict], records: list[dict], trace: dict) -> dict:
    traced = [i for i, j in enumerate(jobs) if j["traced"]]
    spans = [Span.from_list(row) for row in trace["spans"]]
    out = layer_metrics(spans, trace["gc_pauses"], len(traced))
    out["cli.report_bytes"] = statistics.fmean(records[i]["report_bytes"] for i in traced)
    plain = statistics.median(j["wall_s"] for j in jobs if not j["traced"])
    out["trace.overhead_frac"] = statistics.median(jobs[i]["wall_s"] for i in traced) / plain - 1
    return out


def run_one(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """One run of one workload: the result object and notes for the table."""
    workload = WORKLOADS[name]
    env = environment()
    run_dir = OUT / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    setup_raw, setup, numpy_import = ([], [], []) if trace else measure_setup()
    input_path, written, digests = None, None, {}
    if workload.gen is None:
        input_path = run_dir / "input.txt"
        written, digests[input_path.name] = write_gnm(
            input_path, GNM_N, GNM_M, job_seed(name + "/input", seed, 0)
        )
    loop = run_loop(workload, seed, seconds, trace, run_dir, input_path)

    schema = checks.schema_validator(ROOT)
    check = check_apsp if workload.apsp else check_build
    records = []
    checked = time.perf_counter()
    for job in loop["jobs"]:
        problems = [f"exit {job['exit']}"] if job["exit"] != 0 else []
        record: dict = {"m": 0}
        if not problems:
            try:
                problems, record = check(workload, job, written, schema)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        record.update(ok=not problems, problems=problems, seed=job["seed"],
                      traced=job["traced"], wall_s=job["wall_s"], kernel_s=job.get("kernel_s"))
        records.append(record)
    checked = time.perf_counter() - checked
    if trace:
        metrics = per_layer(loop["jobs"], records, loop["trace"])
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = end_to_end(workload, loop["jobs"], records, setup, loop["peak_rss_mb"])
        units = {name: unit for name, unit, _ in END_TO_END}
    failed = sum(1 for r in records if not r["ok"])

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        (results_dir / f"{stem}-spans.json").write_text(json.dumps(loop["trace"]))
    missing = loop.get("trace", {}).get("missing", [])
    (results_dir / f"{stem}.json").write_text(json.dumps({
        "workload": name, "seed": seed, "seconds": seconds, "env": env,
        "inputs_sha256": digests, "setup_s_samples": setup, "setup_wall_s": setup_raw,
        "numpy_import_s": numpy_import,
        "loop_s": loop["loop_s"],
        "check_s": checked, "missing_wrap_points": missing, "jobs": records, "metrics": metrics,
    }, indent=1))
    shutil.rmtree(run_dir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    notes = [f"wrap point missing, not traced: {where}" for where in missing]
    notes += [f"check failed: {p}" for r in records for p in r["problems"]][:10]
    return result, notes


def print_table(name: str, result: dict, notes: list[str] = ()) -> None:
    print(f"# {name}: {result['attempted']} jobs, {result['failed']} failed")
    for key, metric in result["metrics"].items():
        print(f"{name:11s} {key:28s} {metric['value']:>16.6g} {metric['unit']}")
    for note in notes:
        print(f"# {note}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "spanforge" / "cli.py").is_file():
        print(f"error: no spanforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload != "all":
        result, notes = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        print_table(args.workload, result, notes)
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0

    combined = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        combined[name] = json.loads(done.stdout.strip().splitlines()[-1])
        print_table(name, combined[name])
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    started = time.perf_counter()
    code = main()
    print(f"# wall {time.perf_counter() - started:.1f} s", file=sys.stderr)
    sys.exit(code)
