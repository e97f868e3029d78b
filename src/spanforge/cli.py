"""Batch command-line front end: build spanners, audit stretch, emit the
round-cost model, and run size/APSP studies.  All output is
machine-readable JSON (plus CSV for per-row data); reports validate
against report.schema.json shipped with the package.

Exit codes: 0 success/pass, 1 domain or audit failure, 2 usage error;
an unreadable or non-UTF-8 input, or an unwritable output path, is exit
1 with one "error:" line.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from .apsp import ApspBoundError, apsp_experiment, check_apsp_guard
from .graph import (
    DomainError, EdgeListError, WeightedGraph, load_edge_list, parse_generator, write_edge_list
)
from .oracles import ALGORITHMS, audit_stretch, size_study
from .spanner import CostModel, SpannerBuild, _check_gamma, cost_model, stretch_bound


class _UsageError(Exception):
    """A misuse of the command line: exit 2, with the message printed as given."""


def _dump(report: dict, out: str | None) -> None:
    text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_report(source: str, algo: str, build: SpannerBuild, gamma: float) -> dict:
    report = {"type": "build", "algorithm": algo, "source": source}
    report.update(build.as_dict())
    report["cost"] = cost_model(build.k, build.t, gamma).as_dict()
    return report


def _check_general_only(args) -> None:
    """Usage check shared by build and study: only --algo general reads
    --t, and only it runs study's --apsp."""
    if args.algo != "general":
        if args.t is not None:
            raise _UsageError("--t is only valid with --algo general")
        if getattr(args, "apsp", False):
            raise _UsageError("--apsp is only valid with --algo general")


def _generator(spec: str):
    """parse_generator, with a spec outside its domain as a usage error."""
    try:
        return parse_generator(spec)
    except DomainError as exc:
        raise _UsageError(f"error: {exc}") from None


def cmd_build(args) -> int:
    _check_general_only(args)
    t = args.t if args.t is not None else 1
    if args.gen is not None:
        source, make = args.gen, _generator(args.gen)[1]
    _check_gamma(args.gamma)
    bound = stretch_bound(args.algo, args.k, t) if args.audit == "auto" else args.audit
    if args.gen is None:
        source, g = args.input, load_edge_list(args.input)
    else:
        g = make(args.seed)
    build = ALGORITHMS[args.algo](g, args.k, t, args.seed)
    report = build_report(source, args.algo, build, args.gamma)
    if args.spanner_out:
        ids = build.spanner_edges
        spanner = WeightedGraph(g.n, g.u[ids], g.v[ids], g.w[ids])
        write_edge_list(spanner, args.spanner_out)
    status = 0
    if bound is not None:
        audit = audit_stretch(g, build.spanner_edges, bound)
        report["audit"] = audit.as_dict()
        status = 0 if audit.passed else 1
    _dump(report, args.out)
    return status


def _parse_auto_bound(spec: str) -> float:
    """The stretch_bound named by an --auto spec: ALGO:K, or general:K,T."""
    try:
        algo, rest = spec.split(":", 1)
        numbers = [int(x) for x in rest.split(",")]
        if len(numbers) == (2 if algo == "general" else 1):
            return stretch_bound(algo, *numbers)
    except (ValueError, DomainError):
        pass
    raise _UsageError(f"error: bad --auto spec {spec!r} (use bs:K, merge:K, twophase:K or general:K,T)")


def _finite_bound(text: str) -> float:
    """argparse type of a stretch bound: NaN, infinities and values below 1,
    which no spanner can meet, are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"a stretch bound must be >= 1, got {text!r}")
    return value


def cmd_audit(args) -> int:
    g = load_edge_list(args.input)
    spanner_graph = load_edge_list(args.spanner, n=g.n)
    if spanner_graph.n != g.n:
        raise _UsageError(f"error: spanner has {spanner_graph.n} vertices, input has {g.n}")

    ws = g.w.tolist()
    index = {pair: eid for eid, pair in enumerate(zip(g.u.tolist(), g.v.tolist()))}
    spanner_ids = []
    pairs = zip(spanner_graph.u.tolist(), spanner_graph.v.tolist(), spanner_graph.w.tolist())
    for u, v, w in pairs:
        eid = index.get((u, v))
        if eid is None or ws[eid] != w:
            raise _UsageError(f"error: spanner edge ({u},{v},{w}) not present in input graph")
        spanner_ids.append(eid)

    bound = args.bound if args.bound is not None else _parse_auto_bound(args.auto)
    audit = audit_stretch(g, spanner_ids, bound)
    report = {"type": "audit", "input": args.input, "spanner": args.spanner}
    report.update(audit.as_dict())
    _dump(report, args.out)
    if args.csv:
        rows = audit.csv_rows(g, set(spanner_ids))
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=["edge", "u", "v", "w", "in_spanner", "ratio"])
            writer.writeheader()
            writer.writerows(rows)
    return 0 if audit.passed else 1


def cmd_cost(args) -> int:
    _dump(cost_model(args.k, args.t, args.gamma).as_dict(), args.out)
    return 0


def cmd_study(args) -> int:
    _check_general_only(args)
    t = args.t if args.t is not None else 1
    vertices, make = _generator(args.gen)
    if args.trials < 1:
        raise _UsageError("error: --trials must be >= 1")

    if args.apsp:
        check_apsp_guard(vertices)  # before generating: a large spec draws for hours
        reports = []
        for trial in range(args.trials):
            g = make(args.seed0 + trial)
            rep = apsp_experiment(g, args.k, t, args.seed0 + trial)
            reports.append(rep)
        rows = [
            {
                "trial": i,
                "seed": r.seed,
                "size": r.spanner_size,
                "max_ratio": r.max_ratio,
                "mean_ratio": r.mean_ratio,
                "pairs": r.pairs,
            }
            for i, r in enumerate(reports)
        ]
        summary = {
            "type": "apsp_study",
            "generator": args.gen,
            "params": {"k": args.k, "t": t},
            "trials": args.trials,
            "mean_size": sum(r.spanner_size for r in reports) / len(reports),
            "max_ratio": max(r.max_ratio for r in reports),
            "mean_ratio": sum(r.mean_ratio for r in reports) / len(reports),
        }
        fieldnames = ["trial", "seed", "size", "max_ratio", "mean_ratio", "pairs"]
    else:
        stats = size_study(args.gen, args.k, t, args.trials, args.seed0, args.algo)
        depth = max((len(tr) for tr in stats.epoch_clusters), default=0)
        rows = []
        for i, (size, traj) in enumerate(zip(stats.sizes, stats.epoch_clusters)):
            row = {"trial": i, "seed": args.seed0 + i, "size": size}
            for e in range(depth):
                row[f"epoch{e + 1}_clusters"] = traj[e] if e < len(traj) else ""
            rows.append(row)
        summary = {"type": "study"}
        summary.update(stats.as_dict())
        fieldnames = ["trial", "seed", "size"] + [f"epoch{e + 1}_clusters" for e in range(depth)]

    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(rows)
    _dump(summary, args.json)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spanforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a spanner and write its report")
    src = p_build.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="edge-list file")
    src.add_argument("--gen", help="generator spec, e.g. gnp:100:0.1:unit")
    p_build.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
    p_build.add_argument("--k", type=int, required=True)
    p_build.add_argument("--t", type=int, default=None)
    p_build.add_argument("--seed", type=int, default=0)
    p_build.add_argument("--gamma", type=float, default=1.0)
    p_build.add_argument("--out", help="report JSON path (default stdout)")
    p_build.add_argument("--spanner-out", help="write the spanner as an edge-list file")
    p_build.add_argument(
        "--audit",
        metavar="BOUND|auto",
        type=lambda text: text if text == "auto" else _finite_bound(text),
        help="inline stretch audit of the result",
    )
    p_build.set_defaults(func=cmd_build)

    p_audit = sub.add_parser("audit", help="audit a spanner file against a stretch bound")
    p_audit.add_argument("--input", required=True)
    p_audit.add_argument("--spanner", required=True)
    bound = p_audit.add_mutually_exclusive_group(required=True)
    bound.add_argument("--bound", type=_finite_bound)
    bound.add_argument("--auto", help="bs:K, merge:K, twophase:K or general:K,T")
    p_audit.add_argument("--out", help="report JSON path (default stdout)")
    p_audit.add_argument("--csv", help="per-edge ratio CSV path")
    p_audit.set_defaults(func=cmd_audit)

    p_cost = sub.add_parser("cost", help="print the analytic round-cost model")
    p_cost.add_argument("--k", type=int, required=True)
    p_cost.add_argument("--t", type=int, required=True)
    p_cost.add_argument("--gamma", type=float, default=1.0)
    p_cost.add_argument("--out")
    p_cost.set_defaults(func=cmd_cost)

    p_study = sub.add_parser("study", help="repeated-trial size or APSP study")
    p_study.add_argument("--gen", required=True)
    p_study.add_argument("--algo", default="general", choices=sorted(ALGORITHMS))
    p_study.add_argument("--k", type=int, required=True)
    p_study.add_argument("--t", type=int, default=None)
    p_study.add_argument("--trials", type=int, required=True)
    p_study.add_argument("--seed0", type=int, default=0)
    p_study.add_argument("--apsp", action="store_true", help="measure APSP ratios per trial")
    p_study.add_argument("--out", help="per-trial CSV path")
    p_study.add_argument("--json", help="summary JSON path (default stdout)")
    p_study.set_defaults(func=cmd_study)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (DomainError, EdgeListError, ApspBoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
