"""spanforge's layers as seen from outside: wrap points and per-layer metrics.

Layers are the package modules (graph, clustering, spanner, oracles,
apsp, cli) plus the cross-cutting runtime (garbage collection).  Each
wrap point rebinds a public name in the namespace of the module that
calls it, because ``from x import f`` copies the binding:
``spanforge.spanner.contract`` is what the engine calls, while
``spanforge.oracles.general_spanner`` is what the ``ALGORITHMS`` lambdas
resolve when the CLI dispatches.  Private functions are never wrapped.

A span's layer is the part of its name before the first dot, with one
exception: the spanner built inside ``apsp_experiment`` is a
``spanner.build`` span and counts towards the spanner layer, while
``apsp.build_s`` reports its duration for the APSP view.  Every span
nests under ``cli.main``, so the layer self times add up to
``cli.job_s``.

Metrics are means per traced job; a layer a workload never enters reads 0.
``graph.gen_draws``, ``oracles.relax_bound`` and ``apsp.matrix_mb`` are
computed from sizes, not measured.
"""

from __future__ import annotations

from tracer import Span, WrapPoint, self_times


def _graph_counts(args, kwargs, g) -> dict:
    return {"vertices": g.n, "edges": g.m}


def _gnp_counts(args, kwargs, g) -> dict:
    # gen_gnp(n, p, ...) makes one draw per vertex pair.
    return {"vertices": g.n, "edges": g.m, "draws": g.n * (g.n - 1) // 2}


def _grid_counts(args, kwargs, g) -> dict:
    # gen_grid makes one weight draw per emitted edge and no pair draws.
    return {"vertices": g.n, "edges": g.m, "draws": g.m}


def edge_visits(m: int, epochs: list[dict]) -> int:
    """Sum of the live edges entering each engine iteration.

    The first iteration sees all m edges; each iteration then retires the
    edges it added or discarded, and each epoch's contraction retires its
    dedup drops.  Works on ``SpannerBuild.as_dict()["epochs"]`` rows.
    """
    live, visits = m, 0
    for ep in epochs:
        for it in ep["iterations"]:
            visits += live
            live -= it["added"] + it["discarded"]
        live -= ep["contract_discarded"]
    return visits


def _build_counts(args, kwargs, build) -> dict:
    epochs = [ep.as_dict() for ep in build.epochs]
    return {
        "m": build.m,
        "kept": build.size,
        "iterations": sum(len(ep["iterations"]) for ep in epochs),
        "edge_visits": edge_visits(build.m, epochs),
    }


def _contract_counts(args, kwargs, result) -> dict:
    return {"dropped": len(result[1])}


def _audit_counts(args, kwargs, audit) -> dict:
    g, spanner_edges = args[0], set(args[1])
    sources = {g.edges[e][0] for e in range(g.m) if e not in spanner_edges}
    return {
        "sources": len(sources),
        "non_spanner": g.m - len(spanner_edges),
        "spanner_size": len(spanner_edges),
    }


def _apsp_counts(args, kwargs, report) -> dict:
    return {"n": args[0].n}


def _matrix_name(args, kwargs) -> str:
    edge_ids = args[1] if len(args) > 1 else kwargs.get("edge_ids")
    return "apsp.exact" if edge_ids is None else "apsp.spanner"


WRAP_POINTS = [
    WrapPoint("spanforge.cli", "main", "cli.main"),
    WrapPoint("spanforge.cli", "load_edge_list", "graph.load", _graph_counts),
    WrapPoint("spanforge.cli", "write_edge_list", "graph.write"),
    WrapPoint("spanforge.graph", "gen_gnp", "graph.gen", _gnp_counts),
    WrapPoint("spanforge.graph", "gen_grid", "graph.gen", _grid_counts),
    WrapPoint("spanforge.graph", "build_graph", "graph.build_graph"),
    WrapPoint("spanforge.spanner", "build_graph", "graph.build_graph"),
    WrapPoint("spanforge.oracles", "general_spanner", "spanner.build", _build_counts),
    WrapPoint("spanforge.oracles", "two_phase_spanner", "spanner.build", _build_counts),
    WrapPoint("spanforge.oracles", "baswana_sen", "spanner.build", _build_counts),
    WrapPoint("spanforge.oracles", "cluster_merge_spanner", "spanner.build", _build_counts),
    WrapPoint("spanforge.apsp", "general_spanner", "spanner.build", _build_counts),
    WrapPoint("spanforge.spanner", "identity_quotient", "clustering.init"),
    WrapPoint("spanforge.spanner", "singleton_clustering", "clustering.init"),
    WrapPoint("spanforge.spanner", "sample_clusters", "clustering.sample"),
    WrapPoint("spanforge.spanner", "grow_clusters", "clustering.grow"),
    WrapPoint("spanforge.spanner", "contract", "clustering.contract", _contract_counts),
    WrapPoint("spanforge.spanner", "compose", "clustering.compose"),
    WrapPoint("spanforge.cli", "audit_stretch", "oracles.audit", _audit_counts),
    WrapPoint("spanforge.cli", "apsp_experiment", "apsp.experiment", _apsp_counts),
    WrapPoint("spanforge.apsp", "apsp_matrix", _matrix_name),
    WrapPoint("spanforge.apsp", "pair_ratios", "apsp.ratio"),
]

LAYERS = ("graph", "clustering", "spanner", "oracles", "apsp", "cli")

# (metric, unit, better): every per-layer metric the traced run reports.
PER_LAYER = [
    ("graph.load_s", "s", "lower"),
    ("graph.gen_s", "s", "lower"),
    ("graph.write_s", "s", "lower"),
    ("graph.build_graph_s", "s", "lower"),
    ("graph.self_s", "s", "lower"),
    ("graph.vertices", "count", "higher"),
    ("graph.edges", "count", "higher"),
    ("graph.gen_draws", "count", "lower"),
    ("clustering.init_s", "s", "lower"),
    ("clustering.sample_s", "s", "lower"),
    ("clustering.grow_s", "s", "lower"),
    ("clustering.contract_s", "s", "lower"),
    ("clustering.compose_s", "s", "lower"),
    ("clustering.self_s", "s", "lower"),
    ("clustering.calls", "count", "lower"),
    ("clustering.contract_dropped", "count", "lower"),
    ("spanner.build_s", "s", "lower"),
    ("spanner.self_s", "s", "lower"),
    ("spanner.iterations", "count", "lower"),
    ("spanner.kept", "count", "lower"),
    ("spanner.edge_visits", "count", "lower"),
    ("spanner.decided_per_visit", "ratio", "higher"),
    ("oracles.audit_s", "s", "lower"),
    ("oracles.self_s", "s", "lower"),
    ("oracles.audit_sources", "count", "lower"),
    ("oracles.edges_per_source", "ratio", "higher"),
    ("oracles.relax_bound", "count", "lower"),
    ("apsp.build_s", "s", "lower"),
    ("apsp.exact_s", "s", "lower"),
    ("apsp.spanner_s", "s", "lower"),
    ("apsp.ratio_s", "s", "lower"),
    ("apsp.self_s", "s", "lower"),
    ("apsp.sources", "count", "lower"),
    ("apsp.matrix_mb", "MiB", "lower"),
    ("cli.job_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("runtime.gc_s", "s", "lower"),
    ("runtime.gc_collections", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.accounted_frac", "ratio", "higher"),
]


def layer_of(span: Span) -> str:
    return span.name.split(".", 1)[0]


def layer_metrics(spans: list[Span], gc_pauses: list, jobs: int) -> dict[str, float]:
    """Per-job means of the traced run's per-layer metrics.

    ``trace.overhead_frac`` and ``cli.report_bytes`` are not derived from
    spans; the caller fills them in.  Times of spans nested under a span
    of the same name are not added twice.
    """
    selfs = self_times(spans)
    time_of: dict[str, float] = {}
    self_of: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    attr_sum: dict[tuple[str, str], float] = {}
    apsp_build = 0.0
    for idx, span in enumerate(spans):
        self_of[layer_of(span)] = self_of.get(layer_of(span), 0.0) + selfs[idx]
        parent = spans[span.parent] if span.parent is not None else None
        if span.name == "spanner.build" and parent is not None and parent.name == "apsp.experiment":
            apsp_build += span.duration
        if not _nested_in_same(spans, span):
            time_of[span.name] = time_of.get(span.name, 0.0) + span.duration
        for key, value in span.attrs.items():
            attr_sum[(span.name, key)] = attr_sum.get((span.name, key), 0.0) + value

    def t(name: str) -> float:
        return time_of.get(name, 0.0)

    def a(name: str, key: str) -> float:
        return attr_sum.get((name, key), 0.0)

    gen_or_load = ("graph.gen", "graph.load")
    audit_sources = a("oracles.audit", "sources")
    edge_visits_total = a("spanner.build", "edge_visits")
    apsp_n = a("apsp.experiment", "n")
    clustering_calls = sum(1 for s in spans if layer_of(s) == "clustering")
    totals = {
        "graph.load_s": t("graph.load"),
        "graph.gen_s": t("graph.gen"),
        "graph.write_s": t("graph.write"),
        "graph.build_graph_s": t("graph.build_graph"),
        "graph.self_s": self_of["graph"],
        "graph.vertices": sum(a(n, "vertices") for n in gen_or_load),
        "graph.edges": sum(a(n, "edges") for n in gen_or_load),
        "graph.gen_draws": a("graph.gen", "draws"),
        "clustering.init_s": t("clustering.init"),
        "clustering.sample_s": t("clustering.sample"),
        "clustering.grow_s": t("clustering.grow"),
        "clustering.contract_s": t("clustering.contract"),
        "clustering.compose_s": t("clustering.compose"),
        "clustering.self_s": self_of["clustering"],
        "clustering.calls": clustering_calls,
        "clustering.contract_dropped": a("clustering.contract", "dropped"),
        "spanner.build_s": t("spanner.build"),
        "spanner.self_s": self_of["spanner"],
        "spanner.iterations": a("spanner.build", "iterations"),
        "spanner.kept": a("spanner.build", "kept"),
        "spanner.edge_visits": edge_visits_total,
        "oracles.audit_s": t("oracles.audit"),
        "oracles.self_s": self_of["oracles"],
        "oracles.audit_sources": audit_sources,
        "oracles.relax_bound": audit_sources * 2 * a("oracles.audit", "spanner_size"),
        "apsp.build_s": apsp_build,
        "apsp.exact_s": t("apsp.exact"),
        "apsp.spanner_s": t("apsp.spanner"),
        "apsp.ratio_s": t("apsp.ratio"),
        "apsp.self_s": self_of["apsp"],
        "apsp.sources": 2 * apsp_n,
        # Two n x n float64 matrices, computed from n, not measured.
        "apsp.matrix_mb": sum(
            2 * s.attrs["n"] ** 2 * 8 / 2**20 for s in spans if s.name == "apsp.experiment"
        ),
        "cli.job_s": t("cli.main"),
        "cli.self_s": self_of["cli"],
        "runtime.gc_s": sum(end - start for _, start, end in gc_pauses),
        "runtime.gc_collections": len(gc_pauses),
    }
    out = {name: value / jobs for name, value in totals.items()}
    # Ratios of sums, not means of per-job ratios.
    out["spanner.decided_per_visit"] = (
        a("spanner.build", "m") / edge_visits_total if edge_visits_total else 0.0
    )
    out["oracles.edges_per_source"] = (
        a("oracles.audit", "non_spanner") / audit_sources if audit_sources else 0.0
    )
    job_s = t("cli.main")
    out["trace.accounted_frac"] = sum(self_of.values()) / job_s if job_s else 0.0
    return out


def _nested_in_same(spans: list[Span], span: Span) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name == span.name:
            return True
        parent = spans[parent].parent
    return False
