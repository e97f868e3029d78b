import math

import pytest

from spanforge import (
    DomainError,
    audit_stretch,
    baswana_sen,
    bellman_ford,
    bruteforce_equivalence_suite,
    build_graph,
    cluster_merge_spanner,
    dijkstra,
    gen_gnp,
    gen_star,
    general_spanner,
    parallel_repetition,
    size_study,
    stretch_exponent,
    two_phase_spanner,
)

INF = math.inf


def test_dijkstra_small_path():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
    assert dijkstra(g, 0) == [0.0, 1.0, 3.0]


def test_dijkstra_unreachable_is_inf():
    g = build_graph(3, [(0, 1, 1.0)])
    assert dijkstra(g, 0)[2] == INF


def test_dijkstra_subgraph_restriction():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
    full = dijkstra(g, 0)
    assert full[2] == 2.0
    only_direct = dijkstra(g, 0, edge_ids=[2])
    assert only_direct == [0.0, INF, 5.0]


def test_dijkstra_matches_bellman_ford():
    g = gen_gnp(50, 0.2, ("uniform", 1, 9), 5)
    for src in (0, 7, 23, 49):
        assert dijkstra(g, src) == bellman_ford(g, src)


def test_audit_full_spanner_trivial():
    g = gen_gnp(40, 0.2, ("uniform", 1, 5), 1)
    audit = audit_stretch(g, range(g.m), 1.0)
    assert audit.passed
    assert audit.max_ratio == 1.0


def test_audit_broken_connectivity_fails_infinite():
    g = build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    audit = audit_stretch(g, [0, 2], 100.0)  # drop the bridge (1, 2)
    assert not audit.passed
    assert audit.max_ratio == INF
    assert audit.failing_edges[0]["edge"] == 1


def test_audit_rejects_foreign_edge_ids():
    g = gen_star(4)
    with pytest.raises(DomainError):
        audit_stretch(g, [99], 2.0)


def test_audit_cluster_merge_gnp():
    g = gen_gnp(200, 0.08, "unit", 9)
    build = cluster_merge_spanner(g, 4, 9)
    bound = 2 * 4 ** stretch_exponent(1)
    assert audit_stretch(g, build.spanner_edges, bound).passed


def test_size_study_k1_exact():
    stats = size_study("gnp:60:0.15:unit", 1, 1, trials=3, seed0=4)
    for trial, size in enumerate(stats.sizes):
        assert size == gen_gnp(60, 0.15, "unit", 4 + trial).m


def test_size_study_empty_graph():
    stats = size_study("gnp:30:0.0:unit", 3, 1, trials=2, seed0=0)
    assert stats.sizes == [0, 0]


def test_size_study_references_and_trials():
    stats = size_study("gnp:200:0.03:unit", 5, 1, trials=5, seed0=7)
    assert stats.trials == 5
    assert stats.size_reference == pytest.approx(200 ** 1.2 * (1 + math.log2(5)))
    assert stats.cluster_references[0] == pytest.approx(200 ** (1 - 1 / 5))
    assert len(stats.epoch_cluster_means) == len(stats.epoch_clusters[0])
    with pytest.raises(DomainError):
        size_study("gnp:10:0.1:unit", 2, 1, trials=0)


def test_size_study_uses_the_t_the_algorithm_ran_with():
    stats = size_study("gnp:60:0.2:unit", 3, 1, trials=2, seed0=1, algorithm="bs")
    assert stats.t == 3 and stats.as_dict()["params"] == {"k": 3, "t": 3}
    assert stats.size_reference == pytest.approx(60 ** (1 + 1 / 3) * (3 + math.log2(3)))
    assert stats.cluster_references == [pytest.approx(60 ** (1 - (4 - 1) / 3))]


def test_parallel_repetition_single_run():
    g = gen_gnp(50, 0.1, "unit", 0)
    res = parallel_repetition(g, 3, 1, 5, repetitions=1)
    assert res.chosen == 0
    assert len(res.runs) == 1


def test_parallel_repetition_k1_selects_first():
    g = gen_gnp(30, 0.2, "unit", 0)
    res = parallel_repetition(g, 1, 1, 3, repetitions=4)
    assert res.chosen == 0 and not res.fallback


def test_parallel_repetition_rejects_zero():
    g = gen_star(4)
    with pytest.raises(DomainError):
        parallel_repetition(g, 2, 1, 0, repetitions=0)


def test_parallel_repetition_selection_keeps_stretch():
    g = gen_gnp(150, 0.08, "unit", 6)
    res = parallel_repetition(g, 4, 1, 11, repetitions=8)
    bound = 2 * 4 ** stretch_exponent(1)
    assert audit_stretch(g, res.build.spanner_edges, bound).passed
    assert res.runs[res.chosen]["size"] == res.build.size


def test_star_spanner_always_complete():
    g = gen_star(8)
    for build in (
        baswana_sen(g, 3, 1),
        cluster_merge_spanner(g, 4, 1),
        two_phase_spanner(g, 4, 1),
        general_spanner(g, 4, 2, 1),
    ):
        assert build.size == 7


def test_spanner_preserves_components():
    from spanforge import component_labels

    # Two gnp blobs joined to nothing: the spanner must reproduce the
    # component structure exactly.
    blob = gen_gnp(60, 0.1, "unit", 12)
    edges = list(blob.edges) + [(u + 60, v + 60, w) for u, v, w in gen_gnp(60, 0.1, "unit", 13).edges]
    g = build_graph(120, edges)
    build = general_spanner(g, 4, 2, 3)
    assert component_labels(g, build.spanner_edges) == component_labels(g)


def test_bruteforce_equivalence_suite_small():
    report = bruteforce_equivalence_suite(8, random_graphs=40, seed=1)
    assert report["failures"] == []
    assert report["graphs"] == (7 + 6 + 7 + 7) + 40
    with pytest.raises(DomainError):
        bruteforce_equivalence_suite(13)
