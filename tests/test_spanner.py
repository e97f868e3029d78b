import gc
import math
import tracemalloc

import numpy as np
import pytest
from cluster_lists import clustering, parent_pairs

from spanforge import (
    DomainError,
    audit_stretch,
    baswana_sen,
    build_graph,
    cluster_merge_spanner,
    epoch_count,
    epoch_schedule,
    gen_gnp,
    gen_path,
    gen_star,
    general_spanner,
    parallel_repetition,
    singleton_clustering,
    size_study,
    stretch_bound,
    stretch_exponent,
    two_phase_spanner,
)
from spanforge.graph import _from_columns
from spanforge.spanner import (
    RULE_JOIN,
    RULE_SETTLE,
    _completion_sweep,
    _EdgeLedger,
    _finish,
    _run_iteration,
)

LOG2_3 = math.log2(3)


def test_stretch_exponent_values():
    assert stretch_exponent(1) == pytest.approx(1.5849625007, abs=1e-9)
    assert stretch_exponent(2) == pytest.approx(math.log(5) / math.log(3), abs=1e-12)
    assert stretch_exponent(2) == pytest.approx(1.46497, abs=1e-5)


def test_stretch_exponent_monotone_decreasing():
    values = [stretch_exponent(t) for t in range(1, 65)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_stretch_exponent_rejects_bad_t():
    with pytest.raises(DomainError):
        stretch_exponent(0)


def test_stretch_bound_table():
    assert stretch_bound("bs", 5) == 9 and isinstance(stretch_bound("bs", 5), int)
    assert stretch_bound("twophase", 4) == 23  # r = 2: 4 + 5*3 + 4
    assert stretch_bound("twophase", 9) == 47  # r = 3: 6 + 7*5 + 6
    assert stretch_bound("merge", 4) == pytest.approx(18)  # 2 * 4**log2(3)
    assert stretch_bound("general", 8, 2) == pytest.approx(2 * 8 ** (math.log(5) / math.log(3)))
    with pytest.raises(DomainError):
        stretch_bound("foo", 4)
    with pytest.raises(DomainError):
        stretch_bound("bs", 0)


def test_epoch_schedule_k16_t1():
    sched = epoch_schedule(16, 1, 100)
    assert [i for i, _ in sched] == [1, 2, 3, 4]
    expected = [100 ** (-(2 ** j) / 16) for j in range(4)]
    assert [p for _, p in sched] == pytest.approx(expected)


def test_epoch_schedule_degenerate_k1():
    assert len(epoch_schedule(1, 3, 10)) == 1


def test_epoch_schedule_k9_t2():
    sched = epoch_schedule(9, 2, 50)
    assert len(sched) == 2
    assert [p for _, p in sched] == pytest.approx([50 ** (-1 / 9), 50 ** (-3 / 9)])


def test_epoch_count_integer_boundaries():
    assert epoch_count(9, 2) == 2  # exactly (t+1)**2
    assert epoch_count(256, 8) == 3
    assert epoch_count(8, 1) == 3
    assert epoch_count(2, 1) == 1
    assert epoch_count(5, 1) == 3


@pytest.mark.parametrize(
    "run",
    [
        lambda g: baswana_sen(g, 1, 5),
        lambda g: cluster_merge_spanner(g, 1, 5),
        lambda g: two_phase_spanner(g, 1, 5),
        lambda g: general_spanner(g, 1, 2, 5),
    ],
)
def test_k1_spanner_is_whole_graph(run):
    g = gen_gnp(25, 0.3, "unit", 2)
    build = run(g)
    assert build.spanner_edges.tolist() == list(range(g.m))
    assert build.record.tolist() == [-1] * g.m


@pytest.mark.parametrize("k", [2, 3, 5])
def test_tree_inputs_keep_every_edge(k):
    for g in [gen_path(10), gen_star(9)]:
        for run in (
            lambda h: baswana_sen(h, k, 3),
            lambda h: cluster_merge_spanner(h, k, 3),
            lambda h: general_spanner(h, k, 2, 3),
        ):
            build = run(g)
            assert build.size == g.m  # removing any tree edge disconnects


def test_baswana_sen_stretch_on_gnp():
    g = gen_gnp(200, 0.1, "unit", 7)
    build = baswana_sen(g, 3, 11)
    audit = audit_stretch(g, build.spanner_edges, 2 * 3 - 1)
    assert audit.passed


def test_cluster_merge_k4_complete_graph():
    g = build_graph(4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)])
    build = cluster_merge_spanner(g, 4, 13)
    assert np.all((build.record >= -1) & (build.record < len(build.records)))
    audit = audit_stretch(g, build.spanner_edges, 4 ** LOG2_3)
    assert audit.passed


def test_cluster_merge_path_keeps_all():
    build = cluster_merge_spanner(gen_path(10), 4, 1)
    assert build.size == 9


def test_cluster_merge_k2_single_epoch():
    g = gen_gnp(80, 0.2, "unit", 3)
    build = cluster_merge_spanner(g, 2, 4)
    assert len(build.epochs) == 1
    assert build.epochs[0].p == pytest.approx(80 ** (-1 / 2))


def test_t1_matches_cluster_merge_exactly():
    for seed in (0, 1, 2):
        g = gen_gnp(70, 0.12, ("uniform", 1, 10), seed)
        a = cluster_merge_spanner(g, 4, seed)
        b = general_spanner(g, 4, 1, seed)
        assert a.to_json() == b.to_json()


def test_tk_matches_baswana_sen_exactly():
    g = gen_gnp(60, 0.2, "unit", 9)
    assert baswana_sen(g, 3, 5).to_json() == general_spanner(g, 3, 3, 5).to_json()


def test_tk_extreme_hits_classic_stretch():
    for seed in range(4):
        g = gen_gnp(120, 0.08, ("uniform", 1, 5), seed)
        for k in (2, 3, 4):
            build = general_spanner(g, k, k, seed)
            assert audit_stretch(g, build.spanner_edges, 2 * k - 1).passed


def test_two_phase_requires_unit_weights():
    g = gen_gnp(20, 0.4, ("uniform", 1, 3), 0)
    with pytest.raises(DomainError):
        two_phase_spanner(g, 4, 0)


def test_two_phase_empty_graph():
    g = build_graph(5, [])
    build = two_phase_spanner(g, 4, 0)
    assert build.size == 0


def test_two_phase_hop_stretch_bound():
    g = gen_gnp(300, 0.05, "unit", 11)
    t = 3  # ceil(sqrt(9))
    build = two_phase_spanner(g, 9, 2)
    assert build.t == t
    bound = 2 * t + (2 * t + 1) * (2 * t - 1) + 2 * t
    assert audit_stretch(g, build.spanner_edges, bound).passed


def test_general_weighted_run_bounds_and_trace():
    g = gen_gnp(500, 0.05, ("uniform", 1, 100), 3)
    build = general_spanner(g, 8, 2, 17, radius_checks=True)
    assert len(build.epochs) == 2  # ceil(ln 8 / ln 3)
    bound = 2 * 8 ** (math.log(5) / math.log(3))
    assert audit_stretch(g, build.spanner_edges, bound).passed
    for i, cert in enumerate(build.radius_checks, start=1):
        assert cert.passed
        assert cert.radius_bound == ((2 * 2 + 1) ** i - 1) // 2


def test_dispositions_partition_edges():
    g = gen_gnp(90, 0.15, ("uniform", 1, 9), 21)
    build = general_spanner(g, 5, 2, 21)
    record = build.record
    assert np.all((record >= -1) & (record < len(build.records)))
    assert build.spanner_edges.tolist() == np.flatnonzero(record == -1).tolist()
    kept, dropped = build.spanner_edges[0], np.flatnonzero(record >= 0)[0]
    assert build.disposition(kept) == ("in_spanner",)
    assert build.disposition(dropped) == ("discarded",) + build.records[record[dropped]]
    hist = build.discard_histogram()
    assert sum(hist.values()) + build.size == g.m


def test_tree_edges_of_final_clustering_are_spanner_edges():
    g = gen_gnp(150, 0.06, "unit", 8)
    build = general_spanner(g, 4, 2, 8)
    spanner = set(build.spanner_edges)
    fc = build.final_clustering
    fc.validate()
    for v in range(g.n):
        if fc.parent[v] >= 0:
            assert fc.parent_edge[v] in spanner


def test_build_result_is_arrays_of_a_few_bytes_per_edge():
    # Random columns with average degree about 20.  The result keeps one
    # int32 code per edge and the kept ids, not a Python int per kept edge.
    n, draws = 20_000, 200_000
    rng = np.random.default_rng(3)
    g = _from_columns(n, rng.integers(0, n, draws), rng.integers(0, n, draws), rng.random(draws) + 1.0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        build = general_spanner(g, 8, 2, 5)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 20 * g.m
    for ids in (build.spanner_edges, build.record):
        assert not ids.flags.writeable
    assert build.spanner_edges.dtype == np.intp and build.record.dtype == np.int32


def test_determinism_byte_for_byte():
    g = gen_gnp(100, 0.1, ("uniform", 1, 10), 6)
    a = general_spanner(g, 4, 2, 99)
    b = general_spanner(g, 4, 2, 99)
    assert a.to_json() == b.to_json()


def test_seed_sensitivity_both_valid():
    g = gen_gnp(500, 0.05, "unit", 1)
    a = general_spanner(g, 4, 1, 1)
    b = general_spanner(g, 4, 1, 2)
    bound = 2 * 4 ** stretch_exponent(1)
    assert audit_stretch(g, a.spanner_edges, bound).passed
    assert audit_stretch(g, b.spanner_edges, bound).passed
    # different seeds typically disagree; both must still be sound
    assert a.spanner_edges.tolist() != b.spanner_edges.tolist()


def test_params_validation():
    for k, t in [(0, 1), (2, 0)]:
        with pytest.raises(DomainError):
            size_study("path:4", k, t, trials=1)
        with pytest.raises(DomainError):
            parallel_repetition(gen_path(4), k, t, 0, repetitions=1)
    with pytest.raises(DomainError):
        general_spanner(gen_path(4), 0, 1, 0)


def test_build_json_shape():
    g = gen_gnp(40, 0.2, "unit", 0)
    build = general_spanner(g, 3, 1, 0)
    d = build.as_dict()
    assert d["graph"] == {"n": 40, "m": g.m}
    assert d["params"] == {"k": 3, "t": 1, "seed": 0}
    assert d["size"] == len(d["spanner_edges"])
    assert d["dispositions"]["unprocessed"] == 0
    assert {"added", "discarded"} <= set(d["phase2"])


def test_finish_rejects_unprocessed_edges():
    # A real exception, so the check survives python -O.
    g = gen_path(4)
    with pytest.raises(RuntimeError, match="unprocessed"):
        _finish(g, _EdgeLedger(g.m), 2, 1, 0, [], (0, 0), singleton_clustering(g), None)


def test_finish_reads_record_code_0_as_a_discard():
    # The first record's code is 0, next to the -1 of a kept edge.
    g = gen_path(4)
    ledger = _EdgeLedger(g.m)
    ledger.add(np.array([1]))
    ledger.discard(np.array([0, 2]), ledger.code(1, 1, RULE_JOIN))
    build = _finish(g, ledger, 2, 1, 0, [], (0, 0), singleton_clustering(g), None)
    assert build.record.tolist() == [0, -1, 0]
    assert build.spanner_edges.tolist() == [1] and build.size == 1
    assert build.disposition(0) == ("discarded", 1, 1, RULE_JOIN)
    assert build.disposition(1) == ("in_spanner",)
    assert build.discard_histogram() == {RULE_JOIN: 2}


def _discards(ledger: _EdgeLedger) -> dict:
    """The ledger's discarded edges as {eid: (epoch, iteration, rule)}."""
    out = np.flatnonzero(ledger.record >= 0)
    return {int(e): ledger.records[ledger.record[e]] for e in out}


@pytest.mark.parametrize(
    "live, winner, host, discarded",
    [([0, 1, 2], 0, 1, []), ([2, 1, 0], 2, 2, [1]), ([1, 0, 2], 1, 2, [2])],
)
def test_join_tie_goes_to_the_first_edge_in_live(live, winner, host, discarded):
    # Node 0 has equal-weight edges into the sampled clusters {1} (edge 0)
    # and {2, 3} (edges 1 and 2); edge 3 is the tree edge of {2, 3}.
    g = build_graph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (2, 3, 1.0)])
    d = clustering([0, 1, 2, 2], [None, None, None, (2, 3)], [0, 0, 0, 1])
    d.validate()
    ledger = _EdgeLedger(g.m)
    d_next, survivors, _ = _run_iteration(
        g, ledger, np.arange(4), d, np.array([1, 2]), np.array(live), 1, 1, ""
    )
    assert d_next.cluster_of[0] == host
    assert parent_pairs(d_next)[0] == (g.edges[winner][1], winner)
    assert ledger.record[winner] == ledger.IN
    # The other edge into the host cluster is superseded; edges into the
    # other cluster are no lighter, so they stay live.
    assert _discards(ledger) == {e: (1, 1, RULE_JOIN) for e in discarded}
    assert survivors.tolist() == [e for e in live if e != winner and e not in discarded]


@pytest.mark.parametrize(
    "cluster_of, parent, depth",
    [
        # Edge 3 = (2, 3) lies inside the cluster {2, 3}.
        ([0, 1, 2, 2], [None, None, None, (2, 3)], [0, 0, 0, 1]),
        # Node 3, on the live edges 2 and 3, is in no cluster.
        ([0, 1, 2, None], [None] * 4, [0, 0, 0, None]),
    ],
)
def test_iteration_rejects_a_live_edge_inside_a_cluster_or_outside_all(cluster_of, parent, depth):
    g = build_graph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (2, 3, 1.0)])
    d = clustering(cluster_of, parent, depth)
    d.validate()
    with pytest.raises(RuntimeError):
        _run_iteration(
            g, _EdgeLedger(g.m), np.arange(4), d, np.array([1]), np.arange(4), 1, 1, ""
        )


def test_iteration_rejects_a_live_edge_with_an_end_outside_the_quotient():
    # Vertex 2 is in no super-node, while the last node, 1, is the sampled
    # cluster: a gather at index -1 would read that cluster, and edge 1 =
    # (0, 2) would pass for a second edge from node 0 into it.
    g = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0)])
    d = clustering([0, 1], [None, None], [0, 0])
    with pytest.raises(RuntimeError, match="outside the quotient"):
        _run_iteration(
            g, _EdgeLedger(g.m), np.array([0, 1, -1], np.int32), d, np.array([1]),
            np.arange(2), 1, 1, "",
        )


@pytest.mark.parametrize("joiner, settler", [(0, 1), (1, 0)])
def test_edge_discarded_from_both_ends_keeps_the_smaller_nodes_rule(joiner, settler):
    # The joiner j has a join edge into the sampled cluster {h} and a lighter
    # edge into the settler's cluster {s, z}; the settler s has no sampled
    # neighbour and a lighter edge into the joiner's cluster {j, q}.  So both
    # ends supersede the heavy edge (j, s): j by the join rule, s by the
    # settle rule, and the smaller node id's rule is recorded.
    j, s, z, q, h = joiner, settler, 2, 3, 4
    g = build_graph(5, [(j, s, 5.0), (j, z, 1.0), (s, q, 1.0), (j, h, 3.0), (j, q, 1.0), (s, z, 1.0)])
    heavy, join_edge = 0, 3
    cluster_of = [None] * 5
    parent = [None] * 5
    depth = [0] * 5
    for root, member, tree_edge in ((j, q, 4), (s, z, 5)):
        cluster_of[root] = cluster_of[member] = root
        parent[member], depth[member] = (root, tree_edge), 1
    cluster_of[h] = h
    d = clustering(cluster_of, parent, depth)
    d.validate()
    ledger = _EdgeLedger(g.m)
    d_next, survivors, _ = _run_iteration(
        g, ledger, np.arange(5), d, np.array([h]), np.array([1, 2, 3, 0]), 1, 1, ""
    )
    assert parent_pairs(d_next)[j] == (h, join_edge)
    assert _discards(ledger) == {heavy: (1, 1, RULE_JOIN if j < s else RULE_SETTLE)}
    assert ledger.record[[1, 2, 3]].tolist() == [ledger.IN] * 3
    assert survivors.tolist() == []


def test_completion_sweep_skips_edges_an_earlier_node_kept():
    # Clusters {0, 2} (tree edge 2) and {1}.  Node 0 keeps edge 0 into {1};
    # node 1 then sees only edge 1 into {0, 2}, so it keeps that too rather
    # than counting the lighter edge 0 a second time.
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 1.0)])
    final = clustering([0, 1, 0], [None, None, (0, 2)], [0, 0, 1])
    final.validate()
    ledger = _EdgeLedger(g.m)
    sweep = _completion_sweep(
        g, ledger, final, np.arange(3), np.array([0, 1]), 1, "completion"
    )
    assert sweep == (2, 0)
    assert ledger.record[0] == ledger.record[1] == ledger.IN
