import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spanforge
from spanforge import (
    DomainError,
    apsp_blocks,
    apsp_experiment,
    apsp_matrix,
    audit_stretch,
    build_graph,
    gen_gnp,
    gen_path,
    general_spanner,
    stretch_exponent,
)
from spanforge.apsp import pair_ratios


def test_full_spanner_equals_exact():
    g = gen_gnp(40, 0.2, ("uniform", 1, 9), 3)
    exact = apsp_matrix(g)
    approx = apsp_matrix(g, range(g.m))
    assert np.array_equal(exact, approx)


def test_empty_spanner_all_infinite():
    g = gen_gnp(10, 0.5, "unit", 1)
    assert g.m > 0
    approx = apsp_matrix(g, [])
    off_diag = approx[~np.eye(10, dtype=bool)]
    assert np.all(np.isinf(off_diag))
    assert np.all(np.diag(approx) == 0)


def test_spanner_distances_dominate_and_bound():
    g = gen_gnp(150, 0.1, ("uniform", 1, 9), 13)
    build = general_spanner(g, 3, 1, 13)
    exact = apsp_matrix(g)
    approx = apsp_matrix(g, build.spanner_edges)
    assert np.all(approx >= exact - 1e-12)
    bound = 2 * 3 ** stretch_exponent(1)
    finite = np.isfinite(exact) & (exact > 0)
    assert np.all(approx[finite] <= bound * exact[finite] + 1e-9)


def test_tree_input_ratio_one():
    rep = apsp_experiment(gen_path(30), 4, 1, 5)
    assert rep.max_ratio == 1.0


def test_k1_ratio_one():
    rep = apsp_experiment(gen_gnp(40, 0.3, "unit", 2), 1, 1, 0)
    assert rep.max_ratio == 1.0
    assert rep.mean_ratio == 1.0


def test_guard_refuses_large_instances():
    g = build_graph(2001, [(0, 1, 1.0)])
    with pytest.raises(DomainError, match="guard"):
        apsp_experiment(g, 3, 1, 0)


def test_pair_ratio_vs_edge_audit_consistency():
    # Max pair ratio never exceeds the worst per-edge stretch ratio.
    g = gen_gnp(100, 0.15, ("uniform", 1, 9), 8)
    build = general_spanner(g, 3, 1, 8)
    rep = apsp_experiment(g, 3, 1, 8)
    audit = audit_stretch(g, build.spanner_edges, 2 * 3 ** stretch_exponent(1))
    assert rep.max_ratio <= audit.max_ratio + 1e-9


def triangle_ratios(exact, approx):
    """pair_ratios' ratio array built from whole upper triangles."""
    iu = np.triu_indices(exact.shape[0], k=1)
    e, a = exact[iu], approx[iu]
    connected = np.isfinite(e)
    e, a = e[connected], a[connected]
    ratios = np.empty_like(e)
    zero = e == 0
    ratios[~zero] = a[~zero] / e[~zero]
    ratios[zero] = np.where(a[zero] == 0, 1.0, math.inf)
    return ratios


def ratio_matrices(n, seed):
    """Random exact/approx pairs with unreachable and zero-distance pairs."""
    rng = np.random.default_rng(seed)
    exact = rng.uniform(0.5, 9.0, (n, n)).round(1)
    exact[rng.random((n, n)) < 0.1] = 0.0
    exact[rng.random((n, n)) < 0.2] = math.inf
    approx = exact * rng.choice([1.0, 1.5, 3.0], (n, n))
    approx[(exact == 0) & (rng.random((n, n)) < 0.5)] = 2.0
    return exact, approx


def row_blocks(matrix, height):
    """matrix as (lo, rows) blocks of height rows, views of matrix."""
    return ((lo, matrix[lo : lo + height]) for lo in range(0, matrix.shape[0], height))


def expected_ratios(exact, approx):
    ratios = triangle_ratios(exact, approx)
    return (float(ratios.max()), float(ratios.mean()), ratios.size) if ratios.size else (1.0, 1.0, 0)


@pytest.mark.parametrize("height", [1, 7, 2**15])
@pytest.mark.parametrize("n", [1, 2, 3, 50, 130])
def test_pair_ratios_equal_whole_triangle_ratios(n, height):
    # Row blocks of one row up to the whole matrix fill the same array.
    exact, approx = ratio_matrices(n, n)
    assert pair_ratios(row_blocks(exact, height), row_blocks(approx, height)) == expected_ratios(exact, approx)


def test_pair_ratios_refuse_misaligned_blocks():
    exact, approx = ratio_matrices(20, 2)
    with pytest.raises(ValueError, match="misaligned"):
        pair_ratios(row_blocks(exact, 7), row_blocks(approx, 5))
    with pytest.raises(ValueError):
        pair_ratios(row_blocks(exact, 7), row_blocks(approx[:14], 7))


def test_weighted_graph_with_a_unit_spanner_streams_aligned_blocks():
    # The exact stream takes the batched Dijkstra and the spanner stream,
    # all of whose edges weigh 1.0, the BFS: their blocks still align.
    n = 300
    chords = [(i, i + 2 + i % 5, (0.5, 2.0, 3.5)[i % 3]) for i in range(0, n - 6, 2)]
    g = build_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)] + chords)
    path = np.flatnonzero(g.w == 1.0)
    assert len(path) == n - 1
    exact, approx = list(apsp_blocks(g)), list(apsp_blocks(g, path))
    assert [(lo, rows.shape) for lo, rows in exact] == [(lo, rows.shape) for lo, rows in approx]
    assert len(exact) > 1
    expected = expected_ratios(apsp_matrix(g), apsp_matrix(g, path))
    assert pair_ratios(exact, approx) == expected


def test_pair_ratios_memory_is_one_ratio_array_and_a_row_block():
    # Whole upper triangles took 2 index arrays and 3 copies of n(n-1)/2.
    exact, approx = ratio_matrices(800, 1)
    exact[np.isinf(exact)] = 1.0
    tracemalloc.start()
    try:
        _, _, pairs = pair_ratios(row_blocks(exact, 64), row_blocks(approx, 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pairs == 800 * 799 // 2
    assert peak < 8 * pairs + 2 * 2**20


def test_report_dict_timing_opt_in():
    rep = apsp_experiment(gen_gnp(30, 0.3, "unit", 4), 3, 1, 1)
    assert "timing" not in rep.as_dict()
    timed = rep.as_dict(with_timing=True)
    assert {"build", "query"} <= set(timed["timing"])
    assert rep.pairs > 0


def test_query_seconds_time_the_spanner_sweep_only(monkeypatch):
    # The exact sweep checks the answers; answering is the spanner sweep.
    # Blocks of 64 rows, so that the two streams interleave 4 times.
    # Clock reading j (from 1) is 2**j, so each interval is one bit of a
    # total, and the total names the intervals that were counted.
    monkeypatch.setattr(spanforge.oracles, "_ROW_CELLS", 1)
    events = []
    real = spanforge.apsp.apsp_blocks

    def blocks(g, edge_ids=None):
        name = "exact" if edge_ids is None else "spanner"
        events.append(name)  # the call builds the arc table

        def stream():
            for block in real(g, edge_ids):
                events.append(name)
                yield block
            events.append(name)

        return stream()

    def spanner(*args):
        events.append("build")
        return general_spanner(*args)

    def perf_counter():
        events.append("clock")
        return float(2 ** events.count("clock"))

    monkeypatch.setattr(spanforge.apsp, "apsp_blocks", blocks)
    monkeypatch.setattr(spanforge.apsp, "general_spanner", spanner)
    monkeypatch.setattr(spanforge.apsp.time, "perf_counter", perf_counter)
    rep = apsp_experiment(gen_gnp(200, 0.05, "unit", 4), 3, 1, 1)

    clocks = [i for i, event in enumerate(events) if event == "clock"]
    inside = [set(events[a + 1 : b]) for a, b in zip(clocks, clocks[1:])]
    assert {"exact", "spanner"} <= set().union(*inside)
    assert all(len(names) <= 1 for names in inside)
    # Interval i, from reading i + 1 to reading i + 2, lasts 2**(i + 1).
    assert rep.build_seconds == sum(2.0 ** (i + 1) for i, names in enumerate(inside) if names == {"build"})
    assert rep.query_seconds == sum(2.0 ** (i + 1) for i, names in enumerate(inside) if names == {"spanner"})
    assert events.count("spanner") == 1 + 4 + 1  # the call, 4 blocks and the end


def test_apsp_experiment_holds_no_distance_matrix():
    # Two n x n matrices and the ratio array peaked at 20.1 MiB; the bound
    # is one matrix and the ratio array.
    n = 1000
    g = gen_gnp(n, 0.01, "unit", 1)
    tracemalloc.start()
    try:
        rep = apsp_experiment(g, 9, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.pairs == n * (n - 1) // 2
    assert peak < 8 * n * n + 4 * n * (n - 1)


def test_memory_budget_reported_not_enforced():
    from spanforge import coordinator_budget

    rep = apsp_experiment(gen_gnp(80, 0.2, "unit", 6), 4, 1, 2)
    assert rep.memory_budget == coordinator_budget(80)
    d = rep.as_dict()
    assert d["within_budget"] == (rep.spanner_size <= rep.memory_budget)


def test_study_apsp_bound_check_survives_python_O(tmp_path):
    # Under -O a bare assert would vanish and the study would exit 0.
    script = (
        "import sys\n"
        "import spanforge.apsp\n"
        "from spanforge.cli import main\n"
        "spanforge.apsp.pair_ratios = lambda exact, approx: (1e9, 1.0, 1)\n"
        "sys.exit(main(['study', '--gen', 'gnp:30:0.2:unit', '--k', '3', '--apsp', '--trials', '1']))\n"
    )
    src = str(Path(spanforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 1, proc.stderr
    assert "exceeds bound" in proc.stderr
