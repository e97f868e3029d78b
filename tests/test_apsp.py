import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spanforge
from spanforge import (
    DomainError,
    apsp_experiment,
    apsp_matrix,
    audit_stretch,
    build_graph,
    gen_gnp,
    gen_path,
    general_spanner,
    stretch_exponent,
)


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


def test_report_dict_timing_opt_in():
    rep = apsp_experiment(gen_gnp(30, 0.3, "unit", 4), 3, 1, 1)
    assert "timing" not in rep.as_dict()
    timed = rep.as_dict(with_timing=True)
    assert {"build", "query"} <= set(timed["timing"])
    assert rep.pairs > 0


def test_query_seconds_time_the_spanner_sweep_only(monkeypatch):
    # The exact sweep checks the answers; answering is the spanner sweep.
    events = []
    clock = iter([0.0, 1.0, 3.0, 7.0])
    real = spanforge.apsp.apsp_matrix

    def matrix(g, edge_ids=None):
        events.append("exact" if edge_ids is None else "spanner")
        return real(g, edge_ids)

    def perf_counter():
        events.append("clock")
        return next(clock)

    monkeypatch.setattr(spanforge.apsp, "apsp_matrix", matrix)
    monkeypatch.setattr(spanforge.apsp.time, "perf_counter", perf_counter)
    rep = apsp_experiment(gen_gnp(30, 0.3, "unit", 4), 3, 1, 1)
    assert events == ["clock", "clock", "exact", "clock", "spanner", "clock"]
    assert (rep.build_seconds, rep.query_seconds) == (1.0, 4.0)


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
