"""Tests for the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import random
import sys
import types
from pathlib import Path

import pytest

import calibrate
import checks
from layers import PER_LAYER, edge_visits, layer_metrics
from run import END_TO_END, job_times
from tracer import Span, Tracer, WrapPoint, self_times
from workloads import WORKLOADS, gnm_edges, write_gnm


def test_self_times_subtract_children_once():
    spans = [
        Span("cli.main", 0.0, 10.0, None, 0),
        Span("spanner.build", 1.0, 7.0, 0, 0),
        Span("clustering.grow", 2.0, 3.0, 1, 0),
        Span("clustering.contract", 4.0, 6.5, 1, 0),
        Span("graph.write", 8.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.5, 1.0, 2.5, 1.0])


def test_self_times_clip_overlapping_children():
    spans = [
        Span("a.x", 0.0, 4.0, None, 0),
        Span("b.y", 1.0, 3.0, 0, 0),
        Span("b.z", 2.0, 5.0, 0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_layer_self_times_account_for_the_job():
    spans = [
        Span("cli.main", 0.0, 10.0, None, 0),
        Span("graph.load", 0.5, 1.5, 0, 0, {"vertices": 4, "edges": 5}),
        Span("graph.build_graph", 1.0, 1.25, 1, 0),
        Span("spanner.build", 2.0, 8.0, 0, 0, {"m": 5, "kept": 3, "iterations": 2, "edge_visits": 8}),
        Span("clustering.contract", 3.0, 4.0, 3, 0, {"dropped": 1}),
        Span("cli.main", 20.0, 22.0, None, 1),
        Span("graph.load", 20.0, 21.0, 5, 1, {"vertices": 4, "edges": 5}),
    ]
    out = layer_metrics(spans, [(0, 3.5, 3.75)], jobs=2)
    assert out["cli.job_s"] == pytest.approx(6.0)
    assert out["graph.load_s"] == pytest.approx(1.0)
    assert out["graph.self_s"] == pytest.approx(1.0)
    assert out["spanner.self_s"] == pytest.approx(2.5)
    assert out["clustering.contract_s"] == pytest.approx(0.5)
    layers = ("graph", "clustering", "spanner", "oracles", "apsp", "cli")
    assert sum(out[f"{layer}.self_s"] for layer in layers) == pytest.approx(out["cli.job_s"])
    assert out["trace.accounted_frac"] == pytest.approx(1.0)
    assert out["runtime.gc_s"] == pytest.approx(0.125)
    assert out["spanner.decided_per_visit"] == pytest.approx(5 / 8)
    assert out["graph.edges"] == pytest.approx(5.0)


def test_edge_visits_retire_added_discarded_and_dedup():
    epochs = [
        {"iterations": [{"added": 2, "discarded": 3}, {"added": 1, "discarded": 1}],
         "contract_discarded": 2},
        {"iterations": [{"added": 1, "discarded": 0}], "contract_discarded": 0},
    ]
    # 20 live edges, then 15, then 13 - 2 dedup = 11.
    assert edge_visits(20, epochs) == 20 + 15 + 11


def _fake_module(name: str) -> types.ModuleType:
    module = types.ModuleType(name)
    exec(
        "def inner(x):\n    return x + 1\n\ndef outer(x):\n    return inner(x) * 2\n",
        module.__dict__,
    )
    return module


def test_tracer_nests_restores_and_reports_missing(monkeypatch):
    module = _fake_module("perfbench_fake_layer")
    monkeypatch.setitem(sys.modules, module.__name__, module)
    original_inner, original_outer = module.inner, module.outer
    tracer = Tracer([
        WrapPoint(module.__name__, "outer", "cli.main"),
        WrapPoint(module.__name__, "inner", "graph.load", lambda a, k, r: {"edges": r}),
        WrapPoint(module.__name__, "gone", "graph.gen"),
    ])
    with tracer.job(7):
        assert module.outer(3) == 8
    assert module.inner is original_inner and module.outer is original_outer
    assert tracer.missing == [f"{module.__name__}.gone"]
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, outer.job) == ("cli.main", None, 7)
    assert (inner.name, inner.parent, inner.attrs) == ("graph.load", 0, {"edges": 4})
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_scaled_times_cancel_machine_speed():
    ref = calibrate.REFERENCE_S
    # The same job on a machine at full speed and at half speed.
    fast = [{"wall_s": 2.0, "kernel_s": [ref, ref]}] * 3
    slow = [{"wall_s": 4.0, "kernel_s": [2 * ref, 2 * ref]}] * 3
    assert job_times(fast) == job_times(slow) == pytest.approx([2.0] * 3)
    # One slow kernel reading is averaged with those up to two jobs away:
    # job i sees kernels[i - 2 : i + 4], four to six readings.
    assert calibrate.WINDOW == 2
    kernels = [ref, ref, ref, 7 * ref, ref, ref, ref]
    assert calibrate.scaled([2.0] * 6, kernels) == pytest.approx(
        [2.0 / 2.5, 2.0 / 2.2, 1.0, 1.0, 2.0 / 2.2, 2.0 / 2.5]
    )
    with calibrate.gauge() as kernel_s:
        assert kernel_s() > 0


def test_connectivity_rejects_missing_bridge():
    edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 5.0)]
    assert checks.check_connectivity(4, edges, [0, 1, 3]) == []
    assert checks.check_connectivity(4, edges, [0, 1, 2])


def test_stretch_rejects_cycle_missing_needed_edge():
    # The light edge (0,1) has no short detour: 0-3-2-1 weighs 12.
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 10.0)]
    bound = 3.0
    good = checks.sampled_stretch(4, edges, [0, 1, 2], bound, 4, random.Random(0))
    assert good == {3: pytest.approx(0.3)}
    assert checks.check_stretch(good, bound) == []
    bad = checks.sampled_stretch(4, edges, [1, 2, 3], bound, 4, random.Random(0))
    assert checks.check_stretch(bad, bound)
    assert checks.check_stretch(good, bound, cap=0.2)


def test_gnm_input_repeats_for_a_seed(tmp_path):
    a, digest_a = write_gnm(tmp_path / "a.txt", 50, 200, seed=3)
    b, digest_b = write_gnm(tmp_path / "b.txt", 50, 200, seed=3)
    assert a == b and digest_a == digest_b
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    assert gnm_edges(50, 200, seed=4) != a
    assert len({(u, v) for u, v, _ in a}) == 200
    assert all(0 <= u < v < 50 and 1.0 <= w <= 10.0 for u, v, w in a)


def test_workload_bounds_match_the_schedules():
    assert WORKLOADS["build-grid"].bound() == 47  # twophase k=9: t=3
    assert WORKLOADS["build-gnp"].bound() == pytest.approx(2 * 8 ** (1.6094379 / 1.0986123))
    assert WORKLOADS["apsp-gnp"].bound() == pytest.approx(2 * 9 ** 1.5849625)


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
