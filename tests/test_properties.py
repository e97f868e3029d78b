"""Property tests of the spanner engine on random and named small graphs.

Every build must decide each edge exactly once, keep the input's
connected components, keep its final tree edges in the spanner, and pass
the independent stretch audit at its algorithm's bound.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spanforge import (
    audit_stretch,
    build_graph,
    component_labels,
    gen_complete,
    gen_cycle,
    gen_path,
    gen_star,
    stretch_bound,
)
from spanforge.oracles import ALGORITHMS

# Every path, cycle, clique and star on at most 8 vertices.
NAMED = (
    [(f"path-{n}", gen_path, n) for n in range(2, 9)]
    + [(f"cycle-{n}", gen_cycle, n) for n in range(3, 9)]
    + [(f"clique-{n}", gen_complete, n) for n in range(2, 9)]
    + [(f"star-{n}", gen_star, n) for n in range(2, 9)]
)
CASES = [("bs", 2, 1), ("bs", 3, 1), ("merge", 2, 1), ("merge", 4, 1), ("general", 4, 2), ("twophase", 4, 1)]


@st.composite
def small_graphs(draw, unit: bool):
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weight = st.just(1.0) if unit else st.floats(min_value=1.0, max_value=10.0)
    return build_graph(n, [(u, v, draw(weight)) for u, v in chosen])


def _check_build(g, algo, k, t, seed):
    build = ALGORITHMS[algo](g, k, t, seed)
    spanner = set(build.spanner_edges.tolist())

    assert np.all((build.record >= -1) & (build.record < len(build.records)))
    assert build.size + sum(build.discard_histogram().values()) == g.m
    assert component_labels(g, build.spanner_edges) == component_labels(g)
    build.final_clustering.validate()
    parent_edge = build.final_clustering.parent_edge
    tree_edges = set(parent_edge[parent_edge >= 0].tolist())
    assert tree_edges <= spanner
    assert audit_stretch(g, build.spanner_edges, stretch_bound(algo, k, t)).passed


@pytest.mark.parametrize("algo", ["bs", "merge", "general"])
@given(
    data=st.data(),
    k=st.integers(min_value=1, max_value=6),
    t=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_engine_properties(algo, data, k, t, seed):
    g = data.draw(small_graphs(unit=data.draw(st.booleans())))
    _check_build(g, algo, k, t, seed)


@given(
    g=small_graphs(unit=True),
    k=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_twophase_properties_on_unit_weights(g, k, seed):
    _check_build(g, "twophase", k, 1, seed)


@pytest.mark.parametrize("algo, k, t", CASES)
@pytest.mark.parametrize("name, make, n", NAMED, ids=[name for name, _, _ in NAMED])
def test_named_small_graphs(name, make, n, algo, k, t):
    _check_build(make(n), algo, k, t, seed=n)
