"""Property tests of the spanner engine on random small graphs.

Every build must decide each edge exactly once, keep the input's
connected components, keep its final tree edges in the spanner, and pass
the independent stretch audit at its algorithm's bound.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spanforge import audit_stretch, build_graph, component_labels, stretch_bound
from spanforge.oracles import ALGORITHMS


@st.composite
def small_graphs(draw, unit: bool):
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weight = st.just(1.0) if unit else st.floats(min_value=1.0, max_value=10.0)
    return build_graph(n, [(u, v, draw(weight)) for u, v in chosen])


def _check_build(g, algo, k, t, seed):
    build = ALGORITHMS[algo](g, k, t, seed)
    spanner = set(build.spanner_edges)

    assert all(build.disposition(e)[0] != "unprocessed" for e in range(g.m))
    assert build.size + sum(build.discard_histogram().values()) == g.m
    assert component_labels(g, build.spanner_edges) == component_labels(g)
    build.final_clustering.validate()
    tree_edges = {pe[1] for pe in build.final_clustering.parent if pe is not None}
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
