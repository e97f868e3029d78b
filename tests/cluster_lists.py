"""Clusterings written as per-node Python lists, for tests.

A test states a small clustering as cluster ids and depths with None for
an inactive node, and parents as (parent node, edge id) pairs with None at
a root or an inactive node, the way a reader draws it.
"""

import numpy as np

from spanforge import Clustering


def clustering(cluster_of, parent, depth) -> Clustering:
    """The Clustering of per-node lists, with -1 for each None."""

    def ids(values):
        return np.array([-1 if x is None else x for x in values], np.int32)

    return Clustering(
        cluster_of=ids(cluster_of),
        parent=ids(None if p is None else p[0] for p in parent),
        parent_edge=ids(None if p is None else p[1] for p in parent),
        depth=ids(depth),
    )


def parent_pairs(c: Clustering) -> list:
    """c's parents as (parent node, edge id) pairs, None where there is none."""
    return [
        None if p < 0 else (p, e) for p, e in zip(c.parent.tolist(), c.parent_edge.tolist())
    ]
