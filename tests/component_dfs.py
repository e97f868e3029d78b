"""Component labels by a Python depth-first search, for tests.

This was component_labels before it labelled components in numpy by root
hooking and pointer jumping; it stays here as the reference that the
numpy labels must equal.
"""


def dfs_component_labels(g, edge_ids=None) -> list[int]:
    """Connected-component label per vertex over the edges edge_ids (all
    edges when None), numbered in the order of each component's least
    vertex."""
    nbr = [[] for _ in range(g.n)]
    us, vs = g.u.tolist(), g.v.tolist()
    for eid in range(g.m) if edge_ids is None else edge_ids:
        nbr[us[eid]].append(vs[eid])
        nbr[vs[eid]].append(us[eid])
    label = [-1] * g.n
    current = 0
    for start in range(g.n):
        if label[start] != -1:
            continue
        stack = [start]
        label[start] = current
        while stack:
            x = stack.pop()
            for y in nbr[x]:
                if label[y] == -1:
                    label[y] = current
                    stack.append(y)
        current += 1
    return label
