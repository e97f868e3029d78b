"""The edge-list writer as one f-string and one write call per edge, for
tests.

This was write_edge_list before it formatted each chunk of edges as one
numpy byte matrix; it stays here as the reference whose bytes the numpy
writer must equal.
"""


def line_write_edge_list(g, sink) -> None:
    """Write g's header and one line f"{u} {v} {w!r}" per edge to the text
    stream sink."""
    sink.write(f"# {g.n} {g.m}\n")
    for start in range(0, g.m, 4096):
        part = slice(start, start + 4096)
        for u, v, w in zip(g.u[part].tolist(), g.v[part].tolist(), g.w[part].tolist()):
            sink.write(f"{u} {v} {w!r}\n")
