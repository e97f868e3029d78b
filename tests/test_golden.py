"""Golden sha256 digests of canonical build JSON and CLI report bytes.

Each case runs one fixed (graph, algorithm, k, t, seed) build, or one CLI
command, and compares the sha256 of its output with the digest stored in
golden_digests.json next to this file.  Determinism within one process is
covered elsewhere; these digests catch output drift between commits.

Running this file as a script rewrites golden_digests.json from the
current code:

    PYTHONPATH=src python tests/test_golden.py

Do that only for a change that is meant to alter outputs, and say why in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Callable

import pytest

from spanforge import (
    baswana_sen,
    cluster_merge_spanner,
    gen_complete,
    gen_cycle,
    gen_gnp,
    gen_grid,
    gen_path,
    gen_star,
    general_spanner,
    two_phase_spanner,
    write_edge_list,
)
from spanforge.cli import main

GOLDEN_FILE = Path(__file__).with_name("golden_digests.json")

GRAPHS = {
    "gnp-w": lambda: gen_gnp(70, 0.12, ("uniform", 1, 10), seed=1),
    "gnp-u": lambda: gen_gnp(70, 0.12, "unit", seed=2),
    "grid": lambda: gen_grid(7, 6),
    "path-9": lambda: gen_path(9),
    "cycle-8": lambda: gen_cycle(8),
    "complete-7": lambda: gen_complete(7),
    "star-8": lambda: gen_star(8),
    "gnp-600": lambda: gen_gnp(600, 0.05, ("uniform", 1, 10), seed=3),
    "grid-40": lambda: gen_grid(40, 40),
}
SMALL_FAMILY = ("path-9", "cycle-8", "complete-7", "star-8")


def _sha(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _build_case(graph: str, algo: str, k: int, t: int, seed: int) -> Callable[[], str]:
    def run() -> str:
        g = GRAPHS[graph]()
        if algo == "general":
            build = general_spanner(g, k, t, seed, radius_checks=True)
        elif algo == "merge":
            build = cluster_merge_spanner(g, k, seed, radius_checks=True)
        elif algo == "bs":
            build = baswana_sen(g, k, seed)
        else:
            build = two_phase_spanner(g, k, seed)
        return _sha(build.to_json())

    return run


def _cli_case(argv: list[str], outputs: list[str], setup: Callable[[], None] | None = None):
    """Run the CLI in the current directory; digest its exit code and the
    bytes of each named output file."""

    def run() -> str:
        if setup is not None:
            setup()
        code = main(argv)
        parts = [f"exit={code}"]
        for name in outputs:
            parts.append(name + "=" + _sha(Path(name).read_bytes()))
        return _sha("\n".join(parts))

    return run


def _write_graph(graph: str, name: str = "g.txt") -> Callable[[], None]:
    return lambda: write_edge_list(GRAPHS[graph](), name)


def _write_graph_and_spanner(graph: str, algo: str, k: int, extra: list[str] = ()):
    def setup() -> None:
        write_edge_list(GRAPHS[graph](), "g.txt")
        code = main(
            ["build", "--input", "g.txt", "--algo", algo, "--k", str(k), *extra,
             "--seed", "3", "--out", "b.json", "--spanner-out", "s.txt"]
        )
        assert code == 0

    return setup


def _cases() -> dict[str, Callable[[], str]]:
    cases: dict[str, Callable[[], str]] = {}

    def add_build(graph: str, algo: str, k: int, t: int = 1, seed: int = 7) -> None:
        cases[f"build/{graph}/{algo}/k{k}/t{t}/s{seed}"] = _build_case(graph, algo, k, t, seed)

    for graph in ("gnp-w", "gnp-u"):
        for k in (4, 6):
            for t in (1, 2, 3, k):
                add_build(graph, "general", k, t)
        for k in (3, 5):
            add_build(graph, "bs", k, k)
        for k in (4, 8):
            add_build(graph, "merge", k)
    for graph in ("gnp-u", "grid"):
        for k in (4, 9):
            add_build(graph, "twophase", k)
    add_build("gnp-w", "general", 1, 2)
    add_build("grid", "general", 5, 2)
    add_build("grid", "twophase", 1)
    add_build("gnp-600", "general", 8, 2)
    add_build("gnp-600", "merge", 4)
    add_build("gnp-600", "bs", 3, 3)
    add_build("grid-40", "twophase", 9)
    for graph in SMALL_FAMILY:
        add_build(graph, "bs", 3, 3, seed=1)
        add_build(graph, "merge", 4, seed=2)
        add_build(graph, "general", 4, 2, seed=3)
        add_build(graph, "twophase", 4, seed=4)

    for algo, k, extra in (
        ("bs", 3, []),
        ("merge", 4, []),
        ("general", 6, ["--t", "2"]),
        ("twophase", 9, []),
    ):
        graph = "gnp-w" if algo != "twophase" else "gnp-u"
        cases[f"cli/build-audit-auto/gen/{algo}"] = _cli_case(
            ["build", "--gen", "gnp:60:0.15:unit", "--algo", algo, "--k", str(k), *extra,
             "--seed", "5", "--audit", "auto", "--out", "r.json"],
            ["r.json"],
        )
        cases[f"cli/build-audit-auto/input/{algo}"] = _cli_case(
            ["build", "--input", "g.txt", "--algo", algo, "--k", str(k), *extra,
             "--seed", "5", "--audit", "auto", "--out", "r.json", "--spanner-out", "s.txt"],
            ["r.json", "s.txt"],
            _write_graph(graph),
        )

    for graph, algo, k, extra, spec in (
        ("gnp-w", "bs", 3, [], "bs:3"),
        ("gnp-w", "bs", 3, [], "bs:2"),
        ("gnp-w", "general", 4, ["--t", "1"], "general:4,1"),
        ("gnp-u", "general", 6, ["--t", "2"], "general:6,2"),
    ):
        cases[f"cli/audit-auto/{graph}/{algo}/{spec}"] = _cli_case(
            ["audit", "--input", "g.txt", "--spanner", "s.txt", "--auto", spec,
             "--out", "a.json", "--csv", "a.csv"],
            ["a.json", "a.csv"],
            _write_graph_and_spanner(graph, algo, k, extra),
        )
    cases["cli/audit-bound/gnp-w/merge/1.5"] = _cli_case(
        ["audit", "--input", "g.txt", "--spanner", "s.txt", "--bound", "1.5",
         "--out", "a.json", "--csv", "a.csv"],
        ["a.json", "a.csv"],
        _write_graph_and_spanner("gnp-w", "merge", 4),
    )
    cases["cli/study-apsp"] = _cli_case(
        ["study", "--gen", "gnp:50:0.15:unit", "--k", "5", "--t", "2", "--apsp",
         "--trials", "2", "--seed0", "1", "--out", "st.csv", "--json", "st.json"],
        ["st.csv", "st.json"],
    )
    return cases


CASES = _cases()


def _load_golden() -> dict[str, str]:
    with open(GOLDEN_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_file_lists_every_case():
    assert sorted(_load_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert CASES[case]() == _load_golden()[case]


def _regenerate() -> None:
    digests = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                digests[case] = CASES[case]()
            finally:
                os.chdir(cwd)
    with open(GOLDEN_FILE, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_FILE}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
