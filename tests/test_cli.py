import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import spanforge
import spanforge.graph
from spanforge import gen_gnp, load_edge_list, write_edge_list
from spanforge.cli import cost_model, main


@pytest.fixture(scope="module")
def schema():
    with resources.files("spanforge").joinpath("report.schema.json").open() as fh:
        return json.load(fh)


def run_cli(args):
    return main(args)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_build_general_report(tmp_path, schema):
    out = tmp_path / "build.json"
    code = run_cli(
        [
            "build", "--gen", "gnp:100:0.1:unit", "--algo", "general",
            "--k", "4", "--t", "1", "--seed", "1", "--out", str(out),
        ]
    )
    assert code == 0
    report = read_json(out)
    jsonschema.validate(report, schema)
    assert report["cost"]["epochs"] == 2  # ceil(ln 4 / ln 2)
    assert report["dispositions"]["unprocessed"] == 0


def test_build_bs_k1_keeps_everything(tmp_path):
    out = tmp_path / "b.json"
    assert run_cli(["build", "--gen", "gnp:50:0.2:unit", "--algo", "bs", "--k", "1", "--out", str(out)]) == 0
    report = read_json(out)
    assert report["size"] == report["graph"]["m"]


def test_build_twophase_weighted_input_exits_1(tmp_path):
    graph_file = tmp_path / "weighted.txt"
    write_edge_list(gen_gnp(20, 0.3, ("uniform", 1, 5), 0), graph_file)
    code = run_cli(["build", "--input", str(graph_file), "--algo", "twophase", "--k", "4"])
    assert code == 1


def test_build_t_flag_only_for_general():
    code = run_cli(["build", "--gen", "gnp:20:0.2:unit", "--algo", "bs", "--k", "2", "--t", "2"])
    assert code == 2


def test_build_missing_source_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli(["build", "--algo", "bs", "--k", "2"])
    assert exc.value.code == 2


def test_audit_full_spanner_passes(tmp_path, schema):
    g = gen_gnp(40, 0.2, ("uniform", 1, 9), 5)
    graph_file = tmp_path / "g.txt"
    write_edge_list(g, graph_file)
    out = tmp_path / "audit.json"
    code = run_cli(
        ["audit", "--input", str(graph_file), "--spanner", str(graph_file),
         "--bound", "1.0", "--out", str(out)]
    )
    assert code == 0
    report = read_json(out)
    jsonschema.validate(report, schema)
    assert report["passed"] and report["max_ratio"] == 1.0


def test_audit_broken_spanner_exits_1(tmp_path):
    from spanforge import build_graph

    g = build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    graph_file, spanner_file = tmp_path / "g.txt", tmp_path / "s.txt"
    write_edge_list(g, graph_file)
    write_edge_list(build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)]), spanner_file)
    out = tmp_path / "audit.json"
    code = run_cli(
        ["audit", "--input", str(graph_file), "--spanner", str(spanner_file),
         "--bound", "100", "--out", str(out)]
    )
    assert code == 1
    report = read_json(out)
    assert report["failing"][0]["u"] == 1 and report["failing"][0]["v"] == 2


def test_audit_mismatched_spanner_exits_2(tmp_path):
    g = gen_gnp(10, 0.4, "unit", 1)
    graph_file, spanner_file = tmp_path / "g.txt", tmp_path / "s.txt"
    write_edge_list(g, graph_file)
    from spanforge import build_graph

    write_edge_list(build_graph(12, [(10, 11, 1.0)]), spanner_file)
    code = run_cli(["audit", "--input", str(graph_file), "--spanner", str(spanner_file), "--bound", "1"])
    assert code == 2


def test_audit_reads_headerless_spanner_ids_as_given(tmp_path):
    # The spanner file holds the input's edge (2, 3) without a header.  Its
    # ids must not be remapped to (0, 1), which is a different input edge.
    graph_file, spanner_file = tmp_path / "g.txt", tmp_path / "s.txt"
    graph_file.write_text("# 4 2\n0 1 1.0\n2 3 1.0\n")
    spanner_file.write_text("2 3 1.0\n")
    out = tmp_path / "audit.json"
    code = run_cli(
        ["audit", "--input", str(graph_file), "--spanner", str(spanner_file),
         "--bound", "3", "--out", str(out)]
    )
    assert code == 1
    assert [(f["edge"], f["u"], f["v"]) for f in read_json(out)["failing"]] == [(0, 0, 1)]


def test_audit_spanner_header_n_differs_exits_2(tmp_path):
    graph_file, spanner_file = tmp_path / "g.txt", tmp_path / "s.txt"
    graph_file.write_text("# 4 2\n0 1 1.0\n2 3 1.0\n")
    spanner_file.write_text("# 5 1\n2 3 1.0\n")
    code = run_cli(["audit", "--input", str(graph_file), "--spanner", str(spanner_file),
                    "--bound", "3"])
    assert code == 2


AUTO_BOUNDS = {
    "bs:5": 9,
    "merge:4": 18.0,
    "twophase:9": 47,
    "general:4,1": 2 * 4 ** 1.5849625007211562,
}


@pytest.mark.parametrize("spec", sorted(AUTO_BOUNDS))
def test_audit_auto_bound(tmp_path, capsys, spec):
    g = gen_gnp(30, 0.3, "unit", 2)
    graph_file = tmp_path / "g.txt"
    write_edge_list(g, graph_file)
    code = run_cli(["audit", "--input", str(graph_file), "--spanner", str(graph_file), "--auto", spec])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bound"] == pytest.approx(AUTO_BOUNDS[spec])


HUGE = "1" + "0" * 400  # an int past the largest float


@pytest.mark.parametrize(
    "spec",
    ["foo:3", "bs:0", "general:4", "twophase:4,2"]
    + [  # stretch bounds past the largest float
        pytest.param(f"merge:{HUGE}", id="merge:huge"),
        pytest.param("merge:1" + "0" * 308, id="merge:1e308"),
        pytest.param(f"general:{HUGE},2", id="general:huge,2"),
        pytest.param(f"bs:{HUGE}", id="bs:huge"),
        pytest.param(f"twophase:{HUGE}", id="twophase:huge"),
    ],
)
def test_audit_bad_auto_spec_exits_2(tmp_path, spec):
    g = gen_gnp(10, 0.4, "unit", 1)
    graph_file = tmp_path / "g.txt"
    write_edge_list(g, graph_file)
    code = run_cli(["audit", "--input", str(graph_file), "--spanner", str(graph_file), "--auto", spec])
    assert code == 2


@pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
def test_audit_non_finite_bound_exits_2(tmp_path, value):
    from spanforge import build_graph

    graph_file, spanner_file = tmp_path / "g.txt", tmp_path / "s.txt"
    write_edge_list(build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)]), graph_file)
    write_edge_list(build_graph(3, [(0, 1, 1.0)]), spanner_file)  # disconnected
    with pytest.raises(SystemExit) as exc:
        run_cli(["audit", "--input", str(graph_file), "--spanner", str(spanner_file), "--bound", value])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
def test_build_audit_non_finite_bound_exits_2(value):
    with pytest.raises(SystemExit) as exc:
        run_cli(["build", "--gen", "gnp:20:0.2:unit", "--algo", "bs", "--k", "2", "--audit", value])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["0.5", "-1", "0"])
def test_audit_bound_below_1_exits_2(tmp_path, capsys, value):
    graph_file = tmp_path / "g.txt"
    write_edge_list(gen_gnp(10, 0.4, "unit", 1), graph_file)
    with pytest.raises(SystemExit) as exc:
        run_cli(["audit", "--input", str(graph_file), "--spanner", str(graph_file), "--bound", value])
    assert exc.value.code == 2
    assert f"a stretch bound must be >= 1, got '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "0.999"])
def test_build_audit_bound_below_1_exits_2(value):
    with pytest.raises(SystemExit) as exc:
        run_cli(["build", "--gen", "gnp:20:0.2:unit", "--algo", "bs", "--k", "2", "--audit", value])
    assert exc.value.code == 2


def test_bound_of_1_is_accepted(tmp_path):
    graph_file = tmp_path / "g.txt"
    write_edge_list(gen_gnp(10, 0.4, "unit", 1), graph_file)
    assert run_cli(["audit", "--input", str(graph_file), "--spanner", str(graph_file), "--bound", "1"]) == 0
    assert run_cli(["build", "--gen", "gnp:20:0.2:unit", "--algo", "bs", "--k", "1", "--audit", "1"]) == 0


def test_audit_csv_rows(tmp_path):
    g = gen_gnp(15, 0.4, "unit", 3)
    graph_file = tmp_path / "g.txt"
    write_edge_list(g, graph_file)
    csv_path = tmp_path / "audit.csv"
    run_cli(["audit", "--input", str(graph_file), "--spanner", str(graph_file),
             "--bound", "1", "--csv", str(csv_path), "--out", str(tmp_path / "a.json")])
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "edge,u,v,w,in_spanner,ratio"
    assert len(lines) == g.m + 1


def test_cost_model_examples(tmp_path, schema):
    model = cost_model(16, 1, 0.5)
    assert (model.epochs, model.iterations, model.mpc_rounds) == (4, 4, 8)
    assert cost_model(256, 1).epochs == 8
    m = cost_model(8, 8)
    assert (m.epochs, m.iterations) == (1, 8)
    out = tmp_path / "cost.json"
    assert run_cli(["cost", "--k", "16", "--t", "1", "--gamma", "0.5", "--out", str(out)]) == 0
    jsonschema.validate(read_json(out), schema)


@pytest.mark.parametrize(
    "argv",
    [
        ["cost", "--k", "4", "--t", "1", "--gamma", "1e-310"],
        ["cost", "--k", "4", "--t", HUGE, "--gamma", "1"],
        ["study", "--gen", "gnp:50:0.1:unit", "--k", "4", "--t", HUGE, "--trials", "1"],
    ],
    ids=["tiny-gamma", "huge-t", "study-huge-t"],
)
def test_cost_overflow_is_a_domain_error(argv, capsys):
    # A figure overflows a float (iterations / gamma for cost, the size
    # references for study): an error line and exit 1, not a traceback.
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_build_writes_no_file_when_its_report_fails(tmp_path, capsys):
    spanner, report = tmp_path / "sp.txt", tmp_path / "rep.json"
    code = run_cli(
        ["build", "--gen", "path:5", "--algo", "bs", "--k", "2", "--gamma", "1e-310",
         "--spanner-out", str(spanner), "--out", str(report)]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not spanner.exists() and not report.exists()


def test_build_rejects_an_overflowing_auto_bound_before_it_builds(tmp_path, capsys):
    spanner, report = tmp_path / "sp.txt", tmp_path / "rep.json"
    code = run_cli(
        ["build", "--gen", "path:3", "--algo", "merge", "--k", HUGE, "--audit", "auto",
         "--spanner-out", str(spanner), "--out", str(report)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not spanner.exists() and not report.exists()



def test_build_twophase_with_a_k_past_the_largest_float_is_one_error_line(capsys):
    # Without --audit auto no bound check stops it before the build.
    assert run_cli(["build", "--gen", "path:3", "--algo", "twophase", "--k", HUGE]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1

def test_study_single_trial(tmp_path, schema):
    csv_path = tmp_path / "study.csv"
    json_path = tmp_path / "study.json"
    code = run_cli(
        ["study", "--gen", "gnp:60:0.1:unit", "--k", "3", "--t", "1",
         "--trials", "1", "--seed0", "2", "--out", str(csv_path), "--json", str(json_path)]
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 2  # header + one row
    jsonschema.validate(read_json(json_path), schema)


def test_study_k1_sizes_constant(tmp_path):
    json_path = tmp_path / "study.json"
    run_cli(["study", "--gen", "gnp:40:0.2:unit", "--k", "1", "--trials", "3",
             "--seed0", "5", "--json", str(json_path)])
    report = read_json(json_path)
    expected = [gen_gnp(40, 0.2, "unit", 5 + i).m for i in range(3)]
    assert report["sizes"] == expected


def test_study_apsp_mode(tmp_path, schema):
    json_path = tmp_path / "apsp.json"
    code = run_cli(
        ["study", "--gen", "gnp:60:0.15:unit", "--k", "3", "--t", "1", "--apsp",
         "--trials", "2", "--seed0", "1", "--out", str(tmp_path / "a.csv"), "--json", str(json_path)]
    )
    assert code == 0
    report = read_json(json_path)
    jsonschema.validate(report, schema)
    assert report["max_ratio"] >= 1.0


@pytest.mark.parametrize(
    "spec",
    ["mesh:9", "path:51", "gnp:10:2:unit", "gnp:10:nan:unit", "gnp:10:0.5:uniform(5,1)",
     "grid:0:5", "path:0"],
)
@pytest.mark.parametrize(
    "command",
    [["study", "--k", "2", "--trials", "1"], ["build", "--algo", "bs", "--k", "2"]],
    ids=["study", "build"],
)
def test_study_bad_generator_exits_2(command, spec, monkeypatch):
    # path:51 is over the monkeypatched vertex cap; mesh is no generator;
    # the rest are well-formed but outside their generator's domain.
    monkeypatch.setattr(spanforge.graph, "MAX_VERTICES", 50)
    assert run_cli(command + ["--gen", spec]) == 2


def test_study_apsp_refuses_an_oversized_spec_before_generating(monkeypatch, capsys):
    # The guard ran after generation: gnp:12000 drew for 2 s before it exited 1.
    def draw(*args):
        raise RuntimeError("the graph was generated")

    monkeypatch.setattr(spanforge.graph, "gen_gnp", draw)
    assert run_cli(["study", "--apsp", "--gen", "gnp:12000:0.0001:unit", "--k", "3", "--trials", "1"]) == 1
    assert capsys.readouterr().err == "error: exact APSP oracle is guarded at n <= 2000; got n = 12000\n"


def test_study_t_and_apsp_are_general_only():
    assert run_cli(["study", "--gen", "gnp:60:0.2:unit", "--algo", "bs", "--k", "3",
                    "--t", "3", "--trials", "1"]) == 2
    assert run_cli(["study", "--gen", "gnp:60:0.2:unit", "--algo", "merge", "--k", "3",
                    "--apsp", "--trials", "1"]) == 2


def test_study_reports_the_t_each_algorithm_ran_with(tmp_path):
    json_path = tmp_path / "study.json"
    for algo, k, t in (("bs", 3, 3), ("merge", 4, 1), ("twophase", 5, 3)):
        assert run_cli(["study", "--gen", "gnp:40:0.2:unit", "--algo", algo, "--k", str(k),
                        "--trials", "1", "--json", str(json_path)]) == 0
        assert read_json(json_path)["params"] == {"k": k, "t": t}


def test_build_rejects_header_over_vertex_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(spanforge.graph, "MAX_VERTICES", 50)
    graph = tmp_path / "g.txt"
    graph.write_text("# 51 0\n")
    assert run_cli(["build", "--input", str(graph), "--algo", "bs", "--k", "2"]) == 1
    assert run_cli(["study", "--gen", "path:51", "--k", "2", "--trials", "1"]) == 2


def test_commands_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["build", "--gen", "gnp:80:0.1:uniform(1,10)", "--algo", "general",
            "--k", "5", "--t", "2", "--seed", "3"]
    run_cli(args + ["--out", str(out1)])
    run_cli(args + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_build_inline_audit(tmp_path, schema):
    out = tmp_path / "b.json"
    code = run_cli(
        ["build", "--gen", "gnp:80:0.1:unit", "--algo", "general", "--k", "4",
         "--t", "2", "--seed", "6", "--audit", "auto", "--out", str(out)]
    )
    assert code == 0
    report = read_json(out)
    jsonschema.validate(report, schema)
    assert report["audit"]["passed"]
    assert report["audit"]["bound"] == pytest.approx(2 * 4 ** (math.log(5) / math.log(3)))
    with pytest.raises(SystemExit) as exc:
        run_cli(["build", "--gen", "gnp:20:0.2:unit", "--algo", "bs", "--k", "2", "--audit", "huge"])
    assert exc.value.code == 2


def test_spanner_out_roundtrip(tmp_path):
    spanner_file = tmp_path / "spanner.txt"
    run_cli(["build", "--gen", "gnp:50:0.2:unit", "--algo", "merge", "--k", "3",
             "--seed", "4", "--out", str(tmp_path / "b.json"), "--spanner-out", str(spanner_file)])
    report = read_json(tmp_path / "b.json")
    sub = load_edge_list(spanner_file)
    assert sub.m == report["size"]


@pytest.mark.parametrize("gamma", ["0", "nan", "1.5"])
def test_build_rejects_gamma_before_building(tmp_path, capsys, gamma):
    spanner_file = tmp_path / "spanner.txt"
    code = run_cli(["build", "--gen", "path:5", "--algo", "bs", "--k", "2", "--gamma", gamma,
                    "--out", str(tmp_path / "b.json"), "--spanner-out", str(spanner_file)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: gamma must be in (0, 1]")
    assert not spanner_file.exists()
    assert not (tmp_path / "b.json").exists()


OUTPUT_FLAGS = {
    "build --out": ["build", "--gen", "path:5", "--algo", "bs", "--k", "2", "--out"],
    "build --spanner-out": ["build", "--gen", "path:5", "--algo", "bs", "--k", "2", "--spanner-out"],
    "audit --out": ["audit", "--input", "{g}", "--spanner", "{g}", "--bound", "1", "--out"],
    "audit --csv": ["audit", "--input", "{g}", "--spanner", "{g}", "--bound", "1", "--csv"],
    "cost --out": ["cost", "--k", "4", "--t", "1", "--out"],
    "study --out": ["study", "--gen", "path:5", "--k", "2", "--trials", "1", "--out"],
    "study --json": ["study", "--gen", "path:5", "--k", "2", "--trials", "1", "--json"],
}


@pytest.mark.parametrize("case", sorted(OUTPUT_FLAGS))
def test_unwritable_output_is_one_error_line(tmp_path, capsys, case):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("# 3 2\n0 1 1.0\n1 2 1.0\n")
    argv = [arg.format(g=graph_file) for arg in OUTPUT_FLAGS[case]]
    assert run_cli(argv + [str(tmp_path / "missing" / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--input", "{bad}", "--algo", "bs", "--k", "2"],
        ["audit", "--input", "{bad}", "--spanner", "{g}", "--bound", "1"],
        ["audit", "--input", "{g}", "--spanner", "{bad}", "--bound", "1"],
    ],
    ids=["build --input", "audit --input", "audit --spanner"],
)
def test_non_utf8_input_is_one_error_line(tmp_path, capsys, argv):
    (tmp_path / "bad.txt").write_bytes(b"\xff\xfe0 1 1.0\n")
    (tmp_path / "g.txt").write_text("# 2 1\n0 1 1.0\n")
    argv = [arg.format(bad=tmp_path / "bad.txt", g=tmp_path / "g.txt") for arg in argv]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == "error: input is not utf-8 text: invalid start byte\n"


BS_K2 = ["--algo", "bs", "--k", "2"]
USAGE_ERRORS = {
    "build --t": (["build", "--gen", "path:5", *BS_K2, "--t", "2"],
                  "--t is only valid with --algo general\n"),
    "build --t before spec and gamma": (["build", "--gen", "mesh:9", *BS_K2, "--t", "2", "--gamma", "0"],
                                        "--t is only valid with --algo general\n"),
    "build spec": (["build", "--gen", "mesh:9", *BS_K2], "error: bad generator spec 'mesh:9'\n"),
    "build spec before gamma": (["build", "--gen", "gnp:10:2:unit", *BS_K2, "--gamma", "0"],
                                "error: p must be in [0, 1], got 2.0\n"),
    "study --t": (["study", "--gen", "path:5", *BS_K2, "--t", "2", "--trials", "1"],
                  "--t is only valid with --algo general\n"),
    "study --apsp": (["study", "--gen", "path:5", "--algo", "merge", "--k", "2", "--apsp", "--trials", "1"],
                     "--apsp is only valid with --algo general\n"),
    "study spec": (["study", "--gen", "grid:0:5", "--k", "2", "--trials", "1"],
                   "error: width must be >= 1, got 0\n"),
    "study --trials": (["study", "--gen", "path:5", "--k", "2", "--trials", "0"],
                       "error: --trials must be >= 1\n"),
    "audit --auto": (["audit", "--input", "{g}", "--spanner", "{g}", "--auto", "foo:3"],
                     "error: bad --auto spec 'foo:3' (use bs:K, merge:K, twophase:K or general:K,T)\n"),
    "audit vertex count": (["audit", "--input", "{g}", "--spanner", "{n5}", "--bound", "3"],
                           "error: spanner has 5 vertices, input has 4\n"),
    "audit missing edge": (["audit", "--input", "{g}", "--spanner", "{pair}", "--bound", "3"],
                           "error: spanner edge (1,2,1.0) not present in input graph\n"),
    "audit weight differs": (["audit", "--input", "{g}", "--spanner", "{weight}", "--bound", "3"],
                             "error: spanner edge (2,3,2.0) not present in input graph\n"),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_errors_exit_2_with_their_messages(tmp_path, capsys, case):
    files = {"g": "# 4 2\n0 1 1.0\n2 3 1.0\n", "n5": "# 5 1\n2 3 1.0\n",
             "pair": "# 4 1\n1 2 1.0\n", "weight": "# 4 1\n2 3 2.0\n"}
    for name, text in files.items():
        (tmp_path / f"{name}.txt").write_text(text)
    argv, message = USAGE_ERRORS[case]
    argv = [arg.format(**{name: tmp_path / f"{name}.txt" for name in files}) for arg in argv]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == message


def test_module_entry_point_runs_without_warnings(tmp_path):
    # The package does not import spanforge.cli, so runpy finds it unloaded.
    src = str(Path(spanforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "spanforge.cli", "cost", "--k", "4", "--t", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["type"] == "cost"
