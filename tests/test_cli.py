import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from rcl.cli import build_parser, main, parse_id_set
from rcl.graph import make_k_circulant
from rcl.robustness import max_r_robustness
from rcl.scenarios import PreconditionResult, Scenario, sim2
from rcl.simulation import config_from_dict, run, write_edges_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_id_set():
    assert parse_id_set("1,4,5") == [1, 4, 5]
    assert parse_id_set("22-28") == list(range(22, 29))
    assert parse_id_set("1,4-6,9") == [1, 4, 5, 6, 9]
    with pytest.raises(ValueError):
        parse_id_set("")
    with pytest.raises(ValueError):
        parse_id_set("5-3")


def test_id_sets_take_ids_only_as_str_writes_them():
    for text in ("1_0", "\u0663", "+1", "01", "1-0_3", "1 - 3", "1,2_0"):
        with pytest.raises(ValueError, match="^agent id must be an integer, got '"):
            parse_id_set(text)
    assert parse_id_set(" 1 , 4-6 ,-2") == [-2, 1, 4, 5, 6]


def test_integer_options_take_digits_only_as_str_writes_them(capsys):
    def exit_code(*argv):
        try:
            return run_cli(capsys, *argv)[::2]
        except SystemExit as exc:  # argparse refuses an option's value
            return exc.code, capsys.readouterr().err

    for argv, message in ((("--circulant", "1_0", "3"), "invalid integer value: '1_0'"),
                          (("--circulant", "10", "+3"), "invalid integer value: '+3'"),
                          (("--undirected-circulant", "1_0", "1,2"), "N must be an integer, got '1_0'"),
                          (("--undirected-circulant", "\u0661\u0660", "1"), "N must be an integer, got '"),
                          (("--circulant", "10", "3", "--r-robust", "02"), "invalid integer value: '02'")):
        code, err = exit_code("check", *argv, *(() if "--r-robust" in argv else ("--max-r",)))
        assert code == 2 and message in err, (argv, err)
    code, err = exit_code("scenario", "sim2", "--seed", "2_0", "--out", "unused")
    assert code == 2 and "invalid integer value: '2_0'" in err
    code, err = exit_code("check", "--circulant", "14", "3", "--r-robust", "1", "--cap", "1_4")
    assert code == 2 and "invalid integer value: '1_4'" in err
    assert exit_code("check", "--circulant", "10", "3", "--max-r")[0] == 0
    assert exit_code("check", "--undirected-circulant", "10", "1,2", "--max-r")[0] == 0


def test_check_tlf_true_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "check", "--circulant", "10", "7", "--tlf", "2", "--set", "1,4,5")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] is True
    assert report["property"] == "tlf_robust"
    assert "elapsed_ms" in report


def test_check_r_robust_false_exit_one(capsys):
    code, out, _ = run_cli(capsys, "check", "--circulant", "6", "1", "--r-robust", "2")
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] is False
    assert report["witness"]["s1"] and report["witness"]["s2"]


@pytest.mark.parametrize("circulant, rs, verdict", [
    (("10", "7"), ("3", "2"), True),
    (("6", "1"), ("1", "6"), False),
])
def test_check_rs_robust(capsys, circulant, rs, verdict):
    code, out, _ = run_cli(capsys, "check", "--circulant", *circulant, "--rs-robust", *rs)
    report = json.loads(out)
    assert code == (0 if verdict else 1)
    assert report["property"] == "rs_robust" and report["verdict"] is verdict
    assert report["params"] == {"r": int(rs[0]), "s": int(rs[1])}
    if verdict:
        assert report["witness"] is None
    else:
        witness = report["witness"]
        assert witness["s1"] and witness["s2"]
        assert len(witness["reachable_counts"]) == 2


@pytest.mark.parametrize("argv", [
    ["run", "{missing}", "--out", "{out}"],
    ["check", "--graph", "{missing}", "--max-r"],
])
def test_missing_input_file_exits_2_with_one_error_line(capsys, tmp_path, argv):
    paths = {"missing": tmp_path / "nope.json", "out": tmp_path / "x"}
    code, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "nope.json" in err


@pytest.mark.parametrize("argv, message", [
    (("check", "--circulant", "8", "3", "--strong", "1"), "--strong requires --set"),
    (("check", "--circulant", "8", "3", "--tlf", "1"), "--tlf requires --set"),
    (("check", "--undirected-circulant", "8", "1", "--certificate", "strong", "--set", "1-3", "--f", "1"),
     "--certificate needs --circulant N K (window conditions use n and k)"),
    (("check", "--circulant", "8", "3", "--certificate", "tlf", "--f", "1"), "--certificate requires --set and --f"),
    (("check", "--circulant", "8", "3", "--certificate", "tlf", "--set", "1-3"),
     "--certificate requires --set and --f"),
    (("scenario",), "scenario name required (or use --list)"),
    (("check", "--circulant", "10", "7", "--strong", "3", "--set", "1", "--cap", "1"),
     "--cap is not read by --strong with --method peeling"),
    (("check", "--circulant", "10", "7", "--tlf", "2", "--set", "1,4,5", "--force"),
     "--force is not read by --tlf with --method peeling"),
    (("check", "--circulant", "10", "7", "--tlf", "2", "--set", "1,4,5", "--method", "bruteforce", "--f", "1"),
     "--f is not read by --tlf with --method bruteforce"),
    (("check", "--circulant", "10", "7", "--certificate", "tlf", "--set", "1,2", "--f", "1", "--cap", "1", "--force"),
     "--cap is not read by --certificate"),
    (("check", "--circulant", "10", "7", "--certificate", "tlf", "--set", "1,2", "--f", "1", "--method", "peeling"),
     "--method is not read by --certificate"),
    (("check", "--circulant", "10", "7", "--r-robust", "3", "--set", "1", "--f", "2", "--method", "bruteforce"),
     "--set is not read by --r-robust"),
    (("check", "--circulant", "10", "7", "--rs-robust", "2", "1", "--f", "2"), "--f is not read by --rs-robust"),
    (("check", "--circulant", "10", "7", "--max-r", "--method", "bruteforce"), "--method is not read by --max-r"),
    (("scenario", "sim2", "--list"), "--list takes no scenario name"),
    (("scenario", "--list", "--f", "1"), "--list takes no --f"),
    (("scenario", "--list", "--seed", "3"), "--list takes no --seed"),
    (("scenario", "--list", "--horizon", "3"), "--list takes no --horizon"),
    (("scenario", "--list", "--out", "unused"), "--list takes no --out"),
    (("check", "--graph", "missing.txt", "--certificate", "strong", "--set", "1-3", "--f", "1"),
     "--certificate needs --circulant N K (window conditions use n and k)"),
])
def test_missing_companion_options_exit_2_with_one_error_line(capsys, argv, message):
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2 and stdout == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("route", [
    ("--r-robust", "1"), ("--r-robust", "0"), ("--rs-robust", "1", "2"), ("--max-r",),
    ("--strong", "0", "--set", "1", "--method", "bruteforce"),
    ("--tlf", "0", "--set", "1", "--method", "bruteforce"),
])
def test_negative_cap_exits_2_by_the_integer_rule(capsys, route):
    code, stdout, err = run_cli(capsys, "check", "--circulant", "8", "3", *route, "--cap", "-1")
    assert code == 2 and stdout == ""
    assert err == "error: cap must be >= 0, got -1\n"


# each route of ``rcl check`` (its argv after the graph) -> the companion options it reads
CHECK_ROUTES = {
    ("--r-robust", "1"): {"--cap", "--force"},
    ("--rs-robust", "1", "1"): {"--cap", "--force"},
    ("--max-r",): {"--cap", "--force"},
    ("--strong", "3", "--set", "1-7"): {"--set", "--method"},
    ("--strong", "3", "--set", "1-7", "--method", "bruteforce"): {"--set", "--method", "--cap", "--force"},
    ("--tlf", "2", "--set", "1,4,5"): {"--set", "--method"},
    ("--tlf", "2", "--set", "1,4,5", "--method", "bruteforce"): {"--set", "--method", "--cap", "--force"},
    ("--certificate", "strong", "--set", "1-7", "--f", "1"): {"--set", "--f"},
}
COMPANION_VALUES = {"--set": ("1,4,5",), "--f": ("1",), "--method": ("peeling",), "--cap": ("100",), "--force": ()}


def test_every_check_option_is_read_by_its_property_or_exits_2(capsys):
    # the flags and options come from the parser, so a new one must be listed above to pass
    check = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices["check"]
    grouped = {a: group for group in check._mutually_exclusive_groups for a in group._group_actions}
    props = next(group for a, group in grouped.items() if a.dest == "max_r")
    assert {a.option_strings[0] for a in props._group_actions} == {route[0] for route in CHECK_ROUTES}
    companions = {a.option_strings[0] for a in check._actions
                  if a.option_strings and a.dest != "help" and a not in grouped}
    assert companions == set(COMPANION_VALUES)
    for route, reads in CHECK_ROUTES.items():
        for option in sorted(companions - set(route)):
            argv = ("check", "--circulant", "10", "7", *route, option, *COMPANION_VALUES[option])
            code, out, err = run_cli(capsys, *argv)
            if option in reads:
                assert code in (0, 1) and err == "" and json.loads(out)["elapsed_ms"] >= 0, argv
            else:
                assert code == 2 and out == "", argv
                assert err.startswith(f"error: {option} is not read by {route[0]}") and err.count("\n") == 1, err


def test_check_certificate_strong(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--circulant", "30", "15",
        "--certificate", "strong", "--set", "22-28", "--f", "3",
    )
    assert code == 0
    assert json.loads(out)["witness"]["window"] == list(range(22, 29))


def test_check_bruteforce_method(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--circulant", "10", "7", "--strong", "7",
        "--set", "1-7", "--method", "bruteforce",
    )
    assert code == 0
    assert json.loads(out)["method"] == "bruteforce"


def test_check_max_r(capsys):
    code, out, _ = run_cli(capsys, "check", "--circulant", "6", "3", "--max-r")
    assert code == 0
    assert json.loads(out)["value"] >= 2


def test_check_cap_exceeded_without_force(capsys):
    code, _, err = run_cli(capsys, "check", "--circulant", "14", "3", "--r-robust", "2")
    assert code == 2
    assert "cap" in err


def test_check_cap_override(capsys):
    code, _, err = run_cli(capsys, "check", "--circulant", "6", "1", "--r-robust", "2", "--cap", "5")
    assert code == 2 and "n=6 exceeds pairwise enumeration cap 5" in err
    code, out, _ = run_cli(capsys, "check", "--circulant", "14", "3", "--r-robust", "1", "--cap", "14")
    assert code in (0, 1)


def test_check_trivial_rs_query_is_answered_past_the_cap(capsys):
    code, out, _ = run_cli(capsys, "check", "--circulant", "14", "3", "--rs-robust", "0", "1")
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_check_malformed_set(capsys):
    code, _, err = run_cli(capsys, "check", "--circulant", "10", "7", "--tlf", "2", "--set", "x,y")
    assert code == 2


def test_gen_graph_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "c52.txt"
    code, _, err = run_cli(capsys, "gen-graph", "--circulant", "5", "2", "-o", str(out_file))
    assert code == 0
    assert out_file.exists()
    code, out, _ = run_cli(capsys, "check", "--graph", str(out_file), "--r-robust", "1")
    assert code == 0


def test_check_graph_json_with_boolean_id_exit_2(capsys, tmp_path):
    graph_file = tmp_path / "g.json"
    graph_file.write_text(json.dumps({"n": 3, "edges": [[True, 2], [2, 3], [3, 1]]}))
    code, _, err = run_cli(capsys, "check", "--graph", str(graph_file), "--r-robust", "1")
    assert code == 2
    assert "integer" in err


def test_check_graph_json_with_unknown_key_exit_2(capsys, tmp_path):
    graph_file = tmp_path / "g.json"
    graph_file.write_text(json.dumps({"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]], "egdes": [[1, 3]]}))
    code, out, err = run_cli(capsys, "check", "--graph", str(graph_file), "--max-r")
    assert code == 2 and out == ""
    assert err == f"error: {graph_file}#/egdes: unexpected key\n"


@pytest.mark.parametrize("name, data", [("g.json", b'{"n": 3, "edges": [[1, 2], '), ("g.txt", b"n 3\n1 2\xff\n")])
def test_check_graph_file_that_does_not_decode_names_the_file(capsys, tmp_path, name, data):
    graph_file = tmp_path / name
    graph_file.write_bytes(data)
    code, out, err = run_cli(capsys, "check", "--graph", str(graph_file), "--max-r")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {graph_file}: ") and err.count("\n") == 1, err


def test_gen_graph_json_format(capsys, tmp_path):
    out_file = tmp_path / "g.json"  # the name alone picks graph JSON
    code, _, err = run_cli(capsys, "gen-graph", "--undirected-circulant", "6", "1,2", "-o", str(out_file))
    assert code == 0 and err == f"wrote graph with n=6, 24 edges to {out_file}\n"
    data = json.loads(out_file.read_text())
    assert data["n"] == 6 and len(data["edges"]) == 24


@pytest.mark.parametrize("name", ["g.json", "g.txt", "g"])
def test_every_graph_file_gen_graph_writes_reads_back(capsys, tmp_path, name):
    out_file = tmp_path / name
    assert run_cli(capsys, "gen-graph", "--circulant", "6", "2", "-o", str(out_file))[0] == 0
    code, out, err = run_cli(capsys, "check", "--graph", str(out_file), "--max-r")
    assert (code, err) == (0, "") and json.loads(out)["value"] == max_r_robustness(make_k_circulant(6, 2))


def test_gen_graph_has_no_format_option(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:  # the output name's suffix picks the format
        run_cli(capsys, "gen-graph", "--circulant", "6", "2", "-o", str(tmp_path / "g.txt"), "--format=json")
    assert exc.value.code == 2 and not (tmp_path / "g.txt").exists()


SAMPLE_CONFIG = {
    "graph": {"circulant": [8, 3]},
    "f": 1,
    "horizon": 60,
    "seed": 5,
    "roles": {"1": "leader", "2": "leader", "5": {"adversary": {"type": "constant", "value": 9.0}}},
    "reference": {"constant": 5.0},
    "init": {"range": [-10, 10]},
}


def _bundle_digest(out_dir):
    digest = {}
    for name in sorted(p.name for p in out_dir.iterdir()):
        digest[name] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
    return digest


def test_run_bundle_and_determinism(capsys, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(SAMPLE_CONFIG))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    code1, stdout1, _ = run_cli(capsys, "run", str(config_path), "--out", str(out1))
    code2, stdout2, _ = run_cli(capsys, "run", str(config_path), "--out", str(out2))
    assert code1 == code2 == 0
    assert stdout1 == stdout2
    assert _bundle_digest(out1) == _bundle_digest(out2)
    assert (out1 / "trajectory.csv").exists()
    assert (out1 / "metrics.json").exists()
    assert (out1 / "plot.svg").exists()
    assert (out1 / "report.json").exists()
    metrics = json.loads((out1 / "metrics.json").read_text())
    assert metrics["converged"] is True
    for argv in (("run", str(config_path)), ("scenario", "sim2")):
        with pytest.raises(SystemExit):  # the engine runs serially and has no --jobs
            run_cli(capsys, *argv, "--out", str(tmp_path / "x"), "--jobs", "2")


def test_run_bundle_with_byzantine_edges(capsys, tmp_path):
    # a per-edge adversary adds edges.csv to the bundle, written as write_edges_csv writes it
    edges = {str(j): {"type": "constant", "value": float(j)}
             for j in make_k_circulant(8, 3).out_neighbors(5)}
    config = {**SAMPLE_CONFIG, **_adversary({"type": "byzantine", "edges": edges})}
    config_path = tmp_path / "byzantine.json"
    config_path.write_text(json.dumps(config))
    code, _, _ = run_cli(capsys, "run", str(config_path), "--out", str(tmp_path / "o"))
    assert code in (0, 1)
    traj = run(config_from_dict(config))
    assert traj.edge_values
    write_edges_csv(traj, tmp_path / "expected.csv")
    assert (tmp_path / "o" / "edges.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_run_report_config_reads_back_alpha_and_weight_table(capsys, tmp_path):
    g = make_k_circulant(6, 2)
    table = {str(i): {str(j): 0.5 if j == i else 0.25 for j in g.inclusive_neighbors(i)}
             for i in g.vertices}
    config = {"graph": {"circulant": [6, 2]}, "f": 0, "horizon": 10, "alpha": 0.2, "weight_table": table}
    config_path = tmp_path / "weights.json"
    config_path.write_text(json.dumps(config))
    code, _, _ = run_cli(capsys, "run", str(config_path), "--out", str(tmp_path / "o"))
    assert code in (0, 1)
    written = json.loads((tmp_path / "o" / "report.json").read_text())["config"]
    assert written["alpha"] == 0.2 and written["weight_table"] == table
    scheme = config_from_dict(written).scheme
    assert scheme == config_from_dict(config).scheme
    assert scheme.table == {(int(i), int(j)): w for i, row in table.items() for j, w in row.items()}


def test_run_svg_title_from_a_file_stem_is_escaped(capsys, tmp_path):
    config_path = tmp_path / "a&b <c>.json"
    config_path.write_text(json.dumps(SAMPLE_CONFIG))
    code, _, _ = run_cli(capsys, "run", str(config_path), "--out", str(tmp_path / "o"))
    assert code == 0
    svg = ET.parse(tmp_path / "o" / "plot.svg").getroot()
    titles = [t.text for t in svg.iter("{http://www.w3.org/2000/svg}text")]
    assert "a&b <c>" in titles


@pytest.mark.parametrize("init", [
    [1e308 if i % 2 else -1e308 for i in range(1, 7)],  # a span past the largest float
    [1e20] * 6,  # a flat range where a pad of 1.0 is below one float step
])
def test_run_svg_fits_extreme_finite_ranges(capsys, tmp_path, init):
    # the plot is the last file of the bundle, so a failed fit leaves half a bundle
    config = {"graph": {"circulant": [6, 5]}, "f": 0, "horizon": 5,
              "init": {"values": {str(i): v for i, v in enumerate(init, 1)}}}
    config_path = tmp_path / "extreme.json"
    config_path.write_text(json.dumps(config))
    code, _, _ = run_cli(capsys, "run", str(config_path), "--out", str(tmp_path / "o"))
    assert code == 0
    svg = ET.parse(tmp_path / "o" / "plot.svg").getroot()
    ns = "{http://www.w3.org/2000/svg}"
    numbers = [float(c) for p in svg.iter(ns + "polyline") for xy in p.get("points").split()
               for c in xy.split(",")]
    numbers += [float(line.get("y1")) for line in svg.iter(ns + "line")]
    labels = [float(t.text) for t in svg.iter(ns + "text") if t.get("text-anchor") == "end"]
    assert len(numbers) > 6 * 6 and len(labels) >= 2
    assert all(math.isfinite(v) for v in numbers + labels)
    assert min(labels) <= max(init) and max(labels) >= min(init)


def _rfc8259(text: str):
    """``text`` parsed as RFC 8259 JSON, which has no NaN or Infinity tokens."""
    def reject(token):
        raise ValueError(f"not RFC 8259 JSON: {token}")
    return json.loads(text, parse_constant=reject)


def test_run_writes_non_finite_values_as_rfc8259_json(capsys, tmp_path):
    # F = 0 keeps the adversary's +inf, so every normal agent goes to +inf:
    # the tracking error is +inf, and the disagreement inf - inf is NaN
    config = {"graph": {"circulant": [6, 5]}, "f": 0, "horizon": 3, "strict_f_local": False,
              "roles": {"1": {"adversary": {"type": "constant", "value": math.inf}}, "2": "leader"},
              "reference": {"constant": 0.0}, "init": {"values": {str(i): -1e308 for i in range(1, 7)}}}
    config_path = tmp_path / "inf.json"
    config_path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "run", str(config_path), "--out", str(tmp_path / "o"))
    assert code == 1
    metrics = _rfc8259(out)
    assert metrics["final_error"] == "Infinity" and metrics["final_disagreement"] == "NaN"
    assert metrics["envelope"]["intervals"][0]["end_error"] == "Infinity"
    assert _rfc8259((tmp_path / "o" / "metrics.json").read_text()) == metrics
    report = _rfc8259((tmp_path / "o" / "report.json").read_text())
    assert report["config"]["roles"]["1"]["adversary"]["value"] == "Infinity"
    assert config_from_dict(report["config"]) == config_from_dict(config)


def test_run_seed_override_changes_output(capsys, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(SAMPLE_CONFIG))
    _, first, _ = run_cli(capsys, "run", str(config_path), "--out", str(tmp_path / "a"))
    _, second, _ = run_cli(capsys, "run", str(config_path), "--seed", "99", "--out", str(tmp_path / "b"))
    assert first != second


def test_run_schema_error_pointer_path(capsys, tmp_path):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({**SAMPLE_CONFIG, "roles": {"2": "emperor"}}))
    code, _, err = run_cli(capsys, "run", str(config_path), "--out", str(tmp_path / "x"))
    assert code == 2
    assert "/roles/2" in err


def _adversary(strategy):
    return {"roles": {**SAMPLE_CONFIG["roles"], "5": {"adversary": strategy}}}


# a full weight table for SAMPLE_CONFIG's C_8(1..3): agent i hears itself and i-1, i-2, i-3 (mod 8)
_TABLE = {str(i): {str((i - 1 - a) % 8 + 1): 0.25 for a in range(4)} for i in range(1, 9)}


@pytest.mark.parametrize("patch, path", [
    ({"roles": [1, 2]}, "/roles"),
    ({"init": {"range": [[1], 2]}}, "/init/range"),
    ({"init": {"range": [1]}}, "/init/range"),
    ({"weight_table": [1]}, "/weight_table"),
    ({"weight_table": {"1": {"1": [1]}}}, "/weight_table/1/1"),
    (_adversary({"type": "sinusoid", "amplitude": "x", "period": 4}), "/roles/5/adversary/amplitude"),
    (_adversary({"type": "ramp", "slope": None}), "/roles/5/adversary/slope"),
    ({"graph": {"circulant": [8, 3], "edges": 5}}, "/graph/edges"),
    ({"graph": {"circulant": [8, 3], "undirected_circulant": [8, [1]]}}, "/graph/undirected_circulant"),
    ({"graph": {"n": 8, "edges": [[1, 2]], "k": 3}}, "/graph/k"),
    ({"graph": {"n": 8, "edges": [[True, 2]]}}, "/graph/edges"),
    ({"graph": {"edges": [[1, 2]]}}, "/graph/n"),
    ({"graph": {"circulant": ["8", "3"]}}, "/graph/circulant"),
    ({"graph": {"circulant": [8, True]}}, "/graph/circulant"),
    ({"graph": {"undirected_circulant": [8, 2]}}, "/graph/undirected_circulant"),
    ({"init": {"range": ["-1", "2.5"]}}, "/init/range"),
    ({"init": {"range": [False, 2]}}, "/init/range"),
    ({"init": {"values": {**{str(i): 0 for i in range(1, 9)}, "4": "1"}}}, "/init/values/4"),
    ({"weight_table": {"1": {"1": "0.5"}}}, "/weight_table/1/1"),
    ({"weight_table": {"1": {"1": True}}}, "/weight_table/1/1"),
    ({"reference": {"constant": "5"}}, "/reference/constant"),
    ({"reference": {"breakpoints": [[0, 1.0], ["4", 2.0]]}}, "/reference/breakpoints"),
    ({"reference": {"breakpoints": [[0, True]]}}, "/reference/breakpoints"),
    ({"alpha": True}, "/alpha"),
    ({"init": {"range": [0, 10**400]}}, "/init/range"),
    ({"init": {"values": {**{str(i): 0 for i in range(1, 9)}, "4": -10**400}}}, "/init/values/4"),
    ({"alpha": 10**400}, "/alpha"),
    ({"weight_table": {"1": {"1": 10**400}}}, "/weight_table/1/1"),
    ({"reference": {"constant": 10**400}}, "/reference/constant"),
    (_adversary({"type": "sinusoid", "amplitude": 10**400, "period": 4}), "/roles/5/adversary/amplitude"),
    ({"horizon": 10**400}, "/horizon"),
    ({"horizon": 2**61}, "/horizon"),
    # every config object holds exactly one known form and no other key
    ({"init": {"range": [0, 1], "values": {str(i): 0 for i in range(1, 9)}}}, "/init/values"),
    ({"reference": {"constant": 1, "breakpoints": [[0, 5]]}}, "/reference/breakpoints"),
    ({"init": {"range": [0, 1], "spread": 3}}, "/init/spread"),
    ({"reference": {"constant": 1, "period": 3}}, "/reference/period"),
    ({"roles": {"5": {"adversary": {"type": "constant", "value": 9.0}, "target": 3}}}, "/roles/5/target"),
    ({"roles": False}, "/roles"),
    ({"roles": []}, "/roles"),
    ({"roles": 0}, "/roles"),
    ({"roles": ""}, "/roles"),
    # an init range whose width overflows a float would start every agent at +inf
    ({"init": {"range": [-1e308, 1e308]}}, "/init/range"),
    # weight-table entries for an agent outside 1..n, or for a pair that is not an edge
    ({"weight_table": {**_TABLE, "99": {"1": 0.25}}}, "/weight_table/99/1"),
    ({"weight_table": {**_TABLE, "4": {**_TABLE["4"], "9": 0.25}}}, "/weight_table/4/9"),
    ({"weight_table": {**_TABLE, "4": {**_TABLE["4"], "5": 0.25}}}, "/weight_table/4/5"),
    # structure the reader refuses
    (_adversary(5), "/roles/5/adversary"),
    (_adversary({"type": "ramp", "slop": 1}), "/roles/5/adversary"),
    (_adversary({"type": "byzantine", "signals": {}}), "/roles/5/adversary/edges"),
    ({"init": {"values": [0] * 8}}, "/init/values"),
    ({"weight_table": {**_TABLE, "1": 0.25}}, "/weight_table/1"),
    # an edge list is checked entry by entry
    ({"graph": {"n": 8, "edges": [[1, 2], [3, 3]]}}, "/graph/edges/1"),
])
def test_run_hostile_config_shapes_exit_2_with_path(capsys, tmp_path, patch, path):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({**SAMPLE_CONFIG, **patch}))
    code, _, err = run_cli(capsys, "run", str(config_path), "--out", str(tmp_path / "x"))
    assert code == 2
    assert err.startswith(f"error: {path}: "), err


@pytest.mark.parametrize("strategy", [{"type": "sinusoid", "amplitude": 1, "period": 4, "phase": "Infinity"},
                                      {"type": "sinusoid", "amplitude": 1, "period": 5e-324}])
def test_run_sinusoid_of_an_infinite_angle_sends_nan(capsys, tmp_path, strategy):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**SAMPLE_CONFIG, **_adversary(strategy)}))
    code, stdout, err = run_cli(capsys, "run", str(config_path), "--out", str(tmp_path / "x"))
    assert code == 0, err
    assert json.loads(stdout)["converged"] is True
    sent = [line.split(",")[3] for line in (tmp_path / "x" / "trajectory.csv").read_text().splitlines()
            if line.split(",")[1:3] == ["5", "adversary"]]
    assert sent[1:] == ["nan"] * 60  # the angle at round 0 is finite for the tiny period


@pytest.mark.parametrize("tol", ["inf", "nan", "0"])
def test_run_tol_not_finite_and_positive_exits_2_without_a_bundle(capsys, tmp_path, monkeypatch, tol):
    def engine(config):
        raise AssertionError("the engine ran before --tol was checked")

    monkeypatch.setattr("rcl.cli.run_simulation", engine)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(SAMPLE_CONFIG))
    code, stdout, err = run_cli(capsys, "run", str(config_path), "--tol", tol, "--out", str(tmp_path / "x"))
    assert code == 2 and stdout == ""
    assert err.startswith("error: tolerance must be finite and positive"), err
    assert not (tmp_path / "x").exists()


def test_run_tol_takes_numbers_only_as_float_writes_them(capsys, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(SAMPLE_CONFIG))
    for tol in ("1_0e-3", " 1e-3 ", "1e-3\n", "\u0661e-3", "1e-3x"):
        with pytest.raises(SystemExit) as exc:  # argparse refuses the value
            main(["run", str(config_path), "--tol", tol, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert f"invalid number value: {tol!r}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
    code, stdout, _ = run_cli(capsys, "run", str(config_path), "--tol", "1e-3", "--out", str(tmp_path / "x"))
    assert code in (0, 1) and json.loads(stdout)["tol"] == 1e-3


def test_run_huge_f_exits_normally(capsys, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"graph": {"circulant": [6, 2]}, "f": 10**400, "horizon": 5,
                                       "init": {"range": [3, 3]}}))
    code, stdout, err = run_cli(capsys, "run", str(config_path), "--out", str(tmp_path / "x"))
    assert code == 0, err
    assert json.loads(stdout)["converged"] is True


def test_run_out_of_memory_exits_2(capsys, tmp_path, monkeypatch):
    def no_memory(config):
        raise MemoryError("Unable to allocate 58.2 TiB for an array")

    monkeypatch.setattr("rcl.cli.run_simulation", no_memory)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(SAMPLE_CONFIG))
    code, _, err = run_cli(capsys, "run", str(config_path), "--out", str(tmp_path / "x"))
    assert code == 2
    assert err.startswith("error: Unable to allocate"), err


def test_run_invalid_json(capsys, tmp_path):
    config_path = tmp_path / "bad.json"
    config_path.write_text("{nope")
    code, _, err = run_cli(capsys, "run", str(config_path), "--out", str(tmp_path / "x"))
    assert code == 2


def test_run_config_that_is_not_utf8_names_the_file(capsys, tmp_path):
    config_path = tmp_path / "bad.json"
    config_path.write_bytes(b'{"graph": \xff}')
    code, _, err = run_cli(capsys, "run", str(config_path), "--out", str(tmp_path / "x"))
    assert code == 2
    assert err.startswith(f"error: {config_path}: not valid JSON: 'utf-8' codec"), err


def test_scenario_list(capsys):
    code, out, _ = run_cli(capsys, "scenario", "--list")
    assert code == 0
    names = json.loads(out)
    assert "sim2" in names and "counterexample-2f1" in names


def test_scenario_counterexample_exit_code(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "scenario", "counterexample-2f1", "--f", "1", "--out", str(tmp_path / "ce"),
    )
    assert code == 1  # does not converge, by design
    report = json.loads(out)
    assert report["outcome_ok"] is True
    assert report["metrics"]["converged"] is False
    assert all(p["ok"] for p in report["preconditions"])


def test_scenario_counterexample_at_max_f_exits_1_with_every_precondition_ok(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "scenario", "counterexample-rs", "--f", "64", "--out", str(tmp_path / "ce"),
    )
    assert code == 1  # exit codes follow metrics.converged, and the residual stays at 10
    report = json.loads(out)
    assert report["outcome_ok"] is True
    assert all(p["ok"] for p in report["preconditions"])
    assert report["preconditions"][0]["detail"]["method"] == "certificate"


def test_scenario_precondition_failure_exits_3(capsys, tmp_path, monkeypatch):
    base = sim2()
    doomed = Scenario(name="doomed", description="precondition always fails", expected=base.expected,
                      base=base.base, preconditions=(PreconditionResult("always_false", False, "nope"),))
    monkeypatch.setattr("rcl.cli.build_scenario", lambda name, f=None: doomed)
    code, out, err = run_cli(capsys, "scenario", "sim2", "--out", str(tmp_path / "x"))
    assert code == 3 and out == ""
    assert err.startswith("precondition failure: "), err
    assert "always_false" in err
    assert not (tmp_path / "x").exists()


def test_scenario_f_out_of_range_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "scenario", "leader-deficit", "--f", "-1",
                           "--out", str(tmp_path / "x"))
    assert code == 2
    assert err.startswith("error: F must be in [0, 64]"), err


def test_scenario_huge_f_exits_2_at_once(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["scenario", "leader-deficit", "--f", str(10**23), "--out", str(tmp_path / "x")]
    done = subprocess.run([sys.executable, "-m", "rcl.cli", *argv], capture_output=True, text=True,
                          timeout=20, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 2
    assert done.stderr.startswith("error: F must be in [0, 64]"), done.stderr


def test_scenario_sim2_bundle(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "scenario", "sim2", "--horizon", "300", "--out", str(tmp_path / "s2"),
    )
    assert code == 0
    report = json.loads(out)
    assert report["outcome_ok"] is True
    svg = (tmp_path / "s2" / "plot.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_scenario_byte_identical_bundles(capsys, tmp_path):
    run_cli(capsys, "scenario", "sim3", "--out", str(tmp_path / "a"))
    run_cli(capsys, "scenario", "sim3", "--out", str(tmp_path / "b"))
    assert _bundle_digest(tmp_path / "a") == _bundle_digest(tmp_path / "b")


def test_sweep_grid(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--n", "10", "--k", "5-7", "--f", "1",
        "--window-sizes", "3-5", "--horizon", "80",
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["n", "k", "f", "window_start", "window_size"]
    assert len(lines) == 1 + 9
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    for row in rows:
        # certificate soundness: certificate true implies peeling true
        if row["cert_strong"] == "True":
            assert row["peel_strong"] == "True"
        if row["cert_tlf"] == "True":
            assert row["peel_tlf"] == "True"


def test_sweep_window_of_size_2f_never_strong(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--n", "10", "--k", "5,6", "--f", "2",
        "--window-sizes", "4", "--horizon", "30",
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert rows
    for ln in rows:
        row = ln.split(",")
        assert row[5] == "False" and row[7] == "False"  # cert_strong, peel_strong


def test_sweep_empty_grid_header_only(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--n", "", "--k", "3", "--f", "1", "--window-sizes", "2",
    )
    assert code == 0
    assert out.strip() == ",".join([
        "n", "k", "f", "window_start", "window_size",
        "cert_strong", "cert_tlf", "peel_strong", "peel_tlf",
        "converged", "convergence_round", "final_error",
    ])


def test_sweep_logs_skipped_cells_and_writes_the_csv_to_a_file(capsys, tmp_path):
    args = ["sweep", "--n", "6", "--k", "2,6", "--f", "0", "--window-sizes", "2", "--horizon", "5"]
    code, table, _ = run_cli(capsys, *args)
    assert code == 0
    path = tmp_path / "grid.csv"
    code, stdout, err = run_cli(capsys, *args, "-o", str(path))
    assert code == 0 and stdout == ""
    # C_6(1..6) is no circulant: k must be below n
    assert err == f"skipping 1 structurally invalid grid cells\nwrote 1 rows to {path}\n"
    assert path.read_text() == table and len(table.splitlines()) == 2


def test_sweep_cell_cap(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--n", "10", "--k", "1-9", "--f", "1-3",
        "--window-sizes", "1-10", "--window-starts", "1-10", "--horizon", "10",
    )
    assert code == 2
    assert "cells" in err


def test_sweep_force_runs_a_grid_above_the_cell_cap(capsys):
    args = ["sweep", "--n", "10", "--k", "1-9", "--f", "1-3", "--window-sizes", "1-10",
            "--window-starts", "1,2", "--horizon", "1"]
    code, out, err = run_cli(capsys, *args)
    assert code == 2 and out == ""
    assert err == "error: grid has 540 cells, above the cap 512; use --force\n"
    code, out, err = run_cli(capsys, *args, "--force")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 1 + 540


def test_sweep_deterministic(capsys):
    args = ["sweep", "--n", "8,10", "--k", "4", "--f", "1", "--window-sizes", "3",
            "--horizon", "50"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    with pytest.raises(SystemExit):  # the sweep runs serially and has no --jobs
        run_cli(capsys, *args, "--jobs", "2")
