"""The scripts in ``tools/`` measure the rcl that ``PYTHONPATH`` names."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers import TOOLS, digests, tool

MARKER = "stub rcl imported"
# the two totals of tools/digests.py: the bundle lines', then the decider reports'
BUNDLE_TOTAL = "f40572b92f24ac4f7ff8f5f0c32ae945b2f94e1d200f5fa1e8bbaa0400b61acf"
REPORT_TOTAL = "644aa942a98e9833332ba0eabf2623c392f663e456409ca0dd58d09ae1963c9c"


def _run_tool(script: str, pythonpath: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(pythonpath))
    return subprocess.run([sys.executable, str(TOOLS / script), *args], cwd=pythonpath.parent, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture
def stub_src(tmp_path) -> Path:
    """The ``src/`` of a checkout whose rcl exits with ``MARKER`` on import."""
    package = tmp_path / "stub" / "src" / "rcl"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(f"raise SystemExit({MARKER!r})\n")
    return package.parent


@pytest.mark.parametrize("script", ["digests.py", "ab.py"])
def test_tools_import_the_rcl_on_pythonpath(stub_src, script):
    done = _run_tool(script, stub_src, *(["HEAD"] if script == "ab.py" else []))
    assert done.returncode == 1 and done.stderr.strip().endswith(MARKER), done.stderr


def test_digests_keep_every_output_byte(tmp_path):
    # a change that alters output bytes on purpose updates a total here and
    # says which lines changed and why
    totals = [line.split()[0] for line in digests.digest_lines(tmp_path) if line.endswith("  total")]
    assert totals == [BUNDLE_TOTAL, REPORT_TOTAL], (
        "rcl's output bytes changed; to see which lines, diff the output of "
        "`PYTHONPATH=src python3 tools/digests.py` against the same command at the parent commit")


@pytest.fixture
def ab(monkeypatch):
    """``tools/ab.py`` as a module; the search path it extends and the two
    packages it loads are put back afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    yield tool("ab")
    for name in [name for name in sys.modules if name.split(".")[0] in ("rcl_base", "rcl_head")]:
        del sys.modules[name]


# every layer the harness must time; a row deleted without a replacement fails here
AB_LAYERS = ("graph build", "window certificate", "peeling", "bruteforce lookup", "complement table build",
             "forced complement query", "pair battery", "pair search, kept tables", "forced walk, large witness",
             "decider calls, c01 slice",
             "run, sim2 seed", "run, weight table", "run, wide",
             "compute_metrics", "CSV export", "SVG export")


def test_ab_rows_cover_every_layer(ab):
    names = [row.name for row in ab.ROWS]
    assert len(set(names)) == len(names) and set(AB_LAYERS) <= set(names), names


def test_ab_times_the_working_tree_against_itself(ab, tmp_path):
    tree = Path(ab.graph.__file__).parent  # the rcl on PYTHONPATH
    base, head = ab.sides(tree, tree)
    assert (base.__name__, head.__name__) == ("rcl_base", "rcl_head") and base is not head
    row = next(row for row in ab.ROWS if row.name == "run, sim2 seed")
    line = ab.compare(row, base, head, tmp_path, pairs=4)
    assert set(line) == {"base_ms", "head_ms", "ratio", "head_won", "n", "verdict"}, line
    for key in ("base_ms", "head_ms", "ratio"):
        assert set(line[key]) == {"q1", "median", "q3"} and 0 < line[key]["q1"] <= line[key]["median"] <= line[key]["q3"]
    assert line["n"] == 4 and 0 <= line["head_won"] <= 4 and line["verdict"] in ("gain", "loss", "none")
    assert json.loads(json.dumps(line)) == line


def test_ab_loads_each_side_from_its_own_tree(ab, tmp_path):
    # each stub tree reads its marker through a relative import; only the
    # head tree has the name the second row calls
    trees = {}
    for name in ("base", "head"):
        trees[name] = tmp_path / name / "rcl"
        trees[name].mkdir(parents=True)
        extra = "ONLY_IN_HEAD = True\n" if name == "head" else ""
        (trees[name] / "__init__.py").write_text(f"from .marker import MARKER\n{extra}")
        (trees[name] / "marker.py").write_text(f"MARKER = {name!r}\n")
    base, head = ab.sides(trees["base"], trees["head"])
    seen = []
    marker = ab.Row("marker", lambda scratch: None, lambda side, data: side, lambda side, module: seen.append(module.MARKER))
    assert ab.compare(marker, base, head, tmp_path, pairs=3)["n"] == 3
    assert (base.marker.__file__, head.marker.__file__) == (str(trees["base"] / "marker.py"), str(trees["head"] / "marker.py"))
    assert sorted(seen) == ["base"] * 4 + ["head"] * 4, seen
    lacking = ab.Row("lacking", lambda scratch: None, lambda side, data: side, lambda side, module: module.ONLY_IN_HEAD)
    assert ab.compare(lacking, base, head, tmp_path, pairs=3) == {
        "skipped": "the base tree lacks what the row calls: module 'rcl_base' has no attribute 'ONLY_IN_HEAD'"}


def test_ab_verdict_needs_a_move_beyond_the_rows_aa_ratio(ab, tmp_path):
    # stub sides whose call sleeps 3 ms or returns at once: the slow side
    # loses every pair, by far more than base's quartile spread
    row = ab.Row("stub", lambda scratch: None, lambda side, data: side,
                 lambda side, delay: delay and time.sleep(delay))
    for base, head, verdict in ((0.003, 0.0, "gain"), (0.0, 0.003, "loss")):
        plain = ab.compare(row, base, head, tmp_path, pairs=10)
        assert "aa_ratio" not in plain and plain["verdict"] == verdict, plain
        median = plain["ratio"]["median"]
        # an A/A median nearer 1 than the A/B one leaves the verdict standing
        near = ab.compare(row, base, head, tmp_path, pairs=10, aa_ratio=1.02)
        assert near["aa_ratio"] == 1.02 and near["verdict"] == verdict, near
        # one as far from 1 as any A/B median the stub can read turns it to none
        far = 0.0 if verdict == "gain" else 1e6
        assert abs(median - 1) < abs(far - 1)
        assert ab.compare(row, base, head, tmp_path, pairs=10, aa_ratio=far)["verdict"] == "none"


def test_bench_record_runs_c01_and_c04_without_the_hypothesis_plugin(tmp_path, monkeypatch):
    # test_acceptance.py uses no Hypothesis, and importing it for the plugin
    # took about 1.2 s of each of those walls; the tier-1 run keeps the plugin
    bench_record, argvs = tool("bench_record"), []
    monkeypatch.setattr(bench_record, "_step", lambda root, argv, timeout: argvs.append(argv) or {"returncode": 0})
    assert bench_record.main(["--out", str(tmp_path / "record.json")]) == 0
    pytest_runs = [argv[1:] for argv in argvs if argv[1:3] == ["-m", "pytest"]]
    tools = [[Path(argv[1]).name, *argv[2:]] for argv in argvs if Path(argv[1]).parent == TOOLS]
    assert tools == [["ab.py", "HEAD^"]]
    tier1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    acceptance = [*tier1, "-p", "no:hypothesispytest"]
    assert pytest_runs == [tier1,
                           [*acceptance, "tests/test_acceptance.py::test_c01_peeling_matches_bruteforce_at_scale"],
                           [*acceptance, "tests/test_acceptance.py::test_c04_sim2_reproduction_over_20_seeds"]]


@pytest.mark.parametrize("checkout", ["no rcl", "no perfbench"])
def test_bench_record_exits_2_before_running_anything(tmp_path, stub_src, checkout):
    pythonpath = stub_src if checkout == "no perfbench" else tmp_path / "empty" / "src"
    pythonpath.mkdir(parents=True, exist_ok=True)
    out = tmp_path / "record.json"
    done = _run_tool("bench_record.py", pythonpath, "--out", str(out))
    assert done.returncode == 2 and done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("bench_record: "), done.stderr
    assert not out.exists()


def test_bench_record_keeps_the_stderr_of_every_failed_step(tmp_path, stub_src):
    # ab.py and the rcl.cli steps exit 1 at the stub's import,
    # pytest finds no tests, and the stub perfbench prints one JSON line
    run_py = stub_src.parent / "perfbench" / "run.py"
    run_py.parent.mkdir()
    run_py.write_text("import json, sys\nprint(json.dumps({'argv': sys.argv[1:]}))\n")
    out = tmp_path / "record.json"
    done = _run_tool("bench_record.py", stub_src, "--out", str(out))
    assert done.returncode == 1, done.stderr
    record = json.loads(out.read_text())
    step = record["ab"]
    assert step["returncode"] == 1 and "result" not in step
    assert step["stderr_tail"].strip().endswith(MARKER), step
    for name in ("tier1", "c01", "c04"):
        assert record[name]["returncode"] != 0 and "summary" in record[name] and "stderr_tail" in record[name]
    for name in ("sim2", "sweep"):  # the stub has no rcl.cli
        assert record[name]["returncode"] == 1 and "result" not in record[name]
        assert record[name]["stderr_tail"].strip().endswith(MARKER), record[name]
    for workload, runs in record["perfbench"].items():
        assert list(runs) == ["1", "101"]
        for seed, step in runs.items():
            assert step["returncode"] == 0 and "stderr_tail" not in step
            assert step["result"] == {"argv": ["--workload", workload, "--seed", seed]}


@pytest.mark.parametrize("printed, result", [
    ("print(json.dumps({'a': 1}))\nprint(json.dumps({'b': 2}))", {"a": 1, "b": 2}),
    ("print(json.dumps({'rounds': 3, 'ok': True}, indent=2))", {"rounds": 3, "ok": True}),
], ids=["one object per line", "one indented object"])
def test_bench_record_reads_one_object_per_line_or_the_whole_stdout(tmp_path, printed, result):
    # perfbench and ab.py print one object per line; rcl scenario
    # prints its metrics as one indented object
    step = tool("bench_record")._step(tmp_path, [sys.executable, "-c", f"import json\n{printed}"], timeout=60)
    assert step["returncode"] == 0 and step["result"] == result, step
    assert "summary" not in step and "stderr_tail" not in step


def test_mutants_reports_a_killed_a_surviving_and_a_stale_row(tmp_path, monkeypatch, capsys):
    mutants = tool("mutants")
    root = tmp_path / "stub"
    (root / "src" / "rcl").mkdir(parents=True)
    (root / "tests").mkdir()
    source = "def double(x):\n    return 2 * x\n"
    (root / "src" / "rcl" / "__init__.py").write_text(source)
    (root / "tests" / "test_double.py").write_text("from rcl import double\n\n\ndef test_double():\n"
                                                   "    assert double(2) == 4\n")
    test = ["tests/test_double.py::test_double"]
    rows = [("src/rcl/__init__.py", "2 * x", "3 * x", test), ("src/rcl/__init__.py", "2 * x", "x + x", test),
            ("src/rcl/__init__.py", "4 * x", "5 * x", test)]
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")  # the stub needs no plugin, and loading them is slow
    assert mutants.check(root, rows) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines] == [["killed", "row", "0"], ["SURVIVED", "row", "1"],
                                                    ["STALE", "row", "2"]], lines
    assert lines[1].endswith(f"did not fail: {test[0]}") and lines[2].endswith("occurs 0 times")
    assert (root / "src" / "rcl" / "__init__.py").read_text() == source
