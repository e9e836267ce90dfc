"""The scripts in ``tools/`` measure the rcl that ``PYTHONPATH`` names."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
MARKER = "stub rcl imported"


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


@pytest.mark.parametrize("script", ["bundle_digests.py", "report_digests.py", "track_layers.py",
                                    "decider_layers.py"])
def test_tools_import_the_rcl_on_pythonpath(stub_src, script):
    done = _run_tool(script, stub_src)
    assert done.returncode == 1 and done.stderr.strip().endswith(MARKER), done.stderr


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
    # the layer and digest tools and the rcl.cli steps exit 1 at the stub's import,
    # pytest finds no tests, and the stub perfbench prints one JSON line
    run_py = stub_src.parent / "perfbench" / "run.py"
    run_py.parent.mkdir()
    run_py.write_text("import json, sys\nprint(json.dumps({'argv': sys.argv[1:]}))\n")
    out = tmp_path / "record.json"
    done = _run_tool("bench_record.py", stub_src, "--out", str(out))
    assert done.returncode == 1, done.stderr
    record = json.loads(out.read_text())
    for script in ("track_layers", "decider_layers", "bundle_digests", "report_digests"):
        step = record[script]
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
    # perfbench and the layer tools print one object per line; rcl scenario
    # prints its metrics as one indented object
    spec = importlib.util.spec_from_file_location("bench_record", TOOLS / "bench_record.py")
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)
    step = bench_record._step(tmp_path, [sys.executable, "-c", f"import json\n{printed}"], timeout=60)
    assert step["returncode"] == 0 and step["result"] == result, step
    assert "summary" not in step and "stderr_tail" not in step


def test_mutants_reports_a_killed_a_surviving_and_a_stale_row(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("mutants", TOOLS / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
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
