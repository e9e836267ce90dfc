"""The scripts in ``tools/`` measure the rcl that ``PYTHONPATH`` names."""

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
    # the layer tools and the rcl.cli steps exit 1 at the stub's import,
    # pytest finds no tests, and the stub perfbench prints one JSON line
    run_py = stub_src.parent / "perfbench" / "run.py"
    run_py.parent.mkdir()
    run_py.write_text("import json, sys\nprint(json.dumps({'argv': sys.argv[1:]}))\n")
    out = tmp_path / "record.json"
    done = _run_tool("bench_record.py", stub_src, "--out", str(out))
    assert done.returncode == 1, done.stderr
    record = json.loads(out.read_text())
    for script in ("track_layers", "decider_layers"):
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
