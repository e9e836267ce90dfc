"""The scripts in ``tools/`` measure the rcl that ``PYTHONPATH`` names."""

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
