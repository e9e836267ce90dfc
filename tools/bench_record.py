"""Record one checkout's benchmark numbers in a JSON file.

    python3 tools/bench_record.py --out BENCH_<commit>.json

Measures the checkout this file sits in, one step after the other:

- ``perfbench/run.py`` at its default length for every workload at seeds 1
  and 101, each run in its own process; the last JSON line of each run is
  kept as printed;
- ``tools/track_layers.py`` and ``tools/decider_layers.py``, each line
  parsed into its values by unit (milliseconds, microseconds per round or
  per call, call counts); a checkout without one of them records null;
- the tier-1 suite (``python -m pytest -q --continue-on-collection-errors``
  with ``src/`` on ``PYTHONPATH``) and acceptance test c01 alone, by wall
  clock, with pytest's summary line.

Every step is a child process whose environment pins glibc's heap trim and
mmap thresholds (``MALLOC_TRIM_THRESHOLD_``, ``MALLOC_MMAP_THRESHOLD_``), so
the heap cannot shrink and regrow between passes.  The file also holds the
commit (``git rev-parse HEAD``, and whether ``git status`` shows changes), the
host, the versions, and a ``notes`` list naming the known sources of noise in
these numbers.  The recorder uses only the standard
library and the commands above, so the same file runs unchanged in older
checkouts.  The host's speed drifts: compare only files recorded one after
the other on one host.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("track", "wide", "exact", "crosscheck")
SEEDS = (1, 101)
# glibc caps the mmap threshold at 32 MiB on 64-bit hosts; with both pinned,
# the enumeration chunks of a few MB stay on the heap and are never trimmed
MALLOC_ENV = {"MALLOC_TRIM_THRESHOLD_": str(256 << 20), "MALLOC_MMAP_THRESHOLD_": str(32 << 20)}
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")
C01 = "tests/test_acceptance.py::test_c01_peeling_matches_bruteforce_at_scale"
NOTES = [
    "perfbench setup_s is mostly interpreter start and imports (about 0.15 s) for track and wide, "
    "so it swings by about 15% between runs of unchanged code",
    "perfbench peak_rss_mb moves with the size of the source files alone (about 0.5 MB seen), "
    "and with PYTHONDONTWRITEBYTECODE=1 it includes compiling them",
    "perfbench exact is bimodal through glibc heap trimming; the child processes here pin "
    "MALLOC_TRIM_THRESHOLD_ and MALLOC_MMAP_THRESHOLD_ against it",
    "the exact gauge kernel allocates arrays in the enumeration's size class, so its timing follows "
    "the heap state rcl leaves and a slower kernel can read as a gain",
    "perfbench peak_rss_mb reads about 0.15 MB higher in a checkout with uncommitted or untracked "
    "files than in a clean one of the same code (its environment record runs git status)",
    "BENCHMARK.json says the engine does ~80% of a track op; track_layers.py measures run at 50-60% "
    "of a sim2 seed, CSV and SVG export most of the rest",
]


def _python_env() -> dict:
    env = dict(os.environ, **MALLOC_ENV)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(args: list[str], timeout: float) -> tuple[subprocess.CompletedProcess, float]:
    start = time.perf_counter()
    done = subprocess.run(args, cwd=ROOT, env=_python_env(), capture_output=True, text=True, timeout=timeout)
    return done, time.perf_counter() - start


def _git(*args: str) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _perfbench(workload: str, seed: int) -> dict:
    done, wall = _run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)],
                      timeout=1800)
    lines = done.stdout.strip().splitlines()
    record = {"returncode": done.returncode, "process_wall_s": round(wall, 3)}
    try:
        record["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record["stderr_tail"] = done.stderr[-2000:]
    return record


def _layers(script: str) -> dict | None:
    """``tools/<script>``'s lines parsed as {layer: {unit: value}}, the unit
    with "/" spelt "_per_" (``us_per_round``), or None where the checkout
    has no such script."""
    if not (ROOT / "tools" / script).is_file():
        return None
    done, wall = _run([sys.executable, f"tools/{script}"], timeout=1800)
    layers = {}
    for line in done.stdout.splitlines():
        found = re.match(r"(.*?)\s+(-?[\d.]+ [a-z/]+.*)", line)
        if found:
            layers[found[1].strip()] = {unit.replace("/", "_per_"): float(value)
                                        for value, unit in re.findall(r"(-?[\d.]+) ([a-z/]+)", found[2])}
    return {"returncode": done.returncode, "process_wall_s": round(wall, 3), "layers": layers}


def _pytest(*selection: str) -> dict:
    done, wall = _run([sys.executable, *TIER1, *selection], timeout=3600)
    summary = done.stdout.strip().splitlines()[-1:] or [""]
    return {"returncode": done.returncode, "wall_s": round(wall, 3), "summary": summary[0]}


def _versions() -> dict:
    versions = {"python": platform.python_version()}
    for module in ("numpy", "scipy", "hypothesis", "pytest"):
        done = subprocess.run([sys.executable, "-c", f"import {module}; print({module}.__version__)"],
                              capture_output=True, text=True, timeout=60)
        versions[module] = done.stdout.strip() or None
    return versions


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = parser.parse_args(argv)

    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    record = {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain")),
        "recorded_at": started,
        "host": {"nproc": os.cpu_count(), "cpu_model": _cpu_model(), "platform": platform.platform()},
        "versions": _versions(),
        "child_env": MALLOC_ENV,
        "perfbench": {},
    }
    for workload in WORKLOADS:
        for seed in SEEDS:
            print(f"perfbench {workload} seed {seed}", file=sys.stderr, flush=True)
            record["perfbench"].setdefault(workload, {})[str(seed)] = _perfbench(workload, seed)
    for script in ("track_layers", "decider_layers"):
        print(script, file=sys.stderr, flush=True)
        record[script] = _layers(f"{script}.py")
    print("tier-1", file=sys.stderr, flush=True)
    record["tier1"] = _pytest()
    print("c01", file=sys.stderr, flush=True)
    record["c01"] = _pytest(C01)
    record["notes"] = NOTES
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    failed = [name for name in ("track_layers", "decider_layers", "tier1", "c01")
              if record[name] is not None and record[name]["returncode"] != 0]
    failed += [f"{w} seed {s}" for w, runs in record["perfbench"].items() for s, r in runs.items()
               if r["returncode"] != 0]
    if failed:
        print(f"bench_record: nonzero exit from {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
