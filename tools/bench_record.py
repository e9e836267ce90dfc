"""Record the benchmark numbers of the checkout of the importable rcl in a JSON file.

    PYTHONPATH=src python3 tools/bench_record.py --out BENCH_<commit>.json

Measures the checkout whose ``src/`` holds the importable rcl (found without
importing it), one step after the other, with that ``src/`` as ``PYTHONPATH``:

- the checkout's ``perfbench/run.py`` at its default length for every workload
  at seeds 1 and 101, each run in its own process; the last JSON line of each
  run is kept as printed;
- ``track_layers.py`` and ``decider_layers.py`` beside this file, each line
  parsed into its values by unit (milliseconds, microseconds per round or per
  call, call counts);
- the tier-1 suite (``python -m pytest -q --continue-on-collection-errors``)
  and acceptance test c01 alone, by wall clock, with pytest's summary line.

Every step is a child process whose environment pins glibc's heap trim and
mmap thresholds (``MALLOC_TRIM_THRESHOLD_``, ``MALLOC_MMAP_THRESHOLD_``), so
the heap cannot shrink and regrow between passes.  The file also holds the
commit (``git rev-parse HEAD``, and whether ``git status`` shows changes); for
a tree with changes, the SHA-256 of ``git diff HEAD --binary`` and of each
untracked file but the output, so that the file names the tree it measured; the
host, the versions, and a ``notes`` list naming the known sources of noise in
these numbers.  The recorder uses only the standard library and the commands
above, so one copy of it records older checkouts too; with no importable rcl,
or none in a checkout with ``perfbench/run.py``, it exits 2 before running
anything.  The host's speed drifts: compare only files recorded one after the
other on one host.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
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


def _checkout() -> Path | None:
    """The checkout whose ``src/`` holds the importable rcl, or None."""
    spec = importlib.util.find_spec("rcl")
    return Path(spec.origin).resolve().parents[2] if spec and spec.origin else None


def _run(args: list[str], root: Path, timeout: float) -> tuple[subprocess.CompletedProcess, float]:
    env = dict(os.environ, **MALLOC_ENV, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    done = subprocess.run(args, cwd=root, env=env, capture_output=True, text=True, timeout=timeout)
    return done, time.perf_counter() - start


def _git(root: Path, *args: str) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _changes(root: Path, out: Path) -> dict | None:
    """The SHA-256 of ``git diff HEAD --binary`` and of each untracked file
    (``out`` left out), or None where git fails."""
    try:
        diff = subprocess.run(["git", "diff", "HEAD", "--binary"], cwd=root, capture_output=True, timeout=60,
                              check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    names = (_git(root, "ls-files", "--others", "--exclude-standard", "-z") or "").split("\0")
    return {"diff_sha256": hashlib.sha256(diff).hexdigest(),
            "untracked_sha256": {name: hashlib.sha256((root / name).read_bytes()).hexdigest()
                                 for name in sorted(names) if name and (root / name).resolve() != out.resolve()}}


def _perfbench(root: Path, workload: str, seed: int) -> dict:
    done, wall = _run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)], root,
                      timeout=1800)
    lines = done.stdout.strip().splitlines()
    record = {"returncode": done.returncode, "process_wall_s": round(wall, 3)}
    try:
        record["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record["stderr_tail"] = done.stderr[-2000:]
    return record


def _layers(root: Path, script: str) -> dict:
    """The lines of ``script`` beside this file parsed as {layer: {unit:
    value}}, the unit with "/" spelt "_per_" (``us_per_round``)."""
    done, wall = _run([sys.executable, str(HERE / script)], root, timeout=1800)
    layers = {}
    for line in done.stdout.splitlines():
        found = re.match(r"(.*?)\s+(-?[\d.]+ [a-z/]+.*)", line)
        if found:
            layers[found[1].strip()] = {unit.replace("/", "_per_"): float(value)
                                        for value, unit in re.findall(r"(-?[\d.]+) ([a-z/]+)", found[2])}
    return {"returncode": done.returncode, "process_wall_s": round(wall, 3), "layers": layers}


def _pytest(root: Path, *selection: str) -> dict:
    done, wall = _run([sys.executable, *TIER1, *selection], root, timeout=3600)
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
    root = _checkout()
    if root is None or not (root / "perfbench" / "run.py").is_file():
        print("bench_record: no importable rcl in a checkout with perfbench/run.py; "
              "set PYTHONPATH to that checkout's src/", file=sys.stderr)
        return 2

    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    dirty = bool(_git(root, "status", "--porcelain"))
    record = {
        "commit": _git(root, "rev-parse", "HEAD"),
        "dirty": dirty,
        "changes": _changes(root, args.out) if dirty else None,
        "recorded_at": started,
        "host": {"nproc": os.cpu_count(), "cpu_model": _cpu_model(), "platform": platform.platform()},
        "versions": _versions(),
        "child_env": MALLOC_ENV,
        "perfbench": {},
    }
    for workload in WORKLOADS:
        for seed in SEEDS:
            print(f"perfbench {workload} seed {seed}", file=sys.stderr, flush=True)
            record["perfbench"].setdefault(workload, {})[str(seed)] = _perfbench(root, workload, seed)
    for script in ("track_layers", "decider_layers"):
        print(script, file=sys.stderr, flush=True)
        record[script] = _layers(root, f"{script}.py")
    print("tier-1", file=sys.stderr, flush=True)
    record["tier1"] = _pytest(root)
    print("c01", file=sys.stderr, flush=True)
    record["c01"] = _pytest(root, C01)
    record["notes"] = NOTES
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    failed = [name for name in ("track_layers", "decider_layers", "tier1", "c01") if record[name]["returncode"] != 0]
    failed += [f"{w} seed {s}" for w, runs in record["perfbench"].items() for s, r in runs.items()
               if r["returncode"] != 0]
    if failed:
        print(f"bench_record: nonzero exit from {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
