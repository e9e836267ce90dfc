"""Record the benchmark numbers of the checkout of the importable rcl in a JSON file.

    PYTHONPATH=src python3 tools/bench_record.py --out BENCH_<commit>.json

Measures the checkout whose ``src/`` holds the importable rcl (found without
importing it), one step after the other, with that ``src/`` as ``PYTHONPATH``:

- the checkout's ``perfbench/run.py`` at its default length for every workload
  at seeds 1 and 101, each run in its own process;
- ``ab.py HEAD^`` beside this file, the in-process A/B of every layer against
  the measured commit's first parent, which it names as ``base``;
- the tier-1 suite (``python -m pytest -q --continue-on-collection-errors``),
  whose ``test_digests_keep_every_output_byte`` pins ``digests.py``'s totals,
  and acceptance test c01 alone;
- the other end-to-end walls: ``rcl scenario sim2``, acceptance test c04 (the
  20-seed sim2 batch) alone, and a fixed 420-cell ``rcl sweep``, each writing
  its output to a temporary directory.

c01 and c04 run without Hypothesis's pytest plugin (``-p
no:hypothesispytest``), as ``test_acceptance.py`` uses no Hypothesis and
importing it took about 1.2 s of each wall; the tier-1 step keeps it.

Every step is a child process run by ``_step``, whose environment pins glibc's
heap trim and mmap thresholds (``MALLOC_TRIM_THRESHOLD_``,
``MALLOC_MMAP_THRESHOLD_``), so the heap cannot shrink and regrow between
passes.  Each step's record holds its ``returncode`` and ``process_wall_s``;
``result``, every stdout line that parses as a JSON object, merged in order
(perfbench's ``detail`` and metrics lines, ``ab.py``'s base and one line per
set and row), or else the whole stdout when it parses as one (``rcl scenario``'s
indented metrics); ``summary``, the last stdout line, only when neither
parses as one (pytest's summary); and ``stderr_tail`` when the step exits
nonzero or prints no result.  The file
also holds the commit (``git rev-parse HEAD``, and whether ``git status``
shows changes); for a tree with changes, the SHA-256 of ``git diff HEAD
--binary`` and of each untracked file but the output, so that the file names
the tree it measured; the host, the versions, and a ``notes`` list naming
the known sources of noise in these numbers.  The recorder uses only the
standard library and the commands above, so one copy of it records
older checkouts too; with no importable rcl, or none in a checkout with
``perfbench/run.py``, it exits 2 before running anything.  It exits 1 when a
step exits nonzero.  The host's speed drifts: compare only files recorded one
after the other on one host.
"""

import argparse
import contextlib
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("track", "wide", "exact", "crosscheck")
SEEDS = (1, 101)
# glibc caps the mmap threshold at 32 MiB on 64-bit hosts; with both pinned,
# the enumeration chunks of a few MB stay on the heap and are never trimmed
MALLOC_ENV = {"MALLOC_TRIM_THRESHOLD_": str(256 << 20), "MALLOC_MMAP_THRESHOLD_": str(32 << 20)}
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")
ACCEPTANCE = (*TIER1, "-p", "no:hypothesispytest")
C01 = "tests/test_acceptance.py::test_c01_peeling_matches_bruteforce_at_scale"
C04 = "tests/test_acceptance.py::test_c04_sim2_reproduction_over_20_seeds"
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
    "BENCHMARK.json says the engine does ~80% of a track op; of ab.py's four sim2-seed rows (run, "
    "compute_metrics, CSV export, SVG export), run takes about 53% and CSV and SVG export most of the rest",
]


def _checkout() -> Path | None:
    """The checkout whose ``src/`` holds the importable rcl, or None."""
    spec = importlib.util.find_spec("rcl")
    return Path(spec.origin).resolve().parents[2] if spec and spec.origin else None


def _run(root: Path, argv: list[str], timeout: float) -> tuple[subprocess.CompletedProcess, float]:
    """``argv`` run in ``root`` with the child environment: the finished
    process, its output as bytes, and its wall time."""
    env = dict(os.environ, **MALLOC_ENV, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=root, env=env, capture_output=True, timeout=timeout)
    return done, time.perf_counter() - start


def _merged(texts: list[str]) -> dict:
    """Every text of ``texts`` that parses as a JSON object, merged in order."""
    result = {}
    for text in texts:
        with contextlib.suppress(json.JSONDecodeError):
            parsed = json.loads(text)
            if isinstance(parsed, dict):
                result.update(parsed)
    return result


def _step(root: Path, argv: list[str], timeout: float) -> dict:
    """The record of one step (see the module docstring)."""
    done, wall = _run(root, argv, timeout)
    stdout = done.stdout.decode(errors="replace")
    lines = stdout.splitlines()
    record = {"returncode": done.returncode, "process_wall_s": round(wall, 3)}
    result = _merged(lines) or _merged([stdout])
    if result:
        record["result"] = result
    else:
        record["summary"] = lines[-1] if lines else ""
    if done.returncode or not result:
        record["stderr_tail"] = done.stderr.decode(errors="replace")[-2000:]
    return record


def _git(root: Path, *args: str) -> bytes | None:
    """The stdout of ``git *args`` in ``root``, or None where git fails."""
    try:
        done, _ = _run(root, ["git", *args], timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout if done.returncode == 0 else None


def _changes(root: Path, out: Path) -> dict | None:
    """The SHA-256 of ``git diff HEAD --binary`` and of each untracked file
    (``out`` left out), or None where git fails."""
    diff = _git(root, "diff", "HEAD", "--binary")
    if diff is None:
        return None
    names = (_git(root, "ls-files", "--others", "--exclude-standard", "-z") or b"").decode().split("\0")
    return {"diff_sha256": hashlib.sha256(diff).hexdigest(),
            "untracked_sha256": {name: hashlib.sha256((root / name).read_bytes()).hexdigest()
                                 for name in sorted(names) if name and (root / name).resolve() != out.resolve()}}


def _versions() -> dict:
    versions = {"python": platform.python_version()}
    for package in ("numpy", "scipy", "hypothesis", "pytest"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
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
    commit = _git(root, "rev-parse", "HEAD")
    perfbench = {workload: {} for workload in WORKLOADS}
    record = {
        "commit": commit.decode().strip() if commit else None,
        "dirty": dirty,
        "changes": _changes(root, args.out) if dirty else None,
        "recorded_at": started,
        "host": {"nproc": os.cpu_count(), "cpu_model": _cpu_model(), "platform": platform.platform()},
        "versions": _versions(),
        "child_env": MALLOC_ENV,
        "perfbench": perfbench,
    }
    # (name, the record that holds the step, its key there, argv after the interpreter, timeout)
    steps = [(f"perfbench {workload} seed {seed}", perfbench[workload], str(seed),
              ["perfbench/run.py", "--workload", workload, "--seed", str(seed)], 1800)
             for workload in WORKLOADS for seed in SEEDS]
    steps += [("ab", record, "ab", [str(HERE / "ab.py"), "HEAD^"], 1800)]
    steps += [("tier-1", record, "tier1", [*TIER1], 3600), ("c01", record, "c01", [*ACCEPTANCE, C01], 3600)]
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        steps += [("sim2", record, "sim2", ["-m", "rcl.cli", "scenario", "sim2", "--out", tmp], 600),
                  ("c04", record, "c04", [*ACCEPTANCE, C04], 1800),
                  ("sweep", record, "sweep", ["-m", "rcl.cli", "sweep", "--n", "20,30", "--k", "5-7", "--f", "1,2",
                                              "--window-sizes", "3-9", "--window-starts", "1-5", "--horizon", "200",
                                              "-o", f"{tmp}/sweep.csv"], 600)]
        for name, holder, key, argv, timeout in steps:
            print(name, file=sys.stderr, flush=True)
            holder[key] = _step(root, [sys.executable, *argv], timeout)
            if holder[key]["returncode"] != 0:
                failed.append(name)
    record["notes"] = NOTES
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    if failed:
        print(f"bench_record: nonzero exit from {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
