"""Check that the tests kill each mutant of a fixed table.

    python3 tools/mutants.py

``MUTANTS`` holds one row per mutant: a file of this checkout, a text that
must occur in it exactly once, the text that replaces it, and the ids of the
tests that must fail with it.  First the tests of every row run once on an
unchanged copy of the checkout, where each must pass.  Then, for each row,
the checkout (all but ``.git``) is copied to a temporary directory, the
replacement made there, and the row's tests run in that copy; the checkout
itself is never written.  Tests run as ``python -m pytest -q -p
no:cacheprovider -rf IDS`` in the copy, with its ``src/`` as ``PYTHONPATH``.

One line per row: ``killed`` when every test of the row fails, ``SURVIVED``
naming the tests that did not fail, or ``STALE`` when the old text does not
occur exactly once.  No row is skipped.  The tool exits 1 when a row is
stale or survives, or a test fails on the unchanged copy, else 0.  It uses
the standard library only and runs outside the tier-1 suite (a row takes a
few seconds).
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYTEST = ("-m", "pytest", "-q", "-p", "no:cacheprovider", "-rf")
ROBUSTNESS = "src/rcl/robustness.py"
TESTS = "tests/test_robustness.py::"

# (file, old text, new text, ids of the tests that must fail)
MUTANTS = [
    # peeling admits a vertex with one in-neighbour too few
    (ROBUSTNESS, "(in_masks[w - 1] & grown).bit_count() >= reach",
     "(in_masks[w - 1] & grown).bit_count() >= reach - 1", [TESTS + "test_peeling_admission_order_matches_rescanning"]),
    # a query with exactly _LOW_BITS free vertices skips the cached table
    (ROBUSTNESS, "if free <= _LOW_BITS:", "if free < _LOW_BITS:",
     [TESTS + "test_the_cached_table_answers_exactly_the_queries_whose_free_vertices_fit_one_chunk[3]"]),
    # the cached table's key decoded as ~key, one off from -key
    (ROBUSTNESS, "-key & ((1 << free) - 1)", "~key & ((1 << free) - 1)",
     [TESTS + "test_strong_ring_false_with_minimal_witness"]),
    # a pruned chunk drops the low counters of exactly the room left
    (ROBUSTNESS, "np.flatnonzero(sizes <= room)", "np.flatnonzero(sizes < room)",
     [TESTS + "test_split_counter_complement_witness_is_the_canonical_first_violation[2]"]),
    # a pruned chunk's marks left as positions in cols, not low counters
    (ROBUSTNESS, "marked = cols[marked]", "marked = marked",
     [TESTS + "test_a_pruned_chunk_keeps_every_low_counter_that_can_come_first[4]"]),
    # chunks pruned up to L // 2 free low bits, not L // 4
    (ROBUSTNESS, "room > width // 4", "room > width // 2",
     [TESTS + "test_a_pruned_chunk_keeps_every_low_counter_that_can_come_first[4]"]),
    # save_graph writes graph JSON under a .txt name and an edge list under .json
    ("src/rcl/graph.py", 'if Path(path).suffix == ".json":\n        text',
     'if Path(path).suffix == ".txt":\n        text',
     ["tests/test_graph.py::test_save_load_roundtrip", "tests/test_cli.py::test_gen_graph_json_format"]),
]


def _failed(copy: Path, ids: list[str]) -> tuple[int, set[str]]:
    """Pytest's exit code for ``ids`` run in ``copy``, and the ids that failed."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    done = subprocess.run([sys.executable, *PYTEST, *ids], cwd=copy, env=env, capture_output=True, text=True,
                          timeout=1800)
    lines = done.stdout.splitlines()
    return done.returncode, {i for i in ids if f"FAILED {i}" in lines
                             or any(line.startswith(f"FAILED {i} - ") for line in lines)}


def _copy(root: Path, tmp: str) -> Path:
    return Path(shutil.copytree(root, Path(tmp) / root.name, ignore=shutil.ignore_patterns(".git")))


def check(root: Path, mutants: list) -> int:
    """Run ``mutants`` against the tests of the checkout ``root`` (see the
    module docstring); 0 when every row is killed, else 1."""
    ids = list(dict.fromkeys(i for *_, tests in mutants for i in tests))
    with tempfile.TemporaryDirectory() as tmp:
        code, failed = _failed(_copy(root, tmp), ids)
    bad = int(code != 0)
    if bad:
        print(f"UNMUTATED pytest exit {code}; failed: {', '.join(sorted(failed)) or 'none'}")
    for row, (name, old, new, tests) in enumerate(mutants):
        label = f"row {row} {name}: {old!r} -> {new!r}"
        text = (root / name).read_text(encoding="utf-8")
        if text.count(old) != 1:
            print(f"STALE    {label}: the old text occurs {text.count(old)} times")
            bad += 1
            continue
        started = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            copy = _copy(root, tmp)
            (copy / name).write_text(text.replace(old, new), encoding="utf-8")
            code, failed = _failed(copy, tests)
        wall = f"({time.perf_counter() - started:.1f} s)"
        if survivors := [i for i in tests if i not in failed]:
            print(f"SURVIVED {label} {wall}: pytest exit {code}; did not fail: {', '.join(survivors)}")
            bad += 1
        else:
            print(f"killed   {label} {wall}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(check(ROOT, MUTANTS))
