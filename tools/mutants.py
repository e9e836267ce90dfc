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
SIMULATION = "src/rcl/simulation.py"
SIM_TESTS = "tests/test_simulation.py::"
PROTOCOL = "src/rcl/protocol.py"
PROTOCOL_TESTS = "tests/test_protocol.py::"

# (file, old text, new text, ids of the tests that must fail)
MUTANTS = [
    # peeling admits a vertex with one in-neighbour too few
    (ROBUSTNESS, "(in_masks[w - 1] & grown).bit_count() >= reach",
     "(in_masks[w - 1] & grown).bit_count() >= reach - 1", [TESTS + "test_peeling_admission_order_matches_rescanning"]),
    # peeling skips its first scan when |S| equals the threshold, where a vertex can still be eligible
    (ROBUSTNESS, "if s_mask.bit_count() >= low:", "if s_mask.bit_count() > low:",
     [TESTS + "test_peeling_admission_order_matches_rescanning"]),
    # the certificate refuses a shortest window of exactly max_len agents
    (ROBUSTNESS, "if length <= max_len:", "if length < max_len:",
     [TESTS + "test_certificate_matches_window_scan_exhaustively"]),
    # TLF brute force asks for 2F+2 in-neighbors outside C where the property asks for 2F+1
    (ROBUSTNESS, "return _bruteforce(g, s_mask, f + 1, 2 * f + 1, Property.TLF, params, cap, force)",
     "return _bruteforce(g, s_mask, f + 1, 2 * f + 2, Property.TLF, params, cap, force)",
     [TESTS + "test_peeling_matches_bruteforce_random[tlf]",
      TESTS + "test_complement_witness_is_the_canonical_first_violation"]),
    # a graph of exactly _LOW_BITS vertices walks instead of reading its kept rows
    (ROBUSTNESS, "kept = g.n <= _LOW_BITS", "kept = g.n < _LOW_BITS",
     [TESTS + "test_kept_rows_answer_exactly_the_graphs_that_fit_one_chunk[3]",
      TESTS + "test_no_kept_row_passes_the_cache_bound_at_16_vertices"]),
    # a complement row's key decoded as ~key, one off from -key
    (ROBUSTNESS, "-key & full", "~key & full",
     [TESTS + "test_strong_ring_false_with_minimal_witness"]),
    # a complement row of threshold a holds the C with M[C] < a, one in-degree short
    (ROBUSTNESS, "np.where(most <= a,", "np.where(most < a,",
     [TESTS + "test_strong_ring_false_with_minimal_witness",
      TESTS + "test_complement_witness_is_the_canonical_first_violation"]),
    # a row answers TLF over all of V minus S, as if no free vertex had F + 1 in-neighbors in S
    (ROBUSTNESS, "not (kept and anchor >= reach)", "not kept",
     [TESTS + "test_complement_witness_is_the_canonical_first_violation"]),
    # the width table's upto[room] drops the low counters of exactly the room left
    (ROBUSTNESS, "np.flatnonzero(sizes <= room)", "np.flatnonzero(sizes < room)",
     [TESTS + "test_split_counter_complement_witness_is_the_canonical_first_violation[2]",
      TESTS + "test_the_width_table_holds_the_low_counters_and_their_canonical_order[4]"]),
    # the width table's canonical keys order one size by ascending lo
    (ROBUSTNESS, "keys = (sizes << width) - lo", "keys = (sizes << width) + lo",
     [TESTS + "test_strong_ring_false_with_minimal_witness",
      TESTS + "test_the_width_table_holds_the_low_counters_and_their_canonical_order[4]"]),
    # a pruned chunk's marks left as positions in cols, not low counters
    (ROBUSTNESS, "marked = cols[marked]", "marked = marked",
     [TESTS + "test_a_pruned_chunk_keeps_every_low_counter_that_can_come_first[4]"]),
    # the first chunk's probe of its counters of at most one member, when it marks none, ends the chunk
    (ROBUSTNESS, "for room in (1, width) if", "for room in (1,) if",
     [TESTS + "test_pair_witness_is_the_canonical_first_violation[default]",
      TESTS + "test_pair_witness_is_the_canonical_first_violation[4]",
      TESTS + "test_a_first_chunk_with_no_violating_singleton_evaluates_all_its_counters[4]"]),
    # the width table holds pruned chunks up to L // 2 free low bits, not L // 4
    (ROBUSTNESS, "range(width // 4 + 1)", "range(width // 2 + 1)",
     [TESTS + "test_a_pruned_chunk_keeps_every_low_counter_that_can_come_first[4]",
      TESTS + "test_the_width_table_holds_the_low_counters_and_their_canonical_order[4]"]),
    # the width table's sizes, and so its keys and every complement row, in int64: twice the bytes
    (ROBUSTNESS, "np.bitwise_count(lo).astype(np.int32)", "np.bitwise_count(lo).astype(np.int64)",
     [TESTS + "test_the_width_table_holds_the_low_counters_and_their_canonical_order[4]",
      TESTS + "test_no_kept_row_passes_the_cache_bound_at_16_vertices"]),
    # every complement row kept under threshold 0, whatever its own
    (ROBUSTNESS, "row = _kept(g, a, ", "row = _kept(g, 0, ",
     [TESTS + "test_every_leader_set_of_a_graph_reads_the_same_rows",
      TESTS + "test_a_corpus_replayed_twice_builds_each_table_once"]),
    # a graph of exactly _LOW_BITS vertices builds its tables but keeps none
    (ROBUSTNESS, "if g.n <= _LOW_BITS:", "if g.n < _LOW_BITS:",
     [TESTS + "test_no_kept_row_passes_the_cache_bound_at_16_vertices"]),
    # P kept under M's key, so a pair check that finds M kept reads it as P
    (ROBUSTNESS, "partner = _kept(g, -2, ", "partner = _kept(g, -1, ",
     [TESTS + "test_pair_witness_is_the_canonical_first_violation[default]",
      TESTS + "test_r_robust_matches_naive_oracle"]),
    # an equal-rule run's least nonzero term read off its wrong end
    (SIMULATION, "np.maximum(first, -last)", "np.maximum(last, -first)",
     [SIM_TESTS + "test_end_bounds_certify_the_same_sums_as_the_matrix_bounds",
      SIM_TESTS + "test_end_bounds_equal_the_matrix_bounds_on_every_round[sim3]"]),
    # the round's largest term read off the runs' last ends only, as if no run held a negative value
    (SIMULATION, "max(0.0, -np.minimum.reduce(first, initial=0.0), np.maximum.reduce(last, initial=0.0))",
     "max(0.0, np.maximum.reduce(last, initial=0.0))",
     [SIM_TESTS + "test_end_bounds_certify_the_same_sums_as_the_matrix_bounds",
      SIM_TESTS + "test_end_bounds_equal_the_matrix_bounds_on_every_round[sim3]"]),
    # a run whose end is exactly 0 skips the recheck and goes to fsum
    (SIMULATION, "rest[low[rest] <= 0]", "rest[low[rest] < 0]",
     [SIM_TESTS + "test_end_bounds_certify_the_same_sums_as_the_matrix_bounds",
      SIM_TESTS + "test_end_bounds_equal_the_matrix_bounds_on_every_round[sim2]"]),
    # each run's last value read one sorted position past it
    (SIMULATION, "hi = cols[stop - 1, lay.rows]", "hi = cols[np.minimum(stop, len(cols) - 1), lay.rows]",
     [SIM_TESTS + "test_engine_matches_scalar_oracle_at_band_edges[equal]",
      SIM_TESTS + "test_engine_matches_scalar_oracle_at_band_edges[table]",
      SIM_TESTS + "test_end_bounds_equal_the_matrix_bounds_on_every_round[sim2]"]),
    # the reference series built before the run's buffer, so a horizon too long for memory fails only there
    (SIMULATION, "    x = np.full((horizon + 1, n + 1 + len(delivered)), np.nan)\n    states = x[:, 1 : n + 1]\n"
     "    ref_series = None if config.reference is None else config.reference.series(horizon)\n",
     "    ref_series = None if config.reference is None else config.reference.series(horizon)\n"
     "    x = np.full((horizon + 1, n + 1 + len(delivered)), np.nan)\n    states = x[:, 1 : n + 1]\n",
     [SIM_TESTS + "test_a_horizon_too_long_for_memory_fails_before_any_series_is_built"]),
    # a reference's last round of each constant interval left unwritten
    (PROTOCOL, "out[t1:t2] = value", "out[t1 : t2 - 1] = value",
     [PROTOCOL_TESTS + "test_series_equals_value_at_byte_for_byte",
      SIM_TESTS + "test_a_many_breakpoint_reference_is_laid_out_without_value_at"]),
    # a sinusoid's infinite angle read as angle 0, not NaN
    (PROTOCOL, "            sine[infinite] = math.nan\n", "",
     [PROTOCOL_TESTS + "test_series_equals_value_at_byte_for_byte"]),
    # a NaN an adversary sends delivered as NaN, not +inf: it sorts last but counts in neither band
    (SIMULATION, "np.copyto(sent, np.inf, where=np.isnan(sent))", "pass",
     [SIM_TESTS + "test_non_finite_adversary_cannot_poison_normals[nan]"]),
    # the tracking error read off the normal agents' greatest state alone
    (SIMULATION, "np.maximum(np.abs(high - ref), np.abs(low - ref))", "np.abs(high - ref)",
     [SIM_TESTS + "test_metrics_match_the_whole_matrix_oracle"]),
    # the envelope of the normal agents alone, without the reference
    (SIMULATION, "(np.minimum(low, ref), np.maximum(high, ref))", "(low, high)",
     [SIM_TESTS + "test_metrics_match_the_whole_matrix_oracle",
      SIM_TESTS + "test_envelope_single_normal_and_reference"]),
    # the interval invariant reads only the least state, so a rise past the envelope passes
    (SIMULATION, "\n                         and high[t1:t2].max() <= upper[t1] + ENVELOPE_SLACK)", ")",
     [SIM_TESTS + "test_metrics_match_the_whole_matrix_oracle"]),
    # the interval invariant reads the least state of the interval's first round only
    (SIMULATION, "low[t1:t2].min() >= lower[t1]", "low[t1] >= lower[t1]",
     [SIM_TESTS + "test_metrics_match_the_whole_matrix_oracle"]),
    # save_graph writes graph JSON under a .txt name and an edge list under .json
    ("src/rcl/graph.py", 'if Path(path).suffix == ".json":\n        text',
     'if Path(path).suffix == ".txt":\n        text',
     ["tests/test_graph.py::test_save_load_roundtrip", "tests/test_cli.py::test_gen_graph_json_format"]),
    # the plot's reference line drawn 2.4 wide, not 2.2: a change of output bytes only the byte gate sees
    ("src/rcl/svgplot.py", 'stroke="#000000" stroke-width="2.2"', 'stroke="#000000" stroke-width="2.4"',
     ["tests/test_tools.py::test_digests_keep_every_output_byte"]),
    # ab.py loads the head tree under both names, so every ratio reads 1
    ("tools/ab.py", 'load("rcl_base", base_tree)', 'load("rcl_base", head_tree)',
     ["tests/test_tools.py::test_ab_loads_each_side_from_its_own_tree"]),
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
