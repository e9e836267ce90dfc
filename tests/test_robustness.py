import dataclasses
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    naive_circulant_certificate,
    naive_first_violating_pair,
    naive_first_violating_subset,
    naive_is_r_robust,
    naive_is_rs_robust,
    naive_peeling,
    naive_reachable,
    naive_strongly_r_robust,
    naive_tlf_robust,
    naive_violates,
    random_digraph,
)
from rcl import robustness
from rcl.graph import Digraph, GraphError, make_k_circulant, make_undirected_circulant
from rcl.scenarios import build_2f1_counterexample, build_rs_counterexample
from rcl.robustness import (
    EnumerationCapError,
    Property,
    RobustnessReport,
    circulant_certificate,
    circulant_r_robustness_lower_bound,
    degree_certificate,
    is_r_robust,
    is_rs_robust,
    is_strongly_r_robust_bruteforce,
    is_strongly_r_robust_peeling,
    is_tlf_robust_bruteforce,
    is_tlf_robust_peeling,
    max_r_robustness,
    r_reachable_set,
)


def complete_graph(n):
    return Digraph(n, frozenset((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j))


# ---------------------------------------------------------------------------
# r-reachability


def test_reachable_r0_returns_whole_set():
    g = make_k_circulant(6, 2)
    assert r_reachable_set(g, {2, 4, 5}, 0) == {2, 4, 5}


def test_reachable_c5_singleton():
    g = make_k_circulant(5, 2)
    assert r_reachable_set(g, {1}, 2) == {1}


def test_reachable_full_vertex_set_empty():
    g = make_k_circulant(5, 2)
    assert r_reachable_set(g, {1, 2, 3, 4, 5}, 1) == frozenset()


def test_reachable_rejects_empty_set():
    g = make_k_circulant(5, 2)
    with pytest.raises(GraphError):
        r_reachable_set(g, set(), 1)
    with pytest.raises(GraphError):
        r_reachable_set(g, {9}, 1)


def test_reports_stay_frozen_dataclasses():
    report = RobustnessReport(Property.TLF, {"f": 1, "set": [1]}, False, {"violating_subset": [2]}, "bruteforce")
    assert repr(report) == ("RobustnessReport(property=<Property.TLF: 'tlf_robust'>, params={'f': 1, 'set': [1]}, "
                            "verdict=False, witness={'violating_subset': [2]}, method='bruteforce')")
    assert [f.name for f in dataclasses.fields(report)] == ["property", "params", "verdict", "witness", "method"]
    assert report == dataclasses.replace(report) and report != dataclasses.replace(report, method="peeling")
    assert report != (Property.TLF, {"f": 1, "set": [1]}, False, {"violating_subset": [2]}, "bruteforce")
    for name in ("verdict", "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(report, name, True)
    with pytest.raises(TypeError):  # unhashable through its dict fields, as before
        hash(report)


class _Index:
    """An integer-like id that is not an int, as NumPy's are."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


_COMPLEMENT_DECIDERS = (
    is_strongly_r_robust_bruteforce,
    is_strongly_r_robust_peeling,
    is_tlf_robust_bruteforce,
    is_tlf_robust_peeling,
)


@pytest.mark.parametrize("decide", _COMPLEMENT_DECIDERS + (r_reachable_set,))
def test_deciders_reject_ids_that_are_not_integers(decide):
    g = make_k_circulant(6, 2)
    for leaders, message in (({1.5, 2}, "vertex 1.5 is not an integer id"),
                             ([True, 2], "vertex True is not an integer id"),
                             ([2, "3"], "vertex '3' is not an integer id"),
                             ([9, 0.5, 7, "x"], "vertex 0.5 is not an integer id"),
                             ((8, 2.0, 7), "vertex 2.0 is not an integer id"),
                             ([9, 7, 0, 1.5], "vertex 0 outside 1..6")):
        with pytest.raises(GraphError) as exc:
            decide(g, leaders, 1)
        assert str(exc.value) == message, (leaders, exc.value)


@pytest.mark.parametrize("decide", _COMPLEMENT_DECIDERS)
def test_complement_deciders_refuse_an_empty_leader_set(decide):
    with pytest.raises(GraphError, match="^S must be nonempty$"):
        decide(make_k_circulant(6, 2), [], 1)


@pytest.mark.parametrize("decide", _COMPLEMENT_DECIDERS + (r_reachable_set,))
def test_deciders_normalise_integer_like_ids_and_parameters(decide):
    g = make_k_circulant(7, 3)
    plain = decide(g, [2, 5], 2)
    same = decide(g, [_Index(5), _Index(2), 5], _Index(2))
    assert same == plain  # an _Index is equal to no int
    if decide is not r_reachable_set:
        assert json.dumps(same.to_json()) == json.dumps(plain.to_json())


@pytest.mark.parametrize("decide", _COMPLEMENT_DECIDERS + (r_reachable_set,))
def test_deciders_reject_parameters_that_are_not_integers(decide):
    g = make_k_circulant(6, 2)
    for param in (1.5, True, "2", None):
        with pytest.raises(ValueError, match="must be an integer"):
            decide(g, [1, 2], param)


def test_pair_deciders_reject_parameters_that_are_not_integers():
    g = make_k_circulant(6, 2)
    for call in (lambda: is_r_robust(g, 1.5), lambda: is_r_robust(g, False),
                 lambda: is_rs_robust(g, 1.5, 1), lambda: is_rs_robust(g, 1, 1.5),
                 lambda: degree_certificate(g, 1.5), lambda: degree_certificate(g, True)):
        with pytest.raises(ValueError, match="must be an integer"):
            call()
    assert is_rs_robust(g, _Index(1), _Index(2)) == is_rs_robust(g, 1, 2)
    assert degree_certificate(g, _Index(1)) == degree_certificate(g, 1)
    with pytest.raises(ValueError, match="r must be >= 0"):
        degree_certificate(g, -1)


def test_certificate_rejects_leaders_and_f_that_are_not_integers():
    with pytest.raises(GraphError, match="leader 1.5 is not an integer id"):
        circulant_certificate(6, 2, [1.5, 2], 0, "strong")
    with pytest.raises(GraphError, match="leader True is not an integer id"):
        circulant_certificate(6, 2, [True, 2], 0, "strong")
    with pytest.raises(ValueError, match="F must be an integer"):
        circulant_certificate(6, 2, [1, 2], 0.5, "strong")
    report = circulant_certificate(6, 2, [_Index(2), 1], _Index(0), "strong")
    assert report == circulant_certificate(6, 2, [1, 2], 0, "strong")
    assert report.params["leaders"] == [1, 2] and type(report.params["f"]) is int


def test_circulant_helpers_take_integer_n_and_k_only():
    for n, k in ((6, 2.0), (6.0, 2), (6, 2.5), (6, True), (True, 1)):
        with pytest.raises(ValueError, match="must be an integer"):
            circulant_certificate(n, k, [1], 0, "strong")
        with pytest.raises(ValueError, match="must be an integer"):
            circulant_r_robustness_lower_bound(n, k)
    report = circulant_certificate(_Index(6), _Index(2), [1, 2], 0, "strong")
    assert report == circulant_certificate(6, 2, [1, 2], 0, "strong")
    assert type(report.params["n"]) is int and type(report.params["k"]) is int
    assert circulant_r_robustness_lower_bound(_Index(6), _Index(3)) == 2


# ---------------------------------------------------------------------------
# r-robustness


def test_k4_is_2_robust():
    assert is_r_robust(complete_graph(4), 2).verdict


def test_directed_ring_not_2_robust_with_witness():
    g = make_k_circulant(6, 1)
    report = is_r_robust(g, 2)
    assert not report.verdict
    s1 = frozenset(report.witness["s1"])
    s2 = frozenset(report.witness["s2"])
    assert s1 and s2 and not (s1 & s2)
    assert not naive_reachable(g, s1, 2)
    assert not naive_reachable(g, s2, 2)


def test_r0_always_robust():
    g = random_digraph(random.Random(1), 6, 0.2)
    assert is_r_robust(g, 0).verdict


def test_r_robust_matches_naive_oracle():
    rng = random.Random(7)
    for _ in range(40):
        g = random_digraph(rng, rng.randrange(2, 7), rng.choice([0.2, 0.4, 0.7]))
        for r in range(0, g.n // 2 + 2):
            assert is_r_robust(g, r).verdict == naive_is_r_robust(g, r), (g, r)


def test_enumeration_cap():
    g = make_k_circulant(14, 3)
    with pytest.raises(EnumerationCapError):
        is_r_robust(g, 2)
    assert is_r_robust(g, 2, cap=14).verdict == is_r_robust(g, 2, force=True).verdict
    for decide in (is_strongly_r_robust_bruteforce, is_tlf_robust_bruteforce):
        with pytest.raises(EnumerationCapError, match="^complement size 13 exceeds enumeration cap 12; "):
            decide(g, [1], 1, cap=12)
        assert decide(g, [1], 1, cap=13).verdict == decide(g, [1], 1, force=True).verdict


@pytest.mark.parametrize("cap, message", [
    (True, "cap must be an integer, got True"),
    (1.5, "cap must be an integer, got 1.5"),
    ("3", "cap must be an integer, got '3'"),
    (-1, "cap must be >= 0, got -1"),
])
def test_caps_follow_the_integer_rule(cap, message):
    g = make_k_circulant(8, 3)
    calls = [lambda: is_r_robust(g, 1, cap=cap), lambda: is_r_robust(g, 0, cap=cap),
             lambda: is_rs_robust(g, 1, 2, cap=cap), lambda: max_r_robustness(g, cap=cap)]
    calls += [lambda decide=decide, param=param: decide(g, [1], param, cap=cap)
              for decide in (is_strongly_r_robust_bruteforce, is_tlf_robust_bruteforce) for param in (0, 1)]
    for call in calls:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_caps_take_integer_likes():
    g = make_k_circulant(8, 3)
    assert is_r_robust(g, 1, cap=np.int64(8)).verdict
    assert is_strongly_r_robust_bruteforce(g, [1], 1, cap=np.uint8(7)).verdict
    with pytest.raises(EnumerationCapError, match="^n=8 exceeds pairwise enumeration cap 7; "):
        max_r_robustness(g, cap=np.int64(7))


def test_trivial_queries_are_answered_past_the_caps():
    """r = 0 holds for every pair, and an anchor of 0 for every C, so a
    trivial query is answered before either cap; the others are still refused."""
    g = make_k_circulant(14, 3)
    plain = is_r_robust(g, 0)
    assert (plain.verdict, plain.witness, plain.method) == (True, None, "bruteforce")
    for s in (1, 2, 14):
        rs = is_rs_robust(g, 0, s)
        assert (rs.params, rs.verdict, rs.witness, rs.method) == ({"r": 0, "s": s}, True, None, "bruteforce")
    wide = make_k_circulant(23, 6)
    brute = is_strongly_r_robust_bruteforce(wide, [1, 2], 0)
    assert brute.verdict is is_strongly_r_robust_peeling(wide, [1, 2], 0).verdict is True
    assert (brute.params, brute.witness, brute.method) == ({"r": 0, "set": [1, 2]}, None, "bruteforce")
    with pytest.raises(EnumerationCapError, match="^n=14 exceeds pairwise enumeration cap 13; "):
        is_rs_robust(g, 1, 1)
    with pytest.raises(EnumerationCapError, match="^complement size 21 exceeds enumeration cap 20; "):
        is_strongly_r_robust_bruteforce(wide, [1, 2], 1)
    with pytest.raises(EnumerationCapError, match="^complement size 21 exceeds enumeration cap 20; "):
        is_tlf_robust_bruteforce(wide, [1, 2], 0)  # (anchor, reach) = (1, 1): not trivial


# ---------------------------------------------------------------------------
# (r, s)-robustness


def test_rs_with_s1_equals_r_robust():
    rng = random.Random(13)
    for _ in range(20):
        g = random_digraph(rng, rng.randrange(2, 7), 0.4)
        for r in range(0, 4):
            rs, plain = is_rs_robust(g, r, 1), is_r_robust(g, r)
            assert rs.verdict == plain.verdict
            if not plain.verdict:
                assert (rs.witness["s1"], rs.witness["s2"]) == (plain.witness["s1"], plain.witness["s2"])


def _pair(report):
    if report.verdict:
        return None
    return frozenset(report.witness["s1"]), frozenset(report.witness["s2"])


def test_pair_witness_is_the_canonical_first_violation():
    rng = random.Random(23)
    for _ in range(60):
        g = random_digraph(rng, rng.randrange(2, 8), rng.choice([0.2, 0.4, 0.6]))
        for r in range(1, 4):
            assert _pair(is_r_robust(g, r)) == naive_first_violating_pair(g, r, 1), (g, r)
            for s in sorted({1, 2, g.n}):
                report = is_rs_robust(g, r, s)
                expected = naive_first_violating_pair(g, r, s)
                assert _pair(report) == expected, (g, r, s)
                if expected is not None:
                    counts = [len(r_reachable_set(g, part, r)) for part in expected]
                    assert report.witness["reachable_counts"] == counts
        robust = itertools.takewhile(lambda r: naive_first_violating_pair(g, r, 1) is None,
                                     range(1, (g.n + 1) // 2 + 1))
        assert max_r_robustness(g) == max(robust, default=0), g


def test_k5_is_22_robust():
    assert is_rs_robust(complete_graph(5), 2, 2).verdict


def test_rs_robust_matches_naive_oracle():
    rng = random.Random(17)
    for _ in range(25):
        g = random_digraph(rng, rng.randrange(2, 6), rng.choice([0.3, 0.6]))
        for r in range(0, 3):
            for s in range(1, g.n + 1):
                assert is_rs_robust(g, r, s).verdict == naive_is_rs_robust(g, r, s), (g, r, s)


def test_rs_false_witness_violates_definition():
    g = make_k_circulant(6, 2)
    report = is_rs_robust(g, 2, 4)
    if not report.verdict:
        s1 = frozenset(report.witness["s1"])
        s2 = frozenset(report.witness["s2"])
        assert not (s1 & s2)

        def x_count(sub):
            return sum(1 for i in sub if len(g.in_neighbors(i) - sub) >= 2)

        assert x_count(s1) < len(s1)
        assert x_count(s2) < len(s2)
        assert x_count(s1) + x_count(s2) < 4


def test_rs_parameter_validation():
    g = make_k_circulant(5, 2)
    with pytest.raises(ValueError):
        is_rs_robust(g, 1, 0)
    with pytest.raises(ValueError):
        is_rs_robust(g, 1, 6)
    with pytest.raises(ValueError):
        is_rs_robust(g, -1, 1)


# ---------------------------------------------------------------------------
# strong r-robustness


def test_strong_vacuous_when_set_is_everything():
    g = make_k_circulant(5, 2)
    assert is_strongly_r_robust_bruteforce(g, g.vertices, 99).verdict


def test_strong_c10_17_leaders_7():
    g = make_k_circulant(10, 7)
    assert is_strongly_r_robust_bruteforce(g, range(1, 8), 7).verdict


def test_strong_ring_false_with_minimal_witness():
    g = make_k_circulant(6, 1)
    report = is_strongly_r_robust_bruteforce(g, {1}, 2)
    assert not report.verdict
    witness = frozenset(report.witness["violating_subset"])
    assert not naive_reachable(g, witness, 2)
    # canonical order: smallest cardinality, then lexicographic
    assert witness == {2}


def _leader_sample(rng, g):
    return frozenset(rng.sample(sorted(g.vertices), rng.randrange(1, g.n + 1)))


def test_complement_witness_is_the_canonical_first_violation():
    rng = random.Random(83)
    for _ in range(60):
        g = random_digraph(rng, rng.randrange(2, 9), rng.choice([0.2, 0.4, 0.6]))
        s = _leader_sample(rng, g)
        queries = [(is_strongly_r_robust_bruteforce, r, r, r) for r in range(-1, g.n + 2)]
        queries += [(is_tlf_robust_bruteforce, f, f + 1, 2 * f + 1) for f in range(4)]
        for decide, param, anchor, reach in queries:
            if param < 0:
                with pytest.raises(ValueError):
                    decide(g, s, param)
                continue
            report = decide(g, s, param)
            expected = naive_first_violating_subset(g, s, anchor, reach)
            assert report.verdict == (expected is None), (g, s, decide.__name__, param)
            if expected is not None:
                assert report.witness["violating_subset"] == sorted(expected), (g, s, decide.__name__, param)


def test_peeling_admission_order_matches_rescanning():
    rng = random.Random(89)
    cases = []
    for _ in range(80):
        g = random_digraph(rng, rng.randrange(2, 10), rng.choice([0.2, 0.4, 0.6]))
        cases.append((g, _leader_sample(rng, g), range(g.n + 1)))
    # graphs wider than a machine word, so the masks of eligible and seen ids
    # span more than 64 bits
    for n in (63, 64, 65, 70):
        g = random_digraph(rng, n, 0.12)
        cases.append((g, frozenset(rng.sample(sorted(g.vertices), n // 5)), range(g.max_in_degree + 2)))
    verdicts = set()
    for g, s, rs in cases:
        queries = [(is_strongly_r_robust_peeling, r, r, r) for r in rs]
        queries += [(is_tlf_robust_peeling, f, f + 1, 2 * f + 1) for f in range(4)]
        for decide, param, anchor, reach in queries:
            report = decide(g, s, param)
            order, stalled = naive_peeling(g, s, anchor, reach)
            if report.verdict:
                assert stalled == [] and report.witness == {"admission_order": order}, (g, s, param)
            else:
                assert report.witness == {"stalled_complement": stalled}, (g, s, param)
            if g.n > 64:
                verdicts.add((report.verdict, max(order, default=0) > 64))
    assert verdicts >= {(True, True), (False, True)}


def test_forced_complement_enumeration_memory_is_bounded():
    # 22 free vertices.  TLF F = 1 (anchor 2) enumerates the 18 of them with
    # fewer than two in-neighbors in S; strong r = 4 has an anchor above
    # |S| = 3, so it enumerates all 2^22 subsets, in chunks
    g, s = make_k_circulant(25, 5), {1, 2, 3}
    tracemalloc.start()
    try:
        assert is_tlf_robust_bruteforce(g, s, 1, force=True).verdict
        assert not is_strongly_r_robust_bruteforce(g, s, 4, force=True).verdict
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak


def test_forced_enumeration_past_the_counter_width_is_refused():
    with pytest.raises(EnumerationCapError, match="even forced"):
        is_r_robust(make_k_circulant(64, 2), 1, force=True)
    with pytest.raises(EnumerationCapError, match="even forced"):
        is_strongly_r_robust_bruteforce(make_k_circulant(65, 2), {1}, 1, force=True)


def test_forced_pair_scan_memory_is_bounded():
    # 2^20 subsets, counted one chunk of 2^16 low counters at a time
    tracemalloc.start()
    try:
        assert not is_r_robust(make_k_circulant(20, 6), 4, force=True).verdict
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20, peak


def test_forced_pair_scan_past_the_memory_budget_is_refused():
    # The pair DP keeps two uint8 tables over all 2^n subsets, so the budget
    # first refuses at n = `refused`, before anything is allocated.  C_24(1..6)
    # fits and is answered: in-degree 6 < r = 7 leaves no subset 7-reachable.
    # In a subprocess, so a check that does not stop is cut by the timeout
    # rather than taking the suite's memory.
    refused = (robustness.PAIR_SCAN_BUDGET // 2).bit_length()
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import json\n"
            "from rcl.graph import make_k_circulant\n"
            "from rcl.robustness import is_r_robust\n"
            "print(json.dumps(is_r_robust(make_k_circulant(24, 6), 7, force=True).to_json()))\n"
            f"is_r_robust(make_k_circulant({refused}, 6), 7, force=True)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 1
    assert f"EnumerationCapError: n={refused}: " in done.stderr, done.stderr
    assert f"memory budget of {robustness.PAIR_SCAN_BUDGET >> 20} MB" in done.stderr
    report = json.loads(done.stdout)
    s1, s2 = report["witness"]["s1"], report["witness"]["s2"]
    g = make_k_circulant(24, 6)
    assert report["verdict"] is False and s1 and s2 and not set(s1) & set(s2)
    assert not r_reachable_set(g, s1, 7) and not r_reachable_set(g, s2, 7)


CACHES = (robustness._pair_table, robustness._first_violations)


def _cache_info(cache) -> tuple[int, int]:
    info = cache.cache_info()
    return info.misses, info.bytes


def _clear_caches():
    for cache in CACHES:
        cache.cache_clear()


def test_caps_and_the_budget_are_checked_before_any_cache_hit(monkeypatch):
    # a forced call caches the pair table of C_14 and the complement table of
    # (C_8, {1, 2, 3}); every call the caps refuse is still refused
    _clear_caches()
    g, h = make_k_circulant(14, 3), make_k_circulant(8, 3)
    assert is_r_robust(g, 1, force=True).verdict and is_strongly_r_robust_bruteforce(h, [1, 2, 3], 1).verdict
    pair_calls = [lambda g, **kw: is_r_robust(g, 1, **kw), lambda g, **kw: is_rs_robust(g, 1, 1, **kw),
                  lambda g, **kw: max_r_robustness(g, **kw)]
    for call in pair_calls:
        with pytest.raises(EnumerationCapError, match="^n=14 exceeds pairwise enumeration cap 13; "):
            call(g)
    with pytest.raises(EnumerationCapError, match="^complement size 5 exceeds enumeration cap 4; "):
        is_strongly_r_robust_bruteforce(h, [1, 2, 3], 1, cap=4)
    # a budget that refuses n = 14 refuses it forced, cached or not, before anything is built
    builds, split = [], robustness._split_outside
    monkeypatch.setattr(robustness, "_split_outside", lambda g, vertices: builds.append(vertices) or split(g, vertices))
    monkeypatch.setattr(robustness, "PAIR_SCAN_BUDGET", (2 << 14) - 1)
    for graph in (g, make_k_circulant(15, 3)):
        for call in pair_calls:
            with pytest.raises(EnumerationCapError, match=f"^n={graph.n}: two bytes for each of 2\\^{graph.n} "):
                call(graph, force=True)
    assert builds == []
    assert [_cache_info(cache)[0] for cache in CACHES] == [1, 1]


def test_a_table_larger_than_the_cache_bound_is_returned_not_kept(monkeypatch):
    # the pair table of n = 8 takes 2 * 2^8 bytes
    _clear_caches()
    g = make_k_circulant(8, 3)
    monkeypatch.setattr(robustness, "CACHE_BYTES", (2 << 8) - 1)
    for _ in range(2):
        assert max_r_robustness(g) == 2
    assert _cache_info(robustness._pair_table) == (2, 0)
    # two tables fit; a third makes room by dropping the oldest
    monkeypatch.setattr(robustness, "CACHE_BYTES", 2 << 9)
    _clear_caches()
    a, b, c = (make_k_circulant(8, k) for k in (1, 2, 3))
    for graph in (a, b, c, c, b, a, c):
        max_r_robustness(graph)
    assert _cache_info(robustness._pair_table) == (4, 2 << 9)


def test_cached_tables_are_read_only():
    g = make_k_circulant(8, 3)
    for table in (*robustness._pair_table[g], robustness._first_violations[g, 0b111]):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1


def test_a_corpus_replayed_twice_builds_each_table_once():
    # more distinct (graph, S) than perfbench crosscheck's 4,227, which a
    # cache of 256 tables rebuilt on every pass
    rng = random.Random(149)
    graphs = [random_digraph(rng, 10, rng.choice([0.3, 0.5])) for _ in range(25)]
    queries = [(g, s) for g in graphs for size in (1, 2, 3) for s in itertools.combinations(g.vertices, size)]
    _clear_caches()
    for _ in range(2):
        for g, s in queries:
            is_strongly_r_robust_bruteforce(g, s, 2)
            is_tlf_robust_bruteforce(g, s, 1)
        for g in graphs:
            is_r_robust(g, 2)
            max_r_robustness(g)
    misses, held = _cache_info(robustness._first_violations)
    assert misses == len(queries) and held <= robustness.CACHE_BYTES
    assert _cache_info(robustness._pair_table)[0] == len(graphs)


@pytest.fixture
def low_bits(request, monkeypatch):
    """Split the enumeration counter after 2 or 3 low bits, so that graphs
    small enough for the naive oracles run the per-chunk (high bits) path,
    and a complement query on more free vertices than that takes the walk.
    Both caches start empty, so every table is built under the split."""
    monkeypatch.setattr(robustness, "_LOW_BITS", request.param)
    _clear_caches()
    yield request.param
    _clear_caches()


@pytest.fixture
def filled_caches():
    g = make_k_circulant(6, 2)
    is_r_robust(g, 1)
    is_strongly_r_robust_bruteforce(g, [1], 1)
    assert all(_cache_info(cache)[1] for cache in CACHES)


@pytest.mark.parametrize("low_bits", [3], indirect=True)
def test_the_low_bits_fixture_empties_both_caches(filled_caches, low_bits):
    assert [_cache_info(cache) for cache in CACHES] == [(0, 0), (0, 0)]


@pytest.mark.parametrize("low_bits", [2, 3], indirect=True)
def test_split_counter_complement_witness_is_the_canonical_first_violation(low_bits):
    rng = random.Random(101 + low_bits)
    for _ in range(40):
        g = random_digraph(rng, rng.randrange(low_bits + 2, 10), rng.choice([0.2, 0.4, 0.6]))
        s = frozenset(rng.sample(sorted(g.vertices), rng.randrange(1, g.n - low_bits)))
        for anchor in range(1, max(len(g.in_neighbors(v) & s) for v in g.vertices) + 3):
            for reach in range(1, g.max_in_degree + 3):
                report = robustness._bruteforce(g, robustness._vertex_mask(g.n, s), anchor, reach,
                                                Property.STRONG_R, {}, None, False)
                expected = naive_first_violating_subset(g, s, anchor, reach)
                assert report.verdict == (expected is None), (g, s, anchor, reach)
                if expected is not None:
                    assert report.witness["violating_subset"] == sorted(expected), (g, s, anchor, reach)


@pytest.mark.parametrize("low_bits", [3], indirect=True)
def test_the_cached_table_answers_exactly_the_queries_whose_free_vertices_fit_one_chunk(low_bits, monkeypatch):
    # 3 free vertices fit the 3 low bits: one table, no walk; 4 take the walk
    walks, walk = [], robustness._first_subset
    monkeypatch.setattr(robustness, "_first_subset", lambda n, accept: walks.append(n) or walk(n, accept))
    g = make_k_circulant(6, 1)
    report = is_strongly_r_robust_bruteforce(g, {1, 2, 3}, 2)
    assert (report.verdict, report.witness) == (False, {"violating_subset": [4]})
    assert robustness._first_violations.cache_info().misses == 1 and walks == []
    report = is_strongly_r_robust_bruteforce(g, {1, 2}, 2)
    assert (report.verdict, report.witness) == (False, {"violating_subset": [3]})
    assert robustness._first_violations.cache_info().misses == 1 and walks == [4]


@pytest.mark.parametrize("low_bits", [2, 3], indirect=True)
def test_per_anchor_domain_witness_is_the_canonical_first_violation(low_bits, monkeypatch):
    walks, walk = [], robustness._first_subset
    monkeypatch.setattr(robustness, "_first_subset", lambda n, accept: walks.append(n) or walk(n, accept))
    rng = random.Random(113 + low_bits)
    seen = set()
    for _ in range(30):
        g = random_digraph(rng, rng.randrange(2, 11), rng.choice([0.2, 0.4, 0.6]))
        s = _leader_sample(rng, g)
        s_mask, from_s = robustness._vertex_mask(g.n, s), [len(g.in_neighbors(v) & s) for v in g.vertices]
        for anchor in range(1, max(from_s) + 3):
            for reach in range(1, g.max_in_degree + 3):
                report = robustness._bruteforce(g, s_mask, anchor, reach, Property.STRONG_R, {}, None, False)
                expected = naive_first_violating_subset(g, s, anchor, reach)
                assert report.verdict == (expected is None), (g, s, anchor, reach)
                if expected is not None:
                    assert report.witness["violating_subset"] == sorted(expected), (g, s, anchor, reach)
                pruned = any(a >= anchor for v, a in zip(g.vertices, from_s) if v not in s)
                seen.add((pruned, report.verdict))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    # walks over one chunk (the unanchored domain within the low bits) and over several
    assert {n > low_bits for n in walks} == {False, True}


def test_a_query_whose_anchor_holds_every_free_vertex_builds_no_table(monkeypatch):
    # 17 free vertices, each with all of S = {1, 2, 3, 4} as in-neighbors,
    # and a directed ring through all 21
    n, s = 21, range(1, 5)
    g = Digraph(n, {(v, v % n + 1) for v in range(1, n + 1)} | {(u, v) for u in s for v in range(5, n + 1)})
    calls, split = [], robustness._split_outside
    monkeypatch.setattr(robustness, "_split_outside",
                        lambda g, vertices: calls.append(vertices) or split(g, vertices))
    for decide, param in ((is_strongly_r_robust_bruteforce, 4), (is_tlf_robust_bruteforce, 3)):
        report = decide(g, s, param)
        assert (report.verdict, report.witness) == (True, None), decide.__name__
    assert calls == []
    assert is_strongly_r_robust_peeling(g, s, 4).verdict and is_tlf_robust_peeling(g, s, 3).verdict
    # the cap still counts all 17 free vertices
    with pytest.raises(EnumerationCapError, match="^complement size 17 exceeds enumeration cap 16; "):
        is_strongly_r_robust_bruteforce(g, s, 4, cap=16)
    # anchor 5 exceeds |S|, so all 17 are enumerated; vertex 5 has in-degree 4
    report = is_strongly_r_robust_bruteforce(g, s, 5)
    assert (report.verdict, report.witness) == (False, {"violating_subset": [5]})
    assert [v.bit_count() for v in calls] == [17]


def test_a_forced_query_stops_at_the_size_of_its_first_violation(monkeypatch):
    # C_42(1..6), S = {1, 2}: each of the 40 free vertices has at most two
    # in-neighbors in S, so r = 7 leaves all of them unanchored, and in-degree
    # 6, so every singleton violates; the lazy naive oracle stops at the
    # first.  Vertex 3 is at the top bit of the counter, in a chunk with one
    # of its 24 high bits set; of the 2^24 chunks, the walk visits the one
    # with none and the 24 with one.  Chunk 0 yields a singleton, so each
    # later chunk evaluates only its low counter 0.
    g, s = make_k_circulant(42, 6), {1, 2}
    assert all(len(g.in_neighbors(v) & s) < 7 for v in g.vertices)
    assert naive_first_violating_subset(g, frozenset(s), 7, 7) == {3}
    visited, walk = [], robustness._first_subset

    def counted(n, accept):
        def evaluate(rows, cols):
            marked = accept(rows, cols)
            visited.append((rows.start.bit_count(), marked.size))
            return marked
        return walk(n, evaluate)

    monkeypatch.setattr(robustness, "_first_subset", counted)
    report = is_strongly_r_robust_bruteforce(g, s, 7, force=True)
    assert (report.verdict, report.witness) == (False, {"violating_subset": [3]})
    assert sorted(high for high, _ in visited) == [0] + [1] * 24
    assert visited[0] == (0, 1 << 16) and [size for _, size in visited[1:]] == [1] * 24


@pytest.mark.parametrize("low_bits", [4], indirect=True)
def test_a_pruned_chunk_keeps_every_low_counter_that_can_come_first(low_bits, monkeypatch):
    # at 4 low bits, once a subset of size b is found, a chunk of c high
    # members evaluates its low counters of at most b - c <= 1 members, five
    # of them, as an index array
    kept, walk = [], robustness._first_subset

    def counted(n, accept):
        def evaluate(rows, cols):
            marked = accept(rows, cols)
            if not isinstance(cols, slice):
                kept.append(marked.size)
            return marked
        return walk(n, evaluate)

    monkeypatch.setattr(robustness, "_first_subset", counted)
    rng = random.Random(139)
    for _ in range(30):
        g = random_digraph(rng, rng.randrange(6, 11), rng.choice([0.2, 0.4, 0.6]))
        s = frozenset(rng.sample(sorted(g.vertices), rng.randrange(1, 3)))
        for anchor in range(1, 4):
            for reach in range(1, g.max_in_degree + 2):
                report = robustness._bruteforce(g, robustness._vertex_mask(g.n, s), anchor, reach,
                                                Property.STRONG_R, {}, None, False)
                expected = naive_first_violating_subset(g, s, anchor, reach)
                assert report.witness == (expected and {"violating_subset": sorted(expected)}), (g, s, anchor, reach)
        if g.n <= 8:
            for r in range(1, 4):
                assert _pair(is_rs_robust(g, r, 2)) == naive_first_violating_pair(g, r, 2), (g, r)
    assert set(kept) == {1, 5}


@pytest.mark.parametrize("width", range(11, 17))
def test_split_counter_table_is_the_in_degree_minus_the_low_members(width):
    # the table's columns past 2^10 are filled bit by bit from the ones below;
    # one graph with in-degrees past 2^8 takes the uint32 table
    rng = random.Random(131 + width)
    graphs = [random_digraph(rng, width + 4, 0.5)] + [random_digraph(rng, 270, 0.97)] * (width == 12)
    for g in graphs:
        chosen = rng.sample(sorted(g.vertices), width)
        by_bit, in_deg, split, outside, _ = robustness._split_outside(g, robustness._vertex_mask(g.n, chosen))
        assert by_bit == sorted(chosen, reverse=True) and split == width
        inner = np.array([[u in g.in_neighbors(v) for u in by_bit] for v in by_bit], dtype=np.int64)
        bits = (np.arange(1 << width) >> np.arange(width)[:, None]) & 1
        expected = np.array(in_deg)[:, None] - inner @ bits
        assert outside.dtype == (np.uint8 if max(in_deg) < 1 << 8 else np.uint32), (width, g.n)
        assert np.array_equal(outside, expected), (width, g.n)


@pytest.mark.parametrize("low_bits", [2, 3], indirect=True)
def test_split_counter_pair_witness_is_the_canonical_first_violation(low_bits):
    rng = random.Random(103 + low_bits)
    for _ in range(20):
        g = random_digraph(rng, rng.randrange(low_bits + 1, 10), rng.choice([0.2, 0.4, 0.6]))
        for r in range(1, 4):
            assert _pair(is_r_robust(g, r)) == naive_first_violating_pair(g, r, 1), (g, r)
            for s in sorted({1, 2, g.n}):
                report = is_rs_robust(g, r, s)
                expected = naive_first_violating_pair(g, r, s)
                assert _pair(report) == expected, (g, r, s)
                if expected is not None:
                    counts = [len(r_reachable_set(g, part, r)) for part in expected]
                    assert report.witness["reachable_counts"] == counts
        robust = itertools.takewhile(lambda r: naive_first_violating_pair(g, r, 1) is None,
                                     range(1, (g.n + 1) // 2 + 1))
        assert max_r_robustness(g) == max(robust, default=0), g


def test_wide_complement_witness_is_the_canonical_first_violation():
    # 11 to 13 free vertices: low counter tables wider than the ones above
    rng = random.Random(109)
    for _ in range(3):
        g = random_digraph(rng, 14, rng.choice([0.3, 0.5]))
        s = frozenset(rng.sample(sorted(g.vertices), rng.randrange(1, 4)))
        queries = [(is_strongly_r_robust_bruteforce, r, r, r) for r in range(1, g.max_in_degree + 2, 2)]
        queries += [(is_tlf_robust_bruteforce, f, f + 1, 2 * f + 1) for f in range(4)]
        for decide, param, anchor, reach in queries:
            expected = naive_first_violating_subset(g, s, anchor, reach)
            report = decide(g, s, param)
            assert report.verdict == (expected is None), (g, s, decide.__name__, param)
            if expected is not None:
                assert report.witness["violating_subset"] == sorted(expected), (g, s, decide.__name__, param)


def test_complement_tables_hold_in_degrees_beyond_int8():
    # in-degrees near 140 and ten free vertices
    rng = random.Random(107)
    g = random_digraph(rng, 200, 0.7)
    s = frozenset(g.vertices) - frozenset(rng.sample(sorted(g.vertices), 10))
    verdicts = set()
    for r in range(110, 171, 6):
        brute = is_strongly_r_robust_bruteforce(g, s, r)
        assert brute.verdict == is_strongly_r_robust_peeling(g, s, r).verdict, r
        expected = naive_first_violating_subset(g, s, r, r)
        assert brute.witness == (None if expected is None else {"violating_subset": sorted(expected)}), r
        verdicts.add(brute.verdict)
    for f in range(50, 90, 4):
        brute = is_tlf_robust_bruteforce(g, s, f)
        assert brute.verdict == is_tlf_robust_peeling(g, s, f).verdict, f
        expected = naive_first_violating_subset(g, s, f + 1, 2 * f + 1)
        assert brute.witness == (None if expected is None else {"violating_subset": sorted(expected)}), f
        verdicts.add(brute.verdict)
    assert verdicts == {True, False}


def test_every_bruteforce_witness_lies_inside_peelings_stalled_complement():
    # Violating sets are closed under union, and none meets what peeling
    # admits, so its stalled complement T is the union of all of them: T
    # violates, and it holds every brute-force witness
    rng = random.Random(151)
    seen = set()
    for _ in range(600):
        g = random_digraph(rng, rng.randrange(4, 13), rng.choice([0.2, 0.4, 0.6]))
        s = frozenset(rng.sample(sorted(g.vertices), rng.randrange(1, 4)))
        queries = [(is_strongly_r_robust_bruteforce, is_strongly_r_robust_peeling, r, r, r)
                   for r in range(1, g.n + 1)]
        queries += [(is_tlf_robust_bruteforce, is_tlf_robust_peeling, f, f + 1, 2 * f + 1) for f in range(5)]
        for brute, peel, param, anchor, reach in queries:
            report, peeled = brute(g, s, param), peel(g, s, param)
            assert report.verdict == peeled.verdict, (g, s, brute.__name__, param)
            if not report.verdict:
                witness = set(report.witness["violating_subset"])
                stalled = frozenset(peeled.witness["stalled_complement"])
                assert witness <= stalled, (g, s, brute.__name__, param)
                assert naive_violates(g, s, stalled, anchor, reach), (g, s, brute.__name__, param)
                seen.add(witness < stalled)
    assert seen == {False, True}


def test_forced_walk_witnesses_lie_inside_peelings_stalled_complement():
    # the same relation at 17..22 free vertices, where brute force walks the
    # subsets instead of reading the cached table
    rng = random.Random(157)
    seen = set()
    for _ in range(40):
        leaders = rng.randrange(1, 4)
        g = random_digraph(rng, leaders + rng.randrange(17, 23), rng.choice([0.2, 0.3, 0.4]))
        s = frozenset(rng.sample(sorted(g.vertices), leaders))
        assert g.n - len(s) > robustness._LOW_BITS
        queries = [(is_strongly_r_robust_bruteforce, is_strongly_r_robust_peeling, r, r, r) for r in range(1, 8)]
        queries += [(is_tlf_robust_bruteforce, is_tlf_robust_peeling, f, f + 1, 2 * f + 1) for f in range(4)]
        for brute, peel, param, anchor, reach in queries:
            report, peeled = brute(g, s, param, force=True), peel(g, s, param)
            assert report.verdict == peeled.verdict, (g, s, brute.__name__, param)
            if not report.verdict:
                witness = set(report.witness["violating_subset"])
                stalled = frozenset(peeled.witness["stalled_complement"])
                assert witness <= stalled, (g, s, brute.__name__, param)
                assert naive_violates(g, s, stalled, anchor, reach), (g, s, brute.__name__, param)
                seen.add(witness < stalled)
    assert seen == {False, True}


def test_strong_peeling_r0_admits_everyone():
    g = make_k_circulant(5, 2)
    report = is_strongly_r_robust_peeling(g, {3}, 0)
    assert report.verdict
    assert sorted(report.witness["admission_order"]) == [1, 2, 4, 5]


def test_strong_peeling_c30_leader_window():
    g = make_k_circulant(30, 15)
    assert is_strongly_r_robust_peeling(g, range(22, 29), 7).verdict


def test_peeling_matches_bruteforce_random():
    rng = random.Random(23)
    for _ in range(60):
        g = random_digraph(rng, rng.randrange(2, 8), rng.choice([0.2, 0.5, 0.8]))
        size = rng.randrange(1, g.n + 1)
        s = frozenset(rng.sample(sorted(g.vertices), size))
        for r in range(0, g.n + 1):
            brute = is_strongly_r_robust_bruteforce(g, s, r).verdict
            peel = is_strongly_r_robust_peeling(g, s, r).verdict
            assert brute == peel == naive_strongly_r_robust(g, s, r), (g, s, r)


def relabeled(rng, g, s):
    # a random vertex relabeling pi, applied to the graph and the leader set;
    # peeling scans vertices in id order, so pi permutes that order
    image = list(g.vertices)
    rng.shuffle(image)
    pi = dict(zip(g.vertices, image))
    return Digraph(g.n, frozenset((pi[i], pi[j]) for i, j in g.edges)), frozenset(pi[v] for v in s)


def test_peeling_verdict_invariant_under_scan_order():
    rng = random.Random(29)
    for _ in range(30):
        g = random_digraph(rng, 7, 0.5)
        s = frozenset(rng.sample(range(1, 8), rng.randrange(1, 4)))
        pg, ps = relabeled(rng, g, s)
        r = rng.randrange(0, 5)
        expected = naive_strongly_r_robust(g, s, r)
        assert is_strongly_r_robust_peeling(g, s, r).verdict == expected
        assert is_strongly_r_robust_peeling(pg, ps, r).verdict == expected


def test_tlf_peeling_verdict_invariant_under_scan_order():
    rng = random.Random(79)
    for _ in range(30):
        g = random_digraph(rng, 7, 0.5)
        s = frozenset(rng.sample(range(1, 8), rng.randrange(1, 4)))
        pg, ps = relabeled(rng, g, s)
        f = rng.randrange(0, 3)
        expected = naive_tlf_robust(g, s, f)
        assert is_tlf_robust_peeling(g, s, f).verdict == expected
        assert is_tlf_robust_peeling(pg, ps, f).verdict == expected


def test_strong_monotone_in_r():
    rng = random.Random(31)
    for _ in range(20):
        g = random_digraph(rng, 7, 0.6)
        s = frozenset(rng.sample(range(1, 8), 2))
        verdicts = [is_strongly_r_robust_bruteforce(g, s, r).verdict for r in range(8)]
        # once false, stays false
        assert all(a or not b for a, b in zip(verdicts, verdicts[1:]))


def test_strong_true_survives_edge_additions():
    rng = random.Random(37)
    g = make_k_circulant(8, 4)
    s = frozenset({1, 2, 3})
    r = 3
    assert is_strongly_r_robust_peeling(g, s, r).verdict
    edges = set(g.edges)
    candidates = [(i, j) for i in g.vertices for j in g.vertices if i != j and (i, j) not in edges]
    for _ in range(10):
        edges.add(rng.choice(candidates))
        bigger = Digraph(8, frozenset(edges))
        assert is_strongly_r_robust_peeling(bigger, s, r).verdict


def test_strong_leader_count_necessity():
    # strong (2F+1)-robustness w.r.t. S is impossible when |S| < 2F+1
    rng = random.Random(41)
    for _ in range(20):
        g = random_digraph(rng, 7, 0.8)
        f = rng.randrange(1, 3)
        size = rng.randrange(1, 2 * f + 1)
        s = frozenset(rng.sample(range(1, 8), size))
        if len(s) == g.n:
            continue
        assert not is_strongly_r_robust_bruteforce(g, s, 2 * f + 1).verdict
        assert not is_strongly_r_robust_peeling(g, s, 2 * f + 1).verdict


# ---------------------------------------------------------------------------
# TLF robustness


def test_tlf_c10_17_scattered_leaders():
    g = make_k_circulant(10, 7)
    assert is_tlf_robust_bruteforce(g, {1, 4, 5}, 2).verdict
    assert is_tlf_robust_peeling(g, {1, 4, 5}, 2).verdict


def test_tlf_f0_equals_strong_1_robustness():
    rng = random.Random(43)
    for _ in range(40):
        g = random_digraph(rng, rng.randrange(2, 8), rng.choice([0.3, 0.6]))
        s = frozenset(rng.sample(sorted(g.vertices), rng.randrange(1, g.n + 1)))
        tlf = is_tlf_robust_bruteforce(g, s, 0).verdict
        strong = is_strongly_r_robust_bruteforce(g, s, 1).verdict
        assert tlf == strong


def test_tlf_peeling_matches_bruteforce_random():
    rng = random.Random(47)
    for _ in range(60):
        g = random_digraph(rng, rng.randrange(2, 8), rng.choice([0.2, 0.5, 0.8]))
        s = frozenset(rng.sample(sorted(g.vertices), rng.randrange(1, g.n + 1)))
        for f in range(0, 4):
            brute = is_tlf_robust_bruteforce(g, s, f).verdict
            peel = is_tlf_robust_peeling(g, s, f).verdict
            assert brute == peel == naive_tlf_robust(g, s, f), (g, s, f)


def test_tlf_false_witness_violates_definition():
    g = make_k_circulant(8, 2)
    report = is_tlf_robust_bruteforce(g, {1, 2}, 1)
    assert not report.verdict
    c = frozenset(report.witness["violating_subset"])
    assert not any(len(g.in_neighbors(i) & {1, 2}) >= 2 for i in c)
    assert not naive_reachable(g, c, 3)


def test_tlf_monotone_in_f():
    rng = random.Random(71)
    for _ in range(20):
        g = random_digraph(rng, 7, 0.7)
        s = frozenset(rng.sample(range(1, 8), 3))
        verdicts = [is_tlf_robust_bruteforce(g, s, f).verdict for f in range(4)]
        assert all(a or not b for a, b in zip(verdicts, verdicts[1:]))


def test_tlf_true_survives_edge_additions():
    rng = random.Random(73)
    g = make_k_circulant(9, 5)
    s = frozenset({1, 2})
    assert is_tlf_robust_peeling(g, s, 1).verdict
    edges = set(g.edges)
    candidates = [(i, j) for i in g.vertices for j in g.vertices if i != j and (i, j) not in edges]
    for _ in range(10):
        edges.add(rng.choice(candidates))
        bigger = Digraph(9, frozenset(edges))
        assert is_tlf_robust_peeling(bigger, s, 1).verdict
        assert is_tlf_robust_bruteforce(bigger, s, 1).verdict


def test_tlf_leader_count_necessity():
    rng = random.Random(53)
    for _ in range(20):
        g = random_digraph(rng, 7, 0.8)
        f = rng.randrange(1, 4)
        size = rng.randrange(1, f + 1)
        s = frozenset(rng.sample(range(1, 8), size))
        if len(s) == g.n:
            continue
        assert not is_tlf_robust_bruteforce(g, s, f).verdict
        assert not is_tlf_robust_peeling(g, s, f).verdict


# ---------------------------------------------------------------------------
# circulant certificates


def test_certificate_strong_c30_window():
    report = circulant_certificate(30, 15, range(22, 29), 3, "strong")
    assert report.verdict
    assert report.witness["window"] == list(range(22, 29))


def test_certificate_tlf_scattered_leaders():
    report = circulant_certificate(10, 7, [1, 4, 5], 2, "tlf")
    assert report.verdict
    assert report.witness["window"] == [1, 2, 3, 4, 5]


def test_certificate_empty_leaders_false():
    assert not circulant_certificate(8, 3, [], 0, "strong").verdict
    assert not circulant_certificate(8, 3, [], 0, "tlf").verdict


def test_certificate_matches_window_scan_exhaustively():
    # every n <= 10, k, F <= 3, mode and leader set of at most 4 agents
    cases = 0
    for n in range(2, 11):
        sets = [s for size in range(5) for s in itertools.combinations(range(1, n + 1), size)]
        for k, f, mode, leaders in itertools.product(range(1, n), range(4), ("strong", "tlf"), sets):
            expected = naive_circulant_certificate(n, k, leaders, f, mode).to_json()
            assert circulant_certificate(n, k, leaders, f, mode).to_json() == expected, (n, k, f, mode, leaders)
            cases += 1
    assert cases == 61_872


def test_certificate_wraps_around_modulo():
    report = circulant_certificate(15, 4, [14, 15, 1], 1, "strong")
    assert report.verdict
    assert report.witness["window"] == [14, 15, 1]


def test_certificate_soundness_vs_bruteforce():
    rng = random.Random(59)
    for _ in range(80):
        n = rng.randrange(3, 10)
        k = rng.randrange(1, n)
        f = rng.randrange(0, 3)
        leaders = frozenset(rng.sample(range(1, n + 1), rng.randrange(1, n + 1)))
        g = make_k_circulant(n, k)
        if circulant_certificate(n, k, leaders, f, "strong").verdict:
            assert is_strongly_r_robust_bruteforce(g, leaders, 2 * f + 1).verdict
        if circulant_certificate(n, k, leaders, f, "tlf").verdict:
            assert is_tlf_robust_bruteforce(g, leaders, f).verdict


def test_certificate_soundness_undirected():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randrange(4, 10)
        k = rng.randrange(1, (n - 1) // 2 + 1)
        f = rng.randrange(0, 2)
        leaders = frozenset(rng.sample(range(1, n + 1), rng.randrange(1, n + 1)))
        g = make_undirected_circulant(n, list(range(1, k + 1)))
        if circulant_certificate(n, k, leaders, f, "strong").verdict:
            assert is_strongly_r_robust_bruteforce(g, leaders, 2 * f + 1).verdict
        if circulant_certificate(n, k, leaders, f, "tlf").verdict:
            assert is_tlf_robust_bruteforce(g, leaders, f).verdict


def test_certificate_rejects_bad_input():
    with pytest.raises(ValueError):
        circulant_certificate(10, 3, [1], 1, "weak")
    with pytest.raises(GraphError):
        circulant_certificate(10, 10, [1], 1, "strong")
    with pytest.raises(GraphError):
        circulant_certificate(10, 3, [11], 1, "strong")


# ---------------------------------------------------------------------------
# degree certificate


def test_degree_certificate_is_sound_against_the_pair_dp():
    # c01-style random digraphs (n <= 10), dense enough that the certificate
    # often holds: where it does, the forced DP finds (r, s)-robustness at every s
    rng = random.Random(71)
    held = 0
    for idx in range(300):
        g = random_digraph(rng, 2 + idx % 9, (0.5, 0.7, 0.85, 0.95)[idx % 4])
        degrees = [len(g.in_neighbors(v)) for v in g.vertices]
        for r in range(0, (g.n + 1) // 2 + 1):
            report = degree_certificate(g, r)
            required = g.n // 2 + r - 1
            assert report.params == {"r": r, "required_in_degree": required}
            assert report.method == "certificate"
            vertex, least = report.witness["vertex"], report.witness["in_degree"]
            assert degrees[vertex - 1] == least == min(degrees) and least not in degrees[:vertex - 1]
            assert report.verdict == (least >= required)
            if report.verdict:
                held += 1
                for s in range(1, g.n + 1):
                    assert is_rs_robust(g, r, s, force=True).verdict, (g, r, s)
    assert held == 600


@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_degree_certificate_is_sound_on_the_counterexamples(f):
    # (r, n)-robustness implies (r, s)-robustness for every s <= n
    graphs = (build_rs_counterexample(f)[0], build_2f1_counterexample(f)[0])
    for g, r in itertools.product(graphs, (f + 1, 2 * f + 1)):
        assert degree_certificate(g, r).verdict
        assert is_rs_robust(g, r, 1, force=True).verdict and is_rs_robust(g, r, g.n, force=True).verdict


def test_degree_certificate_false_names_the_least_in_degree():
    ring = make_k_circulant(6, 1)
    report = degree_certificate(ring, 1)
    assert report.to_json() == {
        "property": "degree_certificate", "params": {"r": 1, "required_in_degree": 3},
        "verdict": False, "witness": {"vertex": 1, "in_degree": 1}, "method": "certificate",
    }
    assert degree_certificate(complete_graph(5), 3).verdict  # in-degree 4 = floor(5/2) + 3 - 1


# ---------------------------------------------------------------------------
# max r-robustness


def test_max_r_c6_13_at_least_2():
    assert max_r_robustness(make_k_circulant(6, 3)) >= 2


def test_max_r_undirected_c8_at_least_2():
    assert max_r_robustness(make_undirected_circulant(8, [1, 2])) >= 2


def test_max_r_complete_k5():
    assert max_r_robustness(complete_graph(5)) == 3


def test_max_r_matches_linear_scan():
    rng = random.Random(67)
    for _ in range(20):
        g = random_digraph(rng, rng.randrange(2, 7), rng.choice([0.3, 0.6, 0.9]))
        best = max(
            (r for r in range(0, (g.n + 1) // 2 + 1) if naive_is_r_robust(g, r)),
            default=0,
        )
        assert max_r_robustness(g) == best


def test_circulant_lower_bound_values():
    assert circulant_r_robustness_lower_bound(20, 15) == 8
    assert circulant_r_robustness_lower_bound(6, 3) == 2
