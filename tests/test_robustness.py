import dataclasses
import gc
import itertools
import json
import os
import random
import re
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from helpers import (
    assert_first_violating_subset,
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
from rcl.graph import Digraph, GraphError, graph_to_json, make_k_circulant, make_undirected_circulant
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


class Prop(NamedTuple):
    """A complement property: its two deciders, its naive oracle and its
    (anchor, reach) test as a function of the decider's parameter."""
    brute: Callable
    peel: Callable
    naive: Callable
    anchor_reach: Callable[[int], tuple[int, int]]


STRONG = Prop(is_strongly_r_robust_bruteforce, is_strongly_r_robust_peeling, naive_strongly_r_robust, lambda r: (r, r))
TLF = Prop(is_tlf_robust_bruteforce, is_tlf_robust_peeling, naive_tlf_robust, lambda f: (f + 1, 2 * f + 1))


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


_COMPLEMENT_DECIDERS = (STRONG.brute, STRONG.peel, TLF.brute, TLF.peel)


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


@pytest.fixture
def low_bits(request, monkeypatch):
    """Split the enumeration counter after the parameter's number of low bits
    (16 by default).  At 2 or 3, graphs small enough for the naive oracles run
    the per-chunk (high bits) path, and a complement query on more free
    vertices than that takes the walk.  Each test builds its graphs under the
    split, so every table it reads is built there."""
    monkeypatch.setattr(robustness, "_LOW_BITS", request.param)
    return request.param


# the counter at its default width, and split after 2 and 3 low bits
@pytest.mark.parametrize("low_bits, seed, graphs, sizes", [
    pytest.param(robustness._LOW_BITS, 23, 60, (2, 8), id="default"),
    pytest.param(2, 105, 20, (3, 10), id="2"),
    pytest.param(3, 106, 20, (4, 10), id="3"),
    pytest.param(4, 107, 20, (5, 9), id="4"),
], indirect=["low_bits"])
def test_pair_witness_is_the_canonical_first_violation(low_bits, seed, graphs, sizes):
    rng = random.Random(seed)
    for _ in range(graphs):
        g = random_digraph(rng, rng.randrange(*sizes), rng.choice([0.2, 0.4, 0.6]))
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


@pytest.mark.parametrize("n", range(2, 13))
def test_complete_digraph_reaches_the_ceil_half_bound(n):
    # max_r_robustness returns the DP minimum unclipped: K_n meets ceil(n/2) exactly
    assert max_r_robustness(complete_graph(n)) == (n + 1) // 2


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
    # every graph here reads kept rows; whether TLF's anchor restriction binds:
    # a free vertex with F + 1 in-neighbors in S (so |S| >= F + 1)
    rng = random.Random(83)
    binds = set()
    for _ in range(60):
        g = random_digraph(rng, rng.randrange(2, 9), rng.choice([0.2, 0.4, 0.6]))
        s = _leader_sample(rng, g)
        for prop, param in [(STRONG, r) for r in range(-1, g.n + 2)] + [(TLF, f) for f in range(4)]:
            if param < 0:
                with pytest.raises(ValueError):
                    prop.brute(g, s, param)
                continue
            assert_first_violating_subset(prop.brute(g, s, param), g, s, *prop.anchor_reach(param))
            if prop is TLF and len(s) >= param + 1:
                binds.add(any(len(g.in_neighbors(v) & s) > param for v in g.vertices if v not in s))
    assert binds == {False, True}


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
    # S = V, with parameters past |S| too: true, with nothing to admit
    cases.append((complete_graph(5), frozenset(range(1, 6)), range(8)))
    verdicts = set()
    for g, s, rs in cases:
        for prop, param in [(STRONG, r) for r in rs] + [(TLF, f) for f in range(4)]:
            report = prop.peel(g, s, param)
            order, stalled = naive_peeling(g, s, *prop.anchor_reach(param))
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


def _spy_builds(monkeypatch) -> dict:
    """The arguments of every call of the three table builders, by name, from
    now on: M's (``_pair_table``), P's (``_partner_table``) and a row's."""
    builds = {"_pair_table": [], "_partner_table": [], "_complement_row": []}
    for name, calls in builds.items():
        build = getattr(robustness, name)
        monkeypatch.setattr(robustness, name, lambda *args, build=build, calls=calls: calls.append(args) or build(*args))
    return builds


def test_caps_and_the_budget_are_checked_before_any_cache_hit(monkeypatch):
    # a forced call keeps M (key -1) and P (-2) of C_14, and a query on (C_8,
    # {1, 2, 3}) M of C_8 and its complement row of threshold 0; every call
    # the caps refuse is still refused
    g, h = make_k_circulant(14, 3), make_k_circulant(8, 3)
    assert is_r_robust(g, 1, force=True).verdict and is_strongly_r_robust_bruteforce(h, [1, 2, 3], 1).verdict
    assert sorted(g._tables) == [-2, -1] and sorted(h._tables) == [-1, 0]
    pair_calls = [lambda g, **kw: is_r_robust(g, 1, **kw), lambda g, **kw: is_rs_robust(g, 1, 1, **kw),
                  lambda g, **kw: max_r_robustness(g, **kw)]
    for call in pair_calls:
        with pytest.raises(EnumerationCapError, match="^n=14 exceeds pairwise enumeration cap 13; "):
            call(g)
    with pytest.raises(EnumerationCapError, match="^complement size 5 exceeds enumeration cap 4; "):
        is_strongly_r_robust_bruteforce(h, [1, 2, 3], 1, cap=4)
    # a budget that refuses n = 14 refuses it forced, kept or not, before anything is built
    builds, split = [], robustness._split_outside
    monkeypatch.setattr(robustness, "_split_outside", lambda g, vertices: builds.append(vertices) or split(g, vertices))
    monkeypatch.setattr(robustness, "PAIR_SCAN_BUDGET", (2 << 14) - 1)
    for graph in (g, make_k_circulant(15, 3)):
        for call in pair_calls:
            with pytest.raises(EnumerationCapError, match=f"^n={graph.n}: two bytes for each of 2\\^{graph.n} "):
                call(graph, force=True)
    assert builds == []
    assert sorted(g._tables) == [-2, -1] and sorted(h._tables) == [-1, 0]


@pytest.mark.parametrize("low_bits", [3], indirect=True)
def test_a_graph_past_the_low_bits_keeps_no_table(low_bits, monkeypatch):
    # with the counter split after 3 low bits, a graph of 4 vertices keeps
    # nothing: each call builds M and P anew, from its own M, and answers as
    # a fresh graph and the naive oracle do
    g = make_k_circulant(4, 3)
    builds = _spy_builds(monkeypatch)
    answers = [max_r_robustness(g) for _ in range(2)]
    assert len(builds["_pair_table"]) == len(builds["_partner_table"]) == 2 and g._tables == {}
    first, second = (most for most, in builds["_partner_table"])
    assert first is not second and not first.flags.writeable and not second.flags.writeable
    fresh = Digraph(g.n, g.edges)
    assert answers == [max_r_robustness(fresh)] * 2 == [max(r for r in range(g.n + 1) if naive_is_r_robust(g, r))] * 2
    assert len(builds["_pair_table"]) == len(builds["_partner_table"]) == 3 and fresh._tables == {}


def test_cached_tables_are_read_only():
    g = make_k_circulant(8, 3)
    max_r_robustness(g)
    is_strongly_r_robust_bruteforce(g, [1, 2, 3], 1)
    assert sorted(g._tables) == [-2, -1, 0]
    for table in g._tables.values():
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1


def test_a_corpus_replayed_twice_builds_each_table_once(monkeypatch):
    # 4,375 distinct (graph, S), more than perfbench crosscheck's 4,227: each
    # graph builds M and P once and a row for each threshold it meets once,
    # strong r = 2 reading row 1 and TLF F = 1 row min(2, max in-degree)
    rng = random.Random(149)
    graphs = [random_digraph(rng, 10, rng.choice([0.3, 0.5])) for _ in range(25)]
    queries = [(g, s) for g in graphs for size in (1, 2, 3) for s in itertools.combinations(g.vertices, size)]
    builds = _spy_builds(monkeypatch)
    for _ in range(2):
        for g, s in queries:
            is_strongly_r_robust_bruteforce(g, s, 2)
            is_tlf_robust_bruteforce(g, s, 1)
        for g in graphs:
            is_r_robust(g, 2)
            max_r_robustness(g)
    rows = sorted((id(g), a) for g, a in builds["_complement_row"])
    assert rows == sorted((id(g), a) for g in graphs for a in g._tables if a >= 0)
    assert {len(g._tables) for g in graphs} <= {3, 4} and all(-2 in g._tables and -1 in g._tables for g in graphs)
    assert len(builds["_pair_table"]) == len(builds["_partner_table"]) == len(graphs)


def test_every_leader_set_of_a_graph_reads_the_same_rows(monkeypatch):
    # every S of one graph, asked twice in turn at r = 2 and 3: the graph
    # keeps one row per threshold, each built once, and every S's answer is
    # the naive oracle's
    g = make_k_circulant(7, 2)
    sets = [s for size in (1, 2, 3) for s in itertools.combinations(g.vertices, size)]
    builds = _spy_builds(monkeypatch)
    holds = set()
    for _ in range(2):
        for s in sets:
            for r in (2, 3):
                holds.add(assert_first_violating_subset(is_strongly_r_robust_bruteforce(g, s, r), g, s, r, r) is None)
    assert holds == {False, True}
    assert sorted(g._tables) == [-1, 1, 2]
    assert builds["_complement_row"] == [(g, 1), (g, 2)] and builds["_pair_table"] == [(g,)]
    assert builds["_partner_table"] == []


def test_all_63_leader_sets_of_a_graph_leave_at_most_one_row_per_threshold():
    # C_7(1..2) asked about each S of 1 to 3 members, by strong r at every r
    # and TLF at every F <= 3: one row per threshold 0 .. max in-degree, where
    # a table per (graph, S) would leave 63
    g = make_k_circulant(7, 2)
    sets = [s for size in (1, 2, 3) for s in itertools.combinations(g.vertices, size)]
    for s in sets:
        for r in range(g.n + 1):
            is_strongly_r_robust_bruteforce(g, s, r)
        for f in range(4):
            is_tlf_robust_bruteforce(g, s, f)
    assert len(sets) == 63 and sorted(g._tables) == [-1, *range(g.max_in_degree + 1)]


def test_complement_queries_build_m_once_a_row_per_threshold_and_no_p(monkeypatch):
    # strong r and TLF queries on every S of 1 or 2 members of one graph,
    # twice: M is built once, each row the queries meet once, and P, which
    # only the pair checks read, never; every answer is the naive oracle's
    g = random_digraph(random.Random(47), 9, 0.4)
    sets = [s for size in (1, 2) for s in itertools.combinations(g.vertices, size)]
    builds = _spy_builds(monkeypatch)
    for _ in range(2):
        for s in sets:
            for r in (1, 2, 3):
                assert_first_violating_subset(is_strongly_r_robust_bruteforce(g, s, r), g, s, r, r)
            for f in (0, 1):
                assert_first_violating_subset(is_tlf_robust_bruteforce(g, s, f), g, s, f + 1, 2 * f + 1)
    rows = sorted({min(reach - 1, g.max_in_degree) for reach in (1, 2, 3)})
    assert builds["_pair_table"] == [(g,)] and builds["_partner_table"] == []
    assert sorted(a for _, a in builds["_complement_row"]) == rows and sorted(g._tables) == [-1, *rows]
    assert g._tables[-1].shape == (1 << g.n,) and g._tables[-1].dtype == np.uint8


def test_no_kept_row_passes_the_cache_bound_at_16_vertices():
    # at n = 16, the most vertices a graph keeps tables for, M and P take 2^16
    # bytes each and a row, int32, 4 * 2^16, one per threshold: a graph keeps
    # at most 2 * 2^16 + (max in-degree + 1) * 4 * 2^16 bytes
    g = make_k_circulant(16, 4)
    for r in range(1, g.max_in_degree + 2):
        report = is_strongly_r_robust_bruteforce(g, {1, 2}, r)
        assert report.verdict == is_strongly_r_robust_peeling(g, {1, 2}, r).verdict, r
    assert max_r_robustness(g, force=True) == 2
    rows = [g._tables[a] for a in range(g.max_in_degree + 1)]
    assert sorted(g._tables) == [-2, -1, *range(5)] and g.max_in_degree == 4
    assert all(row.dtype == np.int32 and row.nbytes == 4 << 16 for row in rows)
    assert g._tables[-1].nbytes == g._tables[-2].nbytes == 1 << 16
    assert sum(table.nbytes for table in g._tables.values()) == (2 + 4 * 5) << 16


def test_a_graphs_tables_are_freed_with_it():
    g = make_k_circulant(8, 3)
    max_r_robustness(g)
    is_strongly_r_robust_bruteforce(g, [1, 2, 3], 1)
    assert sorted(g._tables) == [-2, -1, 0]
    kept = [weakref.ref(table) for table in g._tables.values()]
    assert all(ref() is not None for ref in kept)
    del g
    gc.collect()
    assert [ref() for ref in kept] == [None, None, None]


def test_a_graph_holding_tables_compares_and_serialises_as_a_fresh_one():
    g = make_k_circulant(8, 3)
    max_r_robustness(g)
    is_tlf_robust_bruteforce(g, [1, 2, 3], 1)
    fresh = Digraph(g.n, g.edges)
    assert g._tables and fresh._tables == {}
    assert g == fresh and hash(g) == hash(fresh) and {g: 1}[fresh] == 1
    assert graph_to_json(g) == graph_to_json(fresh) and repr(g) == repr(fresh)


def test_threads_sharing_a_graph_answer_as_one_thread_does():
    # the first queries of four threads race to build and keep the same
    # tables: the last write wins, and every answer is a lone thread's
    g = make_k_circulant(9, 3)
    sets = [s for size in (1, 2, 3) for s in itertools.combinations(g.vertices, size)]

    def answers(graph):
        reports = [is_tlf_robust_bruteforce(graph, s, f).to_json() for f in (0, 1) for s in sets]
        return reports, max_r_robustness(graph)

    expected, results = answers(Digraph(g.n, g.edges)), [None] * 4
    threads = [threading.Thread(target=lambda i=i: results.__setitem__(i, answers(g))) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * 4
    # F = 0 reads row 0 (reach 1), and F = 1 row 2 (reach 3, below the largest in-degree 3)
    assert sorted(g._tables) == [-2, -1, 0, 2]


@pytest.mark.parametrize("low_bits", [2, 3, 4], indirect=True)
def test_split_counter_complement_witness_is_the_canonical_first_violation(low_bits):
    rng = random.Random(101 + low_bits)
    for _ in range(40):
        g = random_digraph(rng, rng.randrange(low_bits + 2, 10), rng.choice([0.2, 0.4, 0.6]))
        s = frozenset(rng.sample(sorted(g.vertices), rng.randrange(1, g.n - low_bits)))
        for anchor in range(1, max(len(g.in_neighbors(v) & s) for v in g.vertices) + 3):
            for reach in range(1, g.max_in_degree + 3):
                report = robustness._bruteforce(g, robustness._vertex_mask(g.n, s), anchor, reach,
                                                Property.STRONG_R, {}, None, False)
                assert_first_violating_subset(report, g, s, anchor, reach)


@pytest.mark.parametrize("low_bits", [3], indirect=True)
def test_kept_rows_answer_exactly_the_graphs_that_fit_one_chunk(low_bits, monkeypatch):
    # a graph of 3 vertices fits the 3 low bits: one kept row, no walk; one
    # of 4 takes the walk, though only 2 of its vertices are free
    walks, walk = [], robustness._first_subset
    monkeypatch.setattr(robustness, "_first_subset", lambda n, accept: walks.append(n) or walk(n, accept))
    builds = _spy_builds(monkeypatch)
    g, h = make_k_circulant(3, 1), make_k_circulant(4, 1)
    report = is_strongly_r_robust_bruteforce(g, {1}, 2)
    assert (report.verdict, report.witness) == (False, {"violating_subset": [2]})
    assert builds["_complement_row"] == [(g, 1)] and walks == []
    report = is_strongly_r_robust_bruteforce(h, {1, 2}, 2)
    assert (report.verdict, report.witness) == (False, {"violating_subset": [3]})
    assert builds["_complement_row"] == [(g, 1)] and walks == [2] and h._tables == {}


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
                assert_first_violating_subset(report, g, s, anchor, reach)
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


def _visits(monkeypatch) -> list[tuple[int, int]]:
    """Spy on the walker: each chunk it evaluates appends its popcount(hi)
    and the number of low counters it evaluated to the list returned."""
    visited, walk = [], robustness._first_subset

    def counted(n, accept):
        def evaluate(rows, cols):
            marked = accept(rows, cols)
            visited.append((rows.start.bit_count(), marked.size))
            return marked
        return walk(n, evaluate)

    monkeypatch.setattr(robustness, "_first_subset", counted)
    return visited


def test_a_forced_query_stops_at_the_size_of_its_first_violation(monkeypatch):
    # C_42(1..6), S = {1, 2}: each of the 40 free vertices has at most two
    # in-neighbors in S, so r = 7 leaves all of them unanchored, and in-degree
    # 6, so every singleton violates; the lazy naive oracle stops at the
    # first.  Vertex 3 is at the top bit of the counter, in a chunk with one
    # of its 24 high bits set; of the 2^24 chunks, the walk visits the one
    # with none and the 24 with one.  Chunk 0 finds a singleton among its 17
    # counters of at most one member, so it evaluates no more of its 2^16,
    # and each later chunk evaluates only its low counter 0.
    g, s = make_k_circulant(42, 6), {1, 2}
    assert all(len(g.in_neighbors(v) & s) < 7 for v in g.vertices)
    assert naive_first_violating_subset(g, frozenset(s), 7, 7) == {3}
    visited = _visits(monkeypatch)
    report = is_strongly_r_robust_bruteforce(g, s, 7, force=True)
    assert (report.verdict, report.witness) == (False, {"violating_subset": [3]})
    assert sorted(high for high, _ in visited) == [0] + [1] * 24
    assert visited == [(0, 17)] + [(1, 1)] * 24


@pytest.mark.parametrize("low_bits", [4], indirect=True)
def test_a_first_chunk_with_no_violating_singleton_evaluates_all_its_counters(low_bits, monkeypatch):
    # S = {1}, r = 2: the six free vertices are unanchored, 7, 6, 5, 4 the low
    # bits.  No singleton violates (each has two or more in-neighbors), and
    # {6, 7} does, each with only 1 outside it; 2 and 3 have too many
    # in-neighbors to be in a small violating C.  So the first chunk's probe
    # of its 5 counters of at most one member marks none, and the chunk falls
    # through to all 2^4 of them.  Each chunk with one of the two high bits
    # then evaluates its 5, and the chunk with both its low counter 0.
    g = Digraph(7, {(1, 6), (7, 6), (1, 7), (6, 7), *((u, v) for u in (1, 2, 3) for v in (4, 5)),
                    *((u, v) for u in (1, 4, 5, 6, 7) for v in (2, 3))})
    visited = _visits(monkeypatch)
    report = is_strongly_r_robust_bruteforce(g, {1}, 2)
    assert report.witness == {"violating_subset": [6, 7]}
    assert naive_first_violating_subset(g, frozenset({1}), 2, 2) == {6, 7}
    assert visited == [(0, 5), (0, 1 << 4), (1, 5), (1, 5), (2, 1)]


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
                assert_first_violating_subset(report, g, s, anchor, reach)
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
        split, outside, _ = robustness._split_outside(g, robustness._vertex_mask(g.n, chosen))
        # row b is the b-th largest chosen vertex
        by_bit = sorted(chosen, reverse=True)
        in_deg = [len(g.in_neighbors(v)) for v in by_bit]
        assert split == width
        inner = np.array([[u in g.in_neighbors(v) for u in by_bit] for v in by_bit], dtype=np.int64)
        bits = (np.arange(1 << width) >> np.arange(width)[:, None]) & 1
        expected = np.array(in_deg)[:, None] - inner @ bits
        assert outside.dtype == (np.uint8 if max(in_deg) < 1 << 8 else np.uint32), (width, g.n)
        assert np.array_equal(outside, expected), (width, g.n)


@pytest.mark.parametrize("width", range(1, 17))
def test_the_width_table_holds_the_low_counters_and_their_canonical_order(width):
    low, lo = robustness._low_counters(width), list(range(1 << width))
    assert not any(array.flags.writeable for array in (low.lo, low.sizes, low.bits, low.keys, *low.upto))
    assert low.lo.tolist() == lo and low.sizes.tolist() == [j.bit_count() for j in lo]
    assert low.bits.dtype == np.uint8 and low.bits.shape == (width, 1 << width)
    for b in range(width):
        assert np.array_equal(low.bits[b], (low.lo >> b) & 1), b
    # a pruned chunk's low counters; each starts with 0, the empty counter
    # that the complement walk clears at marked[0]
    assert len(low.upto) == width // 4 + 1
    for room, cols in enumerate(low.upto):
        assert cols.tolist() == [j for j in lo if j.bit_count() <= room] and cols[0] == 0, room
    assert np.argsort(low.keys).tolist() == sorted(lo, key=lambda j: (j.bit_count(), -j))
    # int32, so a complement row built from them holds 4 bytes a subset
    assert low.keys.dtype == np.int32


def test_wide_complement_witness_is_the_canonical_first_violation():
    # 11 to 13 free vertices: low counter tables wider than the ones above
    rng = random.Random(109)
    for _ in range(3):
        g = random_digraph(rng, 14, rng.choice([0.3, 0.5]))
        s = frozenset(rng.sample(sorted(g.vertices), rng.randrange(1, 4)))
        for prop, param in [(STRONG, r) for r in range(1, g.max_in_degree + 2, 2)] + [(TLF, f) for f in range(4)]:
            assert_first_violating_subset(prop.brute(g, s, param), g, s, *prop.anchor_reach(param))


def test_complement_tables_hold_in_degrees_beyond_int8():
    # in-degrees near 140 and ten free vertices
    rng = random.Random(107)
    g = random_digraph(rng, 200, 0.7)
    s = frozenset(g.vertices) - frozenset(rng.sample(sorted(g.vertices), 10))
    verdicts = set()
    for prop, param in [(STRONG, r) for r in range(110, 171, 6)] + [(TLF, f) for f in range(50, 90, 4)]:
        brute = prop.brute(g, s, param)
        assert brute.verdict == prop.peel(g, s, param).verdict, (prop.brute.__name__, param)
        assert_first_violating_subset(brute, g, s, *prop.anchor_reach(param))
        verdicts.add(brute.verdict)
    assert verdicts == {True, False}


def _witness_in_stalled_complement(g, s, prop, param, **kwargs) -> set[bool]:
    """Assert that brute force and peeling agree and that a brute-force
    witness lies inside peeling's stalled complement T, which violates too.
    Returns {whether the witness is a proper subset of T}, or an empty set
    when the property holds."""
    report, peeled = prop.brute(g, s, param, **kwargs), prop.peel(g, s, param)
    where = (g, s, prop.brute.__name__, param)
    assert report.verdict == peeled.verdict, where
    if report.verdict:
        return set()
    witness = set(report.witness["violating_subset"])
    stalled = frozenset(peeled.witness["stalled_complement"])
    assert witness <= stalled, where
    assert naive_violates(g, s, stalled, *prop.anchor_reach(param)), where
    return {witness < stalled}


def test_every_bruteforce_witness_lies_inside_peelings_stalled_complement():
    # Violating sets are closed under union, and none meets what peeling
    # admits, so its stalled complement T is the union of all of them: T
    # violates, and it holds every brute-force witness
    rng = random.Random(151)
    seen = set()
    for _ in range(600):
        g = random_digraph(rng, rng.randrange(4, 13), rng.choice([0.2, 0.4, 0.6]))
        s = frozenset(rng.sample(sorted(g.vertices), rng.randrange(1, 4)))
        for prop, param in [(STRONG, r) for r in range(1, g.n + 1)] + [(TLF, f) for f in range(5)]:
            seen |= _witness_in_stalled_complement(g, s, prop, param)
    assert seen == {False, True}


def test_forced_walk_witnesses_lie_inside_peelings_stalled_complement():
    # the same relation at 17..22 free vertices, where brute force walks the
    # subsets instead of reading a kept row
    rng = random.Random(157)
    seen = set()
    for _ in range(40):
        leaders = rng.randrange(1, 4)
        g = random_digraph(rng, leaders + rng.randrange(17, 23), rng.choice([0.2, 0.3, 0.4]))
        s = frozenset(rng.sample(sorted(g.vertices), leaders))
        assert g.n - len(s) > robustness._LOW_BITS
        for prop, param in [(STRONG, r) for r in range(1, 8)] + [(TLF, f) for f in range(4)]:
            seen |= _witness_in_stalled_complement(g, s, prop, param, force=True)
    assert seen == {False, True}


def test_strong_peeling_r0_admits_everyone():
    g = make_k_circulant(5, 2)
    report = is_strongly_r_robust_peeling(g, {3}, 0)
    assert report.verdict
    assert sorted(report.witness["admission_order"]) == [1, 2, 4, 5]


def test_strong_peeling_c30_leader_window():
    g = make_k_circulant(30, 15)
    assert is_strongly_r_robust_peeling(g, range(22, 29), 7).verdict


# the tests below run once per property, each case with its own seed and
# range of the property's parameter (r or F)
@pytest.mark.parametrize("prop, seed, params", [
    pytest.param(STRONG, 23, lambda g: range(g.n + 1), id="strong"),
    pytest.param(TLF, 47, lambda g: range(4), id="tlf"),
])
def test_peeling_matches_bruteforce_random(prop, seed, params):
    rng = random.Random(seed)
    for _ in range(60):
        g = random_digraph(rng, rng.randrange(2, 8), rng.choice([0.2, 0.5, 0.8]))
        s = frozenset(rng.sample(sorted(g.vertices), rng.randrange(1, g.n + 1)))
        for param in params(g):
            brute, peel = prop.brute(g, s, param).verdict, prop.peel(g, s, param).verdict
            assert brute == peel == prop.naive(g, s, param), (g, s, prop.brute.__name__, param)


def relabeled(rng, g, s):
    # a random vertex relabeling pi, applied to the graph and the leader set;
    # peeling scans vertices in id order, so pi permutes that order
    image = list(g.vertices)
    rng.shuffle(image)
    pi = dict(zip(g.vertices, image))
    return Digraph(g.n, frozenset((pi[i], pi[j]) for i, j in g.edges)), frozenset(pi[v] for v in s)


@pytest.mark.parametrize("prop, seed, top", [
    pytest.param(STRONG, 29, 5, id="strong"),
    pytest.param(TLF, 79, 3, id="tlf"),
])
def test_peeling_verdict_invariant_under_scan_order(prop, seed, top):
    rng = random.Random(seed)
    for _ in range(30):
        g = random_digraph(rng, 7, 0.5)
        s = frozenset(rng.sample(range(1, 8), rng.randrange(1, 4)))
        pg, ps = relabeled(rng, g, s)
        param = rng.randrange(0, top)
        expected = prop.naive(g, s, param)
        assert prop.peel(g, s, param).verdict == expected
        assert prop.peel(pg, ps, param).verdict == expected


@pytest.mark.parametrize("prop, seed, p, leaders, top", [
    pytest.param(STRONG, 31, 0.6, 2, 8, id="strong"),
    pytest.param(TLF, 71, 0.7, 3, 4, id="tlf"),
])
def test_bruteforce_verdict_monotone_in_the_parameter(prop, seed, p, leaders, top):
    rng = random.Random(seed)
    for _ in range(20):
        g = random_digraph(rng, 7, p)
        s = frozenset(rng.sample(range(1, 8), leaders))
        verdicts = [prop.brute(g, s, param).verdict for param in range(top)]
        # once false, stays false
        assert all(a or not b for a, b in zip(verdicts, verdicts[1:]))


@pytest.mark.parametrize("prop, seed, circulant, s, param", [
    pytest.param(STRONG, 37, (8, 4), {1, 2, 3}, 3, id="strong"),
    pytest.param(TLF, 73, (9, 5), {1, 2}, 1, id="tlf"),
])
def test_true_survives_edge_additions(prop, seed, circulant, s, param):
    rng = random.Random(seed)
    g = make_k_circulant(*circulant)
    assert prop.peel(g, s, param).verdict
    edges = set(g.edges)
    candidates = [(i, j) for i in g.vertices for j in g.vertices if i != j and (i, j) not in edges]
    for _ in range(10):
        edges.add(rng.choice(candidates))
        bigger = Digraph(g.n, frozenset(edges))
        assert prop.peel(bigger, s, param).verdict
        assert prop.brute(bigger, s, param).verdict


@pytest.mark.parametrize("prop, seed, fs, param_of", [
    pytest.param(STRONG, 41, (1, 3), lambda f: 2 * f + 1, id="strong"),
    pytest.param(TLF, 53, (1, 4), lambda f: f, id="tlf"),
])
def test_leader_count_necessity(prop, seed, fs, param_of):
    # with fewer leaders than the anchor, C = V \ S violates: its in-neighbors
    # outside C lie in S.  So strong (2F+1)-robustness needs |S| >= 2F+1, and
    # TLF with parameter F needs |S| >= F+1
    rng = random.Random(seed)
    for _ in range(20):
        g = random_digraph(rng, 7, 0.8)
        param = param_of(rng.randrange(*fs))
        s = frozenset(rng.sample(range(1, 8), rng.randrange(1, prop.anchor_reach(param)[0])))
        assert not prop.brute(g, s, param).verdict
        assert not prop.peel(g, s, param).verdict


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


def test_tlf_false_witness_violates_definition():
    g = make_k_circulant(8, 2)
    report = is_tlf_robust_bruteforce(g, {1, 2}, 1)
    assert not report.verdict
    c = frozenset(report.witness["violating_subset"])
    assert not any(len(g.in_neighbors(i) & {1, 2}) >= 2 for i in c)
    assert not naive_reachable(g, c, 3)


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


def test_certificate_matches_window_scan_for_every_leader_set():
    # every n <= 8, k, F <= 3, mode and leader set, so the search over leader
    # positions runs at every leader count up to n
    cases = 0
    for n in range(2, 9):
        for k, f, mode, mask in itertools.product(range(1, n), range(4), ("strong", "tlf"), range(1 << n)):
            leaders = [v for v in range(1, n + 1) if mask >> (v - 1) & 1]
            expected = naive_circulant_certificate(n, k, leaders, f, mode).to_json()
            assert circulant_certificate(n, k, leaders, f, mode).to_json() == expected, (n, k, f, mode, leaders)
            cases += 1
    assert cases == 24_608


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
