"""Graph robustness deciders.

Four families of checks:

* brute-force oracles that enumerate subsets directly against the definitions
  (r-reachability, r-robustness, (r,s)-robustness, strong r-robustness with
  respect to a set, trusted leader-follower robustness); r-robustness is
  (r, 1)-robustness, so both pair checks share one subset DP,
* a polynomial peeling procedure for the strong and TLF variants, which,
  like their brute-force checks, share one (anchor, reach) test,
* closed-form certificates for circulant graphs based on consecutive leader
  windows (sufficient conditions only),
* the maximum r for which a graph is r-robust.

Subset enumeration is exponential, so the pairwise checks refuse graphs above
an enumeration cap (default 13) and the complement-subset checks refuse free
sets above a second cap (default 20), unless forced.  Witnesses are the first
violation in canonical order: by size, then lexicographically by sorted
vertex tuple.

Both enumerations share one split counter, j = (hi << L) | lo with L the
smaller of 16 and the number of enumerated vertices.  A vertex's in-degree
outside the enumerated set is ``in_deg - popcount(lo & in_lo) -
popcount(hi & in_hi)``: the low part is one int16 table per call (int32 once
an in-degree reaches 2^15), and each hi is a chunk of 2^L counters that
subtracts a per-vertex constant, so counting holds about (vertices x 2^16)
small ints however many subsets there are.  The pair checks are a DP in
O(n 2^n): a uint8 table over all subsets and one minimum over submasks give
each subset its best disjoint partner.  The complement checks enumerate V \\ S
once per (graph, S) into a small table of the first violating C per pair of
degree bounds, so a query is one lookup; its key comes straight from the
enumeration counter.  Peeling admits from a heap of eligible ids.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable

import numpy as np

from .graph import Digraph, GraphError

DEFAULT_PAIR_CAP = 13
DEFAULT_COMPLEMENT_CAP = 20
# Bytes the pair DP may spend: two for each of the 2^n subsets (a uint8 table
# and its submask-minimum copy).  n = 26 takes 128 MB, n = 28 the whole budget,
# and n = 29 is the first size refused, even forced.
PAIR_SCAN_BUDGET = 512 * 2**20


class EnumerationCapError(RuntimeError):
    """Raised when a brute-force check would exceed its cap or memory budget."""


class Property(str, Enum):
    R_ROBUST = "r_robust"
    RS_ROBUST = "rs_robust"
    STRONG_R = "strong_r_robust"
    TLF = "tlf_robust"
    CIRCULANT_CERTIFICATE = "circulant_certificate"


@dataclass(frozen=True)
class RobustnessReport:
    """Verdict for one property query, with a machine-checkable witness.

    A false verdict always carries a witness that violates the definition;
    a true peeling verdict carries the admission order, and a true certificate
    carries the satisfying window.
    """

    property: Property
    params: dict
    verdict: bool
    witness: dict | None
    method: str

    def to_json(self) -> dict:
        return {
            "property": self.property.value,
            "params": self.params,
            "verdict": self.verdict,
            "witness": self.witness,
            "method": self.method,
        }


# ---------------------------------------------------------------------------
# mask helpers


def _vertex_set(g: Digraph, s: Iterable[int]) -> frozenset[int]:
    out = frozenset(s)
    for v in out:
        if not (1 <= v <= g.n):
            raise GraphError(f"vertex {v} outside 1..{g.n}")
    return out


def _mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


# ---------------------------------------------------------------------------
# the split enumeration counter, shared by both exact families

_LOW_BITS = 16


@lru_cache(maxsize=None)
def _low_counters(width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The low counters lo = 0 .. 2^width - 1, their popcounts and their bits
    (row b is bit b); they depend on nothing but the width."""
    lo = np.arange(1 << width, dtype=np.int32)
    bits = ((lo >> np.arange(width, dtype=np.int32)[:, None]) & 1).astype(bool)
    tables = lo, np.bitwise_count(lo).astype(np.int64), bits
    for table in tables:
        table.flags.writeable = False
    return tables


def _split_outside(g: Digraph, by_bit: list[int]) -> tuple[int, np.ndarray, np.ndarray]:
    """The counter over the vertices ``by_bit``, vertex ``by_bit[b]`` at bit b,
    split at ``width = min(len(by_bit), _LOW_BITS)``.

    Row b of the first array is the in-degree of ``by_bit[b]`` minus its
    in-neighbors among the members of each low counter, in int16 (int32 once an
    in-degree reaches 2^15); counter ``(hi << width) | lo`` also subtracts
    ``popcount(hi & high[b])``, ``high`` being the second.  Returns ``width``
    and the two arrays.
    """
    if len(by_bit) > 62:  # the counter is an int64
        raise EnumerationCapError(
            f"cannot enumerate the subsets of {len(by_bit)} vertices, even forced"
        )
    width = min(len(by_bit), _LOW_BITS)
    pos = {v: b for b, v in enumerate(by_bit)}
    masks = [sum(1 << pos[u] for u in g.in_neighbors(v) if u in pos) for v in by_bit]
    masks = np.array(masks, dtype=np.int64)
    in_deg = [g.in_masks[v - 1].bit_count() for v in by_bit]
    dtype = np.int16 if max(in_deg) < 1 << 15 else np.int32
    # popcount the first 10 bits; doubling the table per further bit is cheaper
    base = min(width, 10)
    low = (masks & ((1 << base) - 1))[:, None] & _low_counters(base)[0]
    outside = np.array(in_deg, dtype=dtype)[:, None] - np.bitwise_count(low)
    for b in range(base, width):
        outside = np.hstack([outside, outside - ((masks >> b) & 1).astype(dtype)[:, None]])
    return width, outside, masks >> width


# ---------------------------------------------------------------------------
# reachability


def r_reachable_set(g: Digraph, s: Iterable[int], r: int) -> frozenset[int]:
    """Members of S with at least r in-neighbors outside S.

    S is r-reachable iff the result is nonempty.
    """
    subset = _vertex_set(g, s)
    if not subset:
        raise GraphError("subset must be nonempty")
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    return frozenset(i for i in subset if len(g.in_neighbors(i) - subset) >= r)


# ---------------------------------------------------------------------------
# pairwise subset checks (r- and (r,s)-robustness)


def _subset_table(g: Digraph, cap: int | None, force: bool, fill) -> np.ndarray:
    """A uint8 table of ``fill(outside, members, sizes)`` over the subsets j of V,
    a chunk at a time; row b of the first two is vertex n - b (bit b of j): its
    in-degree outside each j and whether it is in j.  Refused past the cap unless
    forced, and past ``PAIR_SCAN_BUDGET`` even forced, before allocating."""
    n, limit = g.n, DEFAULT_PAIR_CAP if cap is None else cap
    if n > limit and not force:
        raise EnumerationCapError(
            f"n={n} exceeds pairwise enumeration cap {limit}; pass force=True to override"
        )
    if 2 << n > PAIR_SCAN_BUDGET:
        raise EnumerationCapError(
            f"n={n}: two bytes for each of 2^{n} subsets exceed the pair DP's memory budget "
            f"of {PAIR_SCAN_BUDGET >> 20} MB (PAIR_SCAN_BUDGET), even forced"
        )
    table = np.empty(1 << n, dtype=np.uint8)
    width, outside, high = _split_outside(g, list(g.vertices)[::-1])
    _, sizes, bits = _low_counters(width)
    members = np.vstack([bits, np.empty((n - width, 1 << width), dtype=bool)])
    for hi in range(1 << (n - width)):
        members[width:] = ((hi >> np.arange(n - width)) & 1).astype(bool)[:, None]
        chunk = outside - np.bitwise_count(high & hi)[:, None] if hi else outside
        table[hi << width:(hi + 1) << width] = fill(chunk, members, sizes + hi.bit_count())
    return table


def _submask_min(table: np.ndarray) -> np.ndarray:
    """In place: ``table[m]`` becomes the minimum of ``table`` over the submasks of m."""
    for b in range(table.size.bit_length() - 1):
        pairs = table.reshape(-1, 2, 1 << b)
        # NumPy loops once per row of 2^b, so the shortest rows go column-wise
        for part in [pairs[..., i] for i in range(1 << b)] if b < 3 else [pairs]:
            np.minimum(part[:, 0], part[:, 1], out=part[:, 1])
    return table


def _first_subset(n: int, accept) -> int | None:
    """The canonically first subset j (vertex n - b at bit b) that
    ``accept(rows, j)`` marks, a chunk of j at a time, or None.  Within one
    size the order is descending j, so the key is ``(popcount(j) << n) - j``."""
    keys, step = [], 1 << min(n, _LOW_BITS)
    for start in range(0, 1 << n, step):
        j = np.arange(start, start + step)
        j = j[accept(slice(start, start + step), j)]
        if j.size:
            keys.append(int(((np.bitwise_count(j).astype(np.int64) << n) - j).min()))
    return -min(keys) & ((1 << n) - 1) if keys else None


def _pair_scan(
    g: Digraph, r: int, s: int, prop: Property, params: dict, cap: int | None, force: bool,
) -> RobustnessReport:
    """Every nonempty disjoint pair (S1, S2) has all of S1 r-reachable, all of
    S2, or >= s r-reachable members in total, by a subset DP.  A false verdict
    carries the first violating pair in canonical subset order."""
    n, r = g.n, min(r, g.n)

    def count_bad(outside, members, sizes):
        counts = ((outside >= r) & members).sum(axis=0, dtype=np.uint8)  # r-reachable members
        # bad: fewer than s r-reachable members, and not all (so not the empty j)
        return np.where((counts < s) & (counts < sizes), counts, 255)

    bad = _subset_table(g, cap, force, count_bad)  # the r-reachable count of a bad j, else 255
    partner = _submask_min(bad.copy())[::-1]  # partner[j]: the fewest in a bad subset of ~j
    s1 = _first_subset(n, lambda rows, _: partner[rows] < s - bad[rows].astype(np.int16))
    if s1 is None:
        return RobustnessReport(prop, params, True, None, "bruteforce")
    s2 = _first_subset(n, lambda rows, j: (bad[rows] < s - int(bad[s1])) & ((j & s1) == 0))
    witness = {
        "s1": [v for v in g.vertices if s1 >> (n - v) & 1],
        "s2": [v for v in g.vertices if s2 >> (n - v) & 1],
    }
    if prop is Property.RS_ROBUST:
        witness["reachable_counts"] = [int(bad[s1]), int(bad[s2])]
    return RobustnessReport(prop, params, False, witness, "bruteforce")


def is_r_robust(
    g: Digraph, r: int, *, cap: int | None = None, force: bool = False
) -> RobustnessReport:
    """Every pair of nonempty disjoint vertex subsets has an r-reachable member.

    This is (r, 1)-robustness; a false verdict carries the first violating
    pair in canonical subset order.
    """
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    params = {"r": r}
    if r == 0:
        return RobustnessReport(Property.R_ROBUST, params, True, None, "bruteforce")
    return _pair_scan(g, r, 1, Property.R_ROBUST, params, cap, force)


def is_rs_robust(
    g: Digraph, r: int, s: int, *, cap: int | None = None, force: bool = False
) -> RobustnessReport:
    """(r, s)-robustness by a DP over all subsets, as exact as enumerating the pairs.

    For every nonempty disjoint pair (S1, S2), at least one of: all of S1 is
    r-reachable, all of S2 is, or the r-reachable members of both total >= s.
    """
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if not (1 <= s <= g.n):
        raise ValueError(f"s must be in [1, n]={g.n}, got {s}")
    params = {"r": r, "s": s}
    return _pair_scan(g, r, s, Property.RS_ROBUST, params, cap, force)


def max_r_robustness(g: Digraph, *, cap: int | None = None, force: bool = False) -> int:
    """Largest r for which the graph is r-robust, at most ceil(n/2): the minimum over S1 of
    max(M[S1], min of M over the subsets of ~S1), M[j] the largest outside in-degree in j."""
    most = _subset_table(g, cap, force,
                         lambda outside, members, _: np.where(members, outside, 0).max(axis=0))
    most[0] = 255  # the empty set is no half of a pair
    np.maximum(most, _submask_min(most.copy())[::-1], out=most)
    return min((g.n + 1) // 2, int(most.min()))


# ---------------------------------------------------------------------------
# complement-subset checks (strong r-robustness, TLF robustness)


_NO_VIOLATION = np.iinfo(np.int64).max


@lru_cache(maxsize=256)
def _first_violations(g: Digraph, s_mask: int) -> np.ndarray:
    """``first[a, o]``: the smallest canonical key of a nonempty C in V \\ S
    whose members have at most a in-neighbors in S and at most o outside C,
    else ``_NO_VIOLATION``; rows and columns stop at the largest degree.

    Bit b of the counter j stands for ``free[f-1-b]``, so within one size the
    canonical order is descending j, and the key is
    ``(popcount(j) << f) | (2^f - 1 - j)``.  j is split at the low
    ``min(f, _LOW_BITS)`` bits: the low counters' in-degrees outside C (int16,
    or int32 once an in-degree reaches 2^15), maxima from S and key terms are
    built once, and each hi adds its own members and constants to them.  A
    non-member counts 0 outside C, which never raises the maximum of a nonempty
    C.  Callers skip the cache (``__wrapped__``) above 16 free vertices.
    """
    free = [v for v in g.vertices if not (s_mask >> (v - 1)) & 1]
    f, top = len(free), (1 << len(free)) - 1
    by_bit = free[::-1]
    width, outside, high = _split_outside(g, by_bit)
    lo, sizes, bits = _low_counters(width)
    from_s = [(g.in_masks[v - 1] & s_mask).bit_count() for v in by_bit]
    rows, cols = max(from_s) + 1, int(outside[:, 0].max()) + 1  # lo = 0: the in-degrees
    from_s = np.array(from_s, dtype=outside.dtype)  # keeps bits * from_s narrow
    low_outside = bits * outside[:width]
    low_cell = (bits * from_s[:width, None]).max(axis=0) * np.int64(cols)
    low_key = (sizes << f) - lo
    first = np.full(rows * cols, _NO_VIOLATION, dtype=np.int64)
    max_outside, cell = low_outside.max(axis=0), low_cell  # hi = 0
    for hi in range(1 << (f - width)):
        if hi:
            ph = np.bitwise_count(high & hi)[:, None]
            members = [b for b in range(width, f) if hi >> (b - width) & 1]
            max_outside = np.maximum(
                (low_outside - ph[:width]).max(axis=0), (outside[members] - ph[members]).max(axis=0)
            )
            cell = np.maximum(low_cell, int(from_s[members].max()) * cols)
        start = 0 if hi else 1  # the empty C
        key = low_key[start:] + ((hi.bit_count() << f) + top - (hi << width))
        np.minimum.at(first, (cell + max_outside)[start:], key)
    first = first.reshape(rows, cols)
    np.minimum.accumulate(first, axis=0, out=first)
    np.minimum.accumulate(first, axis=1, out=first)
    first.flags.writeable = False  # cached tables are shared by every caller
    return first


def _leader_set(g: Digraph, s: Iterable[int]) -> frozenset[int]:
    subset = _vertex_set(g, s)
    if not subset:
        raise GraphError("S must be nonempty")
    return subset


def _bruteforce(
    g: Digraph, s: frozenset[int], anchor: int, reach: int,
    prop: Property, params: dict, cap: int | None, force: bool,
) -> RobustnessReport:
    """Every nonempty C in V \\ S has a member with >= anchor in-neighbors in S
    or >= reach in-neighbors outside C, by enumeration.  A false verdict
    carries the first violating C in canonical subset order."""
    free, limit = g.n - len(s), DEFAULT_COMPLEMENT_CAP if cap is None else cap
    if free == 0:
        return RobustnessReport(prop, params, True, None, "bruteforce")
    if free > limit and not force:
        raise EnumerationCapError(
            f"complement size {free} exceeds enumeration cap {limit}; pass force=True to override"
        )
    if anchor > 0 and reach > 0:
        build = _first_violations if free <= 16 else _first_violations.__wrapped__
        first = build(g, _mask_of(s))
        key = int(first[min(anchor, first.shape[0]) - 1, min(reach, first.shape[1]) - 1])
        if key != _NO_VIOLATION:
            j = (1 << free) - 1 - (key & ((1 << free) - 1))
            outside = [v for v in g.vertices if v not in s]
            witness = {"violating_subset": [v for p, v in enumerate(outside) if j >> (free - 1 - p) & 1]}
            return RobustnessReport(prop, params, False, witness, "bruteforce")
    return RobustnessReport(prop, params, True, None, "bruteforce")


def _peeling(
    g: Digraph, s: frozenset[int], anchor: int, reach: int, prop: Property, params: dict
) -> RobustnessReport:
    """Grow R from S by admitting the lowest-id vertex outside R with >= anchor
    in-neighbors in S or >= reach in-neighbors in R; the property holds iff R
    reaches the full vertex set.  Eligibility only grows with R, so the
    verdict does not depend on the scan order, and a heap of eligible ids fed
    by in-counts admits in the order a rescan would.  The witness is the
    admission order (true) or the stalled complement (false)."""
    s_mask, low = _mask_of(s), min(anchor, reach)
    in_r = [(m & s_mask).bit_count() for m in g.in_masks]  # in-neighbors in R
    eligible = [v for v, count in zip(g.vertices, in_r) if count >= low and v not in s]
    seen = {*s, *eligible}
    admitted: list[int] = []
    # once every vertex is seen, the rest leave the heap in id order
    while eligible and len(seen) < g.n:
        v = heapq.heappop(eligible)
        admitted.append(v)
        for w in g.out_neighbors(v) - seen:
            in_r[w - 1] += 1
            if in_r[w - 1] >= reach:
                seen.add(w)
                heapq.heappush(eligible, w)
    if len(seen) == g.n:
        return RobustnessReport(prop, params, True, {"admission_order": admitted + sorted(eligible)}, "peeling")
    witness = {"stalled_complement": [v for v in g.vertices if v not in seen]}
    return RobustnessReport(prop, params, False, witness, "peeling")


# Strong r-robustness is the (anchor, reach) = (r, r) test: S and C are
# disjoint, so an in-neighbor in S is also outside C (or, when peeling, in R).
# TLF robustness with parameter F is the (F+1, 2F+1) test.


def is_strongly_r_robust_bruteforce(
    g: Digraph, s: Iterable[int], r: int, *, cap: int | None = None, force: bool = False
) -> RobustnessReport:
    """Check every nonempty C in V \\ S for r-reachability, by enumeration."""
    subset = _leader_set(g, s)
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    params = {"r": r, "set": sorted(subset)}
    return _bruteforce(g, subset, r, r, Property.STRONG_R, params, cap, force)


def is_tlf_robust_bruteforce(
    g: Digraph, s: Iterable[int], f: int, *, cap: int | None = None, force: bool = False
) -> RobustnessReport:
    """Trusted leader-follower robustness with parameter F, by enumeration.

    Every nonempty C in V \\ S must contain a vertex with >= F+1 in-neighbors
    in S, or be (2F+1)-reachable.
    """
    subset = _leader_set(g, s)
    if f < 0:
        raise ValueError(f"F must be >= 0, got {f}")
    params = {"f": f, "set": sorted(subset)}
    return _bruteforce(g, subset, f + 1, 2 * f + 1, Property.TLF, params, cap, force)


def is_strongly_r_robust_peeling(g: Digraph, s: Iterable[int], r: int) -> RobustnessReport:
    """Polynomial decision for strong r-robustness w.r.t. S: starting from
    R = S, admit vertices with >= r in-neighbors already in R."""
    subset = _leader_set(g, s)
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    params = {"r": r, "set": sorted(subset)}
    return _peeling(g, subset, r, r, Property.STRONG_R, params)


def is_tlf_robust_peeling(g: Digraph, s: Iterable[int], f: int) -> RobustnessReport:
    """Polynomial decision for TLF robustness with parameter F: starting from
    R = S, admit vertices with >= F+1 in-neighbors in S or >= 2F+1
    in-neighbors already in R."""
    subset = _leader_set(g, s)
    if f < 0:
        raise ValueError(f"F must be >= 0, got {f}")
    params = {"f": f, "set": sorted(subset)}
    return _peeling(g, subset, f + 1, 2 * f + 1, Property.TLF, params)


# ---------------------------------------------------------------------------
# circulant certificates


def circulant_certificate(
    n: int, k: int, leaders: Iterable[int], f: int, mode: str
) -> RobustnessReport:
    """Consecutive-window certificate for circulant graphs C_n(1..k) / C_n(+-1..+-k).

    ``strong`` mode: some window of <= k consecutive agents contains >= 2F+1
    leaders, certifying strong (2F+1)-robustness w.r.t. the leader set.
    ``tlf`` mode: some window of <= k-F consecutive agents contains >= F+1
    leaders, certifying TLF robustness with parameter F.

    The certificate is sufficient only: a false result does not rule out the
    property.  The witness is the shortest satisfying window (earliest start
    on ties).
    """
    if mode not in ("strong", "tlf"):
        raise ValueError(f"mode must be 'strong' or 'tlf', got {mode!r}")
    if n < 2 or not (1 <= k <= n - 1):
        raise GraphError(f"invalid circulant parameters n={n}, k={k}")
    if f < 0:
        raise ValueError(f"F must be >= 0, got {f}")
    leader_set = frozenset(leaders)
    for v in leader_set:
        if not (1 <= v <= n):
            raise GraphError(f"leader {v} outside 1..{n}")
    max_len = k if mode == "strong" else k - f
    required = 2 * f + 1 if mode == "strong" else f + 1
    params = {"n": n, "k": k, "f": f, "mode": mode, "leaders": sorted(leader_set)}
    leaders_before = [0, *itertools.accumulate(s % n + 1 in leader_set for s in range(2 * n))]
    for length, start in itertools.product(range(1, min(max_len, n) + 1), range(n)):
        if leaders_before[start + length] - leaders_before[start] >= required:
            window = [(start + j) % n + 1 for j in range(length)]
            return RobustnessReport(Property.CIRCULANT_CERTIFICATE, params, True, {"window": window}, "certificate")
    return RobustnessReport(Property.CIRCULANT_CERTIFICATE, params, False, None, "certificate")


def circulant_r_robustness_lower_bound(n: int, k: int) -> int:
    """Known lower bound on the r-robustness of C_n(1..k): ceil(k/2)."""
    if n < 2 or not (1 <= k <= n - 1):
        raise GraphError(f"invalid circulant parameters n={n}, k={k}")
    return (k + 1) // 2
