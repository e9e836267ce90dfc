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
popcount(hi & in_hi)``: the low part is one uint8 table per call (uint32 once
an in-degree reaches 2^8), and each hi is a chunk of 2^L counters that
subtracts a per-vertex constant, so counting holds about (vertices x 2^16)
small ints however many subsets there are.  The pair checks are a DP in
O(n 2^n): a uint8 table over all subsets and one minimum over submasks give
each subset its best disjoint partner.  The complement checks enumerate V \\ S
once per (graph, S) into a small table of the first violating C per pair of
degree bounds, so a query is one lookup; its key comes straight from the
enumeration counter, and so does a false verdict's witness.  Peeling works on
bitmasks: the eligible ids are one int, the lowest set bit is admitted next,
and each admission recounts, one popcount each, the in-neighbors in R of its
out-neighbors (``Digraph.out_masks``) not yet eligible.

Every public decider takes vertex ids and integer parameters by the one rule
of ``graph`` (as ``operator.index`` does, bools excepted, normalised to int);
a bad id raises GraphError naming the smallest one, a bad parameter
ValueError.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable

import numpy as np

from .graph import Digraph, GraphError, _circulant, _count, _integer, _vertex_mask

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


@dataclass(frozen=True, init=False)
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

    def __init__(self, property: Property, params: dict, verdict: bool, witness: dict | None,
                 method: str) -> None:
        # frozen: store straight into the instance dict, not through setattr
        fields = self.__dict__
        fields["property"], fields["params"], fields["verdict"] = property, params, verdict
        fields["witness"], fields["method"] = witness, method

    def to_json(self) -> dict:
        return {
            "property": self.property.value,
            "params": self.params,
            "verdict": self.verdict,
            "witness": self.witness,
            "method": self.method,
        }


def _members(mask: int) -> list[int]:
    """The vertices of a bitmask (vertex v at bit v - 1), in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


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


def _split_outside(g: Digraph, vertices: int) -> tuple[list[int], list[int], int, np.ndarray, np.ndarray]:
    """The counter over the vertices of the mask ``vertices``, the b-th largest
    at bit b, split at ``width = min(count, _LOW_BITS)``.

    Returns the vertices by bit, their in-degrees, ``width`` and two arrays.
    Row b of the first is the in-degree of vertex b minus its in-neighbors
    among the members of each low counter, in uint8 (uint32 once an in-degree
    reaches 2^8).  Row b of the second is vertex b's in-neighbors as a mask by
    bit, so counter ``(hi << width) | lo`` also subtracts ``popcount(mask &
    hi << width)``; the low and high members are disjoint, so that never
    takes an unsigned count below zero.
    """
    by_bit, bit_of, rest = [], [0] * (g.n + 1), vertices
    while rest:
        v = rest.bit_length()
        bit_of[v] = 1 << len(by_bit)
        by_bit.append(v)
        rest ^= 1 << (v - 1)
    if len(by_bit) > 62:  # the counter is an int64
        raise EnumerationCapError(
            f"cannot enumerate the subsets of {len(by_bit)} vertices, even forced"
        )
    masks, in_deg = [], []
    for v in by_bit:
        in_mask = g.in_masks[v - 1]
        in_deg.append(in_mask.bit_count())
        inner, bits = in_mask & vertices, 0
        while inner:
            low = inner & -inner
            inner ^= low
            bits |= bit_of[low.bit_length()]
        masks.append(bits)
    width = min(len(by_bit), _LOW_BITS)
    dtype = np.uint8 if max(in_deg) < 1 << 8 else np.uint32
    masks = np.array(masks, dtype=np.int64)
    # popcount the first 10 bits (lo < 2^10, so the mask's low 32 bits are
    # enough); doubling the table per further bit is cheaper
    lo = _low_counters(min(width, 10))[0]
    outside = np.array(in_deg, dtype=dtype)[:, None] - np.bitwise_count(masks.astype(np.int32)[:, None] & lo)
    for b in range(10, width):
        outside = np.hstack([outside, outside - ((masks >> b) & 1).astype(dtype)[:, None]])
    return by_bit, in_deg, width, outside, masks


# ---------------------------------------------------------------------------
# reachability


def r_reachable_set(g: Digraph, s: Iterable[int], r: int) -> frozenset[int]:
    """Members of S with at least r in-neighbors outside S.

    S is r-reachable iff the result is nonempty.
    """
    mask = _vertex_mask(g.n, s)
    if not mask:
        raise GraphError("subset must be nonempty")
    r = _count(r, "r")
    return frozenset(i for i in _members(mask) if (g.in_masks[i - 1] & ~mask).bit_count() >= r)


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
    *_, width, outside, masks = _split_outside(g, (1 << n) - 1)
    _, sizes, bits = _low_counters(width)
    members = np.vstack([bits, np.empty((n - width, 1 << width), dtype=bool)])
    for hi in range(1 << (n - width)):
        members[width:] = ((hi >> np.arange(n - width)) & 1).astype(bool)[:, None]
        chunk = outside - np.bitwise_count(masks & (hi << width))[:, None] if hi else outside
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
    r = _count(r, "r")
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
    r, s = _count(r, "r"), _integer(s, "s")
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

    Bit b of the counter j stands for the b-th largest vertex of V \\ S, so
    within one size the canonical order is descending j, and the key is
    ``(popcount(j) << f) | (2^f - 1 - j)``.  j is split at the low
    ``min(f, _LOW_BITS)`` bits: the low counters' in-degrees outside C, maxima
    from S and key terms are built once, and each hi adds its own members and
    constants to them.  A non-member counts 0 outside C, which never raises the
    maximum of a nonempty C.  Callers skip the cache (``__wrapped__``) above 16
    free vertices.
    """
    by_bit, in_deg, width, outside, masks = _split_outside(g, ((1 << g.n) - 1) & ~s_mask)
    f, top = len(by_bit), (1 << len(by_bit)) - 1
    lo, sizes, bits = _low_counters(width)
    from_s = [(g.in_masks[v - 1] & s_mask).bit_count() for v in by_bit]
    rows, cols = max(from_s) + 1, max(in_deg) + 1
    # a C's cell is its row (from S) times cols plus its column (outside); both
    # are maxima over the members, so a product with the 0/1 members masks them
    low_members = bits.view(np.uint8)
    cell_of = np.array([a * cols for a in from_s], dtype=np.uint8 if rows * cols <= 1 << 8 else np.uint32)
    low_cell = (low_members * cell_of[:width, None]).max(axis=0)
    low_key = (sizes << f) - lo
    first = np.full(rows * cols, _NO_VIOLATION, dtype=np.int64)
    for hi in range(1 << (f - width)):
        if hi:
            chunk = outside - np.bitwise_count(masks & (hi << width))[:, None]
            members = [b for b in range(width, f) if hi >> (b - width) & 1]
            max_outside = np.maximum((low_members * chunk[:width]).max(axis=0), chunk[members].max(axis=0))
            cell = np.maximum(low_cell, cell_of[members].max())
        else:
            max_outside, cell = (low_members * outside[:width]).max(axis=0), low_cell
        start = 0 if hi else 1  # the empty C
        key = low_key[start:] + ((hi.bit_count() << f) + top - (hi << width))
        np.minimum.at(first, (cell + max_outside)[start:], key)
    first = first.reshape(rows, cols)
    np.minimum.accumulate(first, axis=0, out=first)
    np.minimum.accumulate(first, axis=1, out=first)
    first.flags.writeable = False  # cached tables are shared by every caller
    return first


def _bruteforce(
    g: Digraph, s_mask: int, anchor: int, reach: int,
    prop: Property, params: dict, cap: int | None, force: bool,
) -> RobustnessReport:
    """Every nonempty C in V \\ S (S the mask ``s_mask``) has a member with
    >= anchor in-neighbors in S or >= reach in-neighbors outside C, by
    enumeration.  A false verdict carries the first violating C in canonical
    subset order, read off its key."""
    free, limit = g.n - s_mask.bit_count(), DEFAULT_COMPLEMENT_CAP if cap is None else cap
    if free == 0:
        return RobustnessReport(prop, params, True, None, "bruteforce")
    if free > limit and not force:
        raise EnumerationCapError(
            f"complement size {free} exceeds enumeration cap {limit}; pass force=True to override"
        )
    if anchor > 0 and reach > 0:
        first = (_first_violations if free <= 16 else _first_violations.__wrapped__)(g, s_mask)
        rows, cols = first.shape
        key = first.item(min(anchor, rows) - 1, min(reach, cols) - 1)
        if key != _NO_VIOLATION:
            # bit b of j is the b-th largest free vertex: walk them from the
            # smallest, bit free - 1, until j runs out
            j, rest, b, subset = ~key & ((1 << free) - 1), ((1 << g.n) - 1) & ~s_mask, free, []
            while j:
                low = rest & -rest
                rest ^= low
                b -= 1
                if j >> b & 1:
                    j ^= 1 << b
                    subset.append(low.bit_length())
            return RobustnessReport(prop, params, False, {"violating_subset": subset}, "bruteforce")
    return RobustnessReport(prop, params, True, None, "bruteforce")


def _peeling(
    g: Digraph, s_mask: int, anchor: int, reach: int, prop: Property, params: dict
) -> RobustnessReport:
    """Grow R from S (the mask ``s_mask``) by admitting the lowest-id vertex
    outside R with >= anchor in-neighbors in S or >= reach in-neighbors in R;
    the property holds iff R reaches the full vertex set.  Eligibility only
    grows with R, so the verdict does not depend on the scan order.  The
    eligible ids are a bitmask and the lowest set bit goes next, so admission
    follows the order a rescan would.  An admission recounts only its
    out-neighbors not yet eligible (``Digraph.out_masks``), by a popcount of
    their in-masks against R.  The witness is the admission order (true) or
    the stalled complement (false)."""
    full, low, in_masks = (1 << g.n) - 1, min(anchor, reach), g.in_masks
    eligible = 0
    for v, m in enumerate(in_masks):
        if (m & s_mask).bit_count() >= low:
            eligible |= 1 << v
    eligible &= ~s_mask
    grown, seen, out_masks, admitted = s_mask, s_mask | eligible, g.out_masks, []
    # once every vertex is seen, the rest are admitted in id order
    while eligible and seen != full:
        bit = eligible & -eligible
        eligible ^= bit
        grown |= bit
        admitted.append(v := bit.bit_length())
        fresh = out_masks[v - 1] & ~seen
        while fresh:
            w = fresh.bit_length()
            fresh ^= 1 << (w - 1)
            if (in_masks[w - 1] & grown).bit_count() >= reach:
                seen |= 1 << (w - 1)
                eligible |= 1 << (w - 1)
    if seen == full:
        return RobustnessReport(prop, params, True, {"admission_order": admitted + _members(eligible)}, "peeling")
    return RobustnessReport(prop, params, False, {"stalled_complement": _members(full ^ seen)}, "peeling")


def _complement_query(g: Digraph, s: Iterable[int], value: int, name: str) -> tuple[int, int, dict]:
    """The leader mask, the parameter ``name`` (r or F) and the report params
    of a complement decider call, validated."""
    s_mask = _vertex_mask(g.n, s)
    if not s_mask:
        raise GraphError("S must be nonempty")
    value = _count(value, name)
    return s_mask, value, {name.lower(): value, "set": _members(s_mask)}


# Strong r-robustness is the (anchor, reach) = (r, r) test: S and C are
# disjoint, so an in-neighbor in S is also outside C (or, when peeling, in R).
# TLF robustness with parameter F is the (F+1, 2F+1) test.


def is_strongly_r_robust_bruteforce(
    g: Digraph, s: Iterable[int], r: int, *, cap: int | None = None, force: bool = False
) -> RobustnessReport:
    """Check every nonempty C in V \\ S for r-reachability, by enumeration."""
    s_mask, r, params = _complement_query(g, s, r, "r")
    return _bruteforce(g, s_mask, r, r, Property.STRONG_R, params, cap, force)


def is_tlf_robust_bruteforce(
    g: Digraph, s: Iterable[int], f: int, *, cap: int | None = None, force: bool = False
) -> RobustnessReport:
    """Trusted leader-follower robustness with parameter F, by enumeration.

    Every nonempty C in V \\ S must contain a vertex with >= F+1 in-neighbors
    in S, or be (2F+1)-reachable.
    """
    s_mask, f, params = _complement_query(g, s, f, "F")
    return _bruteforce(g, s_mask, f + 1, 2 * f + 1, Property.TLF, params, cap, force)


def is_strongly_r_robust_peeling(g: Digraph, s: Iterable[int], r: int) -> RobustnessReport:
    """Polynomial decision for strong r-robustness w.r.t. S: starting from
    R = S, admit vertices with >= r in-neighbors already in R."""
    s_mask, r, params = _complement_query(g, s, r, "r")
    return _peeling(g, s_mask, r, r, Property.STRONG_R, params)


def is_tlf_robust_peeling(g: Digraph, s: Iterable[int], f: int) -> RobustnessReport:
    """Polynomial decision for TLF robustness with parameter F: starting from
    R = S, admit vertices with >= F+1 in-neighbors in S or >= 2F+1
    in-neighbors already in R."""
    s_mask, f, params = _complement_query(g, s, f, "F")
    return _peeling(g, s_mask, f + 1, 2 * f + 1, Property.TLF, params)


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
    n, k = _circulant(n, k)
    f = _count(f, "F")
    mask = _vertex_mask(n, leaders, "leader")
    max_len = k if mode == "strong" else k - f
    required = 2 * f + 1 if mode == "strong" else f + 1
    params = {"n": n, "k": k, "f": f, "mode": mode, "leaders": _members(mask)}
    leaders_before = [0, *itertools.accumulate(mask >> (s % n) & 1 for s in range(2 * n))]
    for length, start in itertools.product(range(1, min(max_len, n) + 1), range(n)):
        if leaders_before[start + length] - leaders_before[start] >= required:
            window = [(start + j) % n + 1 for j in range(length)]
            return RobustnessReport(Property.CIRCULANT_CERTIFICATE, params, True, {"window": window}, "certificate")
    return RobustnessReport(Property.CIRCULANT_CERTIFICATE, params, False, None, "certificate")


def circulant_r_robustness_lower_bound(n: int, k: int) -> int:
    """Known lower bound on the r-robustness of C_n(1..k): ceil(k/2)."""
    return (_circulant(n, k)[1] + 1) // 2
