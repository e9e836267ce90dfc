"""Graph robustness deciders.

Four families of checks:

* brute-force oracles that enumerate subsets directly against the definitions
  (r-reachability, r-robustness, (r,s)-robustness, strong r-robustness with
  respect to a set, trusted leader-follower robustness); r-robustness is
  (r, 1)-robustness, so both pair checks share one subset DP,
* a polynomial peeling procedure for the strong and TLF variants, which,
  like their brute-force checks, share one (anchor, reach) test,
* closed-form certificates (sufficient conditions only): consecutive leader
  windows for circulant graphs, and a minimum in-degree for any digraph,
* the maximum r for which a graph is r-robust.

Subset enumeration is exponential, so the pairwise checks refuse graphs above
an enumeration cap (default 13) and the complement-subset checks refuse free
sets above a second cap (default 20), unless forced.  The second cap, and
the 62-vertex width of the enumeration counter, count all of V \\ S, however
few of its vertices a query enumerates.  A trivial query is answered true,
after validation and before either cap, in one place per family: r = 0 in
the pair scan, and no free vertex or a zero anchor or reach in the
complement enumeration.  Witnesses are the first violation in
canonical order: by size, then lexicographically by sorted vertex tuple.

Both enumerations share one split counter, j = (hi << L) | lo with L the
smaller of 16 and the number of enumerated vertices.  A vertex's in-degree
outside the enumerated set is ``in_deg - popcount(lo & in_lo) -
popcount(hi & in_hi)``: the low part is one uint8 table per call (uint32 once
an in-degree reaches 2^8), and each hi is a chunk of 2^L counters that
subtracts a per-vertex constant, so counting holds about (vertices x 2^16)
small ints however many subsets there are.  The pair checks are a DP in
O(n 2^n): a uint8 table over all subsets and one minimum over submasks give
each subset its best disjoint partner.  Up to 16 free vertices, the
complement checks build a small table of the first violating C per pair of
degree bounds over all of V \\ S, once per (graph, S) and cached, so a query
is one lookup.  Above 16, a query searches only the free vertices with fewer
than ``anchor`` in-neighbors in S, the only ones a violating C can hold (with
none of them it answers true): a C of those violates iff no member has
``reach`` in-neighbors outside it.  That search, like the pair witnesses, walks
the chunks in order of popcount(hi) and stops past the size of the first
violation found, so a small witness ends it early.  Either way a false
verdict's witness comes straight from the enumeration counter.  Peeling works
on bitmasks: the eligible ids are one int, the lowest set bit is admitted
next, and each admission recounts, one popcount each, the in-neighbors in R
of its out-neighbors (``Digraph.out_masks``) not yet eligible.

Every public decider takes vertex ids and integer parameters, caps
included, by the one rule of ``graph`` (as ``operator.index`` does, bools
excepted, normalised to int); a bad id raises GraphError naming the smallest
one, a bad parameter ValueError.
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
    DEGREE_CERTIFICATE = "degree_certificate"


@dataclass(frozen=True, init=False)
class RobustnessReport:
    """Verdict for one property query, with a machine-checkable witness.

    A false verdict always carries a witness that violates the definition;
    a true peeling verdict carries the admission order, and a certificate
    its satisfying window or its vertex of least in-degree.
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
    # enough); each further bit b fills columns 2^b .. 2^(b+1) - 1 from the
    # ones below, in place, which is cheaper
    outside = np.empty((len(by_bit), 1 << width), dtype=dtype)
    lo = _low_counters(min(width, 10))[0]
    np.subtract(np.array(in_deg, dtype=dtype)[:, None], np.bitwise_count(masks.astype(np.int32)[:, None] & lo),
                out=outside[:, :lo.size])
    for b in range(10, width):
        np.subtract(outside[:, :1 << b], ((masks >> b) & 1).astype(dtype)[:, None], out=outside[:, 1 << b:2 << b])
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


def _subset_table(g: Digraph, limit: int, force: bool, fill) -> np.ndarray:
    """A uint8 table of ``fill(outside, members, sizes)`` over the subsets j of V,
    a chunk at a time; row b of the first two is vertex n - b (bit b of j): its
    in-degree outside each j and whether it is in j.  Refused past ``limit``
    vertices unless forced, and past ``PAIR_SCAN_BUDGET`` even forced, before
    allocating."""
    n = g.n
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
    """The canonically first subset j of n counter bits (bit b the b-th
    largest of the n vertices) that ``accept(rows, j)`` marks, or None.
    Within one size the order is descending j.

    ``rows`` is the slice of one chunk, the 2^L counters ``(hi << L) | lo``
    with L = ``min(n, _LOW_BITS)``, and ``j`` their values.  Chunks go in order
    of popcount(hi), each size's hi drawn lazily by ``itertools.combinations``
    over the high bits, and the walk stops once popcount(hi) exceeds the size
    of the best subset found: every subset of a later chunk is larger."""
    width = min(n, _LOW_BITS)
    _, sizes, _ = _low_counters(width)
    lo = np.arange(1 << width, dtype=np.int64)
    low_key = (sizes << width) - lo  # by size, then descending lo
    best = None  # (size, -j) of the first marked subset so far
    for count in range(n - width + 1):
        if best is not None and count > best[0]:
            break
        for high in itertools.combinations(range(width, n), count):
            start = sum(1 << b for b in high)
            marked = np.flatnonzero(accept(slice(start, start + lo.size), lo + start))
            if marked.size:
                first = int(marked[low_key[marked].argmin()])
                found = (count + first.bit_count(), -(start | first))
                best = found if best is None else min(best, found)
    return None if best is None else -best[1]


def _pair_scan(
    g: Digraph, r: int, s: int, prop: Property, params: dict, cap: int | None, force: bool,
) -> RobustnessReport:
    """Every nonempty disjoint pair (S1, S2) has all of S1 r-reachable, all of
    S2, or >= s r-reachable members in total, by a subset DP.  At r = 0 every
    set is r-reachable, so the verdict is true whatever the caps.  A false
    verdict carries the first violating pair in canonical subset order."""
    limit = DEFAULT_PAIR_CAP if cap is None else _count(cap, "cap")
    if r == 0:
        return RobustnessReport(prop, params, True, None, "bruteforce")
    n, r = g.n, min(r, g.n)

    def count_bad(outside, members, sizes):
        counts = ((outside >= r) & members).sum(axis=0, dtype=np.uint8)  # r-reachable members
        # bad: fewer than s r-reachable members, and not all (so not the empty j)
        return np.where((counts < s) & (counts < sizes), counts, 255)

    bad = _subset_table(g, limit, force, count_bad)  # the r-reachable count of a bad j, else 255
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
    return _pair_scan(g, r, 1, Property.R_ROBUST, {"r": r}, cap, force)


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
    limit = DEFAULT_PAIR_CAP if cap is None else _count(cap, "cap")
    most = _subset_table(g, limit, force, lambda outside, members, _: (outside * members).max(axis=0))
    most[0] = 255  # the empty set is no half of a pair
    np.maximum(most, _submask_min(most.copy())[::-1], out=most)
    return min((g.n + 1) // 2, int(most.min()))


# ---------------------------------------------------------------------------
# complement-subset checks (strong r-robustness, TLF robustness)


_NO_VIOLATION = np.iinfo(np.int64).max
# Free sets up to this size share one cached table per (graph, S); a query on
# a larger one searches the free vertices its anchor leaves unanchored
_CACHED_FREE = 16


@lru_cache(maxsize=256)
def _first_violations(g: Digraph, s_mask: int) -> np.ndarray:
    """``first[a, o]``: the smallest canonical key of a nonempty C in V \\ S
    (S the mask ``s_mask``) whose members have at most a in-neighbors in S
    and at most o outside C, else ``_NO_VIOLATION``; rows and columns stop at
    the largest degree.

    Bit b of the counter j stands for the b-th largest of the f free
    vertices, so within one size the canonical order is descending j, and the
    key is ``(popcount(j) << f) | (2^f - 1 - j)``.  j is split at the low
    ``min(f, _LOW_BITS)`` bits: the low counters' in-degrees outside C, maxima
    from S and key terms are built once, and each hi adds its own members and
    constants to them.  A non-member counts 0 outside C, which never raises the
    maximum of a nonempty C.
    """
    by_bit, in_deg, width, outside, masks = _split_outside(g, (1 << g.n) - 1 - s_mask)
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
    subset order.  With no free vertex, or anchor or reach 0, the verdict is
    true whatever the caps.

    Up to ``_CACHED_FREE`` free vertices, one cached table over all of V \\ S
    answers every (anchor, reach) on (g, S), and the witness is read off its
    key.  Above it, a query searches only the free vertices with fewer than
    anchor in-neighbors in S: a violating C has no other member, and the
    canonical order of its subsets is the order restricted to them.  So a C
    there violates iff no member has reach or more in-neighbors outside C,
    and ``_first_subset`` walks the chunks by size until it has the first.
    The caps and the counter width apply to |V \\ S|."""
    domain = (1 << g.n) - 1 - s_mask  # V \ S, as S is a subset of V
    free, limit = domain.bit_count(), DEFAULT_COMPLEMENT_CAP if cap is None else _count(cap, "cap")
    if free == 0 or anchor <= 0 or reach <= 0:
        return RobustnessReport(prop, params, True, None, "bruteforce")
    if free > limit and not force:
        raise EnumerationCapError(
            f"complement size {free} exceeds enumeration cap {limit}; pass force=True to override"
        )
    if free <= _CACHED_FREE:
        first = _first_violations(g, s_mask)
        rows, cols = first.shape
        key = first.item(min(anchor, rows) - 1, min(reach, cols) - 1)
        j = None if key == _NO_VIOLATION else ~key & ((1 << free) - 1)
    else:
        if free > 62:  # the counter is an int64
            raise EnumerationCapError(f"cannot enumerate the subsets of {free} vertices, even forced")
        domain &= sum(1 << v for v, m in enumerate(g.in_masks) if (m & s_mask).bit_count() < anchor)
        if not domain:
            return RobustnessReport(prop, params, True, None, "bruteforce")
        *_, width, outside, masks = _split_outside(g, domain)
        low_members, high = _low_counters(width)[2].view(np.uint8), range(width, domain.bit_count())

        def violates(rows, _):
            # the largest in-degree outside C over its members (a non-member
            # counts 0), below reach; of the high rows, only the members count
            start = rows.start  # hi << width
            low = outside[:width] - np.bitwise_count(masks[:width] & start)[:, None] if start else outside[:width]
            most = (low_members * low).max(axis=0)
            members = [b for b in high if start >> b & 1]
            if members:
                chunk = outside[members] - np.bitwise_count(masks[members] & start)[:, None]
                np.maximum(most, chunk.max(axis=0), out=most)
            marked = most < reach
            marked[0] &= start != 0  # the empty C
            return marked

        j = _first_subset(domain.bit_count(), violates)
    if j is None:
        return RobustnessReport(prop, params, True, None, "bruteforce")
    # bit b of j is the b-th largest of the f enumerated vertices: walk them
    # from the smallest, bit f - 1, until j runs out
    b, rest, subset = domain.bit_count(), domain, []
    while j:
        low = rest & -rest
        rest ^= low
        b -= 1
        if j >> b & 1:
            j ^= 1 << b
            subset.append(low.bit_length())
    return RobustnessReport(prop, params, False, {"violating_subset": subset}, "bruteforce")


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
    """Check every nonempty C in V \\ S for r-reachability, by enumeration.

    Above 16 free vertices, only those with fewer than r in-neighbors in S
    are enumerated: one with r or more makes every C holding it r-reachable.
    """
    s_mask, r, params = _complement_query(g, s, r, "r")
    return _bruteforce(g, s_mask, r, r, Property.STRONG_R, params, cap, force)


def is_tlf_robust_bruteforce(
    g: Digraph, s: Iterable[int], f: int, *, cap: int | None = None, force: bool = False
) -> RobustnessReport:
    """Trusted leader-follower robustness with parameter F, by enumeration.

    Every nonempty C in V \\ S must contain a vertex with >= F+1 in-neighbors
    in S, or be (2F+1)-reachable.  Above 16 free vertices, only those with at
    most F in-neighbors in S are enumerated.
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
# certificates


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


def degree_certificate(g: Digraph, r: int) -> RobustnessReport:
    """Minimum in-degree certificate: every in-degree is at least
    floor(n/2) + r - 1, which makes the graph (r, s)-robust for every s.

    Of two disjoint nonempty sets, the smaller has at most floor(n/2) members.
    Each member has at most floor(n/2) - 1 in-neighbors inside that set, so it
    has at least r outside.  The whole smaller set is therefore r-reachable.

    The certificate is sufficient only: a false result does not rule out the
    property.  The witness is the vertex of least in-degree (smallest id on
    ties) and that in-degree.
    """
    r = _count(r, "r")
    required = g.n // 2 + r - 1
    degrees = [m.bit_count() for m in g.in_masks]
    least = min(degrees)
    params = {"r": r, "required_in_degree": required}
    witness = {"vertex": degrees.index(least) + 1, "in_degree": least}
    return RobustnessReport(Property.DEGREE_CERTIFICATE, params, least >= required, witness, "certificate")


def circulant_r_robustness_lower_bound(n: int, k: int) -> int:
    """Known lower bound on the r-robustness of C_n(1..k): ceil(k/2)."""
    return (_circulant(n, k)[1] + 1) // 2
