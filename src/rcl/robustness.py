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
outside the enumerated set is ``in_deg - popcount(lo & in_lo) - popcount(hi &
in_hi)``: the low part is one uint8 table per call (uint32 once an in-degree
reaches 2^8), and each hi is a chunk of 2^L counters that subtracts a
per-vertex constant, so counting holds about (vertices x 2^16) small ints
however many subsets there are.  What depends only on the width is one
read-only record per width, ``_low_counters``: the low counters, their
popcounts, bits and canonical keys, and for each room up to L // 4 the low
counters with at most that many members.
The pair checks are a DP in O(n 2^n): a uint8 table over all subsets and one
minimum over submasks give each subset its best disjoint partner.  For
r-robustness, (r, 1)-robustness and the maximum r, the table holds each
subset's largest outside in-degree, which does not depend on r, so that pair
of tables is built once per graph and kept; (r, s) with s >= 2 counts
r-reachable members into a table of its own.  When the free vertices fit
one chunk (at most ``_LOW_BITS`` = 16), the complement checks build, in one
pass over its low counters, a small table of the first violating C per pair
of degree bounds over all of V \\ S, keyed by the canonical keys of the
width, once per (graph, S) and kept, so a query is one lookup.  Both kinds
of table live on their graph, in ``Digraph._tables``: a complement table
under its S's mask, the pair tables under ``_PAIRS`` = 0, a mask no S has.
Each is made read-only and kept by one rule, ``_kept``, if its arrays total
at most ``CACHE_BYTES``; a larger one is returned, not kept.  Tables die
with their graph, and are read only after the caps and the memory budget
have passed.
Above 16, a query searches only the free vertices with fewer than ``anchor``
in-neighbors in S, the only ones a violating C can hold (with none of them it
answers true): a C of those violates iff no member has ``reach`` in-neighbors
outside it.  That search, like the pair witnesses, walks the chunks in order
of popcount(hi) and stops past the size of the first violation found, so a
small witness ends it early; once it has one, a later chunk evaluates only
the low counters small enough to beat it, when those are few (a one-member
witness leaves one per chunk).  The first chunk has no witness to prune by,
so it evaluates its empty and one-member counters first and the rest only
if none of those is marked; a later chunk, pruned already, never probes, as
a probe would add an evaluation to each chunk of a walk whose first witness
is large.  Either way a false verdict's witness comes
straight from the enumeration counter, decoded by ``_subset``.  Peeling works
on bitmasks: the eligible ids are one int, the lowest set bit is admitted
next, and each admission recounts, one popcount each, the in-neighbors in R
of its out-neighbors (``Digraph.out_masks``) not yet eligible.  Its first
scan, of every vertex's in-neighbors in S, is skipped when S has fewer than
min(anchor, reach) members: then no vertex starts eligible.

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
from types import SimpleNamespace
from typing import Iterable

import numpy as np

from .graph import Digraph, GraphError, _circulant, _count, _integer, _vertex_mask

DEFAULT_PAIR_CAP = 13
DEFAULT_COMPLEMENT_CAP = 20
# Bytes the pair DP may spend: two for each of the 2^n subsets (a uint8 table
# and its submask-minimum copy).  n = 26 takes 128 MB, n = 28 the whole budget,
# and n = 29 is the first size refused, even forced.
PAIR_SCAN_BUDGET = 512 * 2**20
# Array bytes of the largest exact table a graph keeps (see ``_kept``): the
# pair tables at n = 19 take all of it, and a complement table at most a few
# hundred.
CACHE_BYTES = 2**20
# The key of a graph's pair tables in ``Digraph._tables``; a complement table
# is kept under its S's mask, never 0, as S is nonempty.
_PAIRS = 0


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


def _kept(g: Digraph, key: int, table):
    """``table``, an array or a tuple of arrays, made read-only, as every
    caller on g shares it, and kept in ``g._tables[key]`` if its arrays
    total at most ``CACHE_BYTES``."""
    arrays = table if isinstance(table, tuple) else (table,)
    for array in arrays:
        array.flags.writeable = False
    if sum(array.nbytes for array in arrays) <= CACHE_BYTES:
        g._tables[key] = table
    return table


# ---------------------------------------------------------------------------
# the split enumeration counter, shared by both exact families

_LOW_BITS = 16


@lru_cache(maxsize=None)
def _low_counters(width: int) -> SimpleNamespace:
    """Everything that depends only on the counter width, read-only: the low
    counters ``lo`` = 0 .. 2^width - 1, their popcounts ``sizes``, their
    ``bits`` in uint8 (row b is bit b), their canonical ``keys`` (by size,
    then descending lo) and ``upto[room]``, the ascending lo with at most
    ``room`` members, for room <= width // 4."""
    lo = np.arange(1 << width, dtype=np.int32)
    bits = ((lo >> np.arange(width, dtype=np.int32)[:, None]) & 1).astype(np.uint8)
    sizes = np.bitwise_count(lo).astype(np.int32)
    keys = (sizes << width) - lo
    upto = tuple(np.flatnonzero(sizes <= room) for room in range(width // 4 + 1))
    for array in (lo, sizes, bits, keys, *upto):
        array.flags.writeable = False
    return SimpleNamespace(lo=lo, sizes=sizes, bits=bits, keys=keys, upto=upto)


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
    lo = _low_counters(width).lo[:1 << min(width, 10)]
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


def _check_pair_size(g: Digraph, limit: int, force: bool) -> None:
    """Refuse a pair check past ``limit`` vertices unless forced, and past
    ``PAIR_SCAN_BUDGET`` even forced: before anything is allocated or read
    from a kept table, so a refusal never depends on what is kept."""
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


def _subset_table(g: Digraph, fill) -> np.ndarray:
    """A uint8 table of ``fill(outside, members, sizes)`` over the subsets j of V,
    a chunk at a time; row b of the first two is vertex n - b (bit b of j): its
    in-degree outside each j and whether it is in j."""
    n = g.n
    table = np.empty(1 << n, dtype=np.uint8)
    *_, width, outside, masks = _split_outside(g, (1 << n) - 1)
    low = _low_counters(width)
    # up to _LOW_BITS vertices the low counters are every subset, so their bits serve as is
    members = low.bits if n == width else np.vstack([low.bits, np.zeros((n - width, 1 << width), dtype=np.uint8)])
    for hi in range(1 << (n - width)):
        chunk = outside
        if hi:
            members[width:] = ((hi >> np.arange(n - width)) & 1)[:, None]
            chunk = outside - np.bitwise_count(masks & (hi << width))[:, None]
        table[hi << width:(hi + 1) << width] = fill(chunk, members, low.sizes + hi.bit_count())
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
    largest of the n vertices) that ``accept(rows, cols)`` marks, or None.
    Within one size the order is descending j.

    ``rows`` is the slice of one chunk, the 2^L counters ``(hi << L) | lo``
    with L = ``min(n, _LOW_BITS)``, and ``cols`` the low counters lo it
    evaluates: ``slice(None)`` for all of them, or an index array; ``accept``
    returns one mark per evaluated counter.  Chunks go in order of
    popcount(hi), each size's hi drawn lazily by ``itertools.combinations``
    over the high bits, and the walk stops once popcount(hi) exceeds the size
    of the best subset found: every subset of a later chunk is larger.  Once
    a subset of size b is found, a chunk with popcount(hi) = c can only
    improve on it with a lo of at most b - c members, so for b - c up to
    L // 4, the rooms that ``_low_counters(L).upto`` holds, it evaluates
    just those (at L = 16, at most 2517 of the 65536).  A larger b - c
    keeps so many that gathering them costs more than evaluating the whole
    chunk (at L = 16, b - c = 5 keeps 6885 and costs about twice as much),
    so the chunk is evaluated whole; what it marks past size b never comes
    first.  The first chunk (hi = 0), at L >= 4, evaluates ``upto[1]``
    first (17 of 65536 at L = 16): every lo that could beat a mark there is
    in it, so the rest is evaluated only if it marks none."""
    width = min(n, _LOW_BITS)
    low, every = _low_counters(width), slice(None)
    best = None  # (size, -j) of the first marked subset so far
    for count in range(n - width + 1):
        if best is not None and count > best[0]:
            break
        for high in itertools.combinations(range(width, n), count):
            room = width if best is None else best[0] - count
            start = sum(1 << b for b in high)
            # the first chunk tries its counters of at most one member first
            for room in (1, width) if not start and len(low.upto) > 1 else (room,):
                cols = low.upto[room] if room < len(low.upto) else every
                marked = np.flatnonzero(accept(slice(start, start + low.lo.size), cols))
                if marked.size:
                    break
            if marked.size:
                if cols is not every:
                    marked = cols[marked]
                first = int(marked[low.keys[marked].argmin()])
                found = (count + first.bit_count(), -(start | first))
                best = found if best is None else min(best, found)
    return None if best is None else -best[1]


def _pair_table(g: Digraph) -> tuple[np.ndarray, np.ndarray]:
    """Build and keep (``_kept``) the pair tables ``(M, P)`` of g: ``M[j]``
    is the largest in-degree outside j over the members of j (``M[0]`` =
    255, as the empty set is no half of a pair), and ``P[j]`` the smallest M
    over the nonempty subsets of ~j.  Neither depends on r: j is r-reachable
    iff ``M[j] >= r``, and has a disjoint partner that is not iff ``P[j] <
    r``."""
    most = _subset_table(g, lambda outside, members, _: (outside * members).max(axis=0))
    most[0] = 255
    return _kept(g, _PAIRS, (most, _submask_min(most.copy())[::-1]))


def _pair_scan(
    g: Digraph, r: int, s: int, prop: Property, params: dict, cap: int | None, force: bool,
) -> RobustnessReport:
    """Every nonempty disjoint pair (S1, S2) has all of S1 r-reachable, all of
    S2, or >= s r-reachable members in total, by a subset DP.  At r = 0 every
    set is r-reachable, so the verdict is true whatever the caps.  A false
    verdict carries the first violating pair in canonical subset order.

    At s = 1 a pair violates iff neither set is r-reachable, so the pair
    tables g keeps answer every r; s >= 2 counts each subset's
    r-reachable members into a table of its own."""
    limit = DEFAULT_PAIR_CAP if cap is None else _count(cap, "cap")
    if r == 0:
        return RobustnessReport(prop, params, True, None, "bruteforce")
    _check_pair_size(g, limit, force)
    n, r = g.n, min(r, g.n)
    # table[j]: M[j] at s = 1, else the r-reachable count of a bad j (255 for the others)
    if s == 1:  # neither set r-reachable: M < r for both
        table, partner = g._tables.get(_PAIRS) or _pair_table(g)
        s1 = _first_subset(n, lambda rows, cols: (table[rows][cols] < r) & (partner[rows][cols] < r))
    else:
        def count_bad(outside, members, sizes):
            counts = ((outside >= r) & members).sum(axis=0, dtype=np.uint8)  # r-reachable members
            # bad: fewer than s r-reachable members, and not all (so not the empty j)
            return np.where((counts < s) & (counts < sizes), counts, 255)

        table = _subset_table(g, count_bad)
        partner = _submask_min(table.copy())[::-1]  # partner[j]: the fewest in a bad subset of ~j
        s1 = _first_subset(n, lambda rows, cols: partner[rows][cols] < s - table[rows][cols].astype(np.int16))
    if s1 is None:
        return RobustnessReport(prop, params, True, None, "bruteforce")
    lo, below = _low_counters(min(n, _LOW_BITS)).lo, r if s == 1 else s - int(table[s1])
    s2 = _first_subset(n, lambda rows, cols: (table[rows][cols] < below) & (((rows.start + lo[cols]) & s1) == 0))
    witness = {"s1": _subset(s1, (1 << n) - 1), "s2": _subset(s2, (1 << n) - 1)}
    if prop is Property.RS_ROBUST:
        witness["reachable_counts"] = [0, 0] if s == 1 else [int(table[s1]), int(table[s2])]
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
    """Largest r for which the graph is r-robust: the minimum over S1 of max(M[S1], min of M
    over the subsets of ~S1), M[j] the largest outside in-degree in j.  It is at most ceil(n/2):
    a j of floor(n/2) >= 1 members has M[j] <= |V \\ j| and P[j] <= M[V \\ j] <= |j|."""
    _check_pair_size(g, DEFAULT_PAIR_CAP if cap is None else _count(cap, "cap"), force)
    most, least = g._tables.get(_PAIRS) or _pair_table(g)
    step = 1 << _LOW_BITS  # a chunk at a time, so no third table of 2^n
    return min(int(np.maximum(most[j:j + step], least[j:j + step]).min()) for j in range(0, most.size, step))


# ---------------------------------------------------------------------------
# complement-subset checks (strong r-robustness, TLF robustness)


# A canonical key is below 17 << 16, so a complement table holds int32: a
# graph keeps every one it builds, about 260 bytes each in all.
_NO_VIOLATION = np.iinfo(np.int32).max


def _first_violations(g: Digraph, s_mask: int) -> np.ndarray:
    """Build and keep (``_kept``) the table ``first`` of g and S, the mask
    ``s_mask``: ``first[a, o]`` is the smallest canonical key of a nonempty C
    in V \\ S whose members have at most a in-neighbors in S and at most o
    outside C, else ``_NO_VIOLATION``; rows and columns stop at the largest
    degree.

    The f free vertices fit one chunk of the counter (f <= ``_LOW_BITS``), so
    j is a low counter: bit b stands for the b-th largest free vertex, and
    the key is ``_low_counters(f).keys[j]``, by size, then descending j.  One
    pass over the 2^f counters takes the maxima over the members of their
    in-degrees from S and outside C; a non-member counts 0, which never
    raises the maximum of a nonempty C.
    """
    by_bit, in_deg, f, outside, _ = _split_outside(g, (1 << g.n) - 1 - s_mask)
    low = _low_counters(f)
    from_s = [(g.in_masks[v - 1] & s_mask).bit_count() for v in by_bit]
    rows, cols = max(from_s) + 1, max(in_deg) + 1
    # a C's cell is its row (from S) times cols plus its column (outside); both
    # are maxima over the members, so a product with the 0/1 members masks them
    cell_of = np.array([a * cols for a in from_s], dtype=np.uint8 if rows * cols <= 1 << 8 else np.uint32)
    cell = (low.bits * cell_of[:, None]).max(axis=0) + (low.bits * outside).max(axis=0)
    first = np.full((rows, cols), _NO_VIOLATION, dtype=np.int32)
    np.minimum.at(first.reshape(-1), cell[1:], low.keys[1:])  # from 1: not the empty C
    np.minimum.accumulate(first, axis=0, out=first)
    np.minimum.accumulate(first, axis=1, out=first)
    return _kept(g, s_mask, first)


def _subset(j: int, domain: int) -> list[int]:
    """The vertices of counter j over the mask ``domain``, in increasing
    order: bit b of j is the b-th largest vertex of ``domain``.  The walk
    goes up from the smallest vertex, the top bit, and stops once j runs
    out."""
    subset, top = [], 1 << domain.bit_count()
    while j:
        low = domain & -domain
        domain ^= low
        top >>= 1
        if j & top:
            j ^= top
            subset.append(low.bit_length())
    return subset


def _bruteforce(
    g: Digraph, s_mask: int, anchor: int, reach: int,
    prop: Property, params: dict, cap: int | None, force: bool,
) -> RobustnessReport:
    """Every nonempty C in V \\ S (S the mask ``s_mask``) has a member with
    >= anchor in-neighbors in S or >= reach in-neighbors outside C, by
    enumeration.  A false verdict carries the first violating C in canonical
    subset order.  With no free vertex, or anchor or reach 0, the verdict is
    true whatever the caps.

    When the free vertices fit one chunk of the counter (at most
    ``_LOW_BITS``), one kept table over all of V \\ S answers every
    (anchor, reach) on (g, S), and j is read off its canonical key.
    Above that, a query searches only the free vertices with fewer than
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
    if free <= _LOW_BITS:
        first = g._tables.get(s_mask)
        if first is None:
            first = _first_violations(g, s_mask)
        rows, cols = first.shape
        key = first.item(min(anchor, rows) - 1, min(reach, cols) - 1)
        j = None if key == _NO_VIOLATION else -key & ((1 << free) - 1)
    else:
        if free > 62:  # the counter is an int64
            raise EnumerationCapError(f"cannot enumerate the subsets of {free} vertices, even forced")
        domain &= sum(1 << v for v, m in enumerate(g.in_masks) if (m & s_mask).bit_count() < anchor)
        if not domain:
            return RobustnessReport(prop, params, True, None, "bruteforce")
        *_, width, outside, masks = _split_outside(g, domain)
        low_members, high = _low_counters(width).bits, range(width, domain.bit_count())

        def violates(rows, cols):
            # the largest in-degree outside C over its members (a non-member
            # counts 0), below reach; of the high rows, only the members count
            start, part = rows.start, outside[:, cols]  # start = hi << width
            low = part[:width] - np.bitwise_count(masks[:width] & start)[:, None] if start else part[:width]
            most = (low_members[:, cols] * low).max(axis=0)
            members = [b for b in high if start >> b & 1]
            if members:
                chunk = part[members] - np.bitwise_count(masks[members] & start)[:, None]
                np.maximum(most, chunk.max(axis=0), out=most)
            marked = most < reach
            marked[0] &= start != 0  # the empty C
            return marked

        j = _first_subset(domain.bit_count(), violates)
    if j is None:
        return RobustnessReport(prop, params, True, None, "bruteforce")
    return RobustnessReport(prop, params, False, {"violating_subset": _subset(j, domain)}, "bruteforce")


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
    the stalled complement (false).

    Violating sets are closed under union and none meets R (its first admitted
    member had < anchor in S and < reach in R, inside V \\ C), so the stalled
    T = V \\ R is their union and holds every brute-force witness."""
    full, low, in_masks = (1 << g.n) - 1, min(anchor, reach), g.in_masks
    eligible = 0
    if s_mask.bit_count() >= low:  # else no vertex has low in-neighbors in S
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
    if type(value) is not int or value < 0:
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
    on ties).  A shortest window holding ``required`` leaders starts and ends
    at a leader (else dropping an end agent keeps its count), so the search
    runs over the leader positions p, listed twice for the wrap: the window
    from p[i] to p[i + required - 1], the shortest then earliest of them,
    certifies iff it fits.
    """
    if mode not in ("strong", "tlf"):
        raise ValueError(f"mode must be 'strong' or 'tlf', got {mode!r}")
    n, k = _circulant(n, k)
    f = _count(f, "F")
    mask = _vertex_mask(n, leaders, "leader")
    max_len = k if mode == "strong" else k - f
    required = 2 * f + 1 if mode == "strong" else f + 1
    ids = _members(mask)
    params = {"n": n, "k": k, "f": f, "mode": mode, "leaders": ids}
    if required <= len(ids):
        ring = ids + [v + n for v in ids]  # the leaders twice, for the wrap
        length, start = min((ring[i + required - 1] - v + 1, v) for i, v in enumerate(ids))
        if length <= max_len:
            window = [(start + j - 1) % n + 1 for j in range(length)]
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
