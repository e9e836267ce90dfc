"""Graph robustness deciders.

Four families of checks:

* brute-force oracles that enumerate subsets directly against the definitions
  (r-reachability, r-robustness, (r,s)-robustness, strong r-robustness with
  respect to a set, trusted leader-follower robustness); r-robustness is
  (r, 1)-robustness, so both pair checks share one scan,
* a polynomial peeling procedure for the strong and TLF variants, which,
  like their brute-force checks, share one (anchor, reach) test,
* closed-form certificates for circulant graphs based on consecutive leader
  windows (sufficient conditions only),
* the maximum r for which a graph is r-robust.

Subset enumeration is exponential, so the pairwise checks refuse graphs above
an enumeration cap (default 13) and the complement-subset checks refuse free
sets above a second cap (default 20), unless forced.  Witnesses are the first
violation in canonical order: by size, then lexicographically by sorted
vertex tuple.  The pair scan sorts only the subsets that can take part in a
violation.  The complement checks enumerate V \\ S once per (graph, S), in
chunks of about 2^20 array cells, into a small table of the first violating
C per pair of degree bounds, so a query is one lookup; its key comes straight
from the enumeration counter.  Peeling admits from a heap of eligible ids.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable

import numpy as np

from .graph import Digraph, GraphError

DEFAULT_PAIR_CAP = 13
DEFAULT_COMPLEMENT_CAP = 20


class EnumerationCapError(RuntimeError):
    """Raised when a brute-force check would exceed the configured cap."""


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


def _pair_scan(
    g: Digraph, r: int, s: int, prop: Property, params: dict, cap: int | None, force: bool,
) -> RobustnessReport:
    """Every nonempty disjoint pair (S1, S2) has all of S1 r-reachable, all of
    S2, or >= s r-reachable members in total, by enumeration.  A false verdict
    carries the first violating pair in canonical subset order."""
    limit = DEFAULT_PAIR_CAP if cap is None else cap
    if g.n > limit and not force:
        raise EnumerationCapError(
            f"n={g.n} exceeds pairwise enumeration cap {limit}; pass force=True to override"
        )
    n = g.n
    masks = np.arange(1 << n, dtype=np.uint64)
    not_masks = ~masks
    counts = np.zeros(1 << n, dtype=np.int32)  # r-reachable members per subset
    for i in g.vertices:
        member = (masks >> np.uint64(i - 1)) & np.uint64(1)
        outside = np.bitwise_count(np.uint64(g.in_masks[i - 1]) & not_masks)
        counts += (member & (outside >= r)).astype(np.int32)
    sizes = np.bitwise_count(masks)
    # only a subset with fewer than s r-reachable members, and not all of them,
    # can be half of a violating pair; the empty mask fails the second test
    keep = (counts < s) & (counts < sizes)
    bad, bad_counts = masks[keep], counts[keep]
    # canonical order: by size, then the subset holding the lowest vertex of
    # the symmetric difference first, i.e. by the n-bit reversal of the
    # complement (vertex 1 in the top bit); keys are unique, so any sort works
    key = sizes[keep].astype(np.uint64) << np.uint64(n)
    for i in range(n):
        key |= ((~bad >> np.uint64(i)) & np.uint64(1)) << np.uint64(n - 1 - i)
    order = np.argsort(key)
    bad, bad_counts = bad[order], bad_counts[order]
    # S1 is the first candidate with a violating partner and S2 its first
    # partner, which comes later (else S2 would be S1), so each block of rows,
    # of about 2^18 pairs, is checked only against the candidates from it on
    room = s - bad_counts
    step = max(1, (1 << 18) // max(bad.size, 1))
    for lo in range(0, bad.size, step):
        rows = slice(lo, lo + step)
        viol = ((bad[rows, None] & bad[None, lo:]) == 0) & (bad_counts[lo:] < room[rows, None])
        hit = viol.any(axis=1)
        if hit.any():
            i = int(np.argmax(hit))
            a, b = lo + i, lo + int(np.argmax(viol[i]))
            witness = {
                "s1": [v for v in g.vertices if int(bad[a]) >> (v - 1) & 1],
                "s2": [v for v in g.vertices if int(bad[b]) >> (v - 1) & 1],
            }
            if prop is Property.RS_ROBUST:
                witness["reachable_counts"] = [int(bad_counts[a]), int(bad_counts[b])]
            return RobustnessReport(prop, params, False, witness, "bruteforce")
    return RobustnessReport(prop, params, True, None, "bruteforce")


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
    """(r, s)-robustness via direct enumeration of disjoint subset pairs.

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
    """Largest r for which the graph is r-robust (r-robustness is monotone in r)."""
    lo, hi = 0, (g.n + 1) // 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if is_r_robust(g, mid, cap=cap, force=force).verdict:
            lo = mid
        else:
            hi = mid - 1
    return lo


# ---------------------------------------------------------------------------
# complement-subset checks (strong r-robustness, TLF robustness)


# cells of one chunk's (free vertices, counters) array program; bounds memory
_CHUNK_CELLS = 1 << 20
_NO_VIOLATION = np.iinfo(np.int64).max


@lru_cache(maxsize=256)
def _first_violations(g: Digraph, s_mask: int) -> np.ndarray:
    """``first[a, o]``: the smallest canonical key of a nonempty C in V \\ S
    whose members have at most a in-neighbors in S and at most o outside C,
    else ``_NO_VIOLATION``; rows and columns stop at the largest degree.

    Bit b of the counter j stands for ``free[f-1-b]``, so within one size the
    canonical order is descending j, and the key is
    ``(popcount(j) << f) | (2^f - 1 - j)``.  Callers skip the cache
    (``__wrapped__``) above 16 free vertices.
    """
    free = [v for v in g.vertices if not (s_mask >> (v - 1)) & 1]
    f, top = len(free), (1 << len(free)) - 1
    pos = {v: f - 1 - p for p, v in enumerate(free)}
    bits = 1 << np.arange(f - 1, -1, -1, dtype=np.int64)[:, None]
    in_free = np.array([sum(1 << pos[u] for u in g.in_neighbors(v) if u in pos) for v in free])[:, None]
    in_deg = np.array([len(g.in_neighbors(v)) for v in free], dtype=np.int32)[:, None]
    from_s = [(g.in_masks[v - 1] & s_mask).bit_count() for v in free]
    # C has a member with >= a in-neighbors in S iff j meets anchored[a - 1]
    anchored = [sum(1 << pos[v] for v, d in zip(free, from_s) if d >= a) for a in range(1, max(from_s) + 1)]
    anchored = np.array(anchored, dtype=np.int64)[:, None]
    rows, cols = max(from_s) + 1, int(in_deg.max()) + 1
    first = np.full(rows * cols, _NO_VIOLATION, dtype=np.int64)
    step = max(1, _CHUNK_CELLS // f)
    for lo in range(1, top + 1, step):
        j = np.arange(lo, min(lo + step, top + 1), dtype=np.int64)
        member = (j & bits) != 0
        max_outside = np.where(member, in_deg - np.bitwise_count(j & in_free), 0).max(axis=0)
        max_from_s = ((j & anchored) != 0).sum(axis=0)
        key = (np.bitwise_count(j).astype(np.int64) << f) | (top - j)
        np.minimum.at(first, max_from_s * cols + max_outside, key)
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
    for length in range(1, min(max_len, n) + 1):
        for start in range(1, n + 1):
            window = [(start - 1 + j) % n + 1 for j in range(length)]
            if sum(1 for v in window if v in leader_set) >= required:
                return RobustnessReport(
                    Property.CIRCULANT_CERTIFICATE, params, True, {"window": window}, "certificate"
                )
    return RobustnessReport(Property.CIRCULANT_CERTIFICATE, params, False, None, "certificate")


def circulant_r_robustness_lower_bound(n: int, k: int) -> int:
    """Known lower bound on the r-robustness of C_n(1..k): ceil(k/2)."""
    if n < 2 or not (1 <= k <= n - 1):
        raise GraphError(f"invalid circulant parameters n={n}, k={k}")
    return (k + 1) // 2
