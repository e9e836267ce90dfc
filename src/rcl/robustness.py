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
sets above a second cap (default 20), unless forced.  Witnesses are
deterministic: subsets are ranked by increasing cardinality and then
lexicographically by their sorted vertex tuple, and the first violation in
that order is reported.  The pair scan sorts into that order only the subsets
that can take part in a violation.
"""

from __future__ import annotations

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


def _sorted_vertices(mask: int) -> tuple[int, ...]:
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


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
                "s1": list(_sorted_vertices(int(bad[a]))),
                "s2": list(_sorted_vertices(int(bad[b]))),
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


def _complement_profiles(g: Digraph, s_mask: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per nonempty C in V \\ S: (C mask, max outside in-degree, max in-degree from S).

    The two maxima decide every (anchor, reach) query for this (graph, S):
    C has a member with >= anchor in-neighbors in S iff its max S in-degree
    >= anchor, and one with >= reach in-neighbors outside C iff its max
    outside in-degree >= reach.  Small enumerations are cached so sweeps
    over r or F reuse one pass.
    """
    if g.n - bin(s_mask).count("1") <= 16:
        return _complement_profiles_cached(g, s_mask)
    return _compute_complement_profiles(g, s_mask)


@lru_cache(maxsize=256)
def _complement_profiles_cached(g: Digraph, s_mask: int):
    return _compute_complement_profiles(g, s_mask)


def _compute_complement_profiles(
    g: Digraph, s_mask: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    free = [v for v in g.vertices if not (s_mask >> (v - 1)) & 1]
    f = len(free)
    idx = np.arange(1, 1 << f, dtype=np.uint64)
    c_masks = np.zeros(idx.size, dtype=np.uint64)
    for pos, v in enumerate(free):
        c_masks |= ((idx >> np.uint64(pos)) & np.uint64(1)) << np.uint64(v - 1)
    max_outside = np.full(idx.size, -1, dtype=np.int32)
    max_from_s = np.full(idx.size, -1, dtype=np.int32)
    for pos, v in enumerate(free):
        member = ((idx >> np.uint64(pos)) & np.uint64(1)).astype(bool)
        in_mask = np.uint64(g.in_masks[v - 1])
        outside = np.bitwise_count(in_mask & ~c_masks).astype(np.int32)
        from_s = int(bin(g.in_masks[v - 1] & s_mask).count("1"))
        np.maximum(max_outside, np.where(member, outside, -1), out=max_outside)
        np.maximum(max_from_s, np.where(member, from_s, -1), out=max_from_s)
    return c_masks, max_outside, max_from_s


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
    c_masks, max_outside, max_from_s = _complement_profiles(g, _mask_of(s))
    violating = (max_from_s < anchor) & (max_outside < reach)
    if not violating.any():
        return RobustnessReport(prop, params, True, None, "bruteforce")
    cand = c_masks[violating]
    sizes = np.bitwise_count(cand)
    first = min(_sorted_vertices(int(m)) for m in cand[sizes == sizes.min()])
    return RobustnessReport(prop, params, False, {"violating_subset": list(first)}, "bruteforce")


def _peeling(
    g: Digraph, s: frozenset[int], anchor: int, reach: int, prop: Property, params: dict
) -> RobustnessReport:
    """Grow R from S by admitting the lowest-id vertex outside R with >= anchor
    in-neighbors in S or >= reach in-neighbors in R; the property holds iff R
    reaches the full vertex set.  Eligibility only grows with R, so the
    verdict does not depend on the scan order.  The witness is the admission
    order (true) or the stalled complement (false)."""
    in_masks = g.in_masks
    s_mask = _mask_of(s)
    anchored = [(m & s_mask).bit_count() >= anchor for m in in_masks]
    full = (1 << g.n) - 1
    r_mask = s_mask
    admitted: list[int] = []
    while r_mask != full:
        for v in g.vertices:
            bit = 1 << (v - 1)
            if not r_mask & bit and (
                anchored[v - 1] or (in_masks[v - 1] & r_mask).bit_count() >= reach
            ):
                r_mask |= bit
                admitted.append(v)
                break
        else:
            break
    if r_mask == full:
        return RobustnessReport(prop, params, True, {"admission_order": admitted}, "peeling")
    witness = {"stalled_complement": list(_sorted_vertices(full & ~r_mask))}
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
