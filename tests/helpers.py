"""Shared test utilities: naive reference implementations of the robustness
definitions, and naive trajectory export.

The naive checkers below work directly on vertex sets with itertools
enumeration and no shared code with the library's optimized mask-based
implementations; they serve as independent oracles on small graphs, as
does the window-by-window scan of the circulant certificate.  The
naive writers format one value at a time, through ``csv.writer`` and a
per-point polyline, and serve as byte oracles for the column exporters;
``naive_metrics`` computes the metrics from whole matrices of states.
``tool`` loads a script of ``tools/`` as a module; ``digests``, that of
``tools/digests.py``, also draws the tests' random digraphs.
"""

from __future__ import annotations

import csv
import importlib.util
import itertools
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from rcl import simulation, svgplot
from rcl.graph import Digraph
from rcl.protocol import Adversary, ConfigError
from rcl.robustness import Property, RobustnessReport
from rcl.simulation import ENVELOPE_SLACK, IntervalReport, Metrics, role_name

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def tool(name: str):
    """The module ``tools/<name>.py``, loaded on its own."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# tools/digests.py, whose random digraphs, config corpus and distinct weights the tests share
digests = tool("digests")
random_digraph = digests.random_digraph


def canonical_subsets(vertices) -> Iterator[frozenset[int]]:
    """The nonempty subsets of ``vertices`` in canonical order (by size, then
    lexicographically by sorted tuple), drawn lazily, so a search that stops
    at a small subset never lists the larger ones."""
    vs = sorted(vertices)
    for size in range(1, len(vs) + 1):
        yield from map(frozenset, itertools.combinations(vs, size))


def nonempty_subsets(vertices) -> list[frozenset[int]]:
    return list(canonical_subsets(vertices))


def naive_reachable(g: Digraph, subset: frozenset[int], r: int) -> bool:
    return any(len(g.in_neighbors(i) - subset) >= r for i in subset)


def naive_is_r_robust(g: Digraph, r: int) -> bool:
    subsets = nonempty_subsets(g.vertices)
    for s1 in subsets:
        for s2 in subsets:
            if s1 & s2:
                continue
            if not naive_reachable(g, s1, r) and not naive_reachable(g, s2, r):
                return False
    return True


def naive_is_rs_robust(g: Digraph, r: int, s: int) -> bool:
    def x_count(subset: frozenset[int]) -> int:
        return sum(1 for i in subset if len(g.in_neighbors(i) - subset) >= r)

    subsets = nonempty_subsets(g.vertices)
    for s1 in subsets:
        for s2 in subsets:
            if s1 & s2:
                continue
            c1, c2 = x_count(s1), x_count(s2)
            if c1 == len(s1) or c2 == len(s2) or c1 + c2 >= s:
                continue
            return False
    return True


def naive_first_violating_pair(
    g: Digraph, r: int, s: int
) -> tuple[frozenset[int], frozenset[int]] | None:
    """The first disjoint pair (S1, S2), S1 in the outer and S2 in the inner
    loop over the canonically ordered nonempty subsets, that violates
    (r, s)-robustness; None if there is none.  r-robustness is s = 1."""
    subsets = nonempty_subsets(g.vertices)
    count = {c: sum(1 for i in c if len(g.in_neighbors(i) - c) >= r) for c in subsets}
    for s1 in subsets:
        for s2 in subsets:
            if s1 & s2 or count[s1] == len(s1) or count[s2] == len(s2):
                continue
            if count[s1] + count[s2] < s:
                return s1, s2
    return None


def naive_violates(g: Digraph, subset: frozenset[int], c: frozenset[int], anchor: int, reach: int) -> bool:
    """C has no member with >= anchor in-neighbors in S or >= reach
    in-neighbors outside C."""
    return not any(len(g.in_neighbors(i) & subset) >= anchor for i in c) and not naive_reachable(g, c, reach)


def naive_first_violating_subset(
    g: Digraph, subset: frozenset[int], anchor: int, reach: int
) -> frozenset[int] | None:
    """The first nonempty C in V \\ S, in canonical order, that violates by
    ``naive_violates``; None if there is none.  Strong r is (r, r) and TLF
    with parameter F is (F+1, 2F+1)."""
    for c in canonical_subsets(set(g.vertices) - subset):
        if naive_violates(g, subset, c, anchor, reach):
            return c
    return None


def assert_first_violating_subset(
    report: RobustnessReport, g: Digraph, subset, anchor: int, reach: int
) -> frozenset[int] | None:
    """Assert that a complement decider's ``report`` holds the verdict and the
    witness of ``naive_first_violating_subset(g, subset, anchor, reach)``, no
    witness when it holds; return that first violating subset."""
    expected = naive_first_violating_subset(g, frozenset(subset), anchor, reach)
    where = (g, sorted(subset), report.property.name, report.params, anchor, reach)
    assert report.verdict == (expected is None), where
    assert report.witness == (None if expected is None else {"violating_subset": sorted(expected)}), where
    return expected


def naive_peeling(
    g: Digraph, subset: frozenset[int], anchor: int, reach: int
) -> tuple[list[int], list[int]]:
    """(admission order, stalled complement) of peeling by rescanning: R
    starts at S, and each step admits the lowest-id vertex outside R with
    >= anchor in-neighbors in S or >= reach in-neighbors in R, then scans
    again from the lowest id."""
    grown = set(subset)
    order = []
    while True:
        for v in sorted(set(g.vertices) - grown):
            if len(g.in_neighbors(v) & subset) >= anchor or len(g.in_neighbors(v) & grown) >= reach:
                grown.add(v)
                order.append(v)
                break
        else:
            return order, sorted(set(g.vertices) - grown)


def naive_strongly_r_robust(g: Digraph, subset: frozenset[int], r: int) -> bool:
    rest = set(g.vertices) - subset
    return all(naive_reachable(g, c, r) for c in canonical_subsets(rest))


def naive_tlf_robust(g: Digraph, subset: frozenset[int], f: int) -> bool:
    rest = set(g.vertices) - subset
    for c in canonical_subsets(rest):
        anchored = any(len(g.in_neighbors(i) & subset) >= f + 1 for i in c)
        if not anchored and not naive_reachable(g, c, 2 * f + 1):
            return False
    return True


def naive_circulant_certificate(n: int, k: int, leaders, f: int, mode: str) -> RobustnessReport:
    """The certificate by building and counting every window, shortest first,
    then by start (valid arguments only)."""
    leader_set = frozenset(leaders)
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


def naive_write_trajectory_csv(traj, path) -> None:
    config = traj.config
    names = {i: role_name(config.roles[i]) for i in config.graph.vertices}
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["round", "agent", "role", "value", "reference"])
        for t in range(traj.horizon + 1):
            ref = repr(float(traj.reference[t])) if traj.reference is not None else ""
            for i in config.graph.vertices:
                writer.writerow([t, i, names[i], repr(float(traj.states[t, i - 1])), ref])


def naive_write_edges_csv(traj, path) -> None:
    edges = sorted(traj.edge_values)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["round", "from", "to", "value"])
        for t in range(traj.horizon + 1):
            for u, v in edges:
                writer.writerow([t, u, v, repr(float(traj.edge_values[(u, v)][t]))])


def naive_polyline_points(values, xs, ylo: float, yhi: float) -> str:
    """Drop-in for ``svgplot._polyline_points`` that ignores ``xs`` and maps
    and formats each point on its own."""
    rounds = len(values) - 1
    plot_w = svgplot._WIDTH - svgplot._ML - svgplot._MR
    plot_h = svgplot._HEIGHT - svgplot._MT - svgplot._MB

    def sx(t: float) -> float:
        return svgplot._ML + plot_w * (t / rounds if rounds else 0.0)

    def sy(v: float) -> float:
        return svgplot._MT + plot_h * (1.0 - (v - ylo) / (yhi - ylo))

    return " ".join(f"{sx(t):.2f},{sy(float(v)):.2f}" for t, v in enumerate(values))


def naive_metrics(traj, tol: float = simulation.DEFAULT_TOL) -> Metrics:
    """``compute_metrics`` from whole matrices: the envelope over the normal
    columns and the reference side by side, the tracking error over every
    normal agent's |x_i - x_r|, and the interval invariant over every
    non-adversarial column (the normal agents and the leaders)."""
    tol = simulation.check_tol(tol)
    ref, config, rounds = traj.reference, traj.config, traj.horizon + 1
    cols = np.ascontiguousarray(traj.states[:, [i - 1 for i in config.normals]])
    if cols.shape[1] == 0 and ref is None:
        raise ConfigError("envelope undefined: no normal agents and no reference")
    hull = cols if ref is None else np.concatenate([cols, ref[:, None]], axis=1)
    lower, upper = hull.min(axis=1), hull.max(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        if cols.shape[1] == 0:
            disag = np.zeros(rounds)
            err = None if ref is None else np.zeros(rounds)
        else:
            disag = cols.max(axis=1) - cols.min(axis=1)
            err = None if ref is None else np.abs(cols - ref[:, None]).max(axis=1)
        rise_lower, rise_upper = np.diff(lower), np.diff(upper)
    spans = [(0, rounds)] if config.reference is None else config.reference.constant_intervals(traj.horizon)
    kept = [i - 1 for i in config.graph.vertices if not isinstance(config.roles[i], Adversary)]
    intervals = []
    for t1, t2 in spans:
        monotone = bool(np.all(rise_lower[t1 : t2 - 1] >= -ENVELOPE_SLACK)
                        and np.all(rise_upper[t1 : t2 - 1] <= ENVELOPE_SLACK))
        block = traj.states[t1:t2, kept]
        invariant = bool(np.all(block >= lower[t1] - ENVELOPE_SLACK) and np.all(block <= upper[t1] + ENVELOPE_SLACK))
        intervals.append(IntervalReport(t1, t2, monotone, invariant, None if err is None else float(err[t2 - 1])))
    return Metrics(
        lower=lower, upper=upper, tracking_error=err, disagreement=disag, tol=tol,
        convergence_round=None if err is None else simulation._sustained_round(err, tol),
        consensus_round=simulation._sustained_round(disag, tol),
        final_error=None if err is None else float(err[-1]),
        final_disagreement=float(disag[-1]), intervals=tuple(intervals),
    )
