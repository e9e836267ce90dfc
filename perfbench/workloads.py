"""The four benchmark workloads, each generated from a seed.

A workload's ``setup(seed, scratch)`` builds every input and returns a
``Plan``: the ordered op list that one pass times, plus oracle checks that
run once, outside the timed ops.  rcl sees only the generated inputs.

Ops call rcl through module attributes (``simulation.run``, not a name
imported at set-up time), so the tracer's wrappers are picked up when
tracing is installed.  Each op returns ``(work, output)``; work is the
op's count of agent-rounds (track, wide) or decider queries (exact,
crosscheck).  ``Op.check(output)`` returns ``(digest, problems)``: the
digest must repeat on every pass, and any problem fails the op.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from rcl import graph, protocol, robustness, scenarios, simulation, svgplot


@dataclass
class Op:
    name: str
    fn: Callable[[], tuple[int, Any]]
    check: Callable[[Any], tuple[Any, list[str]]]


@dataclass
class Plan:
    ops: list[Op]
    work_unit: str
    # seconds one pass takes on the reference machine (2 vCPU Xeon, see
    # perfbench/README.md); sets how many passes a run makes
    pass_s: float
    # (op index, check) pairs run once after the first pass, outside the timing
    oracles: list[tuple[int, Callable[[Any], list[str]]]] = field(default_factory=list)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _relabeled_circulant(rng: random.Random, n: int, k: int, extra_p: float):
    """C_n(1..k) under a random vertex permutation, plus random extra edges.

    Relabeling preserves every robustness property, and adding edges never
    breaks r-robustness, strong r-robustness or TLF robustness, so the
    circulant's known bounds still hold for the result.
    """
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    edges = {(perm[i - 1], perm[j - 1]) for i, j in graph.make_k_circulant(n, k).edges}
    edges.update((i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                 if i != j and rng.random() < extra_p)
    return graph.Digraph(n, frozenset(edges)), perm


def _random_digraph(rng: random.Random, n: int, p: float):
    edges = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
             if i != j and rng.random() < p}
    return graph.Digraph(n, frozenset(edges))


def _min_in_degree(g, vertices) -> int:
    return min(len(g.in_neighbors(v)) for v in vertices)


# ---------------------------------------------------------------------------
# track: sim2 over 20 consecutive seeds, full bundle per seed

TRACK_SEEDS = 20


def _track_op(scenario, seed: int, out_dir: Path) -> tuple[int, Any]:
    result = scenario.run(seed=seed, jobs=1)
    traj, metrics = result.trajectory, result.metrics
    out_dir.mkdir(parents=True, exist_ok=True)
    simulation.write_trajectory_csv(traj, out_dir / "trajectory.csv")
    if traj.edge_values:
        simulation.write_edges_csv(traj, out_dir / "edges.csv")
    metrics_json = simulation.metrics_to_dict(metrics)
    (out_dir / "metrics.json").write_text(json.dumps(metrics_json, indent=2) + "\n")
    report = {
        "scenario": scenario.name,
        "seed": seed,
        "preconditions": [{"name": p.name, "ok": p.ok, "detail": p.detail}
                          for p in result.preconditions],
        "outcome_ok": result.outcome_ok,
        "outcome_detail": result.outcome_detail,
        "metrics": metrics_json,
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    svgplot.write_trajectory_svg(traj, out_dir / "plot.svg", title=f"{scenario.name} seed {seed}")
    work = len(result.config.normals) * traj.horizon
    return work, (result, out_dir)


def _track_check(output) -> tuple[Any, list[str]]:
    result, out_dir = output
    problems = []
    if not result.outcome_ok:
        problems.append(f"outcome not met: {result.outcome_detail}")
    if not (result.metrics.final_error is not None and result.metrics.final_error < 1e-6):
        problems.append(f"final_error {result.metrics.final_error} not below 1e-6")
    digest = []
    for name in ("trajectory.csv", "metrics.json", "report.json", "plot.svg"):
        path = out_dir / name
        if not path.is_file() or path.stat().st_size == 0:
            problems.append(f"bundle file {name} missing or empty")
        else:
            digest.append(_sha(path.read_bytes()))
    return tuple(digest), problems


def _replay_check(output) -> list[str]:
    result, _ = output
    return [] if simulation.verify_replay(result.trajectory) else ["verify_replay failed"]


def setup_track(seed: int, scratch: Path) -> Plan:
    scenario = scenarios.sim2()
    seeds = range(TRACK_SEEDS * seed, TRACK_SEEDS * (seed + 1))
    ops = [
        Op(f"sim2 seed={s}",
           lambda s=s: _track_op(scenario, s, scratch / f"sim2-seed{s}"),
           _track_check)
        for s in seeds
    ]
    sampled = random.Random(seed).randrange(len(ops))
    return Plan(ops, "agent_rounds", 7.6, oracles=[(sampled, _replay_check)])


# ---------------------------------------------------------------------------
# wide: one large, high in-degree circulant with a certified leader window

WIDE_N, WIDE_K, WIDE_F, WIDE_HORIZON, WIDE_RUNS = 300, 60, 3, 200, 2


def _wide_op(config) -> tuple[int, Any]:
    traj = simulation.run(config, jobs=1)
    metrics = simulation.compute_metrics(traj)
    return len(config.normals) * traj.horizon, (traj, metrics)


def _wide_check(output) -> tuple[Any, list[str]]:
    traj, metrics = output
    problems = []
    if not metrics.interval_invariant:
        problems.append("interval_invariant violated")
    if not metrics.envelope_monotone:
        problems.append("envelope_monotone violated")
    err = metrics.tracking_error
    # the certificate guarantees convergence; over 200 rounds the error
    # contracts by about 8x, so demand at least 2x
    if not (np.all(np.isfinite(traj.states)) and err[-1] <= 0.5 * err[0]):
        problems.append(f"tracking error did not contract: {err[0]!r} -> {err[-1]!r}")
    return _sha(traj.states.tobytes()), problems


def setup_wide(seed: int, scratch: Path) -> Plan:
    rng = random.Random(seed)
    g = graph.make_k_circulant(WIDE_N, WIDE_K)
    start = rng.randrange(1, WIDE_N + 1)
    window = [(start - 1 + j) % WIDE_N + 1 for j in range(2 * WIDE_F + 1)]
    cert = robustness.circulant_certificate(WIDE_N, WIDE_K, window, WIDE_F, "strong")
    if not cert.verdict:
        raise RuntimeError(f"wide: leader window {window} is not certified")
    sinusoid, ramp, byzantine = rng.sample(window, 3)
    roles: dict[int, Any] = {i: protocol.Leader() for i in window}
    roles[sinusoid] = protocol.Adversary(protocol.Sinusoid(
        amplitude=rng.uniform(30.0, 60.0), period=rng.uniform(20.0, 60.0),
        phase=rng.uniform(0.0, 2.0 * math.pi)))
    roles[ramp] = protocol.Adversary(protocol.Ramp(
        slope=rng.choice((-1.0, 1.0)) * rng.uniform(2.0, 6.0), intercept=rng.uniform(-20.0, 20.0)))
    signals = {}
    for j in sorted(g.out_neighbors(byzantine)):
        kind = rng.randrange(3)
        if kind == 0:
            signals[j] = protocol.ConstantHold(rng.uniform(-100.0, 100.0))
        elif kind == 1:
            signals[j] = protocol.Sinusoid(rng.uniform(10.0, 80.0), rng.uniform(10.0, 50.0))
        else:
            signals[j] = protocol.Ramp(rng.uniform(-8.0, 8.0), rng.uniform(-30.0, 30.0))
    roles[byzantine] = protocol.Adversary(protocol.ByzantinePerEdge(signals))
    reference = protocol.ReferenceSignal.constant(rng.uniform(30.0, 50.0))
    configs = [
        simulation.SimConfig(graph=g, f=WIDE_F, horizon=WIDE_HORIZON, roles=roles,
                             reference=reference, seed=rng.randrange(1 << 30))
        for _ in range(WIDE_RUNS)
    ]
    ops = [Op(f"wide run {i}", lambda c=c: _wide_op(c), _wide_check)
           for i, c in enumerate(configs)]
    return Plan(ops, "agent_rounds", 8.8)


# ---------------------------------------------------------------------------
# exact: forced brute-force deciders at the top of their range


def _pair_witness_problems(g, report, r: int, s: int | None) -> list[str]:
    """Re-check a false r- or (r,s)-robustness witness with r_reachable_set."""
    w = report.witness or {}
    s1, s2 = frozenset(w.get("s1", ())), frozenset(w.get("s2", ()))
    if not s1 or not s2 or s1 & s2:
        return [f"witness sets not nonempty and disjoint: {w}"]
    c1 = len(robustness.r_reachable_set(g, s1, r))
    c2 = len(robustness.r_reachable_set(g, s2, r))
    if s is None:
        return [] if c1 == 0 and c2 == 0 else [f"r-robust witness is reachable: {w}"]
    if [c1, c2] != w.get("reachable_counts") or c1 == len(s1) or c2 == len(s2) or c1 + c2 >= s:
        return [f"(r,s) witness does not violate: {w}, counts {c1}, {c2}"]
    return []


def _complement_witness_problems(g, leaders, report, reach: int, anchor: int | None) -> list[str]:
    """Re-check a false strong-r (anchor None) or TLF witness."""
    c = frozenset((report.witness or {}).get("violating_subset", ()))
    if not c or c & leaders:
        return [f"violating subset is empty or meets S: {sorted(c)}"]
    if robustness.r_reachable_set(g, c, reach):
        return [f"violating subset {sorted(c)} is {reach}-reachable"]
    if anchor is not None and any(len(g.in_neighbors(i) & leaders) >= anchor for i in c):
        return [f"violating subset {sorted(c)} has a vertex anchored in S"]
    return []


def _pair_battery(g, r_true: int, r_false: int) -> Op:
    """One op: the five pair queries on one graph, with known verdicts.

    r_true is at most the circulant lower bound ceil(k/2); r_false exceeds
    the minimum in-degree, so that vertex alone against the rest violates.
    (r, 1)-robustness is r-robustness, so is_rs_robust(g, r, 1) must agree
    with is_r_robust(g, r).  Grouping the five keeps the op list of this
    workload to a few similar-sized ops, so its latency percentiles do not
    jump between a 2 ms and a 2 s query from run to run.
    """
    queries = (
        ("is_r_robust", (r_true,), True),
        ("is_r_robust", (r_false,), False),
        ("is_rs_robust", (r_true, 1), True),
        ("is_rs_robust", (r_false, 1), False),
    )

    def fn():
        reports = [getattr(robustness, name)(g, *params, force=True) for name, params, _ in queries]
        return len(queries) + 1, (reports, robustness.max_r_robustness(g, force=True))

    def check(output):
        reports, max_r = output
        problems = []
        for (name, params, verdict), report in zip(queries, reports):
            if report.verdict != verdict:
                problems.append(f"{name}{params}: verdict {report.verdict}, expected {verdict}")
            elif not verdict:
                s_param = params[1] if len(params) > 1 else None
                problems += _pair_witness_problems(g, report, params[0], s_param)
        if not r_true <= max_r < r_false:
            problems.append(f"max_r {max_r} outside [{r_true}, {r_false})")
        digest = tuple(json.dumps(r.to_json(), sort_keys=True) for r in reports) + (max_r,)
        return digest, problems

    return Op(f"pair queries n={g.n} r={r_true},{r_false}", fn, check)


def _complement_query(g, leaders, kind: str, param: int, verdict: bool) -> Op:
    """A forced strong-r or TLF query.  The verdict must be the known one and
    match peeling, an exact route for both properties."""
    free = g.n - len(leaders)
    if kind == "strong":
        brute, peel = "is_strongly_r_robust_bruteforce", "is_strongly_r_robust_peeling"
        reach, anchor = param, None
    else:
        brute, peel = "is_tlf_robust_bruteforce", "is_tlf_robust_peeling"
        reach, anchor = 2 * param + 1, param + 1

    def check(report):
        problems = []
        expected = getattr(robustness, peel)(g, leaders, param).verdict
        if report.verdict != expected:
            problems.append(f"bruteforce {report.verdict} disagrees with peeling {expected}")
        if report.verdict != verdict:
            problems.append(f"verdict {report.verdict}, expected {verdict}")
        if not report.verdict:
            problems += _complement_witness_problems(g, leaders, report, reach, anchor)
        return (report.verdict, json.dumps(report.witness, sort_keys=True)), problems

    return Op(f"{brute} free={free} param={param}",
              lambda: (1, getattr(robustness, brute)(g, leaders, param, force=True)), check)


def setup_exact(seed: int, scratch: Path) -> Plan:
    rng = random.Random(seed)
    ops: list[Op] = []
    # no extra edges here: the full (r,s) scan costs O(B^2) in the number B
    # of unreachable subsets, which random extras moved by +-10% from seed to
    # seed; a relabeling keeps B and still reorders the canonical scan
    for n, k in ((14, 6), (16, 6)):
        g, _ = _relabeled_circulant(rng, n, k, 0.0)
        ops.append(_pair_battery(g, (k + 1) // 2, _min_in_degree(g, g.vertices) + 1))
    for n, k, checks in (
        (24, 8, (("strong", 3, True), ("tlf", 1, True), ("strong", None, False))),
        (26, 8, (("tlf", 1, True),)),
    ):
        g, perm = _relabeled_circulant(rng, n, k, 0.05)
        # leaders: the image of the window 1..4, which certifies strong
        # 3-robustness and TLF robustness for F=1 on C_n(1..8)
        window = [1, 2, 3, 4]
        for f, mode in ((1, "strong"), (1, "tlf")):
            if not robustness.circulant_certificate(n, k, window, f, mode).verdict:
                raise RuntimeError(f"exact: window {window} not certified ({mode})")
        leaders = frozenset(perm[v - 1] for v in window)
        for kind, param, verdict in checks:
            if param is None:
                # one follower with fewer in-neighbors than r is never r-reachable
                param = _min_in_degree(g, set(g.vertices) - leaders) + 1
            ops.append(_complement_query(g, leaders, kind, param, verdict))
    return Plan(ops, "queries", 7.3)


# ---------------------------------------------------------------------------
# crosscheck: many tiny decider calls, brute force against peeling
#
# An op is one graph with every leader set it gets, or every sampled
# certificate case of one circulant: tens of milliseconds, so a few
# milliseconds of host jitter on single calls does not set the op tail.

CROSS_RANDOM_GRAPHS = 28
CROSS_CERT_CASES = 38  # per circulant, so every certificate op has one size


def _cross_op(g, max_size: int) -> tuple[int, Any]:
    verdicts = []
    for size in range(1, max_size + 1):
        for leaders in itertools.combinations(g.vertices, size):
            strong = [(robustness.is_strongly_r_robust_bruteforce(g, leaders, r).verdict,
                       robustness.is_strongly_r_robust_peeling(g, leaders, r).verdict)
                      for r in range(g.n + 1)]
            tlf = [(robustness.is_tlf_robust_bruteforce(g, leaders, f).verdict,
                    robustness.is_tlf_robust_peeling(g, leaders, f).verdict)
                   for f in range(4)]
            verdicts.append((leaders, tuple(strong), tuple(tlf)))
    return 2 * (g.n + 5) * len(verdicts), verdicts


def _cross_check(output) -> tuple[Any, list[str]]:
    problems = []
    for leaders, strong, tlf in output:
        problems += [f"S={leaders} strong r={r}: bruteforce {b} vs peeling {p}"
                     for r, (b, p) in enumerate(strong) if b != p]
        problems += [f"S={leaders} tlf F={f}: bruteforce {b} vs peeling {p}"
                     for f, (b, p) in enumerate(tlf) if b != p]
    return tuple(output), problems


def _cert_op(g, n: int, k: int, cases) -> tuple[int, Any]:
    work, implied = 0, []
    for f, window in cases:
        work += 2
        if robustness.circulant_certificate(n, k, window, f, "strong").verdict:
            implied.append((f, tuple(window), "strong",
                            robustness.is_strongly_r_robust_bruteforce(g, window, 2 * f + 1).verdict))
            work += 1
        if robustness.circulant_certificate(n, k, window, f, "tlf").verdict:
            implied.append((f, tuple(window), "tlf",
                            robustness.is_tlf_robust_bruteforce(g, window, f).verdict))
            work += 1
    return work, implied


def _cert_check(output) -> tuple[Any, list[str]]:
    problems = [f"F={f} window={list(w)}: {mode} certificate true but bruteforce false"
                for f, w, mode, ok in output if not ok]
    return tuple(output), problems


def setup_crosscheck(seed: int, scratch: Path) -> Plan:
    rng = random.Random(seed)
    graphs = [_random_digraph(rng, 4 + idx % 7, (0.15, 0.3, 0.5, 0.7)[idx % 4])
              for idx in range(CROSS_RANDOM_GRAPHS)]
    circulants = {(n, k): graph.make_k_circulant(n, k) for n in range(5, 11) for k in range(1, n)}
    ops = [Op(f"cross random n={g.n} #{idx}", lambda g=g: _cross_op(g, 3), _cross_check)
           for idx, g in enumerate(graphs)]
    ops += [Op(f"cross C_{n}(1..{k})", lambda g=g: _cross_op(g, 2), _cross_check)
            for (n, k), g in circulants.items()]
    for (n, k), g in circulants.items():
        cases = [(f, [(start - 1 + j) % n + 1 for j in range(length)])
                 for f in range(3) for start in range(1, n + 1) for length in range(1, n)]
        sampled = rng.sample(cases, CROSS_CERT_CASES)
        ops.append(Op(f"certificates C_{n}(1..{k})",
                      lambda g=g, n=n, k=k, c=sampled: _cert_op(g, n, k, c), _cert_check))
    return Plan(ops, "queries", 3.0)


# name -> (set-up, gauge.KERNELS entry doing the same kind of work as the ops)
WORKLOADS: dict[str, tuple[Callable[[int, Path], Plan], str]] = {
    "track": (setup_track, "interpreter"),
    "wide": (setup_wide, "interpreter"),
    "exact": (setup_exact, "arrays"),
    "crosscheck": (setup_crosscheck, "interpreter"),
}
