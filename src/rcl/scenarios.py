"""Canned experiment scenarios: four reference simulations on circulant
digraphs, two constructions showing that plain r-/(r,s)-robustness cannot
guarantee reference tracking, and the leader-count necessity demonstration
with its converging contrast case.

Each scenario is a fixed SimConfig template (``Scenario.base``, which also
carries the default seed) together with machine-checkable robustness
preconditions, asserted before the run, and an expected outcome that the
runner evaluates against the recorded trajectory.  Waveform parameters,
switch rounds, and reference levels are artifact defaults chosen to exhibit
each effect clearly; to vary them, run ``dataclasses.replace`` on the
template.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, Union

import numpy as np

from .graph import Digraph, _integer, make_k_circulant
from .protocol import (
    Adversary,
    AgentRole,
    ConstantHold,
    Leader,
    Ramp,
    ReferenceSignal,
    Sinusoid,
    validate_f_local,
)
from .robustness import (
    RobustnessReport,
    circulant_certificate,
    circulant_r_robustness_lower_bound,
    is_r_robust,
    is_rs_robust,
)
from .simulation import Metrics, SimConfig, Trajectory, compute_metrics, run


class ScenarioError(RuntimeError):
    """Scenario construction failed (e.g. counterexample search exhausted)."""


class PreconditionError(RuntimeError):
    """A scenario's robustness precondition did not hold."""


# ---------------------------------------------------------------------------
# expected outcomes: each has its metrics' ``tol`` and ``check(traj, metrics)``


@dataclass(frozen=True)
class ConvergesToReference:
    tol: float = 1e-6

    def check(self, traj: Trajectory, metrics: Metrics) -> tuple[bool, str]:
        ok = metrics.convergence_round is not None
        return ok, (
            f"convergence_round={metrics.convergence_round}, "
            f"final_error={metrics.final_error:.3e} (tol={self.tol:g})"
        )


@dataclass(frozen=True)
class StaysAtValue:
    value: float
    tol = 1e-6

    def check(self, traj: Trajectory, metrics: Metrics) -> tuple[bool, str]:
        cols = traj.states[:, [i - 1 for i in traj.config.normals]]
        ok = bool(np.all(cols == self.value))
        return ok, f"all normal states == {self.value!r} at every round: {ok}"


@dataclass(frozen=True)
class NoConvergence:
    min_residual: float
    tol = 1e-6

    def check(self, traj: Trajectory, metrics: Metrics) -> tuple[bool, str]:
        err = metrics.tracking_error
        if err is None:
            return False, "no reference signal, residual undefined"
        ok = float(err.min()) >= self.min_residual
        return ok, f"min residual {float(err.min()):.6g} vs required {self.min_residual:g}"


@dataclass(frozen=True)
class ConsensusWithinHull:
    """Normal agents agree to within tol and end inside the hull of their
    initial values (the leaderless objective)."""

    tol: float = 1e-6

    def check(self, traj: Trajectory, metrics: Metrics) -> tuple[bool, str]:
        cols = traj.states[:, [i - 1 for i in traj.config.normals]]
        lo, hi = cols[0].min(), cols[0].max()
        in_hull = bool(np.all(cols[-1] >= lo) and np.all(cols[-1] <= hi))
        ok = metrics.final_disagreement <= self.tol and in_hull
        return ok, (
            f"final_disagreement={metrics.final_disagreement:.3e} (tol={self.tol:g}), "
            f"finals within initial hull [{lo:.3f}, {hi:.3f}]: {in_hull}"
        )


ExpectedOutcome = Union[ConvergesToReference, StaysAtValue, NoConvergence, ConsensusWithinHull]


# ---------------------------------------------------------------------------
# preconditions


@dataclass(frozen=True)
class PreconditionResult:
    name: str
    ok: bool
    detail: Any


@dataclass(frozen=True)
class Precondition:
    """``check`` returns ``(ok, detail)`` or a report: ok is its verdict, detail its ``to_json()``."""

    name: str
    check: Callable[[], Union[tuple[bool, Any], RobustnessReport]]

    def evaluate(self) -> PreconditionResult:
        out = self.check()
        ok, detail = (out.verdict, out.to_json()) if isinstance(out, RobustnessReport) else out
        return PreconditionResult(self.name, bool(ok), detail)


# ---------------------------------------------------------------------------
# scenario plumbing


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    scenario: "Scenario"
    config: SimConfig
    trajectory: Trajectory
    metrics: Metrics
    preconditions: tuple[PreconditionResult, ...]
    outcome_ok: bool
    outcome_detail: str


@dataclass(frozen=True, eq=False)
class Scenario:
    """A fixed simulation template with its preconditions and expected outcome.

    ``base`` is the complete run configuration and carries the default seed;
    ``config(seed)`` is ``replace(base, seed=seed)``.
    """

    name: str
    description: str
    expected: ExpectedOutcome
    base: SimConfig
    preconditions: tuple[Precondition, ...] = ()

    def config(self, seed: int | None = None) -> SimConfig:
        return self.base if seed is None else replace(self.base, seed=seed)

    def check_preconditions(self) -> tuple[PreconditionResult, ...]:
        """Evaluate all preconditions; raise PreconditionError on the first failure."""
        results = []
        for pre in self.preconditions:
            result = pre.evaluate()
            results.append(result)
            if not result.ok:
                raise PreconditionError(
                    f"scenario {self.name!r}: precondition {result.name!r} failed: {result.detail}"
                )
        return tuple(results)

    def run(
        self,
        seed: int | None = None,
        horizon: int | None = None,
        jobs: int = 1,
    ) -> ScenarioResult:
        """Check the preconditions, then simulate ``base`` with the given seed
        and horizon.  ``jobs`` accepts only 1, as in ``simulation.run``; it
        remains so that callers that pass ``jobs=1`` keep working."""
        pre_results = self.check_preconditions()
        config = self.config(seed)
        if horizon is not None:
            config = replace(config, horizon=horizon)
        traj = run(config, jobs=jobs)
        metrics = compute_metrics(traj, tol=self.expected.tol)
        ok, detail = self.expected.check(traj, metrics)
        return ScenarioResult(self, config, traj, metrics, pre_results, ok, detail)


def _sinusoids(ids: tuple[int, ...]) -> dict[int, AgentRole]:
    return {
        i: Adversary(Sinusoid(amplitude=50.0, period=40.0, phase=2.0 * math.pi * idx / len(ids)))
        for idx, i in enumerate(ids)
    }


# ---------------------------------------------------------------------------
# reference simulations


def sim1() -> Scenario:
    """Leaderless resilient consensus: 20 agents on C_20(1..15), three
    sinusoidal malicious agents, F=3.  Normal agents agree on a value inside
    the hull of their initial states."""
    n, k, f = 20, 15, 3

    def bound_check():
        bound = circulant_r_robustness_lower_bound(n, k)
        return bound >= 2 * f + 1, {"r_robustness_lower_bound": bound, "required": 2 * f + 1}

    return Scenario(
        name="sim1",
        description=(
            "Leaderless W-MSR consensus on C_20(1..15) with F=3 and three "
            "sinusoidal malicious agents {1, 6, 15}."
        ),
        expected=ConsensusWithinHull(1e-6),
        base=SimConfig(
            graph=make_k_circulant(n, k),
            f=f,
            horizon=500,
            roles=_sinusoids((1, 6, 15)),
            seed=101,
        ),
        preconditions=(Precondition("circulant_r_robustness_bound", bound_check),),
    )


_DESIGNATED_LEADERS = tuple(range(22, 29))
_ATTACKED_LEADERS = (22, 26, 28)
_SWITCHING_REFERENCE = ReferenceSignal(((0, 30.0), (100, -20.0), (200, 0.0)))


def _attacked_leaders_scenario(
    name: str, k: int, horizon: int, seed: int, reference: ReferenceSignal,
    adversaries: dict[int, AgentRole], description: str,
) -> Scenario:
    """C_30(1..k) with designated leaders {22..28}, of which the agents in
    ``adversaries`` (the attacked leaders {22, 26, 28}) are compromised, F=3."""
    n, f = 30, 3
    roles: dict[int, AgentRole] = {i: Leader() for i in _DESIGNATED_LEADERS if i not in adversaries}
    roles.update(adversaries)
    return Scenario(
        name=name,
        description=description,
        expected=ConvergesToReference(1e-6),
        base=SimConfig(
            graph=make_k_circulant(n, k),
            f=f,
            horizon=horizon,
            roles=roles,
            reference=reference,
            seed=seed,
        ),
        preconditions=(
            Precondition(
                "strongly_2f1_robust_certificate",
                lambda: circulant_certificate(n, k, _DESIGNATED_LEADERS, f, "strong"),
            ),
        ),
    )


def sim2() -> Scenario:
    """Reference tracking without trusted leaders: C_30(1..15), designated
    leaders {22..28} of which {22, 26, 28} are compromised, F=3, constant
    reference 40 outside the initial range."""
    return _attacked_leaders_scenario(
        "sim2", k=15, horizon=500, seed=202, reference=ReferenceSignal.constant(40.0),
        adversaries=_sinusoids(_ATTACKED_LEADERS),
        description="Reference tracking to 40 on C_30(1..15) with designated leaders "
        "{22..28}, attacked leaders {22, 26, 28}, F=3.",
    )


def sim3() -> Scenario:
    """Switching reference: C_30(1..12), leaders {22..28} with {22, 26, 28}
    attacked, reference stepping 30 -> -20 -> 0; tracking on every constant
    interval."""
    return _attacked_leaders_scenario(
        "sim3", k=12, horizon=300, seed=303, reference=_SWITCHING_REFERENCE,
        adversaries=_sinusoids(_ATTACKED_LEADERS),
        description="Switching reference (30, -20, 0 at rounds 0/100/200) on C_30(1..12) "
        "with attacked leaders, F=3.",
    )


def sim4() -> Scenario:
    """As sim3, but the compromised agents broadcast unbounded ramps (two
    rising, one falling) whose values dwarf the normal state range."""
    return _attacked_leaders_scenario(
        "sim4", k=12, horizon=300, seed=404, reference=_SWITCHING_REFERENCE,
        adversaries={
            22: Adversary(Ramp(slope=5.0, intercept=0.0)),
            26: Adversary(Ramp(slope=-5.0, intercept=0.0)),
            28: Adversary(Ramp(slope=8.0, intercept=-400.0)),
        },
        description="As sim3 but with unbounded ramp adversaries on C_30(1..12).",
    )


# ---------------------------------------------------------------------------
# insufficiency counterexamples

DEFAULT_SEARCH_BUDGET = 100_000
DEFAULT_A1 = 0.0
DEFAULT_A2 = 10.0


def _split_graph_candidates(
    f: int, search_seed: int, min_leader_in: int, n_malicious: int
) -> Iterator[tuple[Digraph, tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """``DEFAULT_SEARCH_BUDGET`` random digraphs on 4F+6 agents, each yielded
    with its designated leaders S1 = 1..F+1, followers S2 and malicious
    followers.

    Each candidate draws dense S2 x S2, then between ``min_leader_in`` and
    |S2| senders from S2 to each leader, then sparse S1 x S1; finally
    ``n_malicious`` drawn followers hear every leader and every other
    follower hears at most F of them.  The searches rely on this structure
    and test only robustness.
    """
    if f < 1:
        raise ScenarioError(f"counterexample construction needs F >= 1, got {f}")
    rng = random.Random(search_seed)
    n = 4 * f + 6
    s1 = tuple(range(1, f + 2))
    s2 = tuple(range(f + 2, n + 1))
    for _ in range(DEFAULT_SEARCH_BUDGET):
        edges: set[tuple[int, int]] = set()
        for i in s2:
            for j in s2:
                if i != j and rng.random() < 0.9:
                    edges.add((i, j))
        for i in s1:
            count = rng.randrange(min_leader_in, len(s2) + 1)
            edges.update((j, i) for j in rng.sample(s2, count))
        for i in s1:
            for j in s1:
                if i != j and rng.random() < 0.5:
                    edges.add((i, j))
        malicious = tuple(sorted(rng.sample(s2, n_malicious)))
        for j in s2:
            senders = s1 if j in malicious else rng.sample(s1, rng.randrange(0, f + 1))
            edges.update((i, j) for i in senders)
        yield Digraph(n, frozenset(edges)), s1, s2, malicious


def build_rs_counterexample(
    f: int, search_seed: int = 1
) -> tuple[Digraph, tuple[int, ...], tuple[int, ...], RobustnessReport]:
    """Randomized search for an (F+1, F+1)-robust digraph split into S1
    (F+1 designated leaders, each with >= F+1 in-neighbors outside S1) and S2
    (everyone else, each with <= F in-neighbors outside S2).

    Under W-MSR with S1 as leaders, no S2 agent ever keeps a value from
    outside S2, so S2 can never track the reference.
    """
    for g, s1, s2, _ in _split_graph_candidates(f, search_seed, f + 1, 0):
        report = is_rs_robust(g, f + 1, f + 1, force=True)
        if report.verdict:
            return g, s1, s2, report
    raise ScenarioError(
        f"no (F+1,F+1)-robust counterexample found for F={f} within {DEFAULT_SEARCH_BUDGET} attempts"
    )


def build_2f1_counterexample(
    f: int, search_seed: int = 1
) -> tuple[Digraph, tuple[int, ...], tuple[int, ...], tuple[int, ...], RobustnessReport]:
    """Randomized search for a (2F+1)-robust digraph with F+1 designated
    leaders S1 where exactly F followers receive from all of S1.

    When those F followers turn malicious and hold their value, every normal
    follower has at most F in-neighbors outside its own camp and never tracks
    the reference.
    """
    for g, s1, s2, malicious in _split_graph_candidates(f, search_seed, 2 * f + 1, f):
        report = is_r_robust(g, 2 * f + 1, force=True)
        if report.verdict:
            return g, s1, s2, malicious, report
    raise ScenarioError(
        f"no (2F+1)-robust counterexample found for F={f} within {DEFAULT_SEARCH_BUDGET} attempts"
    )


def _counterexample_config(
    g: Digraph, f: int, s1: tuple[int, ...], s2: tuple[int, ...],
    malicious: tuple[int, ...], seed: int,
) -> SimConfig:
    """Leaders S1 track the reference a1 from a1; followers S2 start at a2,
    and the ``malicious`` followers hold a2."""
    init = {i: DEFAULT_A1 for i in s1}
    init.update({j: DEFAULT_A2 for j in s2})
    roles: dict[int, AgentRole] = {i: Leader() for i in s1}
    roles.update({j: Adversary(ConstantHold(DEFAULT_A2)) for j in malicious})
    return SimConfig(
        graph=g,
        f=f,
        horizon=300,
        roles=roles,
        reference=ReferenceSignal.constant(DEFAULT_A1),
        init=init,
        seed=seed,
    )


def counterexample_rs(f: int = 1, search_seed: int = 1) -> Scenario:
    """An (F+1, F+1)-robust network whose F+1 leaders can never pull the rest."""
    g, s1, s2, robustness = build_rs_counterexample(f, search_seed)
    s1_set, s2_set = set(s1), set(s2)

    def s1_check():
        bad = [i for i in s1 if len(g.in_neighbors(i) - s1_set) < f + 1]
        return not bad, {"leaders_lacking_outside_in_neighbors": bad}

    def s2_check():
        bad = [j for j in s2 if len(g.in_neighbors(j) - s2_set) > f]
        return not bad, {"followers_exceeding_f_outside_in_neighbors": bad}

    return Scenario(
        name="counterexample-rs",
        description=(
            f"(F+1,F+1)-robust graph (F={f}, n={g.n}) whose {f + 1} leaders are "
            "walled off: every follower has at most F in-neighbors outside the "
            "follower set, so the followers never move."
        ),
        expected=NoConvergence(abs(DEFAULT_A2 - DEFAULT_A1)),
        base=_counterexample_config(g, f, s1, s2, (), seed=505),
        preconditions=(
            Precondition("rs_robustness_holds", lambda: robustness),
            Precondition("leaders_have_f1_outside_in_neighbors", s1_check),
            Precondition("followers_capped_at_f_outside_in_neighbors", s2_check),
        ),
    )


def counterexample_2f1(f: int = 1, search_seed: int = 1) -> Scenario:
    """A (2F+1)-robust network defeated by F malicious followers that screen
    the only agents hearing all F+1 leaders."""
    g, s1, s2, malicious, robustness = build_2f1_counterexample(f, search_seed)
    s1_set = set(s1)

    def f_local_check():
        ok, violator = validate_f_local(g, malicious, f)
        return ok, {"violating_agent": violator}

    def adjacency_check():
        fully = sorted(j for j in s2 if s1_set <= g.in_neighbors(j))
        return (
            len(fully) <= f and set(fully) == set(malicious),
            {"followers_hearing_all_leaders": fully, "malicious": list(malicious)},
        )

    return Scenario(
        name="counterexample-2f1",
        description=(
            f"(2F+1)-robust graph (F={f}, n={g.n}) where the only followers "
            "hearing all leaders are malicious and hold their value."
        ),
        expected=NoConvergence(abs(DEFAULT_A2 - DEFAULT_A1)),
        base=_counterexample_config(g, f, s1, s2, malicious, seed=606),
        preconditions=(
            Precondition("2f1_robustness_holds", lambda: robustness),
            Precondition("adversaries_f_local", f_local_check),
            Precondition("full_leader_adjacency_limited_to_adversaries", adjacency_check),
        ),
    )


# ---------------------------------------------------------------------------
# leader-count necessity

_DEFICIT_HOLD = 0.0
_DEFICIT_TARGET = 10.0


def _leader_count_config(f: int, leaders: int, seed: int) -> tuple[SimConfig, int, int]:
    """C_n(1..k) with n=4F+8, k=2F+1: agents 1..``leaders`` lead toward the
    target, F adversaries opposite them hold everyone's initial value."""
    n, k = 4 * f + 8, 2 * f + 1
    graph = make_k_circulant(n, k)
    roles: dict[int, AgentRole] = {i: Leader() for i in range(1, leaders + 1)}
    roles.update(
        {i: Adversary(ConstantHold(_DEFICIT_HOLD)) for i in range(n // 2 + 1, n // 2 + 1 + f)}
    )
    config = SimConfig(
        graph=graph,
        f=f,
        horizon=500,
        roles=roles,
        reference=ReferenceSignal.constant(_DEFICIT_TARGET),
        init={i: _DEFICIT_HOLD for i in graph.vertices},
        seed=seed,
    )
    return config, n, k


def leader_deficit_scenario(f: int = 1) -> Scenario:
    """With only F agents acting as leaders, F-local adversaries holding the
    followers' common value pin every normal agent there forever, even though
    the graph could support full tracking with one more leader."""
    base, n, k = _leader_count_config(f, f, seed=707)
    window = tuple(range(1, 2 * f + 2))
    return Scenario(
        name="leader-deficit",
        description=(
            f"Leader-count necessity on C_{n}(1..{k}): only F={f} leaders at "
            f"{_DEFICIT_TARGET}, everyone else (including {f} holding adversaries) at "
            f"{_DEFICIT_HOLD}; normals never move."
        ),
        expected=StaysAtValue(_DEFICIT_HOLD),
        base=base,
        preconditions=(
            Precondition(
                "graph_supports_2f1_leader_window",
                lambda: circulant_certificate(n, k, window, f, "strong"),
            ),
        ),
    )


def leader_deficit_contrast(f: int = 1) -> Scenario:
    """Same graph and adversaries as leader-deficit, with F+1 leaders instead of F:
    trusted-leader tracking succeeds."""
    base, n, k = _leader_count_config(f, f + 1, seed=708)
    return Scenario(
        name="leader-deficit-contrast",
        description=(
            f"Contrast for the leader-deficit run on C_{n}(1..{k}): F+1={f + 1} trusted leaders "
            "suffice for tracking."
        ),
        expected=ConvergesToReference(1e-6),
        base=base,
        preconditions=(
            Precondition(
                "tlf_robust_certificate",
                lambda: circulant_certificate(n, k, base.leaders, f, "tlf"),
            ),
        ),
    )


# ---------------------------------------------------------------------------
# registry

_BUILDERS: dict[str, Callable[..., Scenario]] = {
    "sim1": sim1,
    "sim2": sim2,
    "sim3": sim3,
    "sim4": sim4,
    "counterexample-rs": counterexample_rs,
    "counterexample-2f1": counterexample_2f1,
    "leader-deficit": leader_deficit_scenario,
    "leader-deficit-contrast": leader_deficit_contrast,
}
_FIXED_F = frozenset({"sim1", "sim2", "sim3", "sim4"})

# Largest F a parametric scenario accepts.  leader-deficit builds
# C_{4F+8}(1..2F+1), whose edges grow as F^2: F = 64 runs in about a second.
# The counterexample searches certify 4F+6 agents by a forced pair check: seconds
# up to F = 5, and from F = 6 on PAIR_SCAN_BUDGET refuses them (exit 2).
MAX_SCENARIO_F = 64

SCENARIO_NAMES = tuple(_BUILDERS)


def build_scenario(name: str, f: int | None = None) -> Scenario:
    """Look up a scenario by name; ``f`` applies to the parametric ones."""
    if name not in _BUILDERS:
        raise ScenarioError(f"unknown scenario {name!r}; known: {', '.join(SCENARIO_NAMES)}")
    if f is None:
        return _BUILDERS[name]()
    if name in _FIXED_F:
        raise ScenarioError(f"scenario {name!r} does not take an F override")
    f = _integer(f, "F", ScenarioError)
    if not 0 <= f <= MAX_SCENARIO_F:
        raise ScenarioError(f"F must be in [0, {MAX_SCENARIO_F}] for scenario {name!r}, got {f}")
    return _BUILDERS[name](f)
