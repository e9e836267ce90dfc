"""Synchronous round engine producing trajectories, plus convergence and
envelope metrics, trajectory export, and the JSON configuration format.

Rounds are lockstep with perfect delivery: round t+1 states are computed only
from round-t delivered values.  Each round (``_round``, over the arrays that
``_layout`` builds once per run) is one array program over all normal agents,
in column layout, that reproduces the scalar W-MSR filter and update of
``protocol`` bit for bit; ``replay_states`` re-runs those scalar functions as
the oracle.  The weighted sums come from an error-free extraction with one
constant per round, certified agent by agent to equal ``math.fsum``; the rare
sums it cannot certify (NaN, +-inf, a huge dynamic range, a zero sum) go to
``math.fsum``.  Runs are deterministic given (config, seed).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Mapping

import numpy as np

from .graph import (
    Digraph, GraphError, _integer, _integer_text, _number, _require, graph_from_json, graph_to_json, make_k_circulant,
    make_undirected_circulant,
)
from .protocol import (
    Adversary,
    AdversaryStrategy,
    AgentRole,
    ByzantinePerEdge,
    ConfigError,
    ConstantHold,
    Leader,
    Normal,
    NORMAL,
    Ramp,
    ReferenceSignal,
    ScalarStrategy,
    Scripted,
    Sinusoid,
    WeightScheme,
    _finite,
    default_alpha,
    opposite_infinities,
    validate_f_local,
    wmsr_filter,
    wmsr_update,
)


def role_name(role: AgentRole) -> str:
    if isinstance(role, Normal):
        return "normal"
    if isinstance(role, Leader):
        return "leader"
    return "adversary"


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run.

    Roles default to Normal for unlisted agents.  ``init`` is either a
    (low, high) uniform range sampled per agent from ``seed``, or an explicit
    value per agent; leader initial states are overridden to the reference
    value at round 0, and adversary broadcasts follow their strategy from
    round 0 on.  Initial and reference values must be finite; adversary
    values are unrestricted.  With ``strict_f_local`` the adversary set must
    pass the F-local check at construction.  ``normals``, ``leaders`` and
    ``adversaries`` are the ids of each role in ascending order, set at
    construction.
    """

    graph: Digraph
    f: int
    horizon: int
    roles: Mapping[int, AgentRole] = field(default_factory=dict)
    reference: ReferenceSignal | None = None
    scheme: WeightScheme | None = None
    init: tuple[float, float] | Mapping[int, float] = (-25.0, 25.0)
    seed: int = 0
    strict_f_local: bool = True

    def __post_init__(self) -> None:
        g = self.graph
        for key in ("f", "horizon", "seed"):  # errors read "/f: must be an integer, got 1.5"
            object.__setattr__(self, key, _integer(getattr(self, key), f"/{key}:", ConfigError))
        if self.f < 0:
            raise ConfigError(f"/f: must be >= 0, got {self.f}")
        if self.horizon < 1:
            raise ConfigError(f"/horizon: must be >= 1, got {self.horizon}")
        roles = {}
        for i, role in dict(self.roles).items():
            try:
                roles[g._vertex(i)] = role
            except GraphError:
                raise ConfigError(f"/roles/{i}: unknown agent id") from None
            if not isinstance(role, (Normal, Leader, Adversary)):
                raise ConfigError(f"/roles/{i}: not a role: {role!r}")
            if isinstance(role, Adversary) and not isinstance(role.strategy, AdversaryStrategy):
                raise ConfigError(f"/roles/{i}/adversary: not a strategy: {role.strategy!r}")
        full_roles = {i: roles.get(i, NORMAL) for i in g.vertices}
        object.__setattr__(self, "roles", full_roles)
        for name, kind in (("normals", Normal), ("leaders", Leader), ("adversaries", Adversary)):
            object.__setattr__(self, name, tuple(i for i, role in full_roles.items() if isinstance(role, kind)))

        if self.leaders and self.reference is None:
            raise ConfigError("/reference: leaders are present but no reference signal is configured")

        scheme = self.scheme or WeightScheme(default_alpha(g))
        bound = 1.0 / (g.max_in_degree + 1)
        if scheme.table is None and scheme.alpha > bound + 1e-15:
            raise ConfigError(f"/alpha: alpha={scheme.alpha} infeasible: equal weighting needs alpha <= "
                              f"1/(max in-degree + 1) = {bound}")
        if scheme.table is not None:
            for i in g.vertices:
                total = 0.0
                for j in sorted(g.inclusive_neighbors(i)):
                    if (i, j) not in scheme.table:
                        raise ConfigError(f"/weight_table/{i}/{j}: missing, though agent {i} hears agent {j}")
                    total += scheme.table[(i, j)]
                if not abs(total - 1.0) <= 1e-9:
                    raise ConfigError(f"/weight_table/{i}: rows must sum to 1 over inclusive neighbors; "
                                      f"agent {i} sums to {total}")
            # the table holds every (agent, sender) pair of the graph, so any more entries are off it
            if len(scheme.table) > g.n + len(g.edges):
                i, j = min(set(scheme.table) - {(v, v) for v in g.vertices} - {(b, a) for a, b in g.edges})
                raise ConfigError(f"/weight_table/{i}/{j}: agent {i} does not hear agent {j}")
        object.__setattr__(self, "scheme", scheme)

        if isinstance(self.init, Mapping):
            missing = [i for i in g.vertices if i not in self.init]
            if missing:
                raise ConfigError(f"/init/values: missing agents {missing}")
            try:
                init = {g._vertex(i): _finite(v, f"/init/values/{i}:") for i, v in self.init.items()}
            except GraphError as exc:
                raise ConfigError(f"/init/values: {exc}") from None
            object.__setattr__(self, "init", init)
        else:
            _require(self.init, "/init/range", (float, float), "[lo, hi] of numbers", ConfigError)
            lo, hi = (_finite(v, f"/init/range/{end}:") for end, v in enumerate(self.init))
            if not (lo <= hi):
                raise ConfigError(f"/init/range: need low <= high, got [{lo}, {hi}]")
            if hi - lo == math.inf:  # random.uniform draws lo + (hi - lo) * u
                raise ConfigError(f"/init/range: high - low must be finite, got [{lo}, {hi}]")
            object.__setattr__(self, "init", (lo, hi))

        for i, role in full_roles.items():
            if isinstance(role, Adversary) and isinstance(role.strategy, ByzantinePerEdge):
                out = self.graph.out_neighbors(i)
                keys = set(role.strategy.signals)
                if keys != out:
                    raise ConfigError(f"/roles/{i}/adversary: byzantine signals must cover the "
                                      f"out-neighbors {sorted(out)}, got {sorted(keys)}")
        if (self.horizon + 1) * (width := g.n + 1 + len(_delivered(self))) * 8 > np.iinfo(np.intp).max:
            raise ConfigError(f"/horizon: {self.horizon} rounds of {width} float64 columns exceed NumPy's largest array")

        if not isinstance(self.strict_f_local, bool):
            raise ConfigError(f"/strict_f_local: must be a boolean, got {self.strict_f_local!r}")
        if self.strict_f_local:
            ok, bad = validate_f_local(g, self.adversaries, self.f)
            if not ok:
                raise ConfigError(f"/roles: adversary set is not F-local for F={self.f}: agent {bad} has too many "
                                  "adversarial inclusive in-neighbors (set strict_f_local=False to override)")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded run: per-round broadcast per agent, per-edge values for
    Byzantine senders, and the realized reference series.  From ``run``,
    ``states`` is a read-only view that keeps the run's whole buffer alive."""

    config: SimConfig
    states: np.ndarray
    reference: np.ndarray | None
    edge_values: Mapping[tuple[int, int], np.ndarray]

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1

    def broadcast(self, t: int, agent: int) -> float:
        return float(self.states[t, agent - 1])

    def delivered(self, t: int, sender: int, receiver: int) -> float:
        """Value receiver heard from sender at round t (differs from the
        broadcast only for Byzantine senders)."""
        arr = self.edge_values.get((sender, receiver))
        if arr is not None:
            return float(arr[t])
        return float(self.states[t, sender - 1])


def _initial_values(config: SimConfig) -> dict[int, float]:
    if isinstance(config.init, Mapping):
        return dict(config.init)
    lo, hi = config.init
    rng = random.Random(config.seed)
    return {i: rng.uniform(lo, hi) for i in config.graph.vertices}


def _delivered(config: SimConfig) -> list[tuple[int, int | None]]:
    """The senders with their own column in a run's buffer: (u, None) for a
    scalar adversary u, (u, v) for a Byzantine edge from u into a normal v."""
    strategies = {u: config.roles[u].strategy for u in config.adversaries}
    return [(u, v) for u, s in strategies.items()
            for v in (sorted(s.signals) if isinstance(s, ByzantinePerEdge) else [None])
            if v is None or v in config.normals]


def _layout(config: SimConfig) -> SimpleNamespace:
    """The arrays of a run that ``_round`` reads and writes, laid out once.
    ``x``, the run's state buffer, holds at ``x[t, c]`` what column c
    delivers at round t, the NaN that pads gather for c = 0, agent c's
    broadcast for c in 1..n (the view ``states``), and past n what a sender
    of ``_delivered`` delivers, NaN read as +inf.  Row r of ``sid`` holds the
    columns of x that the r-th normal agent gathers.  Every round overwrites
    ``cols`` and ``spare``: the sorted rows' transpose and the sum's scratch."""
    g = config.graph
    n, horizon = g.n, config.horizon
    rounds = range(horizon + 1)
    delivered = _delivered(config)
    # allocated first, so that a horizon too long for memory fails at once
    x = np.full((horizon + 1, n + 1 + len(delivered)), np.nan)
    states = x[:, 1 : n + 1]
    ref_series = None
    if config.reference is not None:
        ref_series = np.array([config.reference.value_at(t) for t in rounds])

    # leader and adversary broadcasts and the Byzantine edge values depend
    # only on the round, so they are laid out up front
    edge_values: dict[tuple[int, int], np.ndarray] = {}
    init = _initial_values(config)
    for i in g.vertices:
        role = config.roles[i]
        if isinstance(role, Leader):
            states[:, i - 1] = ref_series
        elif isinstance(role, Adversary) and isinstance(role.strategy, ByzantinePerEdge):
            for j, sig in sorted(role.strategy.signals.items()):
                edge_values[(i, j)] = np.array([sig.value_at(t) for t in rounds])
            states[:, i - 1] = edge_values[(i, min(role.strategy.signals))] if role.strategy.signals else 0.0
        elif isinstance(role, Adversary):
            states[:, i - 1] = [role.strategy.value_at(t) for t in rounds]
        else:
            states[0, i - 1] = init[i]

    # Row r of ``sid`` lists the inclusive in-neighbours of the r-th normal
    # agent in ascending id order, padded with 0, which gathers NaN from x:
    # pads compare false with every value and sort after all of them.
    normals = config.normals
    senders = [sorted(g.inclusive_neighbors(i)) for i in normals]
    width = max(map(len, senders), default=1)
    f = min(config.f, width)  # no row drops more than its degree, and NumPy needs a C long
    upper = max(min(map(len, senders), default=0) - f - 1, 0)  # where the high band starts
    sid = np.zeros((len(normals), width), dtype=np.intp)
    for r, row in enumerate(senders):
        sid[r, : len(row)] = row
    table = config.scheme.table
    weight = None if table is None else np.ones((len(normals), width))
    if table is not None:
        for r, (i, row) in enumerate(zip(normals, senders)):
            weight[r, : len(row)] = [table[(i, j)] for j in row]
    for c, (u, v) in enumerate(delivered, start=n + 1):
        x[:, c] = states[:, u - 1] if v is None else edge_values[(u, v)]
        hears = sid if v is None else sid[normals.index(v)]  # every normal row, or v's
        hears[hears == u] = c
    # a delivered NaN counts as +inf, as in wmsr_filter; only an adversary
    # can send one, as the reference and the initial values are finite
    sent = x[:, n + 1 :]
    np.copyto(sent, np.inf, where=np.isnan(sent))
    return SimpleNamespace(
        states=states, reference=ref_series, edge_values=edge_values, x=x, normals=normals, sid=sid,
        f=f, upper=upper, degree=(sid > 0).sum(axis=1), rows=np.arange(len(normals)),
        past_upper=np.arange(upper + 1, width)[:, None], weight=weight, ids=np.array(normals, dtype=np.intp),
        cols=np.empty((width, len(normals))), spare=np.empty((width, len(normals))),
    )


def _round(lay: SimpleNamespace, t: int) -> bool:
    """Compute round t + 1's normal states into ``lay.x[t + 1]``; True at a
    fixed point: every row common and the states equal to round t's, bit for bit.

    One gather through ``sid`` gives each normal agent every value it hears,
    a Byzantine sender's per-edge value included, and is sorted in place.  A
    row's retained set is one run of its sorted values, less at most F at
    each end, so the round counts and masks only the F + 1 sorted positions at
    each end.  After the row sort one transpose puts every agent's k-th
    smallest value in row k of ``cols``, so the band counts, the scaling, the
    masks and the certified sum all run along contiguous rows.  The values in
    sender order are gathered again only where they are read: by a weight
    table, and for the common rows at the end.  The equal weight rule sums
    the run in sorted order, exactly: tied values give the same terms (a
    tied zero's sign cannot change a nonzero sum, and ``math.fsum`` returns
    +0.0 for a zero one), and the sum is fsum's correctly rounded one.  A
    weight table can give tied senders different weights, so only a table
    resolves cut-point ties by sender id; it zeroes the dropped values before
    the shares scale them, as a dropped sender's share of the kept total can
    exceed 1 and overflow a value near the largest float.  The certified sum
    takes the round's largest |term| and each row's least nonzero one from
    here: the equal rule reads them off the scaled ends of each retained run
    (``_end_bounds``), and a table, whose shares break the sorted order, off
    the terms (``_magnitudes``).
    """
    xt, f, upper, cols = lay.x[t], lay.f, lay.upper, lay.cols
    own = xt[lay.ids]
    ordered = xt[lay.sid]
    ordered.sort(axis=1)
    cols[...] = ordered.T
    # values below own are a prefix of the sorted run and values above it end
    # at its last real entry, so each band count is the full one, or over F
    below = cols[: f + 1] < own
    n_lower = below.sum(axis=0)
    n_higher = (cols[upper:] > own).sum(axis=0)
    drop_low = np.minimum(n_lower, f)
    stop = lay.degree - np.minimum(n_higher, f)
    common = np.maximum(n_lower, n_higher) <= f
    lo = cols[drop_low, lay.rows]
    hi = cols[stop - 1, lay.rows]

    if lay.weight is None:
        # retained: sorted positions drop_low..stop - 1 (drop_low <= F, stop > upper), each weighted 1/size
        scale = 1.0 / (stop - drop_low)
        np.multiply(cols, scale, out=cols)
        cols[:f][below[:f]] = 0.0
        cols[upper + 1 :][lay.past_upper >= stop] = 0.0
        top, low = _end_bounds(lo * scale, hi * scale)
    else:
        # In sender order the retained set is every value in [lo, hi] but
        # the ``extra`` values tied with lo or hi that have the largest
        # sender ids, which wmsr_filter drops.
        vals = xt[lay.sid]
        upto_hi = vals <= hi[:, None]
        keep = upto_hi & (vals >= lo[:, None])
        for cut, extra in ((lo, drop_low - (vals < lo[:, None]).sum(axis=1)),
                           (hi, upto_hi.sum(axis=1) - stop)):
            if extra.any():
                ties = vals == cut[:, None]
                from_right = np.cumsum(ties[:, ::-1], axis=1)[:, ::-1]
                keep &= ~(ties & (from_right <= extra[:, None]))
        # the renormalising total is a sequential sum in sender order, as
        # in wmsr_weights
        share = lay.weight / np.cumsum(np.where(keep, lay.weight, 0.0), axis=1)[:, -1:]
        cols.T[...] = share * np.where(keep, vals, 0.0)
        top, low = _magnitudes(cols, lay.spare)
    # the weighted sum is fsum's correctly rounded one, so independent of
    # order; common rows need no fsum, as their sum is discarded below
    mixed, rest = _column_sums(cols, lay.spare, top, low, common)
    for r in rest:
        try:
            mixed[r] = math.fsum(cols[:, r].tolist())
        except ValueError:  # fsum of +inf and -inf
            raise ConfigError(f"round {t}: {opposite_infinities(lay.normals[r])}") from None
    # Python's max(x, lo) and min(x, hi), which keep x on signed-zero ties
    mixed = np.where(lo > mixed, lo, mixed)
    mixed = np.where(hi < mixed, hi, mixed)
    # a retained set of one common value returns the first such value in
    # sender order, as wmsr_update returns min(values)
    same = common.nonzero()[0]
    if same.size:
        vals = xt[lay.sid[same]]
        mixed[same] = vals[np.arange(same.size), np.argmax(vals == own[same, None], axis=1)]
    lay.x[t + 1][lay.ids] = mixed
    return same.size == len(lay.ids) and bool((mixed.view(np.int64) == own.view(np.int64)).all())


def _hold(lay: SimpleNamespace, t: int) -> int:
    """Fill ``lay.x[t + 1 : u + 1]`` with the fixed point that ``_round``
    reached at round t and return u, the first later round that does not
    repeat it: one where a row is not common, as ``_round`` counts, or where
    a row's first value equal to its own in sender order is not its own bit
    for bit.  Blocks of rounds are tested at once, growing to about 2^16
    gathered values."""
    held, ids, horizon = lay.x[t + 1, lay.ids], lay.ids, lay.x.shape[0] - 1
    most = max(2**16 // max(lay.sid.size, 1), 1)
    u, step = t + 1, min(8, most)
    while u < horizon:
        block = lay.x[u : min(u + step, horizon)]
        block[:, ids] = held
        vals, own = block[:, lay.sid], held[:, None]
        first = np.take_along_axis(vals, np.argmax(vals == own, axis=2)[..., None], axis=2)[..., 0]
        ok = ((vals < own).sum(axis=2) <= lay.f) & ((vals > own).sum(axis=2) <= lay.f)
        rounds = (ok & (first.view(np.int64) == held.view(np.int64))).all(axis=1)
        if not rounds.all():
            return u + int(np.argmin(rounds))
        u, step = u + len(block), min(2 * step, most)
    lay.x[horizon, ids] = held
    return horizon


def run(config: SimConfig, jobs: int = 1) -> Trajectory:
    """Execute the configured run and record its trajectory.  The rounds
    (``_round``) write the states in place, in columns 1..n of the run's
    state buffer (``_layout``), with no copy; the trajectory keeps that buffer
    whole, pad and delivered columns included, with ``states`` a read-only
    view of it.  Each round reproduces ``wmsr_filter`` and ``wmsr_update`` bit
    for bit, the oracle of ``verify_replay``.  ``jobs`` accepts only 1."""
    if jobs != 1:
        raise ConfigError(f"jobs must be 1 (the engine runs serially), got {jobs}")
    lay = _layout(config)
    t = 0
    while t < config.horizon:
        t = _hold(lay, t) if _round(lay, t) else t + 1
    for arr in (lay.states, lay.reference, *lay.edge_values.values()):
        if arr is not None:
            arr.setflags(write=False)
    return Trajectory(config, lay.states, lay.reference, lay.edge_values)


def _end_bounds(first: np.ndarray, last: np.ndarray) -> tuple[float, np.ndarray]:
    """``_column_sums``' ``top`` and ``low`` for columns whose nonzero terms
    lie between their ``first`` and ``last`` term, as a sorted run scaled by
    a positive weight does, rounding being monotone.  ``top`` is the largest
    |term| bit for bit; ``low`` is each column's least nonzero |term| where
    its run misses 0, and <= 0 where it reaches 0."""
    return float(max(0.0, -first.min(initial=0.0), last.max(initial=0.0))), np.maximum(first, -last)


def _magnitudes(terms: np.ndarray, spare: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """``_column_sums``' ``top`` and ``low`` read off ``terms`` themselves:
    the largest |term| and each column's least nonzero one (inf where there
    is none); ``spare``, when given, takes the magnitudes."""
    mag = np.abs(terms, out=spare)
    return float(mag.max(initial=0.0)), mag.min(axis=0, where=mag != 0, initial=np.inf)


def _column_sums(terms: np.ndarray, spare: np.ndarray, top: float, low: np.ndarray,
                 skip: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column sums of ``terms`` and the columns outside the mask ``skip``
    whose sum is not certified to equal ``math.fsum`` of that column bit for
    bit; ``spare`` is a work buffer of the same shape.

    The caller gives ``top``, the largest |term| of ``terms``, and ``low``,
    each column's least nonzero |term| or a bound <= 0 where it has none: the
    equal rule reads both off each sorted run's two ends (``_end_bounds``), a
    weight table off the terms (``_magnitudes``).  A column outside ``skip``
    left uncertified with ``low`` <= 0 takes its least nonzero |term| from
    its terms and is tested again, so a round with no such column makes no
    extra pass.

    Error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31(1),
    2008): with sigma a power of two above 2*w*max|p| over all w-term columns,
    q = (sigma + p) - sigma is a multiple of sigma*2**-53 and p - q is exact,
    so sum(q) is exact in any order.  When a column has w*sigma <=
    2**52*min|p != 0|, every p - q is a multiple of one quantum and their
    partial sums stay below 2**53 quanta, so sum(p - q) is exact too, and
    adding the two rounds the exact sum once, half to even, as fsum does.
    One sigma serves every column; a column is certified only when that test
    holds and its sum is nonzero, since fsum has its own signed-zero rules.
    No column is certified when the largest |p| is NaN, +-inf, so large that
    sigma would overflow, or so small that the low parts near the subnormals.
    """
    w, count = terms.shape
    scale = 2.0 * w * top
    if not (top > 2.0**-900 and scale < 2.0**1023):
        return np.zeros(count), (~skip).nonzero()[0]
    sigma = math.ldexp(1.0, math.frexp(scale)[1])
    q = np.add(terms, sigma, out=spare)
    q -= sigma
    sums = q.sum(axis=0)
    sums += np.subtract(terms, q, out=spare).sum(axis=0)
    floor = sigma * 2.0**-52 * w
    ok = (floor <= low) & (sums != 0)
    rest = (~(ok | skip)).nonzero()[0]
    near = rest[low[rest] <= 0] if rest.size else rest
    if near.size:
        ok[near] = (floor <= _magnitudes(terms[:, near])[1]) & (sums[near] != 0)
        rest = rest[~ok[rest]]
    return sums, rest


def replay_states(traj: Trajectory) -> np.ndarray:
    """Recompute every normal transition from the recorded delivered values.

    Returns an array shaped like ``traj.states`` holding the recomputed
    normal-agent states for rounds >= 1 (other entries copied); a compliant
    trajectory reproduces itself exactly.
    """
    config = traj.config
    out = np.array(traj.states)
    in_lists = {i: sorted(config.graph.in_neighbors(i)) for i in config.normals}
    for t in range(traj.horizon):
        for i in config.normals:
            incoming = [(j, traj.delivered(t, j, i)) for j in in_lists[i]]
            retained = wmsr_filter(i, traj.broadcast(t, i), incoming, config.f)
            try:
                out[t + 1, i - 1] = wmsr_update(i, retained, config.scheme)
            except ConfigError as exc:
                raise ConfigError(f"round {t}: {exc}") from None
    return out


def verify_replay(traj: Trajectory) -> bool:
    """True when the replayed states match the recorded ones bit for bit
    (so -0.0 differs from 0.0, and a recorded NaN matches itself)."""
    return replay_states(traj).tobytes() == traj.states.tobytes()


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class IntervalReport:
    """Envelope behavior on one maximal constant-reference interval [start, end).
    The invariant is judged over the normal agents: a leader holds the
    interval's reference, which lies in the envelope at ``start``."""

    start: int
    end: int
    envelope_monotone: bool
    interval_invariant: bool
    end_error: float | None


@dataclass(frozen=True, eq=False)
class Metrics:
    lower: np.ndarray
    upper: np.ndarray
    tracking_error: np.ndarray | None
    disagreement: np.ndarray
    tol: float
    convergence_round: int | None
    consensus_round: int | None
    final_error: float | None
    final_disagreement: float
    intervals: tuple[IntervalReport, ...]

    @property
    def envelope_monotone(self) -> bool:
        return all(iv.envelope_monotone for iv in self.intervals)

    @property
    def interval_invariant(self) -> bool:
        return all(iv.interval_invariant for iv in self.intervals)

    @property
    def converged(self) -> bool:
        if self.tracking_error is not None:
            return self.convergence_round is not None
        return self.consensus_round is not None


# the convergence tolerance wherever none is given
DEFAULT_TOL = 1e-6


def check_tol(tol: float) -> float:
    """The convergence tolerance as a float (``graph._number``'s rule); raise
    ValueError unless it is finite and positive."""
    tol = _number(tol, "tolerance")
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    return tol


def _sustained_round(series: np.ndarray, tol: float) -> int | None:
    """Smallest t with series[s] <= tol for all s in [t, end]; None if the
    series ends above tol.  NaN counts as above tol."""
    above = np.nonzero(~(series <= tol))[0]
    if above.size == 0:
        return 0
    t = int(above[-1]) + 1
    return t if t < series.size else None


# the floating-point round-off the envelope checks forgive
ENVELOPE_SLACK = 1e-12


def compute_metrics(traj: Trajectory, tol: float = DEFAULT_TOL) -> Metrics:
    """Every metric from three per-round series: ``low`` and ``high``, the least and greatest
    normal state (the reference when no agent is normal), and the reference ``ref``.  Envelope
    [min(low, ref), max(high, ref)]; disagreement high - low; tracking error (None without a
    reference) max |x_i - x_r| = max(|high - ref|, |low - ref|), as rounding is monotone and
    symmetric; the rounds from which each stays within tol; and the envelope on every maximal
    constant-reference interval (one interval without a reference)."""
    tol = check_tol(tol)
    ref = traj.reference
    # C order: the reduction order decides which of -0.0 and 0.0 the minima
    # and maxima return, and the bundles pin that choice
    cols = np.ascontiguousarray(traj.states[:, [i - 1 for i in traj.config.normals]])
    low, high = (cols.min(axis=1), cols.max(axis=1)) if cols.shape[1] else (ref, ref)
    if low is None:
        raise ConfigError("envelope undefined: no normal agents and no reference")
    lower, upper = (low, high) if ref is None else (np.minimum(low, ref), np.maximum(high, ref))
    # a difference wider than the largest float reads +inf, and one between
    # equal infinities NaN, with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        disag = high - low
        err = None if ref is None else np.maximum(np.abs(high - ref), np.abs(low - ref))
        rise_lower, rise_upper = np.diff(lower), np.diff(upper)
    if traj.config.reference is None:
        spans = [(0, traj.horizon + 1)]
    else:
        spans = traj.config.reference.constant_intervals(traj.horizon)
    intervals = []
    for t1, t2 in spans:
        monotone = bool(
            np.all(rise_lower[t1 : t2 - 1] >= -ENVELOPE_SLACK) and np.all(rise_upper[t1 : t2 - 1] <= ENVELOPE_SLACK)
        )
        invariant = bool(low[t1:t2].min() >= lower[t1] - ENVELOPE_SLACK
                         and high[t1:t2].max() <= upper[t1] + ENVELOPE_SLACK)
        end_error = float(err[t2 - 1]) if err is not None else None
        intervals.append(IntervalReport(t1, t2, monotone, invariant, end_error))
    return Metrics(
        lower=lower,
        upper=upper,
        tracking_error=err,
        disagreement=disag,
        tol=tol,
        convergence_round=_sustained_round(err, tol) if err is not None else None,
        consensus_round=_sustained_round(disag, tol),
        final_error=float(err[-1]) if err is not None else None,
        final_disagreement=float(disag[-1]),
        intervals=tuple(intervals),
    )


def _json_safe(obj: Any) -> Any:
    """``obj`` with NaN and +-inf as "NaN", "Infinity" and "-Infinity", numbers RFC 8259 lacks."""
    return json.loads(json.dumps(obj), parse_constant=str)


def metrics_to_dict(m: Metrics) -> dict:
    return _json_safe({
        "tol": m.tol,
        "converged": m.converged,
        "convergence_round": m.convergence_round,
        "final_error": m.final_error,
        "consensus_round": m.consensus_round,
        "final_disagreement": m.final_disagreement,
        "envelope": {
            "monotone": m.envelope_monotone,
            "interval_invariant": m.interval_invariant,
            "intervals": [asdict(iv) for iv in m.intervals],
        },
    })


# ---------------------------------------------------------------------------
# trajectory export


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """Columns: round, agent, role, value, reference (blank without a reference).

    Each round is formatted as one string: no field can need CSV quoting, since
    role names are fixed identifiers and ``repr(float)`` holds no comma, quote
    or newline."""
    config = traj.config
    prefixes = [f",{i},{role_name(config.roles[i])}," for i in config.graph.vertices]
    states = np.asarray(traj.states, dtype=float)
    if traj.reference is None:
        refs = [""] * (traj.horizon + 1)
    else:
        refs = map(repr, np.asarray(traj.reference, dtype=float).tolist())
    with open(path, "w", newline="") as handle:
        handle.write("round,agent,role,value,reference\n")
        for t, ref in enumerate(refs):
            _write_round(handle, t, prefixes, states[t], f",{ref}\n")


def write_edges_csv(traj: Trajectory, path: str | Path) -> None:
    """Per-edge delivered values for Byzantine senders: round, from, to, value."""
    edges = sorted(traj.edge_values)
    prefixes = [f",{u},{v}," for u, v in edges]
    values = np.array([traj.edge_values[e] for e in edges], dtype=float)
    values = values.reshape(len(edges), traj.horizon + 1)
    with open(path, "w", newline="") as handle:
        handle.write("round,from,to,value\n")
        for t in range(traj.horizon + 1):
            _write_round(handle, t, prefixes, values[:, t], "\n")


def _write_round(handle, t: int, prefixes: list[str], row: np.ndarray, tail: str) -> None:
    """One line per prefix: ``{t}{prefix}{repr(value)}{tail}``."""
    if prefixes:
        head = str(t)
        fields = map(str.__add__, prefixes, map(repr, row.tolist()))
        handle.write(head + (tail + head).join(fields) + tail)


# ---------------------------------------------------------------------------
# JSON configuration format


_SCALAR_STRATEGIES = {"constant": ConstantHold, "sinusoid": Sinusoid, "ramp": Ramp, "scripted": Scripted}


def _scalar_strategy_from_dict(obj: Any, path: str) -> ScalarStrategy:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ConfigError(f"{path}: strategy must be an object with a 'type' key")
    kind = obj["type"]
    if not isinstance(kind, str) or kind not in _SCALAR_STRATEGIES:
        raise ConfigError(f"{path}/type: unknown scalar strategy {kind!r}")
    fields = {k: _float_names(v) for k, v in obj.items() if k != "type"}
    try:
        return _SCALAR_STRATEGIES[kind](**fields)
    except TypeError as exc:
        raise ConfigError(f"{path}: bad fields for {kind!r} strategy: {exc}") from None
    except ConfigError as exc:  # the strategy's own pointer continues ``path``
        raise ConfigError(f"{path}{exc}") from None


def _strategy_from_dict(obj: Any, path: str) -> Adversary:
    if isinstance(obj, dict) and obj.get("type") == "byzantine":
        edges = obj.get("edges")
        if not isinstance(edges, dict):
            raise ConfigError(f"{path}/edges: byzantine strategy needs an 'edges' object")
        return Adversary(ByzantinePerEdge({
            _agent_id(key, f"{path}/edges/{key}"): _scalar_strategy_from_dict(sub, f"{path}/edges/{key}")
            for key, sub in edges.items()
        }))
    return Adversary(_scalar_strategy_from_dict(obj, path))


def _strategy_to_dict(strategy) -> dict:
    if isinstance(strategy, ByzantinePerEdge):
        return {
            "type": "byzantine",
            "edges": {str(k): _strategy_to_dict(v) for k, v in sorted(strategy.signals.items())},
        }
    kind = next(kind for kind, cls in _SCALAR_STRATEGIES.items() if isinstance(strategy, cls))
    return {"type": kind, **asdict(strategy)}


def _float_names(value: Any) -> Any:
    """A strategy field with the strings "NaN", "Infinity" and "-Infinity" as floats."""
    if isinstance(value, list):
        return [_float_names(v) for v in value]
    return float(value) if value in ("NaN", "Infinity", "-Infinity") else value


def _form(obj: Any, path: str, *forms: str) -> str:
    """The one key of ``forms`` that the object ``obj`` holds, with no other
    key beside it except ``n`` beside ``edges``."""
    form = next((key for key in forms if key in obj), None) if isinstance(obj, dict) else None
    if form is None:
        raise ConfigError(f"{path}: expected an object with one of the keys {', '.join(map(repr, forms))}, "
                          f"got {obj!r}")
    extra = sorted(set(obj) - ({"n", "edges"} if form == "edges" else {form}))
    if extra:
        raise ConfigError(f"{path}/{extra[0]}: unexpected key next to {form!r}")
    return form


def _graph_from_config(obj: Any, path: str) -> Digraph:
    form = _form(obj, path, "circulant", "undirected_circulant", "edges")
    value, where = obj[form], f"{path}/{form}"
    try:
        if form == "circulant":
            return make_k_circulant(*_require(value, where, (int, int), "[n, k] of integers", ConfigError))
        if form == "undirected_circulant":
            n, offsets = _require(value, where, (int, [int]), "[n, [offsets]] of integers", ConfigError)
            return make_undirected_circulant(n, offsets)
        return graph_from_json(obj, path)
    except GraphError as exc:
        raise ConfigError(str(exc) if form == "edges" else f"{path}: {exc}") from None


def _agent_id(key: Any, path: str) -> int:
    """An agent id written as a JSON object key."""
    return _integer_text(key, f"{path}: agent id", ConfigError)


def config_from_dict(obj: Any) -> SimConfig:
    """Build a SimConfig from the JSON configuration object.

    Violations are reported with JSON-pointer-style paths.  The reader checks
    JSON structure only; each value is checked by the record that holds it.
    """
    if not isinstance(obj, dict):
        raise ConfigError("/: configuration must be a JSON object")
    known = {"graph", "f", "horizon", "seed", "alpha", "weight_table", "roles", "reference", "init", "strict_f_local"}
    for key in obj:
        if key not in known:
            raise ConfigError(f"/{key}: unknown configuration key")
    missing = [key for key in ("graph", "f", "horizon") if key not in obj]
    if missing:
        raise ConfigError(f"/{missing[0]}: required")
    args: dict[str, Any] = {key: obj[key] for key in ("f", "horizon", "seed", "strict_f_local") if key in obj}
    graph = args["graph"] = _graph_from_config(obj["graph"], "/graph")

    roles: dict[int, AgentRole] = args.setdefault("roles", {})
    role_specs = {} if obj.get("roles") is None else obj["roles"]
    if not isinstance(role_specs, dict):
        raise ConfigError(f"/roles: must be an object or null, got {role_specs!r}")
    for key, val in role_specs.items():
        path = f"/roles/{key}"
        agent = _agent_id(key, path)
        if val in ("normal", "leader"):
            roles[agent] = Normal() if val == "normal" else Leader()
        else:
            _form(val, path, "adversary")
            roles[agent] = _strategy_from_dict(val["adversary"], f"{path}/adversary")

    if obj.get("reference") is not None:
        ref = obj["reference"]
        if _form(ref, "/reference", "constant", "breakpoints") == "constant":
            args["reference"] = ReferenceSignal.constant(ref["constant"])
        else:
            args["reference"] = ReferenceSignal(ref["breakpoints"])

    if "init" in obj:
        spec = obj["init"]
        if _form(spec, "/init", "range", "values") == "range":
            args["init"] = spec["range"]
        elif not isinstance(spec["values"], dict):
            raise ConfigError("/init/values: must map agent ids to numbers")
        else:
            args["init"] = {_agent_id(k, f"/init/values/{k}"): v for k, v in spec["values"].items()}

    if "alpha" in obj or "weight_table" in obj:
        alpha = default_alpha(graph) if obj.get("alpha") is None else obj["alpha"]
        table = None
        if obj.get("weight_table") is not None:
            if not isinstance(obj["weight_table"], dict):
                raise ConfigError(f"/weight_table: must be an object, got {obj['weight_table']!r}")
            table = {}
            for i_key, row in obj["weight_table"].items():
                if not isinstance(row, dict):
                    raise ConfigError(f"/weight_table/{i_key}: must be an object")
                for j_key, w in row.items():
                    path = f"/weight_table/{i_key}/{j_key}"
                    table[_agent_id(i_key, path), _agent_id(j_key, path)] = w
        args["scheme"] = WeightScheme(alpha, table)
    return SimConfig(**args)


def config_to_dict(config: SimConfig) -> dict:
    roles = {}
    for i in config.graph.vertices:
        role = config.roles[i]
        if isinstance(role, Leader):
            roles[str(i)] = "leader"
        elif isinstance(role, Adversary):
            roles[str(i)] = {"adversary": _strategy_to_dict(role.strategy)}
    out: dict[str, Any] = {
        "graph": graph_to_json(config.graph),
        "f": config.f,
        "horizon": config.horizon,
        "seed": config.seed,
        "roles": roles,
        "strict_f_local": config.strict_f_local,
        "alpha": config.scheme.alpha,
    }
    if config.scheme.table is not None:
        table: dict[str, dict[str, float]] = {}
        for (i, j), w in sorted(config.scheme.table.items()):
            table.setdefault(str(i), {})[str(j)] = w
        out["weight_table"] = table
    if config.reference is not None:
        out["reference"] = {"breakpoints": [[t, v] for t, v in config.reference.breakpoints]}
    if isinstance(config.init, Mapping):
        out["init"] = {"values": {str(i): v for i, v in sorted(config.init.items())}}
    else:
        out["init"] = {"range": list(config.init)}
    return _json_safe(out)
