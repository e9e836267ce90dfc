"""Per-agent behavior: the W-MSR filter and update, leader and adversary
signals, weight schemes, and the F-local adversary check.

The filter uses strict comparisons: incoming values equal to the agent's own
state are never removed.  Ties among removable values are broken by removing
the larger sender id first; since tied values are equal this cannot change
the retained value multiset (asserted by tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

from .graph import Digraph, _count, _integer, _vertex_mask


class ConfigError(ValueError):
    """Invalid protocol or simulation configuration."""


# ---------------------------------------------------------------------------
# reference signal


@dataclass(frozen=True)
class ReferenceSignal:
    """Right-continuous piecewise-constant step function of the round index.

    ``breakpoints`` is an ordered list of (round, value); the value at round t
    is that of the last breakpoint at or before t.  The first breakpoint must
    be at round 0, so the signal is defined for every round and is constant
    from the final breakpoint on.
    """

    breakpoints: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not self.breakpoints:
            raise ConfigError("reference signal needs at least one breakpoint")
        rounds = [t for t, _ in self.breakpoints]
        if rounds[0] != 0:
            raise ConfigError(f"first breakpoint must be at round 0, got {rounds[0]}")
        if any(b >= a for b, a in zip(rounds, rounds[1:])):
            raise ConfigError(f"breakpoint rounds must be strictly increasing, got {rounds}")
        object.__setattr__(self, "breakpoints", tuple((_integer(t, "breakpoint round", ConfigError), float(v))
                                                      for t, v in self.breakpoints))

    @classmethod
    def constant(cls, value: float) -> "ReferenceSignal":
        return cls(((0, value),))

    def value_at(self, t: int) -> float:
        if t < 0:
            raise ValueError(f"round must be >= 0, got {t}")
        value = self.breakpoints[0][1]
        for td, v in self.breakpoints:
            if td <= t:
                value = v
            else:
                break
        return value

    def constant_intervals(self, horizon: int) -> list[tuple[int, int]]:
        """Maximal [t1, t2) intervals with constant value, covering 0..horizon."""
        starts = [t for t, _ in self.breakpoints if t <= horizon]
        ends = starts[1:] + [horizon + 1]
        return list(zip(starts, ends))


# ---------------------------------------------------------------------------
# adversary strategies


@dataclass(frozen=True)
class ConstantHold:
    value: float

    def value_at(self, t: int) -> float:
        return self.value


@dataclass(frozen=True)
class Sinusoid:
    amplitude: float
    period: float
    phase: float = 0.0
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ConfigError(f"sinusoid period must be positive, got {self.period}")

    def value_at(self, t: int) -> float:
        return self.offset + self.amplitude * math.sin(2.0 * math.pi * t / self.period + self.phase)


@dataclass(frozen=True)
class Ramp:
    slope: float
    intercept: float = 0.0

    def value_at(self, t: int) -> float:
        return self.slope * t + self.intercept


@dataclass(frozen=True)
class Scripted:
    """Explicit per-round values; the last value persists past the script end."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigError("scripted strategy needs at least one value")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def value_at(self, t: int) -> float:
        return self.values[min(t, len(self.values) - 1)]


ScalarStrategy = Union[ConstantHold, Sinusoid, Ramp, Scripted]


@dataclass(frozen=True)
class ByzantinePerEdge:
    """Sends an independent scalar signal to each out-neighbor."""

    signals: Mapping[int, ScalarStrategy]

    def __post_init__(self) -> None:
        object.__setattr__(self, "signals", {_integer(j, "byzantine out-neighbor", ConfigError): s
                                             for j, s in self.signals.items()})


AdversaryStrategy = Union[ScalarStrategy, ByzantinePerEdge]


# ---------------------------------------------------------------------------
# roles


@dataclass(frozen=True)
class Normal:
    pass


@dataclass(frozen=True)
class Leader:
    pass


@dataclass(frozen=True)
class Adversary:
    strategy: AdversaryStrategy


AgentRole = Union[Normal, Leader, Adversary]

NORMAL = Normal()


# ---------------------------------------------------------------------------
# W-MSR filter and update


def wmsr_filter(
    agent: int, own: float, incoming: Iterable[tuple[int, float]], f: int
) -> list[tuple[int, float]]:
    """W-MSR outlier removal relative to the agent's own value.

    Among incoming values strictly greater than ``own``, the min(F, count)
    largest are removed; symmetrically for values strictly less.  The agent's
    own value is always retained.  An incoming NaN counts as +inf, so that
    the top-F removal discards it like any other extreme value.  Returns
    retained (sender, value) pairs, including (agent, own), sorted by sender
    id.
    """
    f = _count(f, "F")
    higher = []
    lower = []
    retained = [(agent, own)]
    for j, v in incoming:
        if math.isnan(v):
            v = math.inf
        if v > own:
            higher.append((v, j))
        elif v < own:
            lower.append((v, j))
        else:
            retained.append((j, v))
    higher.sort(key=lambda p: (p[0], p[1]))
    lower.sort(key=lambda p: (p[0], -p[1]))
    retained.extend((j, v) for v, j in higher[: len(higher) - min(f, len(higher))])
    retained.extend((j, v) for v, j in lower[min(f, len(lower)):])
    retained.sort()
    return retained


@dataclass(frozen=True)
class WeightScheme:
    """Convex-combination weights over the retained set.

    With ``table=None`` every retained value gets weight 1/|retained| (which
    satisfies the floor alpha whenever alpha <= 1/(max in-degree + 1)).
    Otherwise ``table[(agent, sender)]`` holds fixed per-edge weights that are
    renormalized over the retained set each round; since renormalization can
    only scale weights up, entries >= alpha keep the floor.
    """

    alpha: float
    table: Mapping[tuple[int, int], float] | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"/alpha: alpha must be in (0, 1), got {self.alpha}")
        if self.table is not None:
            frozen = {}
            for key, w in dict(self.table).items():
                i, j = key
                if w < self.alpha:
                    raise ConfigError(
                        f"/weight_table/{i}/{j}: table weight w[{i},{j}]={w} is below "
                        f"the floor alpha={self.alpha}"
                    )
                frozen[tuple(_integer(v, f"/weight_table/{i}/{j}: agent id", ConfigError) for v in key)] = float(w)
            object.__setattr__(self, "table", frozen)


def default_alpha(g: Digraph) -> float:
    """Largest floor the equal rule can always honor: 1/(max in-degree + 1).
    Without edges every agent hears only itself, which honors any floor below
    1, so the in-degree counts as at least 1 to keep alpha in (0, 1)."""
    return 1.0 / (max(g.max_in_degree, 1) + 1)


def wmsr_weights(
    agent: int, retained_ids: Sequence[int], scheme: WeightScheme
) -> dict[int, float]:
    """Weights for one update; zero outside the retained set, floor alpha, sum 1."""
    m = len(retained_ids)
    if m == 0:
        raise ValueError("retained set must be nonempty")
    if scheme.table is None:
        if scheme.alpha > 1.0 / m + 1e-15:
            raise ConfigError(
                f"alpha={scheme.alpha} infeasible for retained set of size {m}"
            )
        w = 1.0 / m
        return {j: w for j in retained_ids}
    raw = {}
    for j in retained_ids:
        try:
            raw[j] = scheme.table[(agent, j)]
        except KeyError:
            raise ConfigError(f"weight table missing entry for edge ({agent}, {j})") from None
    # a left-to-right sum in sender order, which the engine reproduces
    # (from Python 3.12 on, sum() of floats is compensated)
    total = 0.0
    for w in raw.values():
        total += w
    return {j: w / total for j, w in raw.items()}


def wmsr_update(
    agent: int, retained: Sequence[tuple[int, float]], scheme: WeightScheme
) -> float:
    """Convex combination of the retained values under the weight scheme.

    The result is clamped to [min retained, max retained] to keep summation
    round-off from escaping the hull, and a retained set with a single common
    value returns that value exactly.
    """
    if not retained:
        raise ValueError("retained set must be nonempty")
    values = [v for _, v in retained]
    lo, hi = min(values), max(values)
    if lo == hi:
        return lo
    weights = wmsr_weights(agent, [j for j, _ in retained], scheme)
    try:
        x = math.fsum(weights[j] * v for j, v in retained)
    except ValueError:  # fsum of +inf and -inf
        raise opposite_infinities(agent) from None
    return min(max(x, lo), hi)


def opposite_infinities(agent: int) -> ConfigError:
    # only more than F adversarial inclusive in-neighbors can deliver both
    return ConfigError(f"agent {agent} retains both +inf and -inf: the adversary set is not F-local")


# ---------------------------------------------------------------------------
# F-local validation


def validate_f_local(
    g: Digraph, adversaries: Iterable[int], f: int
) -> tuple[bool, int | None]:
    """Check that no non-adversarial agent has more than F adversaries among
    its inclusive in-neighbors.  Returns (ok, first violating agent or None).
    """
    f = _count(f, "F")
    adv = _vertex_mask(g.n, adversaries, "adversary")
    for i, in_mask in enumerate(g.in_masks, start=1):
        if not adv >> (i - 1) & 1 and (in_mask & adv).bit_count() > f:
            return False, i
    return True, None
