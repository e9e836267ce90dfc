"""Per-agent behavior: the W-MSR filter and update, leader and adversary
signals, weight schemes, and the F-local adversary check.  Each signal gives
its value at one round (``value_at``) and at every round up to a horizon as
an array (``series``), the two equal bit for bit.

The filter uses strict comparisons: incoming values equal to the agent's own
state are never removed.  Ties among removable values are broken by removing
the larger sender id first; since tied values are equal this cannot change
the retained value multiset (asserted by tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .graph import Digraph, _count, _integer, _number, _require, _vertex_mask


class ConfigError(ValueError):
    """Invalid configuration; a record's message starts with the JSON pointer
    of the field at fault, a strategy's relative to the strategy (``/value``)."""


def _finite(value, name: str) -> float:
    """``value`` by the number rule, and finite, as only an adversary may send NaN or +-inf."""
    if not math.isfinite(number := _number(value, name, ConfigError)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return number


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
        _require(self.breakpoints, "/reference/breakpoints", [(int, float)],
                 "a list of [round, value] with integer rounds", ConfigError)
        if not self.breakpoints:
            raise ConfigError("/reference: reference signal needs at least one breakpoint")
        rounds = [_integer(t, "breakpoint round") for t, _ in self.breakpoints]
        if rounds[0] != 0:
            raise ConfigError(f"/reference: first breakpoint must be at round 0, got {rounds[0]}")
        if any(b >= a for b, a in zip(rounds, rounds[1:])):
            raise ConfigError(f"/reference: breakpoint rounds must be strictly increasing, got {rounds}")
        values = [_finite(v, f"/reference/breakpoints/{idx}/1:") for idx, (_, v) in enumerate(self.breakpoints)]
        object.__setattr__(self, "breakpoints", tuple(zip(rounds, values)))

    @classmethod
    def constant(cls, value: float) -> "ReferenceSignal":
        return cls(((0, _finite(value, "/reference/constant:")),))

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

    def series(self, horizon: int) -> np.ndarray:
        """``value_at(t)`` for t in 0..horizon as a float64 array, one slice
        per breakpoint up to the horizon: O(horizon + breakpoints), where a
        call of ``value_at`` per round scans the breakpoints each time."""
        out = np.empty(horizon + 1)
        for (t1, t2), (_, value) in zip(self.constant_intervals(horizon), self.breakpoints):
            out[t1:t2] = value
        return out

    def constant_intervals(self, horizon: int) -> list[tuple[int, int]]:
        """Maximal [t1, t2) intervals with constant value, covering 0..horizon."""
        starts = [t for t, _ in self.breakpoints if t <= horizon]
        ends = starts[1:] + [horizon + 1]
        return list(zip(starts, ends))


# ---------------------------------------------------------------------------
# adversary strategies


class _NumberFields:
    def __post_init__(self) -> None:
        """Each field by the number rule, NaN and +-inf included; an int stays
        an int, as the JSON reader has always written it back."""
        for field in fields(self):
            value = getattr(self, field.name)
            number = _number(value, f"/{field.name}:", ConfigError)
            if type(value) is not int:
                object.__setattr__(self, field.name, number)


@dataclass(frozen=True)
class ConstantHold(_NumberFields):
    value: float

    def value_at(self, t: int) -> float:
        return self.value

    def series(self, horizon: int) -> np.ndarray:
        """``value_at(t)`` for t in 0..horizon as a float64 array; every
        signal has this form, each of its values converted as ``float`` does."""
        return np.full(horizon + 1, float(self.value))


@dataclass(frozen=True)
class Sinusoid(_NumberFields):
    amplitude: float
    period: float
    phase: float = 0.0
    offset: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.period <= 0:
            raise ConfigError(f"/period: sinusoid period must be positive, got {self.period}")

    def value_at(self, t: int) -> float:
        """NaN where the angle is not finite, as ``math.sin`` refuses +-inf."""
        angle = 2.0 * math.pi * t / self.period + self.phase
        return self.offset + self.amplitude * (math.nan if math.isinf(angle) else math.sin(angle))

    def series(self, horizon: int) -> np.ndarray:
        """``value_at``'s operations in its order, on float64 arrays: Python's
        float-int operations convert the int as ``float`` does, so int fields
        give the same bits.  The sine stays ``math.sin``, as NumPy's does not
        promise the same rounding.  Python's float arithmetic overflows and
        makes NaN without a warning, so NumPy's warnings are off here."""
        with np.errstate(over="ignore", invalid="ignore"):
            angle = 2.0 * math.pi * np.arange(horizon + 1.0) / float(self.period) + float(self.phase)
            infinite = np.isinf(angle)
            angle[infinite] = 0.0
            sine = np.fromiter(map(math.sin, angle.tolist()), float, horizon + 1)
            sine[infinite] = math.nan
            return float(self.offset) + float(self.amplitude) * sine


@dataclass(frozen=True)
class Ramp(_NumberFields):
    slope: float
    intercept: float = 0.0

    def value_at(self, t: int) -> float:
        return self.slope * t + self.intercept

    def series(self, horizon: int) -> np.ndarray:
        """An int slope keeps ``value_at``'s exact int product, which float64
        need not round alike, so only a float one runs on arrays (warnings
        off, as in ``Sinusoid.series``)."""
        if type(self.slope) is not float:
            return np.array([self.value_at(t) for t in range(horizon + 1)], dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            return self.slope * np.arange(horizon + 1.0) + float(self.intercept)


@dataclass(frozen=True)
class Scripted:
    """Explicit per-round values; the last value persists past the script end."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        _require(self.values, "/values", [float], "a list of numbers", ConfigError)
        if not self.values:
            raise ConfigError("/values: scripted strategy needs at least one value")
        object.__setattr__(self, "values", tuple(map(float, self.values)))

    def value_at(self, t: int) -> float:
        return self.values[min(t, len(self.values) - 1)]

    def series(self, horizon: int) -> np.ndarray:
        out = np.empty(horizon + 1)
        head = self.values[: horizon + 1]
        out[: len(head)] = head
        out[len(head) :] = head[-1]
        return out


ScalarStrategy = Union[ConstantHold, Sinusoid, Ramp, Scripted]


@dataclass(frozen=True)
class ByzantinePerEdge:
    """Sends an independent scalar signal to each out-neighbor."""

    signals: Mapping[int, ScalarStrategy]

    def __post_init__(self) -> None:
        object.__setattr__(self, "signals", {_integer(j, f"/edges/{j}:", ConfigError): s
                                             for j, s in self.signals.items()})
        for j, s in self.signals.items():
            if not isinstance(s, ScalarStrategy):
                raise ConfigError(f"/edges/{j}: not a scalar strategy: {s!r}")


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
        alpha = _number(self.alpha, "/alpha:", ConfigError)
        if not (0.0 < alpha < 1.0):
            raise ConfigError(f"/alpha: alpha must be in (0, 1), got {alpha}")
        object.__setattr__(self, "alpha", alpha)
        if self.table is not None:
            frozen = {}
            for key, w in dict(self.table).items():
                i, j = key
                w = _finite(w, f"/weight_table/{i}/{j}:")
                if w < alpha:
                    raise ConfigError(f"/weight_table/{i}/{j}: table weight w[{i},{j}]={w} is below "
                                      f"the floor alpha={alpha}")
                frozen[tuple(_integer(v, f"/weight_table/{i}/{j}: agent id", ConfigError) for v in key)] = w
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
            raise ConfigError(f"weight table entry missing, though agent {agent} hears agent {j}") from None
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
