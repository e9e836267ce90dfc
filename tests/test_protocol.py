import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcl.graph import GraphError, make_k_circulant, make_undirected_circulant
from rcl.protocol import (
    ByzantinePerEdge,
    ConfigError,
    ConstantHold,
    Ramp,
    ReferenceSignal,
    Scripted,
    Sinusoid,
    WeightScheme,
    default_alpha,
    validate_f_local,
    wmsr_filter,
    wmsr_update,
    wmsr_weights,
)


def values(retained):
    return sorted(v for _, v in retained)


# ---------------------------------------------------------------------------
# filter


def test_filter_spec_example():
    incoming = [(2, 1.0), (3, 2.0), (4, 7.0), (5, 9.0), (6, 10.0)]
    retained = wmsr_filter(1, 5.0, incoming, 2)
    assert values(retained) == [5.0, 7.0]


def test_filter_f0_keeps_everything():
    incoming = [(2, 1.0), (3, 9.0), (4, 5.0)]
    retained = wmsr_filter(1, 5.0, incoming, 0)
    assert values(retained) == [1.0, 5.0, 5.0, 9.0]


def test_filter_equal_values_never_removed():
    incoming = [(j, 4.0) for j in range(2, 8)]
    retained = wmsr_filter(1, 4.0, incoming, 3)
    assert values(retained) == [4.0] * 7


def test_filter_empty_incoming():
    assert wmsr_filter(3, 2.5, [], 4) == [(3, 2.5)]


def test_filter_removes_at_most_f_per_side():
    incoming = [(2, -10.0), (3, -5.0), (4, 20.0)]
    retained = wmsr_filter(1, 0.0, incoming, 1)
    # one removed below (-10), one removed above (20)
    assert values(retained) == [-5.0, 0.0]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    own=st.integers(-5, 5),
    vals=st.lists(st.integers(-5, 5), max_size=12),
    f=st.integers(0, 4),
)
def test_filter_retention_bound_and_own_kept(own, vals, f):
    incoming = [(j + 2, float(v)) for j, v in enumerate(vals)]
    retained = wmsr_filter(1, float(own), incoming, f)
    removed = len(incoming) - (len(retained) - 1)
    assert 0 <= removed <= 2 * f
    assert (1, float(own)) in retained


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    own=st.integers(-5, 5),
    vals=st.lists(st.integers(-5, 5), max_size=10),
    f=st.integers(0, 3),
    seed=st.integers(0, 10_000),
)
def test_filter_order_invariance(own, vals, f, seed):
    incoming = [(j + 2, float(v)) for j, v in enumerate(vals)]
    shuffled = incoming[:]
    random.Random(seed).shuffle(shuffled)
    a = wmsr_filter(1, float(own), incoming, f)
    b = wmsr_filter(1, float(own), shuffled, f)
    assert values(a) == values(b)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    f=st.integers(0, 4),
    c_l=st.integers(-3, 3),
    extra=st.lists(st.integers(-10, 10), max_size=10),
    own=st.integers(-10, 10),
    pad=st.integers(0, 3),
)
def test_filter_majority_common_value_survives(f, c_l, extra, own, pad):
    # at least F+1 copies of a common value always leave one copy retained
    copies = f + 1 + pad
    incoming = [(j + 2, float(c_l)) for j in range(copies)]
    incoming += [(100 + j, float(v)) for j, v in enumerate(extra)]
    retained = wmsr_filter(1, float(own), incoming, f)
    assert float(c_l) in [v for _, v in retained]


def test_filter_tie_break_removes_larger_ids_first():
    # four values above own, F=2: the two removed are the tied largest with
    # the larger sender ids; retained multiset is unaffected by the tie order
    incoming = [(2, 7.0), (3, 7.0), (4, 7.0), (5, 6.0)]
    retained = wmsr_filter(1, 5.0, incoming, 2)
    assert values(retained) == [5.0, 6.0, 7.0]
    assert (2, 7.0) in retained and (4, 7.0) not in retained and (3, 7.0) not in retained


# ---------------------------------------------------------------------------
# update and weights


def scheme_for(size, alpha=None):
    return WeightScheme(alpha if alpha is not None else 1.0 / (size + 1))


def test_update_spec_example():
    retained = [(1, 5.0), (2, 7.0)]
    assert wmsr_update(1, retained, WeightScheme(0.25)) == 6.0


def test_update_singleton():
    assert wmsr_update(1, [(1, 3.25)], WeightScheme(0.5)) == 3.25


def test_update_mean_of_four():
    retained = [(1, 0.0), (2, 0.0), (3, 0.0), (4, 10.0)]
    assert wmsr_update(1, retained, WeightScheme(0.1)) == 2.5


def test_update_exact_when_all_equal():
    retained = [(j, 10.0 / 3.0) for j in range(1, 8)]
    assert wmsr_update(1, retained, WeightScheme(0.05)) == 10.0 / 3.0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    vals=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=12),
)
def test_update_contraction(vals):
    retained = [(j + 1, v) for j, v in enumerate(vals)]
    out = wmsr_update(1, retained, WeightScheme(1.0 / (len(vals) + 1)))
    assert min(vals) <= out <= max(vals)


def test_equal_weights_satisfy_conditions():
    ids = [1, 4, 9, 12]
    w = wmsr_weights(1, ids, WeightScheme(0.2))
    assert set(w) == set(ids)
    assert abs(sum(w.values()) - 1.0) < 1e-12
    assert all(x >= 0.2 for x in w.values())


def test_equal_weights_infeasible_alpha():
    with pytest.raises(ConfigError):
        wmsr_weights(1, [1, 2, 3], WeightScheme(0.5))


def test_fixed_table_renormalizes_up():
    table = {(1, 1): 0.4, (1, 2): 0.3, (1, 3): 0.3}
    scheme = WeightScheme(0.25, table)
    w = wmsr_weights(1, [1, 2], scheme)
    assert abs(sum(w.values()) - 1.0) < 1e-12
    assert w[1] == pytest.approx(0.4 / 0.7)
    assert all(x >= 0.25 for x in w.values())


def test_fixed_table_missing_entry():
    scheme = WeightScheme(0.2, {(1, 1): 0.5, (1, 2): 0.5})
    with pytest.raises(ConfigError, match="missing"):
        wmsr_weights(1, [1, 3], scheme)


def test_missing_table_entry_names_the_agent_and_its_sender():
    # the graph edge is (2, 1): agent 1 hears sender 2
    with pytest.raises(ConfigError, match=r"^weight table entry missing, though agent 1 hears agent 2$"):
        wmsr_weights(1, [1, 2], WeightScheme(0.25, {(1, 1): 1.0}))


def test_weight_scheme_validation():
    with pytest.raises(ConfigError):
        WeightScheme(0.0)
    with pytest.raises(ConfigError):
        WeightScheme(1.0)
    with pytest.raises(ConfigError, match="floor"):
        WeightScheme(0.3, {(1, 1): 0.1})


def test_default_alpha_is_inverse_max_degree_plus_one():
    g = make_k_circulant(10, 4)
    assert default_alpha(g) == 1.0 / 5.0


# ---------------------------------------------------------------------------
# reference signal and leader


def test_reference_piecewise_lookup():
    ref = ReferenceSignal(((0, 30.0), (100, -20.0), (200, 0.0)))
    assert ref.value_at(0) == 30.0
    assert ref.value_at(99) == 30.0
    assert ref.value_at(100) == -20.0  # right-continuous at the switch
    assert ref.value_at(150) == -20.0
    assert ref.value_at(200) == 0.0
    assert ref.value_at(10_000) == 0.0


def test_reference_constant():
    ref = ReferenceSignal.constant(7.5)
    assert all(ref.value_at(t) == 7.5 for t in (0, 1, 500))


def test_reference_validation():
    with pytest.raises(ConfigError):
        ReferenceSignal(())
    with pytest.raises(ConfigError):
        ReferenceSignal(((5, 1.0),))
    with pytest.raises(ConfigError):
        ReferenceSignal(((0, 1.0), (0, 2.0)))


def test_reference_constant_intervals():
    ref = ReferenceSignal(((0, 30.0), (100, -20.0), (200, 0.0)))
    assert ref.constant_intervals(300) == [(0, 100), (100, 200), (200, 301)]
    assert ref.constant_intervals(50) == [(0, 51)]


# ---------------------------------------------------------------------------
# adversary strategies


def test_constant_hold():
    assert ConstantHold(4.0).value_at(17) == 4.0


def test_ramp_spec_example():
    assert Ramp(slope=1.0, intercept=0.0).value_at(40) == 40.0


def test_sinusoid_formula():
    sig = Sinusoid(amplitude=2.0, period=8.0, phase=0.0, offset=1.0)
    assert sig.value_at(0) == pytest.approx(1.0)
    assert sig.value_at(2) == pytest.approx(1.0 + 2.0 * math.sin(math.pi / 2))
    assert sig.value_at(3) == 1.0 + 2.0 * math.sin(2.0 * math.pi * 3 / 8.0 + 0.0)  # bit for bit


@pytest.mark.parametrize("fields", [dict(phase=math.inf), dict(phase=-math.inf), dict(period=5e-324),
                                    dict(phase=math.nan)])
def test_sinusoid_of_an_angle_that_is_not_finite_is_nan(fields):
    # 2*pi*t/period + phase is +-inf (t/period overflows for the tiny period),
    # where math.sin raises, or NaN, where it returns NaN
    sig = Sinusoid(**{"amplitude": 2.0, "period": 8.0, "offset": 1.0, **fields})
    assert math.isnan(sig.value_at(1))


def test_scripted_holds_last_value():
    sig = Scripted((1.0, 2.0, 3.0))
    assert [sig.value_at(t) for t in (0, 1, 2, 3, 99)] == [1.0, 2.0, 3.0, 3.0, 3.0]


def test_byzantine_per_edge_lookup():
    strat = ByzantinePerEdge({2: ConstantHold(0.0), 3: ConstantHold(100.0)})
    assert strat.signals[3].value_at(5) == 100.0
    assert strat.signals[2].value_at(5) == 0.0


# every kind of field value: ints past 2**53 and 2**64, NaN, +-inf, +-1e308 and subnormals
_FIELDS = st.one_of(st.floats(), st.integers(-2**70, 2**70),
                    st.sampled_from([1e308, -1e308, 5e-324, -5e-324, 2.2e-308, math.inf, -math.inf, math.nan]))
# a positive period, NaN or +inf; 5e-324 sends 2*pi*t/period to +inf
_PERIODS = st.one_of(st.floats(min_value=0.0, exclude_min=True), st.integers(1, 2**70),
                     st.sampled_from([5e-324, math.inf, math.nan]))
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SIGNALS = st.one_of(
    st.builds(ConstantHold, _FIELDS),
    st.builds(Sinusoid, _FIELDS, _PERIODS, _FIELDS, _FIELDS),
    st.builds(Ramp, _FIELDS, _FIELDS),
    st.builds(Scripted, st.lists(st.one_of(st.floats(), st.integers(-2**60, 2**60)), min_size=1, max_size=40)),
    # breakpoints up to round 150, past most horizons
    st.builds(lambda first, rest: ReferenceSignal(((0, first), *sorted(dict(rest).items()))),
              _FINITE, st.lists(st.tuples(st.integers(1, 150), _FINITE), max_size=12)),
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(signal=_SIGNALS, horizon=st.integers(0, 120))
@example(signal=Sinusoid(2.0, 8.0, math.inf), horizon=3)  # every angle +inf
@example(signal=Sinusoid(2.0, 8.0, -math.inf), horizon=3)
@example(signal=Sinusoid(2.0, 5e-324, -math.inf), horizon=3)  # -inf at t = 0, then inf - inf
@example(signal=Sinusoid(2.0, math.inf, 1.0, 3.0), horizon=3)
@example(signal=Sinusoid(2.0, math.nan, 1.0, 3.0), horizon=3)
@example(signal=Sinusoid(math.nan, math.nan, math.nan, -math.nan), horizon=3)
@example(signal=Ramp(math.nan, -math.nan), horizon=12)
@example(signal=Ramp(2**60 + 1, 0.5), horizon=5)  # an int product float64 would round
@example(signal=Ramp(1e308, -1e308), horizon=3)
@example(signal=ConstantHold(2**64 + 1), horizon=2)
@example(signal=Scripted((1.0, 2.0, 3.0)), horizon=0)
@example(signal=ReferenceSignal(((0, 1.0), (3, 2.0), (9, 3.0))), horizon=5)
def test_series_equals_value_at_byte_for_byte(signal, horizon):
    expected = np.array([signal.value_at(t) for t in range(horizon + 1)], dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # value_at's scalar arithmetic never warns
        got = signal.series(horizon)
    assert got.dtype == np.float64 and got.shape == expected.shape
    # A sum or product of two NaNs returns either one's bits: Python 3.11's
    # nan + -nan read -nan for its first 8 calls in a function and nan once
    # the interpreter specialised it, and NumPy's choice changes with the
    # array's length.  Only a NaN field can meet another NaN, and there only
    # NaN's place is pinned.
    if isinstance(signal, (Sinusoid, Ramp)) and any(map(math.isnan, vars(signal).values())):
        got, expected = (np.where(np.isnan(a), math.nan, a) for a in (got, expected))
    assert got.tobytes() == expected.tobytes(), (got, expected)


@pytest.mark.parametrize("call, message", [
    (lambda: Scripted(()), "^/values: scripted strategy needs at least one value$"),
    (lambda: ReferenceSignal.constant(1.0).value_at(-1), "^round must be >= 0, got -1$"),
    (lambda: wmsr_weights(1, [], WeightScheme(0.5)), "^retained set must be nonempty$"),
    (lambda: wmsr_update(1, [], WeightScheme(0.5)), "^retained set must be nonempty$"),
])
def test_signals_and_updates_refuse_empty_inputs(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------------------------
# F-local validation


def test_f_local_empty_adversary_set():
    g = make_k_circulant(5, 2)
    assert validate_f_local(g, (), 0) == (True, None)


def test_f_local_c20_sample_set():
    g = make_k_circulant(20, 15)
    ok, violator = validate_f_local(g, {1, 6, 15}, 3)
    assert ok and violator is None


def test_f_local_complete_graph_violated():
    g = make_undirected_circulant(6, [1, 2, 3])
    ok, violator = validate_f_local(g, {1, 2}, 1)
    assert not ok
    assert violator == 3  # first non-adversary sees both adversaries


def test_f_local_counts_inclusive_neighbors_only():
    g = make_k_circulant(6, 1)  # ring: agent i hears only i-1
    assert validate_f_local(g, {1, 3, 5}, 1) == (True, None)
    ok, violator = validate_f_local(g, {1, 3, 5}, 0)
    assert not ok and violator == 2


def test_f_local_takes_integer_ids_and_f_only():
    g = make_k_circulant(6, 2)
    for adversaries, message in (([1.0], "adversary 1.0 is not an integer id"),
                                 ([True], "adversary True is not an integer id"),
                                 ([2, 7], "adversary 7 outside 1..6")):
        with pytest.raises(GraphError, match=message):
            validate_f_local(g, adversaries, 0)
    for f in (0.5, True, "1", -1):
        with pytest.raises(ValueError, match="F must be"):
            validate_f_local(g, [1], f)
    assert validate_f_local(g, [np.int64(1)], np.int64(0)) == validate_f_local(g, [1], 0) == (False, 2)


def test_filter_takes_an_integer_f_only():
    incoming = [(2, 1.0), (3, -1.0)]
    for f in (0.5, True, -1):
        with pytest.raises(ValueError, match="F must be"):
            wmsr_filter(1, 0.0, incoming, f)
    assert wmsr_filter(1, 0.0, incoming, np.int64(1)) == wmsr_filter(1, 0.0, incoming, 1) == [(1, 0.0)]


def test_byzantine_signals_must_be_scalar_strategies():
    # refused when built, not later in the engine with an AttributeError
    for signal in ("y", 5.0, None, ByzantinePerEdge({2: ConstantHold(0.0)})):
        with pytest.raises(ConfigError, match=r"^/edges/4: not a scalar strategy: "):
            ByzantinePerEdge({3: ConstantHold(5.0), 4: signal})


def test_round_and_agent_keys_must_be_integers():
    with pytest.raises(ConfigError, match=r"^/reference/breakpoints: expected .* rounds, got \(\(0\.0, 1\.0\),\)$"):
        ReferenceSignal(((0.0, 1.0),))
    with pytest.raises(ConfigError, match="^/edges/2.0: must be an integer, got 2.0$"):
        ByzantinePerEdge({2.0: ConstantHold(0.0)})
    with pytest.raises(ConfigError, match=r"^/weight_table/1.5/2: agent id must be an integer, got 1.5$"):
        WeightScheme(0.5, {(1.5, 2): 0.5})
    # integer-like keys become ints
    assert ReferenceSignal(((np.int64(0), 1.0),)).breakpoints == ((0, 1.0),)
    assert type(next(iter(ByzantinePerEdge({np.int64(2): ConstantHold(0.0)}).signals))) is int
    assert all(type(v) is int for key in WeightScheme(0.5, {(np.int64(1), 2): 0.5}).table for v in key)
