import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    digests, naive_metrics, naive_polyline_points, naive_write_edges_csv, naive_write_trajectory_csv,
)
from rcl import simulation, svgplot
from rcl.graph import Digraph, make_k_circulant, make_undirected_circulant
from rcl.protocol import (
    Adversary,
    ByzantinePerEdge,
    ConfigError,
    ConstantHold,
    Leader,
    Ramp,
    ReferenceSignal,
    Scripted,
    Sinusoid,
    WeightScheme,
)
from rcl.simulation import (
    SimConfig,
    Trajectory,
    _column_sums,
    _end_bounds,
    _magnitudes,
    _sustained_round,
    compute_metrics,
    config_from_dict,
    config_to_dict,
    metrics_to_dict,
    replay_states,
    run,
    verify_replay,
    write_edges_csv,
    write_trajectory_csv,
)
from rcl.robustness import circulant_certificate
from rcl.scenarios import SCENARIO_NAMES, build_scenario, sim2
from rcl.svgplot import render_trajectory_svg


def basic_config(**overrides):
    # C_8(1..3) with two leaders: TLF robust for F=1, so tracking succeeds
    defaults = dict(
        graph=make_k_circulant(8, 3),
        f=1,
        horizon=50,
        roles={1: Leader(), 2: Leader()},
        reference=ReferenceSignal.constant(5.0),
        seed=3,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


# ---------------------------------------------------------------------------
# config validation


def test_roles_default_to_normal():
    cfg = basic_config()
    assert cfg.normals == (3, 4, 5, 6, 7, 8)
    assert cfg.leaders == (1, 2)
    assert cfg.adversaries == ()


def test_unknown_role_id_rejected():
    with pytest.raises(ConfigError, match="/roles/9"):
        basic_config(roles={9: Leader()})


@pytest.mark.parametrize("key, value", [("f", 1.5), ("f", True), ("f", "1"), ("horizon", 2.5),
                                        ("horizon", None), ("seed", 1.5), ("seed", False)])
def test_f_horizon_and_seed_must_be_integers(key, value):
    with pytest.raises(ConfigError, match=f"^/{key}: must be an integer, got {re.escape(repr(value))}$"):
        basic_config(**{key: value})


def test_horizon_refusal_counts_the_run_buffers_every_column():
    # construct only: the buffer holds the n agents, the pad and one delivered
    # column per scalar adversary, so C_6(1..2) with one is 8 float64 columns
    # wide, and the largest horizon it takes is the one where 8 columns fit
    g, most = make_k_circulant(6, 2), np.iinfo(np.intp).max
    roles = {3: Adversary(ConstantHold(1.0))}
    with pytest.raises(ConfigError, match=r"^/horizon: \d+ rounds of 8 float64 columns exceed NumPy's largest array$"):
        SimConfig(graph=g, f=1, horizon=most // 48 - 1, roles=roles)
    assert SimConfig(graph=g, f=1, horizon=most // 64 - 1, roles=roles).horizon == most // 64 - 1
    with pytest.raises(ConfigError, match="^/horizon: "):
        SimConfig(graph=g, f=1, horizon=most // 64, roles=roles)


def test_role_and_init_ids_must_be_integers():
    for roles in ({1.0: Leader(), 2: Leader()}, {True: Leader(), 2: Leader()}):
        with pytest.raises(ConfigError, match="^/roles/(1.0|True): unknown agent id$"):
            basic_config(roles=roles)
    init = {i: 0.0 for i in range(2, 9)}
    for first in (1.0, True):
        with pytest.raises(ConfigError, match=f"^/init/values: vertex {first} is not an integer id$"):
            basic_config(init={first: 0.0, **init})


def test_numpy_integers_round_trip_through_json():
    cfg = basic_config(graph=make_k_circulant(np.int64(8), np.int64(3)), f=np.int64(1), horizon=np.int64(20),
                       roles={np.int64(1): Leader(), np.int64(2): Leader()}, seed=np.int64(3),
                       init={np.int64(i): float(i) for i in range(1, 9)})
    assert all(type(v) is int for v in (cfg.f, cfg.horizon, cfg.seed, *cfg.roles, *cfg.init))
    back = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
    assert back == cfg
    assert run(back).states.tobytes() == run(cfg).states.tobytes()


def test_numpy_floats_round_trip_through_json():
    g = make_k_circulant(8, 3)
    signals = {1: Ramp(np.float32(0.5)), 2: Sinusoid(np.float32(3.0), np.float64(7.0)),
               3: Scripted((np.float32(1.5), -2.0))}
    cfg = basic_config(
        graph=g, roles={1: Leader(), 2: Leader(), 4: Adversary(ConstantHold(np.float32(0.1))),
                        8: Adversary(ByzantinePerEdge(signals))},
        reference=ReferenceSignal(((0, np.float32(5.5)), (np.int64(9), np.float64(-1.25)))),
        scheme=WeightScheme(np.float32(0.1), {(i, j): np.float64(0.25) for i in g.vertices
                                              for j in g.inclusive_neighbors(i)}),
        init={i: np.float32(i / 3) for i in g.vertices})
    back = config_from_dict(json.loads(json.dumps(config_to_dict(cfg), allow_nan=False)))
    assert back == cfg
    assert config_to_dict(back) == config_to_dict(cfg)
    assert run(back).states.tobytes() == run(cfg).states.tobytes()


def test_ids_written_as_text_take_the_form_str_writes():
    base = {"graph": {"circulant": [6, 2]}, "f": 1, "horizon": 10, "reference": {"constant": 1.0}}
    values = {str(i): 0.0 for i in range(2, 7)}
    table = {str(i): {str(j): 1.0 / 3.0 for j in (i, (i - 2) % 6 + 1, (i - 3) % 6 + 1)} for i in range(1, 7)}
    for patch, path in (({"roles": {"1_0": "leader"}}, "/roles/1_0"), ({"roles": {"+1": "leader"}}, r"/roles/\+1"),
                        ({"roles": {" 1": "leader"}}, "/roles/ 1"), ({"roles": {"01": "leader"}}, "/roles/01"),
                        ({"roles": {"-0": "leader"}}, "/roles/-0"),
                        ({"init": {"values": {"\u0661": 0.0, **values}}}, "/init/values/\u0661"),
                        ({"weight_table": {**table, "1": {"1": 0.5, "0_6": 0.5}}}, "/weight_table/1/0_6"),
                        ({"roles": {"1": {"adversary": {"type": "byzantine", "edges": {
                            "2": {"type": "constant", "value": 0}, "3.0": {"type": "constant", "value": 0}}}}}},
                         "/roles/1/adversary/edges/3.0")):
        with pytest.raises(ConfigError, match=f"^{path}: agent id must be an integer, got '"):
            config_from_dict({**base, **patch})
    assert config_from_dict({**base, "roles": {"1": "leader"}}).leaders == (1,)


def test_leaders_require_reference():
    with pytest.raises(ConfigError, match="^/reference: leaders are present but no reference signal is configured$"):
        basic_config(reference=None)


def test_infeasible_alpha_rejected():
    message = r"^/alpha: alpha=0.5 infeasible: equal weighting needs alpha <= 1/\(max in-degree \+ 1\) = 0.25$"
    with pytest.raises(ConfigError, match=message):
        basic_config(scheme=WeightScheme(0.5))


def test_explicit_init_must_cover_all_agents():
    with pytest.raises(ConfigError, match="missing"):
        basic_config(init={1: 0.0})


def test_strict_f_local_gate_and_override():
    g = make_k_circulant(6, 5)  # complete: everyone hears everyone
    roles = {1: Adversary(ConstantHold(0.0)), 2: Adversary(ConstantHold(0.0))}
    with pytest.raises(ConfigError, match=r"^/roles: adversary set is not F-local for F=1: agent 3 has too many "
                       r"adversarial inclusive in-neighbors \(set strict_f_local=False to override\)$"):
        SimConfig(graph=g, f=1, horizon=10, roles=roles, seed=0)
    cfg = SimConfig(graph=g, f=1, horizon=10, roles=roles, seed=0, strict_f_local=False)
    assert cfg.adversaries == (1, 2)


def test_byzantine_signals_must_cover_out_neighbors():
    g = make_k_circulant(5, 2)
    strategy = ByzantinePerEdge({2: ConstantHold(0.0)})  # out-neighbors of 1 are {2, 3}
    with pytest.raises(ConfigError, match="out-neighbors"):
        SimConfig(graph=g, f=1, horizon=10, roles={1: Adversary(strategy)}, seed=0)


def test_adversary_strategy_must_be_a_strategy_record():
    # refused when built, where run failed in _layout with an AttributeError
    g = make_k_circulant(6, 2)
    for strategy in ("x", 5.0, None, Leader()):
        with pytest.raises(ConfigError, match=r"^/roles/3/adversary: not a strategy: "):
            SimConfig(graph=g, f=1, horizon=10, roles={3: Adversary(strategy)})


# ---------------------------------------------------------------------------
# engine basics


def test_all_equal_initials_stay_forever():
    g = make_k_circulant(7, 3)
    cfg = SimConfig(graph=g, f=2, horizon=40, init={i: 4.25 for i in g.vertices}, seed=0)
    traj = run(cfg)
    assert np.all(traj.states == 4.25)


def _counted_run(cfg):
    """``run(cfg)`` and the number of rounds it computed with ``_round``."""
    with mock.patch.object(simulation, "_round", wraps=simulation._round) as rounds:
        traj = run(cfg)
    assert verify_replay(traj)
    return traj, rounds.call_count


@pytest.mark.parametrize("seed", [20, 2020])
def test_sim2_holds_its_fixed_point(seed):
    # every normal agent reaches 40 exactly before round 430; the rounds
    # after that repeat it and are held, not computed
    traj, rounds = _counted_run(sim2().config(seed))
    assert rounds <= 440
    assert np.all(traj.states[-70:, [i - 1 for i in traj.config.normals]] == 40.0)


def _held_config(reference, init=5.0, **overrides):
    """C_8(1..3), leaders 1 and 2, every agent starting at ``init``."""
    return basic_config(reference=reference, init={i: init for i in range(1, 9)}, horizon=60, **overrides)


def test_hold_from_round_zero_under_f_local_adversaries():
    # at most F values differ from each normal agent's own, so every round
    # repeats round 0 whatever the sinusoid sends
    cfg = _held_config(ReferenceSignal.constant(5.0), roles={1: Leader(), 2: Leader(),
                                                             5: Adversary(Sinusoid(30.0, 7.0))})
    traj, rounds = _counted_run(cfg)
    assert rounds == 1
    assert np.all(traj.states[:, [i - 1 for i in cfg.normals]] == 5.0)


def test_hold_ends_where_a_round_is_not_common():
    # the reference steps at round 20: both leaders' values move above their
    # out-neighbours' own
    cfg = _held_config(ReferenceSignal(((0, 5.0), (20, 9.0))))
    traj, rounds = _counted_run(cfg)
    assert np.all(traj.states[:21, [i - 1 for i in cfg.normals]] == 5.0)
    assert traj.states[21, 2] != 5.0 and rounds < 60
    # beyond F-local: agent 7 hears adversaries 5 and 6, so a second value
    # above its own from round 25 on makes its row uncommon
    roles = {1: Leader(), 2: Leader(), 5: Adversary(ConstantHold(80.0)),
             6: Adversary(Scripted((5.0,) * 25 + (50.0,)))}
    cfg = _held_config(ReferenceSignal.constant(5.0), roles=roles, strict_f_local=False)
    traj, rounds = _counted_run(cfg)
    assert np.all(traj.states[:26, [i - 1 for i in cfg.normals]] == 5.0)
    assert traj.states[26, 6] > 5.0 and rounds < 60


def test_hold_blocks_gather_about_2_16_values():
    # 198 normal agents each hearing 60 senders: 11,880 values a round, so a
    # block of the hold spans 5 rounds, the first one included
    cfg = basic_config(graph=make_k_circulant(200, 60), init={i: 5.0 for i in range(1, 201)}, horizon=40)
    gathered, take_along_axis = [], np.take_along_axis

    def take(vals, idx, axis):
        gathered.append(vals.size)
        return take_along_axis(vals, idx, axis)

    with mock.patch.object(simulation.np, "take_along_axis", take):
        traj, rounds = _counted_run(cfg)
    assert rounds == 1 and np.all(traj.states == 5.0)
    assert gathered and max(gathered) <= 2**16


@pytest.mark.parametrize("reference", [((0, -0.0),), ((0, 0.0), (10, -0.0))])
def test_hold_keeps_the_sign_of_the_first_equal_value(reference):
    # +0.0 == -0.0, so every row is common, but each agent takes the first
    # equal value in sender order: the leaders' -0.0 spreads through agents
    # at +0.0, which a hold must not freeze
    traj, rounds = _counted_run(_held_config(ReferenceSignal(reference), init=0.0))
    assert np.all(traj.states == 0.0) and np.all(np.signbit(traj.states[-1]))
    assert not np.signbit(traj.states[reference[-1][0], 2])
    assert rounds < 60


def test_same_seed_bit_identical():
    a = run(basic_config())
    b = run(basic_config())
    assert np.array_equal(a.states, b.states)


def test_different_seed_differs():
    a = run(basic_config(seed=1))
    b = run(basic_config(seed=2))
    assert not np.array_equal(a.states, b.states)


def test_run_accepts_only_one_job():
    cfg = basic_config(horizon=80)
    assert run(cfg, jobs=1).states.tobytes() == run(cfg).states.tobytes()
    for jobs in (0, 3):
        with pytest.raises(ConfigError, match="jobs"):
            run(cfg, jobs=jobs)


def test_a_run_writes_its_trajectory_in_place():
    # the states are columns 1..n of the run's buffer, written in place: no
    # second trajectory-sized array and no copy-back, so the
    # traced peak of sim1's config at a long horizon stays under two of them
    cfg = replace(build_scenario("sim1").base, horizon=20_000)
    tracemalloc.start()
    try:
        traj = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffer = traj.states.base
    assert buffer.shape == (cfg.horizon + 1, cfg.graph.n + 1 + len(cfg.adversaries))
    assert np.shares_memory(traj.states, buffer) and not traj.states.flags.writeable
    assert peak < 2 * traj.states.nbytes, peak / traj.states.nbytes


# a reference, a leader, a scalar and a Byzantine adversary: no value_at may
# run before the buffer is allocated, which RLIMIT_AS refuses
_OUT_OF_MEMORY_CHILD = """
import resource
from rcl.graph import make_k_circulant
from rcl.protocol import Adversary, ByzantinePerEdge, ConstantHold, Leader, ReferenceSignal
from rcl.simulation import SimConfig, run

def value_at(self, t):
    raise AssertionError("value_at ran before the buffer was allocated")

g = make_k_circulant(10, 5)
roles = {1: Leader(), 2: Adversary(ConstantHold(1.0)),
         3: Adversary(ByzantinePerEdge({j: ConstantHold(2.0) for j in g.out_neighbors(3)}))}
cfg = SimConfig(graph=g, f=2, horizon=2**27, roles=roles, reference=ReferenceSignal.constant(0.0))
ConstantHold.value_at = ReferenceSignal.value_at = value_at
limit = int(open("/proc/self/statm").read().split()[0]) * resource.getpagesize() + 2**28
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
try:
    run(cfg)
except MemoryError:
    print("MemoryError")
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm and sets RLIMIT_AS")
def test_a_horizon_too_long_for_memory_fails_before_any_series_is_built():
    # In a child whose address space is capped 256 MiB above its size, so the
    # 17 GiB buffer is refused rather than taken from the host.
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", _OUT_OF_MEMORY_CHILD], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert (done.returncode, done.stdout) == (0, "MemoryError\n"), done.stderr


def test_leaders_broadcast_reference_exactly():
    ref = ReferenceSignal(((0, 30.0), (10, -20.0)))
    cfg = basic_config(reference=ref, horizon=25)
    traj = run(cfg)
    expected = np.array([ref.value_at(t) for t in range(26)])
    assert np.array_equal(traj.states[:, 0], expected)
    assert np.array_equal(traj.reference, expected)


def test_weight_table_drops_a_huge_value_without_warnings():
    # C_6(1..3) at F = 1: agents 2, 3 and 4 hear adversary 1, give it most of
    # their weight and drop its 1.7e308, so its share of their kept total
    # exceeds 1; no term of a dropped sender may be computed
    g = make_k_circulant(6, 3)
    table = {}
    for i in g.vertices:
        row = sorted(g.inclusive_neighbors(i))
        for j in row:
            table[(i, j)] = (0.7 if j == 1 else 0.1) if 1 < i <= 4 else 1 / len(row)
    config = SimConfig(graph=g, f=1, horizon=5, roles={1: Adversary(ConstantHold(1.7e308))},
                       scheme=WeightScheme(0.1, table), seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run(config)
        assert verify_replay(traj)
    assert np.isfinite(traj.states[:, 1:]).all()


def test_replay_reproduces_trajectory():
    cfg = basic_config(horizon=60)
    assert verify_replay(run(cfg))


def test_replay_with_adversaries_and_byzantine():
    g = make_k_circulant(6, 2)
    byz = ByzantinePerEdge({2: Ramp(2.0), 3: ConstantHold(-4.0)})
    roles = {1: Adversary(byz), 4: Adversary(Sinusoid(30.0, 11.0))}
    cfg = SimConfig(graph=g, f=1, horizon=40, roles=roles, seed=9)
    assert verify_replay(run(cfg))


def test_initial_states_uniform_range():
    cfg = basic_config(init=(-25.0, 25.0), horizon=5)
    traj = run(cfg)
    normal_initials = [traj.states[0, i - 1] for i in cfg.normals]
    assert all(-25.0 <= v <= 25.0 for v in normal_initials)
    rng = random.Random(cfg.seed)
    expected = [rng.uniform(-25.0, 25.0) for _ in cfg.graph.vertices]
    # agents are sampled in id order; leaders get overridden afterwards
    assert normal_initials == [expected[i - 1] for i in cfg.normals]


# ---------------------------------------------------------------------------
# byzantine delivery


def byz_config(horizon=30):
    g = make_k_circulant(5, 2)
    byz = ByzantinePerEdge({2: ConstantHold(100.0), 3: ConstantHold(-100.0)})
    return SimConfig(graph=g, f=1, horizon=horizon, roles={1: Adversary(byz)}, seed=4)


def test_byzantine_edges_recorded_and_differ():
    traj = run(byz_config())
    assert set(traj.edge_values) == {(1, 2), (1, 3)}
    assert traj.delivered(7, 1, 2) == 100.0
    assert traj.delivered(7, 1, 3) == -100.0


def test_non_byzantine_edges_carry_broadcast():
    traj = run(byz_config())
    for t in (0, 5, 29):
        assert traj.delivered(t, 2, 3) == traj.broadcast(t, 2)


def test_malicious_senders_have_no_edge_records():
    g = make_k_circulant(5, 2)
    cfg = SimConfig(
        graph=g, f=1, horizon=10, roles={1: Adversary(ConstantHold(1.0))}, seed=0
    )
    traj = run(cfg)
    assert traj.edge_values == {}


# ---------------------------------------------------------------------------
# metrics


def test_envelope_single_normal_and_reference():
    g = make_k_circulant(2, 1)
    cfg = SimConfig(
        graph=g,
        f=0,
        horizon=1,
        roles={1: Leader()},
        reference=ReferenceSignal.constant(5.0),
        init={1: 0.0, 2: 3.0},
        seed=0,
    )
    m = compute_metrics(run(cfg))
    assert m.lower[0] == 3.0 and m.upper[0] == 5.0


def test_envelope_monotone_on_compliant_run():
    cfg = basic_config(horizon=120)
    m = compute_metrics(run(cfg))
    assert m.envelope_monotone
    assert m.interval_invariant


def test_adversary_values_escape_envelope_normals_do_not():
    g = make_k_circulant(10, 5)
    roles = {1: Adversary(Ramp(50.0)), 4: Leader()}
    cfg = SimConfig(
        graph=g, f=1, horizon=60, roles=roles,
        reference=ReferenceSignal.constant(0.0), seed=6,
    )
    traj = run(cfg)
    m = compute_metrics(traj)
    assert traj.states[-1, 0] > m.upper[0]  # the ramp left the envelope
    assert m.interval_invariant  # normal agents never did


def test_convergence_round_all_at_reference():
    g = make_k_circulant(4, 2)
    cfg = SimConfig(
        graph=g, f=0, horizon=10, roles={1: Leader()},
        reference=ReferenceSignal.constant(2.0),
        init={i: 2.0 for i in g.vertices}, seed=0,
    )
    assert compute_metrics(run(cfg), tol=1e-9).convergence_round == 0


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0, -1.0])
def test_compute_metrics_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    # with tol = inf every round is "within tol", so round 0 would read as
    # converged while the normal agents still disagree
    traj = run(basic_config(horizon=3))
    assert compute_metrics(traj).final_disagreement > 0.1
    with pytest.raises(ValueError, match="tolerance must be finite and positive"):
        compute_metrics(traj, tol=tol)


@pytest.mark.parametrize("tol", [True, "1e-6", None])
def test_compute_metrics_reads_the_tolerance_by_the_number_rule(tol):
    # True was stored and written to metrics.json as "tol": true; a string or
    # None raised a bare TypeError from the comparison
    traj = run(basic_config(horizon=3))
    with pytest.raises(ValueError, match=f"tolerance must be a number, got {re.escape(repr(tol))}"):
        compute_metrics(traj, tol=tol)
    metrics = compute_metrics(traj, tol=np.float64(0.5))
    assert type(metrics.tol) is float and metrics_to_dict(metrics)["tol"] == 0.5


def test_convergence_round_requires_sustained_error():
    cfg = basic_config(horizon=100)
    m = compute_metrics(run(cfg), tol=1e-6)
    err, r = m.tracking_error, m.convergence_round
    assert r is not None
    assert np.all(err[r:] <= 1e-6)
    assert r == 0 or err[r - 1] > 1e-6


def test_nan_never_counts_as_converged():
    assert _sustained_round(np.array([5.0, np.nan, np.nan]), 1e-6) is None
    cfg = basic_config(horizon=20)
    traj = run(cfg)
    states = np.array(traj.states)
    states[1:, 2] = np.nan  # normal agent 3 turns NaN after round 0
    m = compute_metrics(Trajectory(cfg, states, traj.reference, {}))
    assert m.convergence_round is None
    assert m.consensus_round is None
    assert not m.converged


def test_no_reference_metrics_use_disagreement():
    g = make_k_circulant(9, 4)
    cfg = SimConfig(graph=g, f=1, horizon=200, seed=12)
    m = compute_metrics(run(cfg), tol=1e-9)
    assert m.tracking_error is None
    assert m.consensus_round is not None
    assert m.converged
    assert [(iv.start, iv.end) for iv in m.intervals] == [(0, 201)]


@pytest.mark.parametrize("reference", [None, 2.0])
def test_metrics_without_normal_agents(reference):
    roles = {i: Adversary(ConstantHold(float(i))) for i in range(1, 7)}
    cfg = SimConfig(graph=make_k_circulant(6, 2), f=0, horizon=3, roles=roles,
                    reference=None if reference is None else ReferenceSignal.constant(reference))
    traj = run(cfg)
    if reference is None:
        with pytest.raises(ConfigError, match="^envelope undefined: no normal agents and no reference$"):
            compute_metrics(traj)
        return
    m = compute_metrics(traj)
    assert m.lower.tolist() == m.upper.tolist() == [2.0] * 4  # the reference alone
    assert m.tracking_error.tolist() == m.disagreement.tolist() == [0.0] * 4
    assert m.converged and m.envelope_monotone and m.interval_invariant


def test_metrics_hold_three_series_not_a_matrix():
    # the metrics read the normal agents' least and greatest state and the
    # reference per round: beside the one copy of the normal columns, no
    # hull or |x - r| matrix, so the traced peak stays under two trajectories
    traj = run(replace(build_scenario("sim3").base, horizon=20_000))
    tracemalloc.start()
    try:
        compute_metrics(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * traj.states.nbytes, peak / traj.states.nbytes


def test_disagreement_definition():
    g = make_k_circulant(4, 2)
    cfg = SimConfig(graph=g, f=0, horizon=2, init={1: 1.0, 2: 5.0, 3: 2.0, 4: 0.0}, seed=0)
    assert compute_metrics(run(cfg)).disagreement[0] == 5.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_metrics_of_spans_past_the_largest_float_warn_nothing():
    # inits of +-1e308 by parity span 2e308, and the reference 1e308 lies
    # 2e308 from the -1e308 agents; without F-locality a +inf adversary
    # sends every normal agent to +inf, whose spread is NaN
    g = make_k_circulant(6, 5)
    init = {i: 1e308 if i % 2 else -1e308 for i in g.vertices}
    cfg = SimConfig(graph=g, f=0, horizon=3, init=init)
    m = compute_metrics(run(cfg))
    assert m.disagreement[0] == INF and m.final_disagreement == 0.0
    m = compute_metrics(run(replace(cfg, reference=ReferenceSignal.constant(1e308))))
    assert m.tracking_error[0] == INF
    flooded = replace(cfg, roles={6: Adversary(ConstantHold(INF))}, strict_f_local=False,
                      reference=ReferenceSignal.constant(1e308), init={i: -1e308 for i in g.vertices})
    m = compute_metrics(run(flooded))
    assert np.isnan(m.disagreement[1]) and m.lower.tolist() == [-1e308] + [1e308] * 3
    assert not m.envelope_monotone and not m.converged


def test_weight_audit_over_simulated_rounds():
    # re-derive every normal update's retained set and check the emitted
    # weights: zero outside the inclusive neighborhood, floor alpha, sum 1
    from rcl.protocol import wmsr_filter, wmsr_weights

    g = make_k_circulant(9, 4)
    roles = {1: Leader(), 2: Leader(), 6: Adversary(Sinusoid(40.0, 9.0))}
    cfg = SimConfig(
        graph=g, f=1, horizon=40, roles=roles,
        reference=ReferenceSignal.constant(12.0), seed=21,
    )
    traj = run(cfg)
    alpha = cfg.scheme.alpha
    for t in range(traj.horizon):
        for i in cfg.normals:
            incoming = [(j, traj.delivered(t, j, i)) for j in sorted(g.in_neighbors(i))]
            retained = wmsr_filter(i, traj.broadcast(t, i), incoming, cfg.f)
            ids = [j for j, _ in retained]
            weights = wmsr_weights(i, ids, cfg.scheme)
            assert set(weights) <= g.inclusive_neighbors(i)
            assert abs(sum(weights.values()) - 1.0) <= 1e-12
            assert all(w >= alpha for w in weights.values())


def test_interval_reports_per_reference_segment():
    ref = ReferenceSignal(((0, 10.0), (30, 0.0)))
    cfg = basic_config(reference=ref, horizon=90)
    m = compute_metrics(run(cfg))
    assert [(iv.start, iv.end) for iv in m.intervals] == [(0, 30), (30, 91)]
    assert m.intervals[-1].end_error is not None


# ---------------------------------------------------------------------------
# export and config serialization


def test_trajectory_csv_deterministic(tmp_path):
    cfg = basic_config(horizon=30)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectory_csv(run(cfg), p1)
    write_trajectory_csv(run(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "round,agent,role,value,reference"


def test_edges_csv_contents(tmp_path):
    traj = run(byz_config(horizon=3))
    path = tmp_path / "edges.csv"
    write_edges_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "round,from,to,value"
    assert lines[1] == "0,1,2,100.0"
    assert len(lines) == 1 + 4 * 2


def test_config_dict_roundtrip():
    from rcl.protocol import Scripted

    g = make_k_circulant(6, 2)
    roles = {
        1: Leader(),
        3: Adversary(Sinusoid(50.0, 40.0, phase=1.0)),
        4: Adversary(Scripted((1.0, -2.0, 0.5))),
        5: Adversary(ByzantinePerEdge({6: Ramp(1.0), 1: ConstantHold(2.0)})),
    }
    cfg = SimConfig(
        graph=g, f=2, horizon=44, roles=roles,
        reference=ReferenceSignal(((0, 1.0), (10, 2.0))),
        init=(-5.0, 5.0), seed=77,
    )
    restored = config_from_dict(config_to_dict(cfg))
    assert restored == cfg
    assert np.array_equal(run(restored).states, run(cfg).states)
    # the reader's third graph form, which config_to_dict never writes
    undirected = config_from_dict({"graph": {"undirected_circulant": [6, [1, 2]]}, "f": 1, "horizon": 3})
    assert undirected.graph == make_undirected_circulant(6, [1, 2])


def test_config_dict_pointer_errors():
    base = {"graph": {"circulant": [6, 2]}, "f": 1, "horizon": 10}
    with pytest.raises(ConfigError, match="/f"):
        config_from_dict({**base, "f": "three"})
    with pytest.raises(ConfigError, match="/roles/2"):
        config_from_dict({**base, "roles": {"2": "boss"}})
    with pytest.raises(ConfigError, match="/roles/3/adversary/type"):
        config_from_dict({**base, "roles": {"3": {"adversary": {"type": "nope"}}}})
    with pytest.raises(ConfigError, match="/graph"):
        config_from_dict({**base, "graph": {"circulant": [1, 5]}})
    with pytest.raises(ConfigError, match="/horizon"):
        config_from_dict({**base, "horizon": 0})
    with pytest.raises(ConfigError, match="/init"):
        config_from_dict({**base, "init": {"spread": 3}})
    with pytest.raises(ConfigError, match="unknown configuration key"):
        config_from_dict({**base, "extra": 1})
    # one form per object: a second form or an unknown key beside it is an error
    with pytest.raises(ConfigError, match="^/init/values: unexpected key next to 'range'"):
        config_from_dict({**base, "init": {"range": [0, 1], "values": {str(i): 0 for i in range(1, 7)}}})
    with pytest.raises(ConfigError, match="^/reference/breakpoints: unexpected key next to 'constant'"):
        config_from_dict({**base, "reference": {"constant": 1, "breakpoints": [[0, 5]]}})
    with pytest.raises(ConfigError, match="^/init/spread: unexpected key"):
        config_from_dict({**base, "init": {"range": [0, 1], "spread": 3}})
    with pytest.raises(ConfigError, match="^/reference/period: unexpected key"):
        config_from_dict({**base, "reference": {"constant": 1, "period": 3}})
    with pytest.raises(ConfigError, match="^/roles/3/target: unexpected key"):
        config_from_dict({**base, "roles": {"3": {"adversary": {"type": "constant", "value": 1}, "target": 4}}})
    for roles in (False, [], 0, ""):
        with pytest.raises(ConfigError, match="^/roles: must be an object or null"):
            config_from_dict({**base, "roles": roles})
    assert config_from_dict({**base, "roles": None}) == config_from_dict(base)
    with pytest.raises(ConfigError, match="^/f: must be >= 0, got -1"):
        config_from_dict({**base, "f": -1})
    with pytest.raises(ConfigError, match="^/: configuration must be a JSON object$"):
        config_from_dict([base])
    with pytest.raises(ConfigError, match="^/horizon: required$"):
        config_from_dict({"graph": base["graph"], "f": 1})


def test_config_dict_errors_name_the_expected_shape():
    base = {"f": 1, "horizon": 10}
    with pytest.raises(ConfigError, match=r"^/graph/undirected_circulant: expected \[n, \[offsets\]\]"):
        config_from_dict({**base, "graph": {"undirected_circulant": [6, 2]}})
    with pytest.raises(ConfigError, match=r"^/graph/edges: unexpected key next to 'circulant'"):
        config_from_dict({**base, "graph": {"circulant": [6, 2], "edges": 5}})
    with pytest.raises(ConfigError, match=r"^/graph/edges: expected a list of \[i, j\] pairs"):
        config_from_dict({**base, "graph": {"n": 6, "edges": 5}})
    with pytest.raises(ConfigError, match=r"^/init/range: expected \[lo, hi\] of numbers, got \['-1', '2.5'\]"):
        config_from_dict({**base, "graph": {"circulant": [6, 2]}, "init": {"range": ["-1", "2.5"]}})


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("patch, path", [
    ({"init": {"values": {**{str(i): 0.0 for i in range(1, 7)}, "3": NAN}}}, "/init/values/3"),
    ({"init": {"range": [-INF, 1.0]}}, "/init/range/0"),
    ({"init": {"range": [0.0, INF]}}, "/init/range/1"),
    ({"reference": {"constant": INF}}, "/reference/constant"),
    ({"reference": {"constant": NAN}}, "/reference/constant"),
    ({"reference": {"breakpoints": [[0, 1.0], [5, NAN]]}}, "/reference/breakpoints/1/1"),
    ({"alpha": NAN}, "/alpha"),
    ({"weight_table": {"1": {"2": NAN}}}, "/weight_table/1/2"),
])
def test_config_dict_rejects_non_finite(patch, path):
    base = {"graph": {"circulant": [6, 2]}, "f": 1, "horizon": 10}
    with pytest.raises(ConfigError, match=path):
        config_from_dict({**base, **patch})


def test_config_dict_allows_non_finite_adversary_values():
    cfg = config_from_dict({
        "graph": {"circulant": [6, 2]}, "f": 1, "horizon": 10,
        "roles": {"3": {"adversary": {"type": "constant", "value": NAN}},
                  "5": {"adversary": {"type": "ramp", "slope": INF}}},
    })
    assert cfg.adversaries == (3, 5)


def test_non_finite_adversary_values_round_trip_as_json_strings():
    roles = {3: Adversary(ConstantHold(NAN)), 4: Adversary(Scripted((-INF, 1.0, INF))),
             5: Adversary(ByzantinePerEdge({6: Ramp(INF, -INF), 1: Sinusoid(INF, 3.0, phase=NAN)}))}
    cfg = SimConfig(graph=make_k_circulant(6, 2), f=3, horizon=6, roles=roles, seed=1, strict_f_local=False)
    d = config_to_dict(cfg)
    json.dumps(d, allow_nan=False)
    assert d["roles"]["3"]["adversary"] == {"type": "constant", "value": "NaN"}
    assert d["roles"]["4"]["adversary"]["values"] == ["-Infinity", 1.0, "Infinity"]
    assert d["roles"]["5"]["adversary"]["edges"]["6"] == {"type": "ramp", "slope": "Infinity", "intercept": "-Infinity"}
    restored = config_from_dict(d)
    assert config_to_dict(restored) == d
    assert run(restored).states.tobytes() == run(cfg).states.tobytes()
    with pytest.raises(ConfigError, match="/roles/3/adversary/value: must be a number, got 'inf'"):
        config_from_dict({**d, "roles": {"3": {"adversary": {"type": "constant", "value": "inf"}}}})


def test_metrics_json_shape():
    m = compute_metrics(run(basic_config()))
    d = metrics_to_dict(m)
    assert set(d) == {
        "tol", "converged", "convergence_round", "final_error",
        "consensus_round", "final_disagreement", "envelope",
    }
    assert isinstance(d["envelope"]["intervals"], list)


# ---------------------------------------------------------------------------
# non-finite values


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_adversary_cannot_poison_normals(value):
    # C_10(1..5), F=1: one adversary is F-local, so the top/bottom-F removal
    # must discard whatever it sends, NaN included
    g = make_k_circulant(10, 5)
    cfg = SimConfig(graph=g, f=1, horizon=20, roles={4: Adversary(ConstantHold(value))}, seed=2)
    traj = run(cfg)
    assert np.all(np.isfinite(traj.states[:, [i - 1 for i in cfg.normals]]))
    assert verify_replay(traj)


def test_opposite_infinities_raise_config_error_in_engine_and_oracle():
    # F=0 keeps every value, so agent 1 retains both adversaries' broadcasts
    g = make_k_circulant(6, 5)
    roles = {5: Adversary(ConstantHold(INF)), 6: Adversary(ConstantHold(-INF))}
    cfg = SimConfig(graph=g, f=0, horizon=3, roles=roles, strict_f_local=False)
    expected = "round 0: agent 1 retains both +inf and -inf: the adversary set is not F-local"
    with pytest.raises(ConfigError) as engine:
        run(cfg)
    assert str(engine.value) == expected
    states = np.zeros((4, 6))
    states[:, 4], states[:, 5] = INF, -INF
    with pytest.raises(ConfigError) as oracle:
        replay_states(Trajectory(cfg, states, None, {}))
    assert str(oracle.value) == expected


# basic_config's C_8(1..3): agent i hears itself and i-1, i-2, i-3 (mod 8)
_C8_TABLE = {(i, (i - 1 - a) % 8 + 1): 0.25 for i in range(1, 9) for a in range(4)}


# each override is built inside the test, as the records check their own values
@pytest.mark.parametrize("overrides, path", [
    (dict(init=lambda: (-float("inf"), float("inf"))), "/init/range/0"),
    (dict(init=lambda: (0.0, float("inf"))), "/init/range/1"),
    (dict(init=lambda: {**{i: 0.0 for i in range(1, 9)}, 5: float("nan")}), "/init/values/5"),
    (dict(reference=lambda: ReferenceSignal(((0, float("inf")),))), "/reference/breakpoints/0/1"),
    (dict(reference=lambda: ReferenceSignal(((0, 1.0), (4, float("nan"))))), "/reference/breakpoints/1/1"),
    (dict(scheme=lambda: WeightScheme(0.05, {
        (i, (i - 1 - a) % 8 + 1): float("nan") if i == a == 2 else 0.25
        for i in range(1, 9) for a in range(4)})), "^/weight_table/2/8: must be a finite number, got nan$"),
    (dict(reference=lambda: ReferenceSignal.constant(float("inf"))),
     "^/reference/constant: must be a finite number, got inf$"),
    (dict(roles=lambda: {3: Adversary(ConstantHold("5"))}), "^/value: must be a number, got '5'$"),
    (dict(roles=lambda: {3: Adversary(Ramp("ab"))}), "^/slope: must be a number, got 'ab'$"),
    (dict(roles=lambda: {3: Adversary(Sinusoid(1.0, "3"))}), "^/period: must be a number, got '3'$"),
    (dict(roles=lambda: {3: Adversary(Scripted(("1",)))}), r"^/values: expected a list of numbers, got \('1',\)$"),
    (dict(reference=lambda: ReferenceSignal(((0, "40"),))),
     r"^/reference/breakpoints: expected a list of \[round, value\] with integer rounds, got \(\(0, '40'\),\)$"),
    (dict(reference=lambda: ReferenceSignal(((0,),))), r"^/reference/breakpoints: expected .* got \(\(0,\),\)$"),
    (dict(scheme=lambda: WeightScheme("0.1")), "^/alpha: must be a number, got '0.1'$"),
    (dict(scheme=lambda: WeightScheme(0.1, {(1, 2): "0.5"})), "^/weight_table/1/2: must be a number, got '0.5'$"),
    (dict(init=lambda: ("-1", "2")), r"^/init/range: expected \[lo, hi\] of numbers, got \('-1', '2'\)$"),
    (dict(init=lambda: {**{i: 0.0 for i in range(1, 9)}, 4: "1.5"}), "^/init/values/4: must be a number, got '1.5'$"),
    (dict(init=lambda: (1, 2, 3)), r"^/init/range: expected \[lo, hi\] of numbers, got \(1, 2, 3\)$"),
    (dict(strict_f_local=lambda: 0), "^/strict_f_local: must be a boolean, got 0$"),
    # random.uniform draws lo + (hi - lo) * u, which overflows to +inf
    (dict(init=lambda: (-1e308, 1e308)), r"^/init/range: high - low must be finite, got \[-1e\+308, 1e\+308\]$"),
    (dict(init=lambda: (2.0, 1.0)), r"^/init/range: need low <= high, got \[2.0, 1.0\]$"),
    (dict(roles=lambda: {3: "leader"}), "^/roles/3: not a role: 'leader'$"),
    (dict(scheme=lambda: WeightScheme(0.25, {k: w for k, w in _C8_TABLE.items() if k != (1, 6)})),
     "^/weight_table/1/6: missing, though agent 1 hears agent 6$"),
    (dict(scheme=lambda: WeightScheme(0.25, {**_C8_TABLE, (1, 1): 0.5})),
     "^/weight_table/1: rows must sum to 1 over inclusive neighbors; agent 1 sums to 1.25$"),
    (dict(scheme=lambda: WeightScheme(0.25, {**_C8_TABLE, (4, 5): 0.25})),
     "^/weight_table/4/5: agent 4 does not hear agent 5$"),
    (dict(scheme=lambda: WeightScheme(0.25, {**_C8_TABLE, (99, 1): 0.25, (4, 9): 0.25})),
     "^/weight_table/4/9: agent 4 does not hear agent 9$"),
    (dict(roles=lambda: {3: Adversary(Sinusoid(1.0, 0))}), "^/period: sinusoid period must be positive, got 0$"),
])
def test_simconfig_rejects_non_finite(overrides, path):
    with pytest.raises(ConfigError, match=path):
        basic_config(**{key: build() for key, build in overrides.items()})


def test_config_dict_errors_name_nested_paths():
    base = {"graph": {"circulant": [6, 2]}, "f": 1, "horizon": 10}
    sinusoid = {"type": "sinusoid", "amplitude": 1, "period": 0}
    with pytest.raises(ConfigError, match="^/roles/3/adversary/period: sinusoid period must be positive, got 0$"):
        config_from_dict({**base, "roles": {"3": {"adversary": sinusoid}}})
    table = {str(i): {str(j): 1.0 / 3.0 for j in (i, (i - 2) % 6 + 1, (i - 3) % 6 + 1)}
             for i in range(1, 7)}
    table["2"]["1"] = 0.01
    with pytest.raises(ConfigError, match="^/weight_table/2/1: .* below the floor"):
        config_from_dict({**base, "alpha": 0.1, "weight_table": table})


def test_digest_corpus_refusals_start_with_a_pointer_and_acceptances_read_back():
    """Every config of ``tools/digests.py``'s corpus that the reader refuses is
    refused at a JSON pointer, and every one it accepts writes JSON that reads
    back to the same JSON."""
    corpus, refused = digests.config_corpus(), 0
    for label, obj in corpus:
        try:
            text = json.dumps(config_to_dict(config_from_dict(obj)), allow_nan=False)
        except ConfigError as exc:
            assert str(exc).startswith("/"), (label, str(exc))
            refused += 1
            continue
        assert json.dumps(config_to_dict(config_from_dict(json.loads(text))), allow_nan=False) == text, label
    assert 0 < refused < len(corpus)


# ---------------------------------------------------------------------------
# the round kernel against the scalar oracle


def test_weight_table_run_matches_oracle_and_tracks():
    g = make_k_circulant(9, 4)
    roles = {1: Leader(), 2: Leader(), 6: Adversary(Sinusoid(40.0, 9.0))}
    cfg = SimConfig(
        graph=g, f=1, horizon=150, roles=roles, reference=ReferenceSignal.constant(12.0),
        scheme=digests.distinct_weights(g, random.Random(5)),
        init={i: float(i % 3) for i in g.vertices}, seed=0,
    )
    traj = run(cfg)
    assert verify_replay(traj)
    assert compute_metrics(traj).converged
    equal = SimConfig(graph=g, f=1, horizon=150, roles=roles,
                      reference=ReferenceSignal.constant(12.0), init=cfg.init, seed=0)
    assert not np.array_equal(run(equal).states[1], traj.states[1])


def test_signed_zero_matches_oracle_in_csv_bytes(tmp_path):
    # every value is a zero, so each update returns the first retained value
    # in sender order: agent 5 copies leader 3's -0.0, agent 1 keeps its 0.0
    g = make_k_circulant(6, 2)
    cfg = SimConfig(
        graph=g, f=1, horizon=4, roles={3: Leader()}, reference=ReferenceSignal.constant(-0.0),
        init={1: 0.0, 2: -0.0, 3: 0.0, 4: -0.0, 5: 0.0, 6: -0.0}, seed=0,
    )
    traj = run(cfg)
    oracle = Trajectory(cfg, replay_states(traj), traj.reference, traj.edge_values)
    write_trajectory_csv(traj, tmp_path / "engine.csv")
    write_trajectory_csv(oracle, tmp_path / "oracle.csv")
    text = (tmp_path / "engine.csv").read_text()
    assert (tmp_path / "engine.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    assert "4,5,normal,-0.0," in text and "4,1,normal,0.0," in text


_VALUES = st.sampled_from([-3.0, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0, 2.0])
_EXTREMES = st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, 5.0])
_SCALAR_STRATEGIES = st.one_of(
    st.builds(ConstantHold, st.one_of(_VALUES, _EXTREMES)),
    st.builds(Sinusoid, st.integers(-20, 20).map(float), st.integers(2, 9).map(float)),
    st.builds(Ramp, st.integers(-3, 3).map(float), _VALUES),
    st.builds(Scripted, st.lists(st.one_of(_VALUES, _EXTREMES), min_size=1, max_size=4)
              .map(tuple)),
)


# few values, so that ties land on the cut points; inits must be finite
_TIES = st.sampled_from([-1.0, -0.0, 0.0, 1.0])
_TIE_SENDS = st.sampled_from([-1.0, -0.0, 0.0, 1.0, INF, -INF, NAN])
_TIE_SIGNALS = st.one_of(
    st.builds(ConstantHold, _TIE_SENDS),
    st.builds(Scripted, st.lists(_TIE_SENDS, min_size=1, max_size=4).map(tuple)),
)


@st.composite
def _small_configs(draw, values=_VALUES, signals=_SCALAR_STRATEGIES, slack=1):
    n = draw(st.integers(3, 12))
    if draw(st.booleans()):
        g = make_k_circulant(n, draw(st.integers(1, n - 1)))
    else:
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True))
        g = Digraph(n, frozenset(edges))
    kinds = draw(st.lists(st.sampled_from("nnnla"), min_size=n, max_size=n))
    roles = {}
    for i, kind in zip(g.vertices, kinds):
        if kind == "l":
            roles[i] = Leader()
        elif kind == "a" and draw(st.booleans()):
            out = sorted(g.out_neighbors(i))
            edge_signals = draw(st.lists(signals, min_size=len(out), max_size=len(out)))
            roles[i] = Adversary(ByzantinePerEdge(dict(zip(out, edge_signals))))
        elif kind == "a":
            roles[i] = Adversary(draw(signals))
    adversaries = {i for i, role in roles.items() if isinstance(role, Adversary)}
    # the smallest F for which this adversary set is F-local, plus slack
    f = max(len(g.inclusive_neighbors(i) & adversaries) for i in g.vertices) \
        + draw(st.integers(0, slack))
    scheme = None
    if draw(st.booleans()):
        scheme = digests.distinct_weights(g, random.Random(draw(st.integers(0, 2**16))))
    reference = ReferenceSignal(((0, draw(values)), (draw(st.integers(1, 6)), draw(values))))
    return SimConfig(
        graph=g, f=f, horizon=draw(st.integers(1, 10)), roles=roles, reference=reference,
        scheme=scheme, init={i: draw(values) for i in g.vertices}, seed=0,
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cfg=_small_configs())
def test_engine_matches_scalar_oracle(cfg):
    traj = run(cfg)
    assert verify_replay(traj)
    # F-local adversaries never push a normal agent out of the finite reals
    assert np.all(np.isfinite(traj.states[:, [i - 1 for i in cfg.normals]]))


@pytest.mark.parametrize("weights", ["equal", "table"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(cfg=_small_configs(values=_TIES, signals=_TIE_SIGNALS, slack=2), seed=st.integers(0, 2**16))
def test_engine_matches_scalar_oracle_on_ties(weights, cfg, seed):
    # tied values, signed zeros, +-inf and NaN at both cut points, under the
    # equal rule (summed in sorted order) and under distinct table weights
    # (whose ties are resolved by sender id)
    scheme = digests.distinct_weights(cfg.graph, random.Random(seed)) if weights == "table" else None
    assert verify_replay(run(replace(cfg, scheme=scheme)))


_TIE_VALUES = (-1.0, -0.0, 0.0, 1.0)


def _band_edge_config(rng: random.Random, f_kind: str) -> SimConfig:
    """A small run that puts ties, signed zeros, NaN and +-inf at the band
    edges of the round.  In-degrees are skewed, with some rows of degree 1,
    so the high band can start at column 0 and overlap the low one.  Most
    senders are Byzantine, so a row's values are drawn for that row alone."""
    n = rng.randint(2, 9)
    sign = rng.choice((1.0, -1.0))  # one infinity per run (NaN reads as +inf), so no row retains both
    sends = [-1.0, -0.0, 0.0, 1.0, sign * INF] + ([NAN] if sign > 0 else [])
    normals = set(rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))
    edges = set()
    for i in sorted(normals):
        others = [j for j in range(1, n + 1) if j != i]
        size = rng.choice((0, 1, len(others), rng.randint(0, len(others))))
        edges |= {(j, i) for j in rng.sample(others, size)}
    g = Digraph(n, frozenset(edges))
    roles = {}
    for i in sorted(set(g.vertices) - normals):
        if rng.random() < 0.2:
            roles[i] = Leader()
        else:
            roles[i] = Adversary(ByzantinePerEdge({
                j: Scripted(tuple(rng.choices(sends, k=rng.randint(1, 3)))) for j in g.out_neighbors(i)
            }))
    width = max(len(g.inclusive_neighbors(i)) for i in normals)
    f = {"zero": 0, "small": rng.randint(1, 2), "clamped": width + rng.randint(0, 3)}[f_kind]
    return SimConfig(
        graph=g, f=f, horizon=rng.randint(1, 3), roles=roles,
        reference=ReferenceSignal.constant(rng.choice(_TIE_VALUES)),
        init={i: rng.choice(_TIE_VALUES) for i in g.vertices}, seed=0, strict_f_local=False,
    )


def _band_edge_cases(traj: Trajectory) -> set[tuple[str, str]]:
    """Which band-edge cases round 0 of ``traj`` reaches: the shape of its
    rows, and the kind of value at sorted positions F and upper of each row."""
    config = traj.config
    rows = {i: sorted(config.graph.inclusive_neighbors(i)) for i in config.normals}
    degrees = [len(row) for row in rows.values()]
    f = min(config.f, max(degrees))
    upper = max(min(degrees) - f - 1, 0)
    cases = {("rows", "F = 0")} if f == 0 else set()
    if config.f >= max(degrees):
        cases.add(("rows", "F >= width"))
    if min(degrees) <= f + 1:
        cases.add(("rows", "bands overlap"))
    if 1 in degrees:
        cases.add(("rows", "degree 1"))
    def key(v: float) -> float:  # wmsr_filter reads NaN as +inf
        return INF if math.isnan(v) else v

    for i, row in rows.items():
        values = sorted((traj.delivered(0, j, i) for j in row), key=key)
        for edge, p in (("F", f), ("upper", upper)):
            if p >= len(values):
                continue
            at = [v for v in values if key(v) == key(values[p])]
            if len(at) > 1:
                cases.add((edge, "tie"))
            if key(values[p]) == key(traj.broadcast(0, i)) and len(at) > 1:
                cases.add((edge, "tie with own"))
            if values[p] == 0 and {math.copysign(1.0, v) for v in at} == {1.0, -1.0}:
                cases.add((edge, "signed zeros"))
            if any(math.isnan(v) for v in at):
                cases.add((edge, "NaN"))
            if math.isinf(key(values[p])):
                cases.add((edge, "+inf" if values[p] > 0 else "-inf"))
    return cases


@pytest.mark.parametrize("weights", ["equal", "table"])
def test_engine_matches_scalar_oracle_at_band_edges(weights):
    # the round counts and masks only the F + 1 sorted positions at each row
    # end; these runs put every kind of value on both band edges
    rng = random.Random(2024)
    reached = set()
    for seed in range(240):
        cfg = _band_edge_config(rng, ("zero", "small", "clamped")[seed % 3])
        if weights == "table":
            cfg = replace(cfg, scheme=digests.distinct_weights(cfg.graph, random.Random(seed)))
        traj = run(cfg)
        assert verify_replay(traj), seed
        reached |= _band_edge_cases(traj)
    wanted = {("rows", c) for c in ("F = 0", "F >= width", "bands overlap", "degree 1")}
    wanted |= {(edge, c) for edge in ("F", "upper")
               for c in ("tie", "tie with own", "signed zeros", "NaN", "+inf", "-inf")}
    assert not wanted - reached, sorted(wanted - reached)


def test_replay_at_realistic_widths():
    # wide rows, where the engine's certified row sum does the work; the
    # oracle property above only reaches n <= 12
    for name in SCENARIO_NAMES:
        assert verify_replay(run(build_scenario(name).base)), name
    g = make_k_circulant(60, 20)
    rng = random.Random(11)
    scheme = digests.distinct_weights(g, rng)  # drawn before the signals, from the same rng
    signals = {j: rng.choice([Sinusoid(rng.uniform(10, 80), rng.uniform(5, 30)),
                              Ramp(rng.uniform(-3, 3), rng.uniform(-20, 20)),
                              ConstantHold(rng.uniform(-90, 90))])
               for j in sorted(g.out_neighbors(30))}
    roles = {**{i: Leader() for i in range(1, 6)},
             30: Adversary(ByzantinePerEdge(signals)), 45: Adversary(Sinusoid(50.0, 17.0))}
    cfg = SimConfig(graph=g, f=2, horizon=100, roles=roles, reference=ReferenceSignal.constant(7.5),
                    scheme=scheme, seed=4)
    assert verify_replay(run(cfg))


def test_huge_f_runs_like_f_equal_to_n():
    # no row drops more than its degree, so any F >= n filters alike
    g = make_k_circulant(6, 2)
    cfg = SimConfig(graph=g, f=6, horizon=12, roles={1: Leader(), 4: Adversary(Sinusoid(9.0, 5.0))},
                    reference=ReferenceSignal.constant(2.0), seed=3)
    huge = run(replace(cfg, f=10**400))
    assert huge.states.tobytes() == run(cfg).states.tobytes()
    assert verify_replay(huge)


# ---------------------------------------------------------------------------
# export against the naive per-value writers

_EXPORT_VALUES = st.sampled_from([-1e300, 1e300, -5e-324, 5e-324, -0.0, 0.0, 2.5])


@st.composite
def _export_configs(draw):
    """The oracle configs, some with +-1e300 inits or reference values, some
    without a reference (nor leaders), some not F-local, so that +-inf
    adversaries reach normal agents."""
    cfg = draw(_small_configs())
    roles, reference = cfg.roles, cfg.reference
    kind = draw(st.sampled_from(["same", "none", "extreme"]))
    if kind == "none":
        reference = None
        roles = {i: r for i, r in roles.items() if not isinstance(r, Leader)}
    elif kind == "extreme":
        reference = ReferenceSignal(((0, draw(_EXPORT_VALUES)), (1, draw(_EXPORT_VALUES))))
    init = cfg.init
    if draw(st.booleans()):
        init = {i: draw(_EXPORT_VALUES) for i in cfg.graph.vertices}
    strict = draw(st.booleans())
    f = cfg.f if strict else draw(st.integers(0, cfg.f))
    return replace(cfg, roles=roles, reference=reference, init=init, f=f, strict_f_local=strict)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cfg=_export_configs())
def test_export_matches_naive_writers(cfg):
    try:
        traj = run(cfg)
    except ConfigError:  # +inf and -inf retained by one agent
        reject()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for write, naive in ((write_trajectory_csv, naive_write_trajectory_csv),
                             (write_edges_csv, naive_write_edges_csv)):
            write(traj, out / "column.csv")
            naive(traj, out / "naive.csv")
            assert (out / "column.csv").read_bytes() == (out / "naive.csv").read_bytes()
    svg = render_trajectory_svg(traj, "a & <b>")
    with mock.patch.object(svgplot, "_polyline_points", naive_polyline_points):
        assert render_trajectory_svg(traj, "a & <b>") == svg
    texts = [t.text for t in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert "a & <b>" in texts


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cfg=_export_configs(), nans=st.lists(st.tuples(st.integers(0, 10), st.integers(0, 11)), max_size=2))
def test_metrics_match_the_whole_matrix_oracle(cfg, nans):
    # the three per-round series against the hull, the per-agent |x - r| and
    # the invariant over every non-adversarial column, on the export corpus;
    # a NaN never reaches a state of a run, so ``nans`` writes some into the
    # normal columns of a copy
    try:
        traj = run(cfg)
    except ConfigError:  # +inf and -inf retained by one agent
        reject()
    if nans and cfg.normals:
        states = traj.states.copy()
        for t, k in nans:
            states[t % states.shape[0], cfg.normals[k % len(cfg.normals)] - 1] = NAN
        traj = Trajectory(cfg, states, traj.reference, traj.edge_values)
    try:
        want = naive_metrics(traj)
    except ConfigError as exc:
        with pytest.raises(ConfigError, match=f"^{re.escape(str(exc))}$"):
            compute_metrics(traj)
        return
    got = compute_metrics(traj)
    if want.tracking_error is None:
        assert got.tracking_error is None
    else:
        assert got.tracking_error.tobytes() == want.tracking_error.tobytes()
    assert got.disagreement.tobytes() == want.disagreement.tobytes()
    # equal as values: only the sign of a zero may differ, and no output reads it
    np.testing.assert_array_equal(got.lower, want.lower)
    np.testing.assert_array_equal(got.upper, want.upper)
    # the dicts spell NaN as a string, so a NaN end error compares equal
    assert metrics_to_dict(got) == metrics_to_dict(want)


def test_svg_of_infinite_states_fits_the_finite_values():
    # F=0 keeps the two +inf adversaries, so every normal state is +inf from
    # round 1 on: the y-range comes from round 0 alone
    roles = {1: Adversary(ConstantHold(INF)), 2: Adversary(ConstantHold(INF))}
    cfg = SimConfig(graph=make_k_circulant(6, 5), f=0, horizon=3, roles=roles,
                    strict_f_local=False)
    traj = run(cfg)
    assert np.all(np.isinf(traj.states[1:]))
    svg = ET.fromstring(render_trajectory_svg(traj, "inf"))
    points = [p.get("points") for p in svg.iter("{http://www.w3.org/2000/svg}polyline")]
    # each normal agent is finite at round 0 only, the adversaries never are
    assert len(points) == 4 and all(_svg_numbers(p) and " " not in p for p in points)
    no_finite = Trajectory(cfg, np.full((4, 6), INF), None, {})
    ET.fromstring(render_trajectory_svg(no_finite))


def _svg_numbers(points: str) -> bool:
    """Every coordinate of a polyline's points is a finite number."""
    return all(math.isfinite(float(c)) for xy in points.split() for c in xy.split(","))


def test_svg_series_breaks_at_non_finite_states():
    # F=0 without F-locality: agent 1 leaves the finite reals at rounds 1-2
    # and comes back; the ring carries +inf on to agents 2, 3 and 4 in turn
    roles = {1: Adversary(Scripted((1.0, INF, INF, 2.0, 3.0)))}
    cfg = SimConfig(graph=make_k_circulant(4, 1), f=0, horizon=4, roles=roles, strict_f_local=False)
    traj = run(cfg)
    svg = ET.fromstring(render_trajectory_svg(traj))
    lines = list(svg.iter("{http://www.w3.org/2000/svg}polyline"))
    assert all(_svg_numbers(p.get("points")) for p in lines)
    dashed = [p.get("points") for p in lines if p.get("stroke-dasharray")]
    xs = [[xy.split(",")[0] for xy in pts.split()] for pts in dashed]
    assert xs == [["62.00"], ["678.50", "884.00"]]
    # a series whose states are all finite is one polyline, as before
    finite_only = render_trajectory_svg(run(replace(cfg, roles={1: Adversary(ConstantHold(2.0))})))
    assert finite_only.count("<polyline") == 4


def test_svg_of_a_range_of_one_subnormal_step():
    # 0.06 * 5e-324 underflows to a zero pad, which the tick spacing cannot take
    cfg = SimConfig(graph=make_k_circulant(4, 3), f=0, horizon=2, init={1: 5e-324, 2: 0.0, 3: 0.0, 4: 0.0})
    traj = run(cfg)
    assert traj.states.max() == 5e-324
    ET.fromstring(render_trajectory_svg(traj))


# ---------------------------------------------------------------------------
# the certified row sum against math.fsum

_SUM_VALUES = st.one_of(
    st.floats(),  # its edge cases include +-0, subnormals, +-inf, NaN and +-max
    st.sampled_from([1.7e308, -1.7e308, 2.0**-53, -(2.0**-53), 2.0**-106, 5e-324, -5e-324]),
    # small integers over a spread of scales: exact half-ulp midpoints and cancellation
    st.builds(math.ldexp, st.integers(-9, 9), st.integers(-130, 40)),
)


@st.composite
def _term_matrices(draw):
    width = draw(st.integers(1, 70))
    terms = draw(arrays(np.float64, (draw(st.integers(1, 8)), width), elements=_SUM_VALUES, fill=_SUM_VALUES))
    if draw(st.booleans()):  # heavy cancellation: half of each row negates the other half
        half = width // 2
        terms[:, half : 2 * half] = -terms[:, :half]
        terms = terms[:, draw(st.permutations(range(width)))]
    return terms


def _certified_sums(terms):
    """``_column_sums`` over the rows of ``terms``, laid out as the engine
    lays out a round (one column per agent), with the bounds read off the
    terms, as under a weight table: the sums and the mask of certified ones."""
    cols = terms.T.copy()
    spare = np.empty_like(cols)
    sums, rest = _column_sums(cols, spare, *_magnitudes(cols, spare), np.zeros(len(terms), dtype=bool))
    ok = np.ones(len(terms), dtype=bool)
    ok[rest] = False
    return sums, ok


@example(terms=np.array([[1e308, 1e291, -1e308, 1.0]]))  # 2*w*max|p| overflows, and a wrong scale looks fine
@example(terms=np.array([[1.0, 2.0**-53, 2.0**-106]]))  # the low parts span more than 53 bits
@example(terms=np.array([[0.1, 0.2, 0.3], [np.inf, 1.0, -2.0], [np.nan, 0.5, 0.25], [-np.inf, 4.0, 1.0]]))
@example(terms=np.array([[1e-300, 3e-300, -1e-300], [1e300, -3e299, 1e300]]))  # one sigma for both
@example(terms=np.array([[0.0, -0.0, 0.0], [1.0, 2.0, 0.5]]))
@example(terms=np.array([[3e307, 3e307]]))  # 2*w*max|p| is finite, but sigma would overflow
@settings(max_examples=300, deadline=None, derandomize=True)
@given(terms=_term_matrices())
def test_certified_row_sums_equal_fsum(terms):
    sums, ok = _certified_sums(terms)
    for row, total, certified in zip(terms.tolist(), sums, ok):
        if certified:
            assert np.float64(math.fsum(row)).tobytes() == total.tobytes(), row


def test_ordinary_rows_are_certified():
    terms = np.array([[0.1, 0.2, 0.3, 0.0], [-2.5, 1e-3, 7.0, 1.0 / 3.0]])
    assert _certified_sums(terms)[1].all()
    # one sigma serves a whole round, so a row of tiny terms is certified
    # among rows of its own scale
    assert _certified_sums(np.array([[1e-200, 3e-200, 0.0, -0.0]]))[1].all()


def test_one_sigma_per_round_certifies_each_row_on_its_own_test():
    # the shared sigma comes from the largest row: the 1e300 row is certified,
    # the 1e-300 row is too far below that sigma and goes to fsum
    assert _certified_sums(np.array([[1e-300, 3e-300, -1e-300], [1e300, -3e299, 1e300]]))[1].tolist() == [False, True]
    assert _certified_sums(np.array([[0.0, -0.0, 0.0], [1.0, 2.0, 0.5]]))[1].tolist() == [False, True]
    # a non-finite largest term certifies no row
    for bad in (np.inf, -np.inf, np.nan):
        assert not _certified_sums(np.array([[0.1, 0.2, 0.3], [bad, 1.0, -2.0]]))[1].any()


def test_states_near_the_largest_float_are_summed_exactly():
    # 2*w*max|p| is finite here but its power of two is not: such a round
    # goes to fsum, where an infinite sigma once gave NaN states
    traj = run(SimConfig(graph=make_k_circulant(3, 2), f=0, horizon=1, init={1: 3e307, 2: 4e307, 3: 5e307}))
    assert np.isfinite(traj.states).all()
    assert verify_replay(traj)


def _wide_config():
    # C_300(1..60) at F = 3, the shape of a wide run: a certified window of
    # 2F + 1 leaders, three of them adversaries (one Byzantine per edge)
    g = make_k_circulant(300, 60)
    window = list(range(11, 18))
    assert circulant_certificate(300, 60, window, 3, "strong").verdict
    roles = {i: Leader() for i in window}
    roles[12] = Adversary(Sinusoid(amplitude=45.0, period=30.0))
    roles[14] = Adversary(Ramp(slope=-3.0, intercept=10.0))
    roles[16] = Adversary(ByzantinePerEdge({j: ConstantHold(-80.0 + j) for j in g.out_neighbors(16)}))
    return SimConfig(graph=g, f=3, horizon=40, roles=roles, reference=ReferenceSignal.constant(40.0), seed=5)


@pytest.mark.parametrize("config", [sim2().config(20), _wide_config()], ids=["sim2", "wide"])
def test_tracking_runs_certify_every_sum(config):
    # the fast path: every round's sums are certified, none goes to math.fsum
    with mock.patch.object(simulation.math, "fsum", side_effect=math.fsum) as fsum:
        traj = run(config)
    assert fsum.call_count == 0
    assert verify_replay(traj)


# math.fsum calls and the sums that need one (rows not common) per built-in
# scenario at its default seed, as README states them
FSUM_FALLBACKS = {"sim1": (0, 434), "sim2": (0, 9731), "sim3": (12, 6900), "sim4": (0, 6900),
                  "counterexample-rs": (0, 0), "counterexample-2f1": (0, 0), "leader-deficit": (0, 0),
                  "leader-deficit-contrast": (0, 1888)}


def test_fsum_fallbacks_per_builtin_scenario():
    assert set(FSUM_FALLBACKS) == set(SCENARIO_NAMES)
    counted = {}
    for name in SCENARIO_NAMES:
        needed = []

        def counting(terms, spare, top, low, skip):
            needed.append(int((~skip).sum()))
            return _column_sums(terms, spare, top, low, skip)

        with mock.patch.object(simulation, "_column_sums", counting), \
                mock.patch.object(simulation.math, "fsum", side_effect=math.fsum) as fsum:
            run(build_scenario(name).config())
        counted[name] = (fsum.call_count, sum(needed))
    assert counted == FSUM_FALLBACKS


def _matrix_bounds_agree(terms, top, low, skip):
    """Assert that ``top`` and ``low`` agree with the bounds read off
    ``terms`` (``low`` only where it is > 0) and that ``_column_sums`` gives
    the same sums and uncertified columns with either; the number of columns
    outside ``skip`` whose ``low`` sends them to the recheck."""
    mtop, mlow = _magnitudes(terms)
    assert np.float64(top).tobytes() == np.float64(mtop).tobytes()
    misses = low > 0
    assert low[misses].tobytes() == mlow[misses].tobytes()
    sums, rest = _column_sums(terms, np.empty_like(terms), top, low, skip)
    msums, mrest = _column_sums(terms, np.empty_like(terms), mtop, mlow, skip)
    assert sums.tobytes() == msums.tobytes() and rest.tolist() == mrest.tolist()
    return int((~misses & ~skip).sum())


@pytest.mark.parametrize("config", [*(build_scenario(f"sim{i}").config() for i in range(1, 5)), _wide_config()],
                         ids=["sim1", "sim2", "sim3", "sim4", "wide"])
def test_end_bounds_equal_the_matrix_bounds_on_every_round(config):
    # every computed round of an equal-rule run: the bounds from each run's
    # two ends against the terms', and the same certified mask
    assert config.scheme.table is None
    rounds, rechecked = [], 0

    def checked(terms, spare, top, low, skip):
        nonlocal rechecked
        rechecked += _matrix_bounds_agree(terms, top, low, skip)
        rounds.append(terms.shape)
        return _column_sums(terms, spare, top, low, skip)

    with mock.patch.object(simulation, "_column_sums", checked):
        run(config)
    assert rounds and rechecked > 0


_RUN_VALUES = _SUM_VALUES.filter(lambda v: not math.isnan(v))  # a delivered NaN is read as +inf


@st.composite
def _sorted_runs(draw):
    """Columns laid out as an equal-rule round leaves them: each a sorted row
    of delivered values, scaled by 1/size on its retained run and 0 on the
    values dropped at either end and on its pads, with the run's two ends."""
    width, count = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    terms, first, last = np.zeros((width, count)), np.empty(count), np.empty(count)
    for c in range(count):
        row = sorted(draw(st.lists(_RUN_VALUES, min_size=1, max_size=width)))
        low_drop = draw(st.integers(0, len(row) - 1))
        stop = len(row) - draw(st.integers(0, len(row) - 1 - low_drop))
        scale = 1.0 / (stop - low_drop)
        terms[low_drop:stop, c] = np.array(row[low_drop:stop]) * scale
        first[c], last[c] = terms[low_drop, c], terms[stop - 1, c]
    skip = np.array(draw(st.lists(st.booleans(), min_size=count, max_size=count)))
    return terms, first, last, skip


def _one_run(row, low_drop=0, high_drop=0):
    terms = np.zeros((len(row), 1))
    stop = len(row) - high_drop
    terms[low_drop:stop, 0] = np.array(row[low_drop:stop]) * (1.0 / (stop - low_drop))
    return terms, terms[low_drop], terms[stop - 1], np.zeros(1, dtype=bool)


@example(case=_one_run([0.0, 1.0, 2.0]))  # a run that starts at 0 has low 0, not a negative bound
@example(case=_one_run([-0.0, 3.0, 5.0]))
@example(case=_one_run([-3.0, -1.0, 2.0, 5.0, 9.0], 1, 1))  # a run across 0, less one value at each end
@example(case=_one_run([5e-324, 1.0]))  # the least value scales to 0
@example(case=_one_run([-7.0, -2.0, -5e-324], 0, 1))  # a negative run: low is -last
@example(case=_one_run([-np.inf, 1.0, np.inf]))
@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_sorted_runs())
def test_end_bounds_certify_the_same_sums_as_the_matrix_bounds(case):
    terms, first, last, skip = case
    _matrix_bounds_agree(terms, *_end_bounds(first, last), skip)
