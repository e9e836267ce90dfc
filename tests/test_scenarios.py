from dataclasses import fields
from unittest import mock

import numpy as np
import pytest

import rcl.robustness
from rcl.graph import make_k_circulant
from rcl.robustness import is_r_robust, is_rs_robust
from rcl.scenarios import (
    SCENARIO_NAMES,
    NoConvergence,
    PreconditionError,
    PreconditionResult,
    Scenario,
    ScenarioError,
    StaysAtValue,
    build_2f1_counterexample,
    build_rs_counterexample,
    build_scenario,
    counterexample_2f1,
    counterexample_rs,
    leader_deficit_contrast,
    leader_deficit_scenario,
    sim1,
    sim2,
    sim3,
    sim4,
)
from rcl.simulation import SimConfig, compute_metrics, run


def test_registry_rejects_unknown_name():
    with pytest.raises(ScenarioError):
        build_scenario("sim9")
    for name in ("sim1", "sim2", "sim3", "sim4"):
        with pytest.raises(ScenarioError, match="F override"):
            build_scenario(name, f=2)
    parametric = ("counterexample-rs", "counterexample-2f1", "leader-deficit",
                  "leader-deficit-contrast")
    for name in parametric:
        assert build_scenario(name, f=2).base.f == 2
    for name in SCENARIO_NAMES:
        scenario = build_scenario(name)
        assert scenario.name == name
        seed = scenario.base.seed + 1
        config = scenario.config(seed)
        assert config.seed == seed
        for field in fields(config):
            if field.name != "seed":
                assert getattr(config, field.name) == getattr(scenario.base, field.name)


def test_sim1_consensus_within_hull():
    result = sim1().run()
    assert result.outcome_ok
    traj = result.trajectory
    normals = traj.config.normals
    assert len(normals) == 17
    finals = traj.states[-1, [i - 1 for i in normals]]
    initials = traj.states[0, [i - 1 for i in normals]]
    assert finals.max() - finals.min() < 1e-6
    assert initials.min() <= finals.min() and finals.max() <= initials.max()
    assert np.all(initials >= -25.0) and np.all(initials <= 25.0)


def test_sim2_converges_to_outside_reference():
    result = sim2().run()
    assert result.outcome_ok
    assert result.metrics.final_error < 1e-6
    # reference sits outside the initial range, yet tracking succeeds
    assert result.config.reference.value_at(0) == 40.0
    assert result.preconditions[0].ok


def test_sim2_remaining_leader_count_is_below_2f1():
    cfg = sim2().config()
    assert len(cfg.leaders) == 4  # 7 designated minus 3 attacked, < 2F+1 = 7
    assert set(cfg.adversaries) == {22, 26, 28}


def test_sim3_tracks_each_interval():
    result = sim3().run()
    assert result.outcome_ok
    ends = [iv.end_error for iv in result.metrics.intervals]
    assert len(ends) == 3
    assert all(e < 1e-3 for e in ends)
    assert result.metrics.final_error < 1e-6


def test_sim4_ramp_values_dwarf_normal_range():
    result = sim4().run()
    assert result.outcome_ok
    traj = result.trajectory
    normals = traj.config.normals
    normal_peak = np.abs(traj.states[:, [i - 1 for i in normals]]).max()
    adversary_peak = np.abs(traj.states[:, [i - 1 for i in traj.config.adversaries]]).max()
    assert adversary_peak > 10 * normal_peak
    assert all(iv.end_error < 1e-3 for iv in result.metrics.intervals)


def test_counterexample_rs_structure_and_outcome():
    scenario = counterexample_rs(1)
    g = scenario.config().graph
    s1 = scenario.config().leaders
    s2 = scenario.config().normals
    assert len(s1) == 2
    assert is_rs_robust(g, 2, 2).verdict
    for i in s1:
        assert len(g.in_neighbors(i) - set(s1)) >= 2
    for j in s2:
        assert len(g.in_neighbors(j) - set(s2)) <= 1
    result = scenario.run()
    assert result.outcome_ok
    err = result.metrics.tracking_error
    assert np.all(err == 10.0)  # residual is exactly |a2 - a1| at every round


def test_counterexample_2f1_structure_and_outcome():
    scenario = counterexample_2f1(1)
    cfg = scenario.config()
    g = cfg.graph
    assert is_r_robust(g, 3).verdict
    assert len(cfg.adversaries) == 1
    s1 = set(cfg.leaders)
    fully_connected = [j for j in g.vertices if j not in s1 and s1 <= g.in_neighbors(j)]
    assert fully_connected == list(cfg.adversaries)
    result = scenario.run()
    assert result.outcome_ok
    assert np.all(result.metrics.tracking_error == 10.0)


def test_counterexamples_call_no_exponential_decider(monkeypatch):
    # the construction is certified by the O(n) degree certificate, so neither
    # building nor running either counterexample enumerates subsets
    def refuse(*args, **kwargs):
        raise AssertionError("a counterexample called an exponential decider")

    monkeypatch.setattr(rcl.robustness, "_pair_scan", refuse)
    monkeypatch.setattr(rcl.robustness, "_pair_table", rcl.robustness._Kept(refuse))
    monkeypatch.setattr(rcl.robustness, "_bruteforce", refuse)
    for build, name in ((counterexample_rs, "rs_robustness_holds"), (counterexample_2f1, "2f1_robustness_holds")):
        result = build(1).run()
        pre = result.preconditions[0]
        assert pre.name == name and pre.ok
        assert pre.detail["verdict"] is True and pre.detail["method"] == "certificate"


def test_outcomes_without_a_tol_field_use_1e_6():
    for outcome, text in ((StaysAtValue(0.0), "StaysAtValue(value=0.0)"),
                          (NoConvergence(10.0), "NoConvergence(min_residual=10.0)")):
        assert outcome.tol == 1e-6
        assert repr(outcome) == text


def test_no_convergence_fails_without_a_reference():
    traj = run(SimConfig(graph=make_k_circulant(6, 2), f=0, horizon=2))
    assert NoConvergence(1.0).check(traj, compute_metrics(traj)) == (False, "no reference signal, residual undefined")


@pytest.mark.parametrize("kind", ["counterexample-rs", "counterexample-2f1"])
@pytest.mark.parametrize("f", [1, 2, 3, 6, 16, 64])
def test_counterexamples_are_constructed_at_any_f(f, kind):
    result = build_scenario(kind, f=f).run()
    assert result.config.graph.n == 4 * f + 6
    assert all(pre.ok for pre in result.preconditions)
    assert result.outcome_ok
    assert np.all(result.metrics.tracking_error == 10.0)


def test_counterexamples_at_f2():
    assert counterexample_rs(2).run().outcome_ok
    assert counterexample_2f1(2).run().outcome_ok


def test_counterexample_requires_f_at_least_one():
    with pytest.raises(ScenarioError):
        build_rs_counterexample(0)
    with pytest.raises(ScenarioError):
        build_2f1_counterexample(0)


def test_parametric_scenarios_reject_f_outside_range():
    from rcl.scenarios import MAX_SCENARIO_F

    for name in ("counterexample-rs", "counterexample-2f1", "leader-deficit", "leader-deficit-contrast"):
        with pytest.raises(ScenarioError, match=r"^F must be in \[0, 64\]"):
            build_scenario(name, f=-1)
    assert MAX_SCENARIO_F == 64
    for name in ("counterexample-rs", "counterexample-2f1", "leader-deficit"):
        assert build_scenario(name, f=MAX_SCENARIO_F).base.f == MAX_SCENARIO_F
    for name in ("counterexample-rs", "counterexample-2f1", "leader-deficit", "leader-deficit-contrast"):
        with pytest.raises(ScenarioError, match=r"^F must be in \[0, 64\]"):
            build_scenario(name, f=MAX_SCENARIO_F + 1)


def test_parametric_scenarios_take_an_integer_f_only():
    for name in ("counterexample-rs", "counterexample-2f1", "leader-deficit", "leader-deficit-contrast"):
        for f in (1.5, True):
            with pytest.raises(ScenarioError, match=f"^F must be an integer, got {f}$"):
                build_scenario(name, f=f)
    assert build_scenario("leader-deficit", f=np.int64(2)).base == build_scenario("leader-deficit", f=2).base


def test_leader_deficit_normals_pinned_bit_exactly():
    result = leader_deficit_scenario(1).run()
    assert result.outcome_ok
    traj = result.trajectory
    cols = traj.states[:, [i - 1 for i in traj.config.normals]]
    assert np.all(cols == 0.0)
    assert traj.config.reference.value_at(0) == 10.0


def test_leader_deficit_contrast_converges():
    result = leader_deficit_contrast(1).run()
    assert result.outcome_ok
    assert result.metrics.convergence_round is not None


def test_leader_deficit_f2():
    assert leader_deficit_scenario(2).run().outcome_ok
    assert leader_deficit_contrast(2).run().outcome_ok


def test_failing_precondition_aborts_run():
    base = sim2()
    doomed = Scenario(
        name="doomed",
        description="precondition always fails",
        expected=base.expected,
        base=base.base,
        preconditions=(PreconditionResult("always_false", False, "nope"),),
    )
    with pytest.raises(PreconditionError, match="always_false"):
        doomed.run()


def test_a_built_scenario_evaluates_its_preconditions_once():
    with mock.patch("rcl.scenarios.circulant_certificate", wraps=rcl.robustness.circulant_certificate) as spy:
        scenario = sim2()
        results = [scenario.run(seed=seed, horizon=5) for seed in (1, 2, 3)]
    assert spy.call_count == 1
    assert all(r.preconditions == scenario.preconditions for r in results)
    assert [(p.name, p.ok) for p in scenario.preconditions] == [("strongly_2f1_robust_certificate", True)]


def test_scenario_horizon_and_seed_overrides():
    result = sim2().run(seed=9, horizon=120)
    assert result.config.seed == 9
    assert result.trajectory.horizon == 120


def test_counterexamples_hold_at_other_horizons():
    result = counterexample_rs(1).run(horizon=500)
    assert result.outcome_ok
