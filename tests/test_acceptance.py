"""Acceptance suite: one test per release criterion, at its stated tolerance.

A terminal-summary hook in conftest.py prints one PASS/FAIL line per
criterion after the run.
"""

import hashlib
import itertools
import random
import time

import numpy as np

from helpers import random_digraph
from rcl.graph import make_k_circulant, make_undirected_circulant
from rcl.protocol import (
    Adversary,
    ByzantinePerEdge,
    ConstantHold,
    Leader,
    Ramp,
    ReferenceSignal,
    Sinusoid,
    validate_f_local,
    wmsr_filter,
)
from rcl.robustness import (
    circulant_certificate,
    is_r_robust,
    is_rs_robust,
    is_strongly_r_robust_bruteforce,
    is_strongly_r_robust_peeling,
    is_tlf_robust_bruteforce,
    is_tlf_robust_peeling,
)
from rcl.scenarios import (
    counterexample_2f1,
    counterexample_rs,
    leader_deficit_contrast,
    leader_deficit_scenario,
    sim2,
    sim3,
    sim4,
)
from rcl.simulation import ENVELOPE_SLACK, SimConfig, compute_metrics, run, write_trajectory_csv


def test_c01_peeling_matches_bruteforce_at_scale():
    """Criterion 1: peeling and brute-force verdicts agree on 1000 random
    digraphs (n <= 10) plus every k-circulant with n <= 10, for strong
    r-robustness (all r <= n) and TLF robustness (all F <= 3), over all
    leader sets of size <= 4.  Zero disagreements, under 5 minutes."""

    def graphs():
        # built one at a time, so each graph's kept tables die with it
        rng = random.Random(20260810)
        for idx in range(1000):
            yield random_digraph(rng, 4 + idx % 7, (0.15, 0.3, 0.5, 0.7)[idx % 4])
        for n in range(2, 11):
            for k in range(1, n):
                yield make_k_circulant(n, k)

    started = time.perf_counter()
    disagreements = 0
    checks = 0
    for g in graphs():
        vs = sorted(g.vertices)
        for size in range(1, min(4, g.n) + 1):
            for s_tuple in itertools.combinations(vs, size):
                s = frozenset(s_tuple)
                for r in range(0, g.n + 1):
                    brute = is_strongly_r_robust_bruteforce(g, s, r).verdict
                    peel = is_strongly_r_robust_peeling(g, s, r).verdict
                    disagreements += brute != peel
                    checks += 1
                for f in range(0, 4):
                    brute = is_tlf_robust_bruteforce(g, s, f).verdict
                    peel = is_tlf_robust_peeling(g, s, f).verdict
                    disagreements += brute != peel
                    checks += 1
    elapsed = time.perf_counter() - started
    assert disagreements == 0, f"{disagreements} disagreements in {checks} checks"
    assert elapsed < 300.0, f"cross-validation took {elapsed:.0f}s"


def test_c02_certificate_soundness_exhaustive():
    """Criterion 2: wherever the circulant window certificate affirms strong
    or TLF robustness (n <= 10, all k, F <= 2, all consecutive leader
    windows), the brute-force checker affirms it too.  Zero violations."""
    violations = 0
    for n in range(2, 11):
        for k in range(1, n):
            g = make_k_circulant(n, k)
            for f in range(0, 3):
                for start in range(1, n + 1):
                    for length in range(1, n):
                        window = frozenset((start - 1 + j) % n + 1 for j in range(length))
                        if circulant_certificate(n, k, window, f, "strong").verdict:
                            if not is_strongly_r_robust_bruteforce(g, window, 2 * f + 1).verdict:
                                violations += 1
                        if circulant_certificate(n, k, window, f, "tlf").verdict:
                            if not is_tlf_robust_bruteforce(g, window, f).verdict:
                                violations += 1
    assert violations == 0


def test_c03_circulant_robustness_lower_bounds():
    """Criterion 3: C_n(1..k) is at least ceil(k/2)-robust for n <= 12,
    k <= n-1; C_n(+-1..+-k) is at least k-robust for n <= 10 (offsets
    distinct mod n).  Zero violations, under 10 minutes."""
    started = time.perf_counter()
    for n in range(2, 13):
        for k in range(1, n):
            g = make_k_circulant(n, k)
            r = (k + 1) // 2
            assert is_r_robust(g, r).verdict, (n, k, r)
    for n in range(2, 11):
        for k in range(1, (n - 1) // 2 + 1):
            g = make_undirected_circulant(n, list(range(1, k + 1)))
            assert is_r_robust(g, k).verdict, (n, k)
    assert time.perf_counter() - started < 600.0


def test_c04_sim2_reproduction_over_20_seeds():
    """Criterion 4: the n=30, k=15, F=3 tracking run with leaders {22..28},
    attacked leaders {22, 26, 28}, and reference 40 converges below 1e-6
    within 500 rounds for 20 consecutive seeds, under 1 s per run."""
    scenario = sim2()
    for seed in range(20):
        started = time.perf_counter()
        result = scenario.run(seed=seed)
        elapsed = time.perf_counter() - started
        assert result.outcome_ok, (seed, result.outcome_detail)
        assert result.metrics.convergence_round is not None
        assert result.metrics.convergence_round <= 500
        assert result.metrics.final_error < 1e-6, seed
        assert elapsed < 1.0, f"seed {seed} took {elapsed:.2f}s"


def test_c05_sim3_sim4_interval_tracking():
    """Criterion 5: with the stepping reference (30, -20, 0), tracking error
    is below 1e-3 at the end of every constant interval and below 1e-6 at
    the horizon; sim4 passes with ramp adversaries whose values exceed ten
    times the normal-state range."""
    for scenario in (sim3(), sim4()):
        result = scenario.run()
        assert result.outcome_ok, result.outcome_detail
        assert len(result.metrics.intervals) == 3
        for iv in result.metrics.intervals:
            assert iv.end_error < 1e-3, (scenario.name, iv)
        assert result.metrics.final_error < 1e-6

    traj = result.trajectory  # sim4's
    normal_cols = [i - 1 for i in traj.config.normals]
    adversary_cols = [i - 1 for i in traj.config.adversaries]
    normal_range = np.abs(traj.states[:, normal_cols]).max()
    adversary_peak = np.abs(traj.states[:, adversary_cols]).max()
    assert adversary_peak > 10.0 * normal_range


def _random_compliant_config(rng: random.Random, trusted: bool) -> SimConfig:
    """A circulant configuration certified strongly (2F+1)-robust (or TLF
    robust when trusted) w.r.t. its designated leader window, with an
    F-local adversary set."""
    f = rng.randrange(1, 3)
    while True:
        n = rng.randrange(8, 15)
        k = rng.randrange(2 * f + 1, n)
        start = rng.randrange(1, n + 1)
        if trusted:
            window = [(start - 1 + j) % n + 1 for j in range(f + 1)]
            report = circulant_certificate(n, k, window, f, "tlf")
        else:
            window = [(start - 1 + j) % n + 1 for j in range(2 * f + 1)]
            report = circulant_certificate(n, k, window, f, "strong")
        if report.verdict:
            break
    graph = make_k_circulant(n, k)
    roles: dict[int, object] = {i: Leader() for i in window}
    candidates = [v for v in graph.vertices if v not in window] if trusted else list(graph.vertices)
    n_adv = rng.randrange(0, f + 1)
    strategies = (
        lambda: ConstantHold(rng.uniform(-80, 80)),
        lambda: Sinusoid(rng.uniform(5, 60), rng.uniform(5, 50), rng.uniform(0, 6)),
        lambda: Ramp(rng.uniform(-6, 6), rng.uniform(-30, 30)),
    )
    for v in rng.sample(candidates, n_adv):
        roles[v] = Adversary(rng.choice(strategies)())
    breaks = [(0, rng.uniform(-40, 40))]
    for _ in range(rng.randrange(0, 2)):
        breaks.append((breaks[-1][0] + rng.randrange(20, 60), rng.uniform(-40, 40)))
    return SimConfig(
        graph=graph,
        f=f,
        horizon=120,
        roles=roles,
        reference=ReferenceSignal(tuple(breaks)),
        seed=rng.randrange(1 << 30),
    )


def test_c06_envelope_safety_suite():
    """Criterion 6: over 100 random compliant configurations, the normal/
    reference envelope is monotone and an invariant set on every constant
    interval, with only 1e-12 floating-point slack."""
    assert ENVELOPE_SLACK == 1e-12
    rng = random.Random(606)
    for idx in range(100):
        config = _random_compliant_config(rng, trusted=idx % 2 == 0)
        ok, violator = validate_f_local(config.graph, config.adversaries, config.f)
        assert ok, (idx, violator)
        metrics = compute_metrics(run(config))
        assert metrics.envelope_monotone, idx
        assert metrics.interval_invariant, idx


def test_c07_leader_count_necessity():
    """Criterion 7: with only F acting leaders, every normal agent stays at
    the common value bit-exactly for 500 rounds; with F+1 leaders the same
    graph and adversaries converge."""
    result = leader_deficit_scenario(1).run()
    assert result.trajectory.horizon == 500
    traj = result.trajectory
    cols = traj.states[:, [i - 1 for i in traj.config.normals]]
    assert np.all(cols == 0.0)
    assert traj.config.reference.value_at(0) == 10.0  # the leaders' target, away from the hold
    assert result.outcome_ok

    contrast = leader_deficit_contrast(1).run()
    assert contrast.outcome_ok
    assert contrast.metrics.convergence_round is not None


def test_c08_insufficiency_counterexamples():
    """Criterion 8: the generated (F+1,F+1)-robust and (2F+1)-robust
    counterexamples (F=1) are certified by brute force, carry an F-local
    adversary set, and keep the tracking residual at exactly |a2 - a1|."""
    rs = counterexample_rs(1)
    cfg = rs.config()
    assert is_rs_robust(cfg.graph, 2, 2, force=True).verdict
    assert validate_f_local(cfg.graph, cfg.adversaries, 1)[0]
    result = rs.run()
    assert result.outcome_ok
    assert np.all(result.metrics.tracking_error == 10.0)

    ce = counterexample_2f1(1)
    cfg = ce.config()
    assert is_r_robust(cfg.graph, 3, force=True).verdict
    assert validate_f_local(cfg.graph, cfg.adversaries, 1)[0]
    result = ce.run()
    assert result.outcome_ok
    assert np.all(result.metrics.tracking_error == 10.0)


def test_c09_filter_retains_common_leader_value():
    """Criterion 9: for F <= 4, any incoming multiset holding at least F+1
    copies of a common value keeps at least one copy after filtering; 10^4
    random cases, zero failures."""
    rng = random.Random(909)
    failures = 0
    for _ in range(10_000):
        f = rng.randrange(0, 5)
        c_l = rng.uniform(-50, 50)
        copies = f + 1 + rng.randrange(0, 4)
        incoming = [(j + 2, c_l) for j in range(copies)]
        extras = rng.randrange(0, 8)
        incoming += [(100 + j, rng.uniform(-100, 100)) for j in range(extras)]
        rng.shuffle(incoming)
        own = rng.uniform(-100, 100)
        retained = wmsr_filter(1, own, incoming, f)
        if c_l not in [v for _, v in retained]:
            failures += 1
    assert failures == 0


def test_c10_byte_identical_trajectories(tmp_path):
    """Criterion 10: identical (config, seed) produce byte-identical
    trajectory CSVs across repeated runs."""
    configs = {
        "sim2": sim2().config(seed=0),
        "byzantine": SimConfig(
            graph=make_k_circulant(6, 2),
            f=1,
            horizon=50,
            roles={1: Adversary(ByzantinePerEdge({2: Ramp(3.0), 3: Sinusoid(40.0, 13.0)}))},
            seed=0,
        ),
    }
    for name, config in configs.items():
        digests = set()
        for tag in ("a", "b", "c"):
            path = tmp_path / f"{name}-{tag}.csv"
            write_trajectory_csv(run(config), path)
            digests.add(hashlib.sha256(path.read_bytes()).hexdigest())
        assert len(digests) == 1, f"{name}: non-deterministic trajectory CSV"
