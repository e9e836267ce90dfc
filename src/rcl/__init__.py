"""Resilient leader-follower consensus: robustness certification and W-MSR simulation."""

from .graph import (
    Digraph,
    GraphError,
    load_graph,
    make_k_circulant,
    make_undirected_circulant,
    save_graph,
)
from .protocol import (
    Adversary,
    AgentRole,
    ByzantinePerEdge,
    ConfigError,
    ConstantHold,
    Leader,
    Normal,
    Ramp,
    ReferenceSignal,
    Scripted,
    Sinusoid,
    WeightScheme,
    validate_f_local,
    wmsr_filter,
    wmsr_update,
)
from .robustness import (
    EnumerationCapError,
    Property,
    RobustnessReport,
    circulant_certificate,
    is_r_robust,
    is_rs_robust,
    is_strongly_r_robust_bruteforce,
    is_strongly_r_robust_peeling,
    is_tlf_robust_bruteforce,
    is_tlf_robust_peeling,
    max_r_robustness,
    r_reachable_set,
)
from .scenarios import Scenario, build_scenario
from .simulation import (
    Metrics,
    SimConfig,
    Trajectory,
    compute_metrics,
    config_from_dict,
    config_to_dict,
    run,
)

__version__ = "0.1.0"
