"""cefsim: deterministic simulator for the coded-edge-federation
evolutionary game with classical and Caputo-fractional replicator
dynamics.
"""

__version__ = "0.1.0"

from .game import (
    EipConfig,
    TaskSpec,
    MixedStrategyProfile,
    FederationGame,
    joint_assignment_pmf,
    recovery_pmf,
)
from .fractional import (
    SolverConfig,
    FdeSolution,
    FdeAbortError,
    memory_weight,
    caputo_derivative_estimate,
    mittag_leffler,
    solve_fde_ivp,
)
from .evolution import (
    Trajectory,
    EquilibriumReport,
    simulate,
    detect_convergence,
    direction_field,
    stability_probe,
    stability_weight,
    estimate_lipschitz,
)
from .experiments import SweepSpec, run_sweep, kernel_study
from .config import ScenarioConfig, ConfigError, parse_config, emit_config

__all__ = [
    "EipConfig", "TaskSpec", "MixedStrategyProfile", "FederationGame",
    "joint_assignment_pmf", "recovery_pmf",
    "SolverConfig", "FdeSolution", "FdeAbortError",
    "memory_weight", "caputo_derivative_estimate", "mittag_leffler",
    "solve_fde_ivp",
    "Trajectory", "EquilibriumReport", "simulate", "detect_convergence",
    "direction_field", "stability_probe", "stability_weight",
    "estimate_lipschitz",
    "SweepSpec", "run_sweep", "kernel_study",
    "ScenarioConfig", "ConfigError", "parse_config", "emit_config",
]
