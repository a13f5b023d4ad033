"""Batch studies over the federation game: parameter sweeps, the
convergence-time study across fractional orders, and the memory-kernel
study.  All outputs are deterministic tables (lists of dicts in fixed
row order), computed in order on the calling thread.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Optional, Sequence

from .evolution import detect_convergence, simulate
from .fractional import MemoryKernel, SolverConfig, memory_weight
from .game import EipConfig, FederationGame, MixedStrategyProfile, TaskSpec

SWEEPABLE = ("W1", "E1", "r1", "n", "k")


def _check_thread_env() -> None:
    """`CEF_THREADS` must be 0 or a positive integer; sweep rows ignore it."""
    raw = os.environ.get("CEF_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = -1
    if n < 0:
        raise ValueError(f"CEF_THREADS must be 0 or a positive integer, got {raw!r}")


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep over otherwise fixed base scenario."""

    parameter: str                    # one of SWEEPABLE
    grid: tuple
    eips: tuple[EipConfig, ...]
    tasks: tuple[TaskSpec, ...]
    solver: SolverConfig
    gamma: float
    literal_utilization_cost: bool = False
    initial_profile: Optional[MixedStrategyProfile] = None

    def __post_init__(self):
        if self.parameter not in SWEEPABLE:
            raise ValueError(f"unknown sweep parameter {self.parameter!r}; "
                             f"choose from {SWEEPABLE}")
        if len(self.grid) == 0:
            raise ValueError("sweep grid must be nonempty")
        diffs = [b - a for a, b in zip(self.grid, self.grid[1:])]
        if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
            raise ValueError("sweep grid must be strictly monotone")

    def scenario_at(self, value) -> tuple[tuple[EipConfig, ...], tuple[TaskSpec, ...]]:
        eips, tasks = self.eips, self.tasks
        if self.parameter == "W1":
            eips = (dataclasses.replace(eips[0], capacity=int(value)),) + eips[1:]
        elif self.parameter == "E1":
            eips = (dataclasses.replace(eips[0], num_clouds=int(value)),) + eips[1:]
        elif self.parameter == "r1":
            tasks = tuple(dataclasses.replace(t, r1=float(value)) for t in tasks)
        elif self.parameter == "n":
            tasks = tuple(dataclasses.replace(t, n=int(value)) for t in tasks)
        elif self.parameter == "k":
            tasks = tuple(dataclasses.replace(t, k=int(value)) for t in tasks)
        return eips, tasks


def _sweep_row(spec: SweepSpec, value) -> dict:
    eips, tasks = spec.scenario_at(value)
    game = FederationGame(eips, tasks,
                          literal_utilization_cost=spec.literal_utilization_cost)
    x0 = spec.initial_profile or MixedStrategyProfile.uniform(eips)
    traj = simulate(game, x0, spec.solver, spec.gamma)
    rep = detect_convergence(traj)
    return {
        spec.parameter: value,
        "x1_last": float(rep.equilibrium.blocks[0][-1]),
        "x2_last": float(rep.equilibrium.blocks[1][-1]) if len(eips) > 1 else float("nan"),
        "u1": rep.utilities[0],
        "u2": rep.utilities[1] if len(eips) > 1 else float("nan"),
        "t_adjacency": rep.t_adjacency,
        "t_neighborhood": rep.t_neighborhood,
        "residual": rep.residual,
    }


def run_sweep(spec: SweepSpec) -> list[dict]:
    """One row per grid value, computed in grid order on the calling thread."""
    _check_thread_env()
    return [_sweep_row(spec, v) for v in spec.grid]


def convergence_study(alpha_set: Sequence[float], eips, tasks, solver: SolverConfig,
                      gamma: float, literal_utilization_cost: bool = False,
                      initial_profile: Optional[MixedStrategyProfile] = None) -> list[dict]:
    """Convergence times of the same scenario across fractional orders."""
    game = FederationGame(eips, tasks,
                          literal_utilization_cost=literal_utilization_cost)
    x0 = initial_profile or MixedStrategyProfile.uniform(eips)
    rows = []
    for a in sorted(alpha_set):
        cfg = dataclasses.replace(solver, alpha=a)
        rep = detect_convergence(simulate(game, x0, cfg, gamma))
        rows.append({"alpha": a, "t_adjacency": rep.t_adjacency,
                     "t_neighborhood": rep.t_neighborhood,
                     "x1_last": float(rep.equilibrium.blocks[0][-1]),
                     "residual": rep.residual})
    return rows


def kernel_study(alpha_set: Sequence[float], deltas: Sequence[float],
                 amplitude: float = 1.0) -> list[dict]:
    """Memory-kernel weight per (alpha, delta); one row per delta with a
    column per order.
    """
    kernels = {a: MemoryKernel(a, amplitude) for a in alpha_set}
    rows = []
    for d in deltas:
        row = {"delta": d}
        for a in sorted(alpha_set):
            row[f"alpha_{a}"] = memory_weight(d, kernels[a])
        rows.append(row)
    return rows
