"""Batch studies over the federation game: parameter sweeps (the
fractional order among them) and the memory-kernel study.  All outputs
are deterministic tables (lists of dicts in fixed row order), computed
in order on the calling thread.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

from .config import ConfigError, ScenarioConfig
from .evolution import detect_convergence, simulate
from .fractional import memory_weight

SWEEPABLE = ("W1", "E1", "r1", "n", "k", "alpha")


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep over an otherwise fixed base scenario."""

    parameter: str                    # one of SWEEPABLE
    grid: tuple
    base: ScenarioConfig

    def __post_init__(self):
        if self.parameter not in SWEEPABLE:
            raise ValueError(f"unknown sweep parameter {self.parameter!r}; "
                             f"choose from {SWEEPABLE}")
        if len(self.grid) == 0:
            raise ValueError("sweep grid must be nonempty")
        diffs = [b - a for a, b in zip(self.grid, self.grid[1:])]
        if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
            raise ValueError("sweep grid must be strictly monotone")
        # each grid scenario must satisfy the config invariants up front
        problems = []
        for v in self.grid:
            try:
                self.scenario_at(v)
            except ValueError as exc:
                problems.append(f"{self.parameter}={v}: {exc}")
        if problems:
            raise ConfigError(problems)

    def scenario_at(self, value) -> ScenarioConfig:
        """The base scenario with the swept parameter set to `value`; W1
        and E1 are provider 1's capacity and cloud count, r1, n and k
        apply to every task type, and alpha is the fractional order."""
        base, p = self.base, self.parameter
        if p == "alpha":
            return dataclasses.replace(
                base, solver=dataclasses.replace(base.solver, alpha=float(value)))
        if p in ("W1", "E1"):
            first = dataclasses.replace(
                base.eips[0], **{"capacity" if p == "W1" else "num_clouds": value})
            return dataclasses.replace(base, eips=(first,) + base.eips[1:])
        value = float(value) if p == "r1" else value
        return dataclasses.replace(
            base, tasks=tuple(dataclasses.replace(t, **{p: value}) for t in base.tasks))


def _sweep_row(spec: SweepSpec, value) -> dict:
    sc = spec.scenario_at(value)
    rep = detect_convergence(simulate(sc.game(), sc.initial_mixed_profile(),
                                      sc.solver, sc.gamma))
    return {
        spec.parameter: value,
        "x1_last": float(rep.equilibrium.blocks[0][-1]),
        "x2_last": float(rep.equilibrium.blocks[1][-1]) if len(sc.eips) > 1 else float("nan"),
        "u1": rep.utilities[0],
        "u2": rep.utilities[1] if len(sc.eips) > 1 else float("nan"),
        "t_adjacency": rep.t_adjacency,
        "t_neighborhood": rep.t_neighborhood,
        "residual": rep.residual,
    }


def run_sweep(spec: SweepSpec) -> list[dict]:
    """One row per grid value, computed in grid order on the calling thread."""
    return [_sweep_row(spec, v) for v in spec.grid]


def kernel_study(alpha_set: Sequence[float], deltas: Sequence[float]) -> list[dict]:
    """Memory-kernel weight per (alpha, delta); one row per delta with a
    column per order.
    """
    rows = []
    for d in deltas:
        row = {"delta": d}
        for a in sorted(alpha_set):
            row[f"alpha_{a}"] = memory_weight(d, a)
        rows.append(row)
    return rows
