"""Batch studies over the federation game: parameter sweeps (the
fractional order among them) and the memory-kernel study.  All outputs
are deterministic tables (lists of dicts in fixed row order), computed
in order on the calling thread.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from ._fields import field_types
from .config import ConfigError, ScenarioConfig
from .evolution import detect_convergence, simulate
from .fractional import SolverConfig, memory_weight
from .game import EipConfig

SWEEPABLE = ("W1", "E1", "r1", "n", "k", "alpha")
# sweep names of provider 1's fields
_ALIASES = {"W1": "capacity", "E1": "num_clouds"}


def _field_name(parameter: str) -> str:
    """The field that the sweep parameter `parameter` sets."""
    if parameter not in SWEEPABLE:
        raise ValueError(f"unknown sweep parameter {parameter!r}; choose from {SWEEPABLE}")
    return _ALIASES.get(parameter, parameter)


def scenario_at(base: ScenarioConfig, parameter: str, value) -> ScenarioConfig:
    """`base` with the field `parameter` (one of SWEEPABLE) set to `value`,
    coerced to float when declared float: the solver's field, provider 1's
    (`W1`, `E1`) or every task type's, whichever record declares it."""
    name = _field_name(parameter)

    def put(record):
        kind, _ = field_types(type(record))[name]
        return dataclasses.replace(record, **{name: float(value) if kind is float else value})

    if name in field_types(SolverConfig):
        return dataclasses.replace(base, solver=put(base.solver))
    if name in field_types(EipConfig):
        return dataclasses.replace(base, eips=(put(base.eips[0]),) + base.eips[1:])
    return dataclasses.replace(base, tasks=tuple(map(put, base.tasks)))


def _sweep_row(parameter: str, value, sc: ScenarioConfig) -> dict:
    rep = detect_convergence(simulate(sc.game(), sc.initial_mixed_profile(),
                                      sc.solver, sc.gamma))
    # providers 1 and 2, where they exist: perfbench pins the three-provider header
    shown = range(min(2, len(sc.eips)))
    return {
        parameter: value,
        **{f"x{i + 1}_last": float(rep.equilibrium.blocks[i][-1]) for i in shown},
        **{f"u{i + 1}": rep.utilities[i] for i in shown},
        "t_adjacency": rep.t_adjacency,
        "t_neighborhood": rep.t_neighborhood,
        "residual": rep.residual,
    }


def run_sweep(base: ScenarioConfig, parameter: str, grid: Sequence) -> list[dict]:
    """One row per value of the nonempty, strictly monotone `grid`: the run
    of `scenario_at(base, parameter, value)`.  Every grid scenario is built
    once, and a ConfigError names each invalid one before any row runs.
    Rows run in grid order on the calling thread."""
    _field_name(parameter)
    if len(grid) == 0:
        raise ValueError("sweep grid must be nonempty")
    diffs = [b - a for a, b in zip(grid, grid[1:])]
    if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
        raise ValueError("sweep grid must be strictly monotone")
    scenarios, problems = [], []
    for v in grid:
        try:
            scenarios.append(scenario_at(base, parameter, v))
        except ValueError as exc:
            problems.append(f"{parameter}={v}: {exc}")
    if problems:
        raise ConfigError(problems)
    return [_sweep_row(parameter, v, sc) for v, sc in zip(grid, scenarios)]


def kernel_study(alpha_set: Sequence[float], deltas: Sequence[float]) -> list[dict]:
    """Memory-kernel weight per (alpha, delta); one row per delta with a
    column per order, so an order given twice (as floats) is rejected.
    """
    orders = sorted(alpha_set)
    for a, b in zip(orders, orders[1:]):
        if a == b:
            raise ValueError(f"kernel order {a} is given more than once")
    rows = []
    for d in deltas:
        row = {"delta": d}
        for a in orders:
            row[f"alpha_{a}"] = memory_weight(d, a)
        rows.append(row)
    return rows
