import dataclasses
import threading

import pytest

from cefsim import experiments
from cefsim.config import ConfigError, ScenarioConfig
from cefsim.evolution import detect_convergence, simulate
from cefsim.experiments import SweepSpec, kernel_study, run_sweep, scenario_at
from cefsim.fractional import SolverConfig
from cefsim.game import EipConfig, TaskSpec

EIPS = (EipConfig(1, 100, 4, 1800, 1.0, 1e-5, 500),
        EipConfig(2, 120, 8, 2800, 1.0, 1e-5, 1100))
TASKS = (TaskSpec(6, 4, 30, 30, 10, 1e6, 1.0),)
FAST = SolverConfig(alpha=1.0, horizon=1.0, steps=1500)
BASE = ScenarioConfig(EIPS, TASKS, FAST, 0.42, utilization_cost_literal=True)


def _spec(param, grid, base=BASE):
    return SweepSpec(param, tuple(grid), base)


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown sweep parameter"):
        _spec("W2", (1, 2))
    with pytest.raises(ValueError, match="nonempty"):
        _spec("r1", ())
    with pytest.raises(ValueError, match="monotone"):
        _spec("r1", (10, 30, 20))
    # every grid value that breaks a scenario invariant is named up front
    with pytest.raises(ConfigError) as exc:
        _spec("n", (4.5, 5, 6.0))
    assert [p.split(":")[0] for p in exc.value.problems] == ["n=4.5", "n=6.0"]
    with pytest.raises(ConfigError, match=r"alpha=2.5: alpha must be in \(0, 2\)"):
        _spec("alpha", (0.5, 2.5))


def test_scenario_substitution():
    sc = scenario_at(BASE, "W1", 700)
    assert sc.eips[0].capacity == 700
    assert sc.eips[1] == EIPS[1]
    assert dataclasses.replace(sc, eips=EIPS) == BASE
    assert scenario_at(BASE, "k", 3).tasks[0].k == 3
    sc = scenario_at(BASE, "alpha", 0.6)
    assert sc.solver == dataclasses.replace(FAST, alpha=0.6)
    assert dataclasses.replace(sc, solver=FAST) == BASE


def test_sweep_rows_in_grid_order():
    rows = run_sweep(_spec("r1", (20, 40)))
    assert [r["r1"] for r in rows] == [20, 40]
    assert all(0 <= r["x1_last"] <= 1 for r in rows)
    assert rows[0]["u2"] < rows[1]["u2"]


def test_sweep_rows_run_on_calling_thread(monkeypatch):
    # every row runs in grid order on the caller
    seen, row = [], experiments._sweep_row
    def recording_row(spec, value):
        seen.append((value, threading.get_ident()))
        return row(spec, value)
    monkeypatch.setattr(experiments, "_sweep_row", recording_row)
    spec = _spec("r1", (20, 30, 40),
                 dataclasses.replace(BASE, solver=dataclasses.replace(FAST, steps=100)))
    rows = run_sweep(spec)
    assert [r["r1"] for r in rows] == [20, 30, 40]
    assert seen == [(v, threading.get_ident()) for v in (20, 30, 40)]


def test_sweep_deterministic():
    spec = _spec("W1", (500, 600))
    assert run_sweep(spec) == run_sweep(spec)


def test_sweep_rows_near_equilibrium():
    for row in run_sweep(_spec("r1", (30,))):
        assert row["residual"] <= 10 * 1e-4 / FAST.h


def test_alpha_sweep_matches_direct_runs():
    # the alpha sweep replaces the old convergence study; each row is a
    # plain simulate run of the base scenario at that order, bit for bit
    grid = (1.0, 0.8)
    rows = run_sweep(_spec("alpha", grid))
    assert [r["alpha"] for r in rows] == list(grid)
    for row, a in zip(rows, grid):
        rep = detect_convergence(simulate(BASE.game(), BASE.initial_mixed_profile(),
                                          dataclasses.replace(FAST, alpha=a), 0.42))
        assert row == {"alpha": a, "x1_last": rep.equilibrium.blocks[0][-1],
                       "x2_last": rep.equilibrium.blocks[1][-1],
                       "u1": rep.utilities[0], "u2": rep.utilities[1],
                       "t_adjacency": rep.t_adjacency,
                       "t_neighborhood": rep.t_neighborhood, "residual": rep.residual}


def test_kernel_study_table():
    deltas = [0.05 * i for i in range(1, 11)]
    rows = kernel_study([0.65, 0.8, 1.2], deltas)
    assert len(rows) == 10
    assert all(v > 0 for row in rows for v in row.values())
    # recent-past amplification of the lower subdiffusive order
    assert rows[0]["alpha_0.65"] > rows[0]["alpha_0.8"]
    # superdiffusive curve is much flatter across the grid
    spread = lambda key: max(r[key] for r in rows) - min(r[key] for r in rows)
    assert spread("alpha_1.2") < spread("alpha_0.65")
