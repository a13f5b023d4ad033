import dataclasses
import threading

import numpy as np
import pytest

from cefsim import experiments
from cefsim.evolution import detect_convergence, simulate
from cefsim.experiments import (SweepSpec, convergence_study, kernel_study,
                                run_sweep)
from cefsim.fractional import SolverConfig
from cefsim.game import EipConfig, FederationGame, MixedStrategyProfile, TaskSpec

EIPS = (EipConfig(1, 100, 4, 1800, 1.0, 1e-5, 500),
        EipConfig(2, 120, 8, 2800, 1.0, 1e-5, 1100))
TASKS = (TaskSpec(6, 4, 30, 30, 10, 1e6, 1.0),)
FAST = SolverConfig(alpha=1.0, horizon=1.0, steps=1500)


def _spec(param, grid, **kw):
    return SweepSpec(parameter=param, grid=tuple(grid), eips=EIPS, tasks=TASKS,
                     solver=FAST, gamma=0.42, literal_utilization_cost=True, **kw)


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown sweep parameter"):
        _spec("W2", (1, 2))
    with pytest.raises(ValueError, match="nonempty"):
        _spec("r1", ())
    with pytest.raises(ValueError, match="monotone"):
        _spec("r1", (10, 30, 20))


def test_scenario_substitution():
    spec = _spec("W1", (600, 700))
    eips, tasks = spec.scenario_at(700)
    assert eips[0].capacity == 700
    assert eips[1] == EIPS[1]
    assert tasks == TASKS
    spec = _spec("k", (3, 4))
    _, tasks = spec.scenario_at(3)
    assert tasks[0].k == 3


def test_sweep_rows_in_grid_order(monkeypatch):
    monkeypatch.setenv("CEF_THREADS", "1")
    rows = run_sweep(_spec("r1", (20, 40)))
    assert [r["r1"] for r in rows] == [20, 40]
    assert all(0 <= r["x1_last"] <= 1 for r in rows)
    assert rows[0]["u2"] < rows[1]["u2"]


def test_sweep_thread_invariance(monkeypatch):
    spec = _spec("r1", (20, 30, 40))
    monkeypatch.setenv("CEF_THREADS", "1")
    serial = run_sweep(spec)
    monkeypatch.setenv("CEF_THREADS", "3")
    threaded = run_sweep(spec)
    assert serial == threaded


def test_sweep_rows_run_on_calling_thread(monkeypatch):
    # CEF_THREADS is accepted, but every row runs in grid order on the caller
    seen, row = [], experiments._sweep_row
    def recording_row(spec, value):
        seen.append((value, threading.get_ident()))
        return row(spec, value)
    monkeypatch.setattr(experiments, "_sweep_row", recording_row)
    monkeypatch.setenv("CEF_THREADS", "3")
    spec = dataclasses.replace(_spec("r1", (20, 30, 40)),
                               solver=dataclasses.replace(FAST, steps=100))
    rows = run_sweep(spec)
    assert [r["r1"] for r in rows] == [20, 30, 40]
    assert seen == [(v, threading.get_ident()) for v in (20, 30, 40)]


def test_sweep_deterministic(monkeypatch):
    monkeypatch.setenv("CEF_THREADS", "0")  # auto
    spec = _spec("W1", (500, 600))
    assert run_sweep(spec) == run_sweep(spec)


def test_sweep_rows_near_equilibrium(monkeypatch):
    monkeypatch.setenv("CEF_THREADS", "1")
    for row in run_sweep(_spec("r1", (30,))):
        assert row["residual"] <= 10 * 1e-4 / FAST.h


def test_convergence_study_sorted_and_matches_direct_run():
    rows = convergence_study([1.0, 0.8], EIPS, TASKS, FAST, 0.42,
                             literal_utilization_cost=True)
    assert [r["alpha"] for r in rows] == [0.8, 1.0]
    game = FederationGame(EIPS, TASKS, literal_utilization_cost=True)
    direct = detect_convergence(simulate(game, MixedStrategyProfile.uniform(EIPS),
                                         FAST, 0.42))
    row = rows[1]
    assert row["t_adjacency"] == pytest.approx(direct.t_adjacency, abs=1e-6)
    assert row["x1_last"] == pytest.approx(direct.equilibrium.blocks[0][-1], abs=1e-6)


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


def test_bad_thread_env(monkeypatch):
    monkeypatch.setenv("CEF_THREADS", "many")
    with pytest.raises(ValueError, match="CEF_THREADS"):
        run_sweep(_spec("r1", (30,)))
