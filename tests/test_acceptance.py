"""Acceptance gate: eight end-to-end criteria, each printing one
PASS/FAIL line.  Tolerances are pinned; criteria that the model cannot
meet are asserted faithfully and allowed to fail.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from cefsim.cli import main
from cefsim.evolution import (detect_convergence, direction_field,
                              estimate_lipschitz, simulate, stability_probe,
                              stability_weight)
from cefsim.fractional import SolverConfig, mittag_leffler, solve_fde_ivp, \
    caputo_derivative_estimate
from cefsim.game import (EipConfig, FederationGame, MixedStrategyProfile,
                         TaskSpec, joint_assignment_pmf, recovery_pmf)
from cefsim.config import ScenarioConfig
from cefsim.experiments import run_sweep

GAMMA = 0.42  # bundled-scenario adaptation speed
BUNDLED = Path(__file__).resolve().parents[1] / "src/cefsim/data/canonical_scenario.json"

EIPS = (EipConfig(1, 100, 4, 1800, 1.0, 1e-5, 500),
        EipConfig(2, 120, 8, 2800, 1.0, 1e-5, 1100))
TASK = TaskSpec(6, 4, 30, 30, 10, 1e6, 1.0)


RESULTS: list[str] = []  # echoed in the terminal summary by conftest.py


def _report(n, name, checks):
    """checks: list of (label, ok). Records the one-line verdict, then asserts."""
    ok = all(flag for _, flag in checks)
    RESULTS.append(f"ACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'}")
    for label, flag in checks:
        RESULTS.append(f"    [{'ok' if flag else 'FAIL'}] {label}")
    print("\n" + "\n".join(RESULTS[-len(checks) - 1:]))
    assert ok, f"criterion {n} ({name}) failed: " + \
        "; ".join(label for label, flag in checks if not flag)


# ---------------------------------------------------------------- 1

def test_criterion_1_probability_oracles():
    t0 = time.time()
    worst = 0.0
    for l1, l2 in itertools.product(range(7), repeat=2):
        total = l1 + l2
        owners = [0] * l1 + [1] * l2
        for n in range(1, min(total, 12) + 1):
            counts = {}
            for subset in itertools.combinations(range(total), n):
                key = sum(1 for w in subset if owners[w] == 0)
                counts[key] = counts.get(key, 0) + 1
            denom = math.comb(total, n)
            pmf = dict((c[0], p) for c, p in joint_assignment_pmf((l1, l2), n))
            s = sum(pmf.values())
            worst = max(worst, abs(s - 1.0))
            for key, cnt in counts.items():
                worst = max(worst, abs(pmf[key] - cnt / denom))
            # recovery over every achievable placement
            for a in range(max(0, n - l2), min(l1, n) + 1):
                for k in range(1, n + 1):
                    rcounts = {}
                    rowners = [0] * a + [1] * (n - a)
                    for subset in itertools.combinations(range(n), k):
                        key = sum(1 for w in subset if rowners[w] == 0)
                        rcounts[key] = rcounts.get(key, 0) + 1
                    rdenom = math.comb(n, k)
                    rpmf = dict((c[0], p) for c, p in recovery_pmf((a, n - a), k))
                    worst = max(worst, abs(sum(rpmf.values()) - 1.0))
                    for key, cnt in rcounts.items():
                        worst = max(worst, abs(rpmf[key] - cnt / rdenom))
    elapsed = time.time() - t0
    _report(1, "probability oracle equivalence", [
        (f"max deviation from labeled enumeration {worst:.2e} < 1e-12", worst < 1e-12),
        (f"runtime {elapsed:.1f}s < 10s", elapsed < 10),
    ])


# ---------------------------------------------------------------- 2

def test_criterion_2_payoff_closed_form():
    # providers widened so every l up to 6 is a legal strategy
    eips = (EipConfig(1, 100, 6, 1800, 1.0, 1e-5, 700),
            EipConfig(2, 120, 6, 2800, 1.0, 1e-5, 1100))
    worst = 0.0
    for l1, l2 in itertools.product(range(7), repeat=2):
        total = l1 + l2
        for n in range(1, min(total, 12) + 1):
            for k in range(1, n + 1):
                task = TaskSpec(n, k, 30, 30, 10, 1e6, 1.0)
                game = FederationGame(eips, [task])
                x = MixedStrategyProfile.pure(eips, [l1, l2])
                for i, l_i in ((0, l1), (1, l2)):
                    got = game.pure_payoff(i, l_i, (l1, l2), x, task)
                    c2 = game.utilization_cost(i, l_i, x)
                    want = (10 + (30 * n - 1e-5 * 1e6 / k) * (n * (l1, l2)[i] / total)
                            + 30 * k * (k * (l1, l2)[i] / total) - c2)
                    worst = max(worst, abs(got - want))
    # the canonical instance under the cost branch that divides by the
    # provider's cloud count
    game = FederationGame(EIPS, [TASK])
    x = MixedStrategyProfile.pure(EIPS, [4, 8])
    inst = game.pure_payoff(0, 4, (4, 8), x, TASK)
    _report(2, "payoff closed-form oracle", [
        (f"max closed-form deviation {worst:.2e} < 1e-9", worst < 1e-9),
        (f"canonical instance payoff {inst:.6f} = 453 +/- 1e-9",
         abs(inst - 453.0) < 1e-9),
    ])


# ---------------------------------------------------------------- 3

def test_criterion_3_fractional_solver_oracle():
    t0 = time.time()
    checks = []
    for a in (0.8, 1.0, 1.2):
        sol = solve_fde_ivp(lambda y: -y, [1.0], SolverConfig(alpha=a, steps=10_000))
        err = abs(sol.states[-1, 0] - mittag_leffler(a, -1.0))
        checks.append((f"alpha={a}: |x(1) - E_a(-1)| = {err:.2e} < 1e-3", err < 1e-3))
    const = np.max(np.abs(caputo_derivative_estimate(np.full(101, 3.5), 0.7, 0.01)))
    checks.append((f"Caputo of constant {const:.2e} < 1e-12", const < 1e-12))
    # order-one run against an independent classical predictor-corrector
    n, h, x = 10_000, 1e-4, 1.0
    for _ in range(n):
        x = x + h / 2 * (-x - (x - h * x))
    sol = solve_fde_ivp(lambda y: -y, [1.0], SolverConfig(alpha=1.0, steps=n))
    dev = abs(sol.states[-1, 0] - x)
    checks.append((f"alpha=1 vs classical scheme {dev:.2e} < 1e-6", dev < 1e-6))
    elapsed = time.time() - t0
    checks.append((f"runtime {elapsed:.1f}s < 30s", elapsed < 30))
    _report(3, "fractional-solver oracle", checks)


# ------------------------------------------------- shared heavy runs (4, 5)

@pytest.fixture(scope="module")
def alpha_reports():
    game = FederationGame(EIPS, [TASK], literal_utilization_cost=True)
    x0 = MixedStrategyProfile.uniform(EIPS)
    out = {}
    for a in (0.5, 0.65, 0.8, 1.0, 1.2, 1.4):
        traj = simulate(game, x0, SolverConfig(alpha=a, horizon=1.0, steps=10_000),
                        GAMMA)
        out[a] = detect_convergence(traj)
    return out


def test_criterion_4_equilibrium_reproduction(alpha_reports):
    checks = []
    for a in (0.65, 0.8, 1.0, 1.2, 1.4):
        rep = alpha_reports[a]
        x14 = float(rep.equilibrium.blocks[0][4])
        checks.append((f"alpha={a}: adjacency convergence within 10^4 steps "
                       f"(t_adj={rep.t_adjacency})", rep.t_adjacency is not None))
        checks.append((f"alpha={a}: terminal x_1_4 = {x14:.4f} in 0.37 +/- 0.05",
                       abs(x14 - 0.37) <= 0.05))
    checks.append(("alpha=0.5: adjacency convergence fails at 10^4 steps",
                   alpha_reports[0.5].t_adjacency is None))
    _report(4, "equilibrium reproduction", checks)


def test_criterion_5_convergence_time_ordering(alpha_reports):
    t_nbr = [alpha_reports[a].t_neighborhood for a in (0.65, 0.8, 1.0, 1.2, 1.4)]
    t_adj = [alpha_reports[a].t_adjacency for a in (0.8, 1.0, 1.2, 1.4)]
    nbr_ok = (all(t is not None for t in t_nbr)
              and all(a < b for a, b in zip(t_nbr, t_nbr[1:])))
    adj_ok = (all(t is not None for t in t_adj)
              and all(a < b for a, b in zip(t_adj, t_adj[1:])))
    pen = alpha_reports[0.65].t_adjacency
    pen_ok = (pen is not None and t_adj[0] is not None and pen > t_adj[0])
    _report(5, "convergence-time ordering", [
        (f"t_neighborhood strictly increasing over alpha: {t_nbr}", nbr_ok),
        (f"t_adjacency increasing over alpha 0.8..1.4: {t_adj}", adj_ok),
        (f"t_adjacency(0.65)={pen} > t_adjacency(0.8)={t_adj[0]}", pen_ok),
    ])


# ---------------------------------------------------------------- 6

def test_criterion_6_stability():
    game = FederationGame(EIPS, [TASK], literal_utilization_cost=True)
    values = [0.2, 0.3, 0.4, 0.5, 0.6]
    grid = []
    for v1, v2 in itertools.product(values, repeat=2):
        b1 = np.full(5, (1 - v1) / 4); b1[-1] = v1
        b2 = np.full(9, (1 - v2) / 8); b2[-1] = v2
        grid.append(MixedStrategyProfile([b1, b2]))

    checks = []
    for a in (0.8, 1.0, 1.3):
        cfg = SolverConfig(alpha=a, horizon=1.0, steps=3000)
        terminals = np.array([p[-1] for p in direction_field(game, grid, cfg, GAMMA)])
        center = terminals.mean(axis=0)
        spread = float(np.max(np.abs(terminals - center)))
        checks.append((f"alpha={a}: all 25 trajectories within 0.01 of their "
                       f"common point (spread {spread:.4f})", spread < 0.01))

    x_star = simulate(game, MixedStrategyProfile.uniform(EIPS),
                      SolverConfig(alpha=1.0, horizon=2.0, steps=10_000),
                      GAMMA).terminal
    k_hat = estimate_lipschitz(game, GAMMA, 1000)
    for a in (0.8, 1.0, 1.3):
        n_w = stability_weight(k_hat, a, horizon=1.0)
        checks.append((f"alpha={a}: contraction condition L*K={k_hat:.1f} < "
                       f"N^alpha={n_w ** a:.1f}", 1.0 * k_hat < n_w ** a))
        probes = stability_probe(game, x_star, 0.05,
                                 SolverConfig(alpha=a, horizon=1.0, steps=3000),
                                 GAMMA, n_w)
        checks.append((f"alpha={a}: weighted-sup inequality on all "
                       f"{len(probes)} probes at delta=0.05",
                       all(p.passed for p in probes)))
    _report(6, "uniform stability", checks)


# ---------------------------------------------------------------- 7

def _trend(values, direction, tol=1e-3):
    """Monotone along `direction` (+1/-1) with at most one adjacent
    violation of magnitude <= tol."""
    steps = [direction * (b - a) for a, b in zip(values, values[1:])]
    bad = [s for s in steps if s < 0]
    return len(bad) == 0 or (len(bad) == 1 and -bad[0] <= tol)


def test_criterion_7_sweep_trends():
    sweep_solver = SolverConfig(alpha=1.0, horizon=1.0, steps=10_000)
    gamma = 3.0  # equilibria are speed-invariant; the faster classical run
    #              equilibrates fully so trends are not polluted by tails
    e1_wide = EipConfig(1, 100, 4, 1800, 1.0, 1e-5, 800)
    task12 = TaskSpec(12, 4, 30, 30, 10, 1e6, 1.0)

    def sweep(param, grid, eips=EIPS, tasks=(TASK,)):
        return run_sweep(ScenarioConfig(eips, tasks, sweep_solver, gamma,
                                        utilization_cost_literal=True), param, tuple(grid))

    checks = []
    rows = sweep("W1", range(450, 901, 50))
    checks.append(("W1 up => x1_last up",
                   _trend([r["x1_last"] for r in rows], +1)))
    checks.append(("W1 up => u1 up", _trend([r["u1"] for r in rows], +1)))
    checks.append(("W1 up => u2 up", _trend([r["u2"] for r in rows], +1)))

    rows = sweep("E1", range(100, 201, 20), eips=(e1_wide, EIPS[1]))
    checks.append(("E1 up => x1_last down",
                   _trend([r["x1_last"] for r in rows], -1)))
    checks.append(("E1 up => u1 down", _trend([r["u1"] for r in rows], -1)))
    checks.append(("E1 up => x2_last up",
                   _trend([r["x2_last"] for r in rows], +1)))

    rows = sweep("r1", range(10, 61, 10))
    for key in ("x1_last", "x2_last", "u1", "u2"):
        checks.append((f"r1 up => {key} up", _trend([r[key] for r in rows], +1)))
    du1 = rows[-1]["u1"] - rows[-2]["u1"]
    du2 = rows[-1]["u2"] - rows[-2]["u2"]
    checks.append((f"top-of-grid du2={du2:.2f} >= du1={du1:.2f}", du2 >= du1))

    rows = sweep("n", range(4, 15))
    x1 = [r["x1_last"] for r in rows]
    checks.append((f"n up to 12 => x1_last up (got {[round(v, 3) for v in x1[:9]]})",
                   _trend(x1[:9], +1)))
    checks.append((f"n beyond 12 => x1_last down (got {[round(v, 3) for v in x1[8:]]})",
                   _trend(x1[8:], -1)))

    rows = sweep("k", range(4, 13), tasks=(task12,))
    checks.append(("k up at n=12 => x1_last nondecreasing",
                   _trend([r["x1_last"] for r in rows], +1)))
    checks.append(("k up at n=12 => x2_last nondecreasing",
                   _trend([r["x2_last"] for r in rows], +1)))
    _report(7, "sweep trends", checks)


# ---------------------------------------------------------------- 8

def test_criterion_8_determinism(tmp_path, monkeypatch):
    doc = json.loads(BUNDLED.read_text())
    doc["solver"]["steps"] = 800
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))

    for d in ("r1", "r2"):
        assert main(["simulate", str(cfg), "--out-dir", str(tmp_path / d)]) == 0
    traj_same = ((tmp_path / "r1/trajectory.csv").read_bytes()
                 == (tmp_path / "r2/trajectory.csv").read_bytes())
    rep_same = ((tmp_path / "r1/report.json").read_bytes()
                == (tmp_path / "r2/report.json").read_bytes())

    hashes = set()
    for d, threads in (("s1", "1"), ("s2", "4")):
        monkeypatch.setenv("CEF_THREADS", threads)
        assert main(["sweep", str(cfg), "--param", "r1", "--grid", "10:40:10",
                     "--out-dir", str(tmp_path / d)]) == 0
        hashes.add((tmp_path / d / "sweep.csv").read_bytes())
    _report(8, "determinism", [
        ("trajectory.csv byte-identical across two runs", traj_same),
        ("report.json byte-identical across two runs", rep_same),
        ("sweep.csv byte-identical across thread counts", len(hashes) == 1),
    ])
