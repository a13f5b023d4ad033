"""Property tests on seeded random small scenarios: one to three
providers with at most 4 workers per cloud, one or two task types.

- Every provider's expected task value at every pure profile matches a
  brute-force enumeration of labelled worker assignment and recovery,
  and the linearity-of-expectation closed form.
- `simulate` keeps every state on the product of simplices, or aborts
  with `FdeAbortError`.
- `cli.main` returns an exit code 0-3 and never raises, on each scenario
  and on copies with one field deleted, mistyped or out of range.
- The config parser accepts an initial-profile block exactly when
  `MixedStrategyProfile` does, on blocks whose sums straddle the
  tolerance.

The draws come from one seeded numpy Generator, so every run checks the
same cases.
"""

import copy
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from cefsim import cli
from cefsim.config import ConfigError, parse_config_dict
from cefsim.evolution import simulate
from cefsim.fractional import FdeAbortError
from cefsim.game import MixedStrategyProfile

SEED = 16
SCENARIOS = 24
STEPS = 50
EDGE_BLOCKS = 2000
BUNDLED = Path(__file__).resolve().parents[1] / "src/cefsim/data/canonical_scenario.json"


def _scenario(rng) -> dict:
    """A random valid config document."""
    eips = []
    for i in range(int(rng.integers(1, 4))):
        clouds, workers = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        eips.append({"index": i + 1, "num_clouds": clouds, "max_workers": workers,
                     "fixed_cost": float(rng.uniform(0, 3000)),
                     "calibration_ratio": float(rng.uniform(0.1, 1.0)),
                     "cpu_cost": float(rng.uniform(0, 1e-4)),
                     # equality included: the all-max share then saturates
                     "capacity": clouds * workers + int(rng.integers(0, 2 * clouds * workers))})
    tasks = []
    for _ in range(int(rng.integers(1, 3))):
        n = int(rng.integers(1, 7))
        tasks.append({"n": n, "k": int(rng.integers(1, n + 1)),
                      "r0": float(rng.uniform(0, 50)), "r1": float(rng.uniform(0, 50)),
                      "r2": float(rng.uniform(0, 20)), "cycles": float(rng.uniform(0, 2e6)),
                      "rate": float(rng.uniform(0.1, 2.0))})
    solver = {"alpha": float(rng.uniform(0.3, 1.9)), "horizon": float(rng.uniform(0.2, 2.0)),
              "steps": STEPS}
    if rng.random() < 0.3:
        solver["memory_truncation"] = int(rng.integers(1, 2 * STEPS))
    if rng.random() < 0.3:
        solver["corrector_iterations"] = int(rng.integers(1, 4))
    initial = None
    if rng.random() < 0.5:
        initial = [rng.dirichlet(np.ones(e["max_workers"] + 1)).tolist() for e in eips]
    return {"eips": eips, "tasks": tasks, "solver": solver,
            "gamma": float(rng.uniform(0.05, 2.0)), "initial_profile": initial,
            "flags": {"utilization_cost_literal": bool(rng.random() < 0.5)}}


DOCS = [_scenario(rng) for rng in [np.random.default_rng(SEED)] for _ in range(SCENARIOS)]


def _closed_form_values(levels, task, eips) -> list[float]:
    """The same values by linearity of expectation: with L = sum(levels)
    >= n, provider i holds n l_i / L assigned and k l_i / L recovered
    workers on average, so its value is r2 + a_i l_i / L with
    a_i = (r0 n - c_i D / k) n + r1 k^2; with L < n the task is not served
    and every value is r2."""
    total = sum(levels)
    if total < task.n:
        return [task.r2] * len(levels)
    return [task.r2 + ((task.r0 * task.n - e.cpu_cost * task.cycles / task.k) * task.n
                       + task.r1 * task.k ** 2) * l / total
            for l, e in zip(levels, eips)]


def _brute_force_values(levels, task, eips) -> list[float]:
    """Fixed reward plus the expected assignment and recovery rewards minus
    the energy cost of every provider, by enumerating the equally likely
    sets of labelled workers: n of the contributed ones, then the first k
    of those to return."""
    owners = [i for i, l in enumerate(levels) for _ in range(l)]
    values = [task.r2] * len(levels)
    assigned = list(itertools.combinations(owners, task.n))
    for picks in assigned:
        recovered = list(itertools.combinations(picks, task.k))
        for i, e in enumerate(eips):
            nt = picks.count(i)
            kt = sum(r.count(i) for r in recovered) / len(recovered)
            term = (task.r0 * task.n * nt - e.cpu_cost * task.cycles / task.k * nt
                    + task.r1 * task.k * kt)
            values[i] += term / len(assigned)
    return values


@pytest.mark.parametrize("case", range(SCENARIOS))
def test_pure_profile_values_match_labelled_enumeration(case):
    cfg = parse_config_dict(DOCS[case])
    game = cfg.game()
    for levels in itertools.product(*[range(e.num_strategies) for e in cfg.eips]):
        x = MixedStrategyProfile.pure(cfg.eips, levels)
        for task in cfg.tasks:
            expected = _brute_force_values(levels, task, cfg.eips)
            closed = _closed_form_values(levels, task, cfg.eips)
            for i, l_i in enumerate(levels):
                # at saturation the idle strategies' costs are 0 * inf
                with np.errstate(invalid="ignore"):
                    payoff = game.pure_payoff(i, levels, task)
                    cost = game.utilization_cost(i, l_i, x)
                if math.isinf(cost):  # a saturated provider: utilization 1
                    assert payoff == -math.inf
                else:
                    assert payoff + cost == pytest.approx(expected[i], rel=0, abs=1e-9)
                    assert payoff + cost == pytest.approx(closed[i], rel=1e-12, abs=0)


@pytest.mark.parametrize("case", range(SCENARIOS))
def test_simulate_stays_on_simplex_or_aborts(case):
    cfg = parse_config_dict(DOCS[case])
    game = cfg.game()
    try:
        with np.errstate(all="ignore"):
            traj = simulate(game, cfg.initial_mixed_profile(), cfg.solver, cfg.gamma)
    except FdeAbortError:
        return
    states = traj.states
    assert states.shape == (STEPS + 1, sum(game.block_sizes))
    assert np.isfinite(states).all() and (states >= 0).all()
    start = 0
    for size in game.block_sizes:
        assert np.abs(states[:, start:start + size].sum(axis=1) - 1.0).max() <= 1e-9
        start += size


def _paths(node, prefix=()):
    """The path of every value in a JSON document, containers included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


MISTYPED = ("x", None, [1], {"a": 1}, True, 2.5, float("inf"), float("nan"))
OUT_OF_RANGE = (-1, 0, -0.5, 2)


def _mutants(doc, rng):
    """Copies of `doc` with one value deleted, mistyped or out of range."""
    paths = list(_paths(doc))
    numeric = [p for p in paths if type(_get(doc, p)) in (int, float)]
    for kind, choices in (("delete", paths), ("mistype", paths), ("range", numeric)):
        path = choices[int(rng.integers(len(choices)))]
        out = copy.deepcopy(doc)
        parent = _get(out, path[:-1])
        if kind == "delete":
            del parent[path[-1]]
        else:
            values = MISTYPED if kind == "mistype" else OUT_OF_RANGE
            parent[path[-1]] = values[int(rng.integers(len(values)))]
        yield f"{kind} {'.'.join(map(str, path))}", out


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


COMMANDS = (["simulate"],
            ["field", "--grid-spec", "0.3:0.4:0.1", "--stride", "25"],
            ["sweep", "--param", "r1", "--grid", "10:20:10"])


@pytest.mark.parametrize("case", range(SCENARIOS))
def test_cli_exit_code_on_random_and_broken_configs(case, tmp_path, capsys):
    rng = np.random.default_rng([SEED, case])
    command, *args = COMMANDS[case % len(COMMANDS)]
    for m, (label, doc) in enumerate([("valid", DOCS[case]), *_mutants(DOCS[case], rng)]):
        path = tmp_path / f"cfg{m}.json"
        path.write_text(json.dumps(doc))
        code = cli.main([command, str(path), *args, "--out-dir", str(tmp_path / f"o{m}")])
        assert code in (0, 1, 2, 3), label
        if label == "valid":
            assert code != 1, capsys.readouterr().err


def _edge_block(rng, size: int) -> list[float]:
    """A Dirichlet(1) block scaled to sum 1 -/+ about 1e-9, where the
    rounding of the sum decides; one in five has an entry of -0.0 or just
    below 0."""
    b = rng.dirichlet(np.ones(size))
    off = rng.choice([-1e-9, 1e-9]) * (1 + rng.uniform(-1e-6, 1e-6))
    b *= (1 + off) / b.sum()
    if rng.random() < 0.2:
        b[rng.integers(size)] = -rng.choice([0.0, 1e-12, 1e-10])
    return b.tolist()


def test_config_accepts_a_block_exactly_when_the_profile_does():
    rng = np.random.default_rng(SEED)
    doc = json.loads(BUNDLED.read_text())
    sizes = [e["max_workers"] + 1 for e in doc["eips"]]
    verdicts = []
    for _ in range(EDGE_BLOCKS):
        blocks = [[1.0 / n] * n for n in sizes]
        i = int(rng.integers(len(sizes)))
        blocks[i] = _edge_block(rng, sizes[i])
        try:
            MixedStrategyProfile([np.array(b) for b in blocks])
            profile_ok = True
        except ValueError:
            profile_ok = False
        doc["initial_profile"] = blocks
        try:
            parse_config_dict(doc)
            config_ok = True
        except ConfigError:
            config_ok = False
        assert config_ok == profile_ok, blocks[i]
        verdicts.append(profile_ok)
    # the draw lands on both sides of the rule
    assert 200 < sum(verdicts) < EDGE_BLOCKS - 200
