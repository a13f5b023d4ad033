import itertools
import math
import re

import numpy as np
import pytest

from cefsim.game import (EipConfig, FederationGame, MixedStrategyProfile,
                         TaskSpec, _amortized_cost, block_slices,
                         joint_assignment_pmf, recovery_pmf)


@pytest.fixture
def eips():
    return (EipConfig(1, 100, 4, 1800, 1.0, 1e-5, 500),
            EipConfig(2, 120, 8, 2800, 1.0, 1e-5, 1100))


@pytest.fixture
def task():
    return TaskSpec(6, 4, 30, 30, 10, 1e6, 1.0)


@pytest.fixture
def game(eips, task):
    return FederationGame(eips, [task])


# ---------------------------------------------------------------- types

def test_eip_invariants_rejected():
    with pytest.raises(ValueError, match="capacity"):
        EipConfig(1, 100, 4, 1800, 1.0, 1e-5, 300)
    with pytest.raises(ValueError, match="calibration_ratio"):
        EipConfig(1, 100, 4, 1800, 1.5, 1e-5, 500)
    with pytest.raises(ValueError, match="num_clouds"):
        EipConfig(1, 0, 4, 1800, 1.0, 1e-5, 500)


def test_task_invariants_rejected():
    with pytest.raises(ValueError, match="k"):
        TaskSpec(4, 6, 30, 30, 10, 1e6, 1.0)
    with pytest.raises(ValueError, match="r0"):
        TaskSpec(6, 4, -1, 30, 10, 1e6, 1.0)


def test_profile_validation(eips):
    with pytest.raises(ValueError, match="sum"):
        MixedStrategyProfile([np.array([0.5, 0.4]), np.full(9, 1 / 9)])
    with pytest.raises(ValueError):
        MixedStrategyProfile([np.array([-0.1, 1.1]), np.full(9, 1 / 9)])
    x = MixedStrategyProfile.uniform(eips)
    assert x.block_sizes == (5, 9)
    assert np.allclose(x.flat.sum(), 2.0)
    y = MixedStrategyProfile.from_flat((5, 9), x.flat)
    assert all(np.array_equal(a, b) for a, b in zip(x.blocks, y.blocks))
    for flat in (x.flat[:-1], np.append(x.flat, 0.0)):
        with pytest.raises(ValueError, match="does not match block sizes"):
            MixedStrategyProfile.from_flat((5, 9), flat)


def test_one_block_layout(eips):
    # the game, its profiles and `block_slices` share one flat layout
    assert block_slices((5, 9, 8)) == (slice(0, 5), slice(5, 14), slice(14, 22))
    assert block_slices(()) == ()
    game = FederationGame(eips, [TaskSpec(6, 4, 30, 30, 10, 1e6, 1.0)])
    x = MixedStrategyProfile.uniform(eips)
    assert game.slices == block_slices(x.block_sizes) == block_slices((5, 9))
    assert all(np.array_equal(x.flat[sl], b) for sl, b in zip(game.slices, x.blocks))


def test_readers_reject_other_layout(game):
    # blocks (9, 5) have the game's total length but not its (5, 9) layout
    x = MixedStrategyProfile([np.full(9, 1 / 9), np.full(5, 0.2)])
    msg = re.escape("profile blocks (9, 5) do not match the game's blocks (5, 9)")
    for read in (lambda: game.payoff_vector(0, x), lambda: game.average_payoff(1, x),
                 lambda: game.utilization(0, x), lambda: game.utilization_cost(0, 1, x)):
        with pytest.raises(ValueError, match=msg):
            read()


# each reader called with index `k` as its provider, or as a strategy of provider 0
INDEXED_READERS = {
    "utilization": lambda g, k, x, t: g.utilization(k, x),
    "utilization_cost": lambda g, k, x, t: g.utilization_cost(k, 0, x),
    "payoff_vector": lambda g, k, x, t: g.payoff_vector(k, x),
    "average_payoff": lambda g, k, x, t: g.average_payoff(k, x),
    "pure_payoff": lambda g, k, x, t: g.pure_payoff(k, (4, 8), t),
    "strategy": lambda g, k, x, t: g.utilization_cost(0, k, x),
}


@pytest.mark.parametrize("reader, k, msg", [
    *((r, i, f"provider {i} outside 0..1") for r in list(INDEXED_READERS)[:5] for i in (-1, 2)),
    *(("strategy", j, f"strategy {j} of provider 0 outside 0..4") for j in (-1, 5)),
])
def test_readers_reject_index_out_of_range(game, eips, task, reader, k, msg):
    # Python indexing would let -1 answer for the last provider or strategy,
    # and let an index past the end escape as a bare IndexError
    with pytest.raises(ValueError, match=re.escape(msg)):
        INDEXED_READERS[reader](game, k, MixedStrategyProfile.uniform(eips), task)


# each count reader called with `k` as the first provider's count
COUNT_READERS = {
    "pure": lambda eips, k: MixedStrategyProfile.pure(eips, [k, 8]),
    "joint_assignment_pmf": lambda eips, k: joint_assignment_pmf((k, 8), 6),
    "recovery_pmf": lambda eips, k: recovery_pmf((k, 3), 4),
}


@pytest.mark.parametrize("bad", [1.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("reader", [*INDEXED_READERS, *COUNT_READERS])
def test_indices_and_counts_must_be_integers(game, eips, task, reader, bad):
    # a float or a bool used to pass the range checks and then answer for
    # the integer, be truncated by int(), or escape as a bare IndexError
    # or TypeError
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        if reader in COUNT_READERS:
            COUNT_READERS[reader](eips, bad)
        else:
            INDEXED_READERS[reader](game, bad, MixedStrategyProfile.uniform(eips), task)


@pytest.mark.parametrize("blocks, bad", [
    ([[np.nan, 1.0], [0.5, 0.5]], 0),
    ([[0.0, 1.0], [0.5, np.nan]], 1),
    ([[0.5, 0.5], [np.nan, np.nan]], 1),
    ([[np.inf, 1.0], [0.5, 0.5]], 0),
    ([[0.5, 0.5], [1.0, -np.inf]], 1),
], ids=["nan_first_block", "nan_second_block", "all_nan", "inf", "minus_inf"])
def test_profile_rejects_non_finite_entries(blocks, bad):
    with pytest.raises(ValueError, match=f"block {bad} entries must be finite"):
        MixedStrategyProfile([np.array(b) for b in blocks])


def test_profile_entries_must_not_be_negative():
    # -0.0 is not below 0; any negative entry is, however small
    assert MixedStrategyProfile([[-0.0, 1.0]]).blocks[0][0] == 0.0
    with pytest.raises(ValueError, match=r"block 0 entries must lie in \[0, 1\]"):
        MixedStrategyProfile([[-1e-12, 1.0 + 1e-12]])


# ------------------------------------------------------------ assignment

def test_assignment_trivial_cases():
    assert joint_assignment_pmf((2, 0), 2) == [((2, 0), 1.0)]
    assert joint_assignment_pmf((4, 8), 13) == []
    with pytest.raises(ValueError, match=">= 0"):
        joint_assignment_pmf((3, -1), 2)


def test_assignment_marginal_oracle():
    pmf = joint_assignment_pmf((4, 8), 6)
    marginal = sum(p for combo, p in pmf if combo[0] == 2)
    assert marginal == pytest.approx(5 / 11, abs=1e-15)
    assert sum(p for _, p in pmf) == pytest.approx(1.0, abs=1e-12)


def test_assignment_matches_labeled_enumeration():
    # both pmfs split n labelled draws from the pools `levels`
    cases = itertools.product((joint_assignment_pmf, recovery_pmf),
                              (((3, 4), 5), ((2, 3, 4), 5)))
    for pmf, (levels, n) in cases:
        counts = {}
        owners = [i for i, l in enumerate(levels) for _ in range(l)]
        for subset in itertools.combinations(range(sum(levels)), n):
            key = tuple(sum(owners[w] == i for w in subset) for i in range(len(levels)))
            counts[key] = counts.get(key, 0) + 1
        total = math.comb(sum(levels), n)
        got = pmf(levels, n)
        assert {combo for combo, _ in got} == set(counts), pmf.__name__
        for combo, p in got:
            assert p == pytest.approx(counts[combo] / total, abs=1e-15)


def test_recovery_oracles():
    pmf = recovery_pmf((3, 3), 4)
    assert sum(p for c, p in pmf if c[0] == 2) == pytest.approx(0.6, abs=1e-15)
    assert recovery_pmf((6, 0), 4) == [((4, 0), 1.0)]
    assert recovery_pmf((3, 3), 6) == [((3, 3), 1.0)]
    with pytest.raises(ValueError, match="recover"):
        recovery_pmf((2, 1), 4)


def test_hypergeometric_means_closed_form():
    # enumeration mean equals n*l_i/sum(l), k*l_i/sum(l) for every feasible case
    for l1, l2 in itertools.product(range(8), repeat=2):
        total = l1 + l2
        for n in range(1, min(total, 14) + 1):
            pmf = joint_assignment_pmf((l1, l2), n)
            mean = sum(p * c[0] for c, p in pmf)
            assert mean == pytest.approx(n * l1 / total, abs=1e-10)
            for k in range(1, n + 1):
                rmean = sum(p_a * sum(p_r * cr[0] for cr, p_r in recovery_pmf(ca, k))
                            for ca, p_a in pmf)
                assert rmean == pytest.approx(k * l1 / total, abs=1e-10)


# ----------------------------------------------------------- utilization

def test_utilization_values(game, eips):
    x = MixedStrategyProfile.pure(eips, [4, 0])
    assert game.utilization(0, x) == pytest.approx(0.8, abs=1e-15)
    assert game.utilization(1, x) == 0.0
    uniform = MixedStrategyProfile.uniform(eips)
    assert game.utilization(1, uniform) == pytest.approx(120 * 4 / 1100, abs=1e-12)


def test_utilization_cost_chain(game, eips):
    x = MixedStrategyProfile.pure(eips, [4, 8])
    # f(0.8) = -1800*(1 - 5) = 7200, divided by strategy share and cloud count
    assert game.utilization_cost(0, 4, x) == pytest.approx(72.0, abs=1e-9)
    zero = MixedStrategyProfile.pure(eips, [0, 8])
    assert game.utilization_cost(0, 0, zero) == 0.0


def test_amortized_cost_value(eips):
    # f(0.5) = -C * rho * (1 - 1 / (1 - 0.5)) for provider 1
    e = eips[0]
    scale = -e.fixed_cost * e.calibration_ratio
    assert _amortized_cost(scale, 0.5) == pytest.approx(1800.0, abs=1e-9)


def test_literal_branch_omits_cloud_count(eips, task):
    literal = FederationGame(eips, [task], literal_utilization_cost=True)
    x = MixedStrategyProfile.pure(eips, [4, 8])
    assert literal.utilization_cost(0, 4, x) == pytest.approx(7200.0, abs=1e-6)


# --------------------------------------------------------------- payoffs

def test_pure_payoff_instance(game, task):
    assert game.pure_payoff(0, (4, 8), task) == pytest.approx(453.0, abs=1e-9)


def test_pure_payoff_zero_contribution(game, task):
    assert game.pure_payoff(0, (0, 8), task) == pytest.approx(10.0, abs=1e-12)


def test_pure_payoff_infeasible_federation(game, eips):
    big = TaskSpec(13, 4, 30, 30, 10, 1e6, 1.0)
    x = MixedStrategyProfile.pure(eips, [4, 8])
    expected = 10.0 - game.utilization_cost(0, 4, x)
    assert game.pure_payoff(0, (4, 8), big) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("levels, msg", [
    ((4,), "1 levels for 2 providers"), ((4, 8, 3), "3 levels for 2 providers"),
    ((-1, 8), "level -1 outside 0..4"), ((4, -1), "level -1 outside 0..8"),
    ((5, 8), "level 5 outside 0..4"), ((4, 9), "level 9 outside 0..8"),
], ids=["short", "long", "negative-own", "negative-other", "past-L1", "past-L2"])
def test_pure_payoff_rejects_bad_levels(game, task, levels, msg):
    # the levels rule is `MixedStrategyProfile.pure`'s
    with pytest.raises(ValueError, match=re.escape(msg)):
        game.pure_payoff(0, levels, task)


def test_pure_profile_rejects_level_count(eips):
    for levels in ([4], [4, 8, 3]):
        with pytest.raises(ValueError, match="levels for 2 providers"):
            MixedStrategyProfile.pure(eips, levels)


def test_mixed_payoff_degenerate_opponent(game, eips, task):
    x = MixedStrategyProfile.pure(eips, [4, 8])
    assert game.payoff_vector(0, x)[4] == pytest.approx(
        game.pure_payoff(0, (4, 8), task), abs=1e-9)


def test_identical_tasks_weighting(eips, task):
    single = FederationGame(eips, [task])
    double = FederationGame(eips, [task, task])
    x = MixedStrategyProfile.uniform(eips)
    assert double.payoff_vector(0, x)[4] == pytest.approx(
        single.payoff_vector(0, x)[4], abs=1e-9)


def test_mixed_payoff_uniform_opponent_enumeration(game, eips, task):
    blocks = [np.zeros(5), np.full(9, 1 / 9)]
    blocks[0][4] = 1.0
    x = MixedStrategyProfile(blocks)
    expected = sum(game._task_table(task)[0, 4, l2] for l2 in range(9)) / 9
    expected -= game.utilization_cost(0, 4, x)
    assert game.payoff_vector(0, x)[4] == pytest.approx(expected, abs=1e-9)


def test_average_payoff_is_convex_combination(game, eips):
    x = MixedStrategyProfile.uniform(eips)
    for i in range(2):
        u = game.payoff_vector(i, x)
        avg = game.average_payoff(i, x)
        assert u.min() - 1e-12 <= avg <= u.max() + 1e-12
    pure = MixedStrategyProfile.pure(eips, [3, 5])
    assert game.average_payoff(0, pure) == pytest.approx(
        game.payoff_vector(0, pure)[3], abs=1e-12)


# ------------------------------------------------------------ replicator

def _random_profiles(eips, count, seed=7):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        blocks = [rng.dirichlet(np.ones(e.num_strategies)) for e in eips]
        out.append(MixedStrategyProfile(blocks))
    return out


def test_rhs_zero_at_pure_profile(game, eips):
    x = MixedStrategyProfile.pure(eips, [2, 5])
    phi = game.rhs_flat(x.flat, 1.0)
    assert np.allclose(phi, 0.0, atol=1e-12)


def test_rhs_simplex_tangency(game, eips):
    for x in _random_profiles(eips, 100):
        phi = game.rhs_flat(x.flat, 1.0)
        assert abs(phi[:5].sum()) < 1e-10
        assert abs(phi[5:].sum()) < 1e-10


def test_rhs_gamma_linearity(game, eips):
    x = MixedStrategyProfile.uniform(eips)
    assert np.allclose(2 * game.rhs_flat(x.flat, 1.0),
                       game.rhs_flat(x.flat, 2.0), atol=1e-12)


def test_rhs_zero_set_gamma_invariant(game, eips):
    for x in _random_profiles(eips, 20, seed=11):
        z1 = np.abs(game.rhs_flat(x.flat, 1.0)) < 1e-12
        z10 = np.abs(game.rhs_flat(x.flat, 10.0)) < 1e-11
        assert np.array_equal(z1, z10)


def test_lipschitz_ratio_bounded(game, eips):
    profiles = _random_profiles(eips, 40, seed=5)
    worst = 0.0
    for x, y in zip(profiles[::2], profiles[1::2]):
        num = np.max(np.abs(game.rhs_flat(x.flat, 1.0) - game.rhs_flat(y.flat, 1.0)))
        den = np.sum(np.abs(x.flat - y.flat))
        worst = max(worst, num / den)
    assert math.isfinite(worst)


def test_all_zero_rates_rejected(eips):
    with pytest.raises(ValueError, match="rate"):
        FederationGame(eips, [TaskSpec(6, 4, 30, 30, 10, 1e6, 0.0)])


def test_saturation_gives_non_finite_field():
    # capacity == num_clouds * max_workers is valid, but at the all-max
    # share utilization reaches 1 and the amortized cost 1/(1 - w) diverges
    eips = (EipConfig(1, 10, 4, 1800, 1.0, 1e-5, 40),
            EipConfig(2, 120, 8, 2800, 1.0, 1e-5, 1100))
    game = FederationGame(eips, [TaskSpec(6, 4, 30, 30, 10, 1e6, 1.0)])
    x = MixedStrategyProfile.pure(eips, [4, 8])
    assert game.utilization(0, x) == 1.0
    with np.errstate(invalid="ignore"):
        assert not math.isfinite(game.utilization_cost(0, 4, x))
        assert not np.all(np.isfinite(game.rhs_flat(x.flat, 1.0)))
    x = MixedStrategyProfile.uniform(eips)
    assert np.all(np.isfinite(game.rhs_flat(x.flat, 1.0)))


# --------------------------------------------- bit identity of the field
#
# The oracles below are the field as first written: payoff tables filled
# provider by provider, and np.tensordot once per opponent per call.  The
# compiled field must reproduce them bit for bit: windowed runs at coarse
# steps amplify a last-bit change into a different terminal state.

def _seed_expected_task_value(game, i, levels, task):
    value = task.r2
    for placement, p in joint_assignment_pmf(levels, task.n):
        nt_i = placement[i]
        term = task.r0 * task.n * nt_i
        term -= game.eips[i].cpu_cost * task.cycles / task.k * nt_i
        exp_recovered = sum(q * kt[i] for kt, q in recovery_pmf(placement, task.k))
        term += task.r1 * task.k * exp_recovered
        value += p * term
    return value


def _seed_tables(game):
    shape = tuple(e.num_strategies for e in game.eips)
    tables = [np.zeros(shape) for _ in game.eips]
    for levels in itertools.product(*[range(s) for s in shape]):
        for i in range(len(game.eips)):
            tables[i][levels] = sum(
                t.rate / sum(t.rate for t in game.tasks)
                * _seed_expected_task_value(game, i, levels, t)
                for t in game.tasks)
    return tables


def _seed_blocks(game, flat):
    sizes = [e.num_strategies for e in game.eips]
    blocks, pos = [], 0
    for s in sizes:
        blocks.append(flat[pos:pos + s])
        pos += s
    return blocks


def _seed_cost(game, e, xi):
    """Utilization cost of each strategy of provider `e`, or None when it
    contributes nothing."""
    js = np.arange(e.num_strategies, dtype=float)
    s = float(js @ xi)
    if s == 0.0:
        return None
    w = e.num_clouds * s / e.capacity
    f = -e.fixed_cost * e.calibration_ratio * (1.0 - 1.0 / (1.0 - w))
    cost = (js * xi / s) * f
    if not game.literal_utilization_cost:
        cost = cost / e.num_clouds
    return cost


def _seed_payoffs(game, tables, flat):
    """Each provider's payoff vector, utilization cost included."""
    blocks = _seed_blocks(game, flat)
    payoffs = []
    for i, e in enumerate(game.eips):
        u = tables[i]
        for other in range(len(game.eips) - 1, -1, -1):
            if other != i:
                u = np.tensordot(u, blocks[other], axes=(other, 0))
        u = np.asarray(u, dtype=float).reshape(e.num_strategies)
        cost = _seed_cost(game, e, blocks[i])
        if cost is not None:
            u = u - cost
        payoffs.append(u)
    return payoffs


def _seed_rhs_flat(game, tables, flat, gamma):
    out = np.empty_like(flat)
    pos = 0
    for xi, u in zip(_seed_blocks(game, flat), _seed_payoffs(game, tables, flat)):
        ubar = float(xi @ u)
        out[pos:pos + xi.size] = gamma * xi * (u - ubar)
        pos += xi.size
    return out


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _probe_states(sizes, count, seed):
    """Seeded flat states: interior and sparse profiles, all-pure and
    zero-contribution corners, and unprojected predictor-like states with
    tiny negatives."""
    rng = np.random.default_rng(seed)
    out = []
    for m in range(count):
        blocks = [rng.dirichlet(np.full(s, rng.choice([0.2, 1.0, 5.0]))) for s in sizes]
        kind = m % 5
        if kind == 1:                     # all pure, level 0 included
            for b in blocks:
                b[:] = 0.0
                b[rng.integers(b.size)] = 1.0
        elif kind == 2:                   # one provider contributes nothing
            b = blocks[rng.integers(len(blocks))]
            b[:] = 0.0
            b[0] = 1.0
        elif kind == 3:                   # exact zeros inside the simplex
            for b in blocks:
                b[rng.random(b.size) < 0.4] = 0.0
                b[0] += 1.0 - b.sum()
        flat = np.concatenate(blocks)
        if kind == 4:                     # off the simplex, as a predictor is
            flat = flat + rng.normal(0.0, 1e-3, flat.size)
        out.append(flat)
    return out


BIT_GAMES = {
    "one_provider": ((EipConfig(1, 100, 4, 1800, 1.0, 1e-5, 500),),
                     (TaskSpec(3, 2, 30, 30, 10, 1e6, 1.0),), False),
    "two_providers": ((EipConfig(1, 100, 4, 1800, 1.0, 1e-5, 500),
                       EipConfig(2, 120, 8, 2800, 1.0, 1e-5, 1100)),
                      (TaskSpec(6, 4, 30, 30, 10, 1e6, 1.0),), True),
    "two_providers_two_tasks": ((EipConfig(1, 100, 4, 1800, 1.0, 1e-5, 500),
                                 EipConfig(2, 120, 8, 2800, 1.0, 1e-5, 1100)),
                                (TaskSpec(6, 4, 30, 30, 10, 1e6, 1.0),
                                 TaskSpec(9, 5, 20, 25, 3, 2e6, 0.5)), False),
    "three_providers": ((EipConfig(1, 100, 4, 1800, 1.0, 1e-5, 500),
                         EipConfig(2, 120, 8, 2800, 1.0, 1e-5, 1100),
                         EipConfig(3, 110, 7, 2100.5, 0.9, 1.2e-5, 1200)),
                        (TaskSpec(10, 4, 30, 30, 10, 1e6, 1.0),), True),
}


@pytest.mark.parametrize("name", sorted(BIT_GAMES))
def test_compiled_field_bit_identical_to_tensordot_form(name):
    eips, tasks, literal = BIT_GAMES[name]
    game = FederationGame(eips, tasks, literal_utilization_cost=literal)
    assert game.block_sizes == MixedStrategyProfile.uniform(eips).block_sizes
    tables = _seed_tables(game)
    weighted = sum(w * game._task_table(t) for w, t in zip(game._task_weights, game.tasks))
    for i in range(len(eips)):
        assert _same_bits(weighted[i], tables[i])
    sizes = [e.num_strategies for e in eips]
    states = _probe_states(sizes, 600, seed=len(name))
    for m, flat in enumerate(states):
        gamma = (0.42, 1.0, 3.7)[m % 3]
        assert _same_bits(game.rhs_flat(flat, gamma),
                          _seed_rhs_flat(game, tables, flat, gamma)), (name, m)


TABLE_GAMES = {
    # four providers: the table has five axes
    "four_providers": ((EipConfig(1, 100, 4, 1800, 1.0, 1e-5, 500),
                        EipConfig(2, 120, 3, 2800, 1.0, 1e-5, 1100),
                        EipConfig(3, 110, 2, 2100.5, 0.9, 1.2e-5, 1200),
                        EipConfig(4, 90, 3, 1500, 0.8, 2e-5, 400)),
                       TaskSpec(7, 3, 30, 30, 10, 1e6, 1.0)),
    # C(60, 30) ~ 1.2e17: the counts exceed 2^53, so no float holds them exactly
    "counts_beyond_2_53": ((EipConfig(1, 1, 30, 1800, 1.0, 1e-5, 30),
                            EipConfig(2, 1, 30, 2800, 1.0, 2e-5, 30)),
                           TaskSpec(30, 3, 30, 30, 10, 1e6, 1.0)),
}


@pytest.mark.parametrize("name", sorted(TABLE_GAMES))
def test_task_table_bit_identical_to_per_profile_sum(name):
    eips, task = TABLE_GAMES[name]
    game = FederationGame(eips, [task])
    table = game._task_table(task)
    for levels in itertools.product(*map(range, game.block_sizes)):
        for i in range(len(eips)):
            assert _same_bits(table[(i, *levels)],
                              _seed_expected_task_value(game, i, levels, task)), (levels, i)


@pytest.mark.parametrize("name", sorted(BIT_GAMES))
def test_payoffs_and_costs_bit_identical_to_oracle(name):
    # every strategy's payoff and utilization cost, the sign of a zero
    # included; an idle provider's costs are +0
    eips, tasks, literal = BIT_GAMES[name]
    game = FederationGame(eips, tasks, literal_utilization_cost=literal)
    tables = _seed_tables(game)
    sizes = [e.num_strategies for e in eips]
    probes = _probe_states(sizes, 200, seed=len(name))
    # off the simplex, every provider idle with a negative share: s_i = 0
    probes.append(np.concatenate([np.r_[0.875, 0.25, -0.125, np.zeros(s - 3)]
                                  for s in sizes]))
    idle = 0
    for m, flat in enumerate(probes):
        payoffs = _seed_payoffs(game, tables, flat)
        costs = [_seed_cost(game, e, xi) for e, xi in zip(eips, _seed_blocks(game, flat))]
        idle += sum(c is None for c in costs)
        costs = [np.zeros(s) if c is None else c for s, c in zip(sizes, costs)]
        # the field's own vectors, off-simplex predictor-like states included
        assert _same_bits(game._payoffs(flat), np.concatenate(payoffs)), (name, m)
        assert _same_bits(game._costs(flat), np.concatenate(costs)), (name, m)
        if m % 5 == 4 or m == len(probes) - 1:    # off the simplex: no profile
            continue
        x = MixedStrategyProfile.from_flat(sizes, flat)
        for i in range(len(eips)):
            assert _same_bits(game.payoff_vector(i, x), payoffs[i]), (name, m, i)
            for j in range(sizes[i]):
                assert _same_bits(game.utilization_cost(i, j, x), costs[i][j]), (name, m, i, j)
    assert idle > 0
