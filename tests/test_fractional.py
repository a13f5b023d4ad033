import math

import numpy as np
import pytest

from cefsim.fractional import (FAR_BLOCK, FdeAbortError, SolverConfig,
                               caputo_derivative_estimate, memory_weight,
                               mittag_leffler, solve_fde_ivp)


# ----------------------------------------------------------------- kernel

def test_kernel_weight_value():
    assert memory_weight(1.0, 0.5) == pytest.approx(1 / math.sqrt(math.pi), rel=1e-12)


def test_kernel_degenerate_at_integer_order():
    for alpha in (1.0, 1):
        with pytest.raises(ValueError, match="degenerate"):
            memory_weight(0.5, alpha)
    # 1 < alpha < 2: n = 2, weight delta^(1 - alpha) / gamma(2 - alpha)
    assert memory_weight(0.5, 1.3) == pytest.approx(0.5 ** -0.3 / math.gamma(0.7), rel=1e-12)


def test_kernel_rejects_nonpositive_gap():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="delta > 0"):
            memory_weight(bad, 0.5)


def test_kernel_rejects_order_outside_range_first():
    for bad in (0.0, 2.0, 2.5, -1.0):
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 2\)"):
            memory_weight(0.0, bad)


def test_kernel_recent_past_ordering():
    # subdiffusive orders amplify the recent past; the steeper curve wins
    # once the gap is large enough for the normalization not to dominate
    assert memory_weight(0.05, 0.65) > memory_weight(0.05, 0.8)


def test_kernel_monotone_in_order_within_branches():
    # near the end of the unit gap the weight decreases with the order,
    # separately on each branch
    for lo, hi in ((0.65, 0.8), (0.3, 0.6), (1.2, 1.4), (1.1, 1.7)):
        assert memory_weight(0.9, lo) > memory_weight(0.9, hi)


def test_kernel_positive_and_fading():
    weights = [memory_weight(d, 0.8) for d in (0.01, 0.1, 1.0, 10.0, 100.0)]
    assert all(w > 0 for w in weights)
    assert weights == sorted(weights, reverse=True)


# ---------------------------------------------------- derivative estimate

def test_caputo_of_constant_is_zero():
    y = np.full(101, 7.0)
    for a in (0.3, 0.7, 1.5):
        assert np.max(np.abs(caputo_derivative_estimate(y, a, 0.01))) < 1e-12


def test_caputo_power_rule():
    n = 10_000
    y = np.linspace(0.0, 1.0, n + 1)
    est = caputo_derivative_estimate(y, 0.5, 1.0 / n)
    assert est[-1] == pytest.approx(1 / math.gamma(1.5), abs=1e-3)


def test_caputo_integer_order_is_gradient():
    y = np.linspace(0.0, 1.0, 11)
    assert np.allclose(caputo_derivative_estimate(y, 1.0, 0.1), 1.0, atol=1e-12)


def test_caputo_rejects_short_input():
    with pytest.raises(ValueError, match="samples"):
        caputo_derivative_estimate([1.0, 2.0], 1.5, 0.1)


# ---------------------------------------------------------- Mittag-Leffler

def test_mittag_leffler_values():
    assert mittag_leffler(0.8, 0.0) == 1.0
    assert mittag_leffler(1.0, -1.0) == pytest.approx(math.exp(-1), rel=1e-12)
    assert mittag_leffler(1.0, 2.0) == pytest.approx(math.exp(2), rel=1e-12)
    assert mittag_leffler(0.5, -1.0) == pytest.approx(math.e * math.erfc(1.0), rel=1e-10)


def test_mittag_leffler_domain():
    with pytest.raises(ValueError):
        mittag_leffler(0.0, 1.0)
    with pytest.raises(ValueError):
        mittag_leffler(0.8, 100.0)


# ----------------------------------------------------------------- solver

def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(alpha=2.5)
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.8, horizon=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.8, steps=1)
    for bad in ({"steps": 100.5}, {"steps": "100"}, {"steps": True},
                {"memory_truncation": 2.5}, {"memory_truncation": "10"},
                {"memory_truncation": False}, {"alpha": "0.8"}):
        name = next(iter(bad))
        with pytest.raises(ValueError, match=f"{name} must be"):
            SolverConfig(**{"alpha": 0.8, **bad})
    cfg = SolverConfig(alpha=0.8, horizon=2.0, steps=400)
    assert cfg.h == pytest.approx(0.005)
    assert SolverConfig(alpha=0.8, steps=np.int64(300)).steps == 300


def test_stationary_field_stays_put():
    for a in (0.6, 1.0, 1.5):
        sol = solve_fde_ivp(lambda y: np.zeros_like(y), [0.3, 0.7],
                            SolverConfig(alpha=a, steps=50))
        assert np.allclose(sol.states, [0.3, 0.7], atol=1e-15)
        assert np.all(np.diff(sol.times) > 0)


def test_linear_problem_oracles():
    for a in (0.8, 1.0, 1.2):
        sol = solve_fde_ivp(lambda y: -y, [1.0], SolverConfig(alpha=a, steps=2000))
        assert sol.states[-1, 0] == pytest.approx(mittag_leffler(a, -1.0), abs=1e-3)


def test_integer_order_matches_classical_scheme():
    n = 10_000
    h = 1.0 / n
    sol = solve_fde_ivp(lambda y: -y, [1.0], SolverConfig(alpha=1.0, steps=n))
    # classical explicit Euler predictor with trapezoid corrector
    x = 1.0
    for _ in range(n):
        pred = x - h * x
        x = x + h / 2 * (-x - pred)
    assert sol.states[-1, 0] == pytest.approx(x, abs=1e-6)
    assert sol.states[-1, 0] == pytest.approx(math.exp(-1), abs=1e-4)


def test_convergence_order():
    errs = []
    for n in (250, 500, 1000):
        sol = solve_fde_ivp(lambda y: -y, [1.0], SolverConfig(alpha=0.8, steps=n))
        errs.append(abs(sol.states[-1, 0] - mittag_leffler(0.8, -1.0)))
    assert errs[0] / errs[1] >= 1.8
    assert errs[1] / errs[2] >= 1.8


def test_full_window_truncation_matches_full_memory():
    # a window that covers every step is full memory, far field included
    full = solve_fde_ivp(lambda y: -y, [1.0], SolverConfig(alpha=0.8, steps=200))
    for w in (200, 201, 10_000):
        windowed = solve_fde_ivp(lambda y: -y, [1.0],
                                 SolverConfig(alpha=0.8, steps=200, memory_truncation=w))
        assert np.array_equal(full.states, windowed.states)


def test_truncation_error_shrinks_with_window():
    # short-memory truncation carries a real error on slowly-decaying
    # problems; growing the window must shrink it monotonically
    full = solve_fde_ivp(lambda y: -y, [1.0], SolverConfig(alpha=0.8, steps=400))
    errs = []
    for w in (50, 100, 200, 399):
        short = solve_fde_ivp(lambda y: -y, [1.0],
                              SolverConfig(alpha=0.8, steps=400, memory_truncation=w))
        errs.append(abs(full.states[-1, 0] - short.states[-1, 0]))
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 0.01


def test_abort_on_nonfinite_state():
    # the overflow to inf is the point of the test
    with pytest.raises(FdeAbortError) as exc, np.errstate(over="ignore", invalid="ignore"):
        solve_fde_ivp(lambda y: y ** 2, [1e200], SolverConfig(alpha=1.0, steps=10))
    assert exc.value.step >= 1


def test_determinism():
    cfg = SolverConfig(alpha=0.7, steps=300)
    a = solve_fde_ivp(lambda y: -y + 0.1 * y ** 2, [0.9], cfg)
    b = solve_fde_ivp(lambda y: -y + 0.1 * y ** 2, [0.9], cfg)
    assert np.array_equal(a.states, b.states)


# ------------------------------------------- far-field quadrature oracle

def direct_solve(rhs, x0, config, postprocess=None):
    """The O(N^2) direct-sum solver that the near/far split replaced,
    kept as the reference for the split quadrature."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    a = config.alpha
    N = config.steps
    h = config.h

    # quadrature weights indexed by step distance d = j - m
    d = np.arange(N + 1, dtype=float)
    b = (d + 1) ** a - d ** a                                   # predictor
    ac = (d + 2) ** (a + 1) + d ** (a + 1) - 2 * (d + 1) ** (a + 1)  # corrector, interior
    c_pred = h ** a / math.gamma(a + 1)
    c_corr = h ** a / math.gamma(a + 2)
    # reversed views: b_rev[N + 1 - m:] is b[:m][::-1], the same strided view
    b_rev, ac_rev = b[::-1], ac[::-1]

    states = np.empty((N + 1, x0.size))
    fhist = np.empty((N + 1, x0.size))
    resid = np.zeros(N + 1)
    update = np.empty(x0.size)  # scratch for the last corrector update
    states[0] = x0
    fhist[0] = rhs(x0)

    window = config.memory_truncation
    for j in range(N):
        lo = 0 if window is None else max(0, j + 1 - window)

        # predictor: fractional rectangle rule over the retained history
        wp = b_rev[N - j + lo:]
        xp = x0 + c_pred * (wp @ fhist[lo:j + 1])

        # corrector: fractional trapezoid weights; the oldest retained
        # sample carries the exact left-endpoint weight only in the
        # untruncated case
        wc = ac_rev[N + 1 - j + lo:]
        hist = wc @ fhist[lo + 1:j + 1] if j > lo else 0.0
        if lo == 0:
            a0 = j ** (a + 1) - (j - a) * (j + 1) ** a
        else:
            a0 = ac[j - lo]
        hist = hist + a0 * fhist[lo]

        xc = xp
        for _ in range(config.corrector_iterations):
            fc = rhs(xc)
            xnew = x0 + c_corr * (hist + fc)
            resid[j + 1] = np.abs(np.subtract(xnew, xc, out=update), out=update).max()
            xc = xnew
        if not np.isfinite(xc).all():
            raise FdeAbortError(j + 1)
        if postprocess is not None:
            xc = postprocess(xc)
        states[j + 1] = xc
        fhist[j + 1] = rhs(xc)

    return states


def _mixed_field(y):
    return -y + 0.1 * np.sin(3 * y[::-1])


@pytest.mark.parametrize("alpha", [0.3, 0.8, 1.0, 1.5])
def test_far_field_matches_direct_sums(alpha):
    x0 = [1.0, 0.4]
    for n in (FAR_BLOCK - 1, FAR_BLOCK, 1000, 3000):
        cfg = SolverConfig(alpha=alpha, steps=n)
        got = solve_fde_ivp(_mixed_field, x0, cfg).states
        want = direct_solve(_mixed_field, x0, cfg)
        if n <= FAR_BLOCK:
            # no step has history older than one block: the same sums
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) < 1e-12


def test_mittag_leffler_far_field_matches_direct_sums():
    for a in (0.5, 0.8, 1.3):
        cfg = SolverConfig(alpha=a, steps=2500)
        got = solve_fde_ivp(lambda y: -y, [1.0], cfg).states
        assert np.max(np.abs(got - direct_solve(lambda y: -y, [1.0], cfg))) < 1e-12


@pytest.mark.parametrize("window", [1, 37, 100])
def test_windowed_runs_keep_direct_sums_bit_for_bit(window):
    # a window drops the far part, so its sums are the direct ones
    for a in (0.8, 1.5):
        cfg = SolverConfig(alpha=a, steps=1000, memory_truncation=window)
        assert np.array_equal(solve_fde_ivp(_mixed_field, [1.0, 0.4], cfg).states,
                              direct_solve(_mixed_field, [1.0, 0.4], cfg))
