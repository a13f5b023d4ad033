"""Numerical Caputo fractional calculus.

Provides the power-law memory weight, an L1-type Caputo derivative
estimator, the Mittag-Leffler function (used as a solver oracle), and an
Adams-Bashforth-Moulton predictor-corrector for systems of Caputo
fractional differential equations of order 0 < alpha < 2 (started at
rest, x'(0) = 0, when alpha > 1).  The solver sums the recent history
directly and, with full memory, the older history by FFT convolution
over dyadic blocks, so an N-step run costs O(N log^2 N) in its history
sums rather than O(N^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from ._fields import type_errors


# ----------------------------------------------------------------------
# memory weight

def memory_weight(delta: float, alpha: float) -> float:
    """Power-law fading memory weight of a Caputo derivative of order alpha.

    For non-integer alpha the weight given to information a time gap
    delta > 0 in the past is delta^(n-1-alpha) / gamma(n-alpha) with
    n = floor(alpha) + 1.  At integer orders the kernel degenerates: the
    Caputo derivative coincides with the ordinary derivative and has no
    fading-memory interpretation.
    """
    if not 0 < alpha < 2:
        raise ValueError(f"alpha must be in (0, 2), got {alpha}")
    if delta <= 0:
        raise ValueError("memory weight requires delta > 0 (kernel singular at 0)")
    if float(alpha).is_integer():
        raise ValueError(
            f"kernel degenerate at integer order alpha={alpha}: "
            "the derivative is ordinary and carries no memory weight"
        )
    n = math.floor(alpha) + 1
    return delta ** (n - 1 - alpha) / math.gamma(n - alpha)


# ----------------------------------------------------------------------
# derivative estimation

def caputo_derivative_estimate(samples: Sequence[float], alpha: float, h: float) -> np.ndarray:
    """Estimate the Caputo derivative of order alpha on a uniform grid.

    Uses the L1 scheme for 0 < alpha < 1 and, for 1 < alpha < 2, the L1
    scheme of order alpha-1 applied to the centered first derivative.
    First-order accurate in h.
    """
    y = np.asarray(samples, dtype=float)
    if h <= 0:
        raise ValueError("grid spacing h must be > 0")
    if not 0 < alpha < 2:
        raise ValueError(f"alpha must be in (0, 2), got {alpha}")
    n = 1 if alpha <= 1 else 2
    if y.size < n + 1:
        raise ValueError(f"need at least {n + 1} samples, got {y.size}")
    if alpha == 1.0:
        return np.gradient(y, h)
    if alpha > 1:
        return caputo_derivative_estimate(np.gradient(y, h), alpha - 1.0, h)
    steps = y.size - 1
    d = np.arange(steps, dtype=float)
    w = (d + 1) ** (1 - alpha) - d ** (1 - alpha)
    conv = np.convolve(np.diff(y), w)[:steps]
    out = np.empty(y.size)
    out[0] = 0.0
    out[1:] = conv * h ** (-alpha) / math.gamma(2 - alpha)
    return out


# ----------------------------------------------------------------------
# Mittag-Leffler oracle

def mittag_leffler(alpha: float, z: float) -> float:
    """One-parameter Mittag-Leffler function E_alpha(z) by direct series
    summation with a term-ratio recursion through log-gamma.
    """
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    if abs(z) > 50:
        raise ValueError("|z| <= 50 required for safe series summation")
    total = 1.0
    term = 1.0
    for m in range(1, 100000):
        term *= z * math.exp(math.lgamma(alpha * (m - 1) + 1) - math.lgamma(alpha * m + 1))
        total += term
        if abs(term) < 1e-16:
            return total
    raise RuntimeError("Mittag-Leffler series failed to converge")


# ----------------------------------------------------------------------
# FDE initial value problem solver

@dataclass(frozen=True)
class SolverConfig:
    """Grid, order, and scheme options for one fractional IVP solve."""

    alpha: float
    horizon: float = 1.0
    steps: int = 10_000
    corrector_iterations: int = 1
    memory_truncation: Optional[int] = None  # window length in steps; None = full

    def __post_init__(self):
        problems = self.validation_errors(vars(self))
        if problems:
            raise ValueError("; ".join(problems))

    @classmethod
    def validation_errors(cls, raw: Mapping) -> list[str]:
        """Every problem with a mapping of the fields (absent ones take their
        defaults); the values are checked only once their types are right."""
        v = {f.name: raw.get(f.name, f.default) for f in fields(cls)}
        errs = type_errors(v, ints=("steps", "corrector_iterations"), reals=("alpha", "horizon"))
        if v["memory_truncation"] is not None:
            errs += type_errors(v, ints=("memory_truncation",))
        if errs:
            return errs
        if not 0 < v["alpha"] < 2:
            errs.append(f"alpha must be in (0, 2), got {v['alpha']}")
        if v["horizon"] <= 0:
            errs.append("horizon must be > 0")
        if v["steps"] < 2:
            errs.append("need at least 2 steps")
        if v["corrector_iterations"] < 1:
            errs.append("corrector_iterations must be >= 1")
        if v["memory_truncation"] is not None and v["memory_truncation"] < 1:
            errs.append("memory_truncation must be >= 1 when given")
        return errs

    @property
    def h(self) -> float:
        return self.horizon / self.steps


@dataclass
class FdeSolution:
    """Uniform-grid solution of a fractional IVP with scheme diagnostics."""

    times: np.ndarray
    states: np.ndarray                 # shape (steps+1, dim)
    corrector_residuals: np.ndarray    # per step, inf-norm corrector update


class FdeAbortError(RuntimeError):
    """Raised when the state turns non-finite during integration."""

    def __init__(self, step: int):
        super().__init__(f"non-finite state at step {step}")
        self.step = step


def _left_weight(j: int, a: float) -> float:
    """Exact corrector weight of sample 0 at step j (the left endpoint)."""
    return j ** (a + 1) - (j - a) * (j + 1) ** a


# length unit of the directly summed near history in full-memory runs;
# 32 to 512 time alike on a 10^4-step run
FAR_BLOCK = 64


class _FarHistory:
    """Far-field history sums of a full-memory solve, by FFT convolution.

    Row t of `pred` and `corr` holds sum_{m < lo} w[t - m] f_m with
    lo = FAR_BLOCK * floor(t / FAR_BLOCK), for the predictor weights
    w = b and the interior corrector weights w = ac; `corr` leaves out
    m = 0, whose exact weight depends on t.  Once n samples are known,
    n a multiple of FAR_BLOCK, `add_block(n)` convolves the source block
    f[n - L:n], L = FAR_BLOCK * lowbit(n / FAR_BLOCK), into the targets
    [n, n + L): the iterative form of the triangle/square recursion of
    Hairer, Lubich and Schlichte (1985), as surveyed by Garrappa (2018).
    The blocks of one target tile [0, lo) exactly, like the binary digits
    of lo / FAR_BLOCK.
    """

    def __init__(self, b: np.ndarray, ac: np.ndarray, fhist: np.ndarray, steps: int):
        self.b, self.ac, self.fhist, self.steps = b, ac, fhist, steps
        self.pred = np.zeros((steps, fhist.shape[1]))
        self.corr = np.zeros((steps, fhist.shape[1]))
        self._spectra: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def add_block(self, n: int) -> None:
        q = n // FAR_BLOCK
        L = FAR_BLOCK * (q & -q)
        hi = min(n + L, self.steps)
        if hi <= n:
            return
        # distances t - m run over [1, 2L), so a size-2L FFT does not wrap
        size = 2 * L
        if L not in self._spectra:
            self._spectra[L] = (np.fft.rfft(self.b[:size], size),
                                np.fft.rfft(self.ac[:size], size))
        wb, wac = self._spectra[L]
        src = self.fhist[n - L:n]
        # one column at a time keeps the FFT temporaries small
        for c in range(src.shape[1]):
            col = src[:, c]
            spec = np.fft.rfft(col, size)
            self.pred[n:hi, c] += np.fft.irfft(spec * wb, size)[L:L + hi - n]
            if n == L:  # the first block: sample 0 is left out of `corr`
                col = col.copy()
                col[0] = 0.0
                spec = np.fft.rfft(col, size)
            self.corr[n:hi, c] += np.fft.irfft(spec * wac, size)[L:L + hi - n]


def solve_fde_ivp(rhs: Callable[[np.ndarray], np.ndarray], x0, config: SolverConfig,
                  postprocess: Callable[[np.ndarray], np.ndarray] | None = None) -> FdeSolution:
    """Integrate D^alpha x = rhs(x), x(0) = x0, on [0, horizon]; for
    1 < alpha < 2 the run starts at rest, x'(0) = 0.

    Fractional Adams-Bashforth-Moulton predictor-corrector on the
    equivalent Volterra integral form.  The history sums at step j split
    at `lo`: the near part over [lo, j] is summed directly, and with full
    memory (lo = FAR_BLOCK * floor(j / FAR_BLOCK)) the far part over
    [0, lo) comes from FFT-convolved dyadic blocks, so the quadrature
    costs O(N log^2 N).  A window (`memory_truncation` < steps) sets
    lo = j + 1 - window and drops the far part.  `postprocess`, when
    given, maps each accepted state back into the admissible set before
    it enters the history.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    a = config.alpha
    N = config.steps
    h = config.h
    times = np.linspace(0.0, config.horizon, N + 1)

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
    # a window that covers every step is full memory
    far = _FarHistory(b, ac, fhist, N) if window is None or window >= N else None

    for j in range(N):
        lo = max(0, j + 1 - window) if far is None else j - j % FAR_BLOCK

        # predictor: fractional rectangle rule over the near history
        wp = b_rev[N - j + lo:]
        hp = wp @ fhist[lo:j + 1]

        # corrector: fractional trapezoid weights; sample 0 carries the
        # exact left-endpoint weight, a later oldest near sample the
        # interior one
        wc = ac_rev[N + 1 - j + lo:]
        hist = wc @ fhist[lo + 1:j + 1] if j > lo else 0.0
        a0 = _left_weight(j, a) if lo == 0 else ac[j - lo]
        hist = hist + a0 * fhist[lo]
        if far is not None and lo:
            hp += far.pred[j]
            hist += far.corr[j] + _left_weight(j, a) * fhist[0]
        # x0 is the free part of the Volterra equation at every t_{j+1}
        xp = x0 + c_pred * hp

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
        if far is not None and (j + 2) % FAR_BLOCK == 0:
            far.add_block(j + 2)

    return FdeSolution(times=times, states=states, corrector_residuals=resid)
