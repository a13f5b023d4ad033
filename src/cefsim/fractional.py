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
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional, Sequence

import numpy as np

from ._fields import Problem, Record


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

def caputo_derivative_estimate(samples: Sequence[float] | np.ndarray, alpha: float,
                               h: float) -> np.ndarray:
    """Estimate the Caputo derivative of order alpha on a uniform grid.

    `samples` is one signal or a (samples, columns) array of signals, one
    per column, each estimated as if alone.  Uses the L1 scheme for
    0 < alpha < 1 and, for 1 < alpha < 2, the L1 scheme of order alpha-1
    applied to the centered first derivative.  First-order accurate in h.
    The history convolution is one real FFT along the samples, O(N log N)
    in their number.
    """
    y = np.atleast_1d(np.asarray(samples, dtype=float))
    if h <= 0:
        raise ValueError("grid spacing h must be > 0")
    if not 0 < alpha < 2:
        raise ValueError(f"alpha must be in (0, 2), got {alpha}")
    n = 1 if alpha <= 1 else 2
    if len(y) < n + 1:
        raise ValueError(f"need at least {n + 1} samples, got {len(y)}")
    if alpha == 1.0:
        return np.gradient(y, h, axis=0)
    if alpha > 1:
        return caputo_derivative_estimate(np.gradient(y, h, axis=0), alpha - 1.0, h)
    steps = len(y) - 1
    d = np.arange(steps, dtype=float)
    w = (d + 1) ** (1 - alpha) - d ** (1 - alpha)
    # the first `steps` terms of the linear convolution of diff(y) with w,
    # by one real FFT of a size that does not wrap; a constant input has
    # an all-zero difference and so an exactly zero estimate
    size = 2 * steps
    kernel = np.fft.rfft(w, size).reshape((-1,) + (1,) * (y.ndim - 1))
    conv = np.fft.irfft(np.fft.rfft(np.diff(y, axis=0), size, axis=0) * kernel,
                        size, axis=0)[:steps]
    out = np.empty(y.shape)
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
class SolverConfig(Record):
    """Grid, order, and scheme options for one fractional IVP solve."""

    alpha: float
    horizon: float = 1.0
    steps: int = 10_000
    corrector_iterations: int = 1
    memory_truncation: Optional[int] = None  # window length in steps; None = full

    json_optional = ("corrector_iterations", "memory_truncation")

    @staticmethod
    def range_errors(v: Mapping) -> Iterator[Problem]:
        if not 0 < v["alpha"] < 2:
            yield "alpha", f"alpha must be in (0, 2), got {v['alpha']}"
        if v["horizon"] <= 0:
            yield "horizon", "horizon must be > 0"
        if v["steps"] < 2:
            yield None, "need at least 2 steps"
        if v["corrector_iterations"] < 1:
            yield "corrector_iterations", "corrector_iterations must be >= 1"
        if v["memory_truncation"] is not None and v["memory_truncation"] < 1:
            yield "memory_truncation", "memory_truncation must be >= 1 when given"

    @property
    def h(self) -> float:
        return self.horizon / self.steps


@dataclass
class FdeSolution:
    """Uniform-grid solution of a fractional IVP with scheme diagnostics."""

    times: np.ndarray
    states: np.ndarray                 # shape (steps+1, dim)
    corrector_residuals: np.ndarray    # per step, inf-norm of the last corrector update
    postprocess_corrections: np.ndarray  # per step, inf-norm of the postprocess change


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
# block length times columns of one far-field FFT group
FFT_GROUP = 1 << 14
# steps whose corrector and postprocess diagnostics are computed together
DIAG_BLOCK = 64


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
            self._spectra[L] = (np.fft.rfft(self.b[:size], size)[:, None],
                                np.fft.rfft(self.ac[:size], size)[:, None])
        wb, wac = self._spectra[L]
        src = self.fhist[n - L:n]
        # one FFT per group of columns, each column transformed as on its
        # own; a group's input, spectra and output hold about
        # 64 * L * width bytes, near 1 MB
        width = max(1, FFT_GROUP // L)
        for c in range(0, src.shape[1], width):
            cols = slice(c, c + width)
            group = src[:, cols]
            spec = np.fft.rfft(group, size, axis=0)
            self.pred[n:hi, cols] += np.fft.irfft(spec * wb, size, axis=0)[L:L + hi - n]
            if n == L:  # the first block: sample 0 is left out of `corr`
                group = group.copy()
                group[0] = 0.0
                spec = np.fft.rfft(group, size, axis=0)
            self.corr[n:hi, cols] += np.fft.irfft(spec * wac, size, axis=0)[L:L + hi - n]


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
    lo = j + 1 - window and drops the far part.  A non-finite corrector
    output aborts the solve with FdeAbortError.  `postprocess`, when
    given, then maps each accepted state back into the admissible set
    before it enters the history.  `rhs` is passed rows of the solver's
    own buffers, which it must not keep.
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
    # 0-d arrays: an in-place product with one skips the scalar conversion
    c_pred = np.array(h ** a / math.gamma(a + 1))
    c_corr = np.array(h ** a / math.gamma(a + 2))
    # reversed views: b_rev[N + 1 - m:] is b[:m][::-1], the same strided view
    b_rev, ac_rev = b[::-1], ac[::-1]

    states = np.empty((N + 1, x0.size))
    fhist = np.empty((N + 1, x0.size))
    resid = np.zeros(N + 1)
    corrections = np.zeros(N + 1)
    # row j % DIAG_BLOCK: step j's iterate before the last corrector pass
    # (the predictor when there is one pass) and its last one, before any
    # postprocess; the diagnostics come from them a block of steps at a time
    prev = np.empty((DIAG_BLOCK, x0.size))
    raw = np.empty((DIAG_BLOCK, x0.size))
    acc = np.empty(x0.size)
    last = config.corrector_iterations - 1
    states[0] = x0
    fhist[0] = rhs(x0)

    window = config.memory_truncation
    # a window that covers every step is full memory
    far = _FarHistory(b, ac, fhist, N) if window is None or window >= N else None

    for j in range(N):
        r = j % DIAG_BLOCK
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
        # x0 is the free part of the Volterra equation at every t_{j+1}:
        # x_p = x0 + c_pred * hp, x_c = x0 + c_corr * (hist + f(x))
        # (out arguments positional: a ufunc keyword costs ~0.1 us a call)
        hp *= c_pred
        xc = np.add(x0, hp, prev[r])
        for k in range(config.corrector_iterations):
            np.add(hist, rhs(xc), acc)
            acc *= c_corr
            xc = np.add(x0, acc, raw[r] if k == last else prev[r])
        # on a state this short, a list costs less than a ufunc reduction
        if not all(np.isfinite(xc).tolist()):
            raise FdeAbortError(j + 1)
        if postprocess is not None:
            xc = postprocess(xc)
        states[j + 1] = xc
        fhist[j + 1] = rhs(xc)
        if far is not None and (j + 2) % FAR_BLOCK == 0:
            far.add_block(j + 2)
        if r == DIAG_BLOCK - 1 or j == N - 1:
            # the inf-norms of the last corrector updates, then of the
            # postprocess changes, of steps j - r .. j, computed in place
            rows = slice(j - r + 1, j + 2)
            _row_max_abs_diff(raw[:r + 1], prev[:r + 1], resid[rows])
            _row_max_abs_diff(states[rows], raw[:r + 1], corrections[rows])

    return FdeSolution(times=times, states=states, corrector_residuals=resid,
                       postprocess_corrections=corrections)


def _row_max_abs_diff(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out[i] = max |a[i] - b[i]| over each row; b is overwritten."""
    diff = np.subtract(a, b, out=b)
    np.max(np.abs(diff, out=diff), axis=1, out=out)
