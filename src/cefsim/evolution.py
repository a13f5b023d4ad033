"""Evolution engine: couples the federation game's replicator field with
the fractional solver and analyzes the resulting trajectories.

Produces trajectories, convergence/equilibrium reports, direction fields,
uniform-stability probes, and an empirical Lipschitz constant for the
replicator field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fractional import FdeSolution, SolverConfig, solve_fde_ivp
from .game import FederationGame, MixedStrategyProfile, block_slices

ADJACENCY_THRESHOLD = 1e-4
NEIGHBORHOOD_THRESHOLD = 0.01

# 0-d arrays as the scalar operands of ufuncs skip the conversion that a
# Python float costs on every call
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


def project_simplex_flat(raw: np.ndarray, slices: Sequence[slice]) -> np.ndarray:
    """Clamp negatives to zero and renormalize each block (`slices`, as
    made by `block_slices`) to sum one.

    Identity on valid profiles and idempotent.  Rejects blocks that are
    entirely non-positive (no direction to renormalize toward).
    """
    raw = np.asarray(raw, dtype=float)
    # on a state this short, a list costs less than a ufunc reduction
    if not all(np.isfinite(raw).tolist()):
        raise ValueError("cannot project non-finite vector")
    out = np.maximum(raw, _ZERO)
    total = np.empty(())
    for sl in slices:
        block = out[sl]
        # block.sum(), the same pairwise reduction
        np.add.reduce(block, 0, None, total)
        if not total:
            raise ValueError(f"block at offset {sl.start} is all zero after clamping")
        block /= total
    return out


@dataclass
class Trajectory(FdeSolution):
    """The solver's solution of a replicator run, with the game and the
    adaptation speed it was run with.  `states` holds flat profiles, and
    `postprocess_corrections` the per-step simplex correction.
    """

    game: FederationGame
    gamma: float

    @property
    def terminal(self) -> MixedStrategyProfile:
        return MixedStrategyProfile.from_flat(self.game.block_sizes, self.states[-1])


@dataclass
class EquilibriumReport:
    """Terminal profile of a run with its convergence times and quality."""

    equilibrium: MixedStrategyProfile
    t_adjacency: Optional[float]
    t_neighborhood: Optional[float]
    utilities: tuple[float, ...]
    residual: float


def simulate(game: FederationGame, x_init: MixedStrategyProfile,
             solver: SolverConfig, gamma: float) -> Trajectory:
    """Integrate the replicator dynamics of order solver.alpha from x_init.

    After every accepted step the state is projected back onto the product
    of simplices; the quadrature keeps the dynamics near-tangent, so the
    logged correction magnitudes should stay tiny.
    """
    if not gamma > 0:
        raise ValueError("adaptation speed gamma must be > 0")
    sol = solve_fde_ivp(lambda y: game.rhs_flat(y, gamma), game.flat_state(x_init), solver,
                        postprocess=lambda raw: project_simplex_flat(raw, game.slices))
    return Trajectory(**vars(sol), game=game, gamma=gamma)


def detect_convergence(traj: Trajectory) -> EquilibriumReport:
    """Classify convergence of a trajectory by backward scan.

    t_adjacency is the earliest time after which the per-step change stays
    below ADJACENCY_THRESHOLD for the remainder of the run; t_neighborhood
    the earliest time after which the state stays within
    NEIGHBORHOOD_THRESHOLD of the terminal profile.  The terminal sample
    is excluded from the neighborhood scan (it matches itself trivially).
    Either time is absent when the condition first holds only at the very
    end.
    """
    n_steps = len(traj.times) - 1
    if n_steps < 2:
        raise ValueError("need a trajectory with at least 2 steps")
    x_star = traj.terminal

    # max |x[j] - x[j-1]| of steps j = 1 .. n_steps
    changes = np.max(np.abs(np.diff(traj.states, axis=0)), axis=1)
    viol = np.nonzero(changes >= ADJACENCY_THRESHOLD)[0]
    if viol.size == 0:
        t_adj = 0.0
    else:
        last = viol[-1] + 1          # step index of the last violating move
        t_adj = float(traj.times[last]) if last < n_steps else None

    dev = np.max(np.abs(traj.states[:-1] - traj.states[-1]), axis=1)
    viol = np.nonzero(dev >= NEIGHBORHOOD_THRESHOLD)[0]
    if viol.size == 0:
        t_nbr = 0.0
    else:
        last = viol[-1]
        t_nbr = float(traj.times[last]) if last < n_steps - 1 else None

    utilities = tuple(traj.game.average_payoff(i, x_star) for i in range(len(traj.game.eips)))
    residual = float(np.max(np.abs(traj.game.rhs_flat(traj.states[-1], traj.gamma))))
    return EquilibriumReport(equilibrium=x_star, t_adjacency=t_adj,
                             t_neighborhood=t_nbr, utilities=utilities,
                             residual=residual)


def direction_field(game: FederationGame, initial_grid: Sequence[MixedStrategyProfile],
                    solver: SolverConfig, gamma: float, stride: int = 200) -> list[np.ndarray]:
    """Sampled trajectories from a grid of initial profiles.

    Each polyline holds every stride-th profile (flat); consecutive pairs
    form the field arrows.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    polylines = []
    for x0 in initial_grid:
        traj = simulate(game, x0, solver, gamma)
        polylines.append(traj.states[::stride].copy())
    return polylines


def estimate_lipschitz(game: FederationGame, gamma: float, sample_count: int = 1000) -> float:
    """Empirical Lipschitz constant of the replicator field over the
    strategy space: max of ||phi(x) - phi(y)||_1 / ||x - y||_1 over a
    deterministic low-discrepancy sample of profile pairs.
    """
    if sample_count < 2:
        raise ValueError("need at least 2 sample pairs")
    dim = game.slices[-1].stop
    # Kronecker sequence on sqrt-of-prime irrationals, folded onto the simplices
    primes = []
    candidate = 2
    while len(primes) < 2 * dim:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    alphas = np.array([math.sqrt(p) % 1 for p in primes])
    k_hat = 0.0
    for m in range(1, sample_count + 1):
        u = (m * alphas) % 1.0 + 1e-3
        x = project_simplex_flat(u[:dim], game.slices)
        y = project_simplex_flat(u[dim:], game.slices)
        dxy = float(np.sum(np.abs(x - y)))
        if dxy < 1e-12:
            continue
        dphi = float(np.sum(np.abs(game.rhs_flat(x, gamma) - game.rhs_flat(y, gamma))))
        k_hat = max(k_hat, dphi / dxy)
    return k_hat


@dataclass
class StabilityProbe:
    """One perturbed-start comparison run against the equilibrium."""

    initial_distance: float
    weighted_sup: float
    passed: bool


@dataclass
class StabilityReport:
    probes: list[StabilityProbe]

    @property
    def all_passed(self) -> bool:
        return all(p.passed for p in self.probes)


def _perturbed_starts(x_star: MixedStrategyProfile, delta: float) -> list[MixedStrategyProfile]:
    """Deterministic set of starts with ||x0 - y0||_1 <= delta: for each
    provider, move delta/2 of mass from the heaviest strategy toward each
    other strategy in turn.
    """
    starts = []
    flat = x_star.flat
    for sl in block_slices(x_star.block_sizes):
        src = sl.start + int(np.argmax(flat[sl]))
        shift = min(delta / 2.0, float(flat[src]))
        for dst in range(sl.start, sl.stop):
            if dst == src:
                continue
            y = flat.copy()
            y[src] -= shift
            y[dst] += shift
            starts.append(MixedStrategyProfile.from_flat(x_star.block_sizes, y))
    return starts


def stability_probe(game: FederationGame, x_star: MixedStrategyProfile, delta: float,
                    solver: SolverConfig, gamma: float, n_weight: float,
                    starts: Optional[Sequence[MixedStrategyProfile]] = None) -> StabilityReport:
    """Uniform-stability check around a rest point x_star.

    Runs the dynamics from x_star and from each perturbed start and tests
    sup_{t >= h} e^{-n_weight * t} ||x(t) - y(t)||_1 < ||x0 - y0||_1.
    The supremum starts at the first grid point: at t = 0 the weighted
    distance equals the initial distance identically.
    """
    residual = float(np.max(np.abs(game.rhs_flat(game.flat_state(x_star), gamma))))
    if residual > 1e-3:
        raise ValueError(f"x_star is not a rest point (residual {residual:.3g} > 1e-3)")
    if n_weight <= 0:
        raise ValueError("n_weight must be > 0")
    base = simulate(game, x_star, solver, gamma)
    if starts is None:
        starts = _perturbed_starts(x_star, delta)
    probes = []
    for y0 in starts:
        d0 = float(np.sum(np.abs(x_star.flat - y0.flat)))
        traj = simulate(game, y0, solver, gamma)
        dist = np.sum(np.abs(traj.states - base.states), axis=1)
        weighted = np.exp(-n_weight * traj.times[1:]) * dist[1:]
        sup = float(np.max(weighted)) if d0 > 0 else 0.0
        passed = (d0 == 0.0) or (sup < d0)
        probes.append(StabilityProbe(initial_distance=d0, weighted_sup=sup, passed=passed))
    return StabilityReport(probes)


def stability_weight(k_hat: float, alpha: float, horizon: float = 1.0) -> float:
    """Weight N for the uniform-stability inequality, chosen so the
    contraction condition L*K < N^alpha holds: N = (1 + L*K)^(1/alpha)
    with L the horizon length and K the empirical Lipschitz constant.
    """
    if k_hat < 0 or horizon <= 0 or not 0 < alpha < 2:
        raise ValueError("invalid stability-weight inputs")
    return (1.0 + horizon * k_hat) ** (1.0 / alpha)
