"""Core game model of a coded edge federation (CEF).

Edge infrastructure providers (EIPs) contribute workers to a shared
federation that serves coded distributed computing tasks.  Worker
assignment and result recovery follow multivariate hypergeometric
distributions, and each provider's expected utility combines task
rewards, energy cost, and an edge-resource utilization cost.  The
module culminates in the replicator right-hand side used by the
evolution engine, compiled once per game.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from ._fields import Problem, Record

SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class EipConfig(Record):
    """Population and cost parameters of one edge infrastructure provider."""

    index: int
    num_clouds: int          # E_i: edge clouds controlled by the provider
    max_workers: int         # L_i: largest per-cloud contribution
    fixed_cost: float        # C_i: fixed cost amortized over service provisions
    calibration_ratio: float # rho_i in (0, 1]
    cpu_cost: float          # c_i: cost per CPU cycle
    capacity: int            # W_i: total worker capacity

    @staticmethod
    def range_errors(v: Mapping) -> Iterator[Problem]:
        if v["num_clouds"] < 1:
            yield "num_clouds", "num_clouds must be >= 1"
        if v["max_workers"] < 1:
            yield "max_workers", "max_workers must be >= 1"
        if v["capacity"] < v["num_clouds"] * v["max_workers"]:
            yield ("capacity", "capacity must cover simultaneous max contribution "
                   f"(capacity={v['capacity']} < num_clouds*max_workers="
                   f"{v['num_clouds'] * v['max_workers']})")
        if v["fixed_cost"] < 0:
            yield "fixed_cost", "fixed_cost must be >= 0"
        if v["cpu_cost"] < 0:
            yield "cpu_cost", "cpu_cost must be >= 0"
        if not 0 < v["calibration_ratio"] <= 1:
            yield "calibration_ratio", "calibration_ratio must be in (0, 1]"

    @property
    def num_strategies(self) -> int:
        return self.max_workers + 1


@dataclass(frozen=True)
class TaskSpec(Record):
    """One coded task type: code configuration, rewards, size, arrival rate."""

    n: int            # workers requested
    k: int            # recovery threshold: first k results suffice
    r0: float         # unit base reward
    r1: float         # unit additional reward
    r2: float         # fixed participation reward
    cycles: float     # CPU cycles per sub-task batch (D)
    rate: float       # task arrival rate (lambda)

    @staticmethod
    def range_errors(v: Mapping) -> Iterator[Problem]:
        if not 1 <= v["k"] <= v["n"]:
            yield "k", "k must satisfy 1 <= k <= n"
        for name in ("r0", "r1", "r2", "cycles", "rate"):
            if v[name] < 0:
                yield name, f"{name} must be >= 0"


class MixedStrategyProfile:
    """Per-provider probability vectors over worker-contribution levels.

    Block i has length L_i + 1 and sums to one; the flat view
    concatenates blocks provider-major, strategy-minor.
    """

    def __init__(self, blocks: Sequence[np.ndarray]):
        self.blocks = tuple(np.asarray(b, dtype=float) for b in blocks)
        for i, b in enumerate(self.blocks):
            if b.ndim != 1 or b.size < 1:
                raise ValueError(f"block {i} must be a nonempty vector")
            # NaN fails every comparison, so the range check would pass it
            if not np.isfinite(b).all():
                raise ValueError(f"block {i} entries must be finite")
            if np.any(b < -SIMPLEX_TOL) or np.any(b > 1 + SIMPLEX_TOL):
                raise ValueError(f"block {i} entries must lie in [0, 1]")
            if abs(b.sum() - 1.0) > SIMPLEX_TOL:
                raise ValueError(f"block {i} must sum to 1 (got {b.sum()!r})")

    @classmethod
    def uniform(cls, eips: Sequence[EipConfig]) -> "MixedStrategyProfile":
        return cls([np.full(e.num_strategies, 1.0 / e.num_strategies) for e in eips])

    @classmethod
    def pure(cls, eips: Sequence[EipConfig], levels: Sequence[int]) -> "MixedStrategyProfile":
        blocks = []
        for e, l in zip(eips, levels):
            if not 0 <= l <= e.max_workers:
                raise ValueError(f"level {l} outside 0..{e.max_workers}")
            b = np.zeros(e.num_strategies)
            b[l] = 1.0
            blocks.append(b)
        return cls(blocks)

    @classmethod
    def from_flat(cls, sizes: Sequence[int], flat: np.ndarray) -> "MixedStrategyProfile":
        flat = np.asarray(flat, dtype=float)
        out, pos = [], 0
        for s in sizes:
            out.append(flat[pos:pos + s])
            pos += s
        if pos != flat.size:
            raise ValueError("flat vector length does not match block sizes")
        return cls(out)

    @property
    def flat(self) -> np.ndarray:
        return np.concatenate(self.blocks)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(b.size for b in self.blocks)


def _constrained_placements(limits: Sequence[int], total: int):
    """Integer vectors v with 0 <= v_i <= limits_i and sum(v) == total, in
    lexicographic order.  Only feasible prefixes are extended.
    """
    if len(limits) == 1:
        if 0 <= total <= limits[0]:
            yield (total,)
        return
    rest = sum(limits[1:])
    for c in range(max(0, total - rest), min(limits[0], total) + 1):
        for tail in _constrained_placements(limits[1:], total - c):
            yield (c,) + tail


def _hypergeometric_pmf(pool: tuple[int, ...], draws: int):
    """Multivariate hypergeometric distribution of how `draws` items drawn
    uniformly without replacement from the pooled counts `pool` split
    across the pools: [(split, probability), ...].
    """
    denom = math.comb(sum(pool), draws)
    return [(combo, math.prod(math.comb(m, c) for m, c in zip(pool, combo)) / denom)
            for combo in _constrained_placements(pool, draws)]


def joint_assignment_pmf(levels: Sequence[int], n: int):
    """Distribution of worker placements when n workers are drawn uniformly
    from the pooled contributions `levels`.

    Returns [(placement, probability), ...]; empty when the federation
    cannot serve the task (sum(levels) < n).
    """
    levels = tuple(int(x) for x in levels)
    if any(l < 0 for l in levels):
        raise ValueError("contribution levels must be >= 0")
    if sum(levels) < n:
        return []
    return _hypergeometric_pmf(levels, n)


def recovery_pmf(placement: Sequence[int], k: int):
    """Distribution of how the first k returned results split across
    providers, given the worker placement of the running task.
    """
    placement = tuple(int(x) for x in placement)
    total = sum(placement)
    if total < k:
        raise ValueError(f"cannot recover: {total} assigned workers < k={k}")
    return _hypergeometric_pmf(placement, k)


def _utilization(s: float, clouds: int, capacity: int) -> float:
    """Utilization of a provider with `clouds` edge clouds, `capacity`
    workers and expected contribution `s` per cloud."""
    return clouds * s / capacity


def _amortized_cost(scale: float, w: float) -> float:
    """Amortized utilization cost f(w) = scale * (1 - 1 / (1 - w)), with
    scale = -C * rho."""
    # the pole of 1/(1 - w): utilization 1 at the all-max share when
    # capacity == E*L; a run that gets there aborts on the non-finite
    # field (off-simplex solver stages may pass w > 1, which stays finite)
    if w == 1.0:
        return math.inf
    return scale * (1.0 - 1.0 / (1.0 - w))


def _utilization_cost(xi: np.ndarray, js: np.ndarray, clouds: int, capacity: int,
                      scale: float, divisor: Optional[int]) -> Optional[np.ndarray]:
    """Per-strategy utilization cost of a provider with share block xi, as
    a fresh array; None when the provider contributes nothing (it then
    bears no utilization cost).  `divisor` is the cloud count, or None for
    the literal net-utility formula.
    """
    s = float(js.dot(xi))
    if s == 0.0:
        return None
    # (js * xi / s) * f / E, rounded step by step in that order
    cost = js * xi
    cost /= s
    cost *= _amortized_cost(scale, _utilization(s, clouds, capacity))
    if divisor:
        cost /= divisor
    return cost


class FederationGame:
    """Expected payoffs and replicator dynamics of the federation game.

    `literal_utilization_cost` switches the per-strategy utilization cost
    between the primitive definition (which divides the amortized cost by
    the provider's cloud count) and the verbatim net-utility formula,
    which omits that division.

    The payoff tables and the per-provider contraction plan over them are
    built once, on the first payoff or field evaluation.  `rhs_flat` is
    the one replicator field; `payoff_vector` and `average_payoff` take
    their payoffs from the same loop over the plan.
    """

    def __init__(self, eips: Sequence[EipConfig], tasks: Sequence[TaskSpec],
                 literal_utilization_cost: bool = False):
        if not eips:
            raise ValueError("need at least one provider")
        if not tasks:
            raise ValueError("need at least one task type")
        total_rate = sum(t.rate for t in tasks)
        if total_rate <= 0:
            raise ValueError("task arrival rates must not all be zero")
        self.eips = tuple(eips)
        self.tasks = tuple(tasks)
        self.literal_utilization_cost = literal_utilization_cost
        # the flat layout of a profile: one block of L_i + 1 shares per provider
        self.block_sizes = tuple(e.num_strategies for e in self.eips)
        self._task_weights = tuple(t.rate / total_rate for t in self.tasks)
        offsets = list(itertools.accumulate(self.block_sizes, initial=0))
        self._slices = tuple(slice(a, b) for a, b in zip(offsets, offsets[1:]))
        # per provider, the arguments of _utilization_cost after the shares
        self._cost_terms = tuple(
            (np.arange(e.num_strategies, dtype=float), e.num_clouds, e.capacity,
             -e.fixed_cost * e.calibration_ratio,
             None if literal_utilization_cost else e.num_clouds)
            for e in self.eips)
        self._plan = None   # lazy: per-provider contraction plan, see _compile
        self._terms = {}    # task -> {placement: per-provider expected terms}

    # ------------------------------------------------------------------
    # utilization and its cost

    def utilization(self, i: int, x: MixedStrategyProfile) -> float:
        js, clouds, capacity, _, _ = self._cost_terms[i]
        return _utilization(float(js.dot(x.blocks[i])), clouds, capacity)

    def utilization_cost(self, i: int, j: int, x: MixedStrategyProfile) -> float:
        """Utilization cost of strategy j of provider i at profile x."""
        cost = _utilization_cost(x.blocks[i], *self._cost_terms[i])
        return 0.0 if cost is None else float(cost[j])

    # ------------------------------------------------------------------
    # payoffs

    def _placement_terms(self, placement: tuple[int, ...], task: TaskSpec) -> list[float]:
        """Assignment and recovery rewards minus energy cost of every
        provider, given the worker placement of a running task.
        """
        recovery = recovery_pmf(placement, task.k)
        terms = []
        for i, e in enumerate(self.eips):
            nt_i = placement[i]
            term = task.r0 * task.n * nt_i
            term -= e.cpu_cost * task.cycles / task.k * nt_i
            exp_recovered = sum(q * kt[i] for kt, q in recovery)
            term += task.r1 * task.k * exp_recovered
            terms.append(term)
        return terms

    def _expected_task_values(self, levels: Sequence[int], task: TaskSpec) -> list[float]:
        """Fixed reward plus expected assignment/recovery rewards minus
        energy cost of every provider under the pure profile `levels`,
        from one enumeration of the assignment distribution.  Excludes the
        utilization cost.  A placement's terms do not depend on the profile
        it came from, so they are computed once per task and placement.
        """
        memo = self._terms.setdefault(task, {})
        values = [task.r2] * len(self.eips)
        for placement, p in joint_assignment_pmf(levels, task.n):
            terms = memo.get(placement)
            if terms is None:
                terms = memo[placement] = self._placement_terms(placement, task)
            for i, term in enumerate(terms):
                values[i] += p * term
        return values

    def pure_payoff(self, i: int, l_i: int, levels: Sequence[int],
                    x: MixedStrategyProfile, task: TaskSpec) -> float:
        levels = tuple(levels)
        if levels[i] != l_i:
            raise ValueError("levels[i] must equal l_i")
        return self._expected_task_values(levels, task)[i] - self.utilization_cost(i, l_i, x)

    def _base_payoffs(self, levels: Sequence[int]) -> list[float]:
        """Task-weighted expected payoff of every provider at a pure
        profile, excluding the utilization cost (which depends on the
        mixed state).
        """
        weighted = [(w, self._expected_task_values(levels, t))
                    for w, t in zip(self._task_weights, self.tasks)]
        return [sum(w * values[i] for w, values in weighted)
                for i in range(len(self.eips))]

    def _compile(self) -> list[tuple]:
        """Build the payoff tables and, per provider, the plan that
        averages its table over the opponents' shares.

        The plan replays `np.tensordot` contractions, highest axis first
        (lower axis indices then stay put), with the operand layouts
        tensordot passes to `np.dot`: a transposed table stays a strided
        view, never a contiguous copy, so every sum runs in the same order
        and the field keeps its bits.  The first contraction's operand is
        static and is built here.  A provider without opponents has its
        table as its payoff.  Each provider's entry also carries its index,
        its slice of the flat state and its `_utilization_cost` terms, so
        the field loop looks nothing else up.
        """
        shape = self.block_sizes
        tables = [np.zeros(shape) for _ in self.eips]
        for levels in itertools.product(*[range(s) for s in shape]):
            for table, value in zip(tables, self._base_payoffs(levels)):
                table[levels] = value
        plan = []
        for i, table in enumerate(tables):
            steps, dims = [], list(shape)
            for other in reversed(range(len(shape))):
                if other == i:
                    continue
                kept = [k for k in range(len(dims)) if k != other]
                flat2d = (math.prod(dims[k] for k in kept), dims[other])
                steps.append((other, tuple(dims), kept + [other], flat2d))
                dims = [dims[k] for k in kept]
            fixed = (i, self._slices[i]) + self._cost_terms[i]
            if not steps:
                plan.append((table, None, ()) + fixed)
                continue
            first, _, axes, flat2d = steps[0]
            plan.append((table.transpose(axes).reshape(flat2d), first, tuple(steps[1:]))
                        + fixed)
        self._plan = plan
        return plan

    def payoff_vector(self, i: int, x: MixedStrategyProfile) -> np.ndarray:
        """Expected payoff of each strategy of provider i against the
        opponents' mixed strategies.
        """
        payoffs = []
        self._field(x.flat, 1.0, payoffs)
        return payoffs[i]

    def average_payoff(self, i: int, x: MixedStrategyProfile) -> float:
        return float(x.blocks[i] @ self.payoff_vector(i, x))

    # ------------------------------------------------------------------
    # replicator dynamics

    def rhs_flat(self, flat: np.ndarray, gamma: float) -> np.ndarray:
        """Growth rate of every strategy share, gamma * x_ij * (u_ij - u_i),
        on the flat state vector (laid out as `MixedStrategyProfile.flat`),
        without profile validation.
        """
        return self._field(flat, gamma)

    def _field(self, flat: np.ndarray, gamma: float,
               payoffs: Optional[list] = None) -> np.ndarray:
        """The replicator field at `flat`; when `payoffs` is a list, each
        provider's expected payoff vector is appended to it."""
        blocks = [flat[sl] for sl in self._slices]
        # gamma * xi * (u - ubar), rounded step by step in that order
        out = flat * gamma
        plan = self._plan or self._compile()
        for operand, first, rest, i, sl, js, clouds, capacity, scale, divisor in plan:
            if first is None:
                u = operand.copy()
            else:
                u = operand.dot(blocks[first])
                for other, dims, axes, flat2d in rest:
                    u = u.reshape(dims).transpose(axes).reshape(flat2d).dot(blocks[other])
            xi = blocks[i]
            cost = _utilization_cost(xi, js, clouds, capacity, scale, divisor)
            if cost is not None:
                u -= cost
            if payoffs is not None:
                payoffs.append(u.copy())
            u -= xi.dot(u)
            rate = out[sl]
            rate *= u
        return out
