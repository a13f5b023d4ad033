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
from typing import Iterator, Mapping, Sequence

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


def block_slices(sizes: Sequence[int]) -> tuple[slice, ...]:
    """The flat layout of a profile: the slice of each block of `sizes`
    entries, the blocks concatenated in order."""
    offsets = itertools.accumulate(sizes, initial=0)
    return tuple(itertools.starmap(slice, itertools.pairwise(offsets)))


class MixedStrategyProfile:
    """Per-provider probability vectors over worker-contribution levels.

    Block i has length L_i + 1 and sums to one; the flat view
    concatenates blocks provider-major, strategy-minor, at the
    `block_slices` of the block sizes.
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
        if sum(sizes) != flat.size:
            raise ValueError("flat vector length does not match block sizes")
        return cls([flat[sl] for sl in block_slices(sizes)])

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


class FederationGame:
    """Expected payoffs and replicator dynamics of the federation game.

    `literal_utilization_cost` switches the per-strategy utilization cost
    between the primitive definition (which divides the amortized cost by
    the provider's cloud count) and the verbatim net-utility formula,
    which omits that division.

    Every strategy's payoff, utilization cost included, is computed once
    per state as one vector laid out like the flat state (`_payoffs`);
    the field and the payoff readers take slices of it.  The payoff
    tables and their contraction plan are built on the first evaluation.
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
        self.slices = block_slices(self.block_sizes)
        self._task_weights = tuple(t.rate / total_rate for t in self.tasks)
        # utilization cost terms: per strategy j, provider and E (None if literal);
        # per provider its slice, levels j, clouds, capacity and -C * rho
        self._js = np.concatenate([np.arange(s, dtype=float) for s in self.block_sizes])
        self._owner = np.repeat(np.arange(len(self.eips)), self.block_sizes)
        self._divisor = None if literal_utilization_cost else np.array(
            [float(e.num_clouds) for e in self.eips])[self._owner]
        self._cost_terms = tuple(
            (sl, self._js[sl], e.num_clouds, e.capacity, -e.fixed_cost * e.calibration_ratio)
            for sl, e in zip(self.slices, self.eips))
        self._plan = None   # lazy: per-provider contraction plan, see _compile
        self._terms = {}    # task -> {placement: per-provider expected terms}

    def flat_state(self, x: MixedStrategyProfile) -> np.ndarray:
        """The flat state of profile x, whose blocks must be the game's."""
        if x.block_sizes != self.block_sizes:
            raise ValueError(f"profile blocks {x.block_sizes} do not match "
                             f"the game's blocks {self.block_sizes}")
        return x.flat

    # ------------------------------------------------------------------
    # utilization and its cost

    def utilization(self, i: int, x: MixedStrategyProfile) -> float:
        sl, js, clouds, capacity, _ = self._cost_terms[i]
        return _utilization(float(js.dot(self.flat_state(x)[sl])), clouds, capacity)

    def utilization_cost(self, i: int, j: int, x: MixedStrategyProfile) -> float:
        """Utilization cost of strategy j of provider i at profile x."""
        return float(self._costs(self.flat_state(x))[self.slices[i]][j])

    def _costs(self, flat: np.ndarray) -> np.ndarray:
        """Utilization cost (j x_ij / s_i) f(w_i) [/ E_i off the literal branch]
        of every strategy, laid out like `flat`; +0 where s_i = sum_j j x_ij = 0."""
        s, f, idle = [], [], []
        for sl, js, clouds, capacity, scale in self._cost_terms:
            si = float(js.dot(flat[sl]))
            if si == 0.0:
                idle.append(sl)
            s.append(si or 1.0)
            f.append(_amortized_cost(scale, _utilization(si, clouds, capacity)))
        # rounded step by step in this order
        cost = self._js * flat
        cost /= np.array(s)[self._owner]
        cost *= np.array(f)[self._owner]
        if self._divisor is not None:
            cost /= self._divisor
        for sl in idle:
            cost[sl] = 0.0
        return cost

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
        table as its payoff.
        """
        shape = self.block_sizes
        tables = [np.zeros(shape) for _ in self.eips]
        for levels in itertools.product(*[range(s) for s in shape]):
            for table, value in zip(tables, self._base_payoffs(levels)):
                table[levels] = value
        plan = []
        for i, (table, sl) in enumerate(zip(tables, self.slices)):
            steps, dims = [], list(shape)
            for other in reversed(range(len(shape))):
                if other == i:
                    continue
                kept = [k for k in range(len(dims)) if k != other]
                flat2d = (math.prod(dims[k] for k in kept), dims[other])
                steps.append((other, tuple(dims), kept + [other], flat2d))
                dims = [dims[k] for k in kept]
            if not steps:
                plan.append((table, None, (), sl))
                continue
            first, _, axes, flat2d = steps[0]
            plan.append((table.transpose(axes).reshape(flat2d), first, tuple(steps[1:]), sl))
        self._plan = plan
        return plan

    def _payoffs(self, flat: np.ndarray) -> np.ndarray:
        """Expected payoff of every strategy against the opponents' mixed
        strategies, less its utilization cost, laid out like `flat`."""
        plan = self._plan or self._compile()
        blocks = [flat[sl] for sl in self.slices]
        u = np.empty(flat.size)
        for operand, first, rest, sl in plan:
            if first is None:
                u[sl] = operand
                continue
            for other, dims, axes, flat2d in rest:
                operand = operand.dot(blocks[first]).reshape(dims).transpose(axes).reshape(flat2d)
                first = other
            operand.dot(blocks[first], out=u[sl])
        u -= self._costs(flat)
        return u

    def payoff_vector(self, i: int, x: MixedStrategyProfile) -> np.ndarray:
        """Payoff of each strategy of provider i at x, its utilization cost included."""
        return self._payoffs(self.flat_state(x))[self.slices[i]]

    def average_payoff(self, i: int, x: MixedStrategyProfile) -> float:
        return float(x.blocks[i] @ self.payoff_vector(i, x))

    # ------------------------------------------------------------------
    # replicator dynamics

    def rhs_flat(self, flat: np.ndarray, gamma: float) -> np.ndarray:
        """Growth rate of every strategy share, gamma * x_ij * (u_ij - u_i),
        on the flat state vector (laid out as `MixedStrategyProfile.flat`),
        without profile validation.
        """
        u = self._payoffs(flat)
        for sl in self.slices:
            ui = u[sl]
            ui -= flat[sl].dot(ui)
        # gamma * x * (u - ubar), rounded step by step in that order
        out = flat * gamma
        out *= u
        return out
