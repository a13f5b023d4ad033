"""Scenario configuration: JSON ingestion with exhaustive validation,
canonical emission with a fixed field order, and content hashing for
output provenance.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .fractional import SolverConfig
from .game import EipConfig, MixedStrategyProfile, TaskSpec

EIP_FIELDS = ("index", "num_clouds", "max_workers", "fixed_cost",
              "calibration_ratio", "cpu_cost", "capacity")
TASK_FIELDS = ("n", "k", "r0", "r1", "r2", "cycles", "rate")
SOLVER_FIELDS = ("alpha", "horizon", "steps", "corrector_iterations", "memory_truncation")


class ConfigError(ValueError):
    """Carries every violation found in a config, not just the first."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.problems))


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully specified simulation scenario."""

    eips: tuple[EipConfig, ...]
    tasks: tuple[TaskSpec, ...]
    solver: SolverConfig
    gamma: float
    initial_profile: Optional[tuple[tuple[float, ...], ...]] = None  # None = uniform
    utilization_cost_literal: bool = False

    def initial_mixed_profile(self) -> MixedStrategyProfile:
        if self.initial_profile is None:
            return MixedStrategyProfile.uniform(self.eips)
        return MixedStrategyProfile([np.asarray(b) for b in self.initial_profile])

    def to_dict(self) -> dict:
        # fixed field order for reproducible hashing
        return {
            "eips": [{f: getattr(e, f) for f in EIP_FIELDS} for e in self.eips],
            "tasks": [{f: getattr(t, f) for f in TASK_FIELDS} for t in self.tasks],
            "solver": {
                "alpha": self.solver.alpha,
                "horizon": self.solver.horizon,
                "steps": self.solver.steps,
                "corrector_iterations": self.solver.corrector_iterations,
                "memory_truncation": self.solver.memory_truncation,
            },
            "gamma": self.gamma,
            "initial_profile": (None if self.initial_profile is None
                                else [list(b) for b in self.initial_profile]),
            "flags": {
                "utilization_cost_literal": self.utilization_cost_literal,
            },
        }

    def content_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"),
                               allow_nan=False)
        return hashlib.sha256(canonical.encode()).hexdigest()


def emit_config(config: ScenarioConfig, path) -> None:
    Path(path).write_text(json.dumps(config.to_dict(), indent=2) + "\n")


def _check_fields(raw: dict, fields, path: str, problems: list[str],
                  optional=()) -> bool:
    ok = True
    for f in fields:
        if f not in raw and f not in optional:
            problems.append(f"{path}.{f}: missing")
            ok = False
    for f in raw:
        if f not in fields:
            problems.append(f"{path}.{f}: unknown field")
            ok = False
    return ok


def _with_field_path(path: str, err: str, fields) -> str:
    first = err.split(" ")[0]
    return f"{path}.{first}: {err}" if first in fields else f"{path}: {err}"


def parse_config_dict(doc: dict) -> ScenarioConfig:
    problems: list[str] = []
    if not isinstance(doc, dict):
        raise ConfigError(["top level must be an object"])

    eips = []
    for idx, raw in enumerate(doc.get("eips") or []):
        path = f"eips[{idx}]"
        if not _check_fields(raw, EIP_FIELDS, path, problems):
            continue
        errs = EipConfig.validation_errors(raw)
        if errs:
            problems.extend(_with_field_path(path, e, EIP_FIELDS) for e in errs)
        else:
            eips.append(EipConfig(**raw))
    if not doc.get("eips"):
        problems.append("eips: need at least one provider")

    tasks = []
    for idx, raw in enumerate(doc.get("tasks") or []):
        path = f"tasks[{idx}]"
        if not _check_fields(raw, TASK_FIELDS, path, problems):
            continue
        errs = TaskSpec.validation_errors(raw)
        if errs:
            problems.extend(_with_field_path(path, e, TASK_FIELDS) for e in errs)
        else:
            tasks.append(TaskSpec(**raw))
    if not doc.get("tasks"):
        problems.append("tasks: need at least one task type")
    elif tasks and sum(t.rate for t in tasks) <= 0:
        problems.append("tasks: arrival rates must not all be zero")

    solver = None
    raw = doc.get("solver")
    if raw is None:
        problems.append("solver: missing")
    elif _check_fields(raw, SOLVER_FIELDS, "solver", problems,
                       optional=("corrector_iterations", "memory_truncation")):
        errs = SolverConfig.validation_errors(raw)
        if errs:
            problems.extend(_with_field_path("solver", e, SOLVER_FIELDS) for e in errs)
        else:
            solver = SolverConfig(**raw)

    gamma = doc.get("gamma")
    if gamma is None:
        problems.append("gamma: missing")
    elif not isinstance(gamma, (int, float)) or gamma <= 0:
        problems.append(f"gamma: must be a number > 0, got {gamma!r}")

    flags = doc.get("flags") or {}
    literal = bool(flags.get("utilization_cost_literal", False))
    for f in flags:
        if f not in ("utilization_cost_literal",):
            problems.append(f"flags.{f}: unknown flag")

    initial = doc.get("initial_profile")
    if initial is not None and eips and len(eips) == len(doc.get("eips") or []):
        if len(initial) != len(eips):
            problems.append("initial_profile: one block per provider required")
        else:
            for i, (block, e) in enumerate(zip(initial, eips)):
                if len(block) != e.num_strategies:
                    problems.append(f"initial_profile[{i}]: expected length "
                                    f"{e.num_strategies}, got {len(block)}")
                elif abs(sum(block) - 1.0) > 1e-9 or any(v < 0 for v in block):
                    problems.append(f"initial_profile[{i}]: not a probability vector")

    if problems:
        raise ConfigError(problems)
    return ScenarioConfig(
        eips=tuple(eips), tasks=tuple(tasks), solver=solver, gamma=float(gamma),
        initial_profile=(None if initial is None
                         else tuple(tuple(float(v) for v in b) for b in initial)),
        utilization_cost_literal=literal)


def parse_config(path) -> ScenarioConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError([f"config file not found: {p}"])
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError([f"malformed JSON: {exc}"])
    return parse_config_dict(doc)
