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

from ._fields import is_real
from .fractional import SolverConfig
from .game import EipConfig, FederationGame, MixedStrategyProfile, TaskSpec

EIP_FIELDS = ("index", "num_clouds", "max_workers", "fixed_cost",
              "calibration_ratio", "cpu_cost", "capacity")
TASK_FIELDS = ("n", "k", "r0", "r1", "r2", "cycles", "rate")
SOLVER_FIELDS = ("alpha", "horizon", "steps", "corrector_iterations", "memory_truncation")
TOP_FIELDS = ("eips", "tasks", "solver", "gamma", "initial_profile", "flags")


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

    def game(self) -> FederationGame:
        return FederationGame(self.eips, self.tasks,
                              literal_utilization_cost=self.utilization_cost_literal)

    def initial_mixed_profile(self) -> MixedStrategyProfile:
        if self.initial_profile is None:
            return MixedStrategyProfile.uniform(self.eips)
        return MixedStrategyProfile([np.asarray(b) for b in self.initial_profile])

    def to_dict(self) -> dict:
        # fixed field order for reproducible hashing
        return {
            "eips": [{f: getattr(e, f) for f in EIP_FIELDS} for e in self.eips],
            "tasks": [{f: getattr(t, f) for f in TASK_FIELDS} for t in self.tasks],
            "solver": {f: getattr(self.solver, f) for f in SOLVER_FIELDS},
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


def _is_json(value, kind: type, path: str, problems: list[str]) -> bool:
    """Whether `value` has JSON type `kind` (list or dict); else a problem."""
    if isinstance(value, kind):
        return True
    problems.append(f"{path}: must be {'a list' if kind is list else 'an object'}, got {value!r}")
    return False


def parse_config_dict(doc: dict) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError(["top level must be an object"])
    problems = [f"{key}: unknown field" for key in doc if key not in TOP_FIELDS]

    parsed = {}
    for key, cls, names, noun in (("eips", EipConfig, EIP_FIELDS, "provider"),
                                  ("tasks", TaskSpec, TASK_FIELDS, "task type")):
        parsed[key] = []
        if not doc.get(key):
            problems.append(f"{key}: need at least one {noun}")
        elif _is_json(doc[key], list, key, problems):
            for idx, raw in enumerate(doc[key]):
                path = f"{key}[{idx}]"
                if _is_json(raw, dict, path, problems) and _check_fields(raw, names, path, problems):
                    errs = cls.validation_errors(raw)
                    problems.extend(_with_field_path(path, e, names) for e in errs)
                    if not errs:
                        parsed[key].append(cls(**raw))
    eips, tasks = parsed["eips"], parsed["tasks"]
    if tasks and sum(t.rate for t in tasks) <= 0:
        problems.append("tasks: arrival rates must not all be zero")

    solver = None
    raw = doc.get("solver")
    if raw is None:
        problems.append("solver: missing")
    elif _is_json(raw, dict, "solver", problems) and _check_fields(
            raw, SOLVER_FIELDS, "solver", problems,
            optional=("corrector_iterations", "memory_truncation")):
        errs = SolverConfig.validation_errors(raw)
        problems.extend(_with_field_path("solver", e, SOLVER_FIELDS) for e in errs)
        if not errs:
            solver = SolverConfig(**raw)

    gamma = doc.get("gamma")
    if gamma is None:
        problems.append("gamma: missing")
    elif not is_real(gamma) or gamma <= 0:
        problems.append(f"gamma: must be a number > 0, got {gamma!r}")

    literal = False
    flags = doc.get("flags")
    if flags is not None and _is_json(flags, dict, "flags", problems):
        for f, v in flags.items():
            if f != "utilization_cost_literal":
                problems.append(f"flags.{f}: unknown flag")
            elif not isinstance(v, bool):
                problems.append(f"flags.{f}: {f} must be true or false, got {v!r}")
            else:
                literal = v

    initial = doc.get("initial_profile")
    if initial is not None and _is_json(initial, list, "initial_profile", problems):
        sizes = [e.num_strategies for e in eips] if eips and len(eips) == len(doc["eips"]) else None
        if sizes and len(initial) != len(sizes):
            problems.append("initial_profile: one block per provider required")
            sizes = None
        for i, block in enumerate(initial):
            path = f"initial_profile[{i}]"
            if not (isinstance(block, list) and all(map(is_real, block))):
                problems.append(f"{path}: must be a list of finite numbers, got {block!r}")
            elif sizes and len(block) != sizes[i]:
                problems.append(f"{path}: expected length {sizes[i]}, got {len(block)}")
            elif abs(sum(block) - 1.0) > 1e-9 or any(v < 0 for v in block):
                problems.append(f"{path}: not a probability vector")

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
