"""Scenario configuration: JSON ingestion with exhaustive validation,
canonical emission with a fixed field order, and content hashing for
output provenance.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._fields import is_real
from .fractional import SolverConfig
from .game import (EipConfig, FederationGame, MixedStrategyProfile, TaskSpec,
                   profile_count_problem, simplex_problem)

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
        # fixed field order, each record's in declaration order
        return {
            "eips": [asdict(e) for e in self.eips],
            "tasks": [asdict(t) for t in self.tasks],
            "solver": asdict(self.solver),
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


def _is_json(value, kind: type, path: str, problems: list[str]) -> bool:
    """Whether `value` has JSON type `kind` (list or dict); else a problem."""
    if isinstance(value, kind):
        return True
    problems.append(f"{path}: must be {'a list' if kind is list else 'an object'}, got {value!r}")
    return False


def _record(raw, cls, path: str, problems: list[str]):
    """The record of class `cls` that the JSON object `raw` declares, or
    None once its problems, prefixed with `path`, are added to `problems`.
    """
    if not _is_json(raw, dict, path, problems):
        return None
    names = [f.name for f in fields(cls)]
    errs = [f"{path}.{f}: missing" for f in names
            if f not in raw and f not in cls.json_optional]
    errs += [f"{path}.{f}: unknown field" for f in raw if f not in names]
    if not errs:
        errs = [f"{path}.{f}: {msg}" if f else f"{path}: {msg}"
                for f, msg in cls.validation_errors(raw)]
    problems.extend(errs)
    return None if errs else cls(**raw)


def parse_config_dict(doc: dict) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError(["top level must be an object"])
    problems = [f"{key}: unknown field" for key in doc if key not in TOP_FIELDS]

    parsed = {}
    for key, cls, noun in (("eips", EipConfig, "provider"), ("tasks", TaskSpec, "task type")):
        parsed[key] = []
        if not doc.get(key):
            problems.append(f"{key}: need at least one {noun}")
        elif _is_json(doc[key], list, key, problems):
            records = [_record(raw, cls, f"{key}[{i}]", problems)
                       for i, raw in enumerate(doc[key])]
            parsed[key] = [r for r in records if r is not None]
    eips, tasks = parsed["eips"], parsed["tasks"]
    if problem := profile_count_problem(eips):
        problems.append(f"eips: {problem}")
    if tasks and sum(t.rate for t in tasks) <= 0:
        problems.append("tasks: arrival rates must not all be zero")

    solver = None
    if doc.get("solver") is None:
        problems.append("solver: missing")
    else:
        solver = _record(doc["solver"], SolverConfig, "solver", problems)

    gamma = doc.get("gamma")
    if gamma is None:
        problems.append("gamma: missing")
    elif not is_real(gamma) or gamma <= 0:
        problems.append(f"gamma: must be a finite number > 0, got {gamma!r}")

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
            elif problem := simplex_problem(block):
                problems.append(f"{path}: {problem}")

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
