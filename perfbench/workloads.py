"""Seeded workload generator for the cefsim benchmark.

Each workload is one `cefsim` CLI command on a config written from the
bundled two-provider scenario.  The seed varies only continuous inputs
(an initial profile, a grid offset, the third provider's clouds,
capacity and costs), so the amount of solver work is the same for every
seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Runs that use the default seed are also compared with reference.json.
DEFAULT_SEED = 0
ALPHA = 0.8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stresses: str
    bypasses: str


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "simulate_long",
            why="simulate, 10^4 steps, full memory: O(N^2) history quadrature, "
                "20k rhs calls and the 3 MB CSV writer dominate; one table build",
            stresses="fractional history quadrature, game rhs, evolution "
                     "projection, cli writer",
            bypasses="repeated table builds, the experiments sweep pool"),
        Workload(
            "field_windowed",
            why="field, 25 starts x 1000 steps, window 100: per-step fixed cost "
                "(rhs, projection, step loop) with bounded history",
            stresses="game rhs, evolution projection, the Python step loop",
            bypasses="long-history quadrature, repeated table builds, the "
                     "experiments sweep pool, convergence detection"),
        Workload(
            "sweep_3p",
            why="sweep n=4..16 on three providers, 1000 steps, window 100, "
                "CEF_THREADS=2: 13 fresh payoff tables, n-provider field, "
                "threaded rows",
            stresses="game table builds, the n-provider tensordot field, "
                     "experiments rows on the thread pool",
            bypasses="long-history quadrature, the large CSV writer"),
    )
}


@dataclass(frozen=True)
class Invocation:
    """One generated CLI command plus the facts its output checks need."""

    workload: str
    seed: int
    command: str                 # simulate | field | sweep
    config_path: Path
    args: tuple[str, ...]        # CLI arguments after the config path
    threads: int                 # CEF_THREADS for the run
    integrations: int            # solver runs the command makes
    steps: int                   # steps per solver run
    stride: int = 0              # field polyline stride
    grid: tuple = ()             # sweep grid values

    @property
    def total_steps(self) -> int:
        return self.integrations * self.steps

    def argv(self, out_dir) -> list[str]:
        return [self.command, str(self.config_path), *self.args,
                "--out-dir", str(out_dir)]

    def config_doc(self) -> dict:
        return json.loads(self.config_path.read_text())


def _interior_block(rng, size: int) -> list[float]:
    # half uniform, half Dirichlet: every share stays >= 0.5/size
    b = 0.5 / size + 0.5 * rng.dirichlet(np.ones(size))
    return [float(v) for v in b / b.sum()]


def generate(name: str, seed: int, src_root: Path, work_dir: Path) -> Invocation:
    """Write the config of workload `name` for `seed` under `work_dir`."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    doc = json.loads((src_root / "cefsim" / "data" / "canonical_scenario.json").read_text())
    solver = doc["solver"]
    solver["alpha"] = ALPHA
    solver["corrector_iterations"] = 1
    extra: dict = {}

    if name == "simulate_long":
        solver.update(steps=10_000, memory_truncation=None)
        doc["initial_profile"] = [_interior_block(rng, e["max_workers"] + 1)
                                  for e in doc["eips"]]
        command, args, threads, integrations = "simulate", (), 1, 1
    elif name == "field_windowed":
        # 1000 steps (not 2000) keeps a repeat near 4 s, so a run holds
        # enough repeats for a steady median; past step 100 every step
        # costs the same, so the per-step profile is unchanged
        solver.update(steps=1000, memory_truncation=100)
        lo = round(0.2 + float(rng.uniform(-0.05, 0.05)), 6)
        hi = round(lo + 0.4, 6)
        stride = 200
        command, threads, integrations = "field", 1, 25
        args = ("--grid-spec", f"{lo!r}:{hi!r}:0.1", "--stride", str(stride))
        extra = {"stride": stride}
    else:
        solver.update(steps=1000, memory_truncation=100)
        clouds = int(rng.integers(80, 141))
        max_workers = 7  # 1.7 s of table builds over the 13 rows, as profiled
        # capacity 1.3-1.6x the all-max contribution: utilization stays
        # below 0.77 for this provider on every profile, far from saturation
        capacity = int(np.ceil(clouds * max_workers * rng.uniform(1.3, 1.6)))
        doc["eips"].append({
            "index": 3, "num_clouds": clouds, "max_workers": max_workers,
            "fixed_cost": float(rng.uniform(1500.0, 3000.0)),
            "calibration_ratio": 1.0,
            "cpu_cost": float(rng.uniform(0.5e-5, 1.5e-5)),
            "capacity": capacity,
        })
        grid = tuple(range(4, 17))
        command, integrations = "sweep", len(grid)
        threads = min(2, os.cpu_count() or 1)
        args = ("--param", "n", "--grid", "4:16:1")
        extra = {"grid": grid}

    work_dir.mkdir(parents=True, exist_ok=True)
    config_path = work_dir / f"{name}-seed{seed}.json"
    config_path.write_text(json.dumps(doc, indent=2) + "\n")
    return Invocation(workload=name, seed=seed, command=command,
                      config_path=config_path, args=args, threads=threads,
                      integrations=integrations, steps=solver["steps"], **extra)
