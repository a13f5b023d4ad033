"""Command-line interface: scenario ingestion, command dispatch, and
result emission (CSV trajectories, JSON reports, SVG quick-looks).

Exit codes: 0 converged, 3 completed but unconverged, 1 usage/config
error, 2 numerical abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ScenarioConfig, parse_config
from .evolution import detect_convergence, direction_field, simulate
from .experiments import SWEEPABLE, SweepSpec, kernel_study, run_sweep
from .fractional import FdeAbortError
from .game import MixedStrategyProfile
from . import svgplot

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NUMERICAL = 2
EXIT_UNCONVERGED = 3

# the largest grid in use, the kernel default, has 500 values
MAX_GRID_VALUES = 100_000


def _fmt(v) -> str:
    if v is None:
        return "None"
    return format(float(v), ".17g")


def _write_csv(path: Path, comment: str, cols, rows) -> None:
    """A comment line, a header, then one line of `_fmt` values per row."""
    lines = [comment, ",".join(cols)]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _metadata(config: ScenarioConfig, alpha: float) -> dict:
    return {
        "config_hash": config.content_hash(),
        "alpha": alpha,
        "gamma": config.gamma,
        "steps": config.solver.steps,
        "version": __version__,
    }


def _meta_comment(meta: dict) -> str:
    return "# " + " ".join(f"{k}={v}" for k, v in meta.items())


def _solver(config: ScenarioConfig, alpha: float | None):
    solver = config.solver
    if alpha is not None:
        solver = dataclasses.replace(solver, alpha=alpha)
    return solver


def _parse_grid(text: str) -> list[float]:
    try:
        lo, hi, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise ValueError(f"grid must be lo:hi:step, got {text!r}")
    if not np.isfinite((lo, hi, step)).all():
        raise ValueError(f"grid bounds and step must be finite, got {text!r}")
    if step <= 0 or hi < lo:
        raise ValueError(f"grid must be increasing with positive step, got {text!r}")
    span = (hi - lo) / step + 1e-9
    if not span < MAX_GRID_VALUES:  # also when the quotient overflows to inf
        raise ValueError(f"grid must have at most {MAX_GRID_VALUES} values, got {text!r}")
    return [round(lo + k * step, 12) for k in range(math.floor(span) + 1)]


def _last_columns(config: ScenarioConfig) -> list[int]:
    """Flat-state column of each provider's last strategy (its largest
    contribution)."""
    return [c - 1 for c in itertools.accumulate(e.num_strategies for e in config.eips)]


def cmd_simulate(args) -> int:
    config = parse_config(args.config)
    solver = _solver(config, args.alpha)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    traj = simulate(config.game(), config.initial_mixed_profile(), solver, config.gamma)
    report = detect_convergence(traj)
    meta = _metadata(config, solver.alpha)

    header = ["t"] + [f"x_{i + 1}_{j}" for i, e in enumerate(config.eips)
                      for j in range(e.num_strategies)]
    _write_csv(out / "trajectory.csv", _meta_comment(meta), header,
               ([t, *state] for t, state in zip(traj.times, traj.states)))

    doc = {
        "equilibrium": [[float(v) for v in b] for b in report.equilibrium.blocks],
        "t_adjacency": report.t_adjacency,
        "t_neighborhood": report.t_neighborhood,
        "utilities": list(report.utilities),
        "residual": report.residual,
        **meta,
    }
    (out / "report.json").write_text(json.dumps(doc, indent=2) + "\n")

    series = {f"x_{i + 1}_{e.max_workers}": traj.states[:, col].tolist()
              for i, (e, col) in enumerate(zip(config.eips, _last_columns(config)))}
    svgplot.line_plot(out / "trajectory.svg", traj.times.tolist(), series,
                      title=f"last-strategy shares, alpha={solver.alpha}",
                      xlabel="t", ylabel="share")
    return EXIT_OK if report.t_adjacency is not None else EXIT_UNCONVERGED


def cmd_sweep(args) -> int:
    config = parse_config(args.config)
    # integral values become ints, which the integer parameters require
    grid = tuple(int(v) if v.is_integer() else v for v in _parse_grid(args.grid))
    spec = SweepSpec(args.param, grid,
                     dataclasses.replace(config, solver=_solver(config, args.alpha)))
    rows = run_sweep(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = _metadata(config, spec.base.solver.alpha)
    _write_csv(out / "sweep.csv", _meta_comment(meta), rows[0].keys(),
               (row.values() for row in rows))
    svgplot.line_plot(out / "sweep.svg", [float(r[args.param]) for r in rows],
                      {c: [float(r[c]) for r in rows]
                       for c in ("x1_last", "x2_last")},
                      title=f"sweep over {args.param}", xlabel=args.param,
                      ylabel="equilibrium share")
    return EXIT_OK


def _field_grid(config: ScenarioConfig, values) -> list[MixedStrategyProfile]:
    """Initial profiles with each provider's last-strategy mass set to a
    grid value and the remainder spread uniformly over the other levels.
    """
    profiles = []
    for combo in itertools.product(values, repeat=len(config.eips)):
        blocks = []
        for e, v in zip(config.eips, combo):
            b = np.full(e.num_strategies, (1.0 - v) / (e.num_strategies - 1))
            b[-1] = v
            blocks.append(b)
        profiles.append(MixedStrategyProfile(blocks))
    return profiles


def cmd_field(args) -> int:
    config = parse_config(args.config)
    solver = _solver(config, args.alpha)
    values = _parse_grid(args.grid_spec)
    grid = _field_grid(config, values)
    polylines = direction_field(config.game(), grid, solver, config.gamma,
                                stride=args.stride)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = _metadata(config, solver.alpha)
    doc = {**meta,
           "grid_values": values,
           "stride": args.stride,
           "polylines": [[[float(v) for v in state] for state in line]
                         for line in polylines]}
    (out / "field.json").write_text(json.dumps(doc, indent=2) + "\n")
    # project onto the first two providers' last-strategy shares for the
    # quick-look; a lone provider is plotted against itself
    last = _last_columns(config)
    idx1, idx2 = last[0], last[min(1, len(last) - 1)]
    svgplot.polyline_plot(out / "field.svg",
                          [[(state[idx1], state[idx2]) for state in line]
                           for line in polylines],
                          title=f"direction field, alpha={solver.alpha}",
                          xlabel="x_1_last", ylabel="x_2_last")
    return EXIT_OK


def cmd_kernel(args) -> int:
    alphas = [float(v) for v in args.alphas.split(",")]
    deltas = _parse_grid(args.deltas)
    rows = kernel_study(alphas, deltas)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cols = list(rows[0].keys())
    _write_csv(out / "kernel.csv", f"# version={__version__}", cols,
               (row.values() for row in rows))
    svgplot.line_plot(out / "kernel.svg", deltas,
                      {c: [float(r[c]) for r in rows] for c in cols[1:]},
                      title="memory weight vs time gap", xlabel="delta",
                      ylabel="weight")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cefsim",
        description="Deterministic simulator for the coded-edge-federation "
                    "evolutionary game with fractional replicator dynamics.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate one trajectory and report convergence")
    p.add_argument("config")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="equilibrium sweep over one parameter")
    p.add_argument("config")
    p.add_argument("--param", required=True, choices=SWEEPABLE)
    p.add_argument("--grid", required=True, help="lo:hi:step")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("field", help="direction field from a grid of initial profiles")
    p.add_argument("config")
    p.add_argument("--grid-spec", default="0.2:0.6:0.1", help="lo:hi:step for each provider's last-strategy mass")
    p.add_argument("--stride", type=int, default=200)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("kernel", help="memory-kernel weight table")
    p.add_argument("--alphas", required=True, help="comma-separated orders")
    p.add_argument("--deltas", default="0.0001:0.05:0.0001", help="lo:hi:step")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_kernel)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ERROR
    except FdeAbortError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
