"""Command-line interface: scenario ingestion, command dispatch, and
result emission (CSV trajectories, JSON reports, SVG quick-looks).

Exit codes: 0 converged, 3 completed but unconverged, 1 usage/config
error, 2 numerical abort.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ScenarioConfig, parse_config
from .evolution import detect_convergence, direction_field, simulate
from .experiments import SWEEPABLE, SweepSpec, kernel_study, run_sweep, scenario_at
from .fractional import FdeAbortError
from .game import MixedStrategyProfile
from . import svgplot

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NUMERICAL = 2
EXIT_UNCONVERGED = 3

# the largest grid in use, the kernel default, has 500 values; also caps field starts
MAX_GRID_VALUES = 100_000
# rows of trajectory.csv formatted at a time
CSV_CHUNK = 1000


def _fmt(v) -> str:
    if v is None:
        return "None"
    return format(float(v), ".17g")


def _write_csv(path: Path, comment: str, cols, rows) -> None:
    """A comment line, a header, then one line of `_fmt` values per row."""
    lines = [comment, ",".join(cols)]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _write_float_csv(path: Path, comment: str, cols, *columns: np.ndarray) -> None:
    """`_write_csv` of float columns: the 1-D and 2-D arrays in `columns`,
    one row per sample, side by side.  Rows are formatted CSV_CHUNK at a
    time; '%.17g' % v is `_fmt(v)` for every float, so the bytes are the
    same.
    """
    line = ",".join(["%.17g"] * len(cols)) + "\n"
    with path.open("w") as f:
        f.write(f"{comment}\n{','.join(cols)}\n")
        for a in range(0, len(columns[0]), CSV_CHUNK):
            rows = np.column_stack([c[a:a + CSV_CHUNK] for c in columns]).tolist()
            f.write("".join([line % tuple(row) for row in rows]))


def _metadata(config: ScenarioConfig, run: ScenarioConfig) -> dict:
    return {
        "config_hash": config.content_hash(),
        "alpha": run.solver.alpha,
        "gamma": run.gamma,
        "steps": run.solver.steps,
        "version": __version__,
    }


def _meta_comment(meta: dict) -> str:
    return "# " + " ".join(f"{k}={v}" for k, v in meta.items())


def _scenarios(args) -> tuple[ScenarioConfig, ScenarioConfig]:
    """The config as read, whose hash is the provenance of every artifact,
    and the scenario the command runs: the config with `--alpha`
    substituted as a sweep substitutes a grid value, when it is given."""
    config = parse_config(args.config)
    run = config if args.alpha is None else scenario_at(config, "alpha", args.alpha)
    return config, run


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


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


def cmd_simulate(args) -> int:
    config, run = _scenarios(args)
    out = _out_dir(args)

    game = run.game()
    traj = simulate(game, run.initial_mixed_profile(), run.solver, run.gamma)
    report = detect_convergence(traj)
    meta = _metadata(config, run)

    # x_i_j: the share of provider i's strategy j, one per flat-state column
    names = [f"x_{i + 1}_{j}" for i, s in enumerate(game.block_sizes) for j in range(s)]
    _write_float_csv(out / "trajectory.csv", _meta_comment(meta), ["t"] + names,
                     traj.times, traj.states)

    doc = {
        "equilibrium": [[float(v) for v in b] for b in report.equilibrium.blocks],
        "t_adjacency": report.t_adjacency,
        "t_neighborhood": report.t_neighborhood,
        "utilities": list(report.utilities),
        "residual": report.residual,
        **meta,
    }
    (out / "report.json").write_text(json.dumps(doc, indent=2) + "\n")

    series = {names[sl.stop - 1]: traj.states[:, sl.stop - 1].tolist() for sl in game.slices}
    svgplot.line_plot(out / "trajectory.svg", traj.times.tolist(), series,
                      title=f"last-strategy shares, alpha={run.solver.alpha}",
                      xlabel="t", ylabel="share")
    return EXIT_OK if report.t_adjacency is not None else EXIT_UNCONVERGED


def cmd_sweep(args) -> int:
    config, run = _scenarios(args)
    # integral values become ints, which the integer parameters require
    grid = tuple(int(v) if v.is_integer() else v for v in _parse_grid(args.grid))
    rows = run_sweep(SweepSpec(args.param, grid, run))
    out = _out_dir(args)
    _write_csv(out / "sweep.csv", _meta_comment(_metadata(config, run)), rows[0].keys(),
               (row.values() for row in rows))
    svgplot.line_plot(out / "sweep.svg", [float(r[args.param]) for r in rows],
                      {c: [float(r[c]) for r in rows]
                       for c in ("x1_last", "x2_last") if c in rows[0]},
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
    config, run = _scenarios(args)
    values = _parse_grid(args.grid_spec)
    starts = len(values) ** len(run.eips)
    if starts > MAX_GRID_VALUES:
        raise ValueError(f"field must have at most {MAX_GRID_VALUES} starts, got {starts} "
                         f"({len(values)} grid values for {len(run.eips)} providers)")
    grid = _field_grid(run, values)
    game = run.game()
    polylines = direction_field(game, grid, run.solver, run.gamma, stride=args.stride)
    out = _out_dir(args)
    meta = _metadata(config, run)
    doc = {**meta,
           "grid_values": values,
           "stride": args.stride,
           "polylines": [[[float(v) for v in state] for state in line]
                         for line in polylines]}
    (out / "field.json").write_text(json.dumps(doc, indent=2) + "\n")
    # project onto the first two providers' last-strategy shares for the
    # quick-look; a lone provider is plotted against itself
    idx1, idx2 = (sl.stop - 1 for sl in (game.slices * 2)[:2])
    svgplot.polyline_plot(out / "field.svg",
                          [[(state[idx1], state[idx2]) for state in line]
                           for line in polylines],
                          title=f"direction field, alpha={run.solver.alpha}",
                          xlabel="x_1_last", ylabel="x_2_last")
    return EXIT_OK


def cmd_kernel(args) -> int:
    alphas = [float(v) for v in args.alphas.split(",")]
    deltas = _parse_grid(args.deltas)
    rows = kernel_study(alphas, deltas)
    out = _out_dir(args)
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
    # the options shared by the commands: the scenario run, and where to write
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("config")
    scenario.add_argument("--alpha", type=float, default=None)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out-dir", default=".")

    p = sub.add_parser("simulate", parents=[scenario, output],
                       help="integrate one trajectory and report convergence")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", parents=[scenario, output],
                       help="equilibrium sweep over one parameter")
    p.add_argument("--param", required=True, choices=SWEEPABLE)
    p.add_argument("--grid", required=True, help="lo:hi:step")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("field", parents=[scenario, output],
                       help="direction field from a grid of initial profiles")
    p.add_argument("--grid-spec", default="0.2:0.6:0.1", help="lo:hi:step for each provider's last-strategy mass")
    p.add_argument("--stride", type=int, default=200)
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("kernel", parents=[output], help="memory-kernel weight table")
    p.add_argument("--alphas", required=True, help="comma-separated orders")
    p.add_argument("--deltas", default="0.0001:0.05:0.0001", help="lo:hi:step")
    p.set_defaults(func=cmd_kernel)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else 0
    try:
        with np.errstate(all="ignore"):  # a non-finite state aborts (exit 2) anyway
            return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ERROR
    except FdeAbortError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
