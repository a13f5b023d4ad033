"""Output checks for one benchmark invocation of the cefsim CLI.

`check` returns a list of problems; an empty list means the run's
outputs are correct.  Every check reads only the files the CLI wrote and
the generated config.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np

from cefsim.config import parse_config
from cefsim.game import FederationGame

from workloads import DEFAULT_SEED, Invocation

# documented exit codes per command
EXIT_CODES = {"simulate": (0, 3), "field": (0,), "sweep": (0,)}
SIMPLEX_TOL = 1e-9
# report.json residual against the benchmark's own rhs_flat of the
# terminal CSV row (same function on the same bits: equal up to rounding)
RESIDUAL_RTOL = 1e-12
# default-seed reference: shares within 1e-6, convergence times within
# 10 solver steps, so a reordered float sum passes and a changed model fails
REF_SHARE_TOL = 1e-6
REF_TIME_STEPS = 10

REFERENCE = Path(__file__).with_name("reference.json")
SWEEP_COLUMNS = ["n", "x1_last", "x2_last", "u1", "u2",
                 "t_adjacency", "t_neighborhood", "residual"]


def _block_sizes(doc: dict) -> list[int]:
    return [e["max_workers"] + 1 for e in doc["eips"]]


def _check_states(states: np.ndarray, sizes, what: str) -> list[str]:
    problems = []
    if not np.all(np.isfinite(states)):
        return [f"{what}: non-finite state"]
    if np.any(states < 0):
        problems.append(f"{what}: negative share {states.min()!r}")
    pos = 0
    for i, s in enumerate(sizes):
        err = float(np.max(np.abs(states[:, pos:pos + s].sum(axis=1) - 1.0)))
        if err > SIMPLEX_TOL:
            problems.append(f"{what}: block {i} sums off 1 by {err:.3g}")
        pos += s
    return problems


def _opt_float(text: str):
    # the sweep CSV writes an absent convergence time as "None"
    return None if text in ("", "None") else float(text)


def _time_close(got, want, h: float) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= REF_TIME_STEPS * h


def reference_for(inv: Invocation):
    """The committed reference values, for a run of the default seed."""
    if inv.seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE.read_text())[inv.workload]


def check(inv: Invocation, out_dir: Path, code: int, ref) -> list[str]:
    """Problems with one run's outputs; `ref` (or None) from `reference_for`."""
    if code not in EXIT_CODES[inv.command]:
        return [f"exit code {code} not in {EXIT_CODES[inv.command]}"]
    try:
        return {"simulate": _check_simulate, "field": _check_field,
                "sweep": _check_sweep}[inv.command](inv, Path(out_dir), code, ref)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _check_simulate(inv: Invocation, out: Path, code: int, ref) -> list[str]:
    doc = inv.config_doc()
    sizes = _block_sizes(doc)
    h = doc["solver"]["horizon"] / inv.steps
    lines = (out / "trajectory.csv").read_text().splitlines()
    problems = []
    if not lines[0].startswith("# config_hash="):
        problems.append("trajectory.csv: missing metadata line")
    header = lines[1].split(",")
    data = np.loadtxt(lines[2:], delimiter=",", ndmin=2)
    if len(header) != 1 + sum(sizes) or data.shape != (inv.steps + 1, 1 + sum(sizes)):
        return problems + [f"trajectory.csv: shape {data.shape}, header {len(header)} "
                           f"columns; want {(inv.steps + 1, 1 + sum(sizes))}"]
    if data[0, 0] != 0.0 or abs(data[-1, 0] - doc["solver"]["horizon"]) > 1e-12:
        problems.append("trajectory.csv: time grid does not span the horizon")
    states = data[:, 1:]
    problems += _check_states(states, sizes, "trajectory.csv")

    report = json.loads((out / "report.json").read_text())
    terminal = np.concatenate(report["equilibrium"])
    if not np.array_equal(terminal, states[-1]):
        problems.append("report.json: equilibrium differs from the last CSV row")
    if (code == 0) != (report["t_adjacency"] is not None):
        problems.append(f"exit code {code} disagrees with t_adjacency "
                        f"{report['t_adjacency']!r}")
    config = parse_config(inv.config_path)
    game = FederationGame(config.eips, config.tasks,
                          literal_utilization_cost=config.utilization_cost_literal)
    residual = float(np.max(np.abs(game.rhs_flat(states[-1], config.gamma))))
    if not math.isclose(report["residual"], residual, rel_tol=RESIDUAL_RTOL, abs_tol=0.0):
        problems.append(f"report.json: residual {report['residual']!r} != "
                        f"recomputed {residual!r}")
    if not (out / "trajectory.svg").stat().st_size:
        problems.append("trajectory.svg: empty")

    if ref is not None:
        err = float(np.max(np.abs(terminal - np.asarray(ref["equilibrium"]))))
        if err > REF_SHARE_TOL:
            problems.append(f"equilibrium off the reference by {err:.3g}")
        if not _time_close(report["t_adjacency"], ref["t_adjacency"], h):
            problems.append(f"t_adjacency {report['t_adjacency']!r} != "
                            f"reference {ref['t_adjacency']!r}")
    return problems


def _check_field(inv: Invocation, out: Path, code: int, ref) -> list[str]:
    doc = inv.config_doc()
    sizes = _block_sizes(doc)
    field = json.loads((out / "field.json").read_text())
    values = field["grid_values"]
    n_points = len(range(0, inv.steps + 1, inv.stride))
    lines = np.asarray(field["polylines"], dtype=float)
    want = (inv.integrations, n_points, sum(sizes))
    if len(values) ** len(sizes) != inv.integrations or lines.shape != want:
        return [f"field.json: {len(values)} grid values, polylines {lines.shape}; "
                f"want {want}"]
    problems = _check_states(lines.reshape(-1, sum(sizes)), sizes, "field.json")
    # starts follow the CLI's grid: last-strategy mass v, the rest uniform
    for line, combo in zip(lines, itertools.product(values, repeat=len(sizes))):
        start = np.concatenate([np.r_[np.full(s - 1, (1.0 - v) / (s - 1)), v]
                                for s, v in zip(sizes, combo)])
        if float(np.max(np.abs(line[0] - start))) > 1e-12:
            problems.append(f"field.json: polyline from {combo} starts elsewhere")
            break
    if not (out / "field.svg").stat().st_size:
        problems.append("field.svg: empty")

    if ref is not None:
        err = float(np.max(np.abs(lines[:, -1] - np.asarray(ref["terminals"]))))
        if err > REF_SHARE_TOL:
            problems.append(f"field terminals off the reference by {err:.3g}")
    return problems


def _check_sweep(inv: Invocation, out: Path, code: int, ref) -> list[str]:
    doc = inv.config_doc()
    h = doc["solver"]["horizon"] / inv.steps
    text = (out / "sweep.csv").read_text().splitlines()
    rows = list(csv.reader(text[1:]))
    problems = []
    if not text[0].startswith("# config_hash="):
        problems.append("sweep.csv: missing metadata line")
    if rows[0] != SWEEP_COLUMNS or len(rows) - 1 != len(inv.grid) or any(
            len(r) != len(SWEEP_COLUMNS) for r in rows[1:]):
        return problems + [f"sweep.csv: {len(rows) - 1} rows, header {rows[0]}; want "
                           f"{len(inv.grid)} rows of {SWEEP_COLUMNS}"]
    table = [dict(zip(SWEEP_COLUMNS, r)) for r in rows[1:]]
    if [int(r["n"]) for r in table] != list(inv.grid):
        problems.append("sweep.csv: parameter column differs from the grid")
    for r in table:
        shares = [float(r["x1_last"]), float(r["x2_last"])]
        finite = [float(r[c]) for c in ("u1", "u2", "residual")]
        if not all(math.isfinite(v) for v in shares + finite):
            problems.append(f"sweep.csv: non-finite value in row n={r['n']}")
        elif not all(0.0 <= v <= 1.0 + SIMPLEX_TOL for v in shares) or finite[2] < 0:
            problems.append(f"sweep.csv: share or residual out of range in row n={r['n']}")
    if not (out / "sweep.svg").stat().st_size:
        problems.append("sweep.svg: empty")

    if ref is not None:
        for r, want in zip(table, ref["rows"]):
            got = [float(r["x1_last"]), float(r["x2_last"])]
            if max(abs(a - b) for a, b in zip(got, want["shares"])) > REF_SHARE_TOL:
                problems.append(f"sweep row n={r['n']}: shares off the reference")
            t_adj = _opt_float(r["t_adjacency"])
            if not _time_close(t_adj, want["t_adjacency"], h):
                problems.append(f"sweep row n={r['n']}: t_adjacency {t_adj!r} != "
                                f"reference {want['t_adjacency']!r}")
    return problems


def reference_entry(inv: Invocation, out_dir: Path) -> dict:
    """The default-seed reference values for one correct run's outputs."""
    out = Path(out_dir)
    if inv.command == "simulate":
        report = json.loads((out / "report.json").read_text())
        return {"equilibrium": [v for b in report["equilibrium"] for v in b],
                "t_adjacency": report["t_adjacency"]}
    if inv.command == "field":
        field = json.loads((out / "field.json").read_text())
        return {"terminals": [line[-1] for line in field["polylines"]]}
    rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()[1:]))
    return {"rows": [{"n": int(r["n"]),
                      "shares": [float(r["x1_last"]), float(r["x2_last"])],
                      "t_adjacency": _opt_float(r["t_adjacency"])}
                     for r in rows]}
