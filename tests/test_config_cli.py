import itertools
import json
import re
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cefsim import cli
from cefsim.cli import main
from cefsim.config import (ConfigError, emit_config, parse_config,
                           parse_config_dict)
from cefsim.evolution import detect_convergence, simulate
from cefsim.experiments import scenario_at
from cefsim.game import EipConfig, FederationGame, MixedStrategyProfile, TaskSpec

BUNDLED = Path(__file__).resolve().parents[1] / "src/cefsim/data/canonical_scenario.json"


@pytest.fixture
def doc():
    return json.loads(BUNDLED.read_text())


@pytest.fixture
def fast_config(tmp_path, doc):
    # small step budget for quick CLI runs
    doc["solver"]["steps"] = 600
    p = tmp_path / "fast.json"
    p.write_text(json.dumps(doc))
    return p


# ---------------------------------------------------------------- parsing

def test_bundled_config_matches_expected_values():
    cfg = parse_config(BUNDLED)
    e1, e2 = cfg.eips
    assert (e1.num_clouds, e1.max_workers, e1.fixed_cost, e1.capacity) == (100, 4, 1800, 500)
    assert (e2.num_clouds, e2.max_workers, e2.fixed_cost, e2.capacity) == (120, 8, 2800, 1100)
    assert e1.cpu_cost == e2.cpu_cost == 1e-5
    t = cfg.tasks[0]
    assert (t.n, t.k, t.r0, t.r1, t.r2, t.cycles, t.rate) == (6, 4, 30, 30, 10, 1e6, 1.0)
    assert cfg.solver.steps == 10000 and cfg.solver.horizon == 1.0
    assert cfg.utilization_cost_literal
    assert cfg.initial_profile is None
    x0 = cfg.initial_mixed_profile()
    assert x0.block_sizes == (5, 9)


def test_round_trip(tmp_path):
    cfg = parse_config(BUNDLED)
    out = tmp_path / "echo.json"
    emit_config(cfg, out)
    again = parse_config(out)
    assert again == cfg
    assert again.content_hash() == cfg.content_hash()


BUNDLED_HASH = "98b3313d91d910a46952ad576d66e34aa6961f272b73b5ccd68acf43222ee672"
THREE_PROVIDER_HASH = "8b31be7231b94379415a6568203fc05a0d5c325809dcbb130c1acb20037df6df"
BUNDLED_EMITTED = """\
{
  "eips": [
    {
      "index": 1,
      "num_clouds": 100,
      "max_workers": 4,
      "fixed_cost": 1800,
      "calibration_ratio": 1.0,
      "cpu_cost": 1e-05,
      "capacity": 500
    },
    {
      "index": 2,
      "num_clouds": 120,
      "max_workers": 8,
      "fixed_cost": 2800,
      "calibration_ratio": 1.0,
      "cpu_cost": 1e-05,
      "capacity": 1100
    }
  ],
  "tasks": [
    {
      "n": 6,
      "k": 4,
      "r0": 30,
      "r1": 30,
      "r2": 10,
      "cycles": 1000000.0,
      "rate": 1.0
    }
  ],
  "solver": {
    "alpha": 1.0,
    "horizon": 1.0,
    "steps": 10000,
    "corrector_iterations": 1,
    "memory_truncation": null
  },
  "gamma": 0.42,
  "initial_profile": null,
  "flags": {
    "utilization_cost_literal": true
  }
}
"""


def test_hash_and_emitted_bytes_pinned(tmp_path, doc):
    # every output carries config_hash, so the canonical form of a config
    # (field names, order and values) must not drift
    cfg = parse_config(BUNDLED)
    assert cfg.content_hash() == BUNDLED_HASH
    emit_config(cfg, tmp_path / "echo.json")
    assert (tmp_path / "echo.json").read_text() == BUNDLED_EMITTED
    doc["eips"].append({"index": 3, "num_clouds": 110, "max_workers": 7,
                        "fixed_cost": 2100.0, "calibration_ratio": 0.9,
                        "cpu_cost": 2e-5, "capacity": 1200})
    doc["tasks"].append({"n": 9, "k": 5, "r0": 25.5, "r1": 30, "r2": 0,
                         "cycles": 2e6, "rate": 0.5})
    doc["solver"].update(alpha=0.8, memory_truncation=250, corrector_iterations=2)
    doc["initial_profile"] = [[0.2] * 5, [0.125] * 8 + [0.0], [0.5, 0.5] + [0.0] * 6]
    doc["flags"]["utilization_cost_literal"] = False
    assert parse_config_dict(doc).content_hash() == THREE_PROVIDER_HASH


def test_hash_changes_with_content(doc):
    base = parse_config_dict(doc).content_hash()
    doc["gamma"] = 0.9
    assert parse_config_dict(doc).content_hash() != base


def test_all_violations_reported(doc):
    doc["tasks"][0]["k"] = 9          # k > n
    doc["eips"][0]["capacity"] = 300  # below num_clouds * max_workers
    doc["gamma"] = -1
    with pytest.raises(ConfigError) as exc:
        parse_config_dict(doc)
    text = str(exc.value)
    assert "tasks[0].k" in text
    assert "eips[0].capacity" in text
    assert "gamma" in text


def test_unknown_fields_flagged(doc):
    doc["eips"][0]["typo_field"] = 1
    # a misspelt top-level section is an error, not silently dropped
    doc["gama"] = 5
    doc["intial_profile"] = [[1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0, 0]]
    with pytest.raises(ConfigError) as exc:
        parse_config_dict(doc)
    assert exc.value.problems == ["gama: unknown field", "intial_profile: unknown field",
                                  "eips[0].typo_field: unknown field"]


def test_initial_profile_validation(doc):
    doc["initial_profile"] = [[1.0, 0.0, 0.0, 0.0, 0.0], [0.5, 0.5]]
    with pytest.raises(ConfigError, match="initial_profile"):
        parse_config_dict(doc)
    doc["initial_profile"] = [[1.0, 0.0, 0.0, 0.0, 0.0],
                              [1.0, 0, 0, 0, 0, 0, 0, 0, 0]]
    cfg = parse_config_dict(doc)
    assert cfg.initial_mixed_profile().blocks[1][0] == 1.0


# Dirichlet(1) blocks scaled to sum 1 - 1e-9 (default_rng(1), trials 6 and 30):
# Python's sequential sum and numpy's pairwise sum fall on opposite sides
# of the tolerance, so only the profile's own rule reads them alike
OUT_BY_NUMPY_SUM = [0.0942868191168644, 0.13339302905323713, 0.32054834180689107,
                    0.10732180252113072, 0.03298902506485419, 0.001086792765078527,
                    0.040980506732019216, 0.07936836402991333, 0.19002531791001132]
OUT_BY_PYTHON_SUM = [0.23326240634241166, 0.035205953577818035, 0.035150731165491854,
                     0.09135228589497942, 0.03836931644836743, 0.3394675908779597,
                     0.07472091683793916, 0.015954526100109535, 0.13651627175492326]


def test_initial_profile_takes_the_profile_rule(tmp_path, doc):
    doc["solver"]["steps"] = 50
    doc["initial_profile"] = [[0.2] * 5, OUT_BY_NUMPY_SUM]
    with pytest.raises(ValueError, match="block 1 must sum to 1"):
        MixedStrategyProfile(doc["initial_profile"])
    # a config that parses is one whose run starts
    with pytest.raises(ConfigError) as exc:
        parse_config_dict(doc)
    assert exc.value.problems == ["initial_profile[1]: must sum to 1 (got 0.9999999989999999)"]
    doc["initial_profile"][1] = OUT_BY_PYTHON_SUM
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert parse_config(p).initial_mixed_profile().blocks[1].tolist() == OUT_BY_PYTHON_SUM
    # 50 steps are too few to settle: the run ends unconverged, its files written
    assert main(["simulate", str(p), "--out-dir", str(tmp_path / "o")]) == cli.EXIT_UNCONVERGED
    assert (tmp_path / "o" / "report.json").is_file()


@pytest.mark.parametrize("edit,problem", [
    (lambda doc: doc["tasks"][0].update(rate=0), "tasks: arrival rates must not all be zero"),
    (lambda doc: doc["flags"].update(x=True), "flags.x: unknown flag"),
    (lambda doc: doc.update(initial_profile=[[0.2] * 5]),
     "initial_profile: one block per provider required"),
], ids=["zero-rates", "unknown-flag", "block-count"])
def test_config_rejections(doc, edit, problem):
    edit(doc)
    with pytest.raises(ConfigError) as exc:
        parse_config_dict(doc)
    assert exc.value.problems == [problem]


def test_top_level_must_be_object():
    with pytest.raises(ConfigError) as exc:
        parse_config_dict([])
    assert exc.value.problems == ["top level must be an object"]


def test_missing_and_malformed_files(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed"):
        parse_config(bad)


# -------------------------------------------------------------------- CLI

def test_cli_simulate_outputs(tmp_path, fast_config):
    out = tmp_path / "run"
    code = main(["simulate", str(fast_config), "--out-dir", str(out)])
    assert code == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "t," + ",".join(
        [f"x_1_{j}" for j in range(5)] + [f"x_2_{j}" for j in range(9)])
    assert len(lines) == 2 + 601

    report = json.loads((out / "report.json").read_text())
    assert list(report.keys()) == ["equilibrium", "t_adjacency", "t_neighborhood",
                                   "utilities", "residual", "config_hash",
                                   "alpha", "gamma", "steps", "version"]
    assert report["steps"] == 600
    assert (out / "trajectory.svg").exists()


def test_trajectory_writer_matches_row_writer(tmp_path):
    # the one writer, fed chunks from arrays as trajectory.csv is, against
    # `_fmt` row by row: more rows than one chunk, values whose shortest
    # round-trip form is unusual (signed zero, the smallest subnormal, a
    # large integer), Python ints, and a last chunk with a missing
    # convergence time (None), which falls back to `_fmt`
    rng = np.random.default_rng(3)
    rows = 2 * cli.CSV_CHUNK + 17
    times = np.linspace(0.0, 1.0, rows)
    states = rng.normal(0.0, 1.0, (rows, 4)) * 10.0 ** rng.integers(-300, 300, (rows, 4))
    states[::7, 0] = -0.0
    states[1::7, 1] = 5e-324
    states[2::7, 2] = 1e16
    states[3::7, 3] = -5e-324
    ints = [[1, -7, 2 ** 53 + 1, 10 ** 20, True]]
    nones = [[4, 0.25, None, None, 1e-3], [None] * 5]
    cols = ["t", "a", "b", "c", "d"]
    cli._write_csv(tmp_path / "out.csv", "# meta", cols,
                   itertools.chain(ints, cli._array_rows(times, states), nones))
    expected = ints + [[t, *state] for t, state in zip(times, states)] + nones
    assert (tmp_path / "out.csv").read_text() == "\n".join(
        ["# meta", ",".join(cols)] + [",".join(map(cli._fmt, row)) for row in expected]) + "\n"


def test_trajectory_writer_holds_few_rows(tmp_path):
    # simulate_long's trajectory.csv: 10^4 steps of t and 14 shares.  Its
    # rows become Python objects CSV_CHUNK at a time; the bound, about two
    # chunks of rows with their text, fails one whole-array .tolist()
    times = np.linspace(0.0, 1.0, 10_001)
    states = np.random.default_rng(0).random((10_001, 14))
    row_bytes = sys.getsizeof([0.0] * 15) + 15 * sys.getsizeof(0.0)
    tracemalloc.start()
    try:
        cli._write_csv(tmp_path / "trajectory.csv", "# meta", [f"c{j}" for j in range(15)],
                       cli._array_rows(times, states))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * cli.CSV_CHUNK * row_bytes


def test_cli_simulate_unconverged_exit(tmp_path, doc):
    # the heavily subdiffusive run blows up: the explicit solver runs past
    # its stability limit and the simplex projection clamps every step back,
    # so it never settles.  Which side of the adjacency threshold its last
    # steps land on is rounding luck (CHANGES.md FOUND of the far-field
    # change that moved sample 0 into the exponential modes); ROADMAP item 2
    # (solver health) and item 4 (a stable integrator) replace this check
    doc["solver"]["steps"] = 1500
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    code = main(["simulate", str(p), "--alpha", "0.5",
                 "--out-dir", str(tmp_path / "u")])
    assert code == 3
    run = scenario_at(parse_config(p), "alpha", 0.5)
    with np.errstate(all="ignore"):
        traj = simulate(run.game(), run.initial_mixed_profile(), run.solver, run.gamma)
    assert np.max(traj.postprocess_corrections) > 1


def test_cli_simulate_unconverged_exit_on_healthy_run(tmp_path, doc):
    # classical dynamics stopped at t = 0.02, still moving by more than the
    # adjacency threshold per step: exit 3 from slow dynamics, not a blow-up
    doc["solver"].update(alpha=1.0, horizon=0.02, steps=400)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert main(["simulate", str(p), "--out-dir", str(tmp_path / "u")]) == 3
    assert json.loads((tmp_path / "u/report.json").read_text())["t_adjacency"] is None
    cfg = parse_config(p)
    traj = simulate(cfg.game(), cfg.initial_mixed_profile(), cfg.solver, cfg.gamma)
    assert np.max(traj.postprocess_corrections) <= 1e-12


def test_cli_missing_config_is_usage_error(tmp_path, capsys):
    code = main(["simulate", str(tmp_path / "nope.json"),
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert "not found" in capsys.readouterr().err


def test_cli_sweep_and_determinism(tmp_path, fast_config):
    args = ["sweep", str(fast_config), "--param", "r1", "--grid", "10:60:10"]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a/sweep.csv").read_bytes()
    b = (tmp_path / "b/sweep.csv").read_bytes()
    assert a == b
    assert len(a.decode().splitlines()) == 2 + 6  # meta + header + 6 rows


def test_cli_sweep_plots_only_existing_providers(tmp_path, doc):
    del doc["eips"][1:]
    doc["solver"]["steps"] = 100
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert main(["sweep", str(p), "--param", "r1", "--grid", "10:30:10",
                 "--out-dir", str(tmp_path)]) == 0
    svg = (tmp_path / "sweep.svg").read_text()
    assert svg.count("<polyline") == 1
    assert "nan" not in svg and "x2_last" not in svg


def test_cli_one_provider_sweep_columns(tmp_path, doc):
    # a lone provider's sweep has no columns for a second one
    del doc["eips"][1:]
    doc["solver"]["steps"] = 100
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert main(["sweep", str(p), "--param", "r1", "--grid", "10:30:10",
                 "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[1] == "r1,x1_last,u1,t_adjacency,t_neighborhood,residual"
    assert len(lines) == 2 + 3
    assert not any("nan" in line or "x2_last" in line or "u2" in line for line in lines)


def test_cli_sweep_invariant_breach(tmp_path, fast_config, capsys):
    code = main(["sweep", str(fast_config), "--param", "W1",
                 "--grid", "100:200:50", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "capacity" in capsys.readouterr().err


def test_cli_alpha_sweep(tmp_path, fast_config):
    # the grid sets the order; the metadata keeps the base alpha
    code = main(["sweep", str(fast_config), "--param", "alpha", "--grid", "0.9:1:0.1",
                 "--alpha", "0.7", "--out-dir", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert " alpha=0.7 " in lines[0]
    assert [float(line.split(",")[0]) for line in lines[2:]] == [0.9, 1.0]


def test_cli_sweep_starts_from_initial_profile(tmp_path, doc):
    doc["solver"]["steps"] = 600
    doc["initial_profile"] = [[0.1, 0.2, 0.3, 0.2, 0.2], [0.05] * 4 + [0.4] + [0.1] * 4]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert main(["sweep", str(p), "--param", "r1", "--grid", "30:30:1",
                 "--out-dir", str(tmp_path)]) == 0
    header, row = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    got = {c: None if v == "None" else float(v)
           for c, v in zip(header.split(","), row.split(","))}
    # the row is a direct run from the config's start, bit for bit
    sc = parse_config(p)
    rep = detect_convergence(simulate(sc.game(), sc.initial_mixed_profile(),
                                      sc.solver, sc.gamma))
    assert got == {"r1": 30.0, "x1_last": rep.equilibrium.blocks[0][-1],
                   "x2_last": rep.equilibrium.blocks[1][-1],
                   "u1": rep.utilities[0], "u2": rep.utilities[1],
                   "t_adjacency": rep.t_adjacency, "t_neighborhood": rep.t_neighborhood,
                   "residual": rep.residual}


def test_cli_field(tmp_path, fast_config):
    out = tmp_path / "f"
    code = main(["field", str(fast_config), "--grid-spec", "0.3:0.5:0.2",
                 "--stride", "200", "--out-dir", str(out)])
    assert code == 0
    doc = json.loads((out / "field.json").read_text())
    assert len(doc["polylines"]) == 4  # 2 grid values per provider
    assert doc["grid_values"] == [0.3, 0.5]
    assert (out / "field.svg").exists()


@pytest.mark.parametrize("grid,bad", [("0.5:1.5:0.5", "1.5"), ("-0.2:0.2:0.2", "-0.2")])
def test_cli_field_rejects_grid_value_outside_unit_interval(tmp_path, fast_config, capsys,
                                                            grid, bad):
    # a grid value is a last-strategy share: the error names the value,
    # not the profile block it would have produced
    out = tmp_path / "f"
    code = main(["field", str(fast_config), f"--grid-spec={grid}", "--out-dir", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"must lie in [0, 1], got {bad}\n" in err
    assert "block" not in err
    assert not out.exists()


def test_cli_kernel(tmp_path):
    out = tmp_path / "k"
    code = main(["kernel", "--alphas", "0.65,0.8", "--deltas", "0.01:0.05:0.01",
                 "--out-dir", str(out)])
    assert code == 0
    lines = (out / "kernel.csv").read_text().splitlines()
    assert lines[1] == "delta,alpha_0.65,alpha_0.8"
    assert len(lines) == 2 + 5


@pytest.mark.parametrize("alphas", ["0.5,0.5", "0.8,0.5,0.50"])
def test_cli_kernel_rejects_repeated_order(tmp_path, capsys, alphas):
    # one column per order: a repeated order would overwrite its own column
    out = tmp_path / "k"
    code = main(["kernel", "--alphas", alphas, "--out-dir", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: kernel order 0.5 is given more than once\n"
    assert not out.exists()


def test_cli_bad_grid(tmp_path, fast_config, capsys):
    code = main(["sweep", str(fast_config), "--param", "r1",
                 "--grid", "60:10:10", "--out-dir", str(tmp_path)])
    assert code == 1


@pytest.mark.parametrize("grid,message", [
    pytest.param(g, "finite", id=g) for g in ("1:inf:1", "-inf:1:1", "0:1:inf", "0:nan:1")] + [
    pytest.param(g, f"at most {cli.MAX_GRID_VALUES} values", id=g)
    for g in ("1e16:2e16:1", "0:1e9:1")])
@pytest.mark.parametrize("command,flag", [("sweep", "--grid"), ("field", "--grid-spec")])
def test_cli_non_finite_grid(tmp_path, fast_config, capsys, monkeypatch, command, flag,
                             grid, message):
    # a grid that never ends the grid loop (an infinite bound or step) or
    # would fill memory (a step below the float spacing of lo, or 10^9
    # values) must be refused before any value is built, and a regression
    # must fail here rather than fill memory
    calls = []
    def bounded_round(v, nd):
        calls.append(v)
        assert len(calls) < 1000, "grid loop ran away"
        return round(v, nd)
    monkeypatch.setattr(cli, "round", bounded_round, raising=False)
    extra = ["--param", "r1"] if command == "sweep" else []
    # `--flag=value`: argparse would read a separate leading "-inf" as an option
    code = main([command, str(fast_config), *extra, f"{flag}={grid}",
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert calls == []


def _loop_grid(text):
    """The accumulating loop that the counted grid replaced."""
    lo, hi, step = (float(x) for x in text.split(":"))
    out, v = [], lo
    while v <= hi + 1e-9 * step:
        out.append(round(v, 12))
        v += step
    return out


def test_parse_grid_needs_three_fields():
    with pytest.raises(ValueError, match="grid must be lo:hi:step, got '1:2'"):
        cli._parse_grid("1:2")


def test_cli_unknown_command_and_version(capsys):
    assert main(["bogus"]) == 1
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"{cli.__version__}\n"


def test_parse_grid_value_count():
    # the grids in use keep the values their outputs were written with
    for grid in ("0.0001:0.05:0.0001", "0.05:1.0:0.05", "0.2:0.6:0.1",
                 "0.6:1.0:0.1", "10:60:10", "4:16:1", "0.01:0.05:0.01"):
        assert cli._parse_grid(grid) == _loop_grid(grid), grid
    assert cli._parse_grid("1e16:1e16:1") == [1e16]
    assert len(cli._parse_grid(f"1:{cli.MAX_GRID_VALUES}:1")) == cli.MAX_GRID_VALUES
    with pytest.raises(ValueError, match="at most"):
        cli._parse_grid(f"0:{cli.MAX_GRID_VALUES}:1")


@pytest.mark.parametrize("providers", [1, 3])
def test_cli_field_plots_last_strategy_shares(tmp_path, doc, monkeypatch, providers):
    # the quick-look plots provider 1's against provider 2's last-strategy
    # share (a lone provider against itself), whatever follows provider 2
    if providers == 1:
        del doc["eips"][1:]
    else:
        doc["eips"].append({"index": 3, "num_clouds": 110, "max_workers": 7,
                            "fixed_cost": 2100.0, "calibration_ratio": 1.0,
                            "cpu_cost": 1e-5, "capacity": 1200})
    doc["solver"]["steps"] = 100
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    plotted = []
    monkeypatch.setattr(cli.svgplot, "polyline_plot",
                        lambda path, lines, **kw: plotted.extend(lines))
    out = tmp_path / "f"
    assert main(["field", str(cfg), "--grid-spec", "0.3:0.4:0.1", "--stride", "50",
                 "--out-dir", str(out)]) == 0
    x_col, y_col = (4, 4) if providers == 1 else (4, 13)
    lines = json.loads((out / "field.json").read_text())["polylines"]
    assert len(lines) == 2 ** providers
    assert plotted == [[(s[x_col], s[y_col]) for s in line] for line in lines]


def test_cli_simulate_aborts_at_saturation(tmp_path, doc, capsys):
    # capacity == num_clouds * max_workers: a run that starts at the
    # all-max share has utilization 1 and a non-finite field
    doc["eips"][0].update(num_clouds=10, max_workers=4, capacity=40)
    doc["solver"]["steps"] = 50
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert main(["simulate", str(p), "--out-dir", str(tmp_path / "u")]) in (0, 3)
    doc["initial_profile"] = [[0, 0, 0, 0, 1], [1 / 9] * 9]
    p.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["simulate", str(p), "--out-dir", str(tmp_path / "s")])
    assert code == 2
    # no numpy warning precedes the abort message
    assert capsys.readouterr().err == "numerical abort: non-finite state at step 1\n"


@pytest.mark.parametrize("section,field,value", [
    ("gamma", None, 1e300), ("tasks", "r0", 1e300), ("eips", "cpu_cost", 1e300),
    ("eips", "fixed_cost", 1e300), ("solver", "horizon", 1e300),
    ("tasks", "cycles", 1e308),
])
def test_cli_overflow_aborts_with_one_line(tmp_path, doc, capsys, section, field, value):
    if field is None:
        doc[section] = value
    else:
        (doc[section] if section == "solver" else doc[section][0])[field] = value
    doc["solver"]["steps"] = 200
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert main(["simulate", str(p), "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "numerical abort: non-finite state at step 1\n"


def test_cli_unallocatable_run_is_error(tmp_path, doc, capsys):
    # 10^18 steps: the first allocation is refused at once
    doc["solver"]["steps"] = 10 ** 18
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert main(["simulate", str(p), "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1, err


def test_cli_field_start_count_capped(tmp_path, fast_config, capsys):
    # 1001 values per provider pass the grid cap; 1001 ** 2 starts do not,
    # and none is built
    out = tmp_path / "f"
    assert main(["field", str(fast_config), "--grid-spec", "0:1:0.001",
                 "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("error: field must have at most 100000 starts, got 1002001 "
                   "(1001 grid values for 2 providers)\n")
    assert not out.exists()


def test_cli_sweep_precheck_names_grid_value(tmp_path, fast_config, capsys):
    # E1 * L1 = 400 for the bundled scenario: 300 is below it, 400 is not
    code = main(["sweep", str(fast_config), "--param", "W1",
                 "--grid", "300:400:100", "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "W1=300" in err and "capacity" in err
    assert "W1=400" not in err
    # integer parameters take integral grid values only; none is truncated
    code = main(["sweep", str(fast_config), "--param", "n",
                 "--grid", "4.5:6:1", "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "n=4.5: n must be an integer" in err and "n=5.5" in err


@pytest.mark.parametrize("section,field,value", [
    ("tasks", "k", "four"), ("tasks", "rate", None), ("tasks", "r0", [1]),
    ("tasks", "n", 6.0), ("eips", "max_workers", 4.0),
    ("solver", "steps", 100.5), ("solver", "steps", "100"), ("solver", "steps", True),
    ("solver", "memory_truncation", 2.5), ("solver", "memory_truncation", "10"),
    # field None: the whole section is replaced by a value of the wrong JSON type
    ("eips", None, [5]), ("eips", None, 5), ("tasks", None, "x"),
    ("solver", None, [1]), ("flags", None, [1]), ("gamma", None, True),
    ("initial_profile", None, 5),
    ("initial_profile", None, [[0.2] * 5, ["a"] + [0.0] * 8]),
    ("flags", "utilization_cost_literal", "no"),
])
def test_cli_mistyped_field_is_config_error(tmp_path, doc, capsys, section, field, value):
    # a mistyped value is a config error naming the field, never a traceback
    if field is None:
        doc[section] = value
    else:
        target = doc[section] if section in ("solver", "flags") else doc[section][0]
        target[field] = value
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert main(["simulate", str(p), "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    if field is None:
        # the section, or one of its entries, is named
        assert re.search(rf"^  {section}(\[\d+\])?: must be", err, re.M), err
    else:
        path = (f"{section}.{field}" if section in ("solver", "flags")
                else f"{section}[0].{field}")
        assert f"{path}: {field} must be" in err


# the path an error names -> the keys of the config entry
HUGE_NUMBER_KEYS = {
    "gamma": ("gamma",), "eips[0].fixed_cost": ("eips", 0, "fixed_cost"),
    "tasks[0].rate": ("tasks", 0, "rate"), "tasks[0].cycles": ("tasks", 0, "cycles"),
    "initial_profile[1]": ("initial_profile", 1, 0), "solver.steps": ("solver", "steps"),
    "eips[0].num_clouds": ("eips", 0, "num_clouds"), "eips[0].capacity": ("eips", 0, "capacity"),
    "tasks[0].n": ("tasks", 0, "n"), "solver.memory_truncation": ("solver", "memory_truncation"),
}


@pytest.mark.parametrize("path", list(HUGE_NUMBER_KEYS))
def test_cli_number_beyond_float_range_is_config_error(tmp_path, doc, capsys, path):
    # every config number, integer or real, must be finite as a float;
    # 10^400 written out in full is not
    doc["initial_profile"] = [[0.2] * 5, [0.0] * 8 + [1.0]]
    *keys, last = HUGE_NUMBER_KEYS[path]
    target = doc
    for key in keys:
        target = target[key]
    target[last] = 10 ** 400
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert main(["simulate", str(p), "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"\n  {path}: " in err and "Traceback" not in err, err
    assert not (tmp_path / "o").exists()


def test_cli_too_many_pure_profiles_is_config_error(tmp_path, doc, capsys):
    # 7 providers of 9 strategies: 9^7 pure profiles, whose dense tables
    # would take hundreds of MB; the parser refuses them at once
    base = doc["eips"][1]
    doc["eips"] = [dict(base, index=i + 1) for i in range(7)]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["simulate", str(p), "--out-dir", str(tmp_path / "o")]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert f"\n  eips: {9 ** 7} pure profiles" in err, err
    with pytest.raises(ValueError, match=f"{9 ** 7} pure profiles"):
        FederationGame([EipConfig(**e) for e in doc["eips"]],
                       [TaskSpec(**doc["tasks"][0])])
    # a count too long to print in full (Python refuses ints of more than
    # 4300 digits) is named by its order of magnitude
    doc["eips"] = [dict(base, index=i + 1, num_clouds=1, max_workers=10 ** 300,
                        capacity=10 ** 300) for i in range(16)]
    with pytest.raises(ConfigError) as exc:
        parse_config_dict(doc)
    assert exc.value.problems == [
        "eips: about 10^4800 pure profiles (the product of every provider's "
        "max_workers + 1) exceed the limit of 100000"]
