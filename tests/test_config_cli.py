import json
import re
from pathlib import Path

import numpy as np
import pytest

from cefsim import cli
from cefsim.cli import main
from cefsim.config import (ConfigError, emit_config, parse_config,
                           parse_config_dict)
from cefsim.evolution import detect_convergence, simulate

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


def test_cli_simulate_unconverged_exit(tmp_path, doc):
    # the heavily subdiffusive run keeps fluctuating and never settles
    doc["solver"]["steps"] = 1500
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    code = main(["simulate", str(p), "--alpha", "0.5",
                 "--out-dir", str(tmp_path / "u")])
    assert code == 3


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


def test_cli_kernel(tmp_path):
    out = tmp_path / "k"
    code = main(["kernel", "--alphas", "0.65,0.8", "--deltas", "0.01:0.05:0.01",
                 "--out-dir", str(out)])
    assert code == 0
    lines = (out / "kernel.csv").read_text().splitlines()
    assert lines[1] == "delta,alpha_0.65,alpha_0.8"
    assert len(lines) == 2 + 5


def test_cli_bad_grid(tmp_path, fast_config, capsys):
    code = main(["sweep", str(fast_config), "--param", "r1",
                 "--grid", "60:10:10", "--out-dir", str(tmp_path)])
    assert code == 1


@pytest.mark.parametrize("grid", ["1:inf:1", "-inf:1:1", "0:1:inf", "0:nan:1"])
@pytest.mark.parametrize("command,flag", [("sweep", "--grid"), ("field", "--grid-spec")])
def test_cli_non_finite_grid(tmp_path, fast_config, capsys, monkeypatch, command, flag, grid):
    # an infinite bound or step never ends the grid loop: it must be refused
    # before the loop, and a regression must fail here rather than fill memory
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
    assert "finite" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("grid", ["1e16:2e16:1", "0:1e9:1"])
@pytest.mark.parametrize("command,flag", [("sweep", "--grid"), ("field", "--grid-spec")])
def test_cli_oversized_grid(tmp_path, fast_config, capsys, monkeypatch, command, flag, grid):
    # a step below the float spacing of lo, or 10^9 values: refused before
    # any value is built, and a regression fails here rather than fill memory
    calls = []
    def bounded_round(v, nd):
        calls.append(v)
        assert len(calls) < 1000, "grid loop ran away"
        return round(v, nd)
    monkeypatch.setattr(cli, "round", bounded_round, raising=False)
    extra = ["--param", "r1"] if command == "sweep" else []
    code = main([command, str(fast_config), *extra, f"{flag}={grid}",
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert f"at most {cli.MAX_GRID_VALUES} values" in capsys.readouterr().err
    assert calls == []


def _loop_grid(text):
    """The accumulating loop that the counted grid replaced."""
    lo, hi, step = (float(x) for x in text.split(":"))
    out, v = [], lo
    while v <= hi + 1e-9 * step:
        out.append(round(v, 12))
        v += step
    return out


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
    with np.errstate(invalid="ignore"):
        code = main(["simulate", str(p), "--out-dir", str(tmp_path / "s")])
    assert code == 2
    assert "numerical abort" in capsys.readouterr().err


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
