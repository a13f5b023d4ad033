"""Tests of the benchmark's own machinery: generator, tracer and checks.

They run the CLI on cut-down versions of the workloads, so they take a
few seconds.
"""

import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for _p in (str(ROOT / "src"), str(BENCH_DIR)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cefsim import cli  # noqa: E402
from cefsim import evolution, experiments, game  # noqa: E402

SRC = ROOT / "src"
SEED = 1  # not the default seed: cut-down runs are not compared with reference.json


def small(name, tmp_path, steps, seed=SEED):
    """The workload's generated command with fewer solver steps (and, for
    the sweep, a three-point grid)."""
    inv = workloads.generate(name, seed, SRC, tmp_path)
    doc = inv.config_doc()
    doc["solver"]["steps"] = steps
    inv.config_path.write_text(json.dumps(doc))
    changes = {"steps": steps}
    if inv.command == "sweep":
        args = list(inv.args)
        args[args.index("--grid") + 1] = "4:6:1"
        changes.update(args=tuple(args), grid=(4, 5, 6), integrations=3)
    if inv.command == "field":
        changes.update(stride=10, args=inv.args[:-1] + ("10",))
    return dataclasses.replace(inv, **changes)


def traced_run(inv, out_dir):
    tracer = tracing.Tracer()
    with tracer.instrumented():
        code, wall = tracer.run_root(cli.main, inv.argv(out_dir))
    return tracer, code, wall


def test_generator_is_seeded_and_keeps_the_work_fixed(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 5, SRC, tmp_path / "a")
        b = workloads.generate(name, 5, SRC, tmp_path / "b")
        c = workloads.generate(name, 6, SRC, tmp_path / "c")
        assert a.config_path.read_bytes() == b.config_path.read_bytes()
        assert a.args == b.args
        assert (a.config_path.read_bytes(), a.args) != (c.config_path.read_bytes(), c.args)
        assert (a.total_steps, a.command, a.grid) == (c.total_steps, c.command, c.grid)
        doc_a, doc_c = a.config_doc(), c.config_doc()
        assert doc_a["solver"] == doc_c["solver"]
        assert [e["max_workers"] for e in doc_a["eips"]] == \
            [e["max_workers"] for e in doc_c["eips"]]


@pytest.mark.parametrize("seed", range(20))
def test_sweep_scenario_stays_below_saturation(seed, tmp_path):
    doc = workloads.generate("sweep_3p", seed, SRC, tmp_path).config_doc()
    assert len(doc["eips"]) == 3
    for e in doc["eips"]:
        # utilization at the all-max profile, the largest any profile reaches
        assert e["num_clouds"] * e["max_workers"] / e["capacity"] < 0.9


def test_simulate_counts_match_the_scheme(tmp_path):
    steps = 200
    inv = small("simulate_long", tmp_path, steps)
    tracer, code, _ = traced_run(inv, tmp_path / "out")
    assert code in (0, 3)
    names = [s[2] for s in tracer.spans]
    # alpha=0.8, one corrector iteration: 2N+1 rhs calls per simulate,
    # one more per detect_convergence
    assert names.count(tracing.SOLVE) == 1
    assert names.count("evolution.detect_convergence") == 1
    assert names.count(tracing.RHS) == (2 * steps + 1) + 1
    assert names.count("evolution.project_simplex_flat") == steps
    assert tracer.counts["fractional.steps"] == steps
    assert tracer.counts["game.tables_built"] == 1
    assert tracer.missing == []


def test_field_counts_and_repeatability(tmp_path):
    steps = 40
    inv = small("field_windowed", tmp_path, steps)
    runs = [traced_run(inv, tmp_path / f"out{i}") for i in range(2)]
    for tracer, code, _ in runs:
        assert code == 0
        names = [s[2] for s in tracer.spans]
        assert names.count(tracing.SOLVE) == inv.integrations
        assert names.count(tracing.RHS) == inv.integrations * (2 * steps + 1)
        assert tracer.counts["game.tables_built"] == 1
    counts = [(t.counts, Counter(s[2] for s in t.spans)) for t, _, _ in runs]
    assert counts[0] == counts[1]


def test_self_times_partition_the_wall_on_threaded_sweep(tmp_path, monkeypatch):
    monkeypatch.setenv("CEF_THREADS", "2")
    inv = small("sweep_3p", tmp_path, 30)
    tracer, code, wall = traced_run(inv, tmp_path / "out")
    assert code == 0
    m, layer_self, _ = run.layer_metrics(tracing, tracer, wall, threads=2)
    assert m["experiments.rows"] == 3
    assert m["game.tables_built"] == 3
    assert m["game.rhs_calls"] == 3 * (2 * 30 + 1) + 3
    root = next(s for s in tracer.spans if s[2] == tracing.ROOT)
    assert sum(layer_self.values()) == pytest.approx(root[4] - root[3], rel=1e-9)
    assert 0 <= m["trace.unaccounted_s"] < 0.01 * wall
    # rows ran on worker threads but hang under the sweep span
    sweep = next(s for s in tracer.spans if s[2] == "experiments.run_sweep")
    assert {s[1] for s in tracer.spans if s[2] == "experiments._sweep_row"} == {sweep[0]}


def test_tracing_leaves_outputs_and_functions_untouched(tmp_path):
    inv = small("simulate_long", tmp_path, 100)
    before = (game.FederationGame.rhs_flat, evolution.simulate, cli.simulate,
              experiments._sweep_row, cli.parse_config)
    assert cli.main(inv.argv(tmp_path / "plain")) in (0, 3)
    tracer, _, _ = traced_run(inv, tmp_path / "traced")
    after = (game.FederationGame.rhs_flat, evolution.simulate, cli.simulate,
             experiments._sweep_row, cli.parse_config)
    assert before == after
    plain = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert plain == sorted(p.name for p in (tmp_path / "traced").iterdir())
    for name in plain:
        assert (tmp_path / "plain" / name).read_bytes() == \
            (tmp_path / "traced" / name).read_bytes()
    tracer.write(tmp_path / "trace.json")
    assert len(json.loads((tmp_path / "trace.json").read_text())["spans"]) == len(tracer.spans)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_checks_pass_good_output_and_catch_broken_output(name, tmp_path):
    inv = small(name, tmp_path, 40)
    out = tmp_path / "out"
    code = cli.main(inv.argv(out))
    assert checks.check(inv, out, code, None) == []
    assert checks.check(inv, out, 1, None) != []
    ref = checks.reference_entry(inv, out)
    assert checks.check(inv, out, code, ref) == []
    moved = json.loads(json.dumps(ref).replace("0.", "0.1", 1))
    assert checks.check(inv, out, code, moved) != []
    target = {"simulate": "trajectory.csv", "field": "field.json",
              "sweep": "sweep.csv"}[inv.command]
    text = (out / target).read_text()
    if inv.command == "simulate":
        report = json.loads((out / "report.json").read_text())
        report["residual"] *= 1.5
        (out / "report.json").write_text(json.dumps(report))
        assert any("residual" in p for p in checks.check(inv, out, code, None))
        return
    if inv.command == "field":
        doc = json.loads(text)
        doc["polylines"][3][2][0] += 0.25
        (out / target).write_text(json.dumps(doc))
    else:
        lines = text.splitlines()
        (out / target).write_text("\n".join(lines[:-1]) + "\n")
    assert checks.check(inv, out, code, None) != []


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == ["perfbench"]
