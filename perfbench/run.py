"""cefsim benchmark: end-to-end and per-layer metrics of three CLI workloads.

    python3 perfbench/run.py --workload simulate_long --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every metric of every workload

Run from a checkout of the repository; only numpy is needed.  The
benchmark imports cefsim from the checkout's `src/`, generates the
workload's config from `--seed`, and calls `cefsim.cli.main` in this one
process, repeating the command until `--seconds` are spent.  Every
repeat's outputs are checked.  With `--trace 0` it prints the end-to-end
metrics; with `--trace 1` it repeats the command untraced and then
traced, and prints the per-layer metrics.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Scratch outputs, the result record and the trace go to perfbench/.out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / ".out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
MIN_REPEATS = 3          # timed repeats of an untraced run, however long each takes
# a traced run needs one untraced repeat for the overhead and two traced
# ones to show that the counts repeat exactly
MIN_TRACE_REPEATS = (1, 2)
RUN_CAP_S = 120.0        # no repeat starts that would end later, so a run ends within 180 s
# setup_s: fresh processes timed before the repeats, plus one after each
# repeat, so the samples spread over the run like the repeats do
SETUP_BEFORE = 2
TAIL_PERCENTILES = (99.9, 99.0, 90.0)

END_TO_END = {           # name -> unit
    "wall_s": "s", "steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "game.rhs_calls": "count", "game.rhs_us.p50": "us", "game.rhs_s": "s",
    "game.tables_built": "count", "game.table_build_s": "s", "game.self_s": "s",
    "fractional.solves": "count", "fractional.steps": "count",
    "fractional.history_s": "s", "fractional.history_us_per_step": "us",
    "evolution.projections": "count", "evolution.project_us.p50": "us",
    "evolution.detect_s": "s", "evolution.self_s": "s",
    "experiments.rows": "count", "experiments.row_s.p50": "s",
    "experiments.row_s.max": "s", "experiments.parallel_eff": "ratio",
    "cli.write_s": "s", "cli.bytes_written": "B", "cli.self_s": "s",
    "config.parse_s": "s",
    "trace.overhead_s": "s", "trace.unaccounted_s": "s", "trace.spans": "count",
}
# counts that must repeat exactly between traced repeats
COUNTS = ("game.rhs_calls", "game.tables_built", "fractional.solves",
          "fractional.steps", "evolution.projections", "experiments.rows",
          "cli.bytes_written", "trace.spans")


def _import_program():
    """Import cefsim from this checkout's src/ and nowhere else."""
    if not (SRC / "cefsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cefsim package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cefsim
    if Path(cefsim.__file__).resolve().parent != (SRC / "cefsim").resolve():
        sys.exit(f"perfbench: cefsim imported from {cefsim.__file__}, not {SRC}")
    return cefsim


# ----------------------------------------------------------------------
# machine record

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def _git_commit() -> str | None:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _src_digest() -> str:
    """sha256 over src/, which identifies the code where git cannot."""
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(SRC)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def machine_record(threads: int) -> dict:
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "CEF_THREADS": threads,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# ----------------------------------------------------------------------
# measurement

SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
import cefsim
cefsim.parse_config(sys.argv[1])
print(time.perf_counter() - t0, cefsim.__file__)
"""


def measure_setup(config_path: Path) -> float:
    """Seconds to import cefsim and parse the config, in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(config_path)],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    seconds, origin = done.stdout.split()
    if Path(origin).resolve().parent != (SRC / "cefsim").resolve():
        raise RuntimeError(f"setup process imported cefsim from {origin}")
    return float(seconds)


@dataclass
class Repeat:
    wall: float
    problems: list
    tracer: object = None


def run_once(cli, checks, tracing, inv, ref, traced: bool) -> Repeat:
    out_dir = OUT / f"{inv.workload}-run"
    shutil.rmtree(out_dir, ignore_errors=True)
    saved = os.environ.get("CEF_THREADS")
    os.environ["CEF_THREADS"] = str(inv.threads)
    tracer = tracing.Tracer() if traced else None
    gc.collect()
    try:
        if tracer is None:
            t0 = perf_counter()
            code = cli.main(inv.argv(out_dir))
            wall = perf_counter() - t0
        else:
            with tracer.instrumented():
                code, wall = tracer.run_root(cli.main, inv.argv(out_dir))
    finally:
        if saved is None:
            os.environ.pop("CEF_THREADS", None)
        else:
            os.environ["CEF_THREADS"] = saved
    problems = checks.check(inv, out_dir, code, ref)
    if tracer is not None:
        tracer.counts["cli.bytes_written"] = sum(
            p.stat().st_size for p in out_dir.iterdir() if p.is_file())
    return Repeat(wall, problems, tracer)


def repeat_for(budget: float, min_repeats: int, deadline: float, once) -> list[Repeat]:
    """Repeat `once` until the next repeat would end past `budget` seconds
    (or past the absolute `deadline`, whatever `min_repeats` says)."""
    reps, t0 = [], perf_counter()
    while True:
        reps.append(once())
        now = perf_counter()
        typical = statistics.median(r.wall for r in reps)
        if now + typical > deadline or (
                len(reps) >= min_repeats and now - t0 + typical > budget):
            return reps


def warm_up(cli, inv) -> None:
    """Run the same command once on a 20-step config so lazy imports and
    first-call costs are paid before timing."""
    doc = inv.config_doc()
    doc["solver"]["steps"] = 20
    if doc["solver"].get("memory_truncation"):
        doc["solver"]["memory_truncation"] = 10
    path = OUT / "warmup.json"
    path.write_text(json.dumps(doc))
    args = list(inv.args)
    if inv.command == "sweep":
        args[args.index("--grid") + 1] = "4:4:1"
    cli.main([inv.command, str(path), *args, "--out-dir", str(OUT / "warmup")])


# ----------------------------------------------------------------------
# per-layer metrics from one traced repeat

def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracing, tracer, wall: float, threads: int):
    """Per-layer metrics of one traced repeat, the six layers' attributed
    self times, and the per-call samples behind the p50 metrics."""
    analysis = tracing.analyse(tracer)
    self_time = analysis["self_time"]
    layer_self = analysis["layer_self"]
    by_name = defaultdict(list)
    kids = defaultdict(list)
    for span in tracer.spans:
        by_name[span[2]].append(span)
        if span[1] is not None:
            kids[span[1]].append(span)

    def dur(span):
        return span[4] - span[3]

    rhs = by_name[tracing.RHS]
    rhs_us = sorted(dur(s) * 1e6 for s in rhs if s[0] not in tracer.first_calls)
    rhs_p50 = _median(rhs_us) / 1e6
    table_build = sum(dur(s) - rhs_p50 for s in rhs if s[0] in tracer.first_calls)
    history = sum(self_time[s[0]] for s in by_name[tracing.SOLVE])
    steps = tracer.counts["fractional.steps"]
    project_us = sorted(dur(s) * 1e6 for s in by_name["evolution.project_simplex_flat"])
    rows = [dur(s) for s in by_name["experiments._sweep_row"]]
    sweep_wall = sum(dur(s) for s in by_name["experiments.run_sweep"])

    # the write phase of a command: from the end of its last compute call
    # (anything outside the cli and config layers) to the command's end
    write = 0.0
    for name in ("cli.cmd_simulate", "cli.cmd_sweep", "cli.cmd_field"):
        for cmd in by_name[name]:
            ends = [k[4] for k in kids[cmd[0]]
                    if tracer.layer_of[k[2]] not in ("cli", "config")]
            write += cmd[4] - max(ends, default=cmd[3])

    metrics = {
        "game.rhs_calls": len(rhs),
        "game.rhs_us.p50": rhs_p50 * 1e6,
        "game.rhs_s": sum(dur(s) for s in rhs) - table_build,
        "game.tables_built": tracer.counts["game.tables_built"],
        "game.table_build_s": table_build,
        "game.self_s": layer_self["game"],
        "fractional.solves": len(by_name[tracing.SOLVE]),
        "fractional.steps": steps,
        "fractional.history_s": history,
        "fractional.history_us_per_step": history / steps * 1e6 if steps else 0.0,
        "evolution.projections": len(project_us),
        "evolution.project_us.p50": _median(project_us),
        "evolution.detect_s": sum(dur(s) for s in by_name["evolution.detect_convergence"]),
        "evolution.self_s": layer_self["evolution"],
        "experiments.rows": len(rows),
        "experiments.row_s.p50": _median(rows),
        "experiments.row_s.max": max(rows, default=0.0),
        "experiments.parallel_eff": sum(rows) / (threads * sweep_wall) if sweep_wall else 0.0,
        "cli.write_s": write,
        "cli.bytes_written": tracer.counts["cli.bytes_written"],
        "cli.self_s": layer_self["cli"],
        "config.parse_s": sum(dur(s) for s in by_name["config.parse_config"]),
        "trace.unaccounted_s": wall - sum(layer_self.values()),
        "trace.spans": len(tracer.spans),
    }
    samples = {"game.rhs_us.p50": rhs_us, "evolution.project_us.p50": project_us}
    return metrics, layer_self, samples


# ----------------------------------------------------------------------
# reporting

def tail(samples) -> str:
    """Median plus the highest listed percentile with >= 10 samples beyond it."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10:
            q = statistics.quantiles(samples, n=1000)[round(p * 10) - 1]
            return f"n={n} p50={statistics.median(samples):.6g} p{p:g}={q:.6g}"
    return f"n={n}, too few for a tail percentile"


def line(name: str, value, unit: str, note: str = "") -> str:
    return f"  {name:<32} {value:>16.8g} {unit:<6} {note}"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = perf_counter() + RUN_CAP_S
    cefsim = _import_program()
    from cefsim import cli
    import checks
    import tracing
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    inv = workloads.generate(name, seed, SRC, OUT)
    ref = checks.reference_for(inv)
    machine = machine_record(inv.threads)
    setup = [] if trace else [measure_setup(inv.config_path) for _ in range(SETUP_BEFORE)]
    warm_up(cli, inv)

    def once(traced):
        def repeat():
            rep = run_once(cli, checks, tracing, inv, ref, traced)
            if not trace:
                setup.append(measure_setup(inv.config_path))
            return rep
        return repeat

    human = [f"workload {name} seed={seed} trace={int(trace)} cefsim {cefsim.__version__}",
             "  machine " + json.dumps(machine)]
    if not trace:
        plain = repeat_for(seconds, MIN_REPEATS, deadline, once(False))
        traced = []
    else:
        plain = repeat_for(seconds / 2, MIN_TRACE_REPEATS[0], deadline, once(False))
        traced = repeat_for(seconds / 2, MIN_TRACE_REPEATS[1], deadline, once(True))
    walls = [r.wall for r in plain]
    wall = statistics.median(walls)

    if not trace:
        metrics = {
            "wall_s": wall,
            "steps_per_s": inv.total_steps / wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        human += [line("wall_s", wall, "s", f"median, {tail(walls)}"),
                  line("steps_per_s", metrics["steps_per_s"], "1/s",
                       f"{inv.total_steps} solver steps / median wall_s"),
                  line("setup_s", metrics["setup_s"], "s",
                       f"median of {len(setup)} fresh processes"),
                  line("peak_rss_mb", metrics["peak_rss_mb"], "MB", "benchmark process")]
    else:
        per_rep = [layer_metrics(tracing, r.tracer, r.wall, inv.threads) for r in traced]
        first = per_rep[0][0]
        for rep, (m, _, _) in zip(traced, per_rep):
            if any(m[c] != first[c] for c in COUNTS):
                rep.problems.append("counts differ between traced repeats: "
                                    f"{ {c: m[c] for c in COUNTS} }")
            if m["fractional.steps"] != inv.total_steps:
                rep.problems.append(f"{m['fractional.steps']} solver steps traced, "
                                    f"want {inv.total_steps}")
            if rep.tracer.missing:
                rep.problems.append(f"trace targets missing: {rep.tracer.missing}")
        metrics = {}
        for k in PER_LAYER:
            if k == "trace.overhead_s":
                metrics[k] = statistics.median(r.wall for r in traced) - wall
            elif k in COUNTS:
                metrics[k] = first[k]
            else:
                metrics[k] = statistics.median(m[k] for m, _, _ in per_rep)
        _, parts, samples = per_rep[-1]
        for k, unit in PER_LAYER.items():
            human.append(line(k, metrics[k], unit, tail(samples[k]) if samples.get(k) else ""))
        human.append("  self-time partition of the last traced repeat (s): "
                     + ", ".join(f"{k}={v:.4f}" for k, v in parts.items())
                     + f"; sum={sum(parts.values()):.4f} of wall {traced[-1].wall:.4f}")
        human.append(f"  traced repeats {len(traced)}, untraced {len(plain)}")
        trace_path = OUT / f"trace-{name}-seed{seed}.json"
        traced[-1].tracer.write(trace_path)
        human.append(f"  spans written to {trace_path.relative_to(ROOT)}")

    reps = plain + traced
    failed = sum(1 for r in reps if r.problems)
    human += [f"  CHECK FAILED: {p}" for r in reps for p in r.problems]
    human.append(line("error_rate", failed / len(reps), "ratio",
                      f"{failed} of {len(reps)} runs failed their output checks"))
    units = PER_LAYER if trace else END_TO_END
    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record = {**result, "workload": name, "seed": seed, "trace": int(trace),
              "seconds": seconds, "machine": machine,
              "walls": [r.wall for r in reps], "setup_s": setup,
              "problems": [p for r in reps for p in r.problems]}
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return {"result": result, "human": human}


def write_reference() -> None:
    """Regenerate reference.json from default-seed runs of every workload.

    The reference pins the model's numbers; regenerate it only for a
    model change that is meant to move them.
    """
    _import_program()
    from cefsim import cli
    import checks
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    ref = {}
    for name in workloads.WORKLOADS:
        inv = workloads.generate(name, workloads.DEFAULT_SEED, SRC, OUT)
        out_dir = OUT / f"{name}-reference"
        shutil.rmtree(out_dir, ignore_errors=True)
        os.environ["CEF_THREADS"] = str(inv.threads)
        code = cli.main(inv.argv(out_dir))
        problems = checks.check(inv, out_dir, code, None)
        if problems:
            sys.exit(f"perfbench: {name} failed its checks: {problems}")
        ref[name] = checks.reference_entry(inv, out_dir)
    checks.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="simulate_long | field_windowed | sweep_3p | all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference.json from default-seed runs")
    args = parser.parse_args(argv)
    # pin native thread pools before anything imports numpy
    for var in THREAD_VARS:
        os.environ[var] = "1"

    if args.write_reference:
        write_reference()
        return 0
    import workloads
    if args.workload == "all":
        names, modes = list(workloads.WORKLOADS), (False, True)
    elif args.workload in workloads.WORKLOADS:
        names, modes = [args.workload], (bool(args.trace),)
    else:
        parser.error(f"unknown workload {args.workload!r}")

    runs = {}
    for name in names:
        for traced in modes:
            run = run_workload(name, args.seed, args.seconds, traced)
            print("\n".join(run["human"]), flush=True)
            runs[name, traced] = run["result"]
    if len(runs) == 1:
        final = next(iter(runs.values()))
    else:
        final = {"correct": all(r["correct"] for r in runs.values()),
                 "attempted": sum(r["attempted"] for r in runs.values()),
                 "failed": sum(r["failed"] for r in runs.values()),
                 "metrics": {f"{name}.{k}": v for (name, _), r in runs.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
