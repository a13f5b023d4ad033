"""Byte-identity check of the cefsim CLI between two source trees.

    python3 tools/compare_outputs.py PARENT_ROOT CHANGE_ROOT

Each root is a checkout of this repository; only its `src/` is run.  For
each tree, every command below runs in a fresh Python process that
imports cefsim from that tree's `src/` and nowhere else:

- seeds 0-9 of the three benchmark workloads, with the configs that
  `perfbench/workloads.generate` of this checkout writes from each
  tree's bundled scenario;
- `simulate` of the bundled scenario at alpha 0.5 with 1500 steps (a
  numerical blow-up that exits 3), at alpha 1.3 with 3000 steps and at
  alpha 0.8 with 30000 steps (a healthy full-memory run three times as
  long as the benchmark's);
- `sweep --param r1 --grid 10:60:10` of the bundled scenario;
- at 1000 steps of the bundled scenario, the paths of `--alpha`:
  `field --alpha 0.8`, `sweep --param r1 --grid 10:30:10 --alpha 0.8`
  and `sweep --param alpha --grid 0.8:1:0.1`;
- `kernel --alphas 0.65,0.8,1.2`;
- `simulate` of a one-provider (provider 2 removed) and a three-provider
  (a third provider added) variant of the bundled scenario, and, of each
  variant at 1000 steps, `field --grid-spec 0.3:0.5:0.1 --stride 50` and
  a sweep: `sweep --param r1 --grid 10:30:10` of the one-provider
  variant, `sweep --param k --grid 2:4:1` of the three-provider one;
- at 1000 steps of a two-task variant (a second task type added to the
  bundled scenario), `simulate` and `sweep --param k --grid 2:4:1`;
- two numerical aborts (exit 2): `simulate` of the bundled scenario with
  provider 1 saturated (capacity == num_clouds * max_workers, starting at
  its all-max share), and at gamma 1e300 with 200 steps;
- eight invalid inputs: `simulate` of the bundled scenario with a field
  missing, an unknown field, a mistyped field, out-of-range fields and a
  bad `initial_profile`, a `W1` sweep whose grid breaks provider 1,
  `sweep --param n --grid 4:6:0.5`, whose values 4.5 and 5.5 are not
  integers, and `kernel --alphas 0.8,0.8`, which repeats an order.

56 commands in all.

The two trees' runs of one command go side by side, one process each.
Every file a command writes and its exit code must be the same for both
trees; for the invalid inputs, so must stderr, with each tree's
directory under the temporary directory replaced by a placeholder.  Exits 0 when all are identical and 1 otherwise, after naming
each difference; the outputs are then kept in a temporary directory,
whose path is printed, and removed otherwise.  For a differing .csv or
.json file it also prints the largest absolute difference between
corresponding numbers, or that the shapes differ (different keys, text,
row or list lengths), so that a rounding-level change reads apart from a
model change.
"""

from __future__ import annotations

import filecmp
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from run import THREAD_VARS  # noqa: E402

SEEDS = range(10)
TIMEOUT_S = 600

# run in the child: import cefsim from argv[1] only, then run the CLI
RUNNER = """\
import sys
from pathlib import Path
src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
from cefsim import cli
if Path(cli.__file__).resolve().parent != src / "cefsim":
    print(f"cefsim imported from {cli.__file__}, not {src}", file=sys.stderr)
    sys.exit(125)
sys.exit(cli.main(sys.argv[2:]))
"""


# edits of the bundled scenario that make it invalid
INVALID = {
    "missing-field": lambda doc: doc["eips"][0].pop("capacity"),
    "unknown-field": lambda doc: doc["tasks"][0].update(typo=1),
    "mistyped-field": lambda doc: doc["solver"].update(steps="100"),
    "out-of-range": lambda doc: (doc["eips"][1].update(calibration_ratio=1.5),
                                 doc["tasks"][0].update(k=9), doc["solver"].update(steps=1)),
    "bad-initial-profile": lambda doc: doc.update(
        initial_profile=[[1.0, 0.0, 0.0, 0.0, 0.0], [0.5, 0.5]]),
}


# edits of the bundled scenario with another number of providers
PROVIDERS = {
    "1p": lambda doc: doc["eips"].pop(),
    "3p": lambda doc: doc["eips"].append({
        "index": 3, "num_clouds": 110, "max_workers": 7, "fixed_cost": 2100.0,
        "calibration_ratio": 1.0, "cpu_cost": 1e-5, "capacity": 1200}),
}


# the sweep (parameter, grid) run on each variant of PROVIDERS
PROVIDER_SWEEPS = {"1p": ("r1", "10:30:10"), "3p": ("k", "2:4:1")}


# the second task type of the two-task variant, which runs 1000 steps
def _two_tasks(doc):
    doc["tasks"].append({"n": 9, "k": 5, "r0": 20, "r1": 25, "r2": 3, "cycles": 2e6,
                         "rate": 0.5})
    doc["solver"].update(steps=1000)


# edits of the bundled scenario that make its run abort on a non-finite state
ABORTS = {
    "saturation": lambda doc: (
        doc["eips"][0].update(num_clouds=10, max_workers=4, capacity=40),
        doc["solver"].update(steps=50),
        doc.update(initial_profile=[[0, 0, 0, 0, 1], [1 / 9] * 9])),
    "gamma-1e300": lambda doc: (doc.update(gamma=1e300), doc["solver"].update(steps=200)),
}


def _bundled(src: Path, work: Path, name: str, edit) -> Path:
    """The tree's bundled scenario after `edit(doc)`, written to `work`."""
    doc = json.loads((src / "cefsim" / "data" / "canonical_scenario.json").read_text())
    edit(doc)
    path = work / f"{name}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def commands(src: Path, work: Path) -> dict[str, tuple[list[str], bool]]:
    """label -> (CLI arguments without --out-dir, whether stderr is compared)."""
    work.mkdir(parents=True)
    cmds = {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            inv = workloads.generate(name, seed, src, work)
            cmds[f"{name}-seed{seed}"] = ([inv.command, str(inv.config_path), *inv.args],
                                           False)
    bundled = src / "cefsim" / "data" / "canonical_scenario.json"
    for alpha, steps in (("0.5", 1500), ("1.3", 3000), ("0.8", 30000)):
        cfg = _bundled(src, work, f"bundled-{steps}",
                       lambda doc: doc["solver"].update(steps=steps))
        cmds[f"simulate-alpha{alpha}"] = (["simulate", str(cfg), "--alpha", alpha], False)
    cmds["sweep-r1"] = (["sweep", str(bundled), "--param", "r1", "--grid", "10:60:10"], False)
    cfg = str(_bundled(src, work, "bundled-1000", lambda doc: doc["solver"].update(steps=1000)))
    cmds["field-alpha0.8"] = (["field", cfg, "--alpha", "0.8"], False)
    cmds["sweep-r1-alpha0.8"] = (["sweep", cfg, "--param", "r1", "--grid", "10:30:10",
                                  "--alpha", "0.8"], False)
    cmds["sweep-alpha"] = (["sweep", cfg, "--param", "alpha", "--grid", "0.8:1:0.1"], False)
    cmds["kernel"] = (["kernel", "--alphas", "0.65,0.8,1.2"], False)
    for name, edit in PROVIDERS.items():
        cfg = _bundled(src, work, name, edit)
        cmds[f"simulate-{name}"] = (["simulate", str(cfg)], False)
        cfg = _bundled(src, work, f"{name}-1000", lambda doc: (
            edit(doc), doc["solver"].update(steps=1000)))
        cmds[f"field-{name}"] = (["field", str(cfg), "--grid-spec", "0.3:0.5:0.1",
                                  "--stride", "50"], False)
        param, grid = PROVIDER_SWEEPS[name]
        cmds[f"sweep-{name}"] = (["sweep", str(cfg), "--param", param, "--grid", grid], False)
    cfg = str(_bundled(src, work, "2t-1000", _two_tasks))
    cmds["simulate-2t"] = (["simulate", cfg], False)
    cmds["sweep-2t"] = (["sweep", cfg, "--param", "k", "--grid", "2:4:1"], False)
    for name, edit in ABORTS.items():
        cmds[f"abort-{name}"] = (["simulate", str(_bundled(src, work, name, edit))], False)
    for name, edit in INVALID.items():
        cmds[f"invalid-{name}"] = (["simulate", str(_bundled(src, work, name, edit))], True)
    # E1 * L1 = 400: a capacity of 300 breaks provider 1
    cmds["invalid-sweep-grid"] = (["sweep", str(bundled), "--param", "W1",
                                   "--grid", "300:400:100"], True)
    cmds["invalid-sweep-n"] = (["sweep", str(bundled), "--param", "n", "--grid", "4:6:0.5"],
                               True)
    cmds["invalid-kernel-repeated"] = (["kernel", "--alphas", "0.8,0.8"], True)
    return cmds


def run(src: Path, args: list[str], out_dir: Path) -> tuple[int, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({var: "1" for var in THREAD_VARS})
    out_dir.mkdir(parents=True)
    done = subprocess.run([sys.executable, "-c", RUNNER, str(src), *args,
                           "--out-dir", str(out_dir)],
                          cwd=out_dir, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    return done.returncode, done.stderr


def _files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def differences(label: str, a: Path, b: Path, code_a: int, code_b: int,
                errs: tuple[str, str] | None) -> list[str]:
    """What differs between the two trees' runs of one command; `errs`,
    when given, is the stderr of each, with its tree's directory replaced."""
    found = []
    if code_a != code_b:
        found.append(f"{label}: exit code {code_a} != {code_b}")
    if errs is not None and errs[0] != errs[1]:
        found.append(f"{label}: stderr differs")
    files_a, files_b = _files(a), _files(b)
    for rel in sorted(files_a ^ files_b):
        found.append(f"{label}: {rel} written by only one tree")
    for rel in sorted(files_a & files_b):
        if not filecmp.cmp(a / rel, b / rel, shallow=False):
            found.append(f"{label}: {rel} differs{_number_gap(a / rel, b / rel)}")
    return found


def _leaves(doc):
    """A parsed JSON document in document order: each number as a float,
    everything else (keys, list lengths, other values) as a tagged tuple."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield ("key", key)
            yield from _leaves(value)
    elif isinstance(doc, list):
        yield ("list", len(doc))
        for value in doc:
            yield from _leaves(value)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield float(doc)
    else:
        yield ("value", doc)


def _shape_and_numbers(path: Path) -> tuple[list, list[float]]:
    """A .json or .csv file as its numbers in reading order and its shape:
    the rest, with None in each number's place."""
    text = path.read_text()
    if path.suffix == ".json":
        items = list(_leaves(json.loads(text)))
    else:
        items = [field for line in text.splitlines() for field in line.split(",")]
    shape, numbers = [], []
    for item in items:
        try:
            numbers.append(float(item))
            shape.append(None)
        except (TypeError, ValueError):
            shape.append(item)
    return shape, numbers


def _gap(x: float, y: float) -> float:
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    d = abs(x - y)
    return math.inf if math.isnan(d) else d


def _number_gap(a: Path, b: Path) -> str:
    """For a differing .json or .csv file, the largest absolute difference
    between corresponding numbers, or that the shapes differ."""
    if a.suffix not in (".json", ".csv"):
        return ""
    (shape_a, nums_a), (shape_b, nums_b) = _shape_and_numbers(a), _shape_and_numbers(b)
    if shape_a != shape_b:
        return " (shapes differ)"
    return f" (max abs difference {max(map(_gap, nums_a, nums_b), default=0.0):.3g})"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    roots = [Path(r).resolve() for r in argv]
    srcs = [r / "src" for r in roots]
    for src in srcs:
        if not (src / "cefsim" / "__init__.py").is_file():
            print(f"no cefsim package under {src}", file=sys.stderr)
            return 2
    tmp = Path(tempfile.mkdtemp(prefix="cefsim-compare-"))
    sides = ("parent", "change")
    plans = [commands(src, tmp / side / "configs") for src, side in zip(srcs, sides)]
    found = []
    with ThreadPoolExecutor(max_workers=2) as pool:
        for label in plans[0]:
            outs = [tmp / side / "out" / label for side in sides]
            check_stderr = plans[0][label][1]
            jobs = [pool.submit(run, src, plan[label][0], out)
                    for src, plan, out in zip(srcs, plans, outs)]
            (code_a, err_a), (code_b, err_b) = (j.result() for j in jobs)
            errs = None
            if check_stderr:
                errs = tuple(err.replace(str(tmp / side), "<tree>")
                             for err, side in zip((err_a, err_b), sides))
            diff = differences(label, *outs, code_a, code_b, errs)
            print(f"{label}: exit {code_a}/{code_b}, "
                  f"{'identical' if not diff else f'{len(diff)} difference(s)'}",
                  flush=True)
            for line in diff:
                print("  " + line)
            if diff:
                for side, err in zip(sides, (err_a, err_b)):
                    print(f"  {side} stderr: {err.strip()[-500:]}")
            found += diff
    if found:
        print(f"{len(found)} difference(s); outputs kept in {tmp}")
        return 1
    shutil.rmtree(tmp)
    print(f"all {len(plans[0])} commands identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
