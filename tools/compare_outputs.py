"""Byte-identity check of the cefsim CLI between two source trees.

    python3 tools/compare_outputs.py PARENT_ROOT CHANGE_ROOT

Each root is a checkout of this repository; only its `src/` is run.  For
each tree, every command runs in a fresh Python process that imports
cefsim from that tree's `src/` and nowhere else.  The commands are seeds
0-9 of the three benchmark workloads, with the configs that
`perfbench/workloads.generate` of this checkout writes from each tree's
bundled scenario, and the entries of `COMMANDS`.

The two trees' runs of one command go side by side, one process each.
Every file a command writes and its exit code must be the same for both
trees; for the `invalid-` commands, so must stderr, with each tree's
directory under the temporary directory replaced by a placeholder.
Exits 0 when all are identical and 1 otherwise, after naming each
difference; the outputs are then kept in a temporary directory, whose
path is printed, and removed otherwise.  For a differing .csv or .json
file it also prints the largest absolute difference between
corresponding numbers, or that the shapes (the text around the numbers)
differ, so that a rounding-level change reads apart from a model change.
"""

from __future__ import annotations

import filecmp
import json
import math
import os
import re
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


def _set(*path, **values):
    """The edit that updates the scenario's object at `path` with `values`."""
    def edit(doc):
        for key in path:
            doc = doc[key]
        doc.update(values)
    return edit


def _steps(n):
    return _set("solver", steps=n)


def _one_provider(doc):
    doc["eips"].pop()


def _three_providers(doc):
    doc["eips"].append({"index": 3, "num_clouds": 110, "max_workers": 7, "fixed_cost": 2100.0,
                        "calibration_ratio": 1.0, "cpu_cost": 1e-5, "capacity": 1200})


def _four_providers(doc):
    _three_providers(doc)
    doc["eips"].append({"index": 4, "num_clouds": 90, "max_workers": 3, "fixed_cost": 1500.0,
                        "calibration_ratio": 1.0, "cpu_cost": 2e-5, "capacity": 400})


def _two_tasks(doc):
    doc["tasks"].append({"n": 9, "k": 5, "r0": 20, "r1": 25, "r2": 3, "cycles": 2e6, "rate": 0.5})


# the cost branch that divides each utilization cost by the cloud count
PRIMITIVE = _set("flags", utilization_cost_literal=False)
CONFIG = "CONFIG"   # stands for the config file in a command line
FIELD = "field CONFIG --grid-spec 0.3:0.5:0.1 --stride 50"
# capacity == num_clouds * max_workers: provider 1 saturates at its all-max share
SATURABLE = _set("eips", 0, num_clouds=10, max_workers=4, capacity=40)

# label -> (command line, edits of the bundled scenario that give CONFIG);
# stderr is compared for the labels that start with "invalid-"
COMMANDS = {
    "simulate-alpha0.5": ("simulate CONFIG --alpha 0.5", [_steps(1500)]),  # blows up, exits 3
    "simulate-alpha1.3": ("simulate CONFIG --alpha 1.3", [_steps(3000)]),
    "simulate-alpha0.8": ("simulate CONFIG --alpha 0.8", [_steps(30000)]),
    # the only command with more than one corrector pass, on a healthy grid
    "simulate-passes2": ("simulate CONFIG", [
        _set("solver", alpha=0.8, steps=2000, corrector_iterations=2)]),
    "sweep-r1": ("sweep CONFIG --param r1 --grid 10:60:10", []),
    "field-alpha0.8": ("field CONFIG --alpha 0.8", [_steps(1000)]),
    "sweep-r1-alpha0.8": ("sweep CONFIG --param r1 --grid 10:30:10 --alpha 0.8", [_steps(1000)]),
    "sweep-alpha": ("sweep CONFIG --param alpha --grid 0.8:1:0.1", [_steps(1000)]),
    "kernel": ("kernel --alphas 0.65,0.8,1.2", []),
    "simulate-1p": ("simulate CONFIG", [_one_provider]),
    "field-1p": (FIELD, [_one_provider, _steps(1000)]),
    "sweep-1p": ("sweep CONFIG --param r1 --grid 10:30:10", [_one_provider, _steps(1000)]),
    "simulate-3p": ("simulate CONFIG", [_three_providers]),
    "field-3p": (FIELD, [_three_providers, _steps(1000)]),
    "sweep-3p": ("sweep CONFIG --param k --grid 2:4:1", [_three_providers, _steps(1000)]),
    "simulate-4p": ("simulate CONFIG", [_four_providers, _steps(1000)]),
    "simulate-2t": ("simulate CONFIG", [_two_tasks, _steps(1000)]),
    "sweep-2t": ("sweep CONFIG --param k --grid 2:4:1", [_two_tasks, _steps(1000)]),
    "simulate-primitive": ("simulate CONFIG", [PRIMITIVE, _steps(1000)]),
    "field-primitive": (FIELD, [PRIMITIVE, _steps(1000)]),
    "sweep-primitive": ("sweep CONFIG --param r1 --grid 10:30:10", [PRIMITIVE, _steps(1000)]),
    # numerical aborts (exit 2); in the first two, provider 1 starts at its
    # all-max share: in the field, first at the third start, (1.0, 0.5)
    "abort-saturation": ("simulate CONFIG", [
        SATURABLE, _set(initial_profile=[[0, 0, 0, 0, 1], [1 / 9] * 9]), _steps(50)]),
    "abort-field": ("field CONFIG --grid-spec 0.5:1.0:0.5 --stride 10", [SATURABLE, _steps(50)]),
    "abort-gamma-1e300": ("simulate CONFIG", [_set(gamma=1e300), _steps(200)]),
    "invalid-missing-field": ("simulate CONFIG", [lambda doc: doc["eips"][0].pop("capacity")]),
    "invalid-unknown-field": ("simulate CONFIG", [_set("tasks", 0, typo=1)]),
    "invalid-mistyped-field": ("simulate CONFIG", [_set("solver", steps="100")]),
    "invalid-out-of-range": ("simulate CONFIG", [
        _set("eips", 1, calibration_ratio=1.5), _set("tasks", 0, k=9), _steps(1)]),
    # an integer beyond the float range, written out in full
    "invalid-huge-number": ("simulate CONFIG", [_set(gamma=10 ** 400)]),
    "invalid-bad-initial-profile": ("simulate CONFIG", [
        _set(initial_profile=[[1.0, 0.0, 0.0, 0.0, 0.0], [0.5, 0.5]])]),
    # E1 * L1 = 400: a capacity of 300 breaks provider 1
    "invalid-sweep-grid": ("sweep CONFIG --param W1 --grid 300:400:100", []),
    # 4.5 and 5.5 are not task sizes
    "invalid-sweep-n": ("sweep CONFIG --param n --grid 4:6:0.5", []),
    "invalid-kernel-repeated": ("kernel --alphas 0.8,0.8", []),
}


def commands(src: Path, work: Path) -> dict[str, tuple[list[str], bool]]:
    """label -> (CLI arguments without --out-dir, whether stderr is compared)."""
    work.mkdir(parents=True)
    cmds = {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            inv = workloads.generate(name, seed, src, work)
            cmds[f"{name}-seed{seed}"] = [inv.command, str(inv.config_path), *inv.args]
    bundled = (src / "cefsim" / "data" / "canonical_scenario.json").read_text()
    for label, (line, edits) in COMMANDS.items():
        args = line.split()
        if CONFIG in args:
            doc = json.loads(bundled)
            for edit in edits:
                edit(doc)
            path = work / f"{label}.json"
            path.write_text(json.dumps(doc, indent=2) + "\n")
            args[args.index(CONFIG)] = str(path)
        cmds[label] = args
    return {label: (args, label.startswith("invalid-")) for label, args in cmds.items()}


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


# a number in JSON or in CSV; digits inside names, hashes and versions are not
NUMBER = re.compile(r"(?<![\w.])-?(?:(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?"
                    r"|nan|inf|NaN|Infinity)(?![\w.])")


def _shape_and_numbers(path: Path) -> tuple[str, list[float]]:
    """A .json or .csv file as its shape, the text with each number cut
    out, and its numbers in reading order."""
    text = path.read_text()
    return NUMBER.sub("\0", text), [float(m) for m in NUMBER.findall(text)]


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
    srcs = [Path(r).resolve() / "src" for r in argv]
    for src in srcs:
        if not (src / "cefsim" / "__init__.py").is_file():
            print(f"no cefsim package under {src}", file=sys.stderr)
            return 2
    tmp = Path(tempfile.mkdtemp(prefix="cefsim-compare-"))
    sides = ("parent", "change")
    plans = [commands(src, tmp / side / "configs") for src, side in zip(srcs, sides)]
    found = []
    with ThreadPoolExecutor(max_workers=2) as pool:
        for label, (_, check_stderr) in plans[0].items():
            outs = [tmp / side / "out" / label for side in sides]
            jobs = [pool.submit(run, src, plan[label][0], out)
                    for src, plan, out in zip(srcs, plans, outs)]
            (code_a, err_a), (code_b, err_b) = (j.result() for j in jobs)
            errs = tuple(err.replace(str(tmp / side), "<tree>")
                         for err, side in zip((err_a, err_b), sides))
            diff = differences(label, *outs, code_a, code_b, errs if check_stderr else None)
            print(f"{label}: exit {code_a}/{code_b}, "
                  f"{'identical' if not diff else f'{len(diff)} difference(s)'}", flush=True)
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
