"""In-memory span tracer for the cefsim benchmark.

The tracer wraps cefsim's public functions at run time (the package
source is never edited) and records one span per call: id, parent id,
name, start, end and thread.  Counts are recorded at the same call
boundaries.  Spans stay in memory until `write`, after the run, so they
never touch the CLI's byte-compared outputs.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = "cli.main"

# (layer, module, attribute): the call boundaries that get spans.
# `_sweep_row` is the one private name: a sweep row is the unit of work of
# the experiments layer and no public function delimits it.
TARGETS = (
    ("cli", "cefsim.cli", "cmd_simulate"),
    ("cli", "cefsim.cli", "cmd_sweep"),
    ("cli", "cefsim.cli", "cmd_field"),
    ("cli", "cefsim.svgplot", "line_plot"),
    ("cli", "cefsim.svgplot", "polyline_plot"),
    ("config", "cefsim.config", "parse_config"),
    ("game", "cefsim.game", "FederationGame.rhs_flat"),
    ("game", "cefsim.game", "FederationGame.average_payoff"),
    ("fractional", "cefsim.fractional", "solve_fde_ivp"),
    ("evolution", "cefsim.evolution", "simulate"),
    ("evolution", "cefsim.evolution", "detect_convergence"),
    ("evolution", "cefsim.evolution", "direction_field"),
    ("evolution", "cefsim.evolution", "project_simplex_flat"),
    ("experiments", "cefsim.experiments", "run_sweep"),
    ("experiments", "cefsim.experiments", "_sweep_row"),
)
LAYERS = ("cli", "config", "game", "fractional", "evolution", "experiments")

RHS = "game.FederationGame.rhs_flat"
SOLVE = "fractional.solve_fde_ivp"


def span_name(module: str, attr: str) -> str:
    return f"{module.rpartition('.')[2]}.{attr}"


class Tracer:
    """Records spans and counts for the calls made while `instrumented`."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, name, start, end, thread)
        self.counts: Counter = Counter()
        self.first_calls: set[int] = set()  # rhs spans that built a game's tables
        self.layer_of = {ROOT: "cli"}
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._seen_games: weakref.WeakSet = weakref.WeakSet()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        # a span opened on a worker thread belongs to whatever the main
        # thread is inside (the sweep that submitted the row)
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, threading.get_ident()))
        if name == RHS:
            with self._lock:
                game = args[0]
                if game not in self._seen_games:
                    self._seen_games.add(game)
                    self.first_calls.add(sid)
                    self.counts["game.tables_built"] += 1
        elif name == SOLVE:
            with self._lock:
                self.counts["fractional.steps"] += len(result.times) - 1
        return result

    def _wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    @contextmanager
    def instrumented(self):
        """Wrap every target for the duration of the block, then restore.

        A module-level function is replaced under every name any cefsim
        module binds it to (`from .x import f` makes copies); a method is
        replaced on its class.
        """
        patches = []
        try:
            for layer, modname, attr in TARGETS:
                module = importlib.import_module(modname)
                owner_name, _, fname = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = vars(owner).get(fname)
                if original is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                name = span_name(modname, attr)
                self.layer_of[name] = layer
                wrapped = self._wrapper(name, original)
                if owner_name:
                    holders = [(owner, fname)]
                else:
                    holders = [(mod, key) for mname, mod in list(sys.modules.items())
                               if mname.split(".")[0] == "cefsim"
                               for key, value in vars(mod).items() if value is original]
                for holder, key in holders:
                    patches.append((holder, key, original))
                    setattr(holder, key, wrapped)
            yield self
        finally:
            for holder, key, original in reversed(patches):
                setattr(holder, key, original)

    def run_root(self, fn, *args):
        """Call `fn` as the root span; returns (result, wall seconds)."""
        t0 = perf_counter()
        result = self.call(ROOT, fn, args, {})
        return result, perf_counter() - t0

    def write(self, path: Path) -> None:
        doc = {"fields": ["id", "parent", "name", "start", "end", "thread"],
               "spans": self.spans, "counts": dict(self.counts),
               "missing_targets": self.missing}
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def _merge(intervals):
    out = []
    for s, e in sorted(intervals):
        if out and s <= out[-1][1]:
            if e > out[-1][1]:
                out[-1][1] = e
        else:
            out.append([s, e])
    return out


def analyse(tracer: Tracer) -> dict:
    """Per-span self times and per-layer attributed self times.

    A span's self time is its duration minus the part of it that its
    child spans cover.  Summed over spans on several threads, self times
    count overlapping threads twice, so the layer totals are attributed:
    an instant during which k self intervals are open gives 1/k of its
    length to each.  The layer totals then sum to the root span's
    duration; on one thread they equal the plain self times.
    """
    children = defaultdict(list)
    for sid, parent, _name, start, end, _tid in tracer.spans:
        if parent is not None:
            children[parent].append((start, end))
    self_time = {}
    events = []
    for sid, _parent, name, start, end, _tid in tracer.spans:
        layer = tracer.layer_of[name]
        cur, total = start, 0.0
        for cs, ce in _merge(children.get(sid, ())):
            cs, ce = max(cs, start), min(ce, end)
            if cs > cur:
                events.append((cur, 1, layer))
                events.append((cs, -1, layer))
                total += cs - cur
            cur = max(cur, ce)
        if end > cur:
            events.append((cur, 1, layer))
            events.append((end, -1, layer))
            total += end - cur
        self_time[sid] = total
    events.sort(key=lambda ev: (ev[0], ev[1]))
    attributed = dict.fromkeys(LAYERS, 0.0)
    open_by_layer: Counter = Counter()
    n_open, last = 0, None
    for t, delta, layer in events:
        if n_open and t > last:
            share = (t - last) / n_open
            for lay, k in open_by_layer.items():
                if k:
                    attributed[lay] += share * k
        open_by_layer[layer] += delta
        n_open += delta
        last = t
    return {"self_time": self_time, "layer_self": attributed}
