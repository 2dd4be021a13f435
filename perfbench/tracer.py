"""Spans around the calls into each qclab module, recorded from outside the
package.

``Tracer.install`` wraps every public module-level function of the layer
modules, plus the simulator's compile step and random walk, and rebinds the
wrapper under every name that points at the original in any qclab module
namespace (``simulate`` and ``dtree`` import ``subcube_prob`` by name,
``cli`` imports the commands' callees by name, the package re-exports
nearly everything).  ``Tracer.uninstall`` puts every original back.

Spans are kept in memory as ``[name, start, end, parent, run_id]`` lists and
written out once at the end.  Self time is a span's duration minus the
durations of its direct children (single-threaded, so children never
overlap).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("cli", "io", "complexity", "compose", "simulate", "core", "dtree", "sweeps")
PACKAGE = "qclab"


def _modules():
    return {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.run_id = None
        self.op_kind = None
        self._saved: list[tuple[object, str, object]] = []

    # --- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, tracer.clock(), 0.0, parent, tracer.run_id]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.stack.pop()
                span[2] = tracer.clock()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def count(self, key: str, amount=1):
        self.counters[key] += amount
        if self.op_kind is not None:
            self.counters[f"{key}[{self.op_kind}]"] += amount

    @contextmanager
    def run(self, run_id: str, op_kind: str):
        """Spans and counters inside belong to one operation."""
        self.run_id, self.op_kind = run_id, op_kind
        try:
            yield
        finally:
            self.run_id = self.op_kind = None

    # --- installing the wrappers ---------------------------------------------

    def _result_hooks(self) -> dict:
        def game(result):
            self.count("complexity.game_iterations", result.iterations)
            self.count("complexity.limit_hit", int(result.limit_hit))

        def sweep(result):
            self.count(f"sweeps.sweep_{result.name}.cases", result.cases)

        hooks = {"complexity.rand_complexity": game}
        for kind in ("unbias", "rbias", "fullbias"):
            hooks[f"sweeps.sweep_{kind}"] = sweep
        return hooks

    def install(self):
        mods = _modules()
        package = importlib.import_module(PACKAGE)
        hooks = self._result_hooks()
        replace = {}  # id(original) -> wrapper
        for layer, mod in mods.items():
            for attr, value in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                ):
                    name = f"{layer}.{attr}"
                    replace[id(value)] = self.wrap(name, value, hooks.get(name))
        for namespace in (package, *mods.values()):
            for attr, value in list(vars(namespace).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    self._saved.append((namespace, attr, value))
                    setattr(namespace, attr, wrapper)

        sim_cls = mods["simulate"].AprimeSimulator
        self._patch(sim_cls, "__init__", self.wrap("simulate.compile", sim_cls.__init__))
        self._patch(sim_cls, "run_stream", self.wrap("simulate.run_stream", sim_cls.run_stream))
        # one DP solve per _TreeDP built; absent once the DP is restructured
        tree_dp = getattr(mods["complexity"], "_TreeDP", None)
        if tree_dp is not None:
            init = tree_dp.__init__

            def counted_init(obj, *args, **kwargs):
                self.count("complexity.dp_solves")
                init(obj, *args, **kwargs)

            self._patch(tree_dp, "__init__", functools.wraps(init)(counted_init))

    def _patch(self, owner, attr: str, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # --- reading the spans ----------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total seconds ``s`` and ``self_s``; plus
        ``io.parse`` (outermost ``parse_*`` calls only) and per-layer
        ``<layer>.self_s``."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            self_s = dur - child[idx]
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += dur
            out[f"{name}.self_s"] += self_s
            out[f"{name.split('.')[0]}.self_s"] += self_s
            if name.startswith("io.parse_") and not (
                parent >= 0 and self.spans[parent][0].startswith("io.parse_")
            ):
                out["io.parse.calls"] += 1
                out["io.parse.s"] += dur
        return dict(out)

    def write(self, path: Path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for idx, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "start": start, "end": end,
                    "parent": parent, "run": run_id,
                }) + "\n")
