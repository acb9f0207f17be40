"""Span tracing of microfatigue layers from outside the package.

The tracer replaces each public function of the package's layer modules
with a timing wrapper, in every module namespace that holds a reference
to it (``protocols.accumulate`` as well as ``damage.accumulate``), so a
call is traced wherever the calling module looks the name up. Nothing
under ``src/`` is edited; ``uninstall`` restores the original objects.

Per-name totals (calls, inclusive time, self time) are aggregated as the
spans close, so memory stays bounded however many calls a run makes. Raw
spans (name, start, end, parent index, op id) are kept in memory up to
``span_cap`` and written once by the caller at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("config", "device", "electromech", "loading", "damage",
          "protocols", "stats", "emit", "cli")

# Methods that resolve a config into a device and damage parameters.
METHODS = (("config", "RunConfig", "device"), ("config", "RunConfig", "damage_params"))


class Tracer:
    def __init__(self, span_cap: int = 100_000):
        self.span_cap = span_cap
        self.spans: list[list] = []
        self.totals: dict[str, list] = {}   # name -> [calls, inclusive s, self s]
        self.counters: dict[str, float] = {}
        self.marked_ops: dict[str, set] = {}   # key -> ids of ops that hit it
        self.op_id = -1
        self._stack: list[list] = []        # open spans: [child seconds, span index]
        self._patches: list[tuple] = []

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def mark(self, key: str) -> None:
        self.marked_ops.setdefault(key, set()).add(self.op_id)

    def wrap(self, name: str, fn, observe=None):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        spans, stack, cap, clock = self.spans, self._stack, self.span_cap, time.perf_counter

        def traced(*args, **kwargs):
            idx = -1
            if len(spans) < cap:
                idx = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1][1] if stack else -1, self.op_id])
            frame = [0.0, idx]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if idx >= 0:
                    spans[idx][1] = start
                    spans[idx][2] = end
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self, observer_for) -> None:
        """Wrap every public layer function where any package module binds it.

        ``observer_for(name)`` returns a callable run after each successful
        call as ``observe(tracer, args, kwargs, result)``, or None.
        """
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"microfatigue.{layer}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    originals[id(obj)] = (obj, self.wrap(name, obj, observer_for(name)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "microfatigue" and not mod_name.startswith("microfatigue."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        for layer, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"microfatigue.{layer}"], cls_name)
            original = vars(cls)[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(f"{layer}.{cls_name}.{attr}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_self_seconds(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.totals.items():
            out[name.split(".", 1)[0]] += self_s
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps([name, start, end, parent, op_id]) + "\n")
