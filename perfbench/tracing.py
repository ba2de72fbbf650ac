"""Spans around every public call into coopattest, recorded from outside.

``Tracer.install`` replaces each public function and each public method
of the classes a coopattest module defines with a wrapper that records a
span: name, start, end and the span that was open when it began.  A
function that another module imported by name (``from .crypto import
digest``) is replaced in that module too, or calls made through the
imported name would go unrecorded.  The program itself is not edited;
``uninstall`` puts every original back.

Spans stay in memory.  ``take_repeat`` folds the spans of one scenario
run into per-function and per-module sums (self time is a span minus its
child spans) and keeps the span list of the latest run for writing out.
"""

from __future__ import annotations

import enum
import functools
import sys
import types
from time import perf_counter_ns

MODULES = ("crypto", "canonical", "attestation", "cooperative", "notary", "ledger",
           "dsn", "travel_rule", "events", "harness")

# Private methods that are layers of their own: actor construction, which
# ``harness.build_s`` reports, and the travel-rule decision.
EXTRA_METHODS = {"harness": {"Scenario": ("_build_actors",)},
                 "travel_rule": {"Exchange": ("_decide",)}}


class Tracer:
    """Records spans for the wrapped coopattest callables of one process."""

    def __init__(self, observers: dict | None = None) -> None:
        # observers: span name -> fn(args, kwargs, result, duration_ns)
        self.observers = observers or {}
        self.names: list[str] = []
        self.modules: list[int] = []          # name index -> module index
        self.spans: list = []                 # [name, start, end, parent]
        self._stack: list = []                # [span index, start, child ns]
        self._module_depth = [0] * len(MODULES)
        self._undo: list = []
        self.reset()

    # --- recording --------------------------------------------------------------

    def reset(self) -> None:
        n = len(self.names)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.total_ns = [0] * n
        self.module_total_ns = [0] * len(MODULES)
        self.spans = []

    def _wrap(self, module_index: int, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        self.modules.append(module_index)
        self.calls.append(0)
        self.self_ns.append(0)
        self.total_ns.append(0)
        observer = self.observers.get(name)
        stack = self._stack
        depth = self._module_depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            span = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            depth[module_index] += 1
            frame = [span, 0, 0]
            stack.append(frame)
            start = frame[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                depth[module_index] -= 1
                duration = end - start
                spans[span] = (index, start, end, parent)
                self.calls[index] += 1
                self.self_ns[index] += duration - frame[2]
                self.total_ns[index] += duration
                if depth[module_index] == 0:
                    self.module_total_ns[module_index] += duration
                if stack:
                    stack[-1][2] += duration
            if observer is not None:
                observer(args, kwargs, result, duration)
            return result

        return traced

    # --- installation -------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public callable of the traced coopattest modules."""
        loaded = [m for n, m in sys.modules.items()
                  if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for module_index, short in enumerate(MODULES):
            module = sys.modules[f"{package.__name__}.{short}"]
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value.__module__ == module.__name__ \
                        and not attr.startswith("_"):
                    wrapped = self._wrap(module_index, f"{short}.{attr}", value)
                    for other in loaded:
                        for key, bound in list(vars(other).items()):
                            if bound is value:
                                self._set(other, key, wrapped, value)
                elif isinstance(value, type) and value.__module__ == module.__name__ \
                        and not attr.startswith("_") and _plain_class(value):
                    extra = EXTRA_METHODS.get(short, {}).get(attr, ())
                    self._wrap_class(module_index, short, value, extra)
        self.reset()

    def _wrap_class(self, module_index: int, short: str, cls, extra) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in extra:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(value, types.FunctionType):
                self._set(cls, attr, self._wrap(module_index, name, value), value)
            elif isinstance(value, (classmethod, staticmethod)):
                inner = self._wrap(module_index, name, value.__func__)
                self._set(cls, attr, type(value)(inner), value)

    def _set(self, owner, attr: str, new, old) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # --- results -----------------------------------------------------------------------

    def take_repeat(self) -> dict:
        """Per-function and per-module sums of the spans since the last call."""
        by_name = {}
        for i, name in enumerate(self.names):
            if self.calls[i]:
                by_name[name] = (self.calls[i], self.self_ns[i], self.total_ns[i])
        modules = {}
        for m, short in enumerate(MODULES):
            calls = sum(c for c, mi in zip(self.calls, self.modules) if mi == m)
            self_ns = sum(s for s, mi in zip(self.self_ns, self.modules) if mi == m)
            modules[short] = (calls, self_ns, self.module_total_ns[m])
        result = {"functions": by_name, "modules": modules, "spans": self.spans}
        self.reset()
        return result


def _plain_class(cls) -> bool:
    """Exceptions are not layers, and enum classes carry machinery in
    their namespace; leave both alone."""
    return not issubclass(cls, (BaseException, enum.Enum))
