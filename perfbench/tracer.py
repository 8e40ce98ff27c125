"""Outside-in tracing: wrap the public functions of hartreelab's modules.

Every public module-level function and every public method (plus
``__call__``) of a public class defined in one of the layer modules is
replaced, as a module or class attribute, by a wrapper that records a span
(name, start, end, parent).  Names bound elsewhere with ``from x import
f`` are rebound too, so calls through any module see the wrapper.  Spans stay
in memory; ``layer_stats`` turns them into calls, total and self time per
function.  Nothing inside the package is edited.

Standard library only, so run.py and the tests can import it without
numpy.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Optional

LAYERS = ("cli", "artifacts", "constants", "fields", "riesz", "cylinder",
          "spheres", "asymptotics")
PACKAGE = "hartreelab"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]   # index into the span list, None at the top


def layer_stats(spans) -> dict:
    """{name: {"calls", "total_s", "self_s"}} from a list of Spans.

    total_s sums only the outermost activation of a name, so a recursive
    call is not counted twice.  self_s is a span's duration minus the part
    of its interval covered by its direct children.
    """
    children = [[] for _ in spans]
    for i, sp in enumerate(spans):
        if sp.parent is not None:
            children[sp.parent].append(i)
    stats: dict = {}
    for i, sp in enumerate(spans):
        st = stats.setdefault(sp.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        covered = 0.0
        edge = sp.start
        for c in sorted(children[i], key=lambda k: spans[k].start):
            lo = max(spans[c].start, edge)
            hi = min(spans[c].end, sp.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        st["self_s"] += (sp.end - sp.start) - covered
        ancestor = sp.parent
        while ancestor is not None and spans[ancestor].name != sp.name:
            ancestor = spans[ancestor].parent
        if ancestor is None:
            st["total_s"] += sp.end - sp.start
    return stats


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self, counters: Optional[dict] = None):
        # counters: {span name: fn(return value) -> {count name: number}}
        self.counters = counters or {}
        self.counts: dict = {}
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []   # (owner, attribute, original)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter, counts = self.counters.get(name), self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, clock(), 0.0, stack[-1] if stack else None))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx].end = clock()
            if counter is not None:
                for key, value in counter(result).items():
                    counts[(name, key)] = counts.get((name, key), 0) + value
            return result

        return functools.update_wrapper(traced, fn)

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer's public functions and methods."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        replaced = {}   # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    replaced[id(obj)] = wrapper
                    self._set(mod, attr, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        # rebind names that other modules imported with `from x import f`
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and getattr(mod, attr) is not wrapper:
                    self._set(mod, attr, wrapper)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            elif isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        """Put every original back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def take(self) -> dict:
        """layer_stats plus counters of what was recorded so far, then dropped.

        Call it between jobs, when no wrapped call is open.
        """
        if self._stack:
            raise RuntimeError("take() inside an open span")
        out = layer_stats(self.spans)
        for (name, key), value in self.counts.items():
            out[name][key] = value
        self.spans.clear()
        self.counts.clear()
        return out
