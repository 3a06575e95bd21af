"""Span tracer for the covertower benchmark.

The traced run wraps functions and methods of the package from outside:
nothing under ``src/`` changes.  Each wrapped call is a span.  Spans are
aggregated as they close, so a sweep with a million cache lookups keeps one
record per span name, not one per call:

- ``calls``: how many spans of that name closed,
- ``inclusive_s``: their summed duration,
- ``self_s``: their summed duration minus the time of their direct child
  spans.

Over a span tree the self times add up to the root's duration, which is
what the benchmark checks against the traced wall time.  A recursive
function counts its nested calls in ``inclusive_s`` twice; ``self_s`` is
unaffected.

Modules import package functions by name (``from .homology import
surface_complex``), so wrapping a function means replacing every binding of
it: in each ``covertower`` module namespace, in the package namespace and in
module-level dicts such as ``verify.SUITES``.  ``Tracer.unbound`` and the
call-count check in ``layers.Probe.binding_problems`` catch a binding that
was missed.
"""

from __future__ import annotations

import functools
import sys
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [name, start, child_time]
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.counters: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}

    # -- spans

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self.stack.pop()
        duration = self.clock() - start
        rec = self.stats.get(name)
        if rec is None:
            rec = self.stats[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - child
        if self.stack:
            self.stack[-1][2] += duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def total_self(self) -> float:
        return sum(rec[2] for rec in self.stats.values())

    # -- wrapping

    def wrap(self, name: str, fn, hook=None):
        """A callable that runs fn inside a span; hook(args, result) sees each return."""
        enter, exit_ = self.enter, self.exit
        if hook is None:
            def traced(*args, **kwargs):
                enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()
        else:
            def traced(*args, **kwargs):
                enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    exit_()
                hook(args, result)
                return result
        functools.update_wrapper(traced, fn)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def wrap_method(self, cls, attr: str, name: str, hook=None) -> None:
        """Wrap a method on its class; every caller sees the class attribute."""
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, hook))

    def wrap_function(self, module, attr: str, name: str, hook=None) -> None:
        """Wrap a module-level function and rebind it everywhere in the package."""
        original = getattr(module, attr)
        self._originals[name] = original
        wrapped = self.wrap(name, original, hook)
        for namespace in package_namespaces(module.__name__.split(".")[0]):
            for key, value in list(vars(namespace).items()):
                if value is original:
                    self._patched.append((namespace, key, original))
                    setattr(namespace, key, wrapped)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._patched.append((value, k, original))
                            value[k] = wrapped

    def unbound(self, package: str) -> list[str]:
        """Bindings in the package that still refer to an unwrapped original."""
        originals = {id(fn): name for name, fn in self._originals.items()}
        missed = []
        for namespace in package_namespaces(package):
            for key, value in vars(namespace).items():
                if id(value) in originals:
                    missed.append(f"{namespace.__name__}.{key}")
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if id(v) in originals:
                            missed.append(f"{namespace.__name__}.{key}[{k!r}]")
        return missed

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()
        self._originals.clear()


def package_namespaces(package: str):
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]
