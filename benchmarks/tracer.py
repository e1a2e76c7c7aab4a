"""Span tracer that times holopath's layers from outside the package.

``Tracer.install`` wraps every public function of each layer module, and
each public cached property of its classes, in a span recorder.  A module
that bound a function with ``from .linalg import expm`` holds its own name
for it, so every holopath module's binding of a wrapped function is
replaced, not only the defining module's, and so is every entry of a
module-level dispatch table; otherwise calls from ``schemes`` and
``analytic`` into ``linalg``, or from ``cli.main`` into ``cmd_sweep``,
would go uncounted.

A span is (name, start, end, parent).  Spans are kept in memory as compact
arrays and written once, by ``dump``, when the run ends.  The program is
single-threaded, so spans nest strictly and a layer never waits on another:
there is no wait time to record.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from contextlib import contextmanager

LAYERS = ("linalg", "schemes", "analytic", "pathfinder", "oracle", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(math.nan)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        name_id = self._intern(name)
        opener, closer = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = opener(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                closer(index)

        return traced

    def install(self, package: str = "holopath", layers=LAYERS) -> None:
        """Wrap each layer's public functions and cached properties, wherever they are bound."""
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for layer in layers:
            module = sys.modules[f"{package}.{layer}"]
            owned = [
                (attr, obj)
                for attr, obj in vars(module).items()
                if not attr.startswith("_") and getattr(obj, "__module__", None) == module.__name__
            ]
            for attr, obj in owned:
                if inspect.isfunction(obj):
                    _rebind(modules, obj, self.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    for prop_name, prop in list(vars(obj).items()):
                        if isinstance(prop, functools.cached_property) and not prop_name.startswith("_"):
                            wrapped = functools.cached_property(self.wrap(f"{layer}.{attr}.{prop_name}", prop.func))
                            setattr(obj, prop_name, wrapped)
                            wrapped.__set_name__(obj, prop_name)

    def dump(self, path: str) -> None:
        """Write all spans to one ``.npz`` file: a names table plus parallel arrays."""
        import numpy as np

        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _rebind(modules, original, traced) -> None:
    """Point every module-level name, and every value of a module-level dict, at ``traced``.

    Dispatch tables such as ``cli._COMMANDS`` hold functions as dict values.
    """
    for module in modules:
        namespace = vars(module)
        for name in [n for n, v in namespace.items() if v is original]:
            setattr(module, name, traced)
        for table in [v for v in namespace.values() if isinstance(v, dict)]:
            for key in [k for k, v in table.items() if v is original]:
                table[key] = traced


def self_times(spans) -> tuple:
    """Span names and, per name, (calls, inclusive seconds, self seconds) from a loaded span file.

    A span's self time is its duration minus the durations of its direct
    children; spans of this single-threaded program nest strictly, so the
    children are disjoint and their sum is the time they cover.
    """
    import numpy as np

    names = [str(n) for n in spans["names"]]
    name_id, parent = spans["name_id"], spans["parent"]
    duration = spans["end"] - spans["start"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=duration.size)
    own = duration - covered
    size = len(names)
    calls = np.bincount(name_id, minlength=size)
    inclusive = np.bincount(name_id, weights=duration, minlength=size)
    self_s = np.bincount(name_id, weights=own, minlength=size)
    return names, calls, inclusive, self_s
