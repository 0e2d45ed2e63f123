"""Span tracer for the damped_eb package, installed from outside the package.

Every public function defined in a ``damped_eb.*`` module is wrapped once,
and the wrapper is bound in place of the original *by identity*: any name in
any ``damped_eb`` module namespace that refers to the same function object
(``from .mesh import norm`` in ``damping``, ``from .stepper1d import run`` in
``harness``, the re-exports in the package ``__init__``) is rebound too, so
no call path escapes the trace.  Modules are discovered, not listed, so a
module or function that later disappears simply yields no spans.

A span is (function id, parent span, start ns, end ns).  Spans are appended
to flat in-memory arrays during the run and written out once, by
:meth:`Tracer.dump`, as a ``.npz`` file that :func:`summarize` reads back.
"""
from __future__ import annotations

import array
import functools
import importlib
import pkgutil
import sys
import time
import types

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # function id -> "module.function"
        self.fid = array.array("i")
        self.parent = array.array("q")  # index of the enclosing span, -1 at top
        self.start = array.array("q")
        self.end = array.array("q")
        self._stack = [-1]

    def install(self, package: str = "damped_eb") -> list[str]:
        """Wrap the package's public functions; returns the traced names."""
        pkg = importlib.import_module(package)
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"{package}.{info.name}")
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == package or name.startswith(package + ".")
        ]
        wrappers: dict[int, tuple[types.FunctionType, object]] = {}
        for mod in modules:
            if mod is pkg:
                continue
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not name.startswith("_")
                    and obj.__module__ == mod.__name__
                    and id(obj) not in wrappers
                ):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))
        for mod in modules:
            namespace = vars(mod)
            for name, obj in list(namespace.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    namespace[name] = hit[1]
        return list(self.names)

    def _wrap(self, fn, qualname: str):
        fid = len(self.names)
        self.names.append(qualname)
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def dump(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            fid=np.frombuffer(self.fid, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
        )


class Summary:
    """Per-function call counts, self time and total time from a span file."""

    def __init__(self, path) -> None:
        with np.load(path) as data:
            self.names = [str(n) for n in data["names"]]
            fid = data["fid"]
            parent = data["parent"]
            dur = (data["end"] - data["start"]).astype(np.float64) * 1e-9
        nfun = len(self.names)
        self.ids = {name: i for i, name in enumerate(self.names)}
        self._fid, self._parent, self._dur = fid, parent, dur
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self.calls = np.bincount(fid, minlength=nfun)
        self.self_s = np.bincount(fid, weights=dur - child, minlength=nfun)
        # total time counts only the outermost span of a directly recursive call
        outer = ~nested | (fid[np.maximum(parent, 0)] != fid)
        self.total_s = np.bincount(fid[outer], weights=dur[outer], minlength=nfun)

    def has(self, name: str) -> bool:
        return name in self.ids

    def durations(self, names) -> np.ndarray:
        ids = [self.ids[n] for n in names if n in self.ids]
        return self._dur[np.isin(self._fid, ids)]

    def calls_within(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` made anywhere inside a call of ``ancestor``."""
        if name not in self.ids or ancestor not in self.ids:
            return 0
        target = self.ids[ancestor]
        idx = self._parent[self._fid == self.ids[name]]
        inside = np.zeros(idx.shape, dtype=bool)
        while idx.size:
            live = idx >= 0
            hit = np.zeros(idx.shape, dtype=bool)
            hit[live] = self._fid[idx[live]] == target
            inside |= hit
            idx = np.where(live & ~hit, self._parent[np.maximum(idx, 0)], -1)
            if not (idx >= 0).any():
                break
        return int(inside.sum())
