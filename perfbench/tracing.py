"""Spans around the public functions of each voltacell layer, recorded from
outside the package.

``Tracer.install`` patches module attributes (and every other voltacell
module's reference to the same function object) and class attributes, so a
call made anywhere inside the package passes through a recording wrapper.
Nothing under ``src/`` is edited.  Each span is one row of five columns --
name id, start, end, parent span, run id -- held in compact arrays in memory
and written out once, when the traced run ends.  Spans whose call raised are
listed separately.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
import types
from array import array

import numpy as np

# The layers are the package's modules; span names are "<layer>.<qualname>".
LAYERS = ("mesh", "physics", "assemble", "solve", "stepping", "postprocess",
          "driver")


def _layer_callables(module):
    """(span name, owner, attribute, function) for every public function and
    every public method (plus a hand-written ``__init__``) defined in a
    module.  Properties, class/static methods, dataclass-generated methods and
    exception classes are left alone."""
    layer = module.__name__.rsplit(".", 1)[-1]
    out = []
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, types.FunctionType) and not name.startswith("_"):
            out.append((f"{layer}.{name}", module, name, obj))
        elif isinstance(obj, type) and not issubclass(obj, BaseException):
            for mname, meth in vars(obj).items():
                if not isinstance(meth, types.FunctionType):
                    continue
                if mname.startswith("_") and not (
                        mname == "__init__"
                        and not dataclasses.is_dataclass(obj)):
                    continue
                out.append((f"{layer}.{obj.__name__}.{mname}", obj, mname,
                            meth))
    return out


class Tracer:
    """In-memory span log plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("i")
        self.raised = array("q")
        self.run_id = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, span_name: str, fn):
        nid = self._name_id.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        names, starts, ends = self.name, self.start, self.end
        parents, runs, stack = self.parent, self.run, self._stack
        raised = self.raised
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(tracer.run_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised.append(idx)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self):
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"voltacell.{layer}")
            for span_name, owner, attr, fn in _layer_callables(module):
                wrapped[fn] = traced = self._wrap(span_name, fn)
                self._patch(owner, attr, traced)
        # Names bound by ``from .x import f`` elsewhere in the package.
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("voltacell"):
                continue
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._patch(module, attr, wrapped[obj])

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Reading the log
    # ------------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int64).copy(),
        }

    def write(self, path: str):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Totals, self times and ancestry queries over a tracer's spans."""

    def __init__(self, tracer: Tracer):
        cols = tracer.arrays()
        self.names = tracer.names
        self.name = cols["name"]
        self.parent = cols["parent"]
        self.dur = cols["end"] - cols["start"]
        has_parent = self.parent >= 0
        child = np.zeros_like(self.dur)
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        self.returned = np.ones(len(self.name), dtype=bool)
        self.returned[cols["raised"]] = False

    def __len__(self):
        return len(self.name)

    def _mask(self, span_name: str) -> np.ndarray:
        if span_name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(span_name)

    def count(self, span_name: str, returned_only: bool = False) -> int:
        mask = self._mask(span_name)
        if returned_only:
            mask &= self.returned
        return int(mask.sum())

    def total(self, span_name: str) -> float:
        return float(self.dur[self._mask(span_name)].sum())

    def self_total(self, span_name: str) -> float:
        return float(self.self_time[self._mask(span_name)].sum())

    def count_within(self, span_name: str, ancestor: str) -> int:
        """Spans named ``span_name`` below an ``ancestor`` span that
        returned (calls that raised are left out)."""
        if ancestor not in self.names:
            return 0
        anc = self.names.index(ancestor)
        n = 0
        for i in np.nonzero(self._mask(span_name))[0]:
            p = self.parent[i]
            while p >= 0 and self.name[p] != anc:
                p = self.parent[p]
            n += p >= 0 and self.returned[p]
        return int(n)
