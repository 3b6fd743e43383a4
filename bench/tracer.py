"""Span tracer for the benchmark's traced run.

The tracer wraps, from outside the library, the public calls each layer of
modfault receives, and records one span per call: its name, start, end,
parent span and the fault vector it belongs to.  Spans are kept in memory in
columnar arrays and reduced to per-layer metrics when the run ends.  Nothing
under ``src/`` knows about it.

A fault vector's span runs from the start of ``inject`` to the end of
``classify``; every span opened in between carries that vector's id.  A
span's self time is its duration minus the durations of its child spans (the
run is single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Callable, Dict, List

import modfault.analyzer
import modfault.cli
import modfault.executor
import modfault.reporting
import modfault.rewriter

# Names the tracer replaces with a traced wrapper.  The analyzer and the
# command-line interface call these through their module globals; the rewriter
# and the executor call the term helpers the same way.
_ANALYZER = ("nominal_run", "run_symbolic", "pretty_expr")
_TERMS = ((modfault.rewriter, "sort_key"),
          (modfault.rewriter, "strip_protection"),
          (modfault.executor, "strip_protection"))
_REWRITER_METHODS = ("normalize", "decide", "decide_check")

VECTOR = "vector"


class Tracer:
    """Collects spans while installed; ``uninstall`` restores the library."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.vector = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: List[int] = []
        self._vector_span = -1     # open vector span, -1 outside a vector
        self._vector_id = 0        # id of the open vector, 0 outside one
        self._vectors = 0
        self._unrolled: set = set()
        self.distinct_unrolled = 0
        self.sites = 0
        self._saved: List[tuple] = []

    # -- span bookkeeping --------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, t: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.vector.append(self._vector_id)
        self.start.append(t)
        self.end.append(t)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t: int) -> None:
        # Spans left open above idx (a vector whose run raised before
        # classify) end with it.
        stack = self._stack
        while stack:
            top = stack.pop()
            self.end[top] = t
            if top == self._vector_span:
                self._vector_span = -1
                self._vector_id = 0
            if top == idx:
                break

    def _begin_vector(self, t: int) -> None:
        if self._vector_span >= 0:
            self._close(self._vector_span, t)
        self._vectors += 1
        self._vector_id = self._vectors
        self._vector_span = self._open(self._name_id(VECTOR), t)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid, clock())
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx, clock())
        return traced

    def _wrap_inject(self, fn: Callable) -> Callable:
        traced = self._wrap("inject", fn)

        @functools.wraps(fn)
        def inject(program, vector):
            self._begin_vector(time.perf_counter_ns())
            return traced(program, vector)
        return inject

    def _wrap_enumerate_sites(self, fn: Callable) -> Callable:
        traced = self._wrap("enumerate_sites", fn)

        @functools.wraps(fn)
        def enumerate_sites(program, cfg):
            sites = traced(program, cfg)
            self.sites += len(sites)
            return sites
        return enumerate_sites

    def _wrap_inline(self, fn: Callable) -> Callable:
        traced = self._wrap("inline", fn)

        @functools.wraps(fn)
        def inline(program):
            unrolled = traced(program)
            if self._vector_id:
                self._unrolled.add(hash(unrolled))
            return unrolled
        return inline

    def _wrap_classify(self, fn: Callable) -> Callable:
        traced = self._wrap("classify", fn)

        @functools.wraps(fn)
        def classify(*args, **kwargs):
            try:
                return traced(*args, **kwargs)
            finally:
                if self._vector_span >= 0:
                    self._close(self._vector_span, time.perf_counter_ns())
        return classify

    def _wrap_render(self, fn: Callable) -> Callable:
        per_format = {fmt: self._wrap(f"render.{fmt}", fn)
                      for fmt in modfault.reporting.FORMATS}

        @functools.wraps(fn)
        def render(report, fmt):
            return per_format.get(fmt, fn)(report, fmt)
        return render

    def _patch(self, owner, attr: str, wrapped: Callable) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        an = modfault.analyzer
        for attr in _ANALYZER:
            self._patch(an, attr, self._wrap(attr, getattr(an, attr)))
        self._patch(an, "enumerate_sites", self._wrap_enumerate_sites(an.enumerate_sites))
        self._patch(an, "inject", self._wrap_inject(an.inject))
        self._patch(an, "inline", self._wrap_inline(an.inline))
        self._patch(an, "classify", self._wrap_classify(an.classify))
        for module, attr in _TERMS:
            self._patch(module, attr, self._wrap(attr, getattr(module, attr)))
        rw = modfault.rewriter.Rewriter
        for attr in _REWRITER_METHODS:
            self._patch(rw, attr, self._wrap(attr, getattr(rw, attr)))
        cli = modfault.cli
        self._patch(cli, "parse", self._wrap("parse", cli.parse))
        self._patch(cli, "analyze", self._wrap("analyze", cli.analyze))
        self._patch(cli, "render", self._wrap_render(cli.render))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def end_program(self) -> None:
        """Count the distinct faulted unrolled terms of one analysis.

        Terms are told apart by hash, taken as ``inline`` returns: keeping
        the terms alive to compare them at the end slows the whole traced
        run through the cyclic garbage collector.  The hashing is charged to
        the vector span's self time, and the rewriter later finds those
        hashes cached."""
        self.distinct_unrolled += len(self._unrolled)
        self._unrolled.clear()

    # -- reduction -----------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total ms and self ms."""
        n = len(self.name)
        child_ns = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_ns[p] += end[i] - start[i]
        totals = {name: {"calls": 0, "ns": 0, "self_ns": 0} for name in self.names}
        for i in range(n):
            t = totals[self.names[self.name[i]]]
            d = end[i] - start[i]
            t["calls"] += 1
            t["ns"] += d
            t["self_ns"] += d - child_ns[i]
        return {name: {"calls": t["calls"], "ms": t["ns"] / 1e6,
                       "self_ms": t["self_ns"] / 1e6}
                for name, t in totals.items()}

    def vector_ms(self) -> List[float]:
        vid = self._ids.get(VECTOR)
        return [(self.end[i] - self.start[i]) / 1e6
                for i in range(len(self.name)) if self.name[i] == vid]

    @property
    def spans(self) -> int:
        return len(self.name)
