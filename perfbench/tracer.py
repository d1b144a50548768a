"""Span tracing of spinhall from outside the package.

The tracer replaces the module-level bindings through which one layer
calls the next (for example ``spinhall.sweep._amplitudes``, the name
``_fill_block`` looks up at call time) with wrappers that record one span
per call: name, start, end, parent span, thread and an amount of work
(points, quadrature nodes, bytes or threads).  Nothing under ``src/`` is
edited; the wrappers live only in the traced worker process.

Each thread keeps its own parent stack.  A span opened by a thread whose
stack is empty (a sweep worker thread) takes as parent the innermost span
open on the thread that installed the tracer, i.e. the ``sweep`` call that
started the pool, so block time is attributed to the sweep and self times
stay non-negative.
"""

from __future__ import annotations

import importlib
import itertools
import os
import threading
from time import perf_counter
from typing import NamedTuple

import numpy as np

SOLVER = "sweep.solver"
KERNELS = ("medium.susceptibility", "multilayer.amplitudes", "shifts.kernel")


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    work: float
    cost: float = 0.0  # wrapper time outside the wrapped call


def _size_of_first(args, kwargs, result):
    return np.size(args[0])


def _kernel_points(args, kwargs, result):
    return max(np.size(args[0]), np.size(args[1]))


def _block_points(args, kwargs, result):
    return len(args[2])


def _oracle_nodes(args, kwargs, result):
    quadrature = args[3] if len(args) > 3 else kwargs.get("quadrature")
    if quadrature is None:
        quadrature = importlib.import_module("spinhall.shifts").GridSpec()
    n = quadrature.nodes
    return n * n + (2 * n) * (2 * n)  # coarse grid plus the doubled grid


def _written_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _sweep_threads(args, kwargs, result):
    return kwargs.get("threads", args[4] if len(args) > 4 else 1)


# (module, attribute, span name, work measure)
BINDINGS = (
    ("spinhall.cli", "load_config", "config.load", None),
    ("spinhall.cli", "sweep", "sweep.grid", _sweep_threads),
    ("spinhall.cli", "_write_rows", "cli.write", _written_bytes),
    ("spinhall.cli", "susceptibility", "medium.susceptibility", _size_of_first),
    ("spinhall.cli", "shift_kernel", "shifts.kernel", _kernel_points),
    ("spinhall.cli", "shift_from_beam_integral", "shifts.oracle", _oracle_nodes),
    ("spinhall.cli", "find_brewster", SOLVER, None),
    ("spinhall.cli", "find_transparency_windows", SOLVER, None),
    ("spinhall.cli", "max_shift_vs_detuning", SOLVER, None),
    ("spinhall.sweep", "_fill_block", "sweep.fill", _block_points),
    ("spinhall.sweep", "susceptibility", "medium.susceptibility", _size_of_first),
    ("spinhall.sweep", "_amplitudes", "multilayer.amplitudes", _size_of_first),
    ("spinhall.sweep", "shift_kernel", "shifts.kernel", _kernel_points),
    ("spinhall.multilayer", "stack_reflection_derivative",
     "multilayer.derivative", None),
)


class Tracer:
    """Collects spans in memory; ``install`` patches the bindings."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        return self._home[-1] if self._home else None

    def wrap(self, fn, name, work=None):
        tracer = self

        def traced(*args, **kwargs):
            entered = perf_counter()
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            amount = work(args, kwargs, result) if work else 0
            cost = (start - entered) + (perf_counter() - end)
            tracer.spans.append(Span(sid, name, start, end, parent,
                                     threading.get_ident(), float(amount), cost))
            return result

        return traced

    def wrap_rows(self, rows):
        """Generator wrapper: the span runs from the first row requested
        to exhaustion, which is how the CLI materialises the table."""
        tracer = self

        def traced(table):
            parent = tracer._parent(tracer._stack())
            sid = next(tracer._ids)
            start = perf_counter()
            yield from rows(table)
            tracer.spans.append(Span(sid, "sweep.rows", start, perf_counter(),
                                     parent, threading.get_ident(),
                                     float(len(table))))

        return traced

    def install(self):
        for module_name, attr, name, work in BINDINGS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(getattr(module, attr), name, work))
        config = importlib.import_module("spinhall.config")
        manifest = config.RunManifest
        for_run = manifest.__dict__["for_run"].__func__
        manifest.for_run = classmethod(self.wrap(for_run, "config.manifest"))
        manifest.write = self.wrap(manifest.write, "config.manifest")
        table = importlib.import_module("spinhall.sweep").SweepTable
        table.rows = self.wrap_rows(table.rows)


def _union(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans, t0: float, t1: float) -> dict:
    """Per-layer numbers of one traced command loop spanning [t0, t1].

    Self time is a span's duration minus the part of it that its child
    spans cover and minus its children's wrapper costs.
    ``cli.other.self_s`` is the loop time no span covers (argument
    parsing, config building, table allocation), again without wrapper
    costs, so on one thread self times + other + overhead = loop time.
    """
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    by_id = {s.sid: s for s in spans}
    self_s: dict = {}
    calls: dict = {}
    work: dict = {}
    total: dict = {}
    for s in spans:
        kids = children.get(s.sid, ())
        own = ((s.end - s.start) - _union((c.start, c.end) for c in kids)
               - sum(c.cost for c in kids))
        self_s[s.name] = self_s.get(s.name, 0.0) + own
        calls[s.name] = calls.get(s.name, 0) + 1
        work[s.name] = work.get(s.name, 0.0) + s.work
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)

    def under_solver(s):
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == SOLVER:
                return True
        return False

    solver_evals = sum(1 for s in spans if s.name in KERNELS and under_solver(s))
    busy = sum(s.end - s.start for s in spans if s.name == "sweep.fill"
               and s.parent is not None and by_id[s.parent].name == "sweep.grid")
    capacity = sum((s.end - s.start) * s.work for s in spans
                   if s.name == "sweep.grid")
    written = work.get("cli.write", 0.0)
    write_time = total.get("cli.write", 0.0)
    blocks = calls.get("sweep.fill", 0)
    covered = _union((s.start, s.end) for s in spans)  # all inside [t0, t1]

    out = {
        "cli.write.self_s": self_s.get("cli.write", 0.0),
        "cli.write.bytes": written,
        "cli.write.mb_per_s": written / 1e6 / write_time if write_time else 0.0,
        "sweep.rows.self_s": self_s.get("sweep.rows", 0.0),
        "sweep.blocks": blocks,
        "sweep.points_per_block": work.get("sweep.fill", 0.0) / blocks if blocks else 0.0,
        "sweep.fill.self_s": self_s.get("sweep.fill", 0.0),
        "sweep.solver.calls": calls.get(SOLVER, 0),
        "sweep.solver.evals": solver_evals,
        "sweep.solver.self_s": self_s.get(SOLVER, 0.0),
        "shifts.oracle.calls": calls.get("shifts.oracle", 0),
        "shifts.oracle.nodes": work.get("shifts.oracle", 0.0),
        "shifts.oracle.self_s": self_s.get("shifts.oracle", 0.0),
        "multilayer.derivative.calls": calls.get("multilayer.derivative", 0),
        "multilayer.derivative.self_s": self_s.get("multilayer.derivative", 0.0),
        "sweep.pool.efficiency": busy / capacity if capacity else 0.0,
        "config.load.self_s": self_s.get("config.load", 0.0),
        "config.manifest.self_s": self_s.get("config.manifest", 0.0),
        "cli.other.self_s": (t1 - t0) - covered - sum(
            s.cost for s in children.get(None, ())),
        "trace.overhead_s": sum(s.cost for s in spans),
    }
    for name in KERNELS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.points"] = work.get(name, 0.0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    return out
