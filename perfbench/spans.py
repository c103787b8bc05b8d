"""Benchmark-side tracing: spans around each ``repro`` layer's public
entry points, recorded from outside the program.

:func:`install` wraps every target in :data:`TARGETS` and fails loudly
when one cannot be resolved, so a rename or removal in the program
cannot silently zero a layer metric.  A wrapper records only while its
thread has a statement open (:meth:`Tracer.statement`); other calls pass
straight through, which lets a run interleave traced and untraced
statements on one warm service.

Spans (name, start, end, parent span, statement id) are kept in memory
and written out once at the end of a run.  A layer's self time is its
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: (layer name, module, attribute path, kind).  ``span`` records a timed
#: span; ``count`` only counts calls, so the callee's time stays with its
#: caller's span.
TARGETS = (
    ("server.execute", "repro.server.service", "QueryService.execute", "span"),
    ("server.admission", "repro.server.scheduler", "MorselScheduler.admit",
     "span"),
    ("server.admission", "repro.server.scheduler", "MorselScheduler.gate",
     "span"),
    ("sql.parse", "repro.sql.parser", "parse", "span"),
    ("sql.analyze", "repro.sql.analyzer", "analyze", "span"),
    ("plan.calls", "repro.db.database", "Database.plan", "count"),
    ("plan.build", "repro.plan.builder", "build_logical_plan", "span"),
    ("plan.optimize", "repro.plan.optimizer", "optimize", "span"),
    ("plan.analysis", "repro.plan.analysis.dataflow", "analyze_plan", "span"),
    ("plan.physical", "repro.plan.physical", "create_physical_plan", "span"),
    ("catalog.statistics", "repro.catalog.statistics",
     "ColumnStatistics.from_array", "span"),
    ("backend.codegen", "repro.backend.codegen", "QueryCompiler.compile",
     "span"),
    ("storage.map", "repro.storage.rewiring", "AddressSpace.map_buffer",
     "span"),
    ("storage.map", "repro.storage.rewiring", "AddressSpace.alloc", "span"),
    ("wasm.validate", "repro.wasm.validator", "validate_module", "span"),
    ("stencil.assemble", "repro.wasm.stencil.assemble", "assemble_module",
     "span"),
    ("runtime.liftoff", "repro.wasm.runtime.liftoff",
     "LiftoffCompiler.compile", "span"),
    ("runtime.turbofan", "repro.wasm.runtime.turbofan",
     "TurboFanCompiler.compile", "span"),
    ("runtime.instantiate", "repro.wasm.runtime.engine", "Engine.instantiate",
     "span"),
    ("runtime.tier_ups", "repro.wasm.runtime.engine", "Engine.tier_up",
     "count"),
    ("runtime.tier_ups", "repro.wasm.runtime.engine", "Engine.tier_up_stencil",
     "count"),
    ("engines.prepare", "repro.engines.wasm_engine",
     "WasmEngine.prepare_executable", "span"),
    ("engines.execute", "repro.engines.wasm_engine",
     "WasmEngine.execute_prepared", "span"),
    ("feedback.record", "repro.feedback.store", "FeedbackStore.record",
     "span"),
    ("parallel.execute", "repro.parallel.executor", "ParallelExecutor.execute",
     "span"),
    ("parallel.worker_wait", "repro.parallel.pool", "WorkerPool.run_tasks",
     "span"),
    ("parallel.merge", "repro.parallel.merge", "merge_concat", "span"),
    ("parallel.merge", "repro.parallel.merge", "merge_groups", "span"),
    ("parallel.merge", "repro.parallel.merge", "merge_scalar", "span"),
)

#: Layers each workload must reach in a traced run; a layer that stops
#: firing means its wrapper no longer sits on the path the workload
#: drives, and the run fails instead of reporting a zero.
MUST_FIRE = {
    "adhoc_cold": ("server.execute", "sql.parse", "sql.analyze", "plan.build",
                   "plan.physical", "backend.codegen", "engines.prepare",
                   "engines.execute", "runtime.instantiate"),
    "prepared_parallel": ("server.execute", "parallel.execute",
                          "parallel.worker_wait", "parallel.merge"),
}


class Tracer:
    """Span and counter store shared by every wrapper of one run."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, stmt, name, start, end)
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.modules: list[tuple[int, object]] = []  # (stmt, wasm module)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def statement(self, stmt_id: int):
        """Record spans of this thread's calls as statement ``stmt_id``."""
        local = self._local
        local.stmt, local.stack = stmt_id, []
        try:
            yield
        finally:
            local.stmt = None

    def count(self, stmt: int, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[(stmt, name)] += amount

    def span_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._local
            stmt = getattr(local, "stmt", None)
            if stmt is None:
                return fn(*args, **kwargs)
            stack = local.stack
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, stmt, name, start, end))
            tracer._observe(name, stmt, result)
            return result

        return traced

    def count_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stmt = getattr(tracer._local, "stmt", None)
            if stmt is not None:
                tracer.count(stmt, name)
            return fn(*args, **kwargs)

        return counted

    def _observe(self, name: str, stmt: int, result) -> None:
        """Counts read off a layer's return value."""
        if name == "feedback.record":
            self.count(stmt, "feedback.replans", int(result.replan))
            self.count(stmt, "feedback.reroutes", int(result.reroute))
        elif name == "backend.codegen":
            # encoded after the run, outside every timed region
            self.modules.append((stmt, result.module))
        elif name in ("runtime.liftoff", "runtime.turbofan"):
            self.count(stmt, f"{name}_functions")

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[tuple[int, str], float]:
        """Seconds of self time per (statement, layer)."""
        child_time: dict[int, float] = defaultdict(float)
        for span_id, parent, _, _, start, end in self.spans:
            if parent:
                child_time[parent] += end - start
        totals: dict[tuple[int, str], float] = defaultdict(float)
        for span_id, _, stmt, name, start, end in self.spans:
            totals[(stmt, name)] += end - start - child_time[span_id]
        return totals

    def module_bytes(self) -> dict[int, int]:
        from repro.wasm.encoder import encode_module

        sizes: dict[int, int] = defaultdict(int)
        for stmt, module in self.modules:
            sizes[stmt] += len(encode_module(module))
        return sizes

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            json.dump({"fields": ["id", "parent", "stmt", "name", "start",
                                  "end"],
                       "spans": self.spans}, out)


def _resolve(module_name: str, attr_path: str):
    """(owner, attribute, original) for one target; raises if gone."""
    try:
        owner = importlib.import_module(module_name)
        *outer, attr = attr_path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
    except (ImportError, AttributeError, KeyError) as err:
        raise RuntimeError(
            f"traced entry point {module_name}.{attr_path} is gone "
            f"({type(err).__name__}: {err}); update perfbench/spans.py"
        ) from None
    return owner, attr, raw


def install(tracer: Tracer) -> None:
    """Wrap every target.  Module-level functions are also replaced in
    every loaded ``repro`` module that imported them by name."""
    for name, module_name, attr_path, kind in TARGETS:
        owner, attr, raw = _resolve(module_name, attr_path)
        make = tracer.span_wrapper if kind == "span" else tracer.count_wrapper
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(name, raw.__func__)))
            continue
        wrapped = make(name, raw)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, attr, None) is raw):
                setattr(module, attr, wrapped)
