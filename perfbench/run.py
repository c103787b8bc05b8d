"""The repository benchmark: TPC-H SF 0.01 served through QueryService.

Usage, from the repository root::

    python3 perfbench/run.py --workload adhoc_cold --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One run builds the TPC-H database, sets up the service on its default
engine, drives the workload's closed loop for ``--seconds`` with
statements drawn from ``--seed``, checks every result against the
``vectorized`` engine and prints a report.  Its last line is one JSON
object: the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  ``--workload all`` runs every
workload, each in a fresh process.  ``perfbench/README.md`` describes
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path

import spans
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SCALE_FACTOR = 0.01
#: The database is the same in every run and ``--seed`` draws the
#: statements.  Fixed data and a fixed warm-up keep set-up, and the
#: feedback loop's row-count-driven decisions, the same across seeds.
DATA_SEED = 7
#: Set-ups per run: the run's own, then more in fresh interpreters
#: (``--setup-only``) until there are ``SETUP_MIN_RUNS`` that took
#: ``SETUP_MIN_SECONDS`` together, or ``SETUP_MAX_RUNS``; ``setup_s`` is
#: their median.  Each is timed from before the program is imported to
#: the end of the warm-up, so work the program moves to import time or
#: into set-up shows.  The warm-up compiles and runs every query once,
#: so it cannot be repeated in one process without measuring warm caches
#: instead.
SETUP_MIN_RUNS = 3
SETUP_MIN_SECONDS = 5.0
SETUP_MAX_RUNS = 9
#: Seconds one block of five statements took, on either workload, on the
#: 2-vCPU machine this benchmark was written on; ``--seconds`` / this is
#: the number of blocks measured.
BLOCK_SECONDS = 3.5
#: Blocks the measured phase runs at least, however short ``--seconds``.
MIN_BLOCKS = 3
#: A traced run fails when more than this share of client latency falls
#: outside every layer's self time (QueryService.execute's own self time
#: counts as outside).  It was 0.2 % when this benchmark was written.
UNATTRIBUTED_MAX_SHARE = 0.05
#: Iterations of the speed probe (``probe_ms``), and what it took on the
#: machine this benchmark was written on when that machine ran fast.
#: Reported times are scaled to that speed: x PROBE_REFERENCE_MS / the
#: run's median probe.
PROBE_CALLS = 100_000
PROBE_REFERENCE_MS = 10.0
#: No block past the first ``MIN_BLOCKS`` starts once the phase has run
#: this many times ``--seconds``: on a machine much slower than the one
#: ``BLOCK_SECONDS`` was measured on, a run still ends in bounded time,
#: with fewer blocks.
DEADLINE_FACTOR = 1.2


@dataclass(frozen=True)
class Workload:
    prepared: bool        # PREPARE templates and EXECUTE them
    workers: int = 0      # QueryService(workers=...)


WORKLOADS = {
    "adhoc_cold": Workload(prepared=False),
    "prepared_parallel": Workload(prepared=True, workers=2),
}


@dataclass
class Record:
    """One statement as a client saw it."""

    stmt: object          # workloads.Statement
    phase: str            # "warmup" or "measure"
    stmt_id: int
    traced: bool = False
    seconds: float = 0.0
    error: str | None = None
    rows: list | None = None
    mismatch: bool = False
    reference_seconds: float | None = None


@dataclass
class Run:
    """Everything one benchmark run measured."""

    workload: str
    engine: str = ""
    records: list[Record] = field(default_factory=list)
    #: (seconds, probe_ms) per set-up; probe_ms is the mean of the
    #: speed probes run just before and just after it
    setups: list[tuple[float, float]] = field(default_factory=list)
    measure_s: float = 0.0
    peak_rss_mb: float = 0.0
    stats_delta: dict = field(default_factory=dict)
    probes_ms: list[float] = field(default_factory=list)

    @property
    def speed_factor(self) -> float:
        """Reported time = measured time x this factor."""
        return PROBE_REFERENCE_MS / statistics.median(self.probes_ms)

    @property
    def setup_s(self) -> float:
        return statistics.median(seconds for seconds, _ in self.setups)

    @property
    def setup_at_reference_s(self) -> float:
        """The median set-up, each scaled by the probes around it."""
        return statistics.median(seconds * PROBE_REFERENCE_MS / probe
                                 for seconds, probe in self.setups)

    def measured(self, traced: bool | None = None) -> list[Record]:
        return [r for r in self.records if r.phase == "measure"
                and (traced is None or r.traced == traced)]


# -- the correctness oracle --------------------------------------------------

def _same_value(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return a is b
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)
    return a == b


def same_rows(got, want) -> bool:
    """Row lists equal in order, floats within rounding of summation."""
    return len(got) == len(want) and all(
        len(g) == len(w) and all(map(_same_value, g, w))
        for g, w in zip(got, want)
    )


def check(record: Record, db) -> None:
    """Re-run a SELECT as literal text on the ``vectorized`` engine, on
    the database state it ran on, and mark the record if rows differ."""
    if record.error is not None:
        return
    start = time.perf_counter()
    rows = db.execute(record.stmt.oracle_sql, engine="vectorized").rows
    record.reference_seconds = time.perf_counter() - start
    record.mismatch = not same_rows(record.rows, rows)


# -- the run ---------------------------------------------------------------

def build_service(workload: Workload):
    from repro.bench.tpch import generate_tpch
    from repro.db import Database
    from repro.server import QueryService

    # Database() rather than tpch_database(): the latter pins the
    # pre-stencil "wasm" engine instead of the system default.
    db = Database()
    tables = generate_tpch(SCALE_FACTOR, DATA_SEED)
    for table in tables.values():
        db.register_table(table)
    service = QueryService(db, workers=workload.workers)
    if workload.workers:
        service.db.parallel.pool.ping()  # spawn and wait for the workers
    return service, tables


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self):
        self.a, self.b = 1, 2


def _add(x, y):
    return x + y


def _probe_once() -> float:
    cell, add, total = _Cell(), _add, 0
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(PROBE_CALLS):
            total = add(total, cell.a) + cell.b
        return (time.perf_counter() - start) * 1000
    finally:
        if gc_enabled:
            gc.enable()


def probe_ms() -> float:
    """Milliseconds of a fixed loop of Python calls and attribute reads:
    the kind of work the program's generated code does, in code of the
    benchmark's own, so no change to the program can move it.  The loop
    runs pinned to each CPU the process may use in turn, and the mean
    counts: the CPUs of a virtual machine slow down separately, and a
    statement on ``prepared_parallel`` runs on both.

    The speed of the virtual machine this benchmark was written on
    drifted by 20-40 % over minutes, and a slow run was slow in every
    statement.  This probe, timed before every measured statement,
    slowed with the statements, so reported times are scaled by it
    (``Run.speed_factor``).
    """
    if not hasattr(os, "sched_setaffinity"):  # not Linux
        return _probe_once()
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_probe_once())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


def stop_children() -> None:
    """Stop every process the run started and wait for each to end:
    workers a failed run left behind, then the resource tracker that
    ``multiprocessing`` starts for shared memory, which would otherwise
    outlive the run until it notices the run has exited."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    tracker = resource_tracker._resource_tracker
    if hasattr(tracker, "_stop"):
        tracker._stop()  # closes its pipe and waits for it to exit


def fresh_setup(name: str) -> tuple[float, float]:
    """(seconds, probe_ms) of one set-up in a fresh interpreter."""
    with subprocess.Popen(
            [sys.executable, __file__, "--workload", name, "--seed", "0",
             "--seconds", "0", "--setup-only"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=ROOT) as child:
        try:
            out, err = child.communicate()
        except BaseException:
            # SIGTERM, not SIGKILL: the child then stops its own workers
            child.terminate()
            child.wait()
            raise
    if child.returncode:
        raise subprocess.CalledProcessError(child.returncode, child.args,
                                            out, err)
    result = json.loads(out.splitlines()[-1])
    return result["seconds"], result["probe_ms"]


class Bench:
    """One workload, set up, measured and checked in this process."""

    def __init__(self, name: str, seed: int, seconds: float, tracer=None):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.service = None
        self.run = Run(workload=name)
        self._ids = count(1)

    def execute(self) -> Run:
        try:
            self.set_up()
            self.measure()
        finally:
            self.close()
        # workers are reaped by now and no other child has run yet:
        # RUSAGE_CHILDREN holds the largest worker's peak
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.run.peak_rss_mb = (own + self.workload.workers * child) / 1024
        setups = self.run.setups
        while len(setups) < SETUP_MAX_RUNS and (
                len(setups) < SETUP_MIN_RUNS
                or sum(seconds for seconds, _ in setups) < SETUP_MIN_SECONDS):
            setups.append(fresh_setup(self.name))
        return self.run

    def close(self) -> None:
        if self.service is not None:
            self.service.close()

    def send(self, stmt, phase: str, traced: bool = False) -> Record:
        record = Record(stmt, phase, next(self._ids), traced)
        scope = self.tracer.statement(record.stmt_id) if traced \
            else nullcontext()
        began = time.perf_counter()
        try:
            with scope:
                result = self.service.execute(stmt.sql,
                                              session=self.session)
            record.rows = result.rows
        except Exception as err:  # noqa: BLE001 - counted, never fatal
            record.error = f"{type(err).__name__}: {err}"
        record.seconds = time.perf_counter() - began
        self.run.records.append(record)
        return record

    def set_up(self) -> None:
        """Build the service, PREPARE and warm up, and record the time
        it took (see ``SETUP_MIN_RUNS``).  ``adhoc_cold`` has no warm-up:
        cold is what it measures."""
        probe_before = probe_ms()
        start = time.perf_counter()
        self.service, self.tables = build_service(self.workload)
        self.session = self.service.create_session()
        if self.workload.prepared:
            for query in wl.QUERIES:
                self.service.execute(
                    f"PREPARE {query} AS {wl.prepared_body(query)}",
                    session=self.session)
            # one pass runs the code PREPARE compiled and triggers the
            # feedback loop's one-off re-plans and re-routes
            rng = random.Random(DATA_SEED)
            for query in wl.QUERIES:
                self.send(wl.select_statement(query, rng, True), "warmup")
        seconds = time.perf_counter() - start
        self.run.setups.append((seconds, (probe_before + probe_ms()) / 2))
        self.run.engine = self.service.default_engine

    def measure(self) -> None:
        """The closed loop: one client sends its next statement when the
        previous one returned.  The phase is a fixed number of blocks,
        sized from ``--seconds``, not a time box: on this machine's faster
        or slower moments a time box fits more or fewer statements, and
        the count moves the tail percentile between groups of queries.
        The database does not change, so results are checked after the
        phase."""
        from repro.observability.metrics import get_registry
        from repro.wasm.stencil.cache import get_stencil_cache

        workload = self.workload
        blocks = max(MIN_BLOCKS, round(self.seconds / BLOCK_SECONDS))
        rng = random.Random(self.seed)
        # ad-hoc parameters are drawn without replacement, so every
        # SELECT text is new to the plan cache
        used = None if workload.prepared else set()
        plan_before = self.service.cache.stats
        stencil_before = get_stencil_cache().stats
        degraded = get_registry().counter("parallel_degraded_total")
        degraded_before = degraded.total
        phase_start = time.perf_counter()
        sent, probing = 0, 0.0
        for block in range(blocks):
            if block >= MIN_BLOCKS and (time.perf_counter() - phase_start
                                        > DEADLINE_FACTOR * self.seconds):
                break
            for stmt in wl.query_block(rng, workload.prepared, used):
                probe_start = time.perf_counter()
                self.run.probes_ms.append(probe_ms())
                probing += time.perf_counter() - probe_start
                # odd statements are traced, even ones are not; a block
                # has five, so each query is traced in every other block
                traced = self.tracer is not None and sent % 2 == 1
                self.send(stmt, "measure", traced)
                sent += 1
        self.run.measure_s = time.perf_counter() - phase_start - probing
        plan_after = self.service.cache.stats
        stencil_after = get_stencil_cache().stats
        self.run.stats_delta = {
            "plan_hits": plan_after["hits"] - plan_before["hits"],
            "plan_misses": plan_after["misses"] - plan_before["misses"],
            "stencil_hits": stencil_after["hits"] - stencil_before["hits"],
            "stencil_misses": (stencil_after["misses"]
                               - stencil_before["misses"]),
            "degraded": degraded.total - degraded_before,
        }
        if not workload.prepared and self.run.stats_delta["plan_hits"]:
            raise RuntimeError(
                f"{self.run.stats_delta['plan_hits']} plan-cache hits on a "
                f"workload whose every statement must miss")
        for record in self.run.records:
            check(record, self.service.db)


# -- metrics ---------------------------------------------------------------

def p50_ms(values) -> float | None:
    return statistics.median(values) * 1000 if values else None


def tail(values) -> tuple[float | None, int]:
    """(ms, percentile): the highest whole percentile, at least the
    median, with ten samples beyond it (nearest rank)."""
    if not values:
        return None, 0
    ordered = sorted(values)
    n = len(ordered)
    pct = (100 * (n - 10)) // n
    if pct <= 50:  # fewer than 20 samples
        return p50_ms(values), 50
    return ordered[math.ceil(pct * n / 100) - 1] * 1000, pct


def end_to_end(run: Run, records: list[Record]) -> tuple[dict, dict]:
    """(metrics, report extras) over ``records`` of the measured phase;
    the error rate also counts the warm-up."""
    ok = [r for r in records if r.error is None]
    latencies = [r.seconds for r in ok]
    tail_ms, tail_pct = tail(latencies)
    attempted = [r for r in run.records if r.phase == "warmup"] + records
    failed = sum(1 for r in attempted if r.error is not None or r.mismatch)
    metrics = {
        "setup_s": run.setup_s,
        "qps": len(run.measured()) / run.measure_s,
        "latency_p50_ms": p50_ms(latencies),
        "latency_tail_ms": tail_ms,
    }
    for query in wl.QUERIES:
        metrics[f"{query}_p50_ms"] = p50_ms(
            [r.seconds for r in ok if r.stmt.query == query])
    metrics["error_rate"] = failed / len(attempted)
    metrics["success_rate"] = 1 - metrics["error_rate"]
    metrics["peak_rss_mb"] = run.peak_rss_mb
    extras = {
        "samples": len(latencies),
        "tail_percentile": tail_pct,
        "attempted": len(attempted),
        "exceptions": sum(1 for r in attempted if r.error is not None),
        "mismatches": sum(1 for r in attempted if r.mismatch),
        "errors": sorted({f"{r.error.split(':')[0]} ({r.stmt.query})"
                          for r in attempted if r.error}),
    }
    return metrics, extras


def at_reference_speed(run: Run, metrics: dict) -> dict:
    """The metrics as the reference machine speed would give them: times
    (``*_s``, ``*_ms``) x ``run.speed_factor`` and ``qps`` / it, except
    set-up, which ran at other moments and is scaled by its own probes."""
    factor = run.speed_factor
    scaled = {}
    for name, value in metrics.items():
        if name == "setup_s":
            value = run.setup_at_reference_s
        elif value is not None and name == "qps":
            value /= factor
        elif value is not None and name.endswith(("_s", "_ms")):
            value *= factor
        scaled[name] = value
    return scaled


def per_layer(run: Run, tracer) -> dict:
    """Self times, counts and ratios per traced statement."""
    traced = run.measured(traced=True)
    ids = {r.stmt_id for r in traced}
    n = len(traced)
    layer_ms: dict[str, float] = {}
    for (stmt, name), seconds in tracer.self_times().items():
        if stmt in ids:
            layer_ms[name] = layer_ms.get(name, 0.0) + seconds * 1000
    counts: dict[str, float] = {}
    for (stmt, name), value in tracer.counts.items():
        if stmt in ids:
            counts[name] = counts.get(name, 0.0) + value
    missing = [name for name in spans.MUST_FIRE[run.workload]
               if name not in layer_ms and name not in counts]
    if missing:
        raise RuntimeError(
            f"traced layers never fired on {run.workload}: {missing}; "
            f"an entry point moved off this workload's path")

    def ms(layer):
        return layer_ms.get(layer, 0.0) / n

    def per_stmt(name):
        return counts.get(name, 0.0) / n

    def ratio(hits, misses):
        return hits / (hits + misses) if hits + misses else 0.0

    delta = run.stats_delta
    module_bytes = tracer.module_bytes()
    metrics = {name: ms(layer) for name, layer in (
        ("sql.parse_ms", "sql.parse"),
        ("sql.analyze_ms", "sql.analyze"),
        ("plan.build_ms", "plan.build"),
        ("plan.optimize_ms", "plan.optimize"),
        ("plan.analysis_ms", "plan.analysis"),
        ("plan.physical_ms", "plan.physical"),
        ("catalog.statistics_ms", "catalog.statistics"),
        ("backend.codegen_ms", "backend.codegen"),
        ("storage.map_ms", "storage.map"),
        ("wasm.validate_ms", "wasm.validate"),
        ("stencil.assemble_ms", "stencil.assemble"),
        ("runtime.liftoff_ms", "runtime.liftoff"),
        ("runtime.turbofan_ms", "runtime.turbofan"),
        ("runtime.instantiate_ms", "runtime.instantiate"),
        ("engines.prepare_ms", "engines.prepare"),
        ("engines.execute_ms", "engines.execute"),
        ("server.admission_wait_ms", "server.admission"),
        ("server.self_ms", "server.execute"),
        ("feedback.record_ms", "feedback.record"),
        ("parallel.execute_ms", "parallel.execute"),
        ("parallel.worker_wait_ms", "parallel.worker_wait"),
        ("parallel.merge_ms", "parallel.merge"),
    )}
    for name in ("plan.calls", "runtime.liftoff_functions",
                 "runtime.turbofan_functions", "runtime.tier_ups",
                 "feedback.replans", "feedback.reroutes"):
        metrics[name] = per_stmt(name)
    metrics["backend.module_bytes"] = sum(module_bytes[i] for i in ids) / n
    metrics["stencil.cache_hit_ratio"] = ratio(delta["stencil_hits"],
                                               delta["stencil_misses"])
    metrics["server.plancache_hit_ratio"] = ratio(delta["plan_hits"],
                                                  delta["plan_misses"])
    metrics["parallel.degraded"] = delta["degraded"] / len(run.measured())
    client_ms = sum(r.seconds for r in traced) * 1000 / n
    # QueryService.execute's own self time counts as unattributed too:
    # it is where the time of a layer whose wrapper went missing lands
    attributed_ms = sum(v for k, v in layer_ms.items()
                        if k != "server.execute") / n
    metrics["bench.unattributed_ms"] = client_ms - attributed_ms
    if metrics["bench.unattributed_ms"] > UNATTRIBUTED_MAX_SHARE * client_ms:
        raise RuntimeError(
            f"{metrics['bench.unattributed_ms']:.1f} ms of "
            f"{client_ms:.1f} ms client latency per statement is in no "
            f"layer's span; a traced entry point is off the path")
    metrics["bench.spans"] = sum(1 for span in tracer.spans
                                 if span[2] in ids) / n
    metrics["bench.probe_ms"] = statistics.median(run.probes_ms)
    # per query: traced minus untraced p50 (tracing overhead), and
    # untraced wasm p50 over vectorized p50 on the same statements, each
    # run alone
    overheads, speed_ratios = [], []
    untraced = run.measured(traced=False)
    for query in wl.QUERIES:
        on = [r.seconds for r in traced
              if r.error is None and r.stmt.query == query]
        off = [r for r in untraced if r.error is None
               and r.stmt.query == query and r.reference_seconds]
        if on and off:
            overheads.append(p50_ms(on) - p50_ms([r.seconds for r in off]))
        if off:
            speed_ratios.append(
                p50_ms([r.seconds for r in off])
                / p50_ms([r.reference_seconds for r in off]))
    metrics["bench.trace_overhead_ms"] = (
        statistics.fmean(overheads) if overheads else 0.0)
    metrics["engines.wasm_vs_vectorized_x"] = (
        statistics.geometric_mean(speed_ratios) if speed_ratios else 0.0)
    return metrics


# -- reporting ---------------------------------------------------------------

#: Printed in the report but not in BENCHMARK.json (see README.md).
_REPORT_UNITS = {**{f"{q}_p50_ms": "ms" for q in wl.QUERIES},
                 "error_rate": "ratio"}


def _fmt(value) -> str:
    if value is None:
        return "absent"
    return f"{value:.4f}" if abs(value) < 1000 else f"{value:.1f}"


def report(args, run: Run, e2e: dict, extras: dict, layers: dict | None,
           spec: dict) -> dict:
    """Print the human-readable report; return the JSON metrics."""
    import numpy

    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} engine={run.engine} "
          f"sf={SCALE_FACTOR} cpus={os.cpu_count()} "
          f"python={platform.python_version()} numpy={numpy.__version__}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(_REPORT_UNITS)
    scope = " (untraced statements)" if layers is not None else ""
    factor = run.speed_factor
    scaled = at_reference_speed(run, e2e)
    print(f"## end-to-end{scope}: {extras['samples']} successful "
          f"statements, {len(run.measured())} measured in "
          f"{run.measure_s:.2f} s; speed probe median "
          f"{statistics.median(run.probes_ms):.2f} ms (reference "
          f"{PROBE_REFERENCE_MS} ms), times scaled x {factor:.4f}")
    print(f"{'metric':<24} {'at reference':>14} {'as measured':>14}")
    for name, value in scaled.items():
        note = (f"  (p{extras['tail_percentile']})"
                if name == "latency_tail_ms" else "")
        print(f"{name:<24} {_fmt(value):>14} {_fmt(e2e[name]):>14} "
              f"{units[name]}{note}")
    print(f"statements attempted {extras['attempted']} (warm-up included): "
          f"{extras['exceptions']} exceptions, {extras['mismatches']} "
          f"results differing from vectorized")
    for error in extras["errors"]:
        print(f"  error: {error}")
    print("set-ups (s @ probe ms): " + ", ".join(
        f"{seconds:.3f} @ {probe:.2f}" for seconds, probe in run.setups))
    if layers is not None:
        layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print("## per-layer (per traced statement)")
        for name, value in layers.items():
            print(f"{name:<30} {_fmt(value):>14} {layer_units[name]}")
    wanted = spec["per_layer"] if layers is not None else spec["end_to_end"]
    source = layers if layers is not None else scaled
    metrics = {}
    for metric in wanted:
        value = source.get(metric["name"])
        if value is None:
            raise RuntimeError(f"metric {metric['name']} was not measured")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return metrics


def run_all(args) -> int:
    """Every workload in its own process, so process-wide caches (the
    stencil LRU, the metrics registry) start empty each time."""
    status = 0
    for name in WORKLOADS:
        status |= subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it as JSON and exit "
                        "(a run starts these itself, see SETUP_MIN_RUNS)")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the finally blocks below
    # still stop every process the run started
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        bench = Bench(args.workload, args.seed, args.seconds)
        try:
            bench.set_up()
        finally:
            bench.close()
            stop_children()
        seconds, probe = bench.run.setups[0]
        print(json.dumps({"seconds": seconds, "probe_ms": probe}))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    try:
        run = Bench(args.workload, args.seed, args.seconds, tracer).execute()
    finally:
        stop_children()
    e2e, extras = end_to_end(run, run.measured(traced=False))
    layers = per_layer(run, tracer) if tracer is not None else None
    metrics = report(args, run, e2e, extras, layers, spec)
    if tracer is not None:
        out = ROOT / ".perfbench_out" / \
            f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(out)
        print(f"# {len(tracer.spans)} spans written to "
              f"{out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not any(r.mismatch for r in run.records),
        "attempted": len(run.records),
        "failed": sum(1 for r in run.records if r.error or r.mismatch),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
