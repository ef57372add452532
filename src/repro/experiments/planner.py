"""Run-level execution planner: plan → dedupe → execute → fan out.

A sweep is not the atomic unit of work — a *run* is: one simulation of
one scheme on one workload's trace under one config/seed/epoch. This
module decomposes any set of :class:`~repro.experiments.spec.SimSpec`\\ s
into those atomic :class:`RunUnit`\\ s, each identified by
:meth:`SimSpec.run_hash` (the content hash of the single-pair sub-spec),
then resolves every unit through a cache hierarchy before simulating
anything:

1. the in-process run memo (``_RUN_MEMO``, shared across sweeps);
2. the granular run store (:class:`~repro.experiments.cache.RunStore`;
   on disk, :class:`~repro.experiments.cache.RunCache` keeps one file
   per run under ``<cache>/runs/``);
3. actual simulation, serial or on the work-stealing pool
   (:func:`~repro.experiments.parallel.run_units_parallel`) with
   ``workloads x schemes`` way parallelism.

Because unit identity is content-hashed, two artifacts whose specs
overlap (two figures sharing a scheme subset, an ablation varying one
knob) share units: :func:`build_plan` unions and dedupes them so the
overlap simulates exactly once, and the per-run store makes the overlap
persistent across processes. :class:`PlanStats` accounts for every unit
(``plan.units_total/cached/simulated/deduped`` metrics counters), which
is how the benchmark and CI smoke assert "warm rerun simulates zero".
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..memsim.engine import last_run_provenance
from ..memsim.stats import RunStats
from ..obs import Telemetry, get_logger
from ..obs.progress import ProgressLine
from ..obs.spans import SpanTracker, current_tracker, maybe_span, tracker_scope
from .cache import RunStore
from .parallel import run_units_parallel, simulate_unit
from .spec import SimSpec

__all__ = [
    "DEFAULT_RUN_MEMO_CAPACITY",
    "RunUnit",
    "PlanStats",
    "ExecutionPlan",
    "plan_units",
    "build_plan",
    "execute_plan",
    "lease_batch",
    "lookup_cached",
    "clear_run_memo",
    "run_memo_capacity",
    "run_memo_size",
    "set_run_memo_capacity",
]

_log = get_logger("experiments.planner")

#: Default bound on the in-process run memo. Generous enough that every
#: artifact of a full `readduo run all` (a few hundred distinct units)
#: stays memoized, small enough that a long-lived daemon serving an
#: unbounded stream of distinct specs cannot grow without limit.
DEFAULT_RUN_MEMO_CAPACITY = 4096

#: In-process memo of completed runs, keyed by run hash, in LRU order
#: (oldest first). Shared across sweeps, so overlapping specs within one
#: process never re-simulate shared pairs. Bounded by
#: :data:`_RUN_MEMO_CAPACITY` — eviction only costs a possible
#: granular-disk re-read, never correctness. Cleared by
#: :func:`clear_run_memo` / :func:`repro.experiments.runner.clear_sweep_cache`.
_RUN_MEMO: "OrderedDict[str, RunStats]" = OrderedDict()

_RUN_MEMO_CAPACITY = DEFAULT_RUN_MEMO_CAPACITY

#: Guards every memo mutation. The serve daemon's parallel executor runs
#: several ``execute_plan`` calls concurrently on threads; individual
#: OrderedDict operations are GIL-atomic in CPython, but the
#: read-move-evict sequences here are not, so they take the lock.
_RUN_MEMO_LOCK = threading.RLock()


def clear_run_memo() -> None:
    """Drop the in-process per-run memo (tests use this for isolation)."""
    with _RUN_MEMO_LOCK:
        _RUN_MEMO.clear()


def run_memo_size() -> int:
    """Number of runs currently memoized in-process."""
    return len(_RUN_MEMO)


def run_memo_capacity() -> int:
    """The memo's current LRU bound (entries)."""
    return _RUN_MEMO_CAPACITY


def set_run_memo_capacity(capacity: int) -> int:
    """Re-bound the in-process run memo; returns the previous capacity.

    The memo is a cache, not a source of truth — shrinking it below the
    current population evicts least-recently-used entries immediately,
    and a later plan that needs an evicted run simply falls through to
    the granular disk store (or re-simulates). Long-lived services size
    this to their memory budget (:class:`~repro.service.ExecutionService`
    exposes it as ``memo_capacity``).
    """
    global _RUN_MEMO_CAPACITY
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    with _RUN_MEMO_LOCK:
        previous = _RUN_MEMO_CAPACITY
        _RUN_MEMO_CAPACITY = int(capacity)
        while len(_RUN_MEMO) > _RUN_MEMO_CAPACITY:
            _RUN_MEMO.popitem(last=False)
    return previous


def _memo_get(key: str) -> Optional[RunStats]:
    """LRU-aware memo lookup: a hit refreshes the entry's recency."""
    with _RUN_MEMO_LOCK:
        stats = _RUN_MEMO.get(key)
        if stats is not None:
            _RUN_MEMO.move_to_end(key)
        return stats


def _memo_put(key: str, stats: RunStats) -> None:
    """Insert/refresh one memo entry, evicting LRU entries past the cap."""
    with _RUN_MEMO_LOCK:
        _RUN_MEMO[key] = stats
        _RUN_MEMO.move_to_end(key)
        while len(_RUN_MEMO) > _RUN_MEMO_CAPACITY:
            _RUN_MEMO.popitem(last=False)


@dataclass(frozen=True)
class RunUnit:
    """One atomic simulation: a (workload, scheme) pair under a spec.

    Attributes:
        workload: Benchmark name.
        scheme: Canonical scheme name.
        spec: The single-pair sub-spec (:meth:`SimSpec.run_subspec`)
            carrying the config/seed/epoch — everything a worker needs.
        key: ``spec.content_hash()``; the unit's cache/dedup identity.
    """

    workload: str
    scheme: str
    spec: SimSpec
    key: str


def plan_units(spec: SimSpec) -> List[RunUnit]:
    """Decompose one spec into its run units, in canonical grid order."""
    units: List[RunUnit] = []
    for name in spec.effective_workloads():
        for scheme in spec.schemes:
            sub = spec.run_subspec(name, scheme)
            units.append(
                RunUnit(workload=name, scheme=scheme, spec=sub, key=sub.content_hash())
            )
    return units


@dataclass
class PlanStats:
    """Unit accounting for one planned execution.

    ``units_total`` counts units as *requested* (summed over specs,
    before dedup); every requested unit lands in exactly one of
    ``units_deduped`` (duplicate of an earlier unit in the same plan),
    ``units_memo`` / ``units_disk`` (served from the in-process memo or
    the granular store), or ``units_simulated``.

    Attributes:
        units_total: Units requested across all specs, duplicates included.
        units_deduped: Duplicates folded away by :func:`build_plan`.
        units_memo: Units served from the in-process run memo.
        units_disk: Units served from the granular store.
        units_simulated: Units actually executed.
        stale: Unreadable granular entries encountered (re-simulated).
        quarantined: Unusable granular entries renamed aside (``.bad``)
            by the run cache; a subset of ``stale``.
        schedule_wall_s: Planner overhead — wall time spent classifying
            and storing, excluding the simulations themselves.
    """

    units_total: int = 0
    units_deduped: int = 0
    units_memo: int = 0
    units_disk: int = 0
    units_simulated: int = 0
    stale: int = 0
    quarantined: int = 0
    schedule_wall_s: float = 0.0

    @property
    def units_cached(self) -> int:
        """Units served without simulation (memo + disk)."""
        return self.units_memo + self.units_disk

    def as_dict(self) -> Dict[str, float]:
        return {
            "units_total": self.units_total,
            "units_cached": self.units_cached,
            "units_simulated": self.units_simulated,
            "units_deduped": self.units_deduped,
            "units_memo": self.units_memo,
            "units_disk": self.units_disk,
            "stale": self.stale,
            "quarantined": self.quarantined,
            "schedule_wall_s": self.schedule_wall_s,
        }


@dataclass
class ExecutionPlan:
    """A deduplicated union of run units, ready to execute.

    Attributes:
        specs: The source specs, in the order given.
        units: Distinct units in first-appearance order (each spec's
            canonical grid order, earlier specs first).
        stats: Filled in by :func:`build_plan` (totals) and
            :func:`execute_plan` (classification).
        spec_units: Each source spec's own units in canonical grid
            order (duplicates included), aligned with ``specs``.
    """

    specs: Tuple[SimSpec, ...]
    units: Tuple[RunUnit, ...]
    stats: PlanStats
    spec_units: Tuple[Tuple[RunUnit, ...], ...]

    def grid_for(
        self, spec: SimSpec, results: Dict[str, RunStats]
    ) -> Dict[str, Dict[str, RunStats]]:
        """Fan out executed results into one source spec's canonical grid."""
        grid: Dict[str, Dict[str, RunStats]] = {}
        for unit in self.spec_units[self.specs.index(spec)]:
            grid.setdefault(unit.workload, {})[unit.scheme] = results[unit.key]
        return grid


def build_plan(specs: Sequence[SimSpec]) -> ExecutionPlan:
    """Union the specs' run units and dedupe them by content hash."""
    specs = tuple(specs)
    with maybe_span("plan.build", specs=len(specs)) as span:
        spec_units = tuple(tuple(plan_units(spec)) for spec in specs)
        deduped: Dict[str, RunUnit] = {}
        for units in spec_units:
            for unit in units:
                deduped.setdefault(unit.key, unit)
        total = sum(len(units) for units in spec_units)
        stats = PlanStats(units_total=total, units_deduped=total - len(deduped))
        span.set_attr("units", len(deduped))
        span.set_attr("deduped", stats.units_deduped)
    return ExecutionPlan(
        specs=specs,
        units=tuple(deduped.values()),
        stats=stats,
        spec_units=spec_units,
    )


def lease_batch(
    pending: Sequence[RunUnit], max_units: int
) -> List[RunUnit]:
    """Slice one lease-sized batch off an ordered pending-unit sequence.

    The distributed coordinator hands work to remote workers in batches;
    this is the slicing policy, and it mirrors the work-stealing
    executor's sticky same-workload assignment: the batch starts at the
    oldest pending unit and greedily takes further units of the *same
    workload* (anywhere in the queue) before padding with the oldest
    remaining units. A worker that receives a same-workload batch
    generates that workload's trace once (its process-local trace memo)
    instead of once per unit — the same locality argument that shaped
    ``run_units_parallel``.

    Args:
        pending: Units awaiting lease, oldest first.
        max_units: Batch size bound (>= 1).

    Returns:
        The selected units, in queue order; empty when nothing pends.
    """
    if max_units < 1:
        raise ValueError("max_units must be >= 1")
    if not pending:
        return []
    anchor_workload = pending[0].workload
    batch: List[RunUnit] = []
    skipped: List[RunUnit] = []
    for unit in pending:
        if len(batch) >= max_units:
            break
        if unit.workload == anchor_workload:
            batch.append(unit)
        else:
            skipped.append(unit)
    for unit in skipped:
        if len(batch) >= max_units:
            break
        batch.append(unit)
    return batch


def lookup_cached(
    units: Sequence[RunUnit], store: Optional[RunStore] = None
) -> Tuple[Dict[str, RunStats], Dict[str, str]]:
    """Resolve units through memo → granular store, simulating nothing.

    The distributed coordinator calls this before leasing anything so a
    warm daemon answers from its cache hierarchy and only genuinely new
    units travel to workers ("a warm rerun leases zero units"). Store
    hits are promoted into the in-process memo, exactly as
    :func:`execute_plan` would.

    Returns:
        ``(results, tiers)`` where ``tiers`` maps each resolved unit's
        key to ``"memo"`` or ``"disk"``; unresolved units appear in
        neither mapping.
    """
    results: Dict[str, RunStats] = {}
    tiers: Dict[str, str] = {}
    for unit in units:
        hit = _memo_get(unit.key)
        if hit is not None:
            results[unit.key] = hit
            tiers[unit.key] = "memo"
            continue
        if store is not None:
            loaded = store.load(unit.key)
            if loaded is not None:
                results[unit.key] = loaded
                tiers[unit.key] = "disk"
                _memo_put(unit.key, loaded)
    return results, tiers


def _run_units_serial(
    units: Sequence[RunUnit],
    telemetry: Optional[Telemetry],
    provenance: Optional[Dict[str, Dict[str, Any]]] = None,
) -> Dict[str, RunStats]:
    """Execute units in order, in-process.

    Consecutive same-workload units are reported as one ``sweep_batch``
    tracer record (matching the pre-planner serial runner, whose batch
    was exactly this group); each unit also emits a ``run_unit`` record
    and a ``unit.simulate`` span when span tracing is active. The
    process-local trace memo makes the grouped units share a trace.
    ``provenance``, when given, is filled exactly like the parallel
    executor's out-param (pid is this process).
    """
    tracer = telemetry.tracer if telemetry is not None else None
    results: Dict[str, RunStats] = {}
    serial_start = time.perf_counter()
    n_batches = sum(
        1
        for i, unit in enumerate(units)
        if i == 0 or unit.workload != units[i - 1].workload
    )
    progress = ProgressLine(len(units), label="run units")
    index = 0
    batch_no = 0
    while index < len(units):
        name = units[index].workload
        batch_no += 1
        batch_start = time.perf_counter()
        batch_size = 0
        while index < len(units) and units[index].workload == name:
            unit = units[index]
            unit_wall = time.time()
            unit_start = time.perf_counter()
            with maybe_span(
                "unit.simulate", workload=unit.workload, scheme=unit.scheme
            ) as span:
                results[unit.key] = simulate_unit(
                    unit.spec, unit.workload, unit.scheme
                )
                prov = last_run_provenance()
                span.set_attr("engine", prov["engine"])
                span.set_attr("fastpath", prov["fastpath"])
            unit_elapsed = time.perf_counter() - unit_start
            if provenance is not None:
                provenance[unit.key] = {
                    "wall_s": unit_elapsed,
                    "pid": os.getpid(),
                    "t_s": unit_wall,
                    "engine": prov["engine"],
                    "fastpath": prov["fastpath"],
                }
            if tracer is not None:
                tracer.emit({
                    "kind": "run_unit",
                    "workload": unit.workload,
                    "scheme": unit.scheme,
                    "seconds": unit_elapsed,
                    "start_s": unit_start - serial_start,
                })
            batch_size += 1
            index += 1
            progress.update(index, detail=f"{unit.workload}/{unit.scheme}")
        elapsed = time.perf_counter() - batch_start
        _log.info(
            "sweep batch %d/%d: %s x %d schemes in %.2fs",
            batch_no, n_batches, name, batch_size, elapsed,
        )
        if tracer is not None:
            tracer.emit({
                "kind": "sweep_batch",
                "workload": name,
                "schemes": batch_size,
                "seconds": elapsed,
                "start_s": batch_start - serial_start,
            })
    progress.close()
    return results


def execute_plan(
    plan: ExecutionPlan,
    jobs: int = 1,
    store: Optional[RunStore] = None,
    telemetry: Optional[Telemetry] = None,
) -> Dict[str, RunStats]:
    """Resolve every unit of a plan: memo → store → simulate.

    Args:
        plan: The plan from :func:`build_plan`. Its ``stats`` are filled
            in as a side effect.
        jobs: Worker processes for the units that must actually run;
            1 executes in-process.
        store: Optional :class:`~repro.experiments.cache.RunStore`
            serving the granular tier (``None``: memo only, nothing
            persisted). Simulated runs are stored back into it.
        telemetry: Optional :class:`~repro.obs.Telemetry`; accumulates
            ``plan.*`` counters, (serial path) ``sweep_batch`` /
            ``run_unit`` tracer records, pipeline spans when a tracer is
            live, and — when it carries a
            :class:`~repro.obs.ledger.RunLedger` — one provenance record
            per planned unit, in plan order.

    Returns:
        ``{unit.key: RunStats}`` covering every unit in the plan.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    stats = plan.stats
    tracer = telemetry.tracer if telemetry is not None else None
    # Self-activate span tracing when the caller attached a live tracer
    # but no tracker is installed (library callers, tests); the CLI's
    # root tracker wins when present.
    own_tracker = (
        SpanTracker(tracer.emit)
        if tracer is not None and tracer.enabled and current_tracker() is None
        else None
    )
    scope = tracker_scope(own_tracker) if own_tracker is not None else nullcontext()
    active_tracker = own_tracker if own_tracker is not None else current_tracker()
    trace_id = active_tracker.trace_id if active_tracker is not None else None
    tiers: Dict[str, str] = {}
    cached_bytes: Dict[str, int] = {}
    raw_bytes: Dict[str, int] = {}
    provenance: Dict[str, Dict[str, Any]] = {}

    def note_bytes(key: str) -> None:
        """Record one stored entry's sizes for its ledger record."""
        size = store.entry_bytes(key)
        if size is not None:
            cached_bytes[key] = size
        raw = store.entry_raw_bytes(key)
        if raw is not None:
            raw_bytes[key] = raw

    with scope, maybe_span(
        "plan.execute", units=len(plan.units), jobs=jobs
    ) as plan_span:
        overhead_start = time.perf_counter()
        results: Dict[str, RunStats] = {}
        pending: List[RunUnit] = []
        with maybe_span("cache.memo", units=len(plan.units)) as span:
            for unit in plan.units:
                memo_hit = _memo_get(unit.key)
                if memo_hit is not None:
                    results[unit.key] = memo_hit
                    stats.units_memo += 1
                    tiers[unit.key] = "memo"
                else:
                    pending.append(unit)
            span.set_attr("hits", len(plan.units) - len(pending))

        if store is not None and pending:
            stale_before = store.counters.stale
            quarantined_before = store.counters.quarantined
            missing: List[RunUnit] = []
            for unit in pending:
                with maybe_span(
                    "cache.disk", workload=unit.workload, scheme=unit.scheme
                ) as span:
                    loaded = store.load(unit.key)
                    span.set_attr("hit", loaded is not None)
                if loaded is not None:
                    results[unit.key] = loaded
                    stats.units_disk += 1
                    tiers[unit.key] = "disk"
                    note_bytes(unit.key)
                else:
                    missing.append(unit)
            pending = missing
            stats.stale += store.counters.stale - stale_before
            stats.quarantined += (
                store.counters.quarantined - quarantined_before
            )

        execute_elapsed = 0.0
        if pending:
            _log.info(
                "executing %d of %d planned unit(s), %d job(s)",
                len(pending), len(plan.units), jobs,
            )
            execute_start = time.perf_counter()
            if jobs > 1 and len(pending) > 1:
                simulated = run_units_parallel(
                    pending, jobs, telemetry, provenance=provenance
                )
            else:
                simulated = _run_units_serial(
                    pending, telemetry, provenance=provenance
                )
            execute_elapsed = time.perf_counter() - execute_start
            results.update(simulated)
            stats.units_simulated += len(pending)
            for unit in pending:
                tiers[unit.key] = "simulated"
            if store is not None:
                for unit in pending:
                    store.store(unit.key, simulated[unit.key])
                    note_bytes(unit.key)

        for unit in plan.units:
            _memo_put(unit.key, results[unit.key])
        stats.schedule_wall_s += (
            time.perf_counter() - overhead_start - execute_elapsed
        )
        plan_span.set_attr("simulated", stats.units_simulated)
        plan_span.set_attr("cached", stats.units_cached)

    if telemetry is not None and telemetry.metrics is not None:
        metrics = telemetry.metrics
        metrics.counter("plan.units_total").inc(stats.units_total)
        metrics.counter("plan.units_cached").inc(stats.units_cached)
        metrics.counter("plan.units_simulated").inc(stats.units_simulated)
        metrics.counter("plan.units_deduped").inc(stats.units_deduped)
        metrics.counter("plan.cache.quarantined").inc(stats.quarantined)
        # Speculation outcomes are counted here, per simulated unit,
        # rather than inside the engine: engine-level telemetry must
        # stay bit-identical between the batch kernel and the event
        # oracle, and only the batch kernel has a fastpath at all.
        for unit in plan.units:
            outcome = provenance.get(unit.key, {}).get("fastpath")
            if outcome is not None:
                metrics.counter(f"fastpath.{outcome}").inc()

    if telemetry is not None and telemetry.ledger is not None:
        # One record per planned unit, in plan order, after execution —
        # timing/pid fields vary run to run, everything else is a pure
        # function of the plan and the cache state it met.
        ledger = telemetry.ledger
        plan_no = ledger.begin_plan()
        for unit in plan.units:
            run_stats = results[unit.key]
            prov = provenance.get(unit.key, {})
            faults = (
                run_stats.fault_counters.as_dict()
                if run_stats.fault_counters
                else None
            )
            ledger.record(
                plan=plan_no,
                run_hash=unit.key,
                workload=unit.workload,
                scheme=unit.scheme,
                tier=tiers.get(unit.key, "simulated"),
                engine=prov.get("engine") or unit.spec.engine,
                fastpath=prov.get("fastpath"),
                wall_s=prov.get("wall_s"),
                t_s=prov.get("t_s"),
                pid=prov.get("pid"),
                cached_bytes=cached_bytes.get(unit.key),
                raw_bytes=raw_bytes.get(unit.key),
                faults=faults,
                trace=trace_id,
            )
    return results
