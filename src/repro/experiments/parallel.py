"""Parallel execution of atomic simulation run units.

The sweep is embarrassingly parallel: every (workload, scheme) pair is an
independent event-driven run. This module executes those pairs — the
planner's :class:`~repro.experiments.planner.RunUnit`\\ s — on a
work-stealing process pool whose parallelism is ``workloads x schemes``
rather than ``workloads``: the parent keeps one unit in flight per
worker, and each completion pulls the next unit from the same workload's
queue where possible (sticky assignment) or steals from the workload
with the most remaining work. Workers memoize generated traces
per-process (:class:`TraceMemo`), so sticky scheduling makes each worker
generate a given workload's trace once and reuse it across schemes, just
like the serial inner loop.

Determinism: each run's randomness comes entirely from the trace seed and
the policy seed, both fixed by the unit's
:class:`~repro.experiments.spec.SimSpec`, and scheduling never feeds back
into a run — so the grid is bit-for-bit identical to the serial one
regardless of worker count or stealing order.
"""

from __future__ import annotations

import logging
import os
import time
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import (
    TYPE_CHECKING,
    Any,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..memsim.engine import last_run_provenance, simulate
from ..memsim.stats import RunStats
from ..obs import Telemetry, configure_logging, get_logger
from ..obs.progress import ProgressLine
from ..obs.spans import SpanContext, SpanTracker, current_tracker, maybe_span, tracker_scope
from ..traces.spec import workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (planner imports us)
    from .planner import RunUnit
    from .spec import SimSpec

__all__ = [
    "TraceMemo",
    "simulate_unit",
    "run_units_parallel",
]

_log = get_logger("experiments.parallel")


class TraceMemo:
    """Bounded memo of generated traces, keyed by trace identity.

    A trace is fully determined by (workload, target_requests, seed,
    num_cores); everything else in a spec only affects the policy or the
    engine. One instance lives in each worker process (and one in the
    planner's serial loop), so consecutive same-workload units reuse the
    trace instead of regenerating it. The capacity bound keeps memory
    flat when stealing moves a worker across many workloads.
    """

    def __init__(self, capacity: int = 4) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._traces: "OrderedDict[tuple, object]" = OrderedDict()

    def trace_for(self, spec: "SimSpec", workload_name: str):
        key = (
            workload_name,
            spec.target_requests,
            spec.seed,
            spec.config.num_cores,
        )
        trace = self._traces.get(key)
        if trace is None:
            trace = spec.trace_for(workload_name)
            self._traces[key] = trace
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)
        else:
            self._traces.move_to_end(key)
        return trace


#: Per-process trace memo; in a pool worker it persists across the tasks
#: that land on that worker, which is what makes sticky assignment pay.
_TRACE_MEMO = TraceMemo()


def simulate_unit(
    spec: "SimSpec", workload_name: str, scheme: str
) -> RunStats:
    """Run one (workload, scheme) simulation; the worker entry point.

    Also the planner's serial inner step, so the serial and parallel
    paths share one code path and cannot diverge. The trace comes from
    the process-local :class:`TraceMemo`; the policy is built fresh per
    unit exactly as the serial runner always did. Fault injection, when
    the spec enables it, is keyed by the unit's run hash — identical
    whether this worker was handed the full sweep spec or a sub-spec —
    so fault schedules never depend on how work was partitioned.
    """
    profile = workload(workload_name)
    trace = _TRACE_MEMO.trace_for(spec, workload_name)
    policy = spec.make_policy(scheme, profile)
    faults = spec.fault_injector(workload_name, scheme)
    return simulate(
        trace,
        policy,
        spec.config,
        epoch_s=spec.epoch_s,
        faults=faults,
        engine=spec.engine,
    )


# Worker-process state installed by the pool initializer (survives across
# the tasks that land on that worker). The span carrier and capture flag
# deliberately do NOT travel through ``_timed_unit``'s signature: the
# resilience tests monkeypatch that function with same-arity wrappers.
_WORKER_CARRIER: Optional[SpanContext] = None
_WORKER_CAPTURE = False


def _configured_log_level() -> Optional[str]:
    """Level name of the CLI-configured ``repro`` logger, if configured."""
    logger = logging.getLogger("repro")
    for handler in logger.handlers:
        if handler.get_name() == "repro-cli":
            return logging.getLevelName(logger.level)
    return None


def _worker_init(
    level: Optional[str],
    carrier: Optional[SpanContext],
    capture: bool,
) -> None:
    """Pool initializer: propagate logging config + span carrier.

    Runs once per worker process. Under the ``fork`` start method the
    handler is inherited and :func:`configure_logging` replaces it
    idempotently; under ``spawn`` this is the only way ``--log-level``
    reaches worker-side diagnostics at all.
    """
    global _WORKER_CARRIER, _WORKER_CAPTURE
    if level is not None:
        configure_logging(level=level)
    _WORKER_CARRIER = carrier
    _WORKER_CAPTURE = bool(capture)


def _timed_unit(
    spec: "SimSpec", workload_name: str, scheme: str
) -> Tuple[float, RunStats, Optional[Dict[str, Any]]]:
    """Pool entry point: run one unit; report wall time and provenance.

    The third element is ``None`` unless the initializer enabled capture;
    when set it carries the worker-side span records (parented under the
    executor's carrier context) plus the provenance fields the ledger
    wants — engine, fastpath outcome, worker pid, wall-clock start.
    """
    if not _WORKER_CAPTURE:
        start = time.perf_counter()
        stats = simulate_unit(spec, workload_name, scheme)
        return time.perf_counter() - start, stats, None
    spans: List[Dict[str, Any]] = []
    carrier = _WORKER_CARRIER
    tracker = SpanTracker(
        spans.append,
        trace_id=carrier.trace if carrier is not None else None,
        root=carrier,
    )
    t_wall = time.time()
    start = time.perf_counter()
    with tracker_scope(tracker):
        with tracker.span(
            "unit.simulate", workload=workload_name, scheme=scheme
        ) as span:
            stats = simulate_unit(spec, workload_name, scheme)
            prov = last_run_provenance()
            span.set_attr("engine", prov["engine"])
            span.set_attr("fastpath", prov["fastpath"])
    elapsed = time.perf_counter() - start
    extras = {
        "spans": spans,
        "pid": os.getpid(),
        "t_s": t_wall,
        "engine": prov["engine"],
        "fastpath": prov["fastpath"],
    }
    return elapsed, stats, extras


def run_units_parallel(
    units: Sequence["RunUnit"],
    jobs: int,
    telemetry: Optional[Telemetry] = None,
    max_retries: int = 2,
    provenance: Optional[Dict[str, Dict[str, Any]]] = None,
) -> Dict[str, RunStats]:
    """Execute run units on a sticky work-stealing process pool.

    Scheduling: units are queued per workload; the pool is primed with
    one unit per worker spread across distinct workloads, and every
    completion immediately submits the next unit from the *same*
    workload (so that worker's memoized trace keeps paying off), falling
    back to stealing from the workload with the most remaining units.
    Exactly one unit is in flight per worker, which is what makes the
    completion-to-resubmission affinity stick.

    Resilience: a worker-process death (OOM kill, segfault, ``SIGKILL``)
    breaks the whole :class:`ProcessPoolExecutor`, not just its unit.
    Instead of surfacing :class:`BrokenProcessPool`, the executor
    requeues every unit that was in flight in the dead pool, builds a
    fresh pool, and continues — results already collected are kept, and
    determinism is unaffected because every run's outcome is a pure
    function of its spec. A unit that was in flight across
    ``max_retries + 1`` pool deaths raises ``RuntimeError`` (it is
    plausibly what keeps killing workers).

    Progress is logged (INFO, stderr) per unit, and a live progress/ETA
    line is rewritten on stderr when the application opted in and stderr
    is a TTY (:mod:`repro.obs.progress`). When ``telemetry`` carries a
    tracer, every unit emits a ``run_unit`` record; when span tracing is
    active, the executor opens an ``executor.run`` span, hands its
    context to the workers, and merges their span records back into the
    parent stream. Completion order only affects reporting — results are
    keyed by unit hash, so callers reassemble canonically.

    Args:
        provenance: Optional out-param; when given, filled with
            ``{unit.key: {"wall_s", "pid", "t_s", "engine", "fastpath"}}``
            for ledger records (timing fields worker-local).

    Returns:
        ``{unit.key: RunStats}`` for every unit.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    units = list(units)
    if not units:
        return {}
    queues: Dict[str, Deque["RunUnit"]] = {}
    for unit in units:
        queues.setdefault(unit.workload, deque()).append(unit)

    def take(prefer: Optional[str] = None) -> "RunUnit":
        name = prefer if prefer in queues else None
        if name is None:
            # Steal from the workload with the most remaining units so
            # long queues drain first (ties: first-seen workload).
            name = max(queues, key=lambda n: len(queues[n]))
        queue = queues[name]
        unit = queue.popleft()
        if not queue:
            del queues[name]
        return unit

    tracer = telemetry.tracer if telemetry is not None else None
    tracker = current_tracker()
    # Worker-side capture feeds three consumers: the merged span tree
    # (active tracker), ledger provenance, and the execution layer's
    # fastpath.* metrics counters.
    capture = tracker is not None or (
        telemetry is not None
        and (telemetry.ledger is not None or telemetry.metrics is not None)
    )
    worker_level = _configured_log_level()
    results: Dict[str, RunStats] = {}
    attempts: Dict[str, int] = {}
    start = time.perf_counter()
    done_count = 0
    progress = ProgressLine(len(units), label="run units")
    with maybe_span("executor.run", units=len(units), jobs=jobs):
        # The open executor span (or None) is the parent every worker
        # span hangs off, keeping the merged stream one tree.
        carrier = tracker.current_context() if tracker is not None else None
        try:
            while len(results) < len(units):
                remaining = len(units) - len(results)
                max_workers = min(jobs, remaining)
                in_flight: Dict[object, "RunUnit"] = {}
                try:
                    with ProcessPoolExecutor(
                        max_workers=max_workers,
                        initializer=_worker_init,
                        initargs=(worker_level, carrier, capture),
                    ) as pool:

                        def submit(unit: "RunUnit") -> None:
                            future = pool.submit(
                                _timed_unit, unit.spec, unit.workload, unit.scheme
                            )
                            in_flight[future] = unit

                        # Prime one unit per worker, round-robin over distinct
                        # workloads so each worker's first trace generation
                        # seeds its affinity.
                        names = list(queues)
                        slot = 0
                        while len(in_flight) < max_workers and queues:
                            prefer = names[slot % len(names)]
                            slot += 1
                            if prefer not in queues:
                                continue
                            submit(take(prefer))
                        while in_flight:
                            finished, _ = wait(
                                in_flight, return_when=FIRST_COMPLETED
                            )
                            for future in finished:
                                unit = in_flight.pop(future)
                                try:
                                    elapsed, stats, extras = future.result()
                                except BrokenProcessPool:
                                    # Keep the unit counted as in flight so
                                    # the recovery path below requeues it too.
                                    in_flight[future] = unit
                                    raise
                                results[unit.key] = stats
                                done_count += 1
                                _log.info(
                                    "run unit %d/%d: %s/%s in %.2fs (worker)",
                                    done_count, len(units),
                                    unit.workload, unit.scheme, elapsed,
                                )
                                progress.update(
                                    done_count,
                                    detail=f"{unit.workload}/{unit.scheme}",
                                )
                                if extras is not None:
                                    if tracker is not None:
                                        for record in extras["spans"]:
                                            tracker.emit_record(record)
                                    if provenance is not None:
                                        provenance[unit.key] = {
                                            "wall_s": elapsed,
                                            "pid": extras["pid"],
                                            "t_s": extras["t_s"],
                                            "engine": extras["engine"],
                                            "fastpath": extras["fastpath"],
                                        }
                                elif provenance is not None:
                                    provenance[unit.key] = {"wall_s": elapsed}
                                if tracer is not None:
                                    tracer.emit({
                                        "kind": "run_unit",
                                        "workload": unit.workload,
                                        "scheme": unit.scheme,
                                        "seconds": elapsed,
                                        "start_s": (
                                            time.perf_counter() - start - elapsed
                                        ),
                                    })
                                if queues:
                                    submit(take(prefer=unit.workload))
                except BrokenProcessPool:
                    lost = [u for u in in_flight.values() if u.key not in results]
                    for unit in lost:
                        attempts[unit.key] = attempts.get(unit.key, 0) + 1
                        if attempts[unit.key] > max_retries:
                            raise RuntimeError(
                                f"run unit {unit.workload}/{unit.scheme} was in "
                                f"flight across {attempts[unit.key]} "
                                "worker-process deaths; giving up (it is likely "
                                "what kills the workers — try --jobs 1 to run "
                                "it in-process)"
                            ) from None
                    _log.warning(
                        "worker process died; requeueing %d in-flight unit(s) "
                        "on a fresh pool", len(lost),
                    )
                    if tracer is not None:
                        tracer.emit({
                            "kind": "pool_broken",
                            "requeued": len(lost),
                            "time_s": time.perf_counter() - start,
                        })
                    for unit in lost:
                        queues.setdefault(unit.workload, deque()).append(unit)
        finally:
            progress.close()
    return results

