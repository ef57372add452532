"""The :class:`ExecutionService` facade: one owner for execution wiring.

Before this layer existed, every CLI subcommand hand-wired the same
stack — build a plan, resolve it through the memo → run-store cache
hierarchy, pick serial vs the work-stealing pool, thread telemetry
through, restore the process-wide sweep wiring afterwards. The service
owns all of that behind a handful of methods:

* :meth:`ExecutionService.submit` — the core API: any sequence of
  :class:`~repro.experiments.spec.SimSpec` documents in, deduplicated
  and fully resolved run results out;
* :meth:`ExecutionService.sweep` — one spec's canonical grid (the
  ``readduo sweep`` payload comes from :func:`sweep_payload` over it);
* :meth:`ExecutionService.session` / :meth:`run_experiment` /
  :meth:`prewarm` — the ``readduo run`` workflow: install this
  service as the one :func:`~repro.experiments.runner.run_sweep` uses,
  union all requested artifacts' specs, execute each distinct unit
  once, then let the figure drivers render from the prewarmed memo;
* :meth:`ExecutionService.fault_density_study` — the ``readduo faults``
  workflow under the same session plumbing.

The service is also where memory policy lives for long-lived processes:
``memo_capacity`` re-bounds the planner's LRU run memo for the
service's lifetime, and :meth:`clear_memo` is the explicit drop hook
(the serve daemon exposes it operationally). Everything here is
synchronous — the asyncio daemon in :mod:`repro.service.server` layers
request coalescing and backpressure on top.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from ..memsim.stats import RunStats
from ..obs import Telemetry, get_logger
from ..experiments.cache import RunCache, RunStore
from ..experiments.planner import (
    ExecutionPlan,
    build_plan,
    clear_run_memo,
    execute_plan,
    run_memo_size,
    set_run_memo_capacity,
)
from ..experiments.spec import SimSpec

__all__ = [
    "ExecutionOutcome",
    "ExecutionService",
    "session_service",
    "sweep_payload",
]

_log = get_logger("service.execution")

#: ``cache=`` accepts True (a :class:`RunCache` at the default location),
#: False/None (no persistent store), a path (a :class:`RunCache` root), or
#: any :class:`RunStore`.
CacheSpec = Union[None, bool, str, Path, RunStore]


def _resolve_store(cache: CacheSpec) -> Optional[RunStore]:
    if cache is None or cache is False:
        return None
    if cache is True:
        return RunCache()
    if isinstance(cache, RunStore):
        return cache
    return RunCache(cache)


@dataclass
class ExecutionOutcome:
    """The result of one :meth:`ExecutionService.submit` call.

    Attributes:
        plan: The executed plan; ``plan.stats`` carries the tier
            accounting (total/deduped/memo/disk/simulated).
        results: ``{run_hash: RunStats}`` for every distinct unit.
    """

    plan: ExecutionPlan
    results: Dict[str, RunStats]

    def grid_for(self, spec: SimSpec) -> Dict[str, Dict[str, RunStats]]:
        """One source spec's results as its canonical workload x scheme grid."""
        return self.plan.grid_for(spec, self.results)

    @property
    def stats(self):
        """Shorthand for ``plan.stats``."""
        return self.plan.stats


def sweep_payload(
    settings: SimSpec, sweep: Mapping[str, Mapping[str, RunStats]]
) -> Dict[str, Any]:
    """The canonical JSON payload for one sweep grid.

    This is the exact ``readduo sweep`` output shape (sans the optional
    ``telemetry`` block), shared with the serve daemon's ``/v1/submit``
    response so HTTP clients and file consumers parse one format.
    """
    return {
        "target_requests": settings.target_requests,
        "seed": settings.seed,
        "runs": {
            workload_name: {
                scheme: {
                    **stats.summary(),
                    "execution_time_ns": stats.execution_time_ns,
                    "dynamic_energy_pj": stats.dynamic_energy_pj,
                    "total_cell_writes": stats.total_cell_writes,
                    "energy_by_category_pj": stats.energy.by_category,
                    "wear_by_cause_cells": stats.wear.by_cause,
                }
                for scheme, stats in per_scheme.items()
            }
            for workload_name, per_scheme in sweep.items()
        },
    }


class ExecutionService:
    """Facade owning planner + cache hierarchy + executor pool + telemetry.

    Args:
        jobs: Worker processes for units that must simulate (1 =
            in-process serial, the default).
        cache: The granular run store — ``True`` for a
            :class:`RunCache` at the default location
            (``results/.sweep-cache/runs/``), ``False``/``None`` to
            disable, a path for a :class:`RunCache` rooted there, or any
            :class:`RunStore` (e.g.
            :class:`~repro.service.store.MemoryRunStore`). Resolved once
            into :attr:`store`.
        telemetry: Optional :class:`~repro.obs.Telemetry` observed by
            every plan this service executes.
        memo_capacity: When given, re-bounds the planner's in-process
            LRU run memo for this service's lifetime (the previous
            bound is restored by :meth:`close`). Long-lived daemons set
            this to their memory budget.

    The service is reusable and reentrant per call; it holds no open
    resources besides the memo-capacity override, so :meth:`close` (or
    use as a context manager) is only required when ``memo_capacity``
    was set — calling it regardless is good hygiene.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: CacheSpec = True,
        telemetry: Optional[Telemetry] = None,
        memo_capacity: Optional[int] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = int(jobs)
        self.telemetry = telemetry
        self.store = _resolve_store(cache)
        self._previous_memo_capacity: Optional[int] = None
        if memo_capacity is not None:
            self._previous_memo_capacity = set_run_memo_capacity(memo_capacity)

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Release the service's process-global overrides (idempotent)."""
        if self._previous_memo_capacity is not None:
            set_run_memo_capacity(self._previous_memo_capacity)
            self._previous_memo_capacity = None

    def __enter__(self) -> "ExecutionService":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def clear_memo(self) -> None:
        """Drop the in-process run memo (operational memory-pressure hook).

        Correctness is unaffected: evicted runs fall through to the
        granular store (or re-simulate). The serve daemon calls this on
        demand; batch callers rarely need it.
        """
        clear_run_memo()

    def memo_size(self) -> int:
        """Number of runs currently held by the in-process memo."""
        return run_memo_size()

    # ------------------------------------------------------------ execution

    def submit(self, specs: Sequence[SimSpec]) -> ExecutionOutcome:
        """Plan, dedupe, and fully resolve a batch of specs.

        Every distinct (workload, scheme) run across all specs resolves
        through memo → run store → simulation (serial or the
        work-stealing pool, per ``jobs``).
        Identical work across specs — and across *calls*, via the memo
        and persistent store — executes exactly once.
        """
        plan = build_plan(specs)
        results = execute_plan(
            plan, jobs=self.jobs, store=self.store, telemetry=self.telemetry
        )
        return ExecutionOutcome(plan=plan, results=results)

    def sweep(self, settings: SimSpec) -> Mapping[str, Mapping[str, RunStats]]:
        """One spec's canonical ``{workload: {scheme: RunStats}}`` grid.

        Resolved through :meth:`submit`. With live telemetry the sweep
        also counts ``sweep.cache_hits`` / ``sweep.runs_simulated`` /
        ``sweep.sweeps`` / ``sweep.last_wall_s`` and, when nothing had to
        simulate, emits a ``sweep_cache`` tracer record.
        """
        n_workloads = len(settings.effective_workloads())
        n_runs = len(settings.schemes) * n_workloads
        _log.info(
            "sweep start: %d workloads x %d schemes, %d job(s)",
            n_workloads, len(settings.schemes), self.jobs,
        )
        start = time.perf_counter()
        outcome = self.submit([settings])
        total = time.perf_counter() - start
        simulated = outcome.stats.units_simulated
        cached = outcome.stats.units_cached
        _log.info(
            "sweep done: %d runs (%d simulated, %d cached) in %.2fs",
            n_runs, simulated, cached, total,
        )
        telemetry = self.telemetry
        if simulated == 0 and telemetry is not None and telemetry.tracer is not None:
            telemetry.tracer.emit(
                {"kind": "sweep_cache", "result": "hit", "runs": n_runs}
            )
        if telemetry is not None and telemetry.metrics is not None:
            metrics = telemetry.metrics
            if cached:
                metrics.counter("sweep.cache_hits").inc(cached)
            if simulated:
                metrics.counter("sweep.runs_simulated").inc(simulated)
                metrics.counter("sweep.sweeps").inc()
                metrics.gauge("sweep.last_wall_s").set(total)
        return outcome.grid_for(settings)

    # ------------------------------------------------------- run workflow

    @contextmanager
    def session(self) -> Iterator["ExecutionService"]:
        """Install this service as the one :func:`session_service` returns.

        Figure/ablation drivers call ``run_sweep`` internally with no
        jobs/cache/telemetry arguments; inside a session those calls run
        on this service. The previously installed service is restored on
        exit, keeping callers reentrant.
        """
        global _SESSION
        previous, _SESSION = _SESSION, self
        try:
            yield self
        finally:
            _SESSION = previous

    def prewarm(
        self,
        names: Sequence[str],
        quick_requests: Optional[int] = None,
    ) -> Optional[ExecutionPlan]:
        """Plan → dedupe → execute the requested artifacts' shared run units.

        Every sweep-backed experiment registers a spec collector in
        ``EXPERIMENT_SPECS``; unioning those specs up front lets the
        planner dedupe by run hash and execute each distinct (workload,
        scheme) run exactly once — e.g. Figures 9–15 plus the
        scrub-interval extras cost one simulation per distinct run. The
        drivers then render from the prewarmed in-process memo and
        per-run store.

        Args:
            names: Experiment ids (unknown ids are ignored — drivers
                without a spec collector have nothing to prewarm).
            quick_requests: When given, shrinks the sweep-backed
                artifacts to this trace length (the ``--quick`` path).

        Returns:
            The executed plan, or ``None`` when nothing was planned.
        """
        from ..experiments import EXPERIMENT_SPECS, SWEEP_EXPERIMENTS

        specs = []
        for name in names:
            collector = EXPERIMENT_SPECS.get(name)
            if collector is None:
                continue
            kwargs: Dict[str, Any] = {}
            if quick_requests is not None and name in SWEEP_EXPERIMENTS:
                kwargs["target_requests"] = quick_requests
            specs.extend(collector(**kwargs))
        if not specs:
            return None
        plan = self.submit(specs).plan
        _log.info(
            "plan executed: %d distinct run unit(s) from %d spec(s) "
            "(%d duplicate(s) folded), %d simulated, %d cached",
            len(plan.units), len(specs), plan.stats.units_deduped,
            plan.stats.units_simulated, plan.stats.units_cached,
        )
        return plan

    def run_experiment(self, name: str, **kwargs: Any):
        """Run one registered experiment driver by id.

        Call inside :meth:`session` so the driver's internal sweeps use
        this service's wiring. Unknown ids raise ``KeyError`` (the CLI
        validates names before dispatching).
        """
        from ..experiments import EXPERIMENTS

        return EXPERIMENTS[name](**kwargs)

    def fault_density_study(self, **kwargs: Any):
        """The ``readduo faults`` study under this service's wiring."""
        from ..experiments.faults import fault_density_study

        with self.session():
            return fault_density_study(**kwargs)

    # ------------------------------------------------------------- helpers

    def spec_from_document(self, document: Mapping[str, Any]) -> SimSpec:
        """Validate one JSON document into a :class:`SimSpec`.

        Thin indirection so transport layers (the HTTP daemon) never
        import spec internals; :class:`~repro.experiments.spec.SpecError`
        propagates for the caller to map onto its error channel.
        """
        return SimSpec.from_dict(document)

    def describe(self) -> Dict[str, Any]:
        """Operational snapshot (the daemon's ``/v1/stats`` backbone)."""
        return {
            "jobs": self.jobs,
            "cache_dir": (
                str(self.store.root) if isinstance(self.store, RunCache) else None
            ),
            # `is not None`, not truthiness: an *empty* MemoryRunStore
            # has __len__() == 0 and would otherwise report as absent.
            "store": type(self.store).__name__ if self.store is not None else None,
            "memo_runs": run_memo_size(),
        }


#: The service :func:`~repro.experiments.runner.run_sweep` runs on: the
#: one :meth:`ExecutionService.session` installed, else serial, with no
#: persistent store and no telemetry.
_SESSION = ExecutionService(jobs=1, cache=False)


def session_service(
    jobs: Optional[int] = None,
    cache: CacheSpec = None,
    telemetry: Optional[Telemetry] = None,
) -> ExecutionService:
    """The installed session service; given arguments override its own.

    ``None`` keeps the session's value for that argument (so
    ``cache=False`` is how a caller turns the session's store off).
    """
    if jobs is None and cache is None and telemetry is None:
        return _SESSION
    return ExecutionService(
        jobs=_SESSION.jobs if jobs is None else jobs,
        cache=_SESSION.store if cache is None else cache,
        telemetry=_SESSION.telemetry if telemetry is None else telemetry,
    )
