"""Shared simulation sweeps for the figure experiments.

Figures 9/10/11/12/13/14/15 all consume the same underlying data: every
scheme run on every workload's trace. :func:`run_sweep` produces that
grid through :meth:`ExecutionService.sweep
<repro.service.execution.ExecutionService.sweep>`, which resolves it
run-by-run through the execution planner
(:mod:`repro.experiments.planner`): the in-process run memo, then the
persistent per-run store, so only genuinely new (workload, scheme) pairs
ever simulate, even across *different* sweeps that merely overlap. With
``jobs > 1`` the missing runs execute on a work-stealing process pool
(:mod:`repro.experiments.parallel`) — results are bit-for-bit identical
to the serial path because all randomness is seed-derived.

Trace lengths adapt to each workload's memory intensity
(:func:`repro.traces.spec.instructions_for_requests`) so light and heavy
benchmarks contribute comparable request counts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

from ..memsim.stats import RunStats
from ..obs import Telemetry
from .planner import clear_run_memo
# Never called here; perfbench/layers.py wraps this name when tracing.
from .planner import build_plan  # noqa: F401
# Never called here; perfbench/layers.py wraps this name when tracing.
from .planner import execute_plan  # noqa: F401
from .spec import ALL_SCHEMES, SimSpec

if TYPE_CHECKING:  # pragma: no cover - the service layer imports this package
    from ..service.execution import CacheSpec

__all__ = [
    "SimSpec",
    "ALL_SCHEMES",
    "run_sweep",
    "clear_sweep_cache",
]


def run_sweep(
    settings: SimSpec,
    jobs: Optional[int] = None,
    cache: "CacheSpec" = None,
    telemetry: Optional[Telemetry] = None,
) -> Mapping[str, Mapping[str, RunStats]]:
    """Simulate every (workload, scheme) pair of ``settings``.

    Runs on the service an enclosing :meth:`ExecutionService.session
    <repro.service.execution.ExecutionService.session>` installed (by
    default: serial, no persistent store, no telemetry).

    Args:
        settings: The grid to simulate.
        jobs: Worker processes; 1 runs in-process. ``None`` keeps the
            session's.
        cache: The run store: ``True`` for the default location
            (``results/.sweep-cache/runs/``), a path or
            :class:`~repro.experiments.cache.RunStore` for a specific
            one, ``False`` to disable, ``None`` to keep the session's.
            Parallel and serial runs share entries — the key covers only
            the run, never the execution mode.
        telemetry: Optional :class:`~repro.obs.Telemetry`; accumulates
            ``plan.*`` and ``sweep.*`` counters and tracer records.
            ``None`` keeps the session's. Progress is also logged at
            INFO to the ``repro`` loggers (stderr) regardless.

    Returns:
        ``{workload: {scheme: RunStats}}``.
    """
    # Imported here so that importing the experiment drivers does not
    # load the service package (and its HTTP store backend).
    from ..service.execution import session_service

    return session_service(jobs, cache, telemetry).sweep(settings)


def clear_sweep_cache() -> None:
    """Drop the planner's in-process run memo (tests use this for isolation).

    The persistent run store is managed separately via
    :meth:`RunCache.clear <repro.experiments.cache.RunCache.clear>`.
    """
    clear_run_memo()
