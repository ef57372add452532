"""Sweep-executor scaling benchmark: serial vs parallel vs warm cache.

Times three executions of the same reduced grid — serial, process-parallel
(``READDUO_BENCH_JOBS`` workers), and a warm-persistent-cache reload — plus
the shared engine scenarios from :mod:`repro.experiments.bench` (the same
code path ``readduo bench`` runs), and records everything to
``results/BENCH_sweep.json``. The JSON carries the engine's
requests-per-second so single-run speedups can be compared across
commits; the pre-optimization engine (PR 1 baseline) measured ~34k
requests/s on the reference container for the mcf/Hybrid scenario, and
the pre-batch-kernel event engine (PR 5) ~57k.

The grid here is a representative slice (3 workloads x 4 schemes) at a
fifth of the shared-sweep scale, so the serial/parallel pair stays cheap
enough to run on every benchmark pass.
"""

from __future__ import annotations

import json
import os
import time

from conftest import BENCH_JOBS, BENCH_REQUESTS, bench_meta

from repro.experiments.bench import (
    bench_batch_kernel,
    bench_single_run,
    bench_telemetry_overhead,
    merge_into_bench_json,
)

BENCH_WORKLOADS = ("mcf", "gcc", "sphinx3")
BENCH_SCHEMES = ("Ideal", "Scrubbing", "Hybrid", "LWT-4")


def _committed_single_run_baseline():
    """Read the single-run throughput committed in results/BENCH_sweep.json.

    Captured at import time, before any test in this module rewrites the
    file, so the telemetry-overhead gate compares against the previous
    commit's number rather than this run's own.
    """
    from conftest import RESULTS_DIR

    try:
        payload = json.loads((RESULTS_DIR / "BENCH_sweep.json").read_text())
        return float(payload["single_run"]["requests_per_s"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


_BASELINE_RPS = _committed_single_run_baseline()


def _time(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_engine_single_run_throughput(results_dir):
    """One paper-scale run; records engine requests/s for cross-commit diffs."""
    record = bench_single_run(BENCH_REQUESTS)
    merge_into_bench_json(results_dir, {"single_run": record, "meta": bench_meta()})
    assert record["seconds"] > 0


def test_engine_telemetry_overhead(results_dir):
    """Disabled telemetry must be ~free; enabled cost is recorded, not gated.

    The disabled path is the default engine path, so its throughput is
    already tracked cross-commit by ``single_run``. The shared scenario
    compares a telemetry-off run against a full tracing+metrics run of
    the same trace, records both, and asserts the instrumented run
    yields identical statistics. Set ``READDUO_BENCH_MAX_OVERHEAD_PCT``
    to gate the disabled-vs-baseline regression strictly (used by
    release runs; left off by default because wall-clock gates flake on
    shared CI).
    """
    record = bench_telemetry_overhead(BENCH_REQUESTS)
    merge_into_bench_json(results_dir, {"telemetry_overhead": record})

    max_enabled = os.environ.get("READDUO_BENCH_MAX_ENABLED_OVERHEAD_PCT")
    if max_enabled is not None:
        assert record["enabled_overhead_pct"] <= float(max_enabled), (
            f"enabled-telemetry overhead {record['enabled_overhead_pct']:.1f}% "
            f"exceeds the allowed {max_enabled}%"
        )

    max_overhead = os.environ.get("READDUO_BENCH_MAX_OVERHEAD_PCT")
    if max_overhead is not None and _BASELINE_RPS:
        current = record["disabled_requests_per_s"]
        drop_pct = 100.0 * (_BASELINE_RPS - current) / _BASELINE_RPS
        assert drop_pct < float(max_overhead), (
            f"disabled-telemetry throughput fell {drop_pct:.1f}% below the "
            f"committed baseline ({current:.0f} vs {_BASELINE_RPS:.0f} req/s)"
        )


def test_engine_batch_kernel_speedup(results_dir):
    """Batch engine vs the event-level oracle: record the speedup.

    The scenario itself asserts bit-for-bit result identity before any
    timing. Set ``READDUO_BENCH_MIN_SPEEDUP`` to gate the speedup
    strictly (the CI batch-kernel job sets 5; left off by default
    because wall-clock gates flake on shared runners).
    """
    record = bench_batch_kernel(BENCH_REQUESTS)
    merge_into_bench_json(results_dir, {"batch_kernel": record})

    min_speedup = os.environ.get("READDUO_BENCH_MIN_SPEEDUP")
    if min_speedup is not None:
        assert record["speedup"] >= float(min_speedup), (
            f"batch kernel speedup {record['speedup']:.2f}x fell below the "
            f"required {min_speedup}x over the event-level oracle"
        )


def test_sweep_serial_vs_parallel_vs_cached(results_dir, tmp_path):
    """Wall-time the same grid serial, parallel, and from a warm cache.

    The parallel leg goes through the execution planner on a cold cache
    so its ``plan.*`` stats land in the JSON — a cold plan must schedule
    ``workloads x schemes`` independent units (the acceptance bar for the
    work-stealing executor). On 1-CPU runners the parallel keys are
    omitted entirely instead of recording ``null``.
    """
    from repro.experiments.cache import RunCache
    from repro.experiments.planner import build_plan, execute_plan
    from repro.experiments.runner import (
        SimSpec,
        clear_sweep_cache,
        run_sweep,
    )

    settings = SimSpec(
        schemes=BENCH_SCHEMES,
        workloads=BENCH_WORKLOADS,
        target_requests=max(2_000, BENCH_REQUESTS // 5),
    )
    cache = RunCache(tmp_path / "sweep-cache")

    clear_sweep_cache()
    serial_grid, serial_s = _time(lambda: run_sweep(settings, jobs=1, cache=cache))

    clear_sweep_cache()
    cached_grid, cached_s = _time(lambda: run_sweep(settings, jobs=1, cache=cache))
    assert _flat(cached_grid) == _flat(serial_grid)

    record = {
        "workloads": list(BENCH_WORKLOADS),
        "schemes": list(BENCH_SCHEMES),
        "target_requests": settings.target_requests,
        "jobs": BENCH_JOBS,
        "serial_s": serial_s,
        "warm_cache_s": cached_s,
        "warm_cache_speedup": serial_s / cached_s if cached_s > 0 else None,
        "cpu_count": os.cpu_count(),
    }

    planner_record = {}
    if BENCH_JOBS > 1:
        # Cold planned run on an untouched cache dir: every unit must be
        # scheduled independently (workloads x schemes of them).
        clear_sweep_cache()
        cold_plan = build_plan([settings])
        cold_results, parallel_s = _time(
            lambda: execute_plan(
                cold_plan,
                jobs=BENCH_JOBS,
                store=RunCache(tmp_path / "parallel-cache"),
            )
        )
        assert _flat(cold_plan.grid_for(settings, cold_results)) == _flat(serial_grid)
        n_units = len(BENCH_WORKLOADS) * len(BENCH_SCHEMES)
        assert cold_plan.stats.units_simulated == n_units
        record["parallel_s"] = parallel_s
        record["parallel_speedup"] = serial_s / parallel_s
        planner_record["cold_parallel"] = cold_plan.stats.as_dict()
    else:
        record["parallel_fallback"] = "serial (1 CPU)"

    # Warm two-artifact plan: the full grid plus an overlapping subset
    # must fold the subset away (dedup) and execute zero units.
    clear_sweep_cache()
    subset = SimSpec(
        schemes=BENCH_SCHEMES[:2],
        workloads=BENCH_WORKLOADS[:1],
        target_requests=settings.target_requests,
    )
    warm_plan = build_plan([settings, subset])
    _, warm_plan_s = _time(lambda: execute_plan(warm_plan, jobs=1, store=cache))
    assert warm_plan.stats.units_simulated == 0
    assert warm_plan.stats.units_deduped == len(subset.schemes) * len(
        subset.workloads
    )
    planner_record["warm_two_artifact"] = warm_plan.stats.as_dict()
    planner_record["warm_two_artifact_wall_s"] = warm_plan_s

    merge_into_bench_json(
        results_dir, {"sweep": record, "planner": planner_record}
    )
    # A warm cache replays JSON instead of simulating; anything less than
    # an order of magnitude points at a cache miss.
    assert cached_s < serial_s / 10


def _flat(grid):
    return [
        (w, s, stats.to_dict())
        for w, per_scheme in grid.items()
        for s, stats in per_scheme.items()
    ]
