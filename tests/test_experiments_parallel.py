"""Tests for the process-parallel run-unit executor.

Determinism is the contract: a parallel grid must be bit-for-bit
identical to the serial grid, because all randomness is derived from the
settings' seed and worker scheduling never feeds back into a run.
"""

import pytest

from repro.experiments.parallel import (
    TraceMemo,
    run_units_parallel,
    simulate_unit,
)
from repro.experiments.planner import plan_units
from repro.experiments.runner import SimSpec, clear_sweep_cache, run_sweep


@pytest.fixture(autouse=True)
def clean_cache():
    clear_sweep_cache()
    yield
    clear_sweep_cache()


SMALL = SimSpec(
    schemes=("Ideal", "Hybrid", "LWT-4"),
    workloads=("gcc", "sphinx3"),
    target_requests=1_200,
)


def _flat(grid):
    """Every numeric field of every run, in canonical order."""
    return [
        (w, s, stats.to_dict())
        for w, per_scheme in grid.items()
        for s, stats in per_scheme.items()
    ]


class TestRunUnitsParallel:
    def test_every_unit_executed_exactly_once(self):
        units = plan_units(SMALL)
        assert len(units) == len(SMALL.workloads) * len(SMALL.schemes)
        results = run_units_parallel(units, jobs=4)
        assert sorted(results) == sorted(u.key for u in units)

    def test_parallelism_exceeds_workload_count(self):
        # 2 workloads x 3 schemes = 6 independent units; jobs=4 must be
        # accepted and fully covered (the old per-workload batcher would
        # have capped useful parallelism at 2).
        units = plan_units(SMALL)
        results = run_units_parallel(units, jobs=4)
        assert len(results) == 6

    def test_empty_unit_list_is_a_noop(self):
        assert run_units_parallel([], jobs=2) == {}

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            run_units_parallel(plan_units(SMALL), jobs=0)


class TestTraceMemo:
    def test_trace_reused_for_same_identity(self):
        memo = TraceMemo(capacity=2)
        first = memo.trace_for(SMALL, "gcc")
        again = memo.trace_for(SMALL, "gcc")
        assert first is again

    def test_capacity_bound_evicts_oldest(self):
        memo = TraceMemo(capacity=1)
        first = memo.trace_for(SMALL, "gcc")
        memo.trace_for(SMALL, "sphinx3")
        assert memo.trace_for(SMALL, "gcc") is not first

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TraceMemo(capacity=0)


class TestDeterminism:
    def test_parallel_matches_serial_bit_for_bit(self):
        serial = run_sweep(SMALL, jobs=1)
        clear_sweep_cache()
        parallel = run_sweep(SMALL, jobs=3)
        assert _flat(serial) == _flat(parallel)

    def test_parallel_grid_in_canonical_order(self):
        grid = run_sweep(SMALL, jobs=2)
        assert tuple(grid) == SMALL.workloads
        for per_scheme in grid.values():
            assert tuple(per_scheme) == SMALL.schemes

    def test_batch_matches_serial_inner_loop(self):
        # simulate_unit IS the serial inner step; direct calls must
        # reproduce the run_sweep entries for their workload.
        grid = run_sweep(SMALL, jobs=1)
        for scheme in SMALL.schemes:
            direct = simulate_unit(SMALL, "gcc", scheme)
            assert direct.to_dict() == grid["gcc"][scheme].to_dict()


class TestRunSweepJobs:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            run_sweep(SMALL, jobs=0)

    def test_parallel_result_is_memoized(self):
        first = run_sweep(SMALL, jobs=2)
        second = run_sweep(SMALL, jobs=2)
        assert second["gcc"]["Hybrid"] is first["gcc"]["Hybrid"]


class TestWorkerPropagation:
    """Pool-initializer state: log level and span carrier reach workers."""

    @pytest.fixture(autouse=True)
    def reset_worker_globals(self):
        import repro.experiments.parallel as parallel_mod

        carrier = parallel_mod._WORKER_CARRIER
        capture = parallel_mod._WORKER_CAPTURE
        yield
        parallel_mod._WORKER_CARRIER = carrier
        parallel_mod._WORKER_CAPTURE = capture

    def test_configured_log_level_mirrors_cli_handler(self):
        import logging

        from repro.experiments.parallel import _configured_log_level
        from repro.obs import configure_logging

        logger = logging.getLogger("repro")
        previous = [h for h in logger.handlers if h.get_name() == "repro-cli"]
        try:
            configure_logging(level="DEBUG")
            assert _configured_log_level() == "DEBUG"
        finally:
            for handler in list(logger.handlers):
                if handler.get_name() == "repro-cli":
                    logger.removeHandler(handler)
            for handler in previous:
                logger.addHandler(handler)

    def test_worker_init_installs_carrier_and_capture(self):
        import repro.experiments.parallel as parallel_mod
        from repro.obs.spans import SpanContext

        carrier = SpanContext(trace="t1", span="exec-1")
        parallel_mod._worker_init(None, carrier, True)
        assert parallel_mod._WORKER_CARRIER == carrier
        assert parallel_mod._WORKER_CAPTURE is True

    def test_timed_unit_capture_returns_worker_provenance(self):
        import os

        import repro.experiments.parallel as parallel_mod
        from repro.experiments.parallel import _timed_unit
        from repro.obs.spans import SpanContext

        parallel_mod._worker_init(None, SpanContext("t1", "exec-1"), True)
        elapsed, stats, extras = _timed_unit(SMALL, "gcc", "Ideal")
        assert elapsed > 0.0 and stats.scheme == "Ideal"
        assert extras is not None
        assert extras["pid"] == os.getpid()
        assert extras["engine"] == "batch"
        unit_span = next(
            s for s in extras["spans"] if s["name"] == "unit.simulate"
        )
        assert unit_span["parent"] == "exec-1"
        assert unit_span["trace"] == "t1"

    def test_timed_unit_without_capture_skips_extras(self):
        import repro.experiments.parallel as parallel_mod

        parallel_mod._worker_init(None, None, False)
        _, stats, extras = parallel_mod._timed_unit(SMALL, "gcc", "Ideal")
        assert stats.scheme == "Ideal" and extras is None
