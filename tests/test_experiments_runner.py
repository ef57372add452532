"""Tests for the shared sweep runner and its memoization."""

import pytest

from repro.experiments.runner import (
    ALL_SCHEMES,
    SimSpec,
    clear_sweep_cache,
    run_sweep,
)


@pytest.fixture(autouse=True)
def clean_cache():
    clear_sweep_cache()
    yield
    clear_sweep_cache()


SMALL = SimSpec(
    schemes=("Ideal", "Hybrid"),
    workloads=("gcc",),
    target_requests=1_500,
)


class TestRunSweep:
    def test_grid_shape(self):
        sweep = run_sweep(SMALL)
        assert set(sweep) == {"gcc"}
        assert set(sweep["gcc"]) == {"Ideal", "Hybrid"}

    def test_memoized(self):
        # The planner's run memo serves the repeat: the same objects.
        first = run_sweep(SMALL)
        second = run_sweep(SMALL)
        assert second == first
        assert second["gcc"]["Hybrid"] is first["gcc"]["Hybrid"]

    def test_cache_cleared(self):
        first = run_sweep(SMALL)
        clear_sweep_cache()
        second = run_sweep(SMALL)
        assert second["gcc"]["Hybrid"] is not first["gcc"]["Hybrid"]

    def test_different_settings_different_entries(self):
        first = run_sweep(SMALL)
        other = run_sweep(
            SimSpec(
                schemes=("Ideal", "Hybrid"),
                workloads=("gcc",),
                target_requests=1_500,
                seed=7,
            )
        )
        assert other["gcc"]["Hybrid"] is not first["gcc"]["Hybrid"]

    def test_all_workloads_when_unspecified(self):
        settings = SimSpec(schemes=("Ideal",), target_requests=1_500)
        assert len(settings.effective_workloads()) == 14

    def test_quick_copy(self):
        quick = SMALL.quick(500)
        assert quick.target_requests == 500
        assert quick.schemes == SMALL.schemes

    def test_all_schemes_constant_covers_figures(self):
        for scheme in ("Ideal", "Scrubbing", "M-metric", "TLC", "Hybrid",
                       "LWT-2", "LWT-4", "LWT-4-noconv", "Select-4:1",
                       "Select-4:2"):
            assert scheme in ALL_SCHEMES

    def test_stats_carry_labels(self):
        sweep = run_sweep(SMALL)
        stats = sweep["gcc"]["Hybrid"]
        assert stats.scheme == "Hybrid"
        assert stats.workload == "gcc"
