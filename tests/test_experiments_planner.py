"""Tests for the run-level execution planner.

Covers the granular run store (and that legacy whole-sweep files are
ignored), cross-artifact deduplication (asserted via the ``plan.*``
counters), and work-stealing determinism across job counts.
"""

import pytest

from repro.experiments.cache import RUN_CACHE_SUBDIR, RunCache
from repro.experiments.planner import (
    DEFAULT_RUN_MEMO_CAPACITY,
    PlanStats,
    build_plan,
    execute_plan,
    plan_units,
    run_memo_capacity,
    run_memo_size,
    set_run_memo_capacity,
)
from repro.experiments.runner import clear_sweep_cache, run_sweep
from repro.experiments.spec import SimSpec
from repro.obs import MetricsRegistry, Telemetry, Tracer


@pytest.fixture(autouse=True)
def clean_memo():
    clear_sweep_cache()
    yield
    clear_sweep_cache()


SMALL = SimSpec(
    schemes=("Ideal", "Hybrid"),
    workloads=("gcc", "mcf"),
    target_requests=1_000,
)

#: Overlaps SMALL in (gcc, Ideal) and (gcc, Hybrid); adds (gcc, LWT-4).
OVERLAPPING = SimSpec(
    schemes=("Ideal", "Hybrid", "LWT-4"),
    workloads=("gcc",),
    target_requests=1_000,
)


def _flat(grid):
    return [
        (w, s, stats.to_dict())
        for w, per_scheme in grid.items()
        for s, stats in per_scheme.items()
    ]


class TestPlanning:
    def test_units_cover_the_grid_in_canonical_order(self):
        units = plan_units(SMALL)
        assert [(u.workload, u.scheme) for u in units] == [
            ("gcc", "Ideal"), ("gcc", "Hybrid"),
            ("mcf", "Ideal"), ("mcf", "Hybrid"),
        ]

    def test_unit_keys_are_sub_spec_hashes(self):
        unit = plan_units(SMALL)[0]
        assert unit.key == SMALL.run_hash("gcc", "Ideal")
        assert unit.spec == SMALL.run_subspec("gcc", "Ideal")

    def test_shared_pairs_hash_equal_across_specs(self):
        assert SMALL.run_hash("gcc", "Ideal") == OVERLAPPING.run_hash(
            "gcc", "Ideal"
        )

    def test_build_plan_dedupes_across_specs(self):
        plan = build_plan([SMALL, OVERLAPPING])
        assert plan.stats.units_total == 7  # 4 + 3 requested
        assert plan.stats.units_deduped == 2  # two shared pairs folded
        assert len(plan.units) == 5

    def test_identical_specs_fold_completely(self):
        plan = build_plan([SMALL, SMALL])
        assert plan.stats.units_deduped == len(plan_units(SMALL))
        assert len(plan.units) == len(plan_units(SMALL))


class TestCrossArtifactDedup:
    def test_shared_units_simulate_once_via_plan_counters(self):
        tele = Telemetry(tracer=Tracer(), metrics=MetricsRegistry())
        plan = build_plan([SMALL, OVERLAPPING])
        execute_plan(plan, jobs=1, telemetry=tele)
        counters = tele.metrics.to_dict()["counters"]
        assert counters["plan.units_total"] == 7
        assert counters["plan.units_deduped"] == 2
        assert counters["plan.units_simulated"] == 5
        assert counters["plan.units_cached"] == 0

    def test_planned_prewarm_makes_second_artifact_free(self):
        plan = build_plan([SMALL, OVERLAPPING])
        execute_plan(plan, jobs=1)
        # Both artifacts' sweeps now resolve from the shared run memo.
        for spec in (SMALL, OVERLAPPING):
            follow_up = build_plan([spec])
            execute_plan(follow_up, jobs=1)
            assert follow_up.stats.units_simulated == 0
            assert follow_up.stats.units_memo == len(follow_up.units)

    def test_fan_out_grids_match_independent_sweeps(self):
        plan = build_plan([SMALL, OVERLAPPING])
        results = execute_plan(plan, jobs=1)
        shared_grid = plan.grid_for(SMALL, results)
        clear_sweep_cache()
        direct = run_sweep(SMALL, jobs=1)
        assert _flat(shared_grid) == _flat(direct)


class TestLegacyWholeSweepEntry:
    def test_root_level_entry_is_ignored_and_left_in_place(self, tmp_path):
        # A whole-sweep file from an older release sits at the cache root,
        # where only runs/ is read now: the cold plan simulates, the
        # warm plan is served from runs/, and the file is never touched.
        legacy = tmp_path / f"{SMALL.content_hash()}.json"
        legacy.write_text('{"format": 1, "runs": {}}')
        cold = build_plan([SMALL])
        execute_plan(cold, jobs=1, store=RunCache(tmp_path))
        assert cold.stats.units_simulated == len(cold.units)
        clear_sweep_cache()
        warm = build_plan([SMALL])
        execute_plan(warm, jobs=1, store=RunCache(tmp_path))
        assert warm.stats.units_disk == len(warm.units)
        assert legacy.read_text() == '{"format": 1, "runs": {}}'
        assert len(list((tmp_path / RUN_CACHE_SUBDIR).glob("*.json"))) == len(
            cold.units
        )


class TestRunCacheStore:
    def test_store_then_load_round_trips(self, tmp_path):
        grid = run_sweep(SMALL, jobs=1)
        store = RunCache(tmp_path)
        key = SMALL.run_hash("gcc", "Ideal")
        store.store(key, grid["gcc"]["Ideal"])
        reloaded = RunCache(tmp_path).load(key)
        assert reloaded is not None
        assert reloaded.to_dict() == grid["gcc"]["Ideal"].to_dict()

    def test_miss_and_clear(self, tmp_path):
        store = RunCache(tmp_path)
        assert store.load("deadbeef") is None
        assert store.counters.misses == 1
        grid = run_sweep(SMALL, jobs=1)
        store.store(SMALL.run_hash("gcc", "Ideal"), grid["gcc"]["Ideal"])
        assert store.clear() == 1

    def test_corrupt_entry_counts_stale(self, tmp_path):
        store = RunCache(tmp_path)
        grid = run_sweep(SMALL, jobs=1)
        key = SMALL.run_hash("gcc", "Ideal")
        store.store(key, grid["gcc"]["Ideal"])
        store.path_for(key).write_text("{not json")
        fresh = RunCache(tmp_path)
        assert fresh.load(key) is None
        assert fresh.counters.stale == 1


class TestWorkStealingDeterminism:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_results_identical_across_job_counts(self, jobs):
        serial = run_sweep(SMALL, jobs=1)
        clear_sweep_cache()
        parallel = run_sweep(SMALL, jobs=jobs)
        assert _flat(serial) == _flat(parallel)


SINGLE = SimSpec(schemes=("Ideal",), workloads=("gcc",), target_requests=1_000)


class TestPlanEdgeCases:
    def test_empty_plan_executes_to_empty_results(self):
        plan = build_plan([])
        assert plan.units == ()
        assert execute_plan(plan, jobs=1) == {}
        assert plan.stats.as_dict()["units_total"] == 0
        assert plan.stats.units_cached == 0

    def test_single_unit_plan_stats(self):
        plan = build_plan([SINGLE])
        results = execute_plan(plan, jobs=1)
        stats = plan.stats.as_dict()
        assert stats["units_total"] == 1
        assert stats["units_simulated"] == 1
        assert stats["units_deduped"] == 0
        grid = plan.grid_for(SINGLE, results)
        assert list(grid) == ["gcc"]
        assert list(grid["gcc"]) == ["Ideal"]

    def test_all_cached_plan_reports_zero_simulated(self):
        execute_plan(build_plan([SMALL]), jobs=1)
        warm = build_plan([SMALL])
        execute_plan(warm, jobs=1)
        stats = warm.stats.as_dict()
        assert stats["units_simulated"] == 0
        assert stats["units_cached"] == stats["units_total"] == len(warm.units)
        assert stats["units_memo"] == len(warm.units)

    def test_grid_for_subset_spec_of_larger_plan(self):
        plan = build_plan([SMALL, OVERLAPPING])
        results = execute_plan(plan, jobs=1)
        grid = plan.grid_for(OVERLAPPING, results)
        assert [(w, s) for w in grid for s in grid[w]] == [
            ("gcc", "Ideal"), ("gcc", "Hybrid"), ("gcc", "LWT-4"),
        ]

    def test_as_dict_keys_are_stable(self):
        # readduo report and the CI smokes key off these names.
        assert set(PlanStats().as_dict()) == {
            "units_total", "units_cached", "units_simulated",
            "units_deduped", "units_memo", "units_disk",
            "stale", "quarantined", "schedule_wall_s",
        }


class TestRunMemoLRU:
    @pytest.fixture(autouse=True)
    def restore_capacity(self):
        previous = run_memo_capacity()
        yield
        set_run_memo_capacity(previous)

    def test_default_capacity(self):
        assert run_memo_capacity() == DEFAULT_RUN_MEMO_CAPACITY

    def test_capacity_bounds_the_memo(self):
        set_run_memo_capacity(2)
        execute_plan(build_plan([SMALL]), jobs=1)  # 4 units through a cap of 2
        assert run_memo_size() == 2

    def test_shrinking_evicts_immediately(self):
        execute_plan(build_plan([SMALL]), jobs=1)
        assert run_memo_size() == 4
        set_run_memo_capacity(1)
        assert run_memo_size() == 1

    def test_eviction_falls_back_to_disk_not_resimulation(self, tmp_path):
        execute_plan(build_plan([SMALL]), jobs=1, store=RunCache(tmp_path))
        set_run_memo_capacity(1)  # evicts 3 of the 4 memoized runs
        warm = build_plan([SMALL])
        execute_plan(warm, jobs=1, store=RunCache(tmp_path))
        assert warm.stats.units_simulated == 0
        assert warm.stats.units_disk == 3
        assert warm.stats.units_memo == 1

    def test_hit_refreshes_recency(self):
        set_run_memo_capacity(4)
        execute_plan(build_plan([SMALL]), jobs=1)
        # Touch the oldest entry (gcc/Ideal), then push one new unit in:
        # the refreshed entry must survive and the true LRU go.
        execute_plan(build_plan([SINGLE]), jobs=1)
        lwt = SimSpec(
            schemes=("LWT-4",), workloads=("gcc",), target_requests=1_000
        )
        execute_plan(build_plan([lwt]), jobs=1)
        probe = build_plan([SINGLE])
        execute_plan(probe, jobs=1)
        assert probe.stats.units_memo == 1

    def test_set_capacity_returns_previous_and_rejects_nonpositive(self):
        previous = run_memo_capacity()
        assert set_run_memo_capacity(7) == previous
        assert run_memo_capacity() == 7
        with pytest.raises(ValueError):
            set_run_memo_capacity(0)


class TestSweepCacheHitCounter:
    def test_warm_sweep_counts_cache_hits(self, tmp_path):
        run_sweep(SMALL, jobs=1, cache=tmp_path)
        clear_sweep_cache()
        tele = Telemetry(tracer=Tracer(), metrics=MetricsRegistry())
        run_sweep(SMALL, jobs=1, cache=tmp_path, telemetry=tele)
        counters = tele.metrics.to_dict()["counters"]
        n_runs = len(SMALL.schemes) * len(SMALL.workloads)
        assert counters["sweep.cache_hits"] == n_runs
        assert "sweep.runs_simulated" not in counters
        kinds = [r["kind"] for r in tele.tracer.records]
        assert "sweep_cache" in kinds


class TestLeaseBatch:
    """Coordinator batch selection: workload affinity, bounded size."""

    def test_empty_pending_gives_empty_batch(self):
        from repro.experiments.planner import lease_batch

        assert lease_batch([], 4) == []

    def test_max_units_must_be_positive(self):
        from repro.experiments.planner import lease_batch

        with pytest.raises(ValueError):
            lease_batch(build_plan([SMALL]).units, 0)

    def test_prefers_anchor_workload_then_pads_oldest(self):
        from repro.experiments.planner import lease_batch

        units = build_plan([SMALL]).units  # gcc x2 then mcf x2
        batch = lease_batch(units, 3)
        assert len(batch) == 3
        anchor = units[0].workload
        # Both anchor-workload units come first (trace-memo locality),
        # then the oldest remaining unit pads the batch.
        assert [u.workload for u in batch[:2]] == [anchor, anchor]
        assert batch[2].workload != anchor

    def test_cap_respected(self):
        from repro.experiments.planner import lease_batch

        units = build_plan([SMALL]).units
        assert len(lease_batch(units, 1)) == 1
        assert len(lease_batch(units, 100)) == len(units)


class TestLookupCached:
    def test_memo_then_disk_tiers(self, tmp_path):
        from repro.experiments.planner import lookup_cached

        run_sweep(SMALL, jobs=1, cache=tmp_path)  # warm memo + disk
        units = build_plan([SMALL]).units
        store = RunCache(tmp_path)

        cached, tiers = lookup_cached(units, store)
        assert set(cached) == {u.key for u in units}
        assert all(tier == "memo" for tier in tiers.values())

        clear_sweep_cache()
        cached, tiers = lookup_cached(units, store)
        assert set(cached) == {u.key for u in units}
        assert all(tier == "disk" for tier in tiers.values())
        # Disk hits are promoted: a second lookup is memo-tier.
        _cached, tiers = lookup_cached(units, store)
        assert all(tier == "memo" for tier in tiers.values())

    def test_unresolved_units_are_absent(self):
        from repro.experiments.planner import lookup_cached

        units = build_plan([SMALL]).units
        cached, tiers = lookup_cached(units, None)
        assert cached == {} and tiers == {}
