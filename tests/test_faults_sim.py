"""End-to-end fault injection: determinism, cache identity, serialization.

The contract under test is the ISSUE's reproducibility requirement: a
fault schedule is a pure function of the spec, so the same ``FaultSpec``
seed yields byte-identical fault schedules and ``RunStats`` fault
counters across ``jobs ∈ {1, 2, 4}`` and across cold/warm cache replays
— and a spec *without* faults hashes exactly as it did before the
subsystem existed, keeping existing warm caches valid.
"""

import dataclasses

import pytest

from repro.experiments.parallel import simulate_unit
from repro.experiments.runner import SimSpec, clear_sweep_cache, run_sweep
from repro.faults import FaultSpec
from repro.memsim.stats import RunStats


@pytest.fixture(autouse=True)
def clean_cache():
    clear_sweep_cache()
    yield
    clear_sweep_cache()


FAULTS = FaultSpec(
    stuck_line_rate=0.08, read_noise_rate=0.01, write_fail_rate=0.05, seed=3
)

FAULTY = SimSpec(
    schemes=("Ideal", "Hybrid"),
    workloads=("gcc",),
    target_requests=1_200,
    faults=FAULTS,
)

FAULT_FREE = SimSpec(
    schemes=FAULTY.schemes,
    workloads=FAULTY.workloads,
    target_requests=FAULTY.target_requests,
)


def _flat(grid):
    return [
        (w, s, stats.to_dict())
        for w, per_scheme in grid.items()
        for s, stats in per_scheme.items()
    ]


class TestHashCompatibility:
    def test_fault_free_spec_hashes_as_before_faults_existed(self):
        # faults=None and an all-zero FaultSpec are the same identity, so
        # warm caches built before the subsystem stay valid.
        zeroed = dataclasses.replace(FAULT_FREE, faults=FaultSpec())
        assert zeroed.faults is None
        assert zeroed.content_hash() == FAULT_FREE.content_hash()
        assert "faults" not in FAULT_FREE.to_dict()

    def test_enabled_faults_change_every_hash(self):
        assert FAULTY.content_hash() != FAULT_FREE.content_hash()
        assert FAULTY.run_hash("gcc", "Hybrid") != FAULT_FREE.run_hash(
            "gcc", "Hybrid"
        )

    def test_fault_seed_is_part_of_the_identity(self):
        reseeded = dataclasses.replace(
            FAULTY, faults=dataclasses.replace(FAULTS, seed=FAULTS.seed + 1)
        )
        assert reseeded.content_hash() != FAULTY.content_hash()

    def test_faults_roundtrip_through_spec_dict(self):
        assert SimSpec.from_dict(FAULTY.to_dict()) == FAULTY


class TestInjectorIdentity:
    def test_full_spec_and_subspec_build_the_same_injector(self):
        # run_hash is idempotent under run_subspec, so a worker handed
        # the sweep spec and one handed the sub-spec inject identically.
        sub = FAULTY.run_subspec("gcc", "Hybrid")
        a = FAULTY.fault_injector("gcc", "Hybrid")
        b = sub.fault_injector("gcc", "Hybrid")
        trace_a = [a.read_errors(line) for line in range(128)]
        trace_b = [b.read_errors(line) for line in range(128)]
        assert trace_a == trace_b

    def test_fault_free_spec_has_no_injector(self):
        assert FAULT_FREE.fault_injector("gcc", "Hybrid") is None


class TestFaultedRuns:
    def test_counters_fire_and_serialize(self):
        stats = simulate_unit(FAULTY, "gcc", "Hybrid")
        fc = stats.fault_counters
        assert fc.injected > 0
        assert fc.corrected + fc.detected_uncorrectable + fc.silent > 0
        payload = stats.to_dict()
        assert payload["faults"] == fc.as_dict()
        assert RunStats.from_dict(payload).fault_counters == fc

    def test_fault_free_run_keeps_zero_counters_out_of_the_payload(self):
        stats = simulate_unit(FAULT_FREE, "gcc", "Hybrid")
        assert not stats.fault_counters
        assert "faults" not in stats.to_dict()

    def test_equality_ignores_fault_counters(self):
        # Like telemetry, the counters are observability — not part of a
        # run's value identity.
        stats = simulate_unit(FAULTY, "gcc", "Hybrid")
        from repro.faults import FaultCounters

        stripped = dataclasses.replace(stats, fault_counters=FaultCounters())
        assert stripped == stats

    def test_faults_perturb_the_simulation(self):
        faulted = simulate_unit(FAULTY, "gcc", "Hybrid")
        clean = simulate_unit(FAULT_FREE, "gcc", "Hybrid")
        assert faulted.to_dict() != clean.to_dict()


class TestDeterminism:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_fault_schedule_is_jobs_invariant(self, jobs):
        serial = run_sweep(FAULTY, jobs=1)
        flat_serial = _flat(serial)
        clear_sweep_cache()
        parallel = run_sweep(FAULTY, jobs=jobs)
        assert _flat(parallel) == flat_serial

    def test_repeated_serial_runs_are_bit_identical(self):
        first = _flat(run_sweep(FAULTY, jobs=1))
        clear_sweep_cache()
        second = _flat(run_sweep(FAULTY, jobs=1))
        assert first == second

    def test_cache_replay_preserves_fault_counters(self, tmp_path):
        grid = run_sweep(FAULTY, jobs=1, cache=tmp_path)
        clear_sweep_cache()
        reloaded = run_sweep(FAULTY, jobs=1, cache=tmp_path)
        assert _flat(reloaded) == _flat(grid)
        fc = reloaded["gcc"]["Hybrid"].fault_counters
        assert fc == grid["gcc"]["Hybrid"].fault_counters
        assert fc.injected > 0

    def test_warm_fault_cache_skips_simulation(self, tmp_path, monkeypatch):
        run_sweep(FAULTY, jobs=1, cache=tmp_path)
        clear_sweep_cache()

        import repro.experiments.planner as planner_mod

        def explode(*_args, **_kwargs):
            raise AssertionError("warm cache must not simulate")

        monkeypatch.setattr(planner_mod, "simulate_unit", explode)
        monkeypatch.setattr(planner_mod, "run_units_parallel", explode)
        grid = run_sweep(FAULTY, jobs=1, cache=tmp_path)
        assert grid["gcc"]["Hybrid"].fault_counters.injected > 0
