"""Tests for the ExecutionService facade (repro.service.execution)."""

import json

import pytest

from repro.experiments import EXPERIMENT_SPECS, EXPERIMENTS, SWEEP_EXPERIMENTS
from repro.experiments.cache import RunCache
from repro.experiments.planner import run_memo_capacity, run_memo_size
from repro.experiments.runner import clear_sweep_cache, run_sweep
from repro.experiments.spec import SimSpec
from repro.service import ExecutionService, MemoryRunStore, sweep_payload
from repro.service.execution import session_service


@pytest.fixture(autouse=True)
def clean_memo():
    clear_sweep_cache()
    yield
    clear_sweep_cache()


SPEC = SimSpec(
    schemes=("Ideal", "Hybrid"), workloads=("gcc",), target_requests=1_000
)
OTHER = SimSpec(
    schemes=("Ideal", "LWT-4"), workloads=("gcc",), target_requests=1_000
)


def _flat(grid):
    return [
        (w, s, stats.to_dict())
        for w, per_scheme in grid.items()
        for s, stats in per_scheme.items()
    ]


class TestSubmit:
    def test_submit_dedupes_across_specs(self):
        service = ExecutionService(cache=False)
        outcome = service.submit([SPEC, OTHER])
        assert outcome.stats.units_total == 4
        assert outcome.stats.units_deduped == 1  # shared (gcc, Ideal)
        assert outcome.stats.units_simulated == 3
        assert set(outcome.results) == {unit.key for unit in outcome.plan.units}

    def test_grid_for_matches_direct_sweep(self):
        service = ExecutionService(cache=False)
        outcome = service.submit([SPEC])
        grid = outcome.grid_for(SPEC)
        clear_sweep_cache()
        assert _flat(grid) == _flat(run_sweep(SPEC, jobs=1))

    def test_resubmit_is_served_from_memo(self):
        service = ExecutionService(cache=False)
        service.submit([SPEC])
        warm = service.submit([SPEC])
        assert warm.stats.units_simulated == 0
        assert warm.stats.units_memo == 2

    def test_explicit_store_backend(self):
        store = MemoryRunStore()
        service = ExecutionService(cache=store)
        service.submit([SPEC])
        assert len(store) == 2
        clear_sweep_cache()
        warm = service.submit([SPEC])
        assert warm.stats.units_simulated == 0
        assert warm.stats.units_disk == 2

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            ExecutionService(jobs=0)


class TestSweep:
    def test_sweep_equals_run_sweep_byte_for_byte(self, tmp_path):
        service = ExecutionService(cache=tmp_path)
        via_service = sweep_payload(SPEC, service.sweep(SPEC))
        clear_sweep_cache()
        direct = sweep_payload(SPEC, run_sweep(SPEC, jobs=1, cache=tmp_path))
        assert (
            json.dumps(via_service, indent=2, sort_keys=True)
            == json.dumps(direct, indent=2, sort_keys=True)
        )

    def test_sweep_with_custom_store_matches_filesystem_path(self, tmp_path):
        with_store = ExecutionService(cache=MemoryRunStore())
        grid_store = with_store.sweep(SPEC)
        clear_sweep_cache()
        plain = ExecutionService(cache=False)
        grid_plain = plain.sweep(SPEC)
        assert _flat(grid_store) == _flat(grid_plain)

    def test_cache_property_reflects_configuration(self, tmp_path):
        assert ExecutionService(cache=False).store is None
        assert ExecutionService(cache=None).store is None
        explicit = RunCache(tmp_path)
        assert ExecutionService(cache=explicit).store is explicit
        assert ExecutionService(
            cache=str(tmp_path)
        ).store.cache_dir == explicit.cache_dir


class TestSession:
    def test_session_installs_and_restores_sweep_defaults(self, tmp_path):
        previous = session_service()
        service = ExecutionService(jobs=1, cache=tmp_path)
        with service.session():
            assert session_service() is service
            run_sweep(SPEC)  # runs on the installed service's store
        assert session_service() is previous
        assert service.store.counters.stores == 2
        # The default session: serial, no store, no telemetry.
        assert (previous.jobs, previous.store, previous.telemetry) == (
            1, None, None
        )

    def test_run_sweep_arguments_override_the_session(self, tmp_path):
        service = ExecutionService(jobs=1, cache=tmp_path)
        with service.session():
            assert session_service(jobs=2).jobs == 2
            assert session_service(jobs=2).store is service.store
            run_sweep(SPEC, cache=False)  # this call persists nothing
        assert service.store.counters.stores == 0
        assert not (tmp_path / "runs").exists()

    def test_run_experiment_dispatches_known_driver(self, monkeypatch):
        calls = {}

        def fake_driver(**kwargs):
            calls.update(kwargs or {"ran": True})
            return "result"

        monkeypatch.setitem(EXPERIMENTS, "fake-exp", fake_driver)
        service = ExecutionService(cache=False)
        assert service.run_experiment("fake-exp") == "result"
        with pytest.raises(KeyError):
            service.run_experiment("no-such-experiment")


class TestPrewarm:
    def test_prewarm_unions_and_executes_collectors(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENT_SPECS, "fake-a", lambda **kw: [SPEC])
        monkeypatch.setitem(EXPERIMENT_SPECS, "fake-b", lambda **kw: [OTHER])
        service = ExecutionService(cache=False)
        plan = service.prewarm(["fake-a", "fake-b"])
        assert plan is not None
        assert plan.stats.units_deduped == 1
        assert plan.stats.units_simulated == 3
        # The figure drivers' own sweeps now resolve from the memo.
        warm = service.submit([SPEC])
        assert warm.stats.units_simulated == 0

    def test_prewarm_quick_requests_reaches_sweep_collectors(self, monkeypatch):
        seen = {}

        def collector(**kwargs):
            seen.update(kwargs)
            return [SPEC.quick(kwargs.get("target_requests", 1_000))]

        import repro.experiments as experiments_mod

        monkeypatch.setitem(EXPERIMENT_SPECS, "fake-sweep", collector)
        monkeypatch.setattr(
            experiments_mod,
            "SWEEP_EXPERIMENTS",
            SWEEP_EXPERIMENTS + ("fake-sweep",),
        )
        service = ExecutionService(cache=False)
        assert service.prewarm(["fake-sweep"], quick_requests=1_000) is not None
        assert seen == {"target_requests": 1_000}

    def test_prewarm_ignores_unknown_names(self):
        service = ExecutionService(cache=False)
        assert service.prewarm(["not-a-collector"]) is None


class TestMemoPolicy:
    def test_memo_capacity_applies_and_restores_on_close(self):
        before = run_memo_capacity()
        with ExecutionService(cache=False, memo_capacity=3) as service:
            assert run_memo_capacity() == 3
            assert service.memo_size() == run_memo_size()
        assert run_memo_capacity() == before

    def test_close_is_idempotent(self):
        before = run_memo_capacity()
        service = ExecutionService(cache=False, memo_capacity=5)
        service.close()
        service.close()
        assert run_memo_capacity() == before

    def test_clear_memo_drops_entries(self):
        service = ExecutionService(cache=False)
        service.submit([SPEC])
        assert service.memo_size() >= 2
        service.clear_memo()
        assert service.memo_size() == 0

    def test_describe_snapshot(self, tmp_path):
        snapshot = ExecutionService(jobs=2, cache=tmp_path).describe()
        assert snapshot["jobs"] == 2
        assert snapshot["cache_dir"] == str(tmp_path)
        assert snapshot["store"] == "RunCache"
        assert isinstance(snapshot["memo_runs"], int)
        in_memory = ExecutionService(cache=MemoryRunStore()).describe()
        assert in_memory["cache_dir"] is None
        assert in_memory["store"] == "MemoryRunStore"
