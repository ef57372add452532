"""Execution-layer resilience: cache quarantine and worker-death recovery.

Two failure families from the ISSUE's resilience requirement:

* **Corrupted granular cache entries** — truncated, garbage-JSON,
  layout-incompatible, or wrong-key files under ``<cache>/runs/`` must be
  quarantined (renamed ``*.bad``) and re-simulated, never raised.
* **Worker-process death** — a killed pool worker breaks the whole
  ``ProcessPoolExecutor``; the executor must requeue the in-flight units
  on a fresh pool (bounded retries), keeping results already collected.
"""

import json
import multiprocessing
import os
from pathlib import Path

import pytest

import repro.experiments.parallel as parallel_mod
from repro.experiments.cache import RunCache
from repro.experiments.planner import build_plan, execute_plan, plan_units
from repro.experiments.runner import SimSpec, clear_sweep_cache, run_sweep

SMALL = SimSpec(
    schemes=("Ideal", "Hybrid"),
    workloads=("gcc",),
    target_requests=1_200,
)

N_RUNS = len(SMALL.schemes) * len(SMALL.workloads)


@pytest.fixture(autouse=True)
def clean_cache():
    clear_sweep_cache()
    yield
    clear_sweep_cache()


def _prime(tmp_path):
    """Fill the granular store, then drop the in-process memo."""
    results = execute_plan(build_plan([SMALL]), store=RunCache(tmp_path))
    clear_sweep_cache()
    return results


def _granular_files(tmp_path):
    return sorted((tmp_path / "runs").glob("*.json"))


def _truncate(path: Path) -> None:
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


def _garbage(path: Path) -> None:
    path.write_text("{not json")


def _wrong_key(path: Path) -> None:
    payload = json.loads(path.read_text())
    payload["key"] = "0" * 64
    path.write_text(json.dumps(payload))


def _wrong_format(path: Path) -> None:
    payload = json.loads(path.read_text())
    payload["format"] = 999
    path.write_text(json.dumps(payload))


CORRUPTIONS = [_truncate, _garbage, _wrong_key, _wrong_format]


class TestCacheQuarantine:
    @pytest.mark.parametrize("corrupt", CORRUPTIONS)
    def test_corrupt_entries_are_quarantined_and_resimulated(
        self, tmp_path, corrupt
    ):
        good = _prime(tmp_path)
        for path in _granular_files(tmp_path):
            corrupt(path)

        cache = RunCache(tmp_path)
        plan = build_plan([SMALL])
        results = execute_plan(plan, store=cache)

        # The run completed, every unit re-simulated, nothing raised.
        assert results.keys() == good.keys()
        assert plan.stats.units_simulated == N_RUNS
        assert plan.stats.units_disk == 0
        assert plan.stats.quarantined == N_RUNS
        assert plan.stats.stale == N_RUNS
        assert cache.counters.quarantined == N_RUNS
        # Each bad file was renamed aside for post-mortems, and the
        # re-simulation stored fresh entries beside them.
        assert len(list((tmp_path / "runs").glob("*.json.bad"))) == N_RUNS
        assert len(_granular_files(tmp_path)) == N_RUNS

    def test_single_corrupt_entry_only_resimulates_that_unit(self, tmp_path):
        _prime(tmp_path)
        victim = _granular_files(tmp_path)[0]
        _truncate(victim)

        plan = build_plan([SMALL])
        results = execute_plan(plan, store=RunCache(tmp_path))

        assert len(results) == N_RUNS
        assert plan.stats.quarantined == 1
        assert plan.stats.units_simulated == 1
        assert plan.stats.units_disk == N_RUNS - 1
        assert (tmp_path / "runs" / (victim.name + ".bad")).exists()

    def test_quarantined_rerun_matches_the_original(self, tmp_path):
        good = _prime(tmp_path)
        for path in _granular_files(tmp_path):
            _garbage(path)
        plan = build_plan([SMALL])
        results = execute_plan(plan, store=RunCache(tmp_path))
        assert {k: v.to_dict() for k, v in results.items()} == {
            k: v.to_dict() for k, v in good.items()
        }

    def test_bad_files_never_satisfy_loads(self, tmp_path):
        _prime(tmp_path)
        run_cache = RunCache(tmp_path)
        for path in _granular_files(tmp_path):
            _garbage(path)
        keys = [path.stem for path in _granular_files(tmp_path)]
        for key in keys:
            assert run_cache.load(key) is None  # quarantines
            assert run_cache.load(key) is None  # .bad is not retried
        assert run_cache.counters.quarantined == N_RUNS


class TestClearCoversGranularStore:
    def test_post_clear_rerun_simulates_every_unit(self, tmp_path):
        # clear() must not leave runs/ behind, or a "cold" rerun would
        # be silently served from the granular store.
        cache = RunCache(tmp_path)
        run_sweep(SMALL, jobs=1, cache=cache)
        clear_sweep_cache()
        assert cache.clear() == N_RUNS

        plan = build_plan([SMALL])
        execute_plan(plan, store=RunCache(tmp_path))
        assert plan.stats.units_simulated == N_RUNS
        assert plan.stats.units_cached == 0

    def test_clear_removes_quarantined_files_too(self, tmp_path):
        _prime(tmp_path)
        for path in _granular_files(tmp_path):
            _garbage(path)
        run_cache = RunCache(tmp_path)
        for path in _granular_files(tmp_path):
            run_cache.load(path.stem)
        assert len(list((tmp_path / "runs").glob("*.json.bad"))) == N_RUNS
        assert RunCache(tmp_path).clear() == N_RUNS  # the .bad files
        assert not list((tmp_path / "runs").glob("*"))


# --------------------------------------------------------------------------
# Worker-death recovery. The crash hooks live at module level so the pool
# can pickle them by reference; with the fork start method the children
# inherit the monkeypatched module state and the marker env var.

_MARKER_ENV = "READDUO_TEST_CRASH_MARKER"

_REAL_TIMED_UNIT = parallel_mod._timed_unit


def _crash_once_timed_unit(spec, workload_name, scheme):
    marker = Path(os.environ[_MARKER_ENV])
    try:
        marker.unlink()
    except FileNotFoundError:
        pass
    else:
        os._exit(1)  # simulate an OOM kill / segfault, exactly once
    return _REAL_TIMED_UNIT(spec, workload_name, scheme)


def _always_crash_timed_unit(spec, workload_name, scheme):
    os._exit(1)


needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="crash hooks rely on fork inheritance of patched module state",
)


@needs_fork
class TestWorkerDeathRecovery:
    def test_dead_worker_units_are_requeued_and_finish(
        self, tmp_path, monkeypatch
    ):
        marker = tmp_path / "crash-once"
        marker.touch()
        monkeypatch.setenv(_MARKER_ENV, str(marker))
        monkeypatch.setattr(parallel_mod, "_timed_unit", _crash_once_timed_unit)

        units = plan_units(SMALL)
        results = parallel_mod.run_units_parallel(units, jobs=2)

        assert not marker.exists()  # the crash actually fired
        assert results.keys() == {unit.key for unit in units}
        # Recovery must not disturb determinism: the requeued units match
        # an undisturbed serial execution bit-for-bit.
        for unit in units:
            serial = parallel_mod.simulate_unit(
                unit.spec, unit.workload, unit.scheme
            )
            assert results[unit.key].to_dict() == serial.to_dict()

    def test_repeatedly_fatal_unit_raises_after_bounded_retries(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            parallel_mod, "_timed_unit", _always_crash_timed_unit
        )
        units = plan_units(SMALL)[:1]
        with pytest.raises(RuntimeError, match="worker-process deaths"):
            parallel_mod.run_units_parallel(units, jobs=1, max_retries=1)

    def test_rejects_negative_max_retries(self):
        units = plan_units(SMALL)[:1]
        with pytest.raises(ValueError):
            parallel_mod.run_units_parallel(units, jobs=1, max_retries=-1)
