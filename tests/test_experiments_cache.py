"""Tests for the persistent on-disk run cache."""

import dataclasses
import json

import pytest

from repro.experiments.cache import RunCache
from repro.experiments.runner import clear_sweep_cache, run_sweep
from repro.experiments.spec import SimSpec
from repro.memsim.config import MemoryConfig
from repro.pcm.params import TimingParams


@pytest.fixture(autouse=True)
def clean_cache():
    clear_sweep_cache()
    yield
    clear_sweep_cache()


SMALL = SimSpec(
    schemes=("Ideal", "Hybrid"),
    workloads=("gcc",),
    target_requests=1_200,
)


def _flat(grid):
    return [
        (w, s, stats.to_dict())
        for w, per_scheme in grid.items()
        for s, stats in per_scheme.items()
    ]


def _reload(root, spec):
    """Read one spec's grid back from a fresh RunCache at ``root``."""
    cache = RunCache(root)
    return {
        w: {s: cache.load(spec.run_hash(w, s)) for s in spec.schemes}
        for w in spec.effective_workloads()
    }


class TestSettingsKey:
    """A spec's settings key is :meth:`SimSpec.content_hash`."""

    def test_stable_for_equal_settings(self):
        assert SMALL.content_hash() == SimSpec(
            schemes=("Ideal", "Hybrid"),
            workloads=("gcc",),
            target_requests=1_200,
        ).content_hash()

    def test_explicit_all_workloads_equals_default(self):
        # The default () expands to all workloads; listing them explicitly
        # must hash the same.
        default = SimSpec(schemes=("Ideal",))
        explicit = SimSpec(
            schemes=("Ideal",), workloads=default.effective_workloads()
        )
        assert default.content_hash() == explicit.content_hash()

    def test_each_sweep_parameter_changes_the_key(self):
        base = SMALL.content_hash()
        variants = [
            SimSpec(schemes=("Ideal",), workloads=("gcc",),
                    target_requests=1_200),
            SimSpec(schemes=SMALL.schemes, workloads=("mcf",),
                    target_requests=1_200),
            SimSpec(schemes=SMALL.schemes, workloads=("gcc",),
                    target_requests=2_400),
            SimSpec(schemes=SMALL.schemes, workloads=("gcc",),
                    target_requests=1_200, seed=7),
        ]
        keys = {v.content_hash() for v in variants}
        assert base not in keys and len(keys) == len(variants)

    @pytest.mark.parametrize(
        "change",
        [
            {"num_banks": 8},
            {"cancel_threshold": 0.25},
            {"write_queue_depth": 16, "write_drain_watermark": 12},
            {"timing": TimingParams(r_read_ns=120.0)},
        ],
    )
    def test_any_config_field_invalidates(self, change):
        changed = SimSpec(
            schemes=SMALL.schemes,
            workloads=SMALL.workloads,
            target_requests=SMALL.target_requests,
            config=dataclasses.replace(MemoryConfig(), **change),
        )
        assert changed.content_hash() != SMALL.content_hash()

    def test_version_is_part_of_the_key(self, monkeypatch):
        # content_hash reads the package version through the spec
        # module's global.
        import repro.experiments.spec as spec_mod

        base = SMALL.content_hash()
        monkeypatch.setattr(spec_mod, "__version__", "0.0.0-test")
        assert SMALL.content_hash() != base


class TestRoundTrip:
    def test_store_then_fresh_instance_reload_bit_for_bit(self, tmp_path):
        grid = run_sweep(SMALL, jobs=1, cache=tmp_path)
        assert _flat(grid) == _flat(_reload(tmp_path, SMALL))

    def test_order_sensitive_float_sums_survive_reload(self, tmp_path):
        # dynamic_energy_pj sums by_category.values(); a store that
        # reorders the category dict changes the summation order and the
        # result by one ulp (regression: sort_keys in the cache writer).
        grid = run_sweep(SMALL, jobs=1, cache=tmp_path)
        reloaded = _reload(tmp_path, SMALL)
        for w, per_scheme in grid.items():
            for s, stats in per_scheme.items():
                assert reloaded[w][s].dynamic_energy_pj == stats.dynamic_energy_pj

    def test_run_sweep_warm_cache_skips_simulation(self, tmp_path, monkeypatch):
        run_sweep(SMALL, jobs=1, cache=tmp_path)
        clear_sweep_cache()

        import repro.experiments.planner as planner_mod

        def explode(*_args, **_kwargs):
            raise AssertionError("warm cache must not simulate")

        monkeypatch.setattr(planner_mod, "simulate_unit", explode)
        monkeypatch.setattr(planner_mod, "run_units_parallel", explode)
        grid = run_sweep(SMALL, jobs=1, cache=tmp_path)
        assert set(grid["gcc"]) == {"Ideal", "Hybrid"}

    def test_miss_on_empty_dir(self, tmp_path):
        assert RunCache(tmp_path).load(SMALL.run_hash("gcc", "Ideal")) is None

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        run_sweep(SMALL, jobs=1, cache=cache)
        key = SMALL.run_hash("gcc", "Hybrid")
        cache.path_for(key).write_text("{not json")
        assert cache.load(key) is None

    def test_clear_removes_entries(self, tmp_path):
        cache = RunCache(tmp_path)
        run_sweep(SMALL, jobs=1, cache=cache)
        n_runs = len(SMALL.schemes) * len(SMALL.workloads)
        assert cache.clear() == n_runs
        assert cache.load(SMALL.run_hash("gcc", "Ideal")) is None

    def test_stored_payload_is_json(self, tmp_path, monkeypatch):
        from repro.experiments.cache import RUN_GZIP_MIN_ENV

        monkeypatch.setenv(RUN_GZIP_MIN_ENV, "0")
        cache = RunCache(tmp_path)
        run_sweep(SMALL, jobs=1, cache=cache)
        key = SMALL.run_hash("gcc", "Hybrid")
        payload = json.loads(cache.path_for(key).read_text())
        assert payload["key"] == key
        assert payload["stats"]["reads"] > 0


class TestCacheCounters:
    """Hit/miss/stale accounting, counted in runs (workload x scheme)."""

    N_RUNS = len(SMALL.schemes) * len(SMALL.workloads)

    def test_cold_sweep_reports_all_misses(self, tmp_path):
        cache = RunCache(tmp_path)
        run_sweep(SMALL, jobs=1, cache=cache)
        assert cache.counters.as_dict() == {
            "hits": 0, "misses": self.N_RUNS, "stale": 0,
            "stores": self.N_RUNS, "quarantined": 0,
        }

    def test_warm_rerun_reports_all_hits(self, tmp_path):
        run_sweep(SMALL, jobs=1, cache=RunCache(tmp_path))
        clear_sweep_cache()
        fresh = RunCache(tmp_path)
        run_sweep(SMALL, jobs=1, cache=fresh)
        assert fresh.counters.hits == self.N_RUNS
        assert fresh.counters.misses == 0
        assert fresh.counters.stores == 0

    def test_config_change_reports_misses_again(self, tmp_path):
        run_sweep(SMALL, jobs=1, cache=RunCache(tmp_path))
        clear_sweep_cache()
        changed = SimSpec(
            schemes=SMALL.schemes,
            workloads=SMALL.workloads,
            target_requests=SMALL.target_requests,
            config=dataclasses.replace(MemoryConfig(), num_banks=8),
        )
        fresh = RunCache(tmp_path)
        run_sweep(changed, jobs=1, cache=fresh)
        assert fresh.counters.hits == 0
        assert fresh.counters.misses == self.N_RUNS

    def test_granular_entries_survive_whole_sweep_corruption(self, tmp_path):
        # A corrupt legacy whole-sweep file at the root is never read:
        # the run entries under runs/ still serve every run.
        run_sweep(SMALL, jobs=1, cache=RunCache(tmp_path))
        clear_sweep_cache()
        (tmp_path / f"{SMALL.content_hash()}.json").write_text("{not json")
        fresh = RunCache(tmp_path)
        run_sweep(SMALL, jobs=1, cache=fresh)
        assert fresh.counters.hits == self.N_RUNS
        assert fresh.counters.misses == 0

    def test_corrupt_files_count_as_stale_and_missed(self, tmp_path):
        run_sweep(SMALL, jobs=1, cache=RunCache(tmp_path))
        clear_sweep_cache()
        for entry in (tmp_path / "runs").glob("*.json"):
            entry.write_text("{not json")
        fresh = RunCache(tmp_path)
        run_sweep(SMALL, jobs=1, cache=fresh)
        assert fresh.counters.stale == self.N_RUNS
        assert fresh.counters.misses == self.N_RUNS
        assert fresh.counters.hits == 0

    def test_memo_hit_bypasses_persistent_counters(self, tmp_path):
        cache = RunCache(tmp_path)
        run_sweep(SMALL, jobs=1, cache=cache)
        before = cache.counters.as_dict()
        run_sweep(SMALL, jobs=1, cache=cache)  # served from in-process memo
        assert cache.counters.as_dict() == before


class TestParallelSerialCacheEquivalence:
    def test_parallel_write_serial_read_identical(self, tmp_path):
        parallel = run_sweep(SMALL, jobs=2, cache=tmp_path)
        clear_sweep_cache()
        # The serial uncached run must match what the parallel run cached.
        serial = run_sweep(SMALL, jobs=1)
        cached = _reload(tmp_path, SMALL)
        assert _flat(serial) == _flat(parallel) == _flat(cached)


class TestRunCacheGzip:
    """Transparent gzip compression of granular run-cache entries."""

    @pytest.fixture(scope="class")
    def one_stats(self):
        grid = run_sweep(
            SimSpec(
                schemes=("Ideal",), workloads=("gcc",), target_requests=400
            ),
            jobs=1, cache=False,
        )
        return grid["gcc"]["Ideal"]

    def _cache(self, tmp_path, monkeypatch, min_bytes):
        from repro.experiments.cache import RUN_GZIP_MIN_ENV, RunCache

        monkeypatch.setenv(RUN_GZIP_MIN_ENV, str(min_bytes))
        return RunCache(tmp_path)

    def test_below_threshold_stays_plain_json(
        self, tmp_path, monkeypatch, one_stats
    ):
        cache = self._cache(tmp_path, monkeypatch, 10**9)
        path = cache.store("k1", one_stats)
        blob = path.read_bytes()
        assert blob[:1] == b"{"  # plain JSON, no gzip magic
        assert cache.load("k1").to_dict() == one_stats.to_dict()
        assert cache.entry_raw_bytes("k1") == len(blob)
        assert cache.entry_bytes("k1") == len(blob)

    def test_above_threshold_compresses_and_round_trips(
        self, tmp_path, monkeypatch, one_stats
    ):
        cache = self._cache(tmp_path, monkeypatch, 1)
        path = cache.store("k1", one_stats)
        blob = path.read_bytes()
        assert blob[:2] == b"\x1f\x8b"  # gzip magic
        loaded = cache.load("k1")
        assert loaded is not None
        assert loaded.to_dict() == one_stats.to_dict()
        # Raw size comes from the gzip ISIZE trailer, stored from st_size.
        raw = cache.entry_raw_bytes("k1")
        stored = cache.entry_bytes("k1")
        assert stored == len(blob)
        assert raw > stored  # run stats compress well

    def test_reload_preserves_order_sensitive_floats(
        self, tmp_path, monkeypatch, one_stats
    ):
        # Bit-for-bit: the decompressed payload must preserve insertion
        # order so order-sensitive float sums reload to the last ulp.
        cache = self._cache(tmp_path, monkeypatch, 1)
        cache.store("k1", one_stats)
        assert list(cache.load("k1").to_dict()) == list(one_stats.to_dict())

    def test_compressed_bytes_are_deterministic(
        self, tmp_path, monkeypatch, one_stats
    ):
        a = self._cache(tmp_path / "a", monkeypatch, 1)
        b = self._cache(tmp_path / "b", monkeypatch, 1)
        path_a = a.store("k1", one_stats)
        path_b = b.store("k1", one_stats)
        # mtime=0 in the gzip header: independent writers emit identical
        # bytes, so concurrent last-write-wins stores are a no-op.
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_both_formats_coexist_transparently(
        self, tmp_path, monkeypatch, one_stats
    ):
        plain = self._cache(tmp_path, monkeypatch, 10**9)
        plain.store("plain-key", one_stats)
        mixed = self._cache(tmp_path, monkeypatch, 1)
        mixed.store("gz-key", one_stats)
        for key in ("plain-key", "gz-key"):
            loaded = mixed.load(key)
            assert loaded is not None
            assert loaded.to_dict() == one_stats.to_dict()

    def test_truncated_gzip_entry_is_a_miss(
        self, tmp_path, monkeypatch, one_stats
    ):
        cache = self._cache(tmp_path, monkeypatch, 1)
        path = cache.store("k1", one_stats)
        path.write_bytes(path.read_bytes()[:20])  # truncate mid-stream
        assert cache.load("k1") is None

    def test_zero_disables_compression(
        self, tmp_path, monkeypatch, one_stats
    ):
        cache = self._cache(tmp_path, monkeypatch, 0)
        path = cache.store("k1", one_stats)
        assert path.read_bytes()[:1] == b"{"

    def test_garbage_env_falls_back_to_default(self, tmp_path, monkeypatch):
        from repro.experiments.cache import (
            _DEFAULT_GZIP_MIN_BYTES,
            RUN_GZIP_MIN_ENV,
            RunCache,
        )

        monkeypatch.setenv(RUN_GZIP_MIN_ENV, "not-a-number")
        assert RunCache(tmp_path).gzip_min_bytes == _DEFAULT_GZIP_MIN_BYTES
