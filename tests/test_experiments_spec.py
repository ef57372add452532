"""Tests for SimSpec (repro.experiments.spec)."""

import dataclasses
import json

import pytest

from repro.experiments.cache import RunCache
from repro.experiments.runner import clear_sweep_cache, run_sweep
from repro.experiments.spec import ALL_SCHEMES, SimSpec, SpecError
from repro.memsim.config import DEFAULT_EPOCH_S, MemoryConfig
from repro.traces.spec import workload, workload_names

SMALL = SimSpec(
    schemes=("Ideal", "Hybrid", "LWT-4"),
    workloads=("gcc",),
    target_requests=900,
)


class TestConstruction:
    def test_defaults(self):
        spec = SimSpec()
        assert spec.schemes == ALL_SCHEMES
        assert spec.workloads == ()
        assert spec.target_requests == 30_000
        assert spec.seed == 42
        assert spec.epoch_s == DEFAULT_EPOCH_S
        assert spec.config == MemoryConfig()

    def test_schemes_are_canonicalized(self):
        spec = SimSpec(schemes=("readduo-lwt-4", "HYBRID", "select-4:2"))
        assert spec.schemes == ("LWT-4", "Hybrid", "Select-4:2")

    def test_schemes_deduplicate_after_canonicalization(self):
        spec = SimSpec(schemes=("LWT-4", "readduo-lwt-4", "lwt-4", "Ideal"))
        assert spec.schemes == ("LWT-4", "Ideal")

    def test_alias_spelling_is_same_spec(self):
        canonical = SimSpec(schemes=("LWT-4",), workloads=("gcc",))
        aliased = SimSpec(schemes=("readduo-lwt-4",), workloads=("gcc",))
        assert canonical == aliased
        assert canonical.content_hash() == aliased.content_hash()

    def test_unknown_scheme_rejected_upfront(self):
        with pytest.raises(SpecError, match="unknown schemes: Bogus"):
            SimSpec(schemes=("Ideal", "Bogus"))

    def test_unknown_workload_rejected_upfront(self):
        with pytest.raises(SpecError, match="unknown workloads: nope"):
            SimSpec(workloads=("nope",))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target_requests": 0},
            {"target_requests": 1.5},
            {"target_requests": True},
            {"seed": "42"},
            {"epoch_s": float("nan")},
            {"epoch_s": float("inf")},
            {"epoch_s": "soon"},
            {"config": 7},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(SpecError):
            SimSpec(**kwargs)

    def test_config_accepts_partial_mapping(self):
        spec = SimSpec(config={"num_banks": 4, "timing": {"write_ns": 500.0}})
        assert spec.config.num_banks == 4
        assert spec.config.timing.write_ns == 500.0
        # Unspecified fields keep their defaults.
        assert spec.config.num_cores == MemoryConfig().num_cores
        assert spec.config.timing.r_read_ns == MemoryConfig().timing.r_read_ns

    def test_config_unknown_keys_rejected(self):
        with pytest.raises(SpecError, match="unknown config keys: warp_drive"):
            SimSpec(config={"warp_drive": 9})
        with pytest.raises(SpecError, match="unknown config.timing keys"):
            SimSpec(config={"timing": {"warp_ns": 1.0}})

    def test_effective_workloads_and_quick(self):
        assert SimSpec().effective_workloads() == workload_names()
        assert SMALL.effective_workloads() == ("gcc",)
        quick = SMALL.quick(300)
        assert quick.target_requests == 300
        assert quick.schemes == SMALL.schemes


class TestRoundTrip:
    def test_dict_round_trip_is_lossless(self):
        spec = SimSpec(
            schemes=("Hybrid", "LWT-4"),
            workloads=("gcc", "mcf"),
            target_requests=1_234,
            seed=7,
            config=MemoryConfig(num_banks=8),
            epoch_s=123_456.5,
        )
        clone = SimSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()

    def test_json_file_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SMALL.to_dict()))
        assert SimSpec.from_file(path) == SMALL

    def test_toml_file_round_trip(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "spec.toml"
        path.write_text(
            'schemes = ["Ideal", "Hybrid", "readduo-lwt-4"]\n'
            'workloads = ["gcc"]\n'
            "target_requests = 900\n"
            "seed = 42\n"
        )
        assert SimSpec.from_file(path) == SMALL

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(SpecError, match="unknown spec keys: shcemes"):
            SimSpec.from_dict({"shcemes": ["Ideal"]})

    def test_from_dict_rejects_scalar_scheme_list(self):
        with pytest.raises(SpecError, match="schemes must be a list"):
            SimSpec.from_dict({"schemes": "Ideal"})

    def test_from_file_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read spec file"):
            SimSpec.from_file(tmp_path / "missing.json")

    def test_from_file_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SpecError, match="invalid JSON"):
            SimSpec.from_file(path)


class TestContentHash:
    def test_hash_is_stable_across_instances(self):
        again = SimSpec(
            schemes=("Ideal", "Hybrid", "LWT-4"),
            workloads=("gcc",),
            target_requests=900,
        )
        assert again.content_hash() == SMALL.content_hash()

    def test_every_field_is_part_of_the_hash(self):
        base = SMALL.content_hash()
        assert SMALL.quick(300).content_hash() != base
        assert dataclasses.replace(SMALL, seed=7).content_hash() != base
        assert dataclasses.replace(SMALL, epoch_s=1.0).content_hash() != base
        assert (
            dataclasses.replace(SMALL, workloads=("mcf",)).content_hash() != base
        )
        assert (
            dataclasses.replace(
                SMALL, config=MemoryConfig(num_banks=8)
            ).content_hash()
            != base
        )

    def test_default_workloads_hash_like_explicit_full_list(self):
        implicit = SimSpec(schemes=("Ideal",))
        explicit = SimSpec(schemes=("Ideal",), workloads=workload_names())
        assert implicit.content_hash() == explicit.content_hash()


class TestExecutionHelpers:
    def test_trace_for_matches_spec_identity(self, small_config):
        import numpy as np

        spec = dataclasses.replace(SMALL, config=small_config)
        trace = spec.trace_for("gcc")
        again = spec.trace_for("gcc")
        assert len(trace) > 0
        # Deterministic: same spec, same trace.
        for attr in ("op", "core", "line", "gap"):
            assert np.array_equal(getattr(trace, attr), getattr(again, attr))

    def test_policy_context_carries_spec_fields(self):
        profile = workload("gcc")
        ctx = SMALL.policy_context(profile)
        assert ctx.profile is profile
        assert ctx.config is SMALL.config
        assert ctx.seed == SMALL.seed
        assert ctx.epoch_s == SMALL.epoch_s

    def test_make_policy_resolves_via_registry(self):
        policy = SMALL.make_policy("LWT-4", workload("gcc"))
        assert policy.name == "LWT-4"


class TestRunSweepCanonicalization:
    def test_alias_spec_hits_same_memo_and_cache(self, tmp_path, small_config):
        cache = RunCache(tmp_path)
        canonical = SimSpec(
            schemes=("LWT-4",), workloads=("gcc",), target_requests=600,
            config=small_config,
        )
        aliased = SimSpec(
            schemes=("readduo-lwt-4", "lwt-4"), workloads=("gcc",),
            target_requests=600, config=small_config,
        )
        try:
            grid = run_sweep(canonical, jobs=1, cache=cache)
            again = run_sweep(aliased, jobs=1, cache=cache)
            # Same canonical spec: the memoized run is returned as-is.
            assert again["gcc"]["LWT-4"] is grid["gcc"]["LWT-4"]
            assert cache.counters.stores == 1
        finally:
            clear_sweep_cache()
