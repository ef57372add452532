"""Tests for the scheme registry (repro.core.registry)."""

import pytest

from repro.core import policies  # noqa: F401  (registers the built-ins)
from repro.core.registry import (
    canonical_scheme_name,
    enumerate_family,
    family_syntaxes,
    is_scheme_name,
    make_policy,
    register_scheme,
    resolve_scheme,
    scheme_catalog,
    scheme_names,
    unknown_scheme_message,
    unregister_scheme,
)
from repro.core.policies import IdealPolicy, PolicyContext
from repro.core import SCHEME_NAMES
from repro.traces.spec import workload


@pytest.fixture
def ctx():
    return PolicyContext(profile=workload("gcc"))


class TestBuiltinRegistrations:
    def test_scheme_names_matches_legacy_tuple(self):
        assert scheme_names() == (
            "Ideal", "Scrubbing", "Scrubbing-W0", "M-metric", "Hybrid",
            "LWT-2", "LWT-4", "LWT-4-noconv", "Select-4:1", "Select-4:2",
            "TLC",
        )
        assert SCHEME_NAMES == scheme_names()

    def test_family_syntaxes(self):
        assert family_syntaxes() == ("LWT-<k>[-noconv]", "Select-<k>:<s>")

    @pytest.mark.parametrize("name", scheme_names())
    def test_every_listed_name_round_trips(self, name, ctx):
        # canonical(canonical(x)) == canonical(x) == x for listed names,
        # and make_policy produces a policy reporting that exact name.
        assert canonical_scheme_name(name) == name
        assert is_scheme_name(name)
        policy = make_policy(name, ctx)
        assert policy.name == name

    @pytest.mark.parametrize("name", scheme_names())
    def test_alias_to_canonical_to_alias_is_stable(self, name):
        for alias in (name.lower(), name.upper(), f"readduo-{name.lower()}"):
            resolved = canonical_scheme_name(alias)
            assert resolved == name
            # A second pass is a fixed point.
            assert canonical_scheme_name(resolved) == name

    @pytest.mark.parametrize(
        "alias,expected",
        [
            ("lwt-8", "LWT-8"),
            ("readduo-lwt-8-noconv", "LWT-8-noconv"),
            ("select-8:3", "Select-8:3"),
            ("readduo-select-8:3", "Select-8:3"),
        ],
    )
    def test_parameterized_aliases_beyond_listed_names(self, alias, expected):
        assert canonical_scheme_name(alias) == expected
        assert is_scheme_name(expected)

    def test_unknown_names_pass_through_unchanged(self):
        assert canonical_scheme_name("NoSuchScheme") == "NoSuchScheme"
        assert not is_scheme_name("NoSuchScheme")


class TestEnumerateFamily:
    """Parameter-space enumeration over registered family axes."""

    def test_select_cross_product_in_axis_order(self):
        names = enumerate_family(
            "Select-<k>:<s>", {"k": [2, 4], "s": [1, 2]}
        )
        assert names == (
            "Select-2:1", "Select-2:2", "Select-4:1", "Select-4:2"
        )
        assert all(is_scheme_name(name) for name in names)

    def test_single_axis_leaves_others_at_canonical_default(self):
        assert enumerate_family("LWT-<k>[-noconv]", {"k": [2, 8]}) == (
            "LWT-2",
            "LWT-8",
        )

    def test_boolean_axis_renders_suffix(self):
        names = enumerate_family(
            "LWT-<k>[-noconv]",
            {"k": [4], "conversion_enabled": [True, False]},
        )
        assert names == ("LWT-4", "LWT-4-noconv")

    def test_duplicate_values_dedup_preserving_order(self):
        assert enumerate_family("LWT-<k>[-noconv]", {"k": [4, 4, 2]}) == (
            "LWT-4",
            "LWT-2",
        )

    def test_unknown_family_lists_enumerable_ones(self):
        with pytest.raises(KeyError, match="enumerable families"):
            enumerate_family("NoSuch-<x>", {"x": [1]})

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown axes"):
            enumerate_family("Select-<k>:<s>", {"k": [2], "zz": [1]})

    def test_empty_axis_pool_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            enumerate_family("Select-<k>:<s>", {"k": []})

    def test_catalog_exposes_axes(self):
        families = {
            f["syntax"]: f for f in scheme_catalog()["families"]
        }
        assert families["Select-<k>:<s>"]["axes"] == ["k", "s"]
        assert families["LWT-<k>[-noconv]"]["axes"] == [
            "k",
            "conversion_enabled",
        ]


class TestErrors:
    def test_unknown_scheme_error_lists_names_and_families(self, ctx):
        with pytest.raises(ValueError) as excinfo:
            make_policy("FancyScheme", ctx)
        message = str(excinfo.value)
        assert "unknown schemes: FancyScheme" in message
        for name in scheme_names():
            assert name in message
        assert "LWT-<k>[-noconv]" in message
        assert "Select-<k>:<s>" in message

    def test_unknown_scheme_message_accepts_lists(self):
        message = unknown_scheme_message(["A", "B"])
        assert message.startswith("unknown schemes: A, B;")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scheme("Ideal")(IdealPolicy)

    def test_register_scheme_argument_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            register_scheme()
        with pytest.raises(ValueError, match="exactly one"):
            register_scheme("X", pattern=r"X-\d+")
        with pytest.raises(ValueError, match="parse= and canonical="):
            register_scheme(pattern=r"X-\d+")
        with pytest.raises(ValueError, match="fixed-name"):
            register_scheme(
                pattern=r"X-(?P<k>\d+)",
                parse=lambda m: {"k": int(m.group("k"))},
                canonical=lambda p: f"X-{p['k']}",
                params={"k": 1},
            )


class TestPluginScheme:
    """A new scheme is one register_scheme call in one file: no edits to
    cli.py, runner.py, or parallel.py (the PR's acceptance criterion)."""

    @pytest.fixture
    def dummy_scheme(self):
        @register_scheme("DummyTest")
        class DummyTestPolicy(IdealPolicy):
            name = "DummyTest"

        yield DummyTestPolicy
        assert unregister_scheme("DummyTest")

    def test_appears_in_scheme_names(self, dummy_scheme):
        assert "DummyTest" in scheme_names()

    def test_appears_in_cli_list(self, dummy_scheme, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        assert "DummyTest" in capsys.readouterr().out

    def test_make_policy_and_aliases_work(self, dummy_scheme, ctx):
        assert canonical_scheme_name("readduo-dummytest") == "DummyTest"
        policy = make_policy("DummyTest", ctx)
        assert isinstance(policy, dummy_scheme)

    def test_sweeps_through_runner_without_core_edits(self, dummy_scheme,
                                                      small_config):
        from repro.experiments.runner import (
            SimSpec,
            clear_sweep_cache,
            run_sweep,
        )

        settings = SimSpec(
            schemes=("DummyTest",),
            workloads=("gcc",),
            target_requests=600,
            config=small_config,
        )
        try:
            grid = run_sweep(settings, jobs=1, cache=False)
            assert grid["gcc"]["DummyTest"].scheme == "DummyTest"
        finally:
            clear_sweep_cache()

    def test_kernels_only_family_runs_its_kernels_in_batch(
        self, small_profile, small_config, monkeypatch
    ):
        """A family written as one kernels() method gets the batch engine's
        kernel path (not the hook-driven one) and matches the event oracle,
        with no edits to repro.memsim."""
        from repro.core.policies import BaseDriftPolicy
        from repro.memsim import batch
        from repro.memsim.engine import simulate
        from repro.memsim.policy import MODE_R, MODE_RM
        from repro.traces.generator import generate_trace

        calls = {"kernels": 0, "read": 0, "scrub": 0}

        @register_scheme("KernelOnlyTest")
        class KernelOnlyPolicy(BaseDriftPolicy):
            """R-reads retried in M above 2 errors; a W=1 R-scrub sweep fast
            enough for a short trace to see it."""

            name = "KernelOnlyTest"
            scrub_interval_s = 1e-3

            def kernels(self):
                calls["kernels"] += 1
                last_write_of = self._last_write_fn()
                sample_r, _ = self.sampler.sample_fns()
                lw = self.last_write_s
                full_cells = self.full_cells

                def on_read(line, now_s):
                    calls["read"] += 1
                    errors = sample_r(max(now_s - last_write_of(line), 0.0))
                    mode = MODE_R if errors <= 2 else MODE_RM
                    return (mode, errors, False, False, False, False)

                def on_scrub(line, now_s):
                    calls["scrub"] += 1
                    errors = sample_r(max(now_s - last_write_of(line), 0.0))
                    if errors:
                        lw[line] = now_s
                        return ("R", True, full_cells, errors)
                    return ("R", False, 0, 0)

                write = self._write_kernel()
                return on_read, write, write, on_scrub

        def no_generic(policy):
            raise AssertionError("kernels-only family took the hook path")

        trace = generate_trace(
            small_profile,
            instructions_per_core=20_000,
            num_cores=small_config.num_cores,
            seed=5,
        )
        try:
            runs = {}
            for engine in ("batch", "event"):
                with monkeypatch.context() as patch:
                    patch.setattr(batch, "_generic_kernels", no_generic)
                    policy = make_policy(
                        "KernelOnlyTest",
                        PolicyContext(profile=small_profile, config=small_config),
                    )
                    runs[engine] = simulate(trace, policy, small_config, engine=engine)
                    if engine == "batch":
                        assert calls["kernels"] == 1 and calls["read"] > 0
        finally:
            assert unregister_scheme("KernelOnlyTest")
        assert calls["scrub"] > 0
        assert runs["batch"].to_dict() == runs["event"].to_dict()
        assert runs["batch"].reads_by_mode.get("RM", 0) > 0

    def test_unregister_restores_unknown(self):
        assert not is_scheme_name("DummyTest")
        assert not unregister_scheme("DummyTest")

    def test_resolve_scheme_returns_family_and_params(self):
        family, params = resolve_scheme("LWT-8-noconv")
        assert params == {"k": 8, "conversion_enabled": False}
        assert family.canonical(params) == "LWT-8-noconv"


class TestVariantSyntaxes:
    """Frozen ratios, scrub intervals, ``+trunc`` and precise writes."""

    @pytest.mark.parametrize(
        "spelling,canonical",
        [
            ("LWT-4@S=640", "LWT-4"),
            ("LWT-4@S=640.0", "LWT-4"),
            ("LWT-4-noconv@S=640", "LWT-4-noconv"),
            ("lwt-4@s=160", "LWT-4@S=160"),
            ("LWT-4@S=160.50", "LWT-4@S=160.5"),
            ("LWT-4@S=1.0", "LWT-4@S=1"),
            ("LWT-4-T100", "LWT-4-T100"),
            ("LWT-4-T050", "LWT-4-T50"),
            ("LWT-4-T0", "LWT-4-noconv"),
            ("LWT-2-T100@S=2560", "LWT-2-T100@S=2560"),
            ("Select-4:2+trunc", "Select-4:2+trunc"),
            ("readduo-select-4:2+trunc", "Select-4:2+trunc"),
            ("LWT-4@S=640+trunc", "LWT-4+trunc"),
            ("Precise-2sigma", "Precise-2sigma"),
            ("Precise-2.0sigma", "Precise-2sigma"),
            ("precise-2.5sigma", "Precise-2.5sigma"),
        ],
    )
    def test_canonical_spelling(self, spelling, canonical, ctx):
        assert canonical_scheme_name(spelling) == canonical
        assert canonical_scheme_name(canonical) == canonical
        assert is_scheme_name(canonical)
        assert make_policy(canonical, ctx).name == canonical

    def test_parsed_parameters(self):
        assert resolve_scheme("LWT-4-T100@S=160")[1] == {
            "k": 4, "conversion_enabled": True, "conversion_t": 100,
            "interval_s": 160.0,
        }
        assert resolve_scheme("Select-4:2+trunc")[1] == {"inner": "Select-4:2"}
        assert resolve_scheme("Precise-2sigma")[1] == {"program_width_sigma": 2.0}

    def test_policies_carry_the_parameters(self, ctx):
        from repro.baselines.precise import PreciseWritePolicy
        from repro.core.truncation import WriteTruncationWrapper

        frozen = make_policy("LWT-4-T100", ctx)
        assert frozen.conversion.t == 100 and frozen.conversion.frozen
        assert make_policy("LWT-4@S=160", ctx).scrub_interval_s == 160.0
        wrapped = make_policy("Select-4:2+trunc", ctx)
        assert isinstance(wrapped, WriteTruncationWrapper)
        assert wrapped.inner.name == "Select-4:2"
        precise = make_policy("Precise-2sigma", ctx)
        assert isinstance(precise, PreciseWritePolicy)
        assert precise.program_width_sigma == 2.0

    @pytest.mark.parametrize(
        "name",
        [
            "LWT-4-T101",
            "LWT-4@S=0",
            "LWT-4@S=0.001",
            "LWT-4@S=0.00000000000000000001",
            "LWT-4@S=-5",
            "LWT-4@S=1e3",
            "LWT-4@S=" + "9" * 400,
            "LWT-4-T" + "9" * 5000,
            "LWT-4-noconv-T50",
            "LWT-4@T=100",
            "NoSuchScheme+trunc",
            "Ideal+trunc+trunc",
            "readduo-ideal+TRUNC+trunc",
            "+trunc",
            "Precise-0sigma",
            "Precise-3sigma",
            "Precise-sigma",
        ],
    )
    def test_unknown_or_out_of_range_suffix_is_a_spec_error(self, name):
        from repro.experiments.spec import SimSpec, SpecError

        assert not is_scheme_name(canonical_scheme_name(name))
        with pytest.raises(SpecError, match="unknown schemes"):
            SimSpec(schemes=(name,), workloads=("gcc",))

    @pytest.mark.parametrize(
        "name",
        ["LWT-0", "LWT-1", "LWT-3", "LWT-6-noconv", "Select-3:1",
         "Select-4:0", "Select-6:2"],
    )
    def test_impossible_tracker_geometry_is_a_spec_error(self, name):
        # k must be a power of two >= 2 and s >= 1; the policy would
        # reject these at construction, so the name must not resolve.
        from repro.experiments.spec import SimSpec, SpecError

        assert not is_scheme_name(name)
        with pytest.raises(SpecError, match="unknown schemes"):
            SimSpec(schemes=(name,), workloads=("gcc",))

    def test_enumerating_an_impossible_k_raises(self):
        with pytest.raises(ValueError):
            enumerate_family("LWT-<k>[-noconv]", {"k": [3]})

    def test_nested_trunc_is_rejected_without_recursion(self):
        import time

        from repro.experiments.spec import SimSpec, SpecError

        start = time.perf_counter()
        with pytest.raises(SpecError, match="unknown schemes"):
            SimSpec(schemes=("Ideal" + "+trunc" * 40,), workloads=("mcf",))
        assert time.perf_counter() - start < 1.0

    def test_listings_unchanged(self):
        # The new spellings are accepted, not advertised.
        assert "LWT-4-T100" not in scheme_names()
        assert [f["syntax"] for f in scheme_catalog()["families"]] == [
            "LWT-<k>[-noconv]", "Select-<k>:<s>",
        ]
        assert enumerate_family(
            "LWT-<k>[-noconv]", {"k": [4], "conversion_enabled": [True, False]}
        ) == ("LWT-4", "LWT-4-noconv")

    def test_frozen_ratio_never_adapts(self, ctx):
        controller = make_policy("LWT-4-T100", ctx).conversion
        for _ in range(5 * controller.window_reads):
            controller.record_read(untracked=True)
        assert controller.t == 100 and controller.adjustments == 0
