"""Tests for the write-truncation wrapper and its engine integration."""

import numpy as np
import pytest

from repro.core.policies import PolicyContext
from repro.core.registry import make_policy
from repro.core.truncation import WriteTruncationWrapper
from repro.memsim.config import MemoryConfig
from repro.memsim.engine import simulate
from repro.memsim.policy import ReadMode
from repro.traces.generator import generate_trace


@pytest.fixture
def wrapped(small_profile, small_config):
    inner = make_policy(
        "LWT-4", PolicyContext(profile=small_profile, config=small_config, seed=3)
    )
    return WriteTruncationWrapper(inner, rng=np.random.default_rng(3))


class TestWrapper:
    def test_name_marks_truncation(self, wrapped):
        assert wrapped.name.endswith("+trunc")

    def test_scrub_interval_delegated(self, wrapped):
        assert wrapped.scrub_interval_s == wrapped.inner.scrub_interval_s

    def test_write_latency_scaled_down(self, wrapped):
        epoch = 1e6
        scales = [wrapped.on_write(line, epoch).latency_scale for line in range(50)]
        assert all(0.0 < s <= 1.0 for s in scales)
        assert np.mean(scales) < 0.95

    def test_differential_writes_shorter_than_full(
        self, small_profile, small_config
    ):
        inner = make_policy(
            "Select-4:2",
            PolicyContext(profile=small_profile, config=small_config, seed=3),
        )
        wrapped = WriteTruncationWrapper(inner, rng=np.random.default_rng(0))
        epoch = 1e6
        full_scales, diff_scales = [], []
        for line in range(300):
            decision = wrapped.on_write(line, epoch)
            (full_scales if decision.flag_update else diff_scales).append(
                decision.latency_scale
            )
        if full_scales and diff_scales:
            assert np.mean(diff_scales) < np.mean(full_scales)

    def test_reads_and_scrubs_untouched(self, wrapped):
        epoch = 1e6
        decision = wrapped.on_read(1, epoch)
        assert decision.mode in (ReadMode.R, ReadMode.RM)
        scrub = wrapped.on_scrub(1, epoch)
        assert scrub.metric == "M"

    def test_rejects_bad_scales(self, wrapped):
        with pytest.raises(ValueError):
            WriteTruncationWrapper(wrapped.inner, floor_scale=0.9, mean_scale=0.5)


class TestEngineIntegration:
    def test_truncation_never_slows_execution(self, small_profile):
        config = MemoryConfig(total_lines=1 << 16, num_banks=4)
        trace = generate_trace(small_profile, 150_000, seed=6)
        plain = simulate(
            trace,
            make_policy(
                "Ideal", PolicyContext(profile=small_profile, config=config, seed=1)
            ),
            config,
        )
        wrapped = WriteTruncationWrapper(
            make_policy(
                "Ideal", PolicyContext(profile=small_profile, config=config, seed=1)
            ),
            rng=np.random.default_rng(1),
        )
        truncated = simulate(trace, wrapped, config)
        assert truncated.execution_time_ns <= plain.execution_time_ns + 1e-6
        assert wrapped.truncated_writes > 0

    def test_energy_unchanged_by_truncation(self, small_profile):
        # Truncation shortens the *latency*, not the programmed cells.
        config = MemoryConfig(
            total_lines=1 << 16, num_banks=4, cancel_threshold=0.0
        )
        trace = generate_trace(small_profile, 100_000, seed=6)
        plain = simulate(
            trace,
            make_policy(
                "Ideal", PolicyContext(profile=small_profile, config=config, seed=1)
            ),
            config,
        )
        wrapped = WriteTruncationWrapper(
            make_policy(
                "Ideal", PolicyContext(profile=small_profile, config=config, seed=1)
            ),
            rng=np.random.default_rng(1),
        )
        truncated = simulate(trace, wrapped, config)
        assert truncated.dynamic_energy_pj == pytest.approx(
            plain.dynamic_energy_pj
        )
