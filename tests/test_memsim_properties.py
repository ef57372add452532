"""Hypothesis property tests: engine invariants over random tiny traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.config import MemoryConfig
from repro.memsim.engine import simulate
from repro.memsim.policy import ReadDecision, ReadMode, WriteDecision
from repro.traces.trace import Trace


class _CountingPolicy:
    """Minimal policy recording every callback for invariant checks."""

    name = "counting"
    scrub_interval_s = None

    def __init__(self):
        self.read_calls = 0
        self.write_calls = 0

    def on_read(self, line, now_s):
        self.read_calls += 1
        return ReadDecision(mode=ReadMode.R)

    def on_write(self, line, now_s):
        self.write_calls += 1
        return WriteDecision(cells_written=296)

    def on_conversion_write(self, line, now_s):
        return WriteDecision(cells_written=296)

    def on_scrub(self, line, now_s):
        raise AssertionError("no scrubbing configured")


request_lists = st.lists(
    st.tuples(
        st.integers(0, 1),      # op
        st.integers(0, 3),      # core
        st.integers(0, 63),     # line
        st.integers(0, 2000),   # gap
    ),
    min_size=1,
    max_size=60,
)


def _build_trace(requests):
    ops, cores, lines, gaps = zip(*requests)
    return Trace(
        op=np.asarray(ops),
        core=np.asarray(cores),
        line=np.asarray(lines),
        gap=np.asarray(gaps),
        name="prop",
    )


class TestEngineInvariants:
    @given(requests=request_lists)
    @settings(max_examples=60, deadline=None)
    def test_every_request_serviced_exactly_once(self, requests):
        trace = _build_trace(requests)
        policy = _CountingPolicy()
        config = MemoryConfig(total_lines=1 << 12, num_banks=4)
        stats = simulate(trace, policy, config)
        reads = sum(1 for r in requests if r[0] == 0)
        writes = len(requests) - reads
        assert stats.reads == reads == policy.read_calls
        assert stats.writes == writes == policy.write_calls

    @given(requests=request_lists)
    @settings(max_examples=40, deadline=None)
    def test_execution_time_bounds(self, requests):
        """Exec time is at least the critical path of any single core and
        at most the fully serialized sum of all work."""
        trace = _build_trace(requests)
        config = MemoryConfig(total_lines=1 << 12, num_banks=4)
        stats = simulate(trace, _CountingPolicy(), config)
        timing = config.timing
        total_gap_ns = sum(r[3] for r in requests) * timing.cycle_ns
        serial_upper = (
            total_gap_ns
            + stats.reads * (timing.r_read_ns + timing.bus_ns)
            + stats.writes * timing.write_ns
            + 1e-6
        )
        assert stats.execution_time_ns <= serial_upper
        # Lower bound: the busiest single core's own gaps.
        per_core_gap = {}
        for op, core, _line, gap in requests:
            per_core_gap[core] = per_core_gap.get(core, 0) + gap
        assert stats.execution_time_ns >= max(per_core_gap.values()) * (
            timing.cycle_ns
        ) - 1e-6

    @given(requests=request_lists)
    @settings(max_examples=40, deadline=None)
    def test_wear_matches_write_count(self, requests):
        trace = _build_trace(requests)
        config = MemoryConfig(total_lines=1 << 12, num_banks=4)
        stats = simulate(trace, _CountingPolicy(), config)
        assert stats.wear.by_cause.get("demand", 0) == stats.writes * 296

    @given(requests=request_lists, banks=st.sampled_from([1, 2, 8]))
    @settings(max_examples=30, deadline=None)
    def test_energy_independent_of_bank_count(self, requests, banks):
        """Dynamic energy depends on work done, not on layout/timing.

        Write cancellation is disabled here: cancelled writes waste
        timing-dependent partial program energy, which is the one
        legitimate layout-dependent energy term.
        """
        trace = _build_trace(requests)
        config = MemoryConfig(
            total_lines=1 << 12, num_banks=banks, cancel_threshold=0.0
        )
        stats = simulate(trace, _CountingPolicy(), config)
        reference = MemoryConfig(
            total_lines=1 << 12, num_banks=4, cancel_threshold=0.0
        )
        ref_stats = simulate(trace, _CountingPolicy(), reference)
        assert stats.dynamic_energy_pj == pytest.approx(
            ref_stats.dynamic_energy_pj
        )
