"""Unit tests for the event-driven memory-system engine.

Engine mechanics are tested with a minimal scripted policy so the
behaviour under test is the simulator's, not a scheme's.
"""

import numpy as np
import pytest

from repro.memsim.config import MemoryConfig
from repro.memsim.engine import MemorySystemSim, simulate
from repro.memsim.policy import (
    ReadDecision,
    ReadMode,
    ScrubDecision,
    WriteDecision,
)
from repro.traces.trace import OP_READ, OP_WRITE, Trace


class ScriptedPolicy:
    """A policy with fixed decisions, for engine-mechanics tests."""

    name = "scripted"
    scrub_interval_s = None

    def __init__(self, read_mode=ReadMode.R, convert=False, scrub_rewrite=False):
        self.read_mode = read_mode
        self.convert = convert
        self.scrub_rewrite = scrub_rewrite
        self.reads = []
        self.writes = []
        self.scrubs = []

    def on_read(self, line, now_s):
        self.reads.append((line, now_s))
        return ReadDecision(mode=self.read_mode, convert_to_write=self.convert)

    def on_write(self, line, now_s):
        self.writes.append((line, now_s))
        return WriteDecision(cells_written=296)

    def on_conversion_write(self, line, now_s):
        return WriteDecision(cells_written=296)

    def on_scrub(self, line, now_s):
        self.scrubs.append(line)
        return ScrubDecision(
            metric="M",
            rewrite=self.scrub_rewrite,
            cells_written=296 if self.scrub_rewrite else 0,
        )


def _trace(ops, cores=None, lines=None, gaps=None, name="t"):
    n = len(ops)
    return Trace(
        op=np.asarray(ops),
        core=np.asarray(cores if cores is not None else [0] * n),
        line=np.asarray(lines if lines is not None else list(range(n))),
        gap=np.asarray(gaps if gaps is not None else [0] * n),
        name=name,
    )


@pytest.fixture
def config():
    return MemoryConfig(total_lines=1 << 14, num_banks=2)


class TestSingleRequests:
    def test_one_read_latency(self, config):
        trace = _trace([OP_READ], gaps=[0])
        stats = simulate(trace, ScriptedPolicy(), config)
        # 150 ns sensing + 7.5 ns channel transfer.
        assert stats.execution_time_ns == pytest.approx(157.5)
        assert stats.reads == 1

    def test_gap_delays_issue(self, config):
        trace = _trace([OP_READ], gaps=[100])
        stats = simulate(trace, ScriptedPolicy(), config)
        cycle = config.timing.cycle_ns
        assert stats.execution_time_ns == pytest.approx(157.5 + 100 * cycle)

    def test_m_read_latency(self, config):
        trace = _trace([OP_READ])
        stats = simulate(trace, ScriptedPolicy(read_mode=ReadMode.M), config)
        assert stats.execution_time_ns == pytest.approx(457.5)
        assert stats.reads_by_mode == {"M": 1}

    def test_rm_read_latency(self, config):
        trace = _trace([OP_READ])
        stats = simulate(trace, ScriptedPolicy(read_mode=ReadMode.RM), config)
        assert stats.execution_time_ns == pytest.approx(607.5)

    def test_write_does_not_block_core(self, config):
        trace = _trace([OP_WRITE, OP_READ], lines=[0, 1], gaps=[0, 0])
        stats = simulate(trace, ScriptedPolicy(), config)
        # The write retires into the buffer; the read (different bank)
        # proceeds immediately.
        assert stats.execution_time_ns == pytest.approx(157.5)
        assert stats.writes == 1


class TestBankContention:
    def test_same_bank_reads_serialize(self, config):
        # Two cores read different lines on the same bank at t=0.
        trace = _trace(
            [OP_READ, OP_READ], cores=[0, 1], lines=[0, 2], gaps=[0, 0]
        )
        stats = simulate(trace, ScriptedPolicy(), config)
        assert stats.execution_time_ns == pytest.approx(2 * 150 + 7.5)

    def test_different_banks_parallel(self, config):
        trace = _trace(
            [OP_READ, OP_READ], cores=[0, 1], lines=[0, 1], gaps=[0, 0]
        )
        stats = simulate(trace, ScriptedPolicy(), config)
        # Sensing overlaps; transfers serialize on the channel.
        assert stats.execution_time_ns == pytest.approx(150 + 2 * 7.5)

    def test_read_priority_over_queued_write(self, config):
        # Same core: write enqueues, then a read to the same bank. The
        # read must be serviced before the buffered write drains.
        trace = _trace(
            [OP_WRITE, OP_READ], cores=[0, 0], lines=[0, 2], gaps=[0, 0]
        )
        stats = simulate(trace, ScriptedPolicy(), config)
        assert stats.execution_time_ns == pytest.approx(157.5)


class TestWriteCancellation:
    def test_read_cancels_inflight_write(self, config):
        # Core 0 writes (drains immediately as the bank is idle); core 1's
        # read arrives 100 ns in (progress 10% < 50%) and cancels it.
        trace = _trace(
            [OP_WRITE, OP_READ],
            cores=[0, 1],
            lines=[0, 2],
            gaps=[0, 200],  # 200 cycles @ 0.5 ns = 100 ns
        )
        stats = simulate(trace, ScriptedPolicy(), config)
        assert stats.cancelled_writes == 1
        assert stats.execution_time_ns == pytest.approx(100 + 150 + 7.5)

    def test_late_read_waits_for_write(self, config):
        # Read arrives at 80% write progress: no cancellation.
        trace = _trace(
            [OP_WRITE, OP_READ],
            cores=[0, 1],
            lines=[0, 2],
            gaps=[0, 1600],  # 800 ns in
        )
        stats = simulate(trace, ScriptedPolicy(), config)
        assert stats.cancelled_writes == 0
        assert stats.execution_time_ns == pytest.approx(1000 + 150 + 7.5)

    def test_cancelled_write_still_completes_eventually(self, config):
        trace = _trace(
            [OP_WRITE, OP_READ],
            cores=[0, 1],
            lines=[0, 2],
            gaps=[0, 200],
        )
        stats = simulate(trace, ScriptedPolicy(), config)
        # The flush accounts the restarted write's full energy.
        assert stats.wear.by_cause.get("demand", 0) == 296


class TestWriteQueuePressure:
    def test_full_queue_blocks_core(self):
        config = MemoryConfig(
            total_lines=1 << 14,
            num_banks=1,
            write_queue_depth=2,
            write_drain_watermark=2,
        )
        # Four writes to one bank: queue depth 2 forces blocking.
        trace = _trace(
            [OP_WRITE] * 4, cores=[0] * 4, lines=[0, 1, 2, 3], gaps=[0] * 4
        )
        stats = simulate(trace, ScriptedPolicy(), config)
        assert stats.writes == 4
        # The last write cannot retire until queue slots free up.
        assert stats.execution_time_ns >= 1000.0


class TestConversion:
    def test_conversion_enqueues_write(self, config):
        trace = _trace([OP_READ])
        stats = simulate(trace, ScriptedPolicy(convert=True), config)
        assert stats.conversions == 1
        assert stats.wear.by_cause.get("conversion", 0) == 296


class TestScrubEngine:
    def test_scrub_visits_at_configured_rate(self):
        config = MemoryConfig(total_lines=1 << 14, num_banks=2)
        policy = ScriptedPolicy()
        policy.scrub_interval_s = 1e-2  # sweep in 10 ms (channel duty ~0.74)
        # A long-running core: one read with a huge gap keeps the sim alive.
        trace = _trace([OP_READ, OP_READ], gaps=[0, 2_000_000])
        stats = simulate(trace, policy, config)
        # A 1 ms run covers a tenth of the sweep.
        assert stats.scrub_ops == pytest.approx((1 << 14) / 10, rel=0.1)
        assert stats.scrubs_skipped == 0

    def test_scrub_rewrites_accounted(self):
        config = MemoryConfig(total_lines=1 << 10, num_banks=2)
        policy = ScriptedPolicy(scrub_rewrite=True)
        policy.scrub_interval_s = 1e-3
        trace = _trace([OP_READ, OP_READ], gaps=[0, 400_000])
        stats = simulate(trace, policy, config)
        assert stats.scrub_rewrites == stats.scrub_ops > 0
        assert stats.wear.by_cause.get("scrub", 0) == 296 * stats.scrub_rewrites

    def test_backlog_cap_skips_scrubs(self):
        config = MemoryConfig(
            total_lines=1 << 14, num_banks=2, scrub_backlog_cap=2
        )
        policy = ScriptedPolicy(scrub_rewrite=True)
        policy.scrub_interval_s = 1e-5  # unschedulable sweep
        trace = _trace([OP_READ, OP_READ], gaps=[0, 1_000_000])
        stats = simulate(trace, policy, config)
        assert stats.scrubs_skipped > 0

    def test_scrub_contends_with_demand(self):
        config = MemoryConfig(total_lines=1 << 16, num_banks=2)
        base_trace = _trace([OP_READ] * 20, lines=list(range(20)),
                            gaps=[500] * 20)
        quiet = simulate(base_trace, ScriptedPolicy(), config)
        noisy_policy = ScriptedPolicy(scrub_rewrite=True)
        noisy_policy.scrub_interval_s = 2e-3  # heavy sweep
        noisy = simulate(base_trace, noisy_policy, config)
        assert noisy.execution_time_ns > quiet.execution_time_ns

    def test_no_scrub_when_interval_none(self, config):
        trace = _trace([OP_READ])
        stats = simulate(trace, ScriptedPolicy(), config)
        assert stats.scrub_ops == 0


class TestAccounting:
    def test_instruction_count(self, config):
        trace = _trace([OP_READ, OP_WRITE], gaps=[10, 20])
        stats = simulate(trace, ScriptedPolicy(), config)
        assert stats.instructions == 32

    def test_flush_charges_queued_writes(self, config):
        trace = _trace([OP_WRITE] * 3, lines=[0, 2, 4], gaps=[0, 0, 0])
        stats = simulate(trace, ScriptedPolicy(), config)
        assert stats.wear.by_cause.get("demand", 0) == 3 * 296

    def test_deterministic(self, config, small_profile):
        from repro.core.policies import PolicyContext
        from repro.core.registry import make_policy
        from repro.traces.generator import generate_trace

        trace = generate_trace(small_profile, 50_000, seed=3)
        runs = []
        for _ in range(2):
            policy = make_policy(
                "LWT-4",
                PolicyContext(profile=small_profile, config=config, seed=5),
            )
            runs.append(simulate(trace, policy, config))
        assert runs[0].execution_time_ns == runs[1].execution_time_ns
        assert runs[0].dynamic_energy_pj == runs[1].dynamic_energy_pj
        assert runs[0].reads_by_mode == runs[1].reads_by_mode

    def test_stats_summary_fields(self, config):
        trace = _trace([OP_READ])
        stats = simulate(trace, ScriptedPolicy(), config)
        summary = stats.summary()
        assert summary["scheme"] == "scripted"
        assert summary["exec_ms"] > 0
