"""Unit tests for the run-statistics container."""

import pytest

from repro.memsim.stats import RunStats


@pytest.fixture
def stats():
    s = RunStats(scheme="X", workload="w")
    s.execution_time_ns = 2e6
    s.instructions = 1_000_000
    s.reads = 100
    s.reads_by_mode = {"R": 90, "RM": 10}
    s.total_read_latency_ns = 20_000.0
    s.energy.by_category = {"read": 500.0, "write": 1500.0}
    s.wear.add_cells("demand", 296)
    return s


class TestDerivedMetrics:
    def test_ipc(self, stats):
        assert stats.ipc == pytest.approx(0.5)

    def test_ipc_zero_without_time(self):
        assert RunStats(scheme="X", workload="w").ipc == 0.0

    def test_avg_read_latency(self, stats):
        assert stats.avg_read_latency_ns == pytest.approx(200.0)

    def test_avg_read_latency_no_reads(self):
        assert RunStats(scheme="X", workload="w").avg_read_latency_ns == 0.0

    def test_mode_fraction(self, stats):
        assert stats.mode_fraction("R") == pytest.approx(0.9)
        assert stats.mode_fraction("M") == 0.0

    def test_dynamic_energy(self, stats):
        assert stats.dynamic_energy_pj == pytest.approx(2000.0)

    def test_total_cell_writes(self, stats):
        assert stats.total_cell_writes == 296

    def test_summary_keys(self, stats):
        summary = stats.summary()
        for key in ("scheme", "workload", "exec_ms", "ipc", "read_R",
                    "energy_uj", "cell_writes"):
            assert key in summary
        assert summary["exec_ms"] == pytest.approx(2.0)


class TestTruncatedWrites:
    def test_absent_from_dict_when_zero(self, stats):
        assert stats.truncated_writes == 0
        assert "truncated_writes" not in stats.to_dict()
        assert RunStats.from_dict(stats.to_dict()) == stats

    def test_round_trips_when_nonzero(self, stats):
        stats.truncated_writes = 17
        payload = stats.to_dict()
        assert payload["truncated_writes"] == 17
        again = RunStats.from_dict(payload)
        assert again.truncated_writes == 17
        assert again == stats

    def test_counts_toward_equality(self, stats):
        other = RunStats.from_dict(stats.to_dict())
        other.truncated_writes = 1
        assert other != stats
