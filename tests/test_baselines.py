"""Unit tests for the TLC baseline policy."""

import pytest

from repro.baselines.tlc import TlcPolicy
from repro.core.policies import PolicyContext
from repro.memsim.config import DEFAULT_EPOCH_S
from repro.memsim.policy import ReadMode
from repro.pcm.area import tlc_line_budget


@pytest.fixture
def tlc(small_profile, small_config):
    return TlcPolicy(PolicyContext(profile=small_profile, config=small_config))


class TestTlcPolicy:
    def test_no_scrubbing(self, tlc):
        assert tlc.scrub_interval_s is None

    def test_reads_fast_and_clean(self, tlc):
        decision = tlc.on_read(1, DEFAULT_EPOCH_S + 1.0)
        assert decision.mode is ReadMode.R
        assert decision.errors_seen == 0
        assert not decision.silent_corruption

    def test_write_charges_tri_level_cells(self, tlc):
        decision = tlc.on_write(1, DEFAULT_EPOCH_S + 1.0)
        assert not decision.flag_update
        # 384 tri-level cells at the configured write efficiency.
        assert decision.cells_written == round(
            tlc_line_budget().total_cells * 0.75
        )
