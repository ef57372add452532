"""Tests for the extension experiments (BCH study, S sweep, precise writes)."""

import pytest

from repro.baselines.precise import PreciseWritePolicy
from repro.core.policies import PolicyContext
from repro.experiments.extras import (
    bch_detection_study,
    precise_write_comparison,
    scrub_interval_sensitivity,
)


class TestBchDetectionStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return bch_detection_study(max_errors=19, trials=6)

    def test_corrects_through_eight(self, result):
        for row in result.rows[:8]:
            assert row[1] == 1.0, row

    def test_detects_nine_through_seventeen(self, result):
        for row in result.rows[8:17]:
            assert row[2] == 1.0, row

    def test_no_miscorrection_within_detection_range(self, result):
        for row in result.rows[:17]:
            assert row[3] == 0.0, row

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            bch_detection_study(max_errors=0)


class TestScrubIntervalSensitivity:
    def test_longer_intervals_scrub_less(self):
        result = scrub_interval_sensitivity(
            intervals_s=(160.0, 640.0, 2560.0), target_requests=2_500
        )
        ops = result.column("scrub ops")
        assert ops == sorted(ops, reverse=True)

    def test_very_short_interval_hurts(self):
        result = scrub_interval_sensitivity(
            intervals_s=(160.0, 640.0), target_requests=2_500
        )
        exec_col = result.column("exec")
        assert exec_col[0] > exec_col[1]


class TestPreciseWrite:
    def test_policy_earns_longer_interval(self, small_profile, small_config):
        ctx = PolicyContext(profile=small_profile, config=small_config)
        policy = PreciseWritePolicy(ctx, program_width_sigma=2.0)
        assert policy.scrub_interval_s > 8.0

    def test_narrower_programming_longer_interval(
        self, small_profile, small_config
    ):
        ctx = PolicyContext(profile=small_profile, config=small_config)
        wide = PreciseWritePolicy(ctx, program_width_sigma=2.5)
        narrow = PreciseWritePolicy(ctx, program_width_sigma=1.8)
        assert narrow.scrub_interval_s >= wide.scrub_interval_s

    def test_rejects_width_at_boundary(self, small_profile, small_config):
        ctx = PolicyContext(profile=small_profile, config=small_config)
        with pytest.raises(ValueError):
            PreciseWritePolicy(ctx, program_width_sigma=3.0)

    def test_comparison_shape(self):
        result = precise_write_comparison(target_requests=2_500)
        rows = {row[0]: row for row in result.rows}
        # Precise-write beats Scrubbing (its reason to exist) but ReadDuo
        # still wins without touching the write path.
        assert rows["Precise-write"][1] < rows["Scrubbing"][1]
        assert rows["LWT-4"][1] < rows["Precise-write"][1]
        assert rows["Precise-write"][4] < rows["Scrubbing"][4]  # fewer scrubs


class TestMonteCarloValidation:
    def test_model_agreement(self):
        from repro.experiments.extras import montecarlo_validation

        result = montecarlo_validation(
            ages_s=(64.0, 640.0), num_lines=600, seed=3
        )
        r_rows = [row for row in result.rows if row[0] == "R"]
        for row in r_rows:
            assert row[4] < 0.3, row  # relative error

    def test_both_metrics_reported(self):
        from repro.experiments.extras import montecarlo_validation

        result = montecarlo_validation(ages_s=(64.0,), num_lines=100)
        assert {row[0] for row in result.rows} == {"R", "M"}
