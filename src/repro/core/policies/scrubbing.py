"""Efficient scrubbing baseline [2]: R-sensing with (BCH=8, S=8 s, W)."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..agemodel import _splitmix64
from ..registry import register_scheme
from ..sampler import DriftErrorSampler
from ...memsim.policy import (
    MODE_R,
    VERIFY_UNCORR_DET,
    Kernels,
    SpeculationPlan,
)
from .base import (
    CORRECTABLE_ERRORS,
    DATA_CELLS,
    DETECTABLE_ERRORS,
    R_SCRUB_INTERVAL_S,
    BaseDriftPolicy,
    PolicyContext,
)

__all__ = ["ScrubbingPolicy"]


class ScrubbingPolicy(BaseDriftPolicy):
    """Efficient scrubbing [2]: R-sensing with (BCH=8, S=8 s, W).

    With W=1 (default, the paper's comparison setting) a scrubbed line is
    rewritten only when the scrub read finds one or more errors; W=0
    rewrites every line every interval and costs 2-3x execution time.

    The per-line rewrite process is a renewal process: a fresh line
    survives scrub ``m`` with probability ``(1 - p(m*S))**cells`` (drift
    errors are monotone, so "no error yet at age t" fully describes the
    state). Because the short trace run sits inside this steady state,
    each line carries a deterministic initial *survived-interval count*
    drawn from the stationary age distribution of the renewal process,
    and a scrub visit rewrites with the conditional first-error hazard
    ``q(m)``. This keeps scrub-rewrite bandwidth, energy, and wear
    consistent with the analytic model rather than with an arbitrary age
    cap.
    """

    #: Renewal-model horizon (intervals); survival beyond it is lumped.
    _MAX_INTERVALS = 96

    def __init__(
        self,
        ctx: PolicyContext,
        interval_s: float = R_SCRUB_INTERVAL_S,
        w: int = 1,
        r_params=None,
    ) -> None:
        super().__init__(ctx)
        if w not in (0, 1):
            raise ValueError("W must be 0 or 1")
        if r_params is not None:
            # Alternative device programming (e.g. precise writes) changes
            # the drift statistics everything below is built from.
            self.sampler = DriftErrorSampler(
                cells_per_line=DATA_CELLS, rng=self.rng, r_params=r_params
            )
        self.scrub_interval_s = interval_s
        self.w = w
        self.name = "Scrubbing-W0" if w == 0 else "Scrubbing"
        self._survived: Dict[int, int] = {}
        # Survival curve: P(zero errors at age m*S) for a 256-cell line.
        ages = interval_s * np.arange(1, self._MAX_INTERVALS + 1)
        p_cell = np.asarray(
            [self.sampler.cell_error_probability(a, "R") for a in ages]
        )
        survival = np.concatenate([[1.0], (1.0 - p_cell) ** DATA_CELLS])
        # Hazard q(m): P(first error during interval m | survived so far).
        self._hazard = 1.0 - survival[1:] / np.maximum(survival[:-1], 1e-300)
        # Stationary distribution of survived intervals: pi(m) ~ survival(m).
        weights = survival / survival.sum()
        self._stationary_cdf = np.cumsum(weights)

    def kernels(self) -> Kernels:
        last_write_of = self._last_write_fn()
        sample_r, _ = self.sampler.sample_fns()
        lw = self.last_write_s
        full_cells = self.full_cells
        surv = self._survived

        def classify(errors: int) -> tuple:
            # R-only sensing has no fallback: 9-17 errors are bad but flagged.
            if errors <= CORRECTABLE_ERRORS:
                return (MODE_R, errors, False, False, False, False)
            if errors <= DETECTABLE_ERRORS:
                return (MODE_R, errors, False, False, True, False)
            return (MODE_R, errors, False, True, False, False)

        def on_write(line: int, now_s: float) -> tuple:
            surv[line] = 0
            lw[line] = now_s
            return (full_cells, False, 1.0)

        # Scrubbing never converts reads; a conversion write would be a
        # plain full-line write.
        conversion_write = self._write_kernel()

        if self.w == 0:
            scrub_pass_age = self._scrub_pass_age_fn()
            scrub_result = ("R", True, full_cells, 0)

            def on_read_w0(line: int, now_s: float) -> tuple:
                age = now_s - last_write_of(line)
                if age < 0.0:
                    age = 0.0
                spa = scrub_pass_age(line, now_s)
                if spa < age:
                    age = spa
                return classify(sample_r(age))

            def on_scrub_w0(line: int, now_s: float) -> tuple:
                lw[line] = now_s
                return scrub_result

            return on_read_w0, on_write, conversion_write, on_scrub_w0

        surv_get = surv.get
        cdf = self._stationary_cdf
        seed = self.ctx.seed
        searchsorted = np.searchsorted
        interval = self.scrub_interval_s
        hazards = self._hazard.tolist()
        max_m = self._MAX_INTERVALS - 1
        rng_random = self.rng.random

        def survived_of(line: int) -> int:
            cached = surv_get(line)
            if cached is None:
                # Deterministic stationary survived-interval count.
                u = (_splitmix64((line << 2) ^ seed ^ 0xA5A5) >> 11) / float(1 << 53)
                cached = surv[line] = int(searchsorted(cdf, u))
            return cached

        def on_read_w1(line: int, now_s: float) -> tuple:
            age = now_s - last_write_of(line)
            if age < 0.0:
                age = 0.0
            renewal_age = (survived_of(line) + 0.5) * interval
            if renewal_age < age:
                age = renewal_age
            return classify(sample_r(age))

        def on_scrub_w1(line: int, now_s: float) -> tuple:
            # Rewrite with the conditional first-error hazard q(m).
            m = survived_of(line)
            if rng_random() < hazards[m if m < max_m else max_m]:
                surv[line] = 0
                lw[line] = now_s
                return ("R", True, full_cells, 1)
            surv[line] = m + 1
            return ("R", False, 0, 0)

        return on_read_w1, on_write, conversion_write, on_scrub_w1

    def speculation_plan(self) -> Optional[SpeculationPlan]:
        if self.w != 0:
            return None
        # W=0: reads sample at the sweep-capped age and their outcome only
        # flips counters, never the mode — speculation cannot abort.
        return SpeculationPlan(
            "R", True, True, "R", VERIFY_UNCORR_DET, self.full_cells, "R",
            survived=self._survived,
        )


register_scheme("Scrubbing", params={"w": 1})(ScrubbingPolicy)
register_scheme("Scrubbing-W0", params={"w": 0})(ScrubbingPolicy)
