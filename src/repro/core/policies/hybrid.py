"""ReadDuo-Hybrid (paper Section III-B): decoupled detect/correct R-reads."""

from __future__ import annotations

from typing import Optional

from ..registry import register_scheme
from ...memsim.policy import VERIFY_HYBRID, Kernels, SpeculationPlan
from .base import M_SCRUB_INTERVAL_S, BaseDriftPolicy, classify_r_read

__all__ = ["HybridPolicy"]


@register_scheme("Hybrid")
class HybridPolicy(BaseDriftPolicy):
    """ReadDuo-Hybrid (Section III-B): decoupled detect/correct R-reads.

    Reads R-sense first; 0-8 errors are corrected in place, 9-17 trigger
    an M-sensing retry (R-M-read), >17 silently corrupt (kept below the
    DRAM budget by the W=0 scrub bound on line age). Scrubbing is
    M-metric, (BCH=8, S=640 s, W=0): every line is rewritten at scrub
    time, so R-sensing always sees a line younger than one interval.
    """

    name = "Hybrid"
    scrub_interval_s = M_SCRUB_INTERVAL_S

    def kernels(self) -> Kernels:
        last_write_of = self._last_write_fn()
        scrub_pass_age = self._scrub_pass_age_fn()
        sample_r, _ = self.sampler.sample_fns()
        lw = self.last_write_s
        scrub_result = ("M", True, self.full_cells, 0)

        def on_read(line: int, now_s: float) -> tuple:
            # Effective age: since the last write, capped by the W=0 sweep.
            age = now_s - last_write_of(line)
            if age < 0.0:
                age = 0.0
            spa = scrub_pass_age(line, now_s)
            if spa < age:
                age = spa
            return classify_r_read(sample_r(age), False)

        def on_scrub(line: int, now_s: float) -> tuple:
            lw[line] = now_s
            return scrub_result

        write = self._write_kernel()
        return on_read, write, write, on_scrub

    def speculation_plan(self) -> Optional[SpeculationPlan]:
        # Reads sample at the sweep-capped age; a draw in the detectable
        # band would turn the read into an R-M-read, so it aborts.
        return SpeculationPlan("R", True, True, "R", VERIFY_HYBRID, self.full_cells, "M")
