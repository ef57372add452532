"""M-sensing-only baseline [23]: every read pays 450 ns, scrubbing rare."""

from __future__ import annotations

from ..registry import register_scheme
from ...memsim.policy import MODE_M, Kernels
from .base import CORRECTABLE_ERRORS, M_SCRUB_INTERVAL_S, BaseDriftPolicy

__all__ = ["MMetricPolicy"]


@register_scheme("M-metric")
class MMetricPolicy(BaseDriftPolicy):
    """M-sensing only [23]: every read pays 450 ns, scrubbing is rare.

    Scrubbing is (BCH=8, S=640 s, W=1): a line is rewritten only when
    the scrub read finds an error.
    """

    name = "M-metric"
    scrub_interval_s = M_SCRUB_INTERVAL_S

    def kernels(self) -> Kernels:
        last_write_of = self._last_write_fn()
        _, sample_m = self.sampler.sample_fns()
        lw = self.last_write_s
        full_cells = self.full_cells

        def on_read(line: int, now_s: float) -> tuple:
            age = now_s - last_write_of(line)
            if age < 0.0:
                age = 0.0
            errors = sample_m(age)
            return (MODE_M, errors, False, False, errors > CORRECTABLE_ERRORS, False)

        def on_scrub(line: int, now_s: float) -> tuple:
            age = now_s - last_write_of(line)
            if age < 0.0:
                age = 0.0
            errors = sample_m(age)
            if errors >= 1:
                lw[line] = now_s
                return ("M", True, full_cells, errors)
            return ("M", False, 0, errors)

        write = self._write_kernel()
        return on_read, write, write, on_scrub
