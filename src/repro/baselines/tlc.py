"""Tri-Level-Cell baseline [26] (paper's TLC comparison point).

TLC removes the most drift-prone middle state of a 4-level MLC, leaving
three well-separated levels. The drift-error rate then falls far enough
that per-word (72, 64) SECDED suffices and no background scrubbing is
needed — TLC matches Ideal performance and energy behaviour but pays in
density: two tri-level cells store 3 bits, so a 64B line with SECDED
occupies 384 cells versus the MLC schemes' 296 (see
:mod:`repro.pcm.area`). That density penalty is what the EDAP comparison
(Figure 11) charges against it.
"""

from __future__ import annotations

from typing import Optional

from ..core.policies.base import BaseDriftPolicy, PolicyContext, clean_read
from ..core.registry import register_scheme
from ..memsim.policy import VERIFY_NONE, Kernels, SpeculationPlan
from ..pcm.area import tlc_line_budget

__all__ = ["TlcPolicy"]

#: Relative per-cell program effort of tri-level versus 4-level P&V
#: writes (tri-level targets are wider, so fewer verify iterations are
#: needed). Scales the effective cell count charged per write.
WRITE_EFFICIENCY = 0.75


@register_scheme("TLC")
class TlcPolicy(BaseDriftPolicy):
    """TLC scheme: drift-resilient tri-level cells, no scrubbing.

    Three wide levels sense fast and do not accumulate drift errors at
    the timescales under study, so every read is a clean R-read.
    """

    name = "TLC"
    scrub_interval_s = None

    def __init__(self, ctx: PolicyContext) -> None:
        super().__init__(ctx)
        self.cells_per_line = tlc_line_budget().total_cells
        self._write_cells = int(round(self.cells_per_line * WRITE_EFFICIENCY))

    def kernels(self) -> Kernels:
        return clean_read, self._write_kernel(self._write_cells), self._write_kernel(), None

    def speculation_plan(self) -> Optional[SpeculationPlan]:
        return SpeculationPlan("R", False, False, None, VERIFY_NONE, self._write_cells, None)
