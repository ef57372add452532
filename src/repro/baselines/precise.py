"""Precise-write drift mitigation (the Helmet-style orthogonal approach).

The paper's Section II notes that writing cells into *narrower*
resistance sub-ranges enlarges inter-state guard bands, so it takes
longer for drift to produce errors — at the price of more iterative
program-and-verify rounds per write. The paper declares this orthogonal
and does not evaluate it; this baseline makes the trade concrete:

* cells are programmed within ``mu +/- program_width_sigma * sigma``
  with ``program_width_sigma < 2.746`` (the ReadDuo default), and
* the safe R-sensing scrub interval is *re-derived* from the resulting
  drift statistics — precise writes legitimately earn a much longer
  interval than 8 s.

The scheme is registered as ``Precise-<w>sigma`` (``Precise-2sigma``).
The write-latency cost of the extra P&V iterations is a platform knob
(``TimingParams.write_ns`` in the spec's ``MemoryConfig``); see
:func:`repro.experiments.extras.precise_write_comparison`.
"""

from __future__ import annotations

from typing import Optional

from ..core.policies.base import PolicyContext
from ..core.policies.scrubbing import ScrubbingPolicy
from ..core.registry import NUMBER_PATTERN, register_scheme, render_number
from ..pcm.params import R_METRIC
from ..reliability.ler import max_safe_interval

__all__ = ["PreciseWritePolicy", "precise_scheme_name"]

#: Candidate scrub intervals for the re-derived design point.
_CANDIDATE_INTERVALS = [2.0**i for i in range(2, 22)]


def _parse(match) -> Optional[dict]:
    width = float(match.group("w"))
    if not 0 < width < R_METRIC.boundary_sigma:
        return None
    return {"program_width_sigma": width}


def precise_scheme_name(program_width_sigma: float) -> str:
    """Canonical name of the precise-write scheme (the family's renderer)."""
    return f"Precise-{render_number(program_width_sigma)}sigma"


@register_scheme(
    pattern=rf"Precise-(?P<w>{NUMBER_PATTERN})sigma",
    parse=_parse,
    canonical=lambda params: precise_scheme_name(params["program_width_sigma"]),
)
class PreciseWritePolicy(ScrubbingPolicy):
    """R-sensing with narrowed programming and a re-derived scrub interval.

    Args:
        ctx: Platform/workload context.
        program_width_sigma: Half-width of the programmed range in
            sigmas; must be below the state-boundary sigma (3.0). The
            ReadDuo schemes use 2.746.
        ecc_strength: BCH strength the interval is derived for.
        w: Rewrite policy at scrub time (W).
    """

    def __init__(
        self,
        ctx: PolicyContext,
        program_width_sigma: float = 2.0,
        ecc_strength: int = 8,
        w: int = 1,
    ) -> None:
        if not 0 < program_width_sigma < R_METRIC.boundary_sigma:
            raise ValueError(
                "program width must be positive and inside the state boundary"
            )
        narrow = R_METRIC.replace(program_width_sigma=program_width_sigma)
        interval = max_safe_interval(narrow, ecc_strength, _CANDIDATE_INTERVALS)
        if interval is None:
            raise ValueError(
                "no safe scrub interval exists for this programming width"
            )
        super().__init__(ctx, interval_s=interval, w=w, r_params=narrow)
        self.program_width_sigma = program_width_sigma
        self.r_params = narrow
        self.name = precise_scheme_name(program_width_sigma)
