"""Write truncation [11] — an optional MLC write-latency optimization.

Iterative program-and-verify budgets worst-case iterations, but most
writes converge early: once every targeted cell verifies, the remaining
budgeted pulses can be *truncated*. The paper cites this (Jiang et al.)
among the orthogonal MLC write-latency techniques; this wrapper layers it
onto any scheme policy so its interaction with ReadDuo can be studied
(see :func:`repro.experiments.ablations.ablation_write_truncation`).
Any registered scheme name takes a ``+trunc`` suffix (``Select-4:2+trunc``)
that wraps it here; the run's ``RunStats.truncated_writes`` counts the
writes it shortened.

Model: a write's latency scale is ``clip(N(mean, std), floor, 1.0)``
multiplied by a weak function of how many cells are written — a
differential write targeting few cells converges sooner because its
slowest-cell maximum is over a smaller set.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..memsim.policy import ReadDecision, ScrubDecision, WriteDecision
from .registry import (
    canonical_scheme_name,
    is_scheme_name,
    make_policy,
    register_scheme,
)

__all__ = ["WriteTruncationWrapper", "truncated_scheme_name"]

_SUFFIX = "+trunc"


def _parse(match) -> Optional[dict]:
    inner = match.group("inner")
    # One wrapper per scheme: rejecting a nested suffix before resolving
    # the inner name keeps resolution from recursing once per level.
    if inner.lower().endswith(_SUFFIX):
        return None
    canonical = canonical_scheme_name(inner)
    return {"inner": canonical} if is_scheme_name(canonical) else None


def truncated_scheme_name(inner: str) -> str:
    """Canonical name of scheme ``inner`` with write truncation layered on."""
    return canonical_scheme_name(inner) + _SUFFIX


@register_scheme(
    pattern=r"(?P<inner>.+)\+trunc",
    parse=_parse,
    canonical=lambda params: params["inner"] + _SUFFIX,
    factory=lambda ctx, inner: WriteTruncationWrapper(make_policy(inner, ctx)),
)
class WriteTruncationWrapper:
    """Wraps a scheme policy, truncating its write latencies.

    Implements the :class:`~repro.memsim.policy.SchemePolicy` protocol by
    delegation; only the two write callbacks are modified.

    Args:
        inner: The wrapped scheme policy.
        rng: Randomness for per-write convergence draws (defaults to the
            inner policy's RNG when it has one).
        mean_scale: Mean latency fraction of a full-line truncated write.
        std_scale: Standard deviation of the convergence draw.
        floor_scale: Minimum latency fraction (verify rounds are never
            free).
        cell_exponent: Exponent of the cells-written dependence; 0
            disables it.
    """

    def __init__(
        self,
        inner,
        rng: Optional[np.random.Generator] = None,
        mean_scale: float = 0.7,
        std_scale: float = 0.1,
        floor_scale: float = 0.4,
        cell_exponent: float = 0.15,
    ) -> None:
        if not 0 < floor_scale <= mean_scale <= 1.0:
            raise ValueError("need 0 < floor <= mean <= 1")
        self.inner = inner
        self.rng = rng if rng is not None else getattr(
            inner, "rng", np.random.default_rng()
        )
        self.mean_scale = mean_scale
        self.std_scale = std_scale
        self.floor_scale = floor_scale
        self.cell_exponent = cell_exponent
        self.name = f"{inner.name}+trunc"
        self._full_cells = getattr(inner, "full_cells", 296)
        self.truncated_writes = 0

    @property
    def scrub_interval_s(self):
        return self.inner.scrub_interval_s

    def _scale_for(self, cells_written: int) -> float:
        draw = float(self.rng.normal(self.mean_scale, self.std_scale))
        scale = float(np.clip(draw, self.floor_scale, 1.0))
        if self.cell_exponent > 0 and self._full_cells > 0:
            fraction = max(cells_written / self._full_cells, 1e-3)
            scale *= fraction**self.cell_exponent
        return float(np.clip(scale, self.floor_scale * 0.5, 1.0))

    def _truncate(self, decision: WriteDecision) -> WriteDecision:
        scale = self._scale_for(decision.cells_written)
        if scale < 1.0:
            self.truncated_writes += 1
        return WriteDecision(
            cells_written=decision.cells_written,
            flag_update=decision.flag_update,
            latency_scale=scale,
        )

    # ------------------------------------------------------------- delegation

    def on_read(self, line: int, now_s: float) -> ReadDecision:
        return self.inner.on_read(line, now_s)

    def on_write(self, line: int, now_s: float) -> WriteDecision:
        return self._truncate(self.inner.on_write(line, now_s))

    def on_conversion_write(self, line: int, now_s: float) -> WriteDecision:
        return self._truncate(self.inner.on_conversion_write(line, now_s))

    def on_scrub(self, line: int, now_s: float) -> ScrubDecision:
        return self.inner.on_scrub(line, now_s)
