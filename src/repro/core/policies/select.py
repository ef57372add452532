"""ReadDuo-Select (paper Section III-D): selective differential write."""

from __future__ import annotations

from typing import Optional

from ..lwt import valid_k
from ..registry import register_scheme
from ...memsim.policy import Kernels
from .base import DATA_CELLS, M_SCRUB_INTERVAL_S, PolicyContext
from .lwt import LwtPolicy

__all__ = ["SelectPolicy"]


def _parse(match) -> Optional[dict]:
    k, s = int(match.group("k")), int(match.group("s"))
    if not valid_k(k) or s < 1:
        return None
    return {"k": k, "s": s}


@register_scheme(
    pattern=r"Select-(?P<k>\d+):(?P<s>\d+)",
    parse=_parse,
    canonical=lambda params: "Select-{}:{}".format(params["k"], params["s"]),
    listed=("Select-4:1", "Select-4:2"),
    syntax="Select-<k>:<s>",
    axes=("k", "s"),
)
class SelectPolicy(LwtPolicy):
    """ReadDuo-Select-(k:s) (Section III-D): selective differential write.

    At most one *full-line* write lands in any ``s`` consecutive
    sub-intervals; other demand writes reprogram only the modified cells
    (plus the BCH check cells). Differential writes do not update the
    tracking flags, so read-side R-sensing decisions conservatively
    measure the distance to the last full-line write.
    """

    def __init__(
        self,
        ctx: PolicyContext,
        k: int = 4,
        s: int = 2,
        interval_s: float = M_SCRUB_INTERVAL_S,
        conversion_enabled: bool = True,
    ) -> None:
        super().__init__(
            ctx, k=k, interval_s=interval_s, conversion_enabled=conversion_enabled
        )
        if s < 1:
            raise ValueError("s must be >= 1")
        self.s = s
        self.name = f"Select-{k}:{s}"
        self._check_cells = max(self.full_cells - DATA_CELLS, 0)

    def kernels(self) -> Kernels:
        on_read, tracked_write, conversion_write, on_scrub = super().kernels()
        last_write_of = self._last_write_fn()
        tracked_get = self.tracker._last_event_s.get
        sub_len = self.tracker.sub_len_s
        s = self.s
        check_cells = self._check_cells
        change_fraction = self.ctx.profile.write_change_fraction
        binomial = self.rng.binomial

        def on_write(line: int, now_s: float) -> tuple:
            last_full = tracked_get(line)
            if last_full is None:
                last_full = last_write_of(line)
            if int(now_s // sub_len) - int(last_full // sub_len) < s:
                # Differential write: modified data cells + check cells; the
                # tracking flags (last full write) are left untouched.
                changed = int(binomial(DATA_CELLS, change_fraction))
                return (changed + check_cells, False, 1.0)
            return tracked_write(line, now_s)

        return on_read, on_write, conversion_write, on_scrub
