"""ReadDuo-LWT (paper Section III-C): last-write tracking + conversion."""

from __future__ import annotations

from ..conversion import AdaptiveConversionController
from ..lwt import QuantizedTracker
from ..registry import register_scheme
from ...memsim.policy import MODE_RM, Kernels
from .base import (
    CORRECTABLE_ERRORS,
    M_SCRUB_INTERVAL_S,
    BaseDriftPolicy,
    PolicyContext,
    classify_r_read,
)

__all__ = ["LwtPolicy", "CONVERSION_INITIAL_T"]

#: Starting conversion ratio ``T`` (percent) of the adaptive throttle.
CONVERSION_INITIAL_T = 30


@register_scheme(
    pattern=r"LWT-(?P<k>\d+)(?P<noconv>-noconv)?",
    parse=lambda match: {
        "k": int(match.group("k")),
        "conversion_enabled": match.group("noconv") is None,
    },
    canonical=lambda params: "LWT-{}{}".format(
        params["k"], "" if params.get("conversion_enabled", True) else "-noconv"
    ),
    listed=("LWT-2", "LWT-4", "LWT-4-noconv"),
    syntax="LWT-<k>[-noconv]",
    axes=("k", "conversion_enabled"),
)
class LwtPolicy(BaseDriftPolicy):
    """ReadDuo-LWT-k (Section III-C): last-write tracking + conversion.

    Per-line SLC flags answer, at sub-interval granularity, whether the
    line was written within the last scrub interval. Tracked reads may
    R-sense (falling back to R-M-read on 9-17 errors); untracked reads go
    straight to R-M-read and may be *converted* into a rewrite under the
    adaptive ``T`` throttle so subsequent reads are fast. Scrubbing is
    (BCH=8, S=640 s, W=1): rewrite only on detected errors.
    """

    def __init__(
        self,
        ctx: PolicyContext,
        k: int = 4,
        interval_s: float = M_SCRUB_INTERVAL_S,
        conversion_enabled: bool = True,
    ) -> None:
        super().__init__(ctx)
        self.k = k
        self.scrub_interval_s = interval_s
        self.tracker = QuantizedTracker(k, interval_s)
        self.conversion = AdaptiveConversionController(
            rng=self.rng,
            initial_t=CONVERSION_INITIAL_T,
            enabled=conversion_enabled,
        )
        suffix = "" if conversion_enabled else "-noconv"
        self.name = f"LWT-{k}{suffix}"

    # The tracked event is the last drift-resetting write of the line: a
    # demand write, a conversion write, or a scrub rewrite.

    def kernels(self) -> Kernels:
        last_write_of = self._last_write_fn()
        sample_r, sample_m = self.sampler.sample_fns()
        lw = self.last_write_s
        full_cells = self.full_cells
        tracked_at = self.tracker._last_event_s
        tracked_get = tracked_at.get
        sub_len = self.tracker.sub_len_s
        k = self.k
        conv = self.conversion
        conv_enabled = conv.enabled
        rng_random = conv.rng.random
        tracked_write = (full_cells, True, 1.0)

        def on_read(line: int, now_s: float) -> tuple:
            last = tracked_get(line)
            if last is None:
                last = last_write_of(line)
            tracked = int(now_s // sub_len) - int(last // sub_len) < k
            # conversion.record_read(untracked=not tracked), inlined.
            conv._window_total += 1
            if not tracked:
                conv._window_untracked += 1
            if conv._window_total >= conv.window_reads:
                conv._end_window()
            age = now_s - last
            if age < 0.0:
                age = 0.0
            if tracked:
                return classify_r_read(sample_r(age), True)
            # Untracked: the flag check terminates R-sensing, M-sensing
            # follows, and the read may be converted into a rewrite.
            errors = sample_m(age)
            # conversion.should_convert(), inlined (the coin follows the
            # error draw).
            t = conv.t
            if not conv_enabled or t <= 0:
                convert = False
            elif t >= 100:
                convert = True
            else:
                convert = rng_random() * 100.0 < t
            return (MODE_RM, errors, convert, False, errors > CORRECTABLE_ERRORS, True)

        def on_tracked_write(line: int, now_s: float) -> tuple:
            lw[line] = now_s
            tracked_at[line] = now_s
            return tracked_write

        def on_scrub(line: int, now_s: float) -> tuple:
            # W=1: rewrite only on detected errors.
            age = now_s - last_write_of(line)
            if age < 0.0:
                age = 0.0
            errors = sample_m(age)
            if errors >= 1:
                lw[line] = now_s
                tracked_at[line] = now_s
                return ("M", True, full_cells, errors)
            return ("M", False, 0, errors)

        return on_read, on_tracked_write, on_tracked_write, on_scrub
