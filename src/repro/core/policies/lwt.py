"""ReadDuo-LWT (paper Section III-C): last-write tracking + conversion."""

from __future__ import annotations

import math
from typing import Optional

from ..conversion import AdaptiveConversionController
from ..lwt import QuantizedTracker
from ..registry import NUMBER_PATTERN, register_scheme, render_number
from ...memsim.policy import MODE_RM, Kernels
from .base import (
    CORRECTABLE_ERRORS,
    M_SCRUB_INTERVAL_S,
    BaseDriftPolicy,
    PolicyContext,
    classify_r_read,
)

__all__ = ["LwtPolicy", "CONVERSION_INITIAL_T", "lwt_scheme_name"]

#: Starting conversion ratio ``T`` (percent) of the adaptive throttle.
CONVERSION_INITIAL_T = 30

#: Shortest scrub interval an ``@S=`` name accepts, in seconds. Every
#: engine schedules one scrub tick per ``S / lines`` of simulated time, so
#: a tiny S would mean billions of ticks (or none that advance the clock).
MIN_NAMED_INTERVAL_S = 1.0


def _parse(match) -> Optional[dict]:
    params = {
        "k": int(match.group("k")),
        "conversion_enabled": match.group("noconv") is None,
    }
    t = match.group("t")
    if t is not None:
        if int(t) > 100:
            return None
        if int(t) == 0:
            # A ratio frozen at 0 never converts: that is -noconv.
            params["conversion_enabled"] = False
        else:
            params["conversion_t"] = int(t)
    interval = match.group("s")
    if interval is not None:
        interval_s = float(interval)
        if not MIN_NAMED_INTERVAL_S <= interval_s < math.inf:
            return None
        params["interval_s"] = interval_s
    return params


def lwt_scheme_name(
    k: int,
    conversion_enabled: bool = True,
    conversion_t: Optional[int] = None,
    interval_s: float = M_SCRUB_INTERVAL_S,
) -> str:
    """Canonical name of an LWT configuration (the family's renderer).

    A ratio frozen at 0 never converts, so ``conversion_t=0`` renders
    as ``-noconv``; the paper's S=640 s renders as no ``@S=`` suffix.
    """
    name = f"LWT-{k}"
    if not conversion_enabled or conversion_t == 0:
        name += "-noconv"
    elif conversion_t is not None:
        name += f"-T{conversion_t}"
    if interval_s != M_SCRUB_INTERVAL_S:
        name += f"@S={render_number(interval_s)}"
    return name


# The listed syntax stays "LWT-<k>[-noconv]" (it is the family's key for
# enumerate_family and explore space files); the pattern also accepts a
# frozen conversion ratio "-T<pct>" and a scrub interval "@S=<seconds>".
@register_scheme(
    pattern=(
        r"LWT-(?P<k>\d+)(?:(?P<noconv>-noconv)|-T(?P<t>\d{1,3}))?"
        rf"(?:@S=(?P<s>{NUMBER_PATTERN}))?"
    ),
    parse=_parse,
    canonical=lambda params: lwt_scheme_name(**params),
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

    ``conversion_t`` freezes the throttle at a fixed ratio (``LWT-4-T100``
    always converts) and ``interval_s`` moves the scrub interval
    (``LWT-4@S=2560``); both exist for the conversion-throttle ablation
    and the scrub-interval study.
    """

    def __init__(
        self,
        ctx: PolicyContext,
        k: int = 4,
        interval_s: float = M_SCRUB_INTERVAL_S,
        conversion_enabled: bool = True,
        conversion_t: Optional[int] = None,
    ) -> None:
        super().__init__(ctx)
        self.k = k
        self.scrub_interval_s = interval_s
        self.tracker = QuantizedTracker(k, interval_s)
        self.conversion = AdaptiveConversionController(
            rng=self.rng,
            initial_t=CONVERSION_INITIAL_T if conversion_t is None else conversion_t,
            enabled=conversion_enabled,
            frozen=conversion_t is not None,
        )
        self.name = lwt_scheme_name(k, conversion_enabled, conversion_t, interval_s)

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
