"""The scheme-policy interface between the simulators and ReadDuo schemes.

Both engines are scheme-agnostic: whenever a demand read, demand write,
or scrub operation reaches a bank they ask the installed policy what
physically happens — which sensing mode services the read, how many
cells a write programs, whether a scrub rewrites the line. Policies own
all drift-related state (last-write times, LWT flags, adaptive
conversion throttle) and perform the probabilistic error sampling; the
engines only turn decisions into latencies, energy, and wear.

A decision has two spellings over one implementation. The batch engine
(:mod:`repro.memsim.batch`) consumes *kernels*, a bundle of four
closures returning plain tuples::

    (on_read, on_write, on_conversion_write, on_scrub)
    on_read(line, now_s)  -> (mode, errors, convert, silent, uncorrectable, flag)
    on_write(line, now_s) -> (cells_written, flag_update, latency_scale)
    on_scrub(line, now_s) -> (metric, rewrite, cells_written, errors_seen)

``mode`` is one of :data:`MODE_R`/:data:`MODE_M`/:data:`MODE_RM` and
``on_scrub`` is ``None`` for schemes without scrubbing. The event engine
(:mod:`repro.memsim.engine`) calls the :class:`SchemePolicy` hooks, which
return the frozen decision objects below. Scheme families derive from
:class:`repro.core.policies.base.BaseDriftPolicy`, write only
``kernels()``, and inherit the hooks as adapters over those tuples; an
object that implements only the hooks (a wrapper, a scripted test
policy) still runs on both engines.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Protocol, Tuple, runtime_checkable

__all__ = [
    "ReadMode",
    "ReadDecision",
    "WriteDecision",
    "ScrubDecision",
    "SchemePolicy",
    "Kernels",
    "MODE_R",
    "MODE_M",
    "MODE_RM",
    "MODE_STR",
    "READ_MODES",
    "VERIFY_NONE",
    "VERIFY_HYBRID",
    "VERIFY_UNCORR_DET",
    "SpeculationPlan",
]


class ReadMode(enum.Enum):
    """Sensing mode that services a read (paper Fig. 4)."""

    #: Fast current sensing only (150 ns).
    R = "R"
    #: Voltage sensing only (450 ns).
    M = "M"
    #: Failed R-sensing followed by M-sensing (600 ns).
    RM = "RM"


#: Read modes as small ints inside kernel tuples.
MODE_R = 0
MODE_M = 1
MODE_RM = 2
MODE_STR = ("R", "M", "RM")
READ_MODES = (ReadMode.R, ReadMode.M, ReadMode.RM)

#: The four kernel closures of one policy instance (see module docstring).
Kernels = Tuple[
    Callable[[int, float], tuple],
    Callable[[int, float], tuple],
    Callable[[int, float], tuple],
    Optional[Callable[[int, float], tuple]],
]


@dataclass(frozen=True)
class ReadDecision:
    """What happens when a line is read.

    Attributes:
        mode: Sensing mode on the critical path.
        errors_seen: Drift errors present at R-sensing time (statistics).
        convert_to_write: Re-write the line after the read (LWT's R-M-read
            conversion); the write is issued off the critical path.
        silent_corruption: Errors exceeded the ECC detection range and
            wrong data was returned without warning.
        uncorrectable: Errors exceeded correction (but were detected).
        flag_access: An SLC tracking-flag read accompanied this access.
    """

    mode: ReadMode
    errors_seen: int = 0
    convert_to_write: bool = False
    silent_corruption: bool = False
    uncorrectable: bool = False
    flag_access: bool = False


@dataclass(frozen=True)
class WriteDecision:
    """What happens when a line is written by the processor.

    Attributes:
        cells_written: MLC cells actually programmed (fewer than a full
            line for a selective/differential write).
        flag_update: An SLC tracking-flag update accompanied the write.
        latency_scale: Multiplier on the platform write latency — how
            write truncation [11] (stopping P&V once the slowest cells
            converge) expresses a shorter write; 1.0 = the full
            iterative write.
    """

    cells_written: int
    flag_update: bool = False
    latency_scale: float = 1.0


@dataclass(frozen=True)
class ScrubDecision:
    """What happens when the scrub engine visits a line.

    Attributes:
        metric: Sensing metric of the scrub read (``"R"`` or ``"M"``).
        rewrite: Whether the line is rewritten (W policy outcome).
        cells_written: Cells programmed when rewriting.
        errors_seen: Drift errors found by the scrub read.
    """

    metric: str
    rewrite: bool
    cells_written: int = 0
    errors_seen: int = 0


@runtime_checkable
class SchemePolicy(Protocol):
    """Behaviour contract a drift-mitigation scheme exposes to the engines.

    Scheme families live in :mod:`repro.core.policies` (ReadDuo variants
    and baselines) and :mod:`repro.baselines`. All times are absolute
    simulation seconds; the engine's epoch is far from zero so
    steady-state ages can predate the run.
    """

    #: Scheme label used in reports.
    name: str
    #: Seconds between successive scrubs of the same line; None disables
    #: background scrubbing entirely (the Ideal and TLC baselines).
    scrub_interval_s: Optional[float]

    def on_read(self, line: int, now_s: float) -> ReadDecision:
        """Decide how a demand read to ``line`` at ``now_s`` is serviced."""
        ...

    def on_write(self, line: int, now_s: float) -> WriteDecision:
        """Record a demand write and decide its cell footprint."""
        ...

    def on_conversion_write(self, line: int, now_s: float) -> WriteDecision:
        """Record the full-line write triggered by R-M-read conversion."""
        ...

    def on_scrub(self, line: int, now_s: float) -> ScrubDecision:
        """Decide the outcome of a scrub visit to ``line``."""
        ...


# Speculation verification rules: how the fast path's vectorized error
# draws map onto counters, and which draws falsify the speculated timeline.
#: No sampling at all (reads are constant).
VERIFY_NONE = 0
#: CORR < errors <= DET would turn the read into an R-M-read: abort.
VERIFY_HYBRID = 1
#: Counters only: uncorrectable in (CORR, DET], silent beyond DET.
VERIFY_UNCORR_DET = 2


@dataclass(frozen=True, eq=False)
class SpeculationPlan:
    """When a policy's kernels reduce to constants the fast path can replay.

    :mod:`repro.memsim.fastpath` runs the queueing timeline in C assuming
    every read takes ``mode_str`` and every write and scrub returns a
    constant decision, then samples the read errors as vectors and checks
    them against ``verify``. A policy offers a plan only when that
    describes its kernels exactly.

    Attributes:
        mode_str: Sensing mode every demand read is predicted to take.
        use_age: Reads sample errors at the line's age (since last write).
        use_spa: That age is capped by the time since the scrub sweep's
            last pass over the line (W=0 scrubbing rewrites every line).
        sample_metric: Sampler metric of read errors; None = no sampling.
        verify: One of the ``VERIFY_*`` rules.
        write_cells: Cells programmed by every demand write.
        scrub_metric: Scrub sensing metric; None iff the scheme never
            scrubs.
        survived: Per-line renewal counts that a demand write resets to
            zero when the speculated run is committed, or None.
    """

    mode_str: str
    use_age: bool
    use_spa: bool
    sample_metric: Optional[str]
    verify: int
    write_cells: int
    scrub_metric: Optional[str]
    survived: Optional[Dict[int, int]] = None
