"""Shared policy state plus the drift-free Ideal scheme.

:class:`PolicyContext` carries everything a policy needs about the
platform and workload; :class:`BaseDriftPolicy` holds the state common
to every scheme (error sampler, steady-state initial ages, last-write
times, the scrub-sweep clock) and turns a family's ``kernels()`` into
the decision-object hooks of :class:`~repro.memsim.policy.SchemePolicy`;
:class:`IdealPolicy` is the no-drift upper bound every figure normalizes
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Optional

import numpy as np

#: BCH-8 correction/detection split (Section III-B); canonical home is
#: :mod:`repro.ecc.regimes`, re-exported here for the policy layer.
from ...ecc.regimes import CORRECTABLE_ERRORS, DETECTABLE_ERRORS
from ...memsim.config import DEFAULT_EPOCH_S, DEFAULT_MEMORY_CONFIG, MemoryConfig
from ...memsim.policy import (
    MODE_R,
    MODE_RM,
    READ_MODES,
    VERIFY_NONE,
    Kernels,
    ReadDecision,
    ScrubDecision,
    SpeculationPlan,
    WriteDecision,
)
from ...traces.spec import WorkloadProfile
from ..agemodel import InitialAgeModel
from ..registry import register_scheme
from ..sampler import DriftErrorSampler

__all__ = [
    "R_SCRUB_INTERVAL_S",
    "M_SCRUB_INTERVAL_S",
    "CORRECTABLE_ERRORS",
    "DETECTABLE_ERRORS",
    "DATA_CELLS",
    "PolicyContext",
    "BaseDriftPolicy",
    "IdealPolicy",
    "classify_r_read",
    "clean_read",
]

#: Default scrub intervals chosen in the paper's Section III-A analysis.
R_SCRUB_INTERVAL_S = 8.0
M_SCRUB_INTERVAL_S = 640.0

#: Data cells per 64B line.
DATA_CELLS = 256

_CLEAN_READ = (MODE_R, 0, False, False, False, False)
_HOOKS = frozenset({"on_read", "on_write", "on_conversion_write", "on_scrub"})


def clean_read(line: int, now_s: float) -> tuple:
    """Read kernel of a drift-free line: a fast, error-free R-read."""
    return _CLEAN_READ


def classify_r_read(errors: int, flag: bool) -> tuple:
    """Hybrid R-read outcome of an R-sensing error count, as a read tuple.

    0-8 errors are corrected in place, 9-17 are detected and retried with
    M-sensing (R-M-read), more than 17 silently corrupt.
    """
    if errors <= CORRECTABLE_ERRORS:
        return (MODE_R, errors, False, False, False, flag)
    if errors <= DETECTABLE_ERRORS:
        return (MODE_RM, errors, False, False, False, flag)
    return (MODE_R, errors, False, True, False, flag)


@dataclass
class PolicyContext:
    """Everything a policy needs about the platform and workload.

    Attributes:
        profile: Workload statistical profile (initial ages, write change
            fraction).
        config: Memory-system configuration (line count, cell counts).
        epoch_s: Absolute time of simulation start (matches the engine).
        seed: Policy RNG seed (error sampling, conversion coin).
    """

    profile: WorkloadProfile
    config: MemoryConfig = field(default_factory=lambda: DEFAULT_MEMORY_CONFIG)
    epoch_s: float = DEFAULT_EPOCH_S
    seed: int = 12345


class BaseDriftPolicy:
    """Shared state of every scheme, and the hooks built from its kernels.

    A family defines :meth:`kernels` (and, when its decisions reduce to
    constants, :meth:`speculation_plan`); the batch engine runs the
    kernels directly and the event engine calls the ``on_*`` hooks
    below, which wrap the same kernels. Kernels keep all mutable state
    on the policy object, so a policy that ran under either engine is
    indistinguishable afterwards; closure-local state may only be a
    memo of a pure function.
    """

    name = "base"
    scrub_interval_s: Optional[float] = None

    def __init_subclass__(cls, **kwargs) -> None:
        # The batch engine runs kernels(), the event engine the hooks: a
        # family overriding a hook would make the two silently disagree.
        super().__init_subclass__(**kwargs)
        hooks = sorted(_HOOKS & cls.__dict__.keys())
        if hooks:
            raise TypeError(f"{cls.__name__} overrides {hooks}; define kernels() instead")

    def __init__(self, ctx: PolicyContext) -> None:
        self.ctx = ctx
        self.rng = np.random.default_rng(ctx.seed)
        self.sampler = DriftErrorSampler(cells_per_line=DATA_CELLS, rng=self.rng)
        self.ages = InitialAgeModel(ctx.profile, seed=ctx.seed)
        self.last_write_s: Dict[int, float] = {}
        self.full_cells = ctx.config.cells_per_line_write

    # ---------------------------------------------------------- semantics

    def kernels(self) -> Kernels:
        """This policy's decision kernels (layout in :mod:`repro.memsim.policy`)."""
        raise NotImplementedError(f"{type(self).__name__} defines no kernels()")

    def speculation_plan(self) -> Optional[SpeculationPlan]:
        """The fast path's constant-decision plan for these kernels.

        ``None`` (the default) means every run replays the kernels
        exactly. A plan applies only to the kernels of the class that
        states it: a subclass replacing ``kernels()`` must restate it.
        """
        return None

    # ------------------------------------------- decision-object adapters

    @cached_property
    def _hook_kernels(self) -> Kernels:
        return self.kernels()

    def on_read(self, line: int, now_s: float) -> ReadDecision:
        mode, errors, convert, silent, uncorr, flag = self._hook_kernels[0](line, now_s)
        return ReadDecision(READ_MODES[mode], errors, convert, silent, uncorr, flag)

    def on_write(self, line: int, now_s: float) -> WriteDecision:
        return WriteDecision(*self._hook_kernels[1](line, now_s))

    def on_conversion_write(self, line: int, now_s: float) -> WriteDecision:
        return WriteDecision(*self._hook_kernels[2](line, now_s))

    def on_scrub(self, line: int, now_s: float) -> ScrubDecision:
        on_scrub = self._hook_kernels[3]
        if on_scrub is None:
            raise NotImplementedError("scheme without scrubbing was asked to scrub")
        return ScrubDecision(*on_scrub(line, now_s))

    # ----------------------------------------------------- kernel helpers

    def _last_write_fn(self) -> Callable[[int], float]:
        """``line -> absolute time of its last full write``.

        Lines not written during the run were last written at
        ``epoch - initial age``; that is a pure function of the line, so
        it is memoized (removing the splitmix hash + log from repeat
        reads of unwritten lines).
        """
        lw_get = self.last_write_s.get
        ages_age_of = self.ages.age_of
        epoch = self.ctx.epoch_s
        birth: Dict[int, float] = {}
        birth_get = birth.get

        def last_write_of(line: int) -> float:
            cached = lw_get(line)
            if cached is not None:
                return cached
            born = birth_get(line)
            if born is None:
                born = birth[line] = epoch - ages_age_of(line)
            return born

        return last_write_of

    def _scrub_pass_age_fn(self) -> Callable[[int, float], float]:
        """``(line, now_s) -> seconds since the scrub sweep last visited it``.

        Mirrors the engine's pointer: the sweep starts at line
        ``total_lines // 2`` at the epoch and wraps every scrub interval;
        passes before the epoch are assumed (steady state). Infinite for
        schemes without scrubbing.
        """
        interval = self.scrub_interval_s
        if interval is None:
            return lambda line, now_s: math.inf
        total = self.ctx.config.total_lines
        half = total // 2
        epoch = self.ctx.epoch_s
        floor = math.floor

        def scrub_pass_age(line: int, now_s: float) -> float:
            frac = ((line - half) % total) / total
            cycles = floor((now_s - epoch) / interval - frac)
            last_pass = epoch + (cycles + frac) * interval
            if last_pass > now_s:  # numerical guard
                last_pass -= interval
            return now_s - last_pass

        return scrub_pass_age

    def _write_kernel(self, cells: Optional[int] = None) -> Callable[[int, float], tuple]:
        """A write kernel that records the write time and programs
        ``cells`` (default: the full line)."""
        lw = self.last_write_s
        result = (self.full_cells if cells is None else cells, False, 1.0)

        def on_write(line: int, now_s: float) -> tuple:
            lw[line] = now_s
            return result

        return on_write


@register_scheme("Ideal")
class IdealPolicy(BaseDriftPolicy):
    """No resistance drift: every read is a fast, error-free R-read."""

    name = "Ideal"
    scrub_interval_s = None

    def kernels(self) -> Kernels:
        write = self._write_kernel()
        return clean_read, write, write, None

    def speculation_plan(self) -> Optional[SpeculationPlan]:
        return SpeculationPlan("R", False, False, None, VERIFY_NONE, self.full_cells, None)
