"""Scheme policy implementations, one module per scheme family.

Importing this package registers every built-in scheme with
:mod:`repro.core.registry` — submodules self-register at import time, in
the order below, which fixes the advertised
:func:`~repro.core.registry.scheme_names` ordering. The TLC baseline
lives in :mod:`repro.baselines.tlc` but is imported last here so the
registry is complete after ``import repro.core.policies``.
"""

from .base import (
    CORRECTABLE_ERRORS,
    DATA_CELLS,
    DETECTABLE_ERRORS,
    M_SCRUB_INTERVAL_S,
    R_SCRUB_INTERVAL_S,
    BaseDriftPolicy,
    IdealPolicy,
    PolicyContext,
    classify_r_read,
)
from .scrubbing import ScrubbingPolicy
from .mmetric import MMetricPolicy
from .hybrid import HybridPolicy
from .lwt import LwtPolicy
from .select import SelectPolicy

# Imported last: TLC registers after the paper's schemes so the listing
# order matches the figures' legend order. The precise-write baseline and
# the "+trunc" write-truncation suffix register unlisted families.
from ...baselines.tlc import TlcPolicy
from ...baselines.precise import PreciseWritePolicy  # noqa: F401
from ..truncation import WriteTruncationWrapper  # noqa: F401

__all__ = [
    "R_SCRUB_INTERVAL_S",
    "M_SCRUB_INTERVAL_S",
    "CORRECTABLE_ERRORS",
    "DETECTABLE_ERRORS",
    "DATA_CELLS",
    "PolicyContext",
    "BaseDriftPolicy",
    "IdealPolicy",
    "ScrubbingPolicy",
    "MMetricPolicy",
    "HybridPolicy",
    "LwtPolicy",
    "SelectPolicy",
    "TlcPolicy",
    "classify_r_read",
]
