"""ReadDuo core: hybrid readout, last-write tracking, selective rewrite.

* :mod:`repro.core.registry` — the scheme registry (names, aliases,
  parameterized families, factories); schemes self-register here.
* :mod:`repro.core.policies` — the scheme policy implementations, one
  module per family.
* :mod:`repro.core.lwt` — the Figure 5 flag automaton and the quantized
  tracker.
* :mod:`repro.core.conversion` — the adaptive R-M-read conversion
  throttle.
* :mod:`repro.core.readout` — a functional ReadDuo controller on real
  cells (write/read/scrub actual BCH-coded bits).
* :mod:`repro.core.sampler` — analytic drift-error sampling.
* :mod:`repro.core.agemodel` — steady-state initial line ages.
"""

from .agemodel import InitialAgeModel
from .conversion import AdaptiveConversionController
from .lwt import LwtLineFlags, QuantizedTracker, lwt_flag_bits
from .readout import ReadDuoController, ReadMechanism, ReadOutcome
from .sampler import DriftErrorSampler
from .policies import (
    CORRECTABLE_ERRORS,
    DETECTABLE_ERRORS,
    HybridPolicy,
    IdealPolicy,
    LwtPolicy,
    M_SCRUB_INTERVAL_S,
    MMetricPolicy,
    PolicyContext,
    R_SCRUB_INTERVAL_S,
    ScrubbingPolicy,
    SelectPolicy,
)
from .registry import make_policy, register_scheme, scheme_names

__all__ = [
    "register_scheme",
    "scheme_names",
    "InitialAgeModel",
    "AdaptiveConversionController",
    "LwtLineFlags",
    "QuantizedTracker",
    "lwt_flag_bits",
    "ReadDuoController",
    "ReadMechanism",
    "ReadOutcome",
    "DriftErrorSampler",
    "CORRECTABLE_ERRORS",
    "DETECTABLE_ERRORS",
    "HybridPolicy",
    "IdealPolicy",
    "LwtPolicy",
    "M_SCRUB_INTERVAL_S",
    "MMetricPolicy",
    "PolicyContext",
    "R_SCRUB_INTERVAL_S",
    "SCHEME_NAMES",
    "ScrubbingPolicy",
    "SelectPolicy",
    "make_policy",
]

#: Built-in scheme names, in registry order: a snapshot taken at import
#: time. Prefer the live :func:`~repro.core.registry.scheme_names` when
#: plugins may register schemes later.
SCHEME_NAMES = scheme_names()
