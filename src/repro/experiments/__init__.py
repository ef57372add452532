"""Experiment drivers regenerating every table and figure of the paper.

Each driver module exposes ``run(**kwargs) -> ExperimentResult``; the
:data:`EXPERIMENTS` registry maps experiment ids to those callables so the
CLI and the benchmark harness can enumerate them. Figures 7/8 are circuit
diagrams whose quantitative content is Table VII; Table VI's goal matrix
is folded into the figure3 driver.
"""

from typing import Callable, Dict, Tuple

from . import figures, tables
from .ablations import (
    ablation_conversion_throttle,
    ablation_scrub_contention,
    ablation_write_cancellation,
    ablation_write_truncation,
    conversion_throttle_specs,
    scrub_contention_specs,
    write_cancellation_specs,
    write_truncation_specs,
)
from .extras import (
    bch_detection_study,
    montecarlo_validation,
    precise_write_comparison,
    precise_write_specs,
    scrub_interval_sensitivity,
    scrub_interval_specs,
)
from .faults import fault_density_specs, fault_density_study
from .figures._sweep import sweep_specs
from .report import ExperimentResult, geometric_mean
from .runner import ALL_SCHEMES, SweepSettings, clear_sweep_cache, run_sweep
from .spec import SimSpec, SpecError

EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "ablation-scrub-contention": ablation_scrub_contention,
    "ablation-write-cancellation": ablation_write_cancellation,
    "ablation-conversion-throttle": ablation_conversion_throttle,
    "ablation-write-truncation": ablation_write_truncation,
    "extra-bch-detection": bch_detection_study,
    "extra-fault-density": fault_density_study,
    "extra-scrub-interval": scrub_interval_sensitivity,
    "extra-precise-write": precise_write_comparison,
    "extra-mc-validation": montecarlo_validation,
    "table1": tables.table1.run,
    "table2": tables.table2.run,
    "table3": tables.table3.run,
    "table4": tables.table4.run,
    "table5": tables.table5.run,
    "table7": tables.table7.run,
    "table8": tables.table8.run,
    "table9": tables.table9.run,
    "table10": tables.table10.run,
    "figure1": figures.figure1.run,
    "figure2": figures.figure2.run,
    "figure3": figures.figure3.run,
    "figure4": figures.figure4.run,
    "figure5": figures.figure5.run,
    "figure6": figures.figure6.run,
    "figure9": figures.figure9.run,
    "figure10": figures.figure10.run,
    "figure11": figures.figure11.run,
    "figure12": figures.figure12.run,
    "figure13": figures.figure13.run,
    "figure14": figures.figure14.run,
    "figure15": figures.figure15.run,
}

#: Experiments that trigger the (slow, cached) full simulation sweep.
SWEEP_EXPERIMENTS = (
    "figure3",
    "figure4",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "figure15",
)

#: Spec collectors: experiment id -> callable returning the SimSpecs that
#: experiment's driver will feed to run_sweep. The CLI's planned
#: ``readduo run`` unions these up front (plan -> dedupe -> execute) so
#: overlapping artifacts simulate each distinct run exactly once; the
#: drivers then consume the prewarmed per-run cache. Every driver that
#: simulates is here; the ones that never call run_sweep (closed-form
#: tables, the BCH and Monte-Carlo extras) are absent.
EXPERIMENT_SPECS: Dict[str, Callable[..., Tuple[SimSpec, ...]]] = {
    **{experiment_id: sweep_specs for experiment_id in SWEEP_EXPERIMENTS},
    "ablation-scrub-contention": scrub_contention_specs,
    "ablation-write-cancellation": write_cancellation_specs,
    "ablation-conversion-throttle": conversion_throttle_specs,
    "ablation-write-truncation": write_truncation_specs,
    "extra-fault-density": fault_density_specs,
    "extra-scrub-interval": scrub_interval_specs,
    "extra-precise-write": precise_write_specs,
}

__all__ = [
    "EXPERIMENTS",
    "EXPERIMENT_SPECS",
    "SWEEP_EXPERIMENTS",
    "ExperimentResult",
    "geometric_mean",
    "ALL_SCHEMES",
    "SimSpec",
    "SpecError",
    "SweepSettings",
    "run_sweep",
    "clear_sweep_cache",
]
