"""Extension experiments beyond the paper's printed evaluation.

* :func:`bch_detection_study` — empirically grounds the Section III-B
  premise that BCH-8 reliably *detects* up to 17 errors and behaves
  unpredictably beyond: inject exact error counts into the real (592,
  512) codec and classify the outcomes (corrected / detected /
  miscorrected).
* :func:`scrub_interval_sensitivity` — the paper notes M-metric
  scrubbing could relax from 640 s toward 2^14 s; this sweeps the LWT-4
  scrub interval and measures the performance/energy trade (longer
  intervals mean less scrubbing but older tracked lines and more
  R-M-reads).
* :func:`precise_write_comparison` — the Helmet-style orthogonal
  mitigation the paper explicitly declines to evaluate: program cells
  into a narrower range (wider guard bands, slower writes) and compare
  against ReadDuo on the same trace.
* :func:`montecarlo_validation` — the analytic drift model against a
  cell-level Monte-Carlo, for both metrics.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from ..baselines.precise import precise_scheme_name
from ..core.policies.lwt import lwt_scheme_name
from ..ecc.bch import DecodeStatus, bch8_for_line
from ..memsim.config import MemoryConfig
# Never called here; perfbench/layers.py wraps this name to count stray calls.
from ..memsim.engine import simulate  # noqa: F401
from .report import ExperimentResult
from .runner import run_sweep
from .spec import SimSpec

__all__ = [
    "bch_detection_study",
    "scrub_interval_sensitivity",
    "scrub_interval_specs",
    "precise_write_comparison",
    "precise_write_specs",
    "montecarlo_validation",
]


def bch_detection_study(
    max_errors: int = 24,
    trials: int = 40,
    seed: int = 99,
) -> ExperimentResult:
    """Classify BCH-8 decode outcomes per injected error count.

    ReadDuo-Hybrid's correctness rests on three regimes: <= 8 errors are
    corrected, 9..17 are always detected (designed distance 2t+2 = 18),
    and beyond 17 the decoder may *miscorrect* — returning wrong data
    with no warning — which is why line age must stay inside the window
    where P(>17 errors) is below the DRAM budget.
    """
    if max_errors < 1 or trials < 1:
        raise ValueError("max_errors and trials must be positive")
    rng = np.random.default_rng(seed)
    code = bch8_for_line()
    rows = []
    for errors in range(1, max_errors + 1):
        corrected = detected = miscorrected = 0
        for _ in range(trials):
            data = rng.integers(0, 2, code.k).astype(np.uint8)
            word = code.encode(data)
            positions = rng.choice(code.n, errors, replace=False)
            word[positions] ^= 1
            result = code.decode(word)
            if result.status is DecodeStatus.DETECTED_UNCORRECTABLE:
                detected += 1
            elif (result.data_bits == data).all():
                corrected += 1
            else:
                miscorrected += 1
        rows.append(
            [
                errors,
                corrected / trials,
                detected / trials,
                miscorrected / trials,
            ]
        )
    notes = (
        "Correction must be 1.0 through 8 errors and detection 1.0 "
        "through 17 (designed distance); miscorrections can only appear "
        "beyond 17 — the silent-corruption regime the Hybrid scrub bound "
        "keeps improbable."
    )
    return ExperimentResult(
        experiment_id="extra-bch-detection",
        title="BCH-8 decode outcomes vs injected error count",
        headers=["errors", "corrected", "detected", "miscorrected"],
        rows=rows,
        notes=notes,
    )


def scrub_interval_specs(
    intervals_s: Sequence[float] = (160.0, 320.0, 640.0, 2560.0, 16384.0),
    workload_name: str = "mcf",
    target_requests: int = 8_000,
    seed: int = 42,
) -> tuple:
    """The one spec the scrub-interval study sweeps.

    Each interval is the registered scheme ``LWT-4@S=<seconds>``; the
    paper's S=640 s spells plain ``LWT-4``, so that run (and the Ideal
    baseline) is shared with every other artifact on the same trace.
    """
    schemes = ("Ideal",) + tuple(lwt_scheme_name(4, interval_s=s) for s in intervals_s)
    return (SimSpec(schemes, (workload_name,), target_requests, seed),)


def scrub_interval_sensitivity(
    intervals_s: Sequence[float] = (160.0, 320.0, 640.0, 2560.0, 16384.0),
    workload_name: str = "mcf",
    target_requests: int = 8_000,
    seed: int = 42,
) -> ExperimentResult:
    """LWT-4 behaviour as the M-scrub interval S varies.

    Longer S shrinks scrub bandwidth/energy but also stretches the
    sub-intervals (S/k), so the tracking window coarsens and lines look
    "written recently" for longer — trading scrub cost against R-read
    reliability margin. (Reliability itself stays safe per Table IV.)
    """
    (spec,) = scrub_interval_specs(intervals_s, workload_name, target_requests, seed)
    grid = run_sweep(spec)[workload_name]
    ideal = grid["Ideal"]
    rows = []
    for interval in intervals_s:
        stats = grid[lwt_scheme_name(4, interval_s=interval)]
        rows.append(
            [
                interval,
                stats.execution_time_ns / ideal.execution_time_ns,
                stats.dynamic_energy_pj / ideal.dynamic_energy_pj,
                stats.mode_fraction("RM"),
                stats.scrub_ops,
            ]
        )
    return ExperimentResult(
        experiment_id="extra-scrub-interval",
        title=f"LWT-4 scrub-interval sensitivity on {workload_name}",
        headers=["S (s)", "exec", "energy", "R-M share", "scrub ops"],
        rows=rows,
        notes=(
            "The paper fixes S=640 s; Table IV allows much longer. Longer "
            "intervals cut scrub volume while the quantized tracking "
            "window (S/k granularity) grows with S."
        ),
    )


def precise_write_specs(
    workload_name: str = "mcf",
    target_requests: int = 8_000,
    seed: int = 42,
    program_width_sigma: float = 2.0,
    write_slowdown: float = 1.6,
) -> tuple:
    """The two specs the precise-write comparison sweeps.

    Ideal, Scrubbing and LWT-4 run on the default platform; the
    ``Precise-<w>sigma`` scheme runs on a platform whose writes are
    ``write_slowdown`` times slower (the extra P&V iterations).
    """
    timing = MemoryConfig().timing
    slow = MemoryConfig(
        timing=dataclasses.replace(timing, write_ns=timing.write_ns * write_slowdown)
    )
    base = SimSpec(("Ideal", "Scrubbing", "LWT-4"), (workload_name,), target_requests, seed)
    precise = (precise_scheme_name(program_width_sigma),)
    return (base, dataclasses.replace(base, schemes=precise, config=slow))


def precise_write_comparison(
    workload_name: str = "mcf",
    target_requests: int = 8_000,
    seed: int = 42,
    program_width_sigma: float = 2.0,
    write_slowdown: float = 1.6,
) -> ExperimentResult:
    """Helmet-style precise writes vs ReadDuo on one trace.

    Programming into ``mu +/- program_width_sigma * sigma`` (< 2.746)
    widens the guard band, postponing drift errors — at the cost of more
    program-and-verify iterations (modeled as a write-latency factor).
    The paper treats this as orthogonal; here it is evaluated head-on.

    Every row normalizes against the shared, config-independent Ideal
    unit on the default platform: Ideal never drifts, scrubs or consults
    its platform's write timing, so its stats under the slow-write
    config equal those under ``MemoryConfig()`` field for field (pinned
    by ``tests/test_experiments_planned_variants.py``).
    """
    specs = precise_write_specs(
        workload_name, target_requests, seed, program_width_sigma, write_slowdown
    )
    grids = [run_sweep(spec)[workload_name] for spec in specs]
    ideal = grids[0]["Ideal"]
    rows = []
    for label, stats in (
        ("Scrubbing", grids[0]["Scrubbing"]),
        ("Precise-write", grids[1][precise_scheme_name(program_width_sigma)]),
        ("LWT-4", grids[0]["LWT-4"]),
    ):
        rows.append(
            [
                label,
                stats.execution_time_ns / ideal.execution_time_ns,
                stats.dynamic_energy_pj / ideal.dynamic_energy_pj,
                ideal.total_cell_writes / max(stats.total_cell_writes, 1),
                stats.scrub_ops,
            ]
        )
    return ExperimentResult(
        experiment_id="extra-precise-write",
        title=f"Precise-write mitigation vs ReadDuo on {workload_name}",
        headers=["scheme", "exec", "energy", "lifetime", "scrub ops"],
        rows=rows,
        notes=(
            "Precise writes stretch every write by "
            f"{write_slowdown:g}x to earn a wider guard band and a longer "
            "safe scrub interval; ReadDuo reaches near-Ideal performance "
            "without touching the write path — the paper's 'orthogonal "
            "approach' argument quantified."
        ),
    )


def montecarlo_validation(
    ages_s: Sequence[float] = (8.0, 64.0, 640.0, 6400.0, 64000.0),
    num_lines: int = 3000,
    seed: int = 31,
) -> ExperimentResult:
    """Analytic drift model vs cell-level Monte-Carlo, both metrics.

    Tables III-V (and all policy-level error sampling) rest on the
    quadrature model of :mod:`repro.reliability.drift_prob`; this driver
    programs a large real cell population and measures its error rates at
    each age to show the model's accuracy directly.
    """
    from ..reliability.montecarlo import relative_error, simulate_error_rates

    rows = []
    for metric in ("R", "M"):
        points = simulate_error_rates(
            list(ages_s), metric=metric, num_lines=num_lines, seed=seed
        )
        for point in points:
            rows.append(
                [
                    metric,
                    point.age_s,
                    point.empirical,
                    point.analytic,
                    relative_error(point),
                ]
            )
    return ExperimentResult(
        experiment_id="extra-mc-validation",
        title="Analytic drift-error model vs Monte-Carlo cell simulation",
        headers=["metric", "age (s)", "empirical", "analytic", "rel. error"],
        rows=rows,
        notes=(
            f"{num_lines * 256} cells per metric, programmed once and "
            "sensed non-destructively at each age. Relative error uses a "
            "1/cells floor so sub-resolution analytic values do not blow "
            "up the ratio."
        ),
    )
