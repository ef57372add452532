"""The ablation and extra drivers simulate only through the planner.

``ablation-conversion-throttle``, ``ablation-write-truncation``,
``extra-scrub-interval`` and ``extra-precise-write`` express every variant
they run as a registered scheme name (``LWT-4-T100``, ``Select-4:2+trunc``,
``LWT-4@S=160``, ``Precise-2sigma``), so their runs are planned, cached and
recorded like any figure's. These tests count every call of
:func:`repro.memsim.engine.simulate` and check where it was made.
"""

from __future__ import annotations

import sys

import pytest

from repro.experiments import EXPERIMENT_SPECS
from repro.experiments.planner import build_plan
from repro.experiments.runner import clear_sweep_cache
from repro.memsim import engine
from repro.service import ExecutionService

DRIVERS = (
    "ablation-conversion-throttle",
    "ablation-write-truncation",
    "extra-scrub-interval",
    "extra-precise-write",
)
SMALL = dict(target_requests=1_200)


class SimulateCounter:
    """Counts ``simulate`` calls, split by whether a plan was executing."""

    def __init__(self, monkeypatch) -> None:
        self.inside = 0
        self.outside = 0
        self._depth = 0
        original_simulate = engine.simulate
        from repro.experiments.planner import execute_plan as original_execute

        def simulate(*args, **kwargs):
            if self._depth:
                self.inside += 1
            else:
                self.outside += 1
            return original_simulate(*args, **kwargs)

        def execute_plan(*args, **kwargs):
            self._depth += 1
            try:
                return original_execute(*args, **kwargs)
            finally:
                self._depth -= 1

        # Patch every module that bound either name at import time.
        for module in list(sys.modules.values()):
            if getattr(module, "simulate", None) is original_simulate:
                monkeypatch.setattr(module, "simulate", simulate)
            if getattr(module, "execute_plan", None) is original_execute:
                monkeypatch.setattr(module, "execute_plan", execute_plan)

    @property
    def total(self) -> int:
        return self.inside + self.outside


@pytest.fixture(autouse=True)
def clean_memo():
    clear_sweep_cache()
    yield
    clear_sweep_cache()


def _run_drivers(service):
    with service.session():
        return [service.run_experiment(name, **SMALL).rows for name in DRIVERS]


def test_drivers_never_simulate_outside_the_planner(tmp_path, monkeypatch):
    counter = SimulateCounter(monkeypatch)
    service = ExecutionService(jobs=1, cache=tmp_path / "cache")
    first = _run_drivers(service)
    assert counter.outside == 0
    assert counter.inside > 0

    # A second invocation (fresh process memo, same store) simulates 0 units.
    clear_sweep_cache()
    counter.inside = 0
    second = _run_drivers(service)
    assert counter.total == 0
    assert second == first


def test_registered_specs_cover_every_driver_run(tmp_path, monkeypatch):
    """Executing the EXPERIMENT_SPECS plan first leaves the drivers nothing."""
    service = ExecutionService(jobs=1, cache=tmp_path / "cache")
    specs = [spec for name in DRIVERS for spec in EXPERIMENT_SPECS[name](**SMALL)]
    outcome = service.submit(specs)
    assert outcome.stats.units_simulated > 0
    counter = SimulateCounter(monkeypatch)
    _run_drivers(service)
    assert counter.total == 0


def test_shared_units_dedupe():
    """S=640 is plain LWT-4, and every Ideal/mcf baseline is one unit."""
    specs = [spec for name in DRIVERS for spec in EXPERIMENT_SPECS[name]()]
    plan = build_plan(specs)
    pairs = [(unit.workload, unit.scheme) for unit in plan.units]
    assert ("mcf", "LWT-4") in pairs
    assert not any("@S=640" in scheme for _, scheme in pairs)
    assert pairs.count(("mcf", "Ideal")) == 1
    # Conversion 4 + truncation 9 + scrub interval 6 + precise-write 4
    # units; the extra Ideal/mcf (twice) and LWT-4/mcf (once) fold away.
    assert plan.stats.units_deduped == 3
    assert len(plan.units) == 20


def test_precise_write_ideal_baseline_is_config_independent():
    """Ideal under the slow-write policy config equals the shared unit.

    ``precise_write_comparison`` once normalized its Precise-write row
    against Ideal built with the slow-write platform in its context; it
    now uses the default-platform Ideal unit every other row shares.
    """
    from repro.core.policies import PolicyContext
    from repro.core.registry import make_policy
    from repro.experiments.extras import precise_write_specs
    from repro.memsim.config import MemoryConfig
    from repro.traces.spec import workload

    default_spec, slow_spec = precise_write_specs()
    assert slow_spec.config.timing.write_ns == 1.6 * MemoryConfig().timing.write_ns
    trace = default_spec.trace_for("mcf")
    profile = workload("mcf")
    slow_ctx = PolicyContext(profile=profile, config=slow_spec.config)
    legacy = engine.simulate(trace, make_policy("Ideal", slow_ctx), MemoryConfig())
    shared = engine.simulate(
        trace, default_spec.make_policy("Ideal", profile), default_spec.config
    )
    assert legacy.to_dict() == shared.to_dict()
