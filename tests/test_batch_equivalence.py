"""Batch kernel == event-level oracle, bit for bit.

The batch engine (``engine="batch"``, the default) must be
indistinguishable from the event-stepped oracle (``engine="event"``) in
every observable: statistics dicts, telemetry records and metrics,
granular cache entry bytes, and sweep grids at any worker count — with
and without fault injection, with and without the compiled fast path.
That identity is what lets the engine flag stay out of
:meth:`SimSpec.content_hash` (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.registry import make_policy, scheme_names
from repro.core.policies import PolicyContext
from repro.memsim.config import MemoryConfig
from repro.memsim.engine import ENGINES, simulate
from repro.traces.generator import generate_trace
from repro.traces.spec import instructions_for_requests, workload

REQUESTS = 1_500
WORKLOAD = "mcf"
SEED = 42


@pytest.fixture(scope="module")
def trace_and_config():
    config = MemoryConfig()
    profile = workload(WORKLOAD)
    instructions = instructions_for_requests(profile, REQUESTS, config.num_cores)
    trace = generate_trace(
        profile,
        instructions_per_core=instructions,
        num_cores=config.num_cores,
        seed=SEED,
    )
    return trace, config, profile


def _fresh_policy(scheme, profile, config):
    return make_policy(
        scheme, PolicyContext(profile=profile, config=config, seed=SEED)
    )


# --------------------------------------------------------- scheme sweep


#: Unlisted spellings the ablations and extras run.
VARIANTS = ("LWT-4-T100", "LWT-4@S=160", "Select-4:2+trunc", "Precise-2sigma")


@pytest.mark.parametrize("scheme", scheme_names() + VARIANTS)
def test_batch_equals_event_per_scheme(scheme, trace_and_config):
    """Every registered scheme family: identical stats dicts."""
    trace, config, profile = trace_and_config
    batch = simulate(
        trace, _fresh_policy(scheme, profile, config), config, engine="batch"
    )
    event = simulate(
        trace, _fresh_policy(scheme, profile, config), config, engine="event"
    )
    assert batch.to_dict() == event.to_dict()
    assert batch == event


def test_batch_equals_event_precise_write(trace_and_config):
    """The precise-write baseline built directly (``Precise-2sigma`` by
    name) inherits Scrubbing's kernels, and with them the batch path."""
    from repro.baselines.precise import PreciseWritePolicy

    trace, config, profile = trace_and_config

    def fresh():
        return PreciseWritePolicy(PolicyContext(profile=profile, config=config, seed=SEED))

    batch = simulate(trace, fresh(), config, engine="batch")
    event = simulate(trace, fresh(), config, engine="event")
    assert batch.to_dict() == event.to_dict()


@pytest.mark.parametrize("scheme", ["Hybrid", "Scrubbing", "M-metric", "Ideal"])
def test_batch_equals_event_with_faults(scheme, trace_and_config):
    """Nonzero fault density: schedules apply identically under batching."""
    from repro.experiments.spec import SimSpec

    trace, config, profile = trace_and_config
    spec = SimSpec(
        schemes=(scheme,),
        workloads=(WORKLOAD,),
        target_requests=REQUESTS,
        seed=SEED,
        faults={
            "stuck_line_rate": 0.01,
            "read_noise_rate": 0.002,
            "write_fail_rate": 0.01,
        },
    )
    results = {}
    for engine in ENGINES:
        # A fresh injector per run: injectors carry per-run draw state.
        faults = spec.fault_injector(WORKLOAD, scheme)
        assert faults is not None
        results[engine] = simulate(
            trace,
            _fresh_policy(scheme, profile, config),
            config,
            faults=faults,
            engine=engine,
        )
    assert results["batch"].to_dict() == results["event"].to_dict()


def test_batch_equals_event_telemetry(trace_and_config):
    """Tracer records, drop counts, and metric dumps match exactly."""
    from repro.obs import MetricsRegistry, Telemetry, Tracer

    trace, config, profile = trace_and_config
    captures = {}
    for engine in ENGINES:
        tele = Telemetry(tracer=Tracer(), metrics=MetricsRegistry())
        stats = simulate(
            trace,
            _fresh_policy("Hybrid", profile, config),
            config,
            telemetry=tele,
            engine=engine,
        )
        captures[engine] = (stats, tele.tracer.records, tele.tracer.dropped,
                            tele.metrics.to_dict())
    batch, event = captures["batch"], captures["event"]
    assert batch[0].to_dict() == event[0].to_dict()
    assert batch[1] == event[1]
    assert batch[2] == event[2]
    assert batch[3] == event[3]


def test_batch_equals_fallback_without_native(trace_and_config, monkeypatch):
    """The pure-python batch path (no compiled kernel) is also identical."""
    from repro.memsim import native

    trace, config, profile = trace_and_config
    fast = simulate(
        trace, _fresh_policy("Hybrid", profile, config), config, engine="batch"
    )
    monkeypatch.setenv("READDUO_NO_NATIVE", "1")
    monkeypatch.setattr(native, "_lib", native._UNSET)
    try:
        assert native.load_timeline() is None
        slow = simulate(
            trace, _fresh_policy("Hybrid", profile, config), config,
            engine="batch",
        )
    finally:
        monkeypatch.setattr(native, "_lib", native._UNSET)
    assert fast.to_dict() == slow.to_dict()


# ------------------------------------------------------ sweep and cache


def _sweep_spec(engine, extra=()):
    from repro.experiments.spec import SimSpec

    return SimSpec(
        schemes=("Ideal", "Hybrid", "LWT-2", "Select-4:1") + tuple(extra),
        workloads=("mcf", "gcc"),
        target_requests=800,
        seed=SEED,
        engine=engine,
    )


def _flat(grid):
    return [
        (w, s, stats.to_dict())
        for w, per_scheme in grid.items()
        for s, stats in per_scheme.items()
    ]


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_grid_identical_across_engines(jobs, tmp_path):
    """Whole grids agree for serial and parallel execution alike."""
    from repro.experiments.runner import clear_sweep_cache, run_sweep

    grids = {}
    for engine in ENGINES:
        clear_sweep_cache()
        grids[engine] = run_sweep(_sweep_spec(engine), jobs=jobs, cache=False)
    clear_sweep_cache()
    assert _flat(grids["batch"]) == _flat(grids["event"])


def test_granular_cache_entries_byte_identical(tmp_path):
    """Batch-produced run-cache entries are byte-identical to scalar ones.

    Cached artifacts therefore stay valid across engines, which is the
    load-bearing fact behind keeping ``engine`` out of the content hash.
    """
    from repro.experiments.runner import clear_sweep_cache, run_sweep

    dirs = {}
    for engine in ENGINES:
        clear_sweep_cache()
        cache = tmp_path / engine
        run_sweep(_sweep_spec(engine), jobs=1, cache=cache)
        runs_dir = tmp_path / engine / "runs"
        dirs[engine] = {
            p.name: p.read_bytes() for p in sorted(runs_dir.glob("*.json"))
        }
    clear_sweep_cache()
    assert dirs["batch"], "no granular cache entries were written"
    assert dirs["batch"].keys() == dirs["event"].keys()  # same run hashes
    assert dirs["batch"] == dirs["event"]  # same bytes

    # And a replay from the scalar-produced cache serves the batch spec.
    clear_sweep_cache()
    cache = tmp_path / "event"
    replayed = run_sweep(_sweep_spec("batch"), jobs=1, cache=cache)
    clear_sweep_cache()
    fresh = run_sweep(_sweep_spec("batch"), jobs=1, cache=False)
    clear_sweep_cache()
    assert _flat(replayed) == _flat(fresh)


# ------------------------------------------------------ spec/engine flag


def test_simspec_engine_validation():
    from repro.experiments.spec import SimSpec, SpecError

    with pytest.raises(SpecError):
        SimSpec(workloads=("mcf",), engine="bogus")


def test_simspec_engine_outside_identity():
    from repro.experiments.spec import SimSpec

    batch = _sweep_spec("batch")
    event = _sweep_spec("event")
    assert batch.content_hash() == event.content_hash()
    # Only the non-default engine is serialized, so old spec files and
    # their hashes round-trip unchanged.
    assert "engine" not in batch.to_dict()
    assert event.to_dict()["engine"] == "event"
    assert SimSpec.from_dict(event.to_dict()).engine == "event"
    assert SimSpec.from_dict(batch.to_dict()).engine == "batch"


def test_simulate_rejects_unknown_engine(trace_and_config):
    trace, config, profile = trace_and_config
    with pytest.raises(ValueError, match="unknown engine"):
        simulate(
            trace, _fresh_policy("Ideal", profile, config), config,
            engine="vector",
        )


# ------------------------------------------- vectorized helper parity


def test_classify_error_counts_matches_scalar():
    from repro.ecc.regimes import (
        REGIME_BY_CODE,
        classify_error_count,
        classify_error_counts,
    )

    counts = np.arange(0, 40)
    codes = classify_error_counts(counts)
    assert codes.dtype == np.int8
    for count, code in zip(counts.tolist(), codes.tolist()):
        assert REGIME_BY_CODE[code] is classify_error_count(count)
    with pytest.raises(ValueError):
        classify_error_counts(np.asarray([3, -1]))


def test_cellarray_read_lines_matches_read_line(rng):
    from repro.pcm.array import CellArray

    array = CellArray(num_lines=32, cells_per_line=64, rng=rng)
    lines = np.asarray([0, 5, 5, 31, 2])
    now_s = 3_600.0
    for metric in ("R", "M"):
        sensed, errors = array.read_lines(lines, now_s, metric)
        assert sensed.shape == (len(lines), 64)
        for i, line in enumerate(lines.tolist()):
            single = array.read_line(line, now_s, metric)
            assert np.array_equal(sensed[i], single.sensed_levels)
            assert int(errors[i]) == single.cell_errors


def test_sense_batch_matches_sequential(rng):
    from repro.pcm.sensing import RSenseAmplifier

    values = rng.normal(3.0, 1.0, size=(7, 16))
    one = RSenseAmplifier()
    rows = np.stack([one.sense(row) for row in values])
    batched = RSenseAmplifier()
    levels = batched.sense_batch(values)
    assert np.array_equal(levels, rows)
    assert batched.reads == one.reads == 7
    assert batched.cells_sensed == one.cells_sensed == values.size
    with pytest.raises(ValueError):
        batched.sense_batch(values[0])


def test_sense_cells_at_matches_scalar(rng):
    from repro.pcm.cell import Cell, sense_cells_at
    from repro.pcm.params import R_METRIC

    cells = [Cell.program(R_METRIC, lv % 4, rng, now_s=0.0) for lv in range(12)]
    now_s = 7_200.0
    batched = sense_cells_at(R_METRIC, cells, now_s)
    assert batched.tolist() == [c.sense_at(R_METRIC, now_s) for c in cells]
    assert sense_cells_at(R_METRIC, [], now_s).shape == (0,)
