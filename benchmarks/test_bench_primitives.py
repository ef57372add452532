"""Performance benchmarks for the library's core primitives.

These are conventional micro-benchmarks (not paper artifacts): BCH codec
throughput, drift-probability evaluation, trace generation, cell-array
sensing, and raw simulator event throughput.
"""

import numpy as np
import pytest

from repro.core.sampler import DriftErrorSampler
from repro.core.policies import PolicyContext
from repro.core.registry import make_policy
from repro.ecc.bch import bch8_for_line
from repro.memsim.config import MemoryConfig
from repro.memsim.engine import simulate
from repro.pcm.array import CellArray
from repro.reliability.ler import ler_table
from repro.pcm.params import R_METRIC
from repro.traces.generator import generate_trace
from repro.traces.spec import workload


@pytest.fixture(scope="module")
def line_code():
    return bch8_for_line()


def test_bch_encode(benchmark, line_code):
    rng = np.random.default_rng(0)
    data = rng.integers(0, 2, 512).astype(np.uint8)
    benchmark(line_code.encode, data)


def test_bch_decode_clean(benchmark, line_code):
    rng = np.random.default_rng(0)
    codeword = line_code.encode(rng.integers(0, 2, 512).astype(np.uint8))
    benchmark(line_code.decode, codeword)


def test_bch_decode_eight_errors(benchmark, line_code):
    rng = np.random.default_rng(0)
    codeword = line_code.encode(rng.integers(0, 2, 512).astype(np.uint8))
    corrupted = codeword.copy()
    corrupted[rng.choice(line_code.n, 8, replace=False)] ^= 1
    result = benchmark(line_code.decode, corrupted)
    assert result.ok


def _corrupted_line(line_code, errors):
    rng = np.random.default_rng(0)
    codeword = line_code.encode(rng.integers(0, 2, 512).astype(np.uint8))
    codeword[rng.choice(line_code.n, errors, replace=False)] ^= 1
    return codeword


def test_bch_decode_seventeen_errors(benchmark, line_code):
    # Degree-8 locator with no root in the field: a full Chien scan.
    result = benchmark(line_code.decode, _corrupted_line(line_code, 17))
    assert not result.ok


def test_bch_decode_twenty_four_errors(benchmark, line_code):
    # Degree-8 locator whose roots include one past the shortened length.
    result = benchmark(line_code.decode, _corrupted_line(line_code, 24))
    assert not result.ok


def test_ler_table_sweep(benchmark):
    benchmark(
        ler_table,
        R_METRIC,
        [4, 8, 16, 32, 64, 128, 256, 512, 1024],
        [0, 1, 7, 8, 9, 16, 17, 18],
    )


def test_drift_sampler(benchmark):
    sampler = DriftErrorSampler(rng=np.random.default_rng(0))

    def draw_many():
        return [sampler.sample_errors(640.0, "R") for _ in range(1000)]

    benchmark(draw_many)


def test_trace_generation(benchmark):
    profile = workload("mcf")
    benchmark(generate_trace, profile, 200_000, 4, 3)


def test_cell_array_scrub_sweep(benchmark):
    rng = np.random.default_rng(0)
    array = CellArray(512, 256, rng=rng, start_time_s=0.0)
    benchmark(array.count_drift_errors, 640.0, "R")


def test_engine_throughput_ideal(benchmark):
    profile = workload("mcf")
    config = MemoryConfig()
    trace = generate_trace(profile, 200_000, 4, seed=5)

    def run():
        policy = make_policy("Ideal", PolicyContext(profile=profile, config=config))
        return simulate(trace, policy, config)

    stats = benchmark.pedantic(run, rounds=3, iterations=1)
    assert stats.reads > 0


def test_engine_throughput_lwt(benchmark):
    profile = workload("mcf")
    config = MemoryConfig()
    trace = generate_trace(profile, 200_000, 4, seed=5)

    def run():
        policy = make_policy("LWT-4", PolicyContext(profile=profile, config=config))
        return simulate(trace, policy, config)

    stats = benchmark.pedantic(run, rounds=3, iterations=1)
    assert stats.reads > 0
