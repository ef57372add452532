"""Unit + property tests for the BCH codec (the ReadDuo line code)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.bch import BCHCode, DecodeStatus, bch8_for_line


@pytest.fixture(scope="module")
def line_code():
    return bch8_for_line()


@pytest.fixture(scope="module")
def small_code():
    # A fast (63-ish, shortened) code for exhaustive-ish tests.
    return BCHCode(t=2, data_bits=32)


def _flip(codeword, positions):
    corrupted = codeword.copy()
    corrupted[list(positions)] ^= 1
    return corrupted


class TestConstruction:
    def test_line_code_dimensions(self, line_code):
        assert (line_code.n, line_code.k, line_code.r) == (592, 512, 80)
        assert line_code.m == 10

    def test_small_code_dimensions(self, small_code):
        assert small_code.k == 32
        assert small_code.r == small_code.m * 2  # t=2 over GF(2^6)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            BCHCode(t=0, data_bits=32)
        with pytest.raises(ValueError):
            BCHCode(t=2, data_bits=0)

    def test_rejects_oversized_payload(self):
        with pytest.raises(ValueError):
            BCHCode(t=8, data_bits=1000, m=10)


class TestEncode:
    def test_systematic_layout(self, small_code, rng):
        data = rng.integers(0, 2, small_code.k).astype(np.uint8)
        cw = small_code.encode(data)
        assert (cw[small_code.r :] == data).all()

    def test_zero_data_zero_codeword(self, small_code):
        cw = small_code.encode(np.zeros(small_code.k, dtype=np.uint8))
        assert cw.sum() == 0

    def test_rejects_wrong_length(self, small_code):
        with pytest.raises(ValueError):
            small_code.encode(np.zeros(small_code.k + 1, dtype=np.uint8))

    def test_codeword_has_zero_syndrome(self, small_code, rng):
        data = rng.integers(0, 2, small_code.k).astype(np.uint8)
        assert not any(small_code.syndromes(small_code.encode(data)))


class TestDecode:
    def test_clean_decode(self, small_code, rng):
        data = rng.integers(0, 2, small_code.k).astype(np.uint8)
        result = small_code.decode(small_code.encode(data))
        assert result.ok and result.errors_corrected == 0
        assert (result.data_bits == data).all()

    @pytest.mark.parametrize("errors", [1, 2])
    def test_corrects_within_t(self, small_code, rng, errors):
        data = rng.integers(0, 2, small_code.k).astype(np.uint8)
        cw = small_code.encode(data)
        positions = rng.choice(small_code.n, errors, replace=False)
        result = small_code.decode(_flip(cw, positions))
        assert result.ok
        assert result.errors_corrected == errors
        assert result.error_positions == tuple(sorted(int(p) for p in positions))
        assert (result.data_bits == data).all()

    @pytest.mark.parametrize("errors", [3, 4, 5])
    def test_detects_beyond_t(self, small_code, rng, errors):
        data = rng.integers(0, 2, small_code.k).astype(np.uint8)
        cw = small_code.encode(data)
        positions = rng.choice(small_code.n, errors, replace=False)
        result = small_code.decode(_flip(cw, positions))
        assert result.status is DecodeStatus.DETECTED_UNCORRECTABLE

    def test_line_code_corrects_eight(self, line_code, rng):
        data = rng.integers(0, 2, 512).astype(np.uint8)
        cw = line_code.encode(data)
        positions = rng.choice(line_code.n, 8, replace=False)
        result = line_code.decode(_flip(cw, positions))
        assert result.ok and result.errors_corrected == 8
        assert (result.data_bits == data).all()

    @pytest.mark.parametrize("errors", [9, 13, 17])
    def test_line_code_detects_9_to_17(self, line_code, rng, errors):
        # The ReadDuo-Hybrid design rests on this detection range.
        data = rng.integers(0, 2, 512).astype(np.uint8)
        cw = line_code.encode(data)
        positions = rng.choice(line_code.n, errors, replace=False)
        result = line_code.decode(_flip(cw, positions))
        assert result.status is DecodeStatus.DETECTED_UNCORRECTABLE

    def test_count_detected_errors_clean(self, line_code, rng):
        data = rng.integers(0, 2, 512).astype(np.uint8)
        assert line_code.count_detected_errors(line_code.encode(data)) == 0

    def test_count_detected_errors_correctable(self, line_code, rng):
        data = rng.integers(0, 2, 512).astype(np.uint8)
        cw = line_code.encode(data)
        bad = _flip(cw, rng.choice(line_code.n, 5, replace=False))
        assert line_code.count_detected_errors(bad) == 5

    def test_count_detected_errors_overflow(self, line_code, rng):
        data = rng.integers(0, 2, 512).astype(np.uint8)
        cw = line_code.encode(data)
        bad = _flip(cw, rng.choice(line_code.n, 12, replace=False))
        assert line_code.count_detected_errors(bad) == 17  # 2t + 1 marker

    @given(
        seed=st.integers(0, 2**16),
        errors=st.integers(0, 2),
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, small_code, seed, errors):
        local = np.random.default_rng(seed)
        data = local.integers(0, 2, small_code.k).astype(np.uint8)
        cw = small_code.encode(data)
        positions = local.choice(small_code.n, errors, replace=False)
        result = small_code.decode(_flip(cw, positions))
        assert result.ok
        assert (result.data_bits == data).all()

    @given(
        seed=st.integers(0, 2**16),
        errors=st.integers(9, 17),
    )
    @settings(max_examples=20, deadline=None)
    def test_detection_property_line_code(self, line_code, seed, errors):
        # The full ReadDuo guarantee on the (592, 512) line code: 9..17
        # errors are always detected-uncorrectable — a silent miscorrect
        # anywhere in this range would break the R-M retry trigger and
        # the Hybrid scheme's correctness argument. (The t=2 small code
        # has no such window — its minimum distance is too small — so
        # this property is exercised on the real line code only.)
        local = np.random.default_rng(seed)
        data = local.integers(0, 2, line_code.k).astype(np.uint8)
        cw = line_code.encode(data)
        positions = local.choice(line_code.n, errors, replace=False)
        result = line_code.decode(_flip(cw, positions))
        assert result.status is DecodeStatus.DETECTED_UNCORRECTABLE
        assert not result.ok

    @given(seed=st.integers(0, 2**16), errors=st.integers(9, 17))
    @settings(max_examples=20, deadline=None)
    def test_detected_uncorrectable_returns_no_data(self, line_code, seed, errors):
        # A detected-uncorrectable decode must not leak a (necessarily
        # wrong) data payload for callers to use by accident.
        local = np.random.default_rng(seed)
        data = local.integers(0, 2, line_code.k).astype(np.uint8)
        cw = line_code.encode(data)
        positions = local.choice(line_code.n, errors, replace=False)
        result = line_code.decode(_flip(cw, positions))
        assert result.data_bits is None
        assert result.errors_corrected == 0


class TestExtractData:
    def test_extract(self, small_code, rng):
        data = rng.integers(0, 2, small_code.k).astype(np.uint8)
        assert (small_code.extract_data(small_code.encode(data)) == data).all()

    def test_rejects_wrong_length(self, small_code):
        with pytest.raises(ValueError):
            small_code.extract_data(np.zeros(3, dtype=np.uint8))


class TestRejectsNonBinary:
    @pytest.mark.parametrize("value", [2, -1, 255, 0.5])
    def test_encode(self, small_code, value):
        data = np.zeros(small_code.k)
        data[3] = value
        with pytest.raises(ValueError, match="0 or 1"):
            small_code.encode(data)

    @pytest.mark.parametrize("method", ["decode", "syndromes", "count_detected_errors"])
    @pytest.mark.parametrize("value", [2, 3, -1, 0.5])
    def test_received_word(self, line_code, rng, method, value):
        word = line_code.encode(rng.integers(0, 2, line_code.k)).astype(np.float64)
        word[7] = value
        with pytest.raises(ValueError, match="0 or 1"):
            getattr(line_code, method)(word)

    def test_bool_and_int_words_accepted(self, small_code, rng):
        data = rng.integers(0, 2, small_code.k)
        cw = small_code.encode(data.astype(bool))
        assert (cw == small_code.encode(data)).all()
        assert small_code.decode(cw.astype(np.int64)).ok
        assert small_code.decode(cw.astype(bool)).ok
