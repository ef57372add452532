"""The table-driven BCH codec against a scalar reference, plus edge cases.

``reference_*`` below are the codec's original per-bit implementations
(one ``field.exp(i * j)`` per set bit and syndrome, a Chien scan that
evaluates sigma point by point and stops at the ``degree``-th root, and
encoding by polynomial division on Python ints). They exist only here,
as the oracle the array codec in ``repro.ecc.bch`` must match exactly:
same status, payload, correction count and positions for every word.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.bch import BCHCode, DecodeStatus, bch8_for_line
from repro.experiments.extras import bch_detection_study


# ------------------------------------------------------- scalar reference


def _bits_to_int(bits):
    value = 0
    for i in np.nonzero(np.asarray(bits, dtype=np.uint8))[0]:
        value |= 1 << int(i)
    return value


def _int_to_bits(value, length):
    out = np.zeros(length, dtype=np.uint8)
    i = 0
    while value and i < length:
        if value & 1:
            out[i] = 1
        value >>= 1
        i += 1
    return out


def _poly_mod(dividend, divisor):
    deg_divisor = divisor.bit_length() - 1
    deg = dividend.bit_length() - 1
    while deg >= deg_divisor and dividend:
        dividend ^= divisor << (deg - deg_divisor)
        deg = dividend.bit_length() - 1
    return dividend


def reference_encode(code, data):
    bits = np.asarray(data).astype(np.uint8)
    data_int = _bits_to_int(bits)
    remainder = _poly_mod(data_int << code.r, code.generator)
    codeword = (data_int << code.r) | remainder
    return _int_to_bits(codeword, code.n)


def reference_syndromes(code, received):
    cw = np.asarray(received).astype(np.uint8)
    positions = np.nonzero(cw)[0]
    field = code.field
    out = []
    for j in range(1, 2 * code.t + 1):
        s = 0
        for i in positions:
            s ^= field.exp(int(i) * j)
        out.append(s)
    return out


def reference_chien_search(code, sigma):
    field = code.field
    positions = []
    degree = len(sigma) - 1
    for i in range(code.n_full):
        x = field.exp(field.order - i if i else 0)
        if field.poly_eval(sigma, x) == 0:
            if i >= code.n:
                return None
            positions.append(i)
            if len(positions) == degree:
                break
    return positions


def reference_decode(code, received):
    """(status, data_bits, errors_corrected, error_positions)."""
    synd = reference_syndromes(code, received)
    if not any(synd):
        return DecodeStatus.CORRECTED, code.extract_data(received), 0, ()
    sigma = code._berlekamp_massey(synd)
    degree = len(sigma) - 1
    if degree > code.t:
        return DecodeStatus.DETECTED_UNCORRECTABLE, None, 0, ()
    positions = reference_chien_search(code, sigma)
    if positions is None or len(positions) != degree:
        return DecodeStatus.DETECTED_UNCORRECTABLE, None, 0, ()
    corrected = np.asarray(received).astype(np.uint8).copy()
    for pos in positions:
        corrected[pos] ^= 1
    if any(reference_syndromes(code, corrected)):
        return DecodeStatus.DETECTED_UNCORRECTABLE, None, 0, ()
    return (
        DecodeStatus.CORRECTED,
        code.extract_data(corrected),
        len(positions),
        tuple(sorted(int(p) for p in positions)),
    )


# ----------------------------------------------------------------- fixtures

LINE_CODE = bch8_for_line()
SMALL_CODE = BCHCode(t=2, data_bits=32)
CODES = {"line": LINE_CODE, "small": SMALL_CODE}


def _corrupted_codeword(code, seed, errors):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2, code.k).astype(np.uint8)
    word = code.encode(data)
    word[rng.choice(code.n, errors, replace=False)] ^= 1
    return word


def _sigma_from_locators(code, positions):
    """prod (1 + alpha^p x): the error locator of errors at ``positions``."""
    field = code.field
    sigma = [1]
    for p in positions:
        sigma = field.poly_mul(sigma, [1, field.exp(p)])
    return sigma


def _irreducible_quadratic(code):
    """``1 + x + c x^2`` with no root in the code's field."""
    field = code.field
    for c in range(2, field.size):
        sigma = [1, 1, c]
        if all(field.poly_eval(sigma, field.exp(i)) for i in range(field.order)):
            return sigma
    raise AssertionError("no irreducible quadratic found")


# -------------------------------------------------------- differential tests


class TestMatchesScalarReference:
    @pytest.mark.parametrize("name", sorted(CODES))
    @given(seed=st.integers(0, 2**32 - 1), errors=st.integers(0, 40))
    @settings(max_examples=150, deadline=None)
    def test_decode_matches_reference(self, name, seed, errors):
        # 0..40 errors crosses every regime of the line code: corrected
        # (<= 8), always detected (9..17) and possible miscorrection.
        code = CODES[name]
        word = _corrupted_codeword(code, seed, errors)
        got = code.decode(word)
        status, data_bits, corrected, positions = reference_decode(code, word)
        assert got.status is status
        assert got.errors_corrected == corrected
        assert got.error_positions == positions
        if data_bits is None:
            assert got.data_bits is None
        else:
            assert got.data_bits.dtype == np.uint8
            assert (got.data_bits == data_bits).all()

    @pytest.mark.parametrize("name", sorted(CODES))
    @given(seed=st.integers(0, 2**32 - 1), errors=st.integers(0, 40))
    @settings(max_examples=50, deadline=None)
    def test_syndromes_match_reference(self, name, seed, errors):
        code = CODES[name]
        word = _corrupted_codeword(code, seed, errors)
        assert code.syndromes(word) == reference_syndromes(code, word)

    @pytest.mark.parametrize("name", sorted(CODES))
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_encode_matches_reference(self, name, seed):
        code = CODES[name]
        data = np.random.default_rng(seed).integers(0, 2, code.k).astype(np.uint8)
        got = code.encode(data)
        assert got.dtype == np.uint8
        assert (got == reference_encode(code, data)).all()

    def test_detection_study_matches_pinned_rows(self):
        pinned = json.loads(
            (Path(__file__).parent / "data" / "bch_detection_study.json").read_text()
        )
        result = bch_detection_study(**pinned["args"])
        assert result.headers == pinned["headers"]
        assert result.rows == pinned["rows"]


# ------------------------------------------------ Chien shortening edge cases


class TestChienShortening:
    def test_root_beyond_shortened_length_is_rejected(self):
        code = LINE_CODE
        sigma = _sigma_from_locators(code, [5, 700])
        assert code.n == 592
        assert code._chien_search(sigma) is None
        assert reference_chien_search(code, sigma) is None

    def test_root_beyond_shortened_length_decodes_as_detected(self):
        # Errors at 5 and 700 of the unshortened code: x^700 has the same
        # syndromes as its remainder mod g, which fits in the check bits.
        code = LINE_CODE
        word = np.zeros(code.n, dtype=np.uint8)
        word[:code.r] = _int_to_bits(_poly_mod(1 << 700, code.generator), code.r)
        word[5] ^= 1
        assert code._berlekamp_massey(code.syndromes(word)) == _sigma_from_locators(
            code, [5, 700]
        )
        result = code.decode(word)
        assert result.status is DecodeStatus.DETECTED_UNCORRECTABLE
        assert result.data_bits is None

    def test_roots_inside_shortened_length(self):
        code = LINE_CODE
        assert code._chien_search(_sigma_from_locators(code, [5, 10])) == [5, 10]

    def test_fewer_roots_than_degree_gives_short_list(self):
        code = LINE_CODE
        quadratic = _irreducible_quadratic(code)
        sigma = code.field.poly_mul(quadratic, [1, code.field.exp(40)])
        assert code._chien_search(quadratic) == []
        assert code._chien_search(sigma) == [40]
        assert reference_chien_search(code, sigma) == [40]

    def test_fewer_roots_than_degree_is_detected_never_partial(self, monkeypatch):
        code = LINE_CODE
        sigma = code.field.poly_mul(
            _irreducible_quadratic(code), [1, code.field.exp(40)]
        )
        monkeypatch.setattr(code, "_berlekamp_massey", lambda synd: sigma)
        word = _corrupted_codeword(code, 3, 3)
        result = code.decode(word)
        assert result.status is DecodeStatus.DETECTED_UNCORRECTABLE
        assert result.data_bits is None
        assert result.errors_corrected == 0
        assert result.error_positions == ()

    def test_locator_degree_above_t_is_detected(self):
        # About 2% of random words give a t+1 degree locator; find one.
        code = SMALL_CODE
        rng = np.random.default_rng(0)
        while True:
            word = rng.integers(0, 2, code.n).astype(np.uint8)
            if len(code._berlekamp_massey(code.syndromes(word))) - 1 > code.t:
                break
        result = code.decode(word)
        assert result.status is DecodeStatus.DETECTED_UNCORRECTABLE
        assert reference_decode(code, word)[0] is DecodeStatus.DETECTED_UNCORRECTABLE
