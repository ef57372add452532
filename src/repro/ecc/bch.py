"""Binary BCH encoder/decoder with decoupled detection and correction.

The ReadDuo memory line attaches a shortened binary BCH code to 512 data
bits: for ``t = 8`` over GF(2^10) the code is a (592, 512) shortening of
the (1023, 943) BCH code. The decoder implements the classic pipeline —
syndromes, Berlekamp–Massey, Chien search — and, crucially for
ReadDuo-Hybrid, *reports* rather than hides the uncorrectable-but-detected
outcome: the paper exploits BCH-8's ability to detect up to
``2t + 1 = 17`` errors to decide when an R-read must be retried with
M-sensing (Section III-B).

Bit convention: bit ``i`` of a codeword is the coefficient of ``x^i``.
Systematic layout: check bits occupy positions ``0 .. r-1``, data bits
``r .. r+k-1``. Words are arrays of 0/1 values; anything else is rejected.

Each code builds three tables once, at construction, and every encode or
decode is a few numpy operations over them:

* ``(k, r)`` parity matrix — row ``i`` holds the bits of
  ``x^(r+i) mod g(x)``, so the check bits are the GF(2) sum of the rows
  selected by the data bits;
* ``(2t, n)`` syndrome table — entry ``[j-1, i] = alpha^(i*j)``, so
  ``S_j`` is the XOR of the columns at the received word's set positions
  (and a correction's re-verify XORs the flipped columns into them);
* ``(t+1, 2^m-1)`` Chien table — entry ``[d, i] = log(alpha^(-i*d))``, so
  sigma is evaluated at every nonzero field point at once by adding the
  coefficient logs and gathering from the field's exp table.

Berlekamp–Massey stays scalar: it runs on ``2t`` syndromes only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .gf import GF2m, get_field

__all__ = ["BCHCode", "DecodeStatus", "DecodeResult", "bch8_for_line"]


class DecodeStatus(enum.Enum):
    """Outcome of a BCH decode attempt."""

    #: Zero syndrome or all errors corrected (<= t).
    CORRECTED = "corrected"
    #: More than t errors, but the decoder noticed (<= 2t+1 errors always
    #: land here; beyond that detection is probabilistic).
    DETECTED_UNCORRECTABLE = "detected-uncorrectable"


@dataclass(frozen=True)
class DecodeResult:
    """Result of decoding a received word.

    Attributes:
        status: Whether correction succeeded.
        data_bits: The decoded data payload (valid only when corrected).
        errors_corrected: Number of bit errors fixed (0 when clean).
        error_positions: Codeword bit positions that were flipped back.
    """

    status: DecodeStatus
    data_bits: Optional[np.ndarray]
    errors_corrected: int
    error_positions: Tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status is DecodeStatus.CORRECTED


def _as_bits(word: np.ndarray, length: int, what: str) -> np.ndarray:
    """``word`` as a fresh uint8 array, checked to be ``length`` 0/1 values."""
    arr = np.asarray(word)
    if arr.shape != (length,):
        raise ValueError(f"expected {length} {what} bits, got shape {arr.shape}")
    if ((arr != 0) & (arr != 1)).any():
        raise ValueError(f"{what} bits must be 0 or 1")
    return arr.astype(np.uint8)


class BCHCode:
    """A systematic, shortened binary BCH code correcting ``t`` errors.

    Args:
        t: Error-correction capability.
        data_bits: Payload length ``k`` (the code is shortened to
            ``k + r`` bits, ``r`` = degree of the generator polynomial).
        m: Field degree; chosen automatically (smallest field whose
            codeword length accommodates the payload) when omitted.
    """

    def __init__(self, t: int, data_bits: int, m: Optional[int] = None) -> None:
        if t < 1:
            raise ValueError("t must be >= 1")
        if data_bits < 1:
            raise ValueError("data_bits must be >= 1")
        self.t = t
        self.k = data_bits
        if m is None:
            m = 3
            while (1 << m) - 1 < data_bits + t * m:
                m += 1
        self.field: GF2m = get_field(m)
        self.m = m
        self.n_full = self.field.order  # full (unshortened) length

        # Generator polynomial: lcm of the minimal polynomials of
        # alpha^1 .. alpha^(2t). Conjugate powers share a minimal
        # polynomial, so collect distinct ones.
        seen = set()
        generator = 1
        for power in range(1, 2 * t + 1):
            mp = self.field.minimal_polynomial(power)
            if mp not in seen:
                seen.add(mp)
                generator = self._gf2_poly_mul(generator, mp)
        self.generator = generator
        self.r = generator.bit_length() - 1  # check bits
        self.n = self.k + self.r  # shortened codeword length
        if self.n > self.n_full:
            raise ValueError(
                f"payload too large: need {self.n} bits, field allows {self.n_full}"
            )
        self._parity = self._parity_matrix()
        order = self.field.order
        powers = np.arange(1, 2 * t + 1)[:, None] * np.arange(self.n)
        self._synd_table = self.field.exp_table[powers % order]
        self._chien_table = (-np.arange(t + 1)[:, None] * np.arange(order)) % order

    @staticmethod
    def _gf2_poly_mul(a: int, b: int) -> int:
        out = 0
        shift = 0
        while b:
            if b & 1:
                out ^= a << shift
            b >>= 1
            shift += 1
        return out

    def _parity_matrix(self) -> np.ndarray:
        """``(k, r)`` GF(2) matrix whose row ``i`` is ``x^(r+i) mod g``."""
        top = 1 << self.r
        remainder = self.generator ^ top  # x^r mod g
        rows = []
        for _ in range(self.k):
            rows.append(remainder)
            remainder <<= 1
            if remainder & top:
                remainder ^= self.generator
        width = (self.r + 7) // 8
        packed = b"".join(row.to_bytes(width, "little") for row in rows)
        bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), bitorder="little")
        return bits.reshape(self.k, 8 * width)[:, : self.r].copy()

    # ---------------------------------------------------------------- encode

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode ``k`` data bits into an ``n``-bit systematic codeword.

        Args:
            data: Bit array of length ``k`` (0/1 values).

        Returns:
            Codeword bit array: ``[check bits (r)] + [data bits (k)]``.
        """
        bits = _as_bits(data, self.k, "data")
        check = np.bitwise_xor.reduce(self._parity[bits.view(bool)], axis=0)
        return np.concatenate((check, bits))

    def extract_data(self, codeword: np.ndarray) -> np.ndarray:
        """The data payload of a (possibly corrected) codeword."""
        cw = np.asarray(codeword).astype(np.uint8)
        if cw.shape != (self.n,):
            raise ValueError(f"expected {self.n} codeword bits")
        return cw[self.r :].copy()

    # ---------------------------------------------------------------- decode

    def syndromes(self, received: np.ndarray) -> List[int]:
        """Syndromes ``S_j = r(alpha^j)`` for ``j = 1 .. 2t``."""
        word = _as_bits(received, self.n, "codeword")
        return self._syndromes_at(np.flatnonzero(word)).tolist()

    def _syndromes_at(self, positions: np.ndarray) -> np.ndarray:
        """XOR of the syndrome-table columns at ``positions``."""
        return np.bitwise_xor.reduce(self._synd_table[:, positions], axis=1)

    def count_detected_errors(self, received: np.ndarray) -> int:
        """Best-effort error count used by the ReadDuo readout controller.

        Returns the number of errors the decoder believes are present:
        0 for a clean word, the Berlekamp–Massey degree when correction
        succeeds, and ``2t + 1`` (one past the correction+detection range)
        when the word is detected-uncorrectable.
        """
        result = self.decode(received)
        if result.ok:
            return result.errors_corrected
        return 2 * self.t + 1

    def decode(self, received: np.ndarray) -> DecodeResult:
        """Full decode: syndromes -> Berlekamp–Massey -> Chien search."""
        word = _as_bits(received, self.n, "codeword")
        synd = self._syndromes_at(np.flatnonzero(word))
        if not synd.any():
            return DecodeResult(DecodeStatus.CORRECTED, self.extract_data(word), 0)

        sigma = self._berlekamp_massey(synd.tolist())
        degree = len(sigma) - 1
        if degree > self.t:
            return DecodeResult(DecodeStatus.DETECTED_UNCORRECTABLE, None, 0)

        positions = self._chien_search(sigma)
        if positions is None or len(positions) != degree:
            return DecodeResult(DecodeStatus.DETECTED_UNCORRECTABLE, None, 0)
        # Re-verify: a miscorrection beyond design distance could leave a
        # nonzero syndrome; treat that as detected. Flipping the positions
        # XORs their columns into the syndromes, so they must cancel.
        if (self._syndromes_at(positions) != synd).any():
            return DecodeResult(DecodeStatus.DETECTED_UNCORRECTABLE, None, 0)
        word[positions] ^= 1
        return DecodeResult(
            DecodeStatus.CORRECTED,
            self.extract_data(word),
            len(positions),
            tuple(positions),
        )

    def _berlekamp_massey(self, synd: List[int]) -> List[int]:
        """Error-locator polynomial sigma(x), lowest degree first."""
        field = self.field
        sigma = [1]
        prev_sigma = [1]
        l = 0  # current LFSR length
        shift = 1  # steps since prev_sigma was saved
        prev_discrepancy = 1
        for step, s in enumerate(synd):
            # Discrepancy for this step.
            d = s
            for i in range(1, l + 1):
                if i < len(sigma) and sigma[i]:
                    d ^= field.mul(sigma[i], synd[step - i])
            if d == 0:
                shift += 1
                continue
            scale = field.div(d, prev_discrepancy)
            correction = [0] * shift + [field.mul(scale, c) for c in prev_sigma]
            new_sigma = list(sigma) + [0] * max(0, len(correction) - len(sigma))
            for i, c in enumerate(correction):
                new_sigma[i] ^= c
            if 2 * l <= step:
                prev_sigma = sigma
                prev_discrepancy = d
                l = step + 1 - l
                shift = 1
            else:
                shift += 1
            sigma = new_sigma
        # Trim trailing zeros.
        while len(sigma) > 1 and sigma[-1] == 0:
            sigma.pop()
        return sigma

    def _chien_search(self, sigma: List[int]) -> Optional[List[int]]:
        """Roots of sigma(x) as error positions within the shortened word.

        An error at position ``i`` contributes locator ``X = alpha^i``; a
        root of sigma at ``x = X^-1 = alpha^(order - i)``. sigma is
        evaluated at every nonzero field point at once; its roots come back
        in ascending position order (fewer than its degree when some roots
        lie outside the field). Returns ``None`` when any root points
        outside the shortened length (the error pattern cannot come from
        <= t errors in the transmitted word). sigma must have degree <= t.
        """
        coeffs = np.asarray(sigma)
        terms = np.flatnonzero(coeffs)
        logs = self.field.log_table[coeffs[terms]]
        values = self.field.exp_table[logs[:, None] + self._chien_table[terms]]
        roots = np.flatnonzero(np.bitwise_xor.reduce(values, axis=0) == 0)
        if roots.size and roots[-1] >= self.n:
            return None
        return roots.tolist()


def bch8_for_line(data_bits: int = 512) -> BCHCode:
    """The paper's line code: BCH-8 over a 512-bit payload (592, 512)."""
    return BCHCode(t=8, data_bits=data_bits)
