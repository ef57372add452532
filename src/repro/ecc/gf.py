"""Galois-field arithmetic GF(2^m) for the BCH codec.

Field elements are represented as integers 0 .. 2^m - 1 whose bits are the
coefficients of a polynomial over GF(2), reduced modulo a primitive
polynomial. Multiplication/division go through exp/log tables built once
per field (and shared through :func:`get_field`). Scalar arithmetic reads
the list copies; the BCH codec's array stages (syndromes, Chien search)
gather from the numpy copies ``exp_table`` / ``log_table``, so a decode
does a handful of array operations instead of per-bit field calls.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List

import numpy as np

__all__ = ["GF2m", "PRIMITIVE_POLYS", "get_field"]

#: Default primitive polynomials (as integers, including the x^m term) for
#: the field sizes the codec supports. E.g. m=10 -> x^10 + x^3 + 1 = 0x409.
PRIMITIVE_POLYS = {
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
}


class GF2m:
    """The finite field GF(2^m) with exp/log table arithmetic.

    Args:
        m: Field degree; the field has ``2^m`` elements.
        primitive_poly: Primitive polynomial as an integer (bit ``i`` is the
            coefficient of ``x^i``); defaults to a standard choice per m.
    """

    def __init__(self, m: int, primitive_poly: int = 0) -> None:
        if m not in PRIMITIVE_POLYS and not primitive_poly:
            raise ValueError(f"no default primitive polynomial for m={m}")
        self.m = m
        self.size = 1 << m
        self.order = self.size - 1  # multiplicative group order
        self.poly = primitive_poly or PRIMITIVE_POLYS[m]
        if self.poly >> m != 1:
            raise ValueError("primitive polynomial must have degree m")
        self._exp: List[int] = [0] * (2 * self.order)
        self._log: List[int] = [0] * self.size
        value = 1
        for i in range(self.order):
            if i > 0 and value == 1:
                # The generator cycled early: the polynomial's root has
                # order < 2^m - 1, so the polynomial is not primitive.
                raise ValueError("polynomial is not primitive for this field")
            self._exp[i] = value
            self._log[value] = i
            value <<= 1
            if value & self.size:
                value ^= self.poly
        if value != 1:
            raise ValueError("polynomial is not primitive for this field")
        # Duplicate the exp table so products of logs need no modulo.
        for i in range(self.order, 2 * self.order):
            self._exp[i] = self._exp[i - self.order]
        #: ``exp_table[p] = alpha ** p`` for ``0 <= p < 2 * order``, so a
        #: sum of two logs indexes it without a modulo.
        self.exp_table = np.array(self._exp, dtype=np.intp)
        #: ``log_table[v]`` = discrete log of ``v``; entry 0 is meaningless.
        self.log_table = np.array(self._log, dtype=np.intp)

    def exp(self, power: int) -> int:
        """``alpha ** power`` for the field generator alpha."""
        return self._exp[power % self.order]

    def log(self, value: int) -> int:
        """Discrete log base alpha; undefined (raises) for 0."""
        if value == 0:
            raise ValueError("log(0) is undefined")
        return self._log[value]

    def mul(self, a: int, b: int) -> int:
        """Field product."""
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def div(self, a: int, b: int) -> int:
        """Field quotient ``a / b``."""
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(2^m)")
        if a == 0:
            return 0
        return self._exp[(self._log[a] - self._log[b]) % self.order]

    def inv(self, a: int) -> int:
        """Multiplicative inverse."""
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self._exp[self.order - self._log[a]]

    def pow(self, a: int, exponent: int) -> int:
        """``a ** exponent`` in the field."""
        if a == 0:
            if exponent == 0:
                return 1
            if exponent < 0:
                raise ZeroDivisionError("0 ** negative")
            return 0
        return self._exp[(self._log[a] * exponent) % self.order]

    # ------------------------------------------------------------ polynomials
    # Polynomials over the field are lists of coefficients, lowest degree
    # first; an empty list is the zero polynomial.

    def poly_eval(self, coeffs: List[int], x: int) -> int:
        """Evaluate a polynomial at ``x`` (Horner)."""
        result = 0
        for coeff in reversed(coeffs):
            result = self.mul(result, x) ^ coeff
        return result

    def poly_mul(self, a: List[int], b: List[int]) -> List[int]:
        """Product of two polynomials over the field."""
        if not a or not b:
            return []
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] ^= self.mul(ca, cb)
        return out

    def minimal_polynomial(self, element_log: int) -> int:
        """Minimal polynomial over GF(2) of ``alpha ** element_log``.

        Returned as an integer bit mask (bit ``i`` = coefficient of
        ``x^i``). Computed from the conjugacy class
        ``{alpha^(e * 2^j)}``.
        """
        # Collect the cyclotomic coset of element_log mod (2^m - 1).
        coset = []
        current = element_log % self.order
        while current not in coset:
            coset.append(current)
            current = (current * 2) % self.order
        poly = [1]  # constant 1
        for power in coset:
            root = self._exp[power]
            poly = self.poly_mul(poly, [root, 1])  # (x + root)
        # The product of a full conjugacy class has GF(2) coefficients.
        mask = 0
        for i, coeff in enumerate(poly):
            if coeff not in (0, 1):
                raise AssertionError("minimal polynomial not over GF(2)")
            if coeff:
                mask |= 1 << i
        return mask


@lru_cache(maxsize=None)
def _field_cache(m: int, poly: int) -> GF2m:
    return GF2m(m, poly)


def get_field(m: int, primitive_poly: int = 0) -> GF2m:
    """Shared, cached field instance (table construction is O(2^m))."""
    poly = primitive_poly or PRIMITIVE_POLYS.get(m, 0)
    if not poly:
        raise ValueError(f"no default primitive polynomial for m={m}")
    return _field_cache(m, poly)
