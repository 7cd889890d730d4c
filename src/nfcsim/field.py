"""Arithmetic over GF(2^m).

Field elements are plain integers in [0, 2^m) whose bits are polynomial
coefficients over GF(2); packets and matrices are numpy arrays (uint8 for
m <= 8, uint16 above). Every m in 1..16 multiplies through the same
log/antilog tables: the antilog table is doubled and followed by a zero
tail, and log(0) points into that tail, so a product is one gather
``exp.take(log.take(x) + log.take(y))`` (int32 logs) with no zero test.
"""

from __future__ import annotations

import numpy as np

# One irreducible polynomial per supported extension degree. 0x11B for
# m=8 keeps packets byte-aligned and matches common RLNC practice.
DEFAULT_POLYNOMIALS = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0x11B,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


def _poly_mod(a: int, b: int) -> int:
    """Remainder of carry-less polynomial division of a by b."""
    bl = b.bit_length()
    while a.bit_length() >= bl:
        a ^= b << (a.bit_length() - bl)
    return a


def _mul_by(a: np.ndarray, c: int, poly: int) -> np.ndarray:
    """Every entry of a times the constant c, modulo poly (shift-and-add)."""
    m = poly.bit_length() - 1
    acc = np.zeros_like(a)
    while c:
        if c & 1:
            acc ^= a
        c >>= 1
        a = a << 1
        a ^= (a >> m) * poly
    return acc


def _powers(g: int, poly: int) -> np.ndarray | None:
    """g^0 .. g^(q-1) if g generates the multiplicative group, else None.

    Fills by doubling, exp[k:2k] = g^k * exp[:k], and gives up as soon as
    a power below q-1 returns to 1.
    """
    q = 1 << (poly.bit_length() - 1)
    exp = np.empty(q, dtype=np.uint32)
    exp[0] = 1
    k = 1
    while k < q:
        g_k = int(_mul_by(exp[k - 1 : k], g, poly)[0])
        exp[k : 2 * k] = _mul_by(exp[:k], g_k, poly)
        if (exp[k : min(2 * k, q - 1)] == 1).any():
            return None
        k *= 2
    return exp


def _is_irreducible(poly: int, m: int) -> bool:
    """Exhaustive trial division by every polynomial of degree 1..m//2."""
    if poly & 1 == 0:  # divisible by x
        return False
    for deg in range(1, m // 2 + 1):
        for divisor in range(1 << deg, 1 << (deg + 1)):
            if _poly_mod(poly, divisor) == 0:
                return False
    return True


class FieldSpec:
    """GF(2^m) under a validated irreducible reduction polynomial.

    Stateless after construction; all methods are pure and safe to call
    from any number of threads.
    """

    def __init__(self, m: int = 8, reduction_polynomial: int | None = None):
        if not 1 <= m <= 16:
            raise ValueError(f"extension degree m={m} outside supported range 1..16")
        if reduction_polynomial is None:
            reduction_polynomial = DEFAULT_POLYNOMIALS[m]
        if reduction_polynomial < 0:
            raise ValueError(f"reduction polynomial {reduction_polynomial} is negative")
        if reduction_polynomial.bit_length() != m + 1:
            raise ValueError(
                f"reduction polynomial 0x{reduction_polynomial:X} does not have degree {m}"
            )
        if not _is_irreducible(reduction_polynomial, m):
            raise ValueError(
                f"reduction polynomial 0x{reduction_polynomial:X} is reducible over GF(2)"
            )
        self.m = m
        self.reduction_polynomial = reduction_polynomial
        self.order = 1 << m
        self.dtype = np.uint8 if m <= 8 else np.uint16
        self._build_tables()

    def __repr__(self) -> str:
        return f"FieldSpec(m={self.m}, reduction_polynomial=0x{self.reduction_polynomial:X})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and other.m == self.m
            and other.reduction_polynomial == self.reduction_polynomial
        )

    def __hash__(self) -> int:
        return hash((self.m, self.reduction_polynomial))

    def _build_tables(self) -> None:
        n = self.order - 1
        exp = next(
            p for g in range(1, self.order)
            if (p := _powers(g, self.reduction_polynomial)) is not None
        )[:n]
        # exp[i] = g^i twice over, so log sums up to 2n-2 need no modulo;
        # log(0) = 2n lands any sum with a zero factor in the zero tail.
        sentinel = 2 * n
        self._exp = np.zeros(2 * sentinel + 1, dtype=self.dtype)
        self._exp[:n] = self._exp[n:sentinel] = exp
        self._log = np.empty(self.order, dtype=np.int32)
        self._log[exp] = np.arange(n)
        self._log[0] = sentinel

    def validate_array(self, arr: np.ndarray) -> np.ndarray:
        """Cast to the field dtype after checking every value fits the field.

        Floats must be whole numbers: 3.0 passes, 1.5 and nan raise rather
        than truncate.
        """
        arr = np.asarray(arr)
        if arr.dtype.kind == "f" and (arr != np.trunc(arr)).any():
            raise ValueError("array contains values that are not whole numbers")
        if arr.size and (arr.min() < 0 or arr.max() >= self.order):
            raise ValueError(f"array contains values outside GF(2^{self.m})")
        return arr.astype(self.dtype)

    def mul_arrays(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Elementwise product with numpy broadcasting."""
        return self._exp.take(self._log.take(x) + self._log.take(y))

    def inv_arrays(self, x: np.ndarray) -> np.ndarray:
        """Elementwise inverse of nonzero entries through the log table.

        A zero entry has no inverse; its index falls in the zero tail, so
        it maps to zero instead of raising.
        """
        return self._exp.take(self.order - 1 - self._log.take(x))

    def combine(self, coeffs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """sum_i coeffs[..., i] * rows[..., i, :], the network-coding workhorse.

        coeffs has shape (..., P), rows (..., P, W) with broadcastable
        leading batch axes; returns shape (..., W). An empty P yields
        the zero vector.
        """
        rows = np.asarray(rows)
        coeffs = np.asarray(coeffs, dtype=self.dtype)[..., None]
        if rows.shape[-2] == 0:
            return np.zeros(rows.shape[:-2] + rows.shape[-1:], dtype=self.dtype)
        return np.bitwise_xor.reduce(self.mul_arrays(coeffs, rows), axis=-2)

    def random_elements(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Uniform draws over the whole field, zero included."""
        return rng.integers(0, self.order, size=shape, dtype=self.dtype)

