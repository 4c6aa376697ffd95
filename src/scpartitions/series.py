"""Truncated power series over the integers, exact up to a fixed order.

A series of order N stores coefficients of q^0 .. q^N; addition and
multiplication are exact modulo q^(N+1). Coefficients are plain Python
integers, so identity checks can never wrap. Infinite products are cut
at the first factor whose lowest non-constant exponent exceeds N, which
leaves every kept coefficient exact. A sparse factor 1/(1 - q^k) is one
O(N) pass over the coefficients. By Euler's pentagonal number theorem a
whole product prod_n (1 - q^(kn)) has O(sqrt(N/k)) terms, one pass each,
and prod_n 1/(1 - q^n) is the series of p(n): the t-core and
self-conjugate even-core builders cost O(N^1.5). So does the Gauss
builder, whose odd factors are a sum of O(sqrt(N)) terms, one geometric
pass each. A dense product (`*`) is one big-integer multiply by
Kronecker substitution, O(N^1.58) in C (Karatsuba) for digits of a
fixed width. Digits of 1, 2, 4 or 8 bytes are packed and read back by
one `struct` call per series; other widths by one `int.to_bytes` or
`int.from_bytes` per coefficient. Either way that is O(N) at C speed.
series_from_counts reads a count table: a tuple indexed by weight.
"""

from __future__ import annotations

import operator
import struct
from itertools import accumulate, repeat
from typing import Iterable, Iterator, NamedTuple

from .enumeration import _pentagonal, partition_count_table
from .partitions import check_moduli

__all__ = [
    "TruncatedSeries",
    "IdentityCheck",
    "series_from_counts",
    "triangular_series",
    "core_product_series",
    "sc_even_core_product_series",
    "gauss_product_series",
    "check_identity",
]


class TruncatedSeries:
    """Integer coefficients of q^0 .. q^order with truncating arithmetic."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int], order: int | None = None):
        try:
            cs = [operator.index(c) for c in coeffs]
        except TypeError as exc:
            raise ValueError(f"coefficients must be integers: {exc}") from exc
        if order is None:
            if not cs:
                cs = [0]
            order = len(cs) - 1
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        if len(cs) > order + 1:
            raise ValueError(f"{len(cs)} coefficients exceed order {order}")
        cs.extend([0] * (order + 1 - len(cs)))
        self._coeffs = tuple(cs)

    @classmethod
    def _from_coeffs(cls, coeffs: Iterable[int]) -> "TruncatedSeries":
        # Trusted constructor for coefficients computed here from a series' ints.
        self = cls.__new__(cls)
        self._coeffs = tuple(coeffs)
        return self

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([1], order)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    def _check_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} != {other.order}")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruncatedSeries) and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self._coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"TruncatedSeries([{head}{tail}], order={self.order})"

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return TruncatedSeries._from_coeffs(map(operator.add, self._coeffs, other._coeffs))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Exact truncated product, by Kronecker substitution.

        Each series is read as an integer at q = 256^size and the two are
        multiplied once; the low order + 1 base-q digits are the product's
        coefficients. A coefficient of the product is a sum of at most
        order + 1 terms a_i * b_j, so with half = 2^(8 size - 1) above that
        bound and above every input coefficient, digits biased by half are
        nonnegative and below q: no digit carries into the next.

        Digits of 1, 2, 4 or 8 bytes take one struct call per series, other
        widths _pack and _unpack. A digit's two's complement with its top bit
        flipped is the digit plus half, so one XOR biases every digit.
        """
        self._check_order(other)
        a, b = self._coeffs, other._coeffs
        n = len(a)
        top_a, top_b = max(max(a), -min(a)), max(max(b), -min(b))
        size = max(top_a * top_b * n, top_a, top_b).bit_length() // 8 + 1
        # half * (1 + q + ... + q^order): every digit's bias, and the mask of its top bit.
        biases = int.from_bytes(b"\x80".rjust(size, b"\0") * n, "little")
        code = {1: "b", 2: "h", 4: "i", 8: "q"}.get(size)  # struct's signed word of size bytes
        if code is None:
            half = 1 << (8 * size - 1)
            product = (_pack(a, size, half) - biases) * (_pack(b, size, half) - biases)
            return TruncatedSeries._from_coeffs(_unpack(product + biases, size, n, half))
        fmt = f"<{n}{code}"
        x = int.from_bytes(struct.pack(fmt, *a), "little") ^ biases
        y = int.from_bytes(struct.pack(fmt, *b), "little") ^ biases
        low = ((x - biases) * (y - biases) + biases) & ((1 << 8 * size * n) - 1)
        digits = (low ^ biases).to_bytes(size * n, "little")
        return TruncatedSeries._from_coeffs(struct.unpack(fmt, digits))

    def times_geometric(self, period: int) -> "TruncatedSeries":
        """Multiply by 1 + q^period + q^(2*period) + ... (divide by 1 - q^period).

        out[k] = c[k] + out[k - period]: each residue class mod period is a
        running sum. A short period takes one accumulate per class; a long
        one, one map per block of `period` terms. Either way it is one
        O(order) pass in O(sqrt(order)) interpreter steps.
        """
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        c = self._coeffs
        if period * period < len(c):
            out = list(c)
            for r in range(period):
                out[r::period] = accumulate(c[r::period])
            return TruncatedSeries._from_coeffs(out)
        out = list(c[:period])
        for start in range(period, len(c), period):
            out += map(operator.add, c[start : start + period], out[start - period : start])
        return TruncatedSeries._from_coeffs(out)

    def to_json_dict(self) -> dict:
        return {"order": self.order, "coefficients": list(self._coeffs)}


class IdentityCheck(NamedTuple):
    """Outcome of a coefficient-wise comparison of two series."""

    equal: bool
    first_mismatch: int | None = None
    lhs_coefficient: int | None = None
    rhs_coefficient: int | None = None


def _pack(coeffs: tuple[int, ...], size: int, half: int) -> int:
    """Sum of (c_i + half) * 256^(size * i): each coefficient as one size-byte digit."""
    return int.from_bytes(
        b"".join(map(int.to_bytes, map(half.__add__, coeffs), repeat(size), repeat("little"))),
        "little",
    )


def _unpack(value: int, size: int, count: int, half: int) -> Iterator[int]:
    """The low `count` size-byte digits of value, each less half."""
    end = size * count
    raw = (value & ((1 << (8 * end)) - 1)).to_bytes(end, "little")
    digits = zip(*[iter(raw)] * size)  # one iterator drawn size times: each digit's bytes
    return map(half.__rsub__, map(int.from_bytes, digits, repeat("little")))


def check_identity(lhs: TruncatedSeries, rhs: TruncatedSeries) -> IdentityCheck:
    """Compare coefficient-wise; report the first mismatching exponent."""
    if lhs.order != rhs.order:
        raise ValueError(f"order mismatch: {lhs.order} != {rhs.order}")
    for k, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs)):
        if a != b:
            return IdentityCheck(False, k, a, b)
    return IdentityCheck(True)


def series_from_counts(counts: tuple[int, ...], stride: int, order: int) -> TruncatedSeries:
    """Series with counts[n] at exponent stride*n, zero elsewhere."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    need = order // stride
    if len(counts) - 1 < need:
        raise ValueError(
            f"table covers n <= {len(counts) - 1} but order {order} needs n <= {need}"
        )
    coeffs = [0] * (order + 1)
    for n in range(need + 1):
        coeffs[stride * n] = counts[n]
    return TruncatedSeries(coeffs, order)


def triangular_series(order: int) -> TruncatedSeries:
    """Coefficient 1 at every triangular exponent 0, 1, 3, 6, 10, ..."""
    coeffs = [0] * (order + 1)
    k = 0
    while k * (k + 1) // 2 <= order:
        coeffs[k * (k + 1) // 2] = 1
        k += 1
    return TruncatedSeries(coeffs, order)


def _times_euler(s: TruncatedSeries, k: int) -> TruncatedSeries:
    """Multiply by prod over n >= 1 of (1 - q^(kn)).

    The product is 1 plus sign * q^(kg) over the generalized pentagonal
    numbers g (_pentagonal), so it is one shifted pass per g with kg <=
    order: O(sqrt(order / k)) passes instead of order / k.
    """
    c = s.coeffs
    out = list(c)
    for g, sign in _pentagonal(s.order // k):
        shift = k * g
        out[shift:] = map(operator.add if sign == 1 else operator.sub, out[shift:], c)
    return TruncatedSeries._from_coeffs(out)


def core_product_series(t: int, order: int) -> TruncatedSeries:
    """Product expansion of the t-core counting series.

    Expands prod over n >= 1 of (1 - q^(nt))^t / (1 - q^n) to the given
    order; its coefficient at q^n is the number of t-core partitions of n.
    The quotient by prod (1 - q^n) is the series of p(n); each of the t
    Euler factors costs O(sqrt(order / t)) passes, O(order^1.5) in all.
    For t > order every Euler factor is 1 modulo q^(order + 1).
    """
    check_moduli((t,))
    out = series_from_counts(partition_count_table(order), 1, order)
    if t <= order:
        for _ in range(t):
            out = _times_euler(out, t)
    return out


def sc_even_core_product_series(t: int, order: int) -> TruncatedSeries:
    """Product expansion of the self-conjugate 2t-core counting series.

    Expands prod over n >= 1 of (1 - q^(4nt))^t (1 + q^(2n-1)); its
    coefficient at q^n counts self-conjugate 2t-core partitions of n.
    Each odd factor is the quotient (1 - q^(4n-2)) / (1 - q^(2n-1)), so
    with (a; a) = prod over n >= 1 of (1 - a^n) their product is
    (q^2; q^2)^2 / ((q; q) (q^4; q^4)). The even half (q^2; q^2)^2 / (q; q)
    is the series of p(n) times two Euler products in q^2; the quarter
    half (q^(4t); q^(4t))^t / (q^4; q^4) is p(n) at q^(4n) times t Euler
    products in q^(4t) (none once 4t > order). Each half is O(order^1.5)
    and their product is one dense multiply of small coefficients.
    """
    check_moduli((t,))
    even = _times_euler(series_from_counts(partition_count_table(order), 1, order), 2)
    even = _times_euler(even, 2)
    quad = series_from_counts(partition_count_table(order // 4), 4, order)
    if 4 * t <= order:
        for _ in range(t):
            quad = _times_euler(quad, 4 * t)
    return even * quad


def gauss_product_series(order: int) -> TruncatedSeries:
    """Product expansion of prod over n >= 1 of (1 - q^(2n)) / (1 - q^(2n-1)).

    Equals the triangular-exponent series to any order. The numerator is
    one Euler product, O(sqrt(order)) passes. By Euler's odd/distinct
    theorem the odd factors are prod over n >= 1 of (1 + q^n), and a
    partition into k distinct parts less the staircase (k, ..., 1) is one
    into parts <= k, so prod 1 / (1 - q^(2n-1)) is the sum over k >= 0 of
    q^(k(k+1)/2) / ((1 - q) (1 - q^2) ... (1 - q^k)). Each term is the one
    before shifted by k and passed through times_geometric(k): sqrt(2 order)
    passes, O(order^1.5). It reads no p(n) table, so the gauss check
    shares no route with eq1.2.
    """
    term = total = TruncatedSeries.one(order)
    k = 1
    while k * (k + 1) // 2 <= order:
        term = TruncatedSeries._from_coeffs((0,) * k + term.coeffs[:-k]).times_geometric(k)
        total += term
        k += 1
    return _times_euler(total, 2)
