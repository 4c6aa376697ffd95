"""Truncated power series over the integers, exact up to a fixed order.

A series of order N stores coefficients of q^0 .. q^N; addition and
multiplication are exact modulo q^(N+1). Coefficients are plain Python
integers, so identity checks can never wrap. Infinite products are cut
at the first factor whose lowest non-constant exponent exceeds N, which
leaves every kept coefficient exact. The product builders apply each
sparse factor, 1/(1 - q^k) or 1 +- q^k, as one O(N) pass over the
coefficients, so a product of O(N) factors costs O(N^2).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable

from .enumeration import CountTable

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

    def coefficient(self, k: int) -> int:
        if not 0 <= k <= self.order:
            raise IndexError(f"exponent {k} outside truncation order {self.order}")
        return self._coeffs[k]

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

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self._coeffs], self.order)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return TruncatedSeries(
            [a + b for a, b in zip(self._coeffs, other._coeffs)], self.order
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return TruncatedSeries(
            [a - b for a, b in zip(self._coeffs, other._coeffs)], self.order
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        n = self.order
        out = [0] * (n + 1)
        for i, a in enumerate(self._coeffs):
            if a:
                for j, b in enumerate(other._coeffs[: n + 1 - i]):
                    if b:
                        out[i + j] += a * b
        return TruncatedSeries(out, n)

    def times_geometric(self, period: int) -> "TruncatedSeries":
        """Multiply by 1 + q^period + q^(2*period) + ... (divide by 1 - q^period)."""
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        # out[k] = c[k] + out[k - period], one block of `period` terms at a time.
        c = self._coeffs
        out = list(c[:period])
        for start in range(period, len(c), period):
            out += map(operator.add, c[start : start + period], out[start - period : start])
        return TruncatedSeries._from_coeffs(out)

    def times_binomial(self, exponent: int, sign: int) -> "TruncatedSeries":
        """Multiply by 1 + sign * q^exponent, for sign = 1 or -1."""
        if exponent < 1:
            raise ValueError(f"exponent must be >= 1, got {exponent}")
        if sign not in (1, -1):
            raise ValueError(f"sign must be 1 or -1, got {sign}")
        # out[k] = c[k] + sign * c[k - exponent] for k >= exponent, in one pass.
        c = self._coeffs
        combine = operator.add if sign == 1 else operator.sub
        return TruncatedSeries._from_coeffs(c[:exponent] + tuple(map(combine, c[exponent:], c)))

    def to_json_dict(self) -> dict:
        return {"order": self.order, "coefficients": list(self._coeffs)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TruncatedSeries":
        return cls(obj["coefficients"], obj["order"])


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of a coefficient-wise comparison of two series."""

    equal: bool
    first_mismatch: int | None = None
    lhs_coefficient: int | None = None
    rhs_coefficient: int | None = None


def check_identity(lhs: TruncatedSeries, rhs: TruncatedSeries) -> IdentityCheck:
    """Compare coefficient-wise; report the first mismatching exponent."""
    if lhs.order != rhs.order:
        raise ValueError(f"order mismatch: {lhs.order} != {rhs.order}")
    for k, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs)):
        if a != b:
            return IdentityCheck(False, k, a, b)
    return IdentityCheck(True)


def series_from_counts(table: CountTable, stride: int, order: int) -> TruncatedSeries:
    """Series with table[n] at exponent stride*n, zero elsewhere."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    need = order // stride
    if table.max_n < need:
        raise ValueError(
            f"table covers n <= {table.max_n} but order {order} needs n <= {need}"
        )
    coeffs = [0] * (order + 1)
    for n in range(need + 1):
        coeffs[stride * n] = table.rows[n]
    return TruncatedSeries(coeffs, order)


def triangular_series(order: int) -> TruncatedSeries:
    """Coefficient 1 at every triangular exponent 0, 1, 3, 6, 10, ..."""
    coeffs = [0] * (order + 1)
    k = 0
    while k * (k + 1) // 2 <= order:
        coeffs[k * (k + 1) // 2] = 1
        k += 1
    return TruncatedSeries(coeffs, order)


def core_product_series(t: int, order: int) -> TruncatedSeries:
    """Product expansion of the t-core counting series.

    Expands prod over n >= 1 of (1 - q^(nt))^t / (1 - q^n) to the given
    order; its coefficient at q^n is the number of t-core partitions of n.
    """
    if t < 1:
        raise ValueError(f"modulus must be a positive integer, got {t}")
    out = TruncatedSeries.one(order)
    for n in range(1, order + 1):
        out = out.times_geometric(n)
    for n in range(1, order // t + 1):
        for _ in range(t):
            out = out.times_binomial(n * t, -1)
    return out


def sc_even_core_product_series(t: int, order: int) -> TruncatedSeries:
    """Product expansion of the self-conjugate 2t-core counting series.

    Expands prod over n >= 1 of (1 - q^(4nt))^t (1 + q^(2n-1)); its
    coefficient at q^n counts self-conjugate 2t-core partitions of n.
    """
    if t < 1:
        raise ValueError(f"modulus must be a positive integer, got {t}")
    out = TruncatedSeries.one(order)
    for n in range(1, order // (4 * t) + 1):
        for _ in range(t):
            out = out.times_binomial(4 * n * t, -1)
    for odd in range(1, order + 1, 2):
        out = out.times_binomial(odd, 1)
    return out


def gauss_product_series(order: int) -> TruncatedSeries:
    """Product expansion of prod over n >= 1 of (1 - q^(2n)) / (1 - q^(2n-1)).

    Equals the triangular-exponent series to any order.
    """
    out = TruncatedSeries.one(order)
    for odd in range(1, order + 1, 2):
        out = out.times_geometric(odd).times_binomial(odd + 1, -1)
    return out
