"""Integer partitions, Young diagrams, and hook-length machinery.

Rows and columns of a Young diagram are indexed from 1. A self-conjugate
partition is determined by its main-diagonal hook lengths, a strictly
decreasing set of distinct odd positive integers; the functions at the
bottom of this module convert between the two representations.
"""

from __future__ import annotations

import operator
from collections import Counter
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "Partition",
    "PartitionError",
    "DiagonalClasses",
    "parse_partition",
    "sc_from_diagonal",
    "split_diagonal_classes",
    "beta_from_diagonal",
    "check_moduli",
]


class PartitionError(ValueError):
    """A sequence that does not describe a valid partition."""


def check_moduli(ts: Iterable[int]) -> tuple[int, ...]:
    """The moduli as a tuple; ValueError unless nonempty and all positive."""
    moduli = tuple(ts)
    if not moduli:
        raise ValueError("modulus list must be nonempty")
    for t in moduli:
        if t < 1:
            raise ValueError(f"modulus must be a positive integer, got {t}")
    return moduli


def _beta_core(beta: set[int], ts: tuple[int, ...]) -> bool:
    # A partition has no hook divisible by t exactly when its first-column
    # hook set is closed under subtracting t (abacus criterion).
    return all(x < t or (x - t) in beta for t in ts for x in beta)


class Partition:
    """A partition: weakly decreasing sequence of positive integer parts.

    Immutable and hashable. The empty partition is the unique partition
    of 0. Trailing zeros are stripped on construction; any other
    non-positive entry or an increasing step is rejected.
    """

    __slots__ = ("_parts", "_conj")

    def __init__(self, parts: Iterable[int] = ()):
        try:
            cleaned = tuple(operator.index(x) for x in parts)
        except TypeError as exc:
            raise PartitionError(f"parts must be integers: {exc}") from exc
        while cleaned and cleaned[-1] == 0:
            cleaned = cleaned[:-1]
        for i, x in enumerate(cleaned):
            if x <= 0:
                raise PartitionError(f"part at index {i} is not positive: {x}")
            if i and cleaned[i - 1] < x:
                raise PartitionError(
                    f"parts increase at index {i}: {cleaned[i - 1]} < {x}"
                )
        self._parts = cleaned
        self._conj = None

    @classmethod
    def _from_parts(cls, parts: tuple[int, ...]) -> "Partition":
        # Trusted constructor for internally generated, already-canonical data.
        self = cls.__new__(cls)
        self._parts = parts
        self._conj = None
        return self

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def weight(self) -> int:
        """The partitioned number (total count of boxes)."""
        return sum(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __getitem__(self, i: int) -> int:
        return self._parts[i]

    def __bool__(self) -> bool:
        return bool(self._parts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        return f"Partition({list(self._parts)!r})"

    def __str__(self) -> str:
        return ",".join(str(x) for x in self._parts)

    def _conjugate_parts(self) -> tuple[int, ...]:
        if self._conj is None:
            if self._parts:
                width = self._parts[0]
                tally = [0] * (width + 1)
                for p in self._parts:
                    tally[p] += 1
                cols = []
                running = 0
                for j in range(width, 0, -1):
                    running += tally[j]
                    cols.append(running)
                cols.reverse()
                self._conj = tuple(cols)
            else:
                self._conj = ()
        return self._conj

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram; an involution."""
        return Partition._from_parts(self._conjugate_parts())

    def is_self_conjugate(self) -> bool:
        return self._parts == self._conjugate_parts()

    def durfee_side(self) -> int:
        """Largest d with at least d parts of size >= d (diagonal box count)."""
        d = 0
        for i, row in enumerate(self._parts, start=1):
            if row < i:
                break
            d = i
        return d

    def hook_length(self, i: int, j: int) -> int:
        """Hook length of box (i, j): boxes to the right, below, and itself.

        Raises IndexError when (i, j) lies outside the diagram; a hook
        length of an actual box is always at least 1.
        """
        if not (1 <= i <= len(self._parts) and 1 <= j <= self._parts[i - 1]):
            raise IndexError(f"box ({i}, {j}) is outside the diagram of {self!r}")
        return self._parts[i - 1] + self._conjugate_parts()[j - 1] - i - j + 1

    def hook_multiset(self) -> Counter:
        """Multiset of all hook lengths, keyed by value; total equals the weight."""
        conj = self._conjugate_parts()
        hooks: list[int] = []
        for i, row in enumerate(self._parts, start=1):
            hooks.extend(row + conj[j] - i - j for j in range(row))
        return Counter(hooks)

    def beta_set(self) -> tuple[int, ...]:
        """First-column hook lengths, strictly decreasing; one per part."""
        ell = len(self._parts)
        return tuple(p + ell - i for i, p in enumerate(self._parts, start=1))

    def diagonal_hooks(self) -> tuple[int, ...]:
        """Main-diagonal hook lengths of a self-conjugate partition.

        These are distinct odd integers and determine the partition.
        Raises ValueError for non-self-conjugate input.
        """
        if not self.is_self_conjugate():
            raise ValueError(f"partition ({self}) is not self-conjugate")
        return tuple(2 * self._parts[i] - 2 * i - 1 for i in range(self.durfee_side()))

    def disparity(self) -> int:
        """Number of odd hook lengths minus number of even ones."""
        conj = self._conjugate_parts()
        total = 0
        for i, row in enumerate(self._parts, start=1):
            for j in range(row):
                total += 1 if (row + conj[j] - i - j) % 2 else -1
        return total

    def is_t_core(self, t: int) -> bool:
        """True when no hook length is a multiple of t."""
        return self.is_simultaneous_core((t,))

    def is_simultaneous_core(self, ts: Iterable[int]) -> bool:
        """True when the partition is a t-core for every modulus in ts."""
        return _beta_core(set(self.beta_set()), check_moduli(ts))


class DiagonalClasses(NamedTuple):
    """Diagonal hooks split by residue mod 4, each part kept decreasing."""

    d1: tuple[int, ...]
    d3: tuple[int, ...]


def parse_partition(text: str) -> Partition:
    """Parse the wire form: comma-separated decreasing parts, '' for empty."""
    text = text.strip()
    if not text:
        return Partition()
    parts = []
    for i, token in enumerate(text.split(",")):
        token = token.strip()
        try:
            parts.append(int(token))
        except ValueError:
            raise PartitionError(f"token {i} is not an integer: {token!r}") from None
    return Partition(parts)


def _validated_deltas(deltas: Iterable[int]) -> tuple[int, ...]:
    ds = tuple(operator.index(x) for x in deltas)
    for x in ds:
        if x < 1:
            raise ValueError(f"diagonal hook {x} is not positive")
        if x % 2 == 0:
            raise ValueError(f"diagonal hook {x} is even")
    if len(set(ds)) != len(ds):
        raise ValueError(f"duplicate diagonal hooks in {sorted(ds, reverse=True)}")
    return tuple(sorted(ds, reverse=True))


def sc_from_diagonal(deltas: Iterable[int]) -> Partition:
    """The unique self-conjugate partition with the given diagonal hooks.

    Inverse of Partition.diagonal_hooks; the weight is the sum of the
    hooks. Entries may come in any order but must be distinct, odd and
    positive.
    """
    ds = _validated_deltas(deltas)
    d = len(ds)
    head = [(ds[i] - 1) // 2 + i + 1 for i in range(d)]
    parts = list(head)
    for row in range(d + 1, (head[0] if head else 0) + 1):
        c = sum(1 for h in head if h >= row)
        if c == 0:
            break
        parts.append(c)
    return Partition._from_parts(tuple(parts))


def split_diagonal_classes(deltas: Iterable[int]) -> DiagonalClasses:
    """Split diagonal hooks by residue mod 4 (1 vs 3), order preserved."""
    ds = _validated_deltas(deltas)
    return DiagonalClasses(
        d1=tuple(x for x in ds if x % 4 == 1),
        d3=tuple(x for x in ds if x % 4 == 3),
    )


def beta_from_diagonal(deltas: Iterable[int]) -> tuple[int, ...]:
    """First-column hook set of the self-conjugate partition with these hooks.

    Computed directly from the diagonal hooks: averages (d1+di)/2 for the
    rows meeting the diagonal, and for the rows below it the values
    (d1-1)/2, (d1-3)/2, ..., 1 with the differences (d1-dj)/2 removed.
    Agrees with sc_from_diagonal(deltas).beta_set().
    """
    ds = _validated_deltas(deltas)
    if not ds:
        return ()
    top = ds[0]
    upper = {(top + x) // 2 for x in ds}
    lower = set(range(1, (top - 1) // 2 + 1))
    lower -= {(top - x) // 2 for x in ds[1:]}
    return tuple(sorted(upper | lower, reverse=True))
