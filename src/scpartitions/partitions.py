"""Integer partitions, Young diagrams, and hook-length machinery.

Rows and columns of a Young diagram are indexed from 1. A self-conjugate
partition is determined by its main-diagonal hook lengths, a strictly
decreasing set of distinct odd positive integers; the functions at the
bottom of this module convert between the two representations, and a
partition built from its diagonal hooks carries them and its conjugate
(its own parts), so nothing derives either again.

Hook lengths come from the beads, the first-column hook set B: the hooks
are the differences x - y with x in B and 0 <= y < x not in B. A
partition packs its beads once into the bits of one integer, so the
count of hooks of each length is one big-integer product (the beads
times the reversed gaps, as digits), the t-core test one shift per
modulus, and the disparity depends only on how many beads are odd.
"""

from __future__ import annotations

import operator
import struct
from itertools import accumulate, takewhile
from typing import Iterable, Iterator

__all__ = [
    "Partition",
    "PartitionError",
    "parse_ints",
    "parse_partition",
    "sc_from_diagonal",
    "beta_from_diagonal",
    "check_moduli",
]


# A bit string as digits: a bead's "1" is the digit 1, or a gap's "0" is.
_BEAD_DIGITS = bytes.maketrans(b"01", b"\0\1")
_GAP_DIGITS = bytes.maketrans(b"01", b"\1\0")
# By the bit length of a digit's bound: the struct word (bytes, code) that holds it.
_WORDS = ((1, "B"),) * 9 + ((2, "H"),) * 8 + ((4, "I"),) * 16 + ((8, "Q"),) * 32


class PartitionError(ValueError):
    """A sequence that does not describe a valid partition."""


def check_moduli(ts: Iterable[int]) -> tuple[int, ...]:
    """The moduli as a tuple; ValueError unless nonempty and all positive."""
    moduli = tuple(ts)
    if not moduli:
        raise ValueError("modulus list must be nonempty")
    if min(moduli) < 1:
        for t in moduli:
            if t < 1:
                raise ValueError(f"modulus must be a positive integer, got {t}")
    return moduli


class Partition:
    """A partition: weakly decreasing sequence of positive integer parts.

    Immutable and hashable. The empty partition is the unique partition
    of 0. Trailing zeros are stripped on construction; any other
    non-positive entry or an increasing step is rejected.
    """

    __slots__ = ("_parts", "_conj", "_hooks", "_beads")

    def __init__(self, parts: Iterable[int] = ()):
        try:
            cleaned = tuple(map(operator.index, parts))
        except TypeError as exc:
            raise PartitionError(f"parts must be integers: {exc}") from exc
        if cleaned and cleaned[-1] == 0:
            # One slice past the last nonzero part keeps this linear in the zeros.
            zeros = len(list(takewhile(operator.not_, reversed(cleaned))))
            cleaned = cleaned[: len(cleaned) - zeros]
        # Weakly decreasing with a positive last part is valid; only an
        # invalid input walks the parts in Python, to name the first fault.
        if cleaned and not (cleaned[-1] > 0 and all(map(operator.ge, cleaned, cleaned[1:]))):
            for i, x in enumerate(cleaned):
                if x <= 0:
                    raise PartitionError(f"part at index {i} is not positive: {x}")
                if i and cleaned[i - 1] < x:
                    raise PartitionError(
                        f"parts increase at index {i}: {cleaned[i - 1]} < {x}"
                    )
        self._parts = cleaned
        self._conj = self._hooks = self._beads = None

    @classmethod
    def _from_parts(
        cls,
        parts: tuple[int, ...],
        conj: tuple[int, ...] | None = None,
        hooks: tuple[int, ...] | None = None,
    ) -> "Partition":
        # Trusted constructor for internally generated, already-canonical
        # data; conj, when given, must be the conjugate's parts, and hooks
        # the diagonal hooks of a self-conjugate partition.
        self = cls.__new__(cls)
        self._parts = parts
        self._conj = conj
        self._hooks = hooks
        self._beads = None
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
            tally = [0] * (self._parts[0] + 1 if self._parts else 1)
            for p in self._parts:
                tally[p] += 1
            # Column j counts the parts >= j: running sums from the widest down.
            self._conj = tuple(accumulate(tally[:0:-1]))[::-1]
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

    def hook_multiset(self) -> tuple[int, ...]:
        """Entry h counts the hooks of length h, up to the largest hook; () if empty.

        A hook of length h pairs a bead x with a gap x - h. With bead x at
        digit x of one integer and gap y at digit n - 1 - y of another (n
        the beads' bit length), digit n - 1 + h of their product counts the
        hooks of length h. A digit counts at most n // 2 pairs, since beads
        and gaps share n places, so a word that holds n // 2 never carries.
        """
        beads = self._bead_bits()
        if not beads:
            return ()
        n = beads.bit_length()
        size, code = _WORDS[(n // 2).bit_length()]
        bits = format(beads, "b").encode()  # bit n - 1 first
        x, y = bits.translate(_BEAD_DIGITS), bits[::-1].translate(_GAP_DIGITS)
        if size > 1:
            zero, one = bytes(size), b"\1".rjust(size, b"\0")
            x = x.replace(b"\0", zero).replace(b"\1", one)
            y = y.replace(b"\0", zero).replace(b"\1", one)
        product = int.from_bytes(x, "big") * int.from_bytes(y, "big")
        digits = product.to_bytes(size * (2 * n - 1), "little")[size * (n - 1):]
        return struct.unpack(f"<{n}{code}", digits)

    def beta_set(self) -> tuple[int, ...]:
        """First-column hook lengths, strictly decreasing; one per part."""
        ell = len(self._parts)
        return tuple(map(operator.add, self._parts, range(ell - 1, -1, -1)))

    def _bead_bits(self) -> int:
        # The beads as the set bits of one integer, packed on first use.
        if self._beads is None:
            beta = map(operator.add, self._parts, range(len(self._parts) - 1, -1, -1))
            self._beads = sum(map((1).__lshift__, beta))
        return self._beads

    def diagonal_hooks(self) -> tuple[int, ...]:
        """Main-diagonal hook lengths of a self-conjugate partition.

        These are distinct odd integers and determine the partition. A
        partition built from them returns them as built; any other derives
        them once. Raises ValueError for non-self-conjugate input.
        """
        if self._hooks is None:
            if not self.is_self_conjugate():
                raise ValueError(f"partition ({self}) is not self-conjugate")
            d = self.durfee_side()
            self._hooks = tuple([2 * (p - i) - 1 for i, p in enumerate(self._parts[:d])])
        return self._hooks

    def disparity(self) -> int:
        """Number of odd hook lengths minus number of even ones.

        Each hook is x - y for a bead x and a gap 0 <= y < x. Below x lie
        (x + 1) // 2 places of the other parity and x // 2 of its own, less
        the beads among them; summed over the beads, odd minus even hooks is
        o + C(o, 2) + C(e, 2) - o * e for o odd and e even beads, which is
        D(D + 1) / 2 with D = o - e.
        """
        beta = self.beta_set()
        surplus = 2 * sum(map((1).__and__, beta)) - len(beta)
        return surplus * (surplus + 1) // 2

    def is_simultaneous_core(self, ts: Iterable[int]) -> bool:
        """True when the partition is a t-core for every modulus in ts."""
        return _is_core(self._bead_bits(), check_moduli(ts))


def _is_core(beads: int, moduli: tuple[int, ...]) -> bool:
    # By the abacus criterion, packed beads have no hook divisible by t when
    # every bead x >= t has x - t as a bead: shifting the beads down by t
    # lands on no gap. The core search tests its children with this too.
    gaps = ~beads
    for t in moduli:
        if beads >> t & gaps:
            return False
    return True


def parse_ints(text: str) -> list[int]:
    """Comma-separated integers; a blank text is the empty list, a blank token an error."""
    if not text.strip():
        return []
    values = []
    for i, token in enumerate(text.split(",")):
        try:
            values.append(int(token))
        except ValueError:
            raise PartitionError(f"token {i} is not an integer: {token.strip()!r}") from None
    return values


def parse_partition(text: str) -> Partition:
    """Parse the wire form: comma-separated decreasing parts, '' for empty."""
    return Partition(parse_ints(text))


def _validated_deltas(deltas: Iterable[int]) -> tuple[int, ...]:
    ds = tuple(map(operator.index, deltas))
    ordered = sorted(ds, reverse=True)
    # Positive, odd and strictly decreasing once sorted passes in C; only an
    # invalid input walks the hooks as given, to name the first fault.
    decreasing = all(map(operator.gt, ordered, ordered[1:]))
    if ordered and not (ordered[-1] >= 1 and all(map((1).__and__, ordered)) and decreasing):
        for x in ds:
            if x < 1:
                raise ValueError(f"diagonal hook {x} is not positive")
            if x % 2 == 0:
                raise ValueError(f"diagonal hook {x} is even")
        raise ValueError(f"duplicate diagonal hooks in {ordered}")
    return tuple(ordered)


def sc_from_diagonal(deltas: Iterable[int]) -> Partition:
    """The unique self-conjugate partition with the given diagonal hooks.

    Inverse of Partition.diagonal_hooks; the weight is the sum of the
    hooks. Entries may come in any order but must be distinct, odd and
    positive.
    """
    ds = _validated_deltas(deltas)
    d = len(ds)
    head = [(x - 1) // 2 + i for i, x in enumerate(ds, start=1)]
    parts = list(head)
    # Below the diagonal, rows head[i] + 1 .. head[i - 1] have length i (head[d] = d).
    below = d
    for i in range(d, 0, -1):
        parts.extend([i] * (head[i - 1] - below))
        below = head[i - 1]
    parts = tuple(parts)
    # The rows built below the diagonal are the columns right of it, so
    # the partition is its own conjugate; it keeps the hooks it came from.
    return Partition._from_parts(parts, parts, ds)


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
    # The rows meeting the diagonal come out decreasing, and each exceeds
    # (top - 1) / 2, the largest value below it.
    upper = [(top + x) // 2 for x in ds]
    lower = set(range(1, (top - 1) // 2 + 1))
    lower -= {(top - x) // 2 for x in ds[1:]}
    return tuple(upper + sorted(lower, reverse=True))
