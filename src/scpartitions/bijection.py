"""Correspondence between self-conjugate and ordinary partitions.

Every self-conjugate partition falls into exactly one class m >= 0,
read off from its diagonal hooks: with d1 hooks congruent to 1 mod 4 and
d3 congruent to 3 mod 4, a surplus k = |d1| - |d3| >= 1 puts it in class
2k - 1 and a deficit -k (k >= 0) in class 2k. Within class m, weights are
exactly 4n + m(m+1)/2 and the class maps bijectively onto ordinary
partitions of n; ``phi`` computes the image, ``psi`` inverts it.
"""

from __future__ import annotations

from typing import NamedTuple

from .partitions import Partition, sc_from_diagonal, split_diagonal_classes

__all__ = [
    "DiagonalSequencePair",
    "PhiImage",
    "classify",
    "diagonal_sequence_pair",
    "phi",
    "psi",
    "half_even_beta",
    "complement_beta",
    "delete_principal_hook",
    "corresponding_partition_after_deletion",
]


class DiagonalSequencePair(NamedTuple):
    """Diagonal hooks rewritten as 4a+1 (sequence a) and 4b-1 (sequence b)."""

    a: tuple[int, ...]
    b: tuple[int, ...]


class PhiImage(NamedTuple):
    """Class index together with the corresponding ordinary partition."""

    m: int
    mu: Partition


def _require_self_conjugate(p: Partition) -> None:
    if not p.is_self_conjugate():
        raise ValueError(f"partition ({p}) is not self-conjugate")


def classify(sc: Partition) -> int:
    """Class index m of a self-conjugate partition (empty partition: 0)."""
    _require_self_conjugate(sc)
    d1, d3 = split_diagonal_classes(sc.diagonal_hooks())
    diff = len(d1) - len(d3)
    return 2 * diff - 1 if diff >= 1 else -2 * diff


def diagonal_sequence_pair(sc: Partition) -> DiagonalSequencePair:
    """Strictly decreasing sequences a (a_i >= 0) and b (b_j >= 1) with
    diagonal hooks {4a_i + 1} and {4b_j - 1}."""
    _require_self_conjugate(sc)
    d1, d3 = split_diagonal_classes(sc.diagonal_hooks())
    return DiagonalSequencePair(
        a=tuple((x - 1) // 4 for x in d1),
        b=tuple((x + 1) // 4 for x in d3),
    )


def phi(sc: Partition) -> PhiImage:
    """Map a self-conjugate partition to (m, mu).

    With diagonal sequence pair ((a_1..a_r), (b_1..b_s)), the image mu has
    mu_i = a_i + i + s - r for i <= r, followed by the conjugate of
    (b_1 - s, b_2 - s + 1, ..., b_s - 1), whose zero entries contribute
    nothing. The weights satisfy |sc| = 4|mu| + m(m+1)/2.
    """
    m = classify(sc)
    a, b = diagonal_sequence_pair(sc)
    r, s = len(a), len(b)
    head = [a[i] + (i + 1) + s - r for i in range(r)]
    gamma = Partition(b[j] - s + j for j in range(s))
    tail = gamma.conjugate().parts
    return PhiImage(m, Partition(head + list(tail)))


def psi(m: int, mu: Partition) -> Partition:
    """Inverse of phi on class m: rebuild the self-conjugate partition.

    For odd m = 2k-1 there is a unique s >= 0 with mu_{s+k} >= s and
    mu_{s+k+1} <= s (parts beyond the last count as 0), and r = s + k;
    for even m = 2k a unique r >= 0 with mu_r >= r + k and
    mu_{r+1} <= r + k (vacuous first condition at r = 0), and s = r + k.
    Uniqueness is checked rather than assumed.
    """
    if m < 0:
        raise ValueError(f"class index must be >= 0, got {m}")
    parts = mu.parts
    ell = len(parts)

    def at(i: int) -> int:
        return parts[i - 1] if 1 <= i <= ell else 0

    if m % 2:
        k = (m + 1) // 2
        found = [s for s in range(ell + 2) if at(s + k) >= s and at(s + k + 1) <= s]
        if len(found) != 1:
            raise RuntimeError(f"split index not unique for m={m}, mu=({mu}): {found}")
        s = found[0]
        r = s + k
    else:
        k = m // 2
        found = [
            r
            for r in range(ell + 2)
            if (r == 0 or at(r) >= r + k) and at(r + 1) <= r + k
        ]
        if len(found) != 1:
            raise RuntimeError(f"split index not unique for m={m}, mu=({mu}): {found}")
        r = found[0]
        s = r + k

    gamma = list(Partition(parts[r:]).conjugate().parts)
    if len(gamma) > s:
        raise RuntimeError(f"conjugate tail exceeds {s} parts for m={m}, mu=({mu})")
    gamma += [0] * (s - len(gamma))
    a = [at(i) - i - s + r for i in range(1, r + 1)]
    b = [gamma[j - 1] + s - j + 1 for j in range(1, s + 1)]
    return sc_from_diagonal([4 * x + 1 for x in a] + [4 * y - 1 for y in b])


def half_even_beta(sc: Partition) -> tuple[int, ...]:
    """Halved even first-column hooks of a nonempty self-conjugate partition."""
    _require_self_conjugate(sc)
    if not sc:
        raise ValueError("empty partition has no first-column hooks")
    return tuple(x // 2 for x in sc.beta_set() if x % 2 == 0)


def complement_beta(mu: Partition) -> frozenset:
    """Differences h(1,1) - h(i,1) over rows i >= 2.

    Equals {1, ..., h(1,1)} minus the first-row hook set, i.e. the beta
    set of the conjugate.
    """
    if not mu:
        raise ValueError("empty partition has no corner box")
    beta = mu.beta_set()
    return frozenset(beta[0] - x for x in beta[1:])


def delete_principal_hook(sc: Partition) -> Partition:
    """Remove the largest diagonal hook; the weight drops by its length."""
    _require_self_conjugate(sc)
    if not sc:
        raise ValueError("empty partition has no principal hook")
    return sc_from_diagonal(sc.diagonal_hooks()[1:])


def corresponding_partition_after_deletion(mu: Partition, delta1_class: int) -> Partition:
    """Image of principal-hook deletion on the corresponding partition.

    When the deleted hook is 1 mod 4 the first part of mu is dropped;
    when it is 3 mod 4 every part is decremented (zeros discarded).
    """
    if delta1_class not in (1, 3):
        raise ValueError(f"delta1_class must be 1 or 3, got {delta1_class}")
    if delta1_class == 1:
        return Partition(mu.parts[1:])
    return Partition(x - 1 for x in mu.parts if x > 1)
