"""Correspondence between self-conjugate and ordinary partitions.

Every self-conjugate partition falls into exactly one class m >= 0,
read off from its diagonal hooks: with d1 hooks congruent to 1 mod 4 and
d3 congruent to 3 mod 4, a surplus k = |d1| - |d3| >= 1 puts it in class
2k - 1 and a deficit -k (k >= 0) in class 2k. Within class m, weights are
exactly 4n + m(m+1)/2 and the class maps bijectively onto ordinary
partitions of n; ``phi`` computes the image, ``psi`` inverts it.
"""

from __future__ import annotations

import operator
from itertools import accumulate
from typing import NamedTuple

from .partitions import Partition, _sc_from_hooks, sc_from_diagonal

__all__ = [
    "PhiImage",
    "classify",
    "phi",
    "psi",
    "half_even_beta",
    "complement_beta",
    "delete_principal_hook",
    "corresponding_partition_after_deletion",
]


class PhiImage(NamedTuple):
    """Class index together with the corresponding ordinary partition."""

    m: int
    mu: Partition


def _class_index(surplus: int) -> int:
    return 2 * surplus - 1 if surplus >= 1 else -2 * surplus


def classify(sc: Partition) -> int:
    """Class index m of a self-conjugate partition (empty partition: 0)."""
    hooks = sc.diagonal_hooks()
    # The hooks are odd, so bit 1 is set exactly on those that are 3 mod 4.
    d3 = sum(map((2).__and__, hooks)) >> 1
    return _class_index(len(hooks) - 2 * d3)


def phi(sc: Partition) -> PhiImage:
    """Map a self-conjugate partition to (m, mu).

    Split the diagonal hooks by residue mod 4 into 4a_i + 1 (a_1 > ... >
    a_r >= 0) and 4b_j - 1 (b_1 > ... > b_s >= 1). The image mu has
    mu_i = a_i + i + s - r for i <= r, followed by the conjugate of
    (b_1 - s, b_2 - s + 1, ..., b_s - 1), whose zero entries contribute
    nothing. The weights satisfy |sc| = 4|mu| + m(m+1)/2.
    """
    hooks = sc.diagonal_hooks()
    a = [x >> 2 for x in hooks if x & 3 == 1]
    b = [(x >> 2) + 1 for x in hooks if x & 3 == 3]
    r, s = len(a), len(b)
    parts = list(map(operator.add, a, range(1 + s - r, 1 + s)))
    if b:
        # gamma_j = b_j - s + j (j from 0) needs no check: b strictly decreases with b_j >= 1,
        # so gamma is a partition. Its conjugate's column k counts the gamma_j >= k.
        tally = [0] * (b[0] - s + 1)
        for j, x in enumerate(b, -s):
            tally[x + j] += 1
        parts += list(accumulate(tally[:0:-1]))[::-1]
    return PhiImage(_class_index(r - s), Partition(parts))


def psi(m: int, mu: Partition) -> Partition:
    """Inverse of phi on class m: rebuild the self-conjugate partition.

    Class m has surplus d = r - s = (m+1)/2 for odd m and -m/2 for even m.
    There is a unique r >= max(d, 0) with mu_r >= r - d (vacuous at r = 0)
    and mu_{r+1} <= r - d, parts beyond the last counting as 0; then
    s = r - d. It is at most ell + max(d, 0) for ell parts, since past that
    mu_r = 0 < r - d. Uniqueness is checked rather than assumed.
    """
    if m < 0:
        raise ValueError(f"class index must be >= 0, got {m}")
    parts = mu.parts
    d = (m + 1) // 2 if m % 2 else -m // 2
    low = max(d, 0)
    # at[i] is mu_i for 1 <= i <= ell and 0 for i = 0 and past the last part.
    at = (0,) + parts + (0,) * (low + 1)
    found = [r for r in range(low, len(at) - 1) if (r == 0 or at[r] >= r - d) and at[r + 1] <= r - d]
    if len(found) != 1:
        raise RuntimeError(f"split index not unique for m={m}, mu=({mu}): {found}")
    r = found[0]
    s = r - d

    # Column j of the rows after r has mu'_j - r cells exactly when j <= mu_{r+1},
    # so the tail's conjugate is read off mu's own (kept on mu once computed).
    gamma = tuple(map((r).__rsub__, mu._conjugate_parts()[: at[r + 1]]))
    if len(gamma) > s:
        raise RuntimeError(f"conjugate tail exceeds {s} parts for m={m}, mu=({mu})")
    gamma += (0,) * (s - len(gamma))
    # a_i = mu_i - i - s + r and b_j = gamma_j + s - j + 1, as hooks 4a + 1 and 4b - 1.
    hooks = [4 * x + 1 for x in map(operator.sub, at[1 : r + 1], range(1 + s - r, 1 + s))]
    hooks += [4 * y - 1 for y in map(operator.add, gamma, range(s, 0, -1))]
    return sc_from_diagonal(hooks)


def half_even_beta(sc: Partition) -> tuple[int, ...]:
    """Halved even first-column hooks of a nonempty self-conjugate partition."""
    if not sc.is_self_conjugate():
        raise ValueError(f"partition ({sc}) is not self-conjugate")
    if not sc:
        raise ValueError("empty partition has no first-column hooks")
    return tuple([x // 2 for x in sc.beta_set() if x % 2 == 0])


def complement_beta(mu: Partition) -> frozenset:
    """Differences h(1,1) - h(i,1) over rows i >= 2.

    Equals {1, ..., h(1,1)} minus the first-row hook set, i.e. the beta
    set of the conjugate.
    """
    if not mu:
        raise ValueError("empty partition has no corner box")
    beta = mu.beta_set()
    return frozenset(map(beta[0].__sub__, beta[1:]))


def delete_principal_hook(sc: Partition) -> Partition:
    """Remove the largest diagonal hook; the weight drops by its length."""
    if not sc:
        raise ValueError("empty partition has no principal hook")
    # The remaining hooks are still distinct, odd and decreasing.
    return _sc_from_hooks(sc.diagonal_hooks()[1:])


def corresponding_partition_after_deletion(mu: Partition, delta1_class: int) -> Partition:
    """Image of principal-hook deletion on the corresponding partition.

    When the deleted hook is 1 mod 4 the first part of mu is dropped;
    when it is 3 mod 4 every part is decremented (zeros discarded).
    """
    if delta1_class not in (1, 3):
        raise ValueError(f"delta1_class must be 1 or 3, got {delta1_class}")
    if delta1_class == 1:
        return Partition(mu.parts[1:])
    return Partition([x - 1 for x in mu.parts if x > 1])
