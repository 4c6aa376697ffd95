"""Exhaustive partition generators, count tables, and closed-form counters.

Generation order is part of the contract: partitions of n stream in
reverse lexicographic order, self-conjugate partitions in decreasing
lexicographic order of their diagonal hook tuples. Count tables are
tuples indexed by weight. A core table is one exhaustive depth-first
search over the cores of one moduli set (tabulate, growing a partition
one first row or one principal hook at a time), keyed by class for the
class-m tables, so its cost follows the number of cores, not of
partitions. Self-conjugate partitions are counted without a walk: a 0/1
knapsack over odd diagonal hooks gives their totals, and one that also
tracks the surplus of hooks 1 over 3 mod 4 gives them by class. Brute
force (every partition of n, then the core test) survives as the tests'
oracle.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from itertools import combinations
from typing import Callable, Iterable, Iterator

from .bijection import _class_index
from .partitions import Partition, _sc_from_hooks, check_moduli

__all__ = [
    "partitions_of",
    "partition_count",
    "distinct_odd_decompositions",
    "self_conjugate_of",
    "tabulate",
    "add_row",
    "add_hook",
    "bead_class",
    "sufficient_core_bound",
    "count_sc_sim_core_m",
    "anderson_count",
    "wang_count",
    "catalan",
    "motzkin",
    "partition_count_table",
    "sc_count_table",
    "sc_surplus_table",
    "sc_sim_core_count_table",
    "sim_core_count_table",
]


def _check_nonneg(n: int, name: str = "n") -> None:
    if n < 0:
        raise ValueError(f"{name} must be >= 0, got {n}")


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, each exactly once, in reverse lexicographic order.

    The first is the single row (n), the last the single column; there
    are p(n) of them. This is Zoghbi and Stojmenovic's ZS1 (1998). The
    array starts as n ones, and every part after the last part above 1,
    x[h], stays 1. A 2 there becomes a 1. A larger x[h] drops to r =
    x[h] - 1, and the ones after it, with the unit it gave up, are laid
    out again as parts r and one smaller remainder; no step scans the
    trailing ones.
    """
    _check_nonneg(n)
    if n == 0:
        yield Partition()
        return
    x = [1] * n
    x[0] = n
    m, h = 1, 0  # m parts; x[h] is the last part above 1, and x[h + 1:] are all 1
    from_parts = Partition._from_parts
    yield from_parts((n,))
    while x[0] != 1:
        if x[h] == 2:
            x[h] = 1
            m += 1
            h -= 1
        else:
            r = x[h] - 1
            t = m - h  # the ones after x[h], plus the unit it gives up
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h + 1
            else:
                m = h + 2
                if t > 1:
                    h += 1
                    x[h] = t
        yield from_parts(tuple(x[:m]))


def _pentagonal(limit: int) -> Iterator[tuple[int, int]]:
    """(g, sign) for each generalized pentagonal number 0 < g <= limit, increasing.

    Euler's pentagonal number theorem: prod over n >= 1 of (1 - q^n) is 1
    plus sign * q^g over these terms, where g runs over k(3k - 1)/2 and
    k(3k + 1)/2 with sign (-1)^k, for k = 1, 2, ...
    """
    k, g = 1, 1
    while g <= limit:
        sign = -1 if k % 2 else 1
        yield g, sign
        if g + k > limit:
            return
        yield g + k, sign
        k += 1
        g = k * (3 * k - 1) // 2


_pcounts = [1]


def partition_count(n: int) -> int:
    """p(n) by Euler's recurrence, p(m) = -sum of sign * p(m - g) over _pentagonal(m); memoized."""
    _check_nonneg(n)
    if len(_pcounts) <= n:
        terms = list(_pentagonal(n))
        for m in range(len(_pcounts), n + 1):
            total = 0
            for g, sign in terms:
                if g > m:
                    break
                total -= sign * _pcounts[m - g]
            _pcounts.append(total)
    return _pcounts[n]


def _odd_desc(total: int) -> Iterator[tuple[int, ...]]:
    # Depth-first over the prefix in stack. first is the candidate for the
    # next part: the largest odd number below the last part and at most rest.
    # It is pruned when the distinct odd numbers below it, which sum to at
    # most half * half, cannot fill what it leaves; then so is every smaller
    # candidate, and the last part steps down instead.
    if total == 0:
        yield ()
        return
    stack = []
    rest = total
    first = total if total % 2 else total - 1
    while True:
        half = (first - 1) // 2
        if first > 0 and rest - first <= half * half:
            stack.append(first)
            rest -= first
            if rest:
                first -= 2
                if first > rest:
                    first = rest if rest % 2 else rest - 1
                continue
            yield tuple(stack)
        if not stack:
            return
        first = stack.pop()
        rest += first
        first -= 2


def distinct_odd_decompositions(n: int) -> Iterator[tuple[int, ...]]:
    """Strictly decreasing tuples of odd positive integers summing to n.

    These are exactly the diagonal hook sets of self-conjugate partitions
    of n; tuples stream in decreasing lexicographic order.
    """
    _check_nonneg(n)
    return _odd_desc(n)


def self_conjugate_of(n: int) -> Iterator[Partition]:
    """All self-conjugate partitions of n, via distinct-odd decompositions."""
    # The decompositions are distinct, odd and decreasing: build them unchecked.
    yield from map(_sc_from_hooks, distinct_odd_decompositions(n))


def tabulate(
    grow: Callable[[tuple, int, tuple], Iterable[tuple]],
    moduli: Iterable[int],
    max_n: int,
    key: Callable[[tuple], object] | None = None,
) -> dict:
    """Per-weight counts of the moduli-cores, by a depth-first search over cores.

    A node is (top, beads): the first-column hook set of a partition and its
    largest element, -1 for the empty partition at the root. grow(node, room,
    moduli) yields, as (child, gain), the children of a core that are cores
    and weigh at most room more. A partition is the child of its reduction
    (itself less the outer layer grow adds), and the reduction of a core is
    a core (see add_row, add_hook), so each core is reached once. Recursion
    is as deep as the partition has rows or diagonal hooks.

    Returns {key(node): row}, where row[n] counts the cores of weight n with
    that key; key=None puts every core under None. The key sorts the counts
    and never prunes the search.
    """
    # Moduli ascending, so that moduli[0] is the smallest (see add_row).
    moduli = tuple(sorted(set(check_moduli(moduli))))
    _check_nonneg(max_n, "max_n")
    rows = defaultdict(lambda: [0] * (max_n + 1))

    def visit(node: tuple, weight: int) -> None:
        rows[None if key is None else key(node)][weight] += 1
        for child, gain in grow(node, max_n - weight, moduli):
            visit(child, weight + gain)

    visit((-1, frozenset()), 0)
    return {k: tuple(row) for k, row in rows.items()}


def add_row(node: tuple, room: int, moduli: tuple) -> Iterator[tuple]:
    """Growth by a new first row, for ordinary partitions.

    Deleting the first row of a partition leaves the hook of every cell in
    rows 2, 3, ... unchanged, so the reduction of a t-core is a t-core. A
    new first row a >= the old one keeps the beads and adds b = a +
    len(beads) above them; by the abacus criterion the child is a t-core
    iff b < t or b - t is a bead, and either forces b <= top + t. A child
    is tested in O(number of moduli).
    """
    top, beads = node
    ell = len(beads)
    for b in range(max(top + 1, 1), min(room + ell, top + moduli[0]) + 1):
        if all(b < t or b - t in beads for t in moduli):
            yield (b, beads | {b}), b - ell


def add_hook(node: tuple, room: int, moduli: tuple) -> Iterator[tuple]:
    """Growth by a new principal hook, for self-conjugate partitions.

    Deleting the principal hook (first row and column) of a self-conjugate
    partition leaves the hook of every cell (i, j) with i, j >= 2
    unchanged, so the reduction of a core is a core. A child adds an odd
    delta > top as its largest diagonal hook; its beads are the parent's,
    padded to a = (delta + 1)/2 (each shifted up by pad = (delta - top)/2,
    with 0, ..., pad - 1 below), with bead 0 moved to delta. Padding keeps
    a t-core, so the child is a t-core iff t is not a padded bead and
    (delta < t or delta - t is a padded bead other than 0). A self-conjugate
    partition with a beads has x as a bead iff 2a - 1 - x = delta - x is
    not one, so the second condition implies the first; it forces delta <=
    top + 2t. A padded bead y is y < pad or y - pad in beads, so a rejected
    child costs O(number of moduli).
    """
    top, beads = node
    for delta in range(top + 2, min(room, top + 2 * moduli[0]) + 1, 2):
        pad = (delta - top) // 2
        if all(delta < t or 0 < delta - t < pad or delta - t - pad in beads for t in moduli):
            child = frozenset(q + pad for q in beads).union(range(1, pad), (delta,))
            yield (delta, child), delta


def bead_class(node: tuple) -> int:
    """Class m of the self-conjugate partition at an add_hook node.

    Its diagonal hooks are 2b - top for the beads b > top/2 (see
    beta_from_diagonal); the class is read from the surplus of hooks 1
    over hooks 3 mod 4.
    """
    top, beads = node
    return _class_index(sum(1 if (2 * b - top) % 4 == 1 else -1 for b in beads if 2 * b > top))


def sufficient_core_bound(ts: Iterable[int]) -> int:
    """Weight bound covering every simultaneous core for these moduli.

    For a coprime pair (u, v), every (u, v)-core has weight at most
    (u^2 - 1)(v^2 - 1)/24; the best bound over coprime pairs in ts is
    returned. Raises ValueError when no pair is coprime (the set of
    cores may then be infinite).
    """
    moduli = sorted(set(check_moduli(ts)))
    bounds = [
        (u * u - 1) * (v * v - 1) // 24
        for u, v in combinations(moduli, 2)
        if math.gcd(u, v) == 1
    ]
    if 1 in moduli:
        return 0
    if not bounds:
        raise ValueError(f"no coprime pair among moduli {moduli}")
    return min(bounds)


def count_sc_sim_core_m(ts: Iterable[int], m: int, max_n: int) -> tuple[int, ...]:
    """Per-weight counts of class-m self-conjugate simultaneous cores.

    All moduli must be even; odd entries are rejected. The principal-hook
    reduction may change the class, so the class keys the counts of one
    search over all classes (bead_class) and never prunes it.
    """
    moduli = check_moduli(ts)
    for t in moduli:
        if t % 2:
            raise ValueError(f"moduli must all be even, got {t}")
    _check_nonneg(m, "m")
    return tabulate(add_hook, moduli, max_n, key=bead_class).get(m, (0,) * (max_n + 1))


def anderson_count(t1: int, t2: int) -> int:
    """Closed-form number of (t1, t2)-cores for coprime t1, t2 >= 1."""
    if t1 < 1 or t2 < 1:
        raise ValueError(f"moduli must be positive, got ({t1}, {t2})")
    if math.gcd(t1, t2) != 1:
        raise ValueError(f"moduli ({t1}, {t2}) are not coprime")
    total = t1 + t2
    q, rem = divmod(math.comb(total, t1), total)
    if rem:
        raise ArithmeticError(f"binomial not divisible by {total}")
    return q


def _multinomial(total: int, *ks: int) -> int:
    if any(k < 0 for k in ks) or sum(ks) != total:
        raise ValueError(f"invalid multinomial ({total}; {ks})")
    out = 1
    rest = total
    for k in ks[:-1]:
        out *= math.comb(rest, k)
        rest -= k
    return out


def wang_count(n: int, d: int) -> int:
    """Closed-form number of (n, n+d, n+2d)-cores for coprime n, d >= 1."""
    if n < 1 or d < 1:
        raise ValueError(f"parameters must be positive, got ({n}, {d})")
    if math.gcd(n, d) != 1:
        raise ValueError(f"parameters ({n}, {d}) are not coprime")
    total = sum(_multinomial(n + d, i, i + d, n - 2 * i) for i in range(n // 2 + 1))
    q, rem = divmod(total, n + d)
    if rem:
        raise ArithmeticError(f"multinomial sum not divisible by {n + d}")
    return q


def catalan(n: int) -> int:
    """Catalan number: binom(2n, n)/(n + 1), exactly."""
    _check_nonneg(n)
    q, rem = divmod(math.comb(2 * n, n), n + 1)
    if rem:
        raise ArithmeticError(f"binomial not divisible by {n + 1}")
    return q


def motzkin(n: int) -> int:
    """Motzkin number: sum over i of binom(n, 2i) * catalan(i), exactly."""
    _check_nonneg(n)
    return sum(math.comb(n, 2 * i) * catalan(i) for i in range(n // 2 + 1))


def partition_count_table(max_n: int) -> tuple[int, ...]:
    """Table of p(n) for n in [0, max_n]."""
    _check_nonneg(max_n, "max_n")
    partition_count(max_n)
    return tuple(_pcounts[: max_n + 1])


def sc_count_table(max_n: int) -> tuple[int, ...]:
    """Self-conjugate partition counts (distinct odd diagonal hook sets) for n in [0, max_n]."""
    _check_nonneg(max_n, "max_n")
    rows = [1] + [0] * max_n
    for h in range(1, max_n + 1, 2):
        # A 0/1-knapsack pass reads the row from before it: each set takes h at most once.
        rows[h:] = [a + b for a, b in zip(rows[h:], rows)]
    return tuple(rows)


def sc_surplus_table(max_n: int) -> dict[int, tuple[int, ...]]:
    """Self-conjugate partition counts by weight and diagonal-hook surplus.

    Returns {s: row}, where row[n] counts the sets of distinct odd diagonal
    hooks of weight n with s more hooks congruent to 1 than to 3 mod 4 (the
    partition's class is bijection._class_index(s)). Surplus s needs |s|
    hooks of one residue, of weight at least |s|(2|s| - 1), so |s| <=
    sqrt(max_n / 2) + 1. A 0/1 knapsack: one O(max_n) pass per odd hook and
    surplus; rows that stay zero are left out.
    """
    _check_nonneg(max_n, "max_n")
    reach = math.isqrt(max_n // 2) + 1
    rows = {s: [0] * (max_n + 1) for s in range(-reach, reach + 1)}
    rows[0][0] = 1
    for h in range(1, max_n + 1, 2):
        step = 1 if h % 4 == 1 else -1
        # Sources in the order that updates each row before it is read: each set takes h once.
        for s in range(step * (reach - 1), -step * (reach + 1), -step):
            rows[s + step][h:] = map(operator.add, rows[s + step][h:], rows[s])
    return {s: tuple(row) for s, row in rows.items() if any(row)}


def sc_sim_core_count_table(ts: Iterable[int], max_n: int) -> tuple[int, ...]:
    """Self-conjugate simultaneous-core counts (all classes together)."""
    return tabulate(add_hook, ts, max_n)[None]


def sim_core_count_table(ts: Iterable[int], max_n: int) -> tuple[int, ...]:
    """Simultaneous-core counts for n in [0, max_n]."""
    return tabulate(add_row, ts, max_n)[None]
