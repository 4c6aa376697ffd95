"""Exhaustive partition generators, count tables, and closed-form counters.

Generation order is part of the contract: partitions of n stream in
reverse lexicographic order, self-conjugate partitions in decreasing
lexicographic order of their diagonal hook tuples, each built from its
parent's rows in one depth-first walk over the hooks. Count tables are
tuples indexed by weight. A core table is one exhaustive depth-first
search over the cores of one moduli set (tabulate grows a partition one
first row or one principal hook at a time, each node its packed beads
and class), so its cost follows the number of cores, not of partitions.
Self-conjugate partitions are counted without a walk: a 0/1 knapsack
over odd diagonal hooks gives their totals, and one that also tracks the
surplus of hooks 1 over 3 mod 4 gives them keyed by class
(sc_class_table). Brute force (every partition of n, then the core test)
survives as the tests' oracle.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from itertools import combinations
from typing import Callable, Iterable, Iterator

from .bijection import _class_index
from .partitions import Partition, _is_core, check_moduli

__all__ = [
    "partitions_of",
    "partition_count",
    "self_conjugate_of",
    "tabulate",
    "add_row",
    "add_hook",
    "sufficient_core_bound",
    "count_sc_sim_core_m",
    "anderson_count",
    "wang_count",
    "catalan",
    "motzkin",
    "partition_count_table",
    "sc_count_table",
    "sc_class_table",
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


def self_conjugate_of(n: int) -> Iterator[Partition]:
    """All self-conjugate partitions of n, in decreasing lex order of their diagonal hooks.

    The hooks, strictly decreasing odd numbers summing to n, are walked
    depth first. first, the candidate for the next hook, is pruned when the
    distinct odd numbers below it, which sum to at most half * half, cannot
    fill what it leaves; then so is every smaller one, and the last hook
    steps down. A node keeps its hooks, its rows head_k = (hook_k - 1) / 2 + k
    across the diagonal, and the rows below it that its prefix fixes:
    head_k - head_(k+1) of length k. A leaf of depth d adds head_d - d rows
    of length d, and its parts are its conjugate's.
    """
    _check_nonneg(n)
    from_parts = Partition._from_parts
    if n == 0:
        yield from_parts((), (), ())
        return
    stack = []  # (hook, hooks, head, tail) of each node on the path, to step back to
    hooks = head = tail = ()
    rest = n
    first = n if n % 2 else n - 1
    while True:
        half = (first - 1) // 2
        if first > 0 and rest - first <= half * half:
            depth = len(hooks)
            top = half + depth + 1
            below = (depth,) * (head[-1] - top) + tail if depth else tail
            if rest > first:
                stack.append((first, hooks, head, tail))
                hooks, head, tail = hooks + (first,), head + (top,), below
                rest -= first
                first -= 2
                if first > rest:
                    first = rest if rest % 2 else rest - 1
                continue
            parts = head + (top,) + (depth + 1,) * half + below
            yield from_parts(parts, parts, hooks + (first,))
            first -= 2
            continue
        if not stack:
            return
        first, hooks, head, tail = stack.pop()
        rest += first
        first -= 2


def tabulate(
    grow: Callable[[tuple, int, tuple], Iterable[tuple]],
    moduli: Iterable[int],
    max_n: int,
) -> dict[int, tuple[int, ...]]:
    """Per-weight counts of the moduli-cores by class, by a depth-first search over cores.

    A node is (beads, surplus): a partition's first-column hook set packed
    into the bits of one integer as Partition packs it (0 at the root), and
    the surplus of diagonal hooks 1 over 3 mod 4, which names the class.
    grow(node, room, moduli) yields, as (child, gain), the children of a
    core that are cores (by partitions._is_core) and weigh at most room
    more. A partition is the child of its reduction (itself less the outer
    layer grow adds), and the reduction of a core is a core (see add_row,
    add_hook), so each core is reached once. Recursion is as deep as the
    partition has rows or diagonal hooks.

    Returns {m: row}, where row[n] counts the cores of weight n in class m;
    add_row keeps the root's surplus, so its cores all fall under class 0.
    """
    # Moduli ascending, so that moduli[0] is the smallest (see add_row).
    moduli = tuple(sorted(set(check_moduli(moduli))))
    _check_nonneg(max_n, "max_n")
    rows = defaultdict(lambda: [0] * (max_n + 1))

    def visit(node: tuple, weight: int) -> None:
        rows[node[1]][weight] += 1
        for child, gain in grow(node, max_n - weight, moduli):
            visit(child, weight + gain)

    visit((0, 0), 0)
    return {_class_index(s): tuple(row) for s, row in rows.items()}


def add_row(node: tuple, room: int, moduli: tuple) -> Iterator[tuple]:
    """Growth by a new first row, for ordinary partitions.

    Deleting the first row of a partition leaves the hook of every cell in
    rows 2, 3, ... unchanged, so the reduction of a t-core is a t-core. A
    new first row a >= the old one adds bead b = a + ell above the largest,
    top, of the ell beads. By the abacus criterion a t-core child has b < t
    or b - t as a bead, so b <= top + t. The surplus is kept.
    """
    beads, surplus = node
    top = beads.bit_length() - 1
    ell = beads.bit_count()
    for b in range(max(top + 1, 1), min(room + ell, top + moduli[0]) + 1):
        child = beads | 1 << b
        if _is_core(child, moduli):
            yield (child, surplus), b - ell


def add_hook(node: tuple, room: int, moduli: tuple) -> Iterator[tuple]:
    """Growth by a new principal hook, for self-conjugate partitions.

    Deleting the principal hook (first row and column) of a self-conjugate
    partition leaves the hook of every cell (i, j) with i, j >= 2
    unchanged, so the reduction of a core is a core. A child adds an odd
    delta > top, the largest bead, as its largest diagonal hook: its beads
    are the parent's padded to (delta + 1)/2 (shifted up by pad = (delta -
    top)/2, with 0, ..., pad - 1 below), with bead 0 moved to delta. As x
    is a bead iff delta - x is not, a t-core child (delta < t or delta - t a
    bead) has t as a gap, so t >= pad: delta <= top + 2t. The other
    diagonal hooks stay, so the surplus moves by one, up if delta is 1 mod
    4 and down otherwise.
    """
    beads, surplus = node
    top = beads.bit_length() - 1
    for delta in range(top + 2, min(room, top + 2 * moduli[0]) + 1, 2):
        pad = (delta - top) // 2
        child = beads << pad | (1 << pad) - 2 | 1 << delta
        if _is_core(child, moduli):
            yield (child, surplus + 1 if delta % 4 == 1 else surplus - 1), delta


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
    reduction may change the class, so one search over all classes keeps
    the class-m row and never prunes by class.
    """
    moduli = check_moduli(ts)
    for t in moduli:
        if t % 2:
            raise ValueError(f"moduli must all be even, got {t}")
    _check_nonneg(m, "m")
    return tabulate(add_hook, moduli, max_n).get(m, (0,) * (max_n + 1))


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


def sc_class_table(max_n: int) -> dict[int, tuple[int, ...]]:
    """Self-conjugate partition counts by weight and class.

    Returns {m: row}, where row[n] counts the self-conjugate partitions of
    weight n in class m, keyed as tabulate keys its rows. A 0/1 knapsack
    tracks the surplus s of diagonal hooks 1 over 3 mod 4, which names the
    class. Surplus s needs |s| hooks of one residue, of weight at least
    |s|(2|s| - 1), so |s| <= sqrt(max_n / 2) + 1: one O(max_n) pass per
    odd hook and surplus. Rows that stay zero are left out.
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
    return {_class_index(s): tuple(row) for s, row in rows.items() if any(row)}


def sc_sim_core_count_table(ts: Iterable[int], max_n: int) -> tuple[int, ...]:
    """Self-conjugate simultaneous-core counts (all classes together)."""
    return tuple(map(sum, zip(*tabulate(add_hook, ts, max_n).values())))


def sim_core_count_table(ts: Iterable[int], max_n: int) -> tuple[int, ...]:
    """Simultaneous-core counts for n in [0, max_n]."""
    return tabulate(add_row, ts, max_n)[0]
