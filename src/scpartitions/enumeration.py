"""Exhaustive partition generators, count tables, and closed-form counters.

Generation order is part of the contract: partitions of n stream in
reverse lexicographic order, self-conjugate partitions in decreasing
lexicographic order of their diagonal hook tuples. The core tables are an
exhaustive depth-first search over cores alone (tabulate, growing a
partition one first row or one principal hook at a time), so their cost
follows the number of cores, not of partitions. Brute force (every
partition of n, then the core test) survives as the tests' oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator

from .bijection import _class_index, classify
from .partitions import Partition, _beta_core, beta_from_diagonal, check_moduli, sc_from_diagonal

__all__ = [
    "CountTable",
    "partitions_of",
    "partition_count",
    "distinct_odd_decompositions",
    "self_conjugate_of",
    "count_sc_m",
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
    "core_count_table",
    "core_count_tables",
    "sc_core_count_table",
    "sc_sim_core_count_table",
    "sim_core_count_table",
]


@dataclass(frozen=True)
class CountTable:
    """Counts indexed by weight: rows[n] is the count at n, for n in [0, N]."""

    family: str
    params: dict
    rows: tuple[int, ...]

    @property
    def max_n(self) -> int:
        return len(self.rows) - 1

    def total(self) -> int:
        return sum(self.rows)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "rows": [[n, c] for n, c in enumerate(self.rows)],
        }

    def to_csv_text(self) -> str:
        lines = ["n,count"]
        lines.extend(f"{n},{c}" for n, c in enumerate(self.rows))
        return "\n".join(lines) + "\n"


def _check_nonneg(n: int, name: str = "n") -> None:
    if n < 0:
        raise ValueError(f"{name} must be >= 0, got {n}")


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, each exactly once, in reverse lexicographic order.

    The first is the single row (n), the last the single column; there
    are p(n) of them.
    """
    _check_nonneg(n)
    if n == 0:
        yield Partition()
        return
    stack = [n]
    while True:
        yield Partition._from_parts(tuple(stack))
        i = len(stack) - 1
        while i >= 0 and stack[i] == 1:
            i -= 1
        if i < 0:
            return
        m = len(stack) - i
        del stack[i + 1 :]
        stack[i] -= 1
        cap = stack[i]
        while m > 0:
            c = min(cap, m)
            stack.append(c)
            cap = c
            m -= c


_pcounts = [1]


def partition_count(n: int) -> int:
    """p(n) via the pentagonal-number recurrence; memoized."""
    _check_nonneg(n)
    while len(_pcounts) <= n:
        m = len(_pcounts)
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * _pcounts[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * _pcounts[m - g2]
            k += 1
        _pcounts.append(total)
    return _pcounts[n]


def _odd_desc(total: int, cap: int) -> Iterator[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    first = min(cap, total if total % 2 else total - 1)
    while first >= 1:
        rest = total - first
        half = (first - 1) // 2
        if rest > half * half:
            break  # smaller leads only get less room
        for tail in _odd_desc(rest, first - 2):
            yield (first,) + tail
        first -= 2


def distinct_odd_decompositions(n: int) -> Iterator[tuple[int, ...]]:
    """Strictly decreasing tuples of odd positive integers summing to n.

    These are exactly the diagonal hook sets of self-conjugate partitions
    of n; tuples stream in decreasing lexicographic order.
    """
    _check_nonneg(n)
    return _odd_desc(n, n)


def self_conjugate_of(n: int) -> Iterator[Partition]:
    """All self-conjugate partitions of n, via distinct-odd decompositions."""
    for deltas in distinct_odd_decompositions(n):
        yield sc_from_diagonal(deltas)


def count_sc_m(n: int, m: int) -> int:
    """Number of self-conjugate partitions of n in class m, by enumeration."""
    _check_nonneg(n)
    _check_nonneg(m, "m")
    return sum(1 for sc in self_conjugate_of(n) if classify(sc) == m)


def tabulate(
    grow: Callable[[tuple, int, list], Iterable[tuple]],
    core_sets: Iterable[Iterable[int]],
    max_n: int,
    counted: Callable[[tuple], bool] | None = None,
) -> list[tuple[int, ...]]:
    """Per-weight core counts by a depth-first search that holds only cores.

    The search starts from the empty partition, node (). grow(node, room,
    alive) yields the children of a node weighing at most room more, as
    (child, gain, kept), where kept lists the (row, moduli) pairs of alive
    for which the child is still a core; only a child with a nonempty kept
    is searched. A partition is the child of its reduction (itself less the
    outer layer grow adds), and the reduction of a core is a core (see
    add_row, add_hook), so each core is reached once. Recursion is as deep
    as the partition has rows or diagonal hooks.

    Row i of the result holds at index n the number of cores of weight n
    for core_sets[i]; counted, if given, picks the nodes that are counted
    (never the ones searched).
    """
    # Moduli ascending, so that moduli[0] is the smallest (see add_row).
    counters = [([0] * (max_n + 1), tuple(sorted(set(check_moduli(ts))))) for ts in core_sets]
    _check_nonneg(max_n, "max_n")

    def visit(node: tuple, weight: int, alive: list) -> None:
        if counted is None or counted(node):
            for row, _ in alive:
                row[weight] += 1
        for child, gain, kept in grow(node, max_n - weight, alive):
            visit(child, weight + gain, kept)

    if counters:
        visit((), 0, counters)
    return [tuple(row) for row, _ in counters]


def add_row(beta: tuple, room: int, alive: list) -> Iterator[tuple]:
    """Growth by a new first row: the node is the first-column hook set.

    Deleting the first row of a partition leaves the hook of every cell in
    rows 2, 3, ... unchanged, so the reduction of a t-core is a t-core. A
    new first row a >= the old one keeps the hooks beta (decreasing) and
    adds b = a + len(beta) above them; by the abacus criterion the child is
    a t-core iff b < t or b - t is in beta, and either forces
    b <= beta[0] + t (beta[0] = -1 when empty).
    """
    ell = len(beta)
    top = beta[0] if beta else -1
    reach = max(moduli[0] for _, moduli in alive)
    for b in range(max(top + 1, 1), min(room + ell, top + reach) + 1):
        kept = [pair for pair in alive if all(b < t or b - t in beta for t in pair[1])]
        if kept:
            yield (b,) + beta, b - ell, kept


def add_hook(deltas: tuple, room: int, alive: list) -> Iterator[tuple]:
    """Growth by a new principal hook: the node is the diagonal hook set.

    Deleting the principal hook (first row and column) of a self-conjugate
    partition leaves the hook of every cell (i, j) with i, j >= 2
    unchanged, so the reduction of a core is a core. A child adds an odd
    delta above the hooks deltas (decreasing); its first-column hooks are
    delta, (delta + top)/2 and smaller ones (beta_from_diagonal), so a
    t-core child has delta < t or delta - t <= (delta + top)/2, either way
    delta <= top + 2t (top = -1 when empty). Each child is tested on its
    whole hook set.
    """
    top = deltas[0] if deltas else -1
    reach = 2 * max(moduli[0] for _, moduli in alive)
    for delta in range(top + 2, min(room, top + reach) + 1, 2):
        child = (delta,) + deltas
        beta = set(beta_from_diagonal(child))
        kept = [pair for pair in alive if _beta_core(beta, pair[1])]
        if kept:
            yield child, delta, kept


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


def count_sc_sim_core_m(ts: Iterable[int], m: int, max_n: int) -> CountTable:
    """Per-weight counts of class-m self-conjugate simultaneous cores.

    All moduli must be even; odd entries are rejected. The principal-hook
    reduction may change the class, so the class (from the surplus of hooks
    1 over hooks 3 mod 4) filters the counted nodes only.
    """
    moduli = check_moduli(ts)
    for t in moduli:
        if t % 2:
            raise ValueError(f"moduli must all be even, got {t}")
    _check_nonneg(m, "m")

    def of_class(deltas: tuple) -> bool:
        return _class_index(sum(1 if x % 4 == 1 else -1 for x in deltas)) == m

    (rows,) = tabulate(add_hook, [moduli], max_n, of_class)
    return CountTable("sc-sim", {"ts": list(moduli), "m": m}, rows)


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


def partition_count_table(max_n: int) -> CountTable:
    """Table of p(n) for n in [0, max_n]."""
    _check_nonneg(max_n, "max_n")
    return CountTable("p", {}, tuple(partition_count(n) for n in range(max_n + 1)))


def sc_count_table(max_n: int) -> CountTable:
    """Table of self-conjugate partition counts for n in [0, max_n]."""
    _check_nonneg(max_n, "max_n")
    rows = tuple(
        sum(1 for _ in distinct_odd_decompositions(n)) for n in range(max_n + 1)
    )
    return CountTable("sc", {}, rows)


def core_count_tables(ts: Iterable[int], max_n: int) -> dict:
    """t-core count tables for several moduli from a single search."""
    moduli = tuple(dict.fromkeys(check_moduli(ts)))
    rows = tabulate(add_row, [(t,) for t in moduli], max_n)
    return {t: CountTable("core", {"t": t}, row) for t, row in zip(moduli, rows)}


def core_count_table(t: int, max_n: int) -> CountTable:
    """Table of t-core partition counts for n in [0, max_n]."""
    return core_count_tables((t,), max_n)[t]


def sc_sim_core_count_table(ts: Iterable[int], max_n: int) -> CountTable:
    """Self-conjugate simultaneous-core counts (all classes together)."""
    moduli = check_moduli(ts)
    (rows,) = tabulate(add_hook, [moduli], max_n)
    return CountTable("sc-sim-all", {"ts": list(moduli)}, rows)


def sc_core_count_table(t: int, max_n: int) -> CountTable:
    """Self-conjugate t-core counts for n in [0, max_n]."""
    (rows,) = tabulate(add_hook, [(t,)], max_n)
    return CountTable("sc-core", {"t": t}, rows)


def sim_core_count_table(ts: Iterable[int], max_n: int) -> CountTable:
    """Simultaneous-core counts for n in [0, max_n]."""
    moduli = check_moduli(ts)
    (rows,) = tabulate(add_row, [moduli], max_n)
    return CountTable("sim", {"ts": list(moduli)}, rows)
