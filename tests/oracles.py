"""Independent brute-force oracles used to pin expected values in tests.

These deliberately avoid the library's own formulas: conjugation goes
through an explicit cell set, hooks are counted by walking boxes, the
core test looks beads up in a set, distinct odd decompositions come from
a recursive walk and from the flat walk the generator of self-conjugate
partitions replaced, partitions from a stack walk, and the classical
sequences come from their recurrences. ``diagonal_sequence_pair`` splits
the diagonal hooks by residue mod 4, as the paper defines the pair, and
``phi_by_definition`` and ``psi_by_definition`` keep the library's
earlier maps, written index by index from the paper's formulas. The
core-count oracles take every partition (or self-conjugate partition) of
each weight from the library's generators and test it with its core
predicate, so they share nothing with the library's search over cores. The ``*_by_factors``
builders keep the library's earlier product builders, one sparse pass
per factor: they reach orders the dense expansions cannot, and share no
pentagonal numbers and no p(n) with the builders they check.
"""

import operator
from collections import Counter
from functools import lru_cache

from scpartitions import (
    Partition,
    TruncatedSeries,
    check_moduli,
    classify,
    partitions_of,
    sc_from_diagonal,
    self_conjugate_of,
)


def cells(parts):
    return {(i, j) for i, row in enumerate(parts, start=1) for j in range(1, row + 1)}


def transpose_by_cells(parts):
    """Conjugate partition read off a transposed cell set."""
    flipped = {(j, i) for i, j in cells(parts)}
    rows = {}
    for i, _ in flipped:
        rows[i] = rows.get(i, 0) + 1
    return tuple(rows[i] for i in sorted(rows))


def hooks_by_cells(parts):
    """All hook lengths, each counted by walking arm and leg cells."""
    boxes = cells(parts)
    out = []
    for i, j in boxes:
        arm = sum(1 for jj in range(j + 1, 10_000) if (i, jj) in boxes)
        leg = sum(1 for ii in range(i + 1, 10_000) if (ii, j) in boxes)
        out.append(arm + leg + 1)
    return sorted(out)


def hook_table(parts):
    """Hook length of each box (i, j), row by row, by the per-box formula
    row_i + col_j - i - j + 1; the columns come from transpose_by_cells."""
    conj = transpose_by_cells(parts)
    return tuple(
        tuple(row + conj[j] - i - j for j in range(row)) for i, row in enumerate(parts, start=1)
    )


def hooks_by_formula(parts):
    """Hook multiset counted off hook_table; only lengths that occur are keys."""
    return Counter(h for row in hook_table(parts) for h in row)


def hook_vector(counts):
    """A Counter of hook lengths as Partition.hook_multiset gives it: entry h
    counts length h, from 0 up to the largest length; () when empty."""
    return tuple(counts[h] for h in range(max(counts, default=-1) + 1))


def beta_core(beta, ts):
    """Set-based abacus test: beta (a set of beads) is closed under subtracting each t."""
    return all(x < t or (x - t) in beta for t in ts for x in beta)


def odd_desc_recursive(total, cap):
    """Decreasing tuples of distinct odd parts at most cap summing to total.

    The recursive walk, in decreasing lexicographic order: each lead is
    tried from the largest down, and stops once the distinct odd numbers
    below it (summing to at most half * half) cannot fill the rest.
    """
    if total == 0:
        yield ()
        return
    first = min(cap, total if total % 2 else total - 1)
    while first >= 1:
        rest = total - first
        half = (first - 1) // 2
        if rest > half * half:
            break
        for tail in odd_desc_recursive(rest, first - 2):
            yield (first,) + tail
        first -= 2


def odd_desc_walk(total):
    """Decreasing tuples of distinct odd parts summing to total, walked flat.

    The library's earlier walk, before the generator built partitions
    from their parents: depth first over the prefix in stack, with the
    same order and pruning as odd_desc_recursive.
    """
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


def partitions_by_stack(n):
    """Partitions of n as tuples, in reverse lexicographic order.

    The stack walk: find the last part above 1, lower it by one, and
    refill what it and the ones after it held with parts no larger.
    """
    if n == 0:
        yield ()
        return
    stack = [n]
    while True:
        yield tuple(stack)
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


def _class_index(surplus):
    return 2 * surplus - 1 if surplus >= 1 else -2 * surplus


def diagonal_sequence_pair(sc):
    """Strictly decreasing sequences a (a_i >= 0) and b (b_j >= 1) with
    diagonal hooks {4a_i + 1} and {4b_j - 1}, split by residue mod 4."""
    hooks = sc.diagonal_hooks()
    return (
        tuple((x - 1) // 4 for x in hooks if x % 4 == 1),
        tuple((x + 1) // 4 for x in hooks if x % 4 == 3),
    )


def phi_by_definition(sc):
    """(m, mu) with mu_i = a_i + i + s - r for i <= r, then the conjugate of
    (b_1 - s, b_2 - s + 1, ..., b_s - 1), each entry computed by index."""
    a, b = diagonal_sequence_pair(sc)
    r, s = len(a), len(b)
    m = _class_index(r - s)
    head = [a[i] + (i + 1) + s - r for i in range(r)]
    gamma = Partition(b[j] - s + j for j in range(s))
    return m, Partition(head + list(gamma._conjugate_parts()))


def psi_by_definition(m, mu):
    """The self-conjugate partition of class m mapped to mu, read by index."""
    if m < 0:
        raise ValueError(f"class index must be >= 0, got {m}")
    parts = mu.parts
    ell = len(parts)

    def at(i: int) -> int:
        return parts[i - 1] if 1 <= i <= ell else 0

    d = (m + 1) // 2 if m % 2 else -m // 2
    low = max(d, 0)
    found = [
        r
        for r in range(low, ell + low + 1)
        if (r == 0 or at(r) >= r - d) and at(r + 1) <= r - d
    ]
    if len(found) != 1:
        raise RuntimeError(f"split index not unique for m={m}, mu=({mu}): {found}")
    r = found[0]
    s = r - d

    gamma = list(Partition(parts[r:]).conjugate().parts)
    if len(gamma) > s:
        raise RuntimeError(f"conjugate tail exceeds {s} parts for m={m}, mu=({mu})")
    gamma += [0] * (s - len(gamma))
    a = [at(i) - i - s + r for i in range(1, r + 1)]
    b = [gamma[j - 1] + s - j + 1 for j in range(1, s + 1)]
    return sc_from_diagonal([4 * x + 1 for x in a] + [4 * y - 1 for y in b])


def catalan_by_recurrence(n):
    vals = [1]
    for m in range(n):
        vals.append(sum(vals[i] * vals[m - i] for i in range(m + 1)))
    return vals[n]


def motzkin_by_recurrence(n):
    vals = [1]
    for m in range(n):
        nxt = vals[m] + sum(vals[i] * vals[m - 1 - i] for i in range(m))
        vals.append(nxt)
    return vals[n]


@lru_cache(maxsize=None)
def partitions_brute(n, cap=None):
    """All partitions of n with parts at most cap, as tuples (naive recursion)."""
    cap = n if cap is None else cap
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, cap), 0, -1):
        for rest in partitions_brute(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _partitions_upto(max_n):
    return tuple(tuple(partitions_of(n)) for n in range(max_n + 1))


@lru_cache(maxsize=None)
def _self_conjugate_upto(max_n):
    return tuple(tuple(self_conjugate_of(n)) for n in range(max_n + 1))


def cores_by_brute_force(ts, max_n):
    """Per-weight count of the simultaneous ts-cores: test every partition."""
    return tuple(
        sum(1 for p in weight if p.is_simultaneous_core(ts))
        for weight in _partitions_upto(max_n)
    )


def sc_cores_by_brute_force(ts, max_n, m=None):
    """Per-weight count of the self-conjugate ts-cores (of class m, if given)."""
    return tuple(
        sum(
            1
            for sc in weight
            if sc.is_simultaneous_core(ts) and (m is None or classify(sc) == m)
        )
        for weight in _self_conjugate_upto(max_n)
    )


def sc_counts_by_decomposition(max_n):
    """Per-weight count of self-conjugate partitions: walk every distinct-odd decomposition."""
    return tuple(sum(1 for _ in odd_desc_walk(n)) for n in range(max_n + 1))


def dense_product(a, b, order):
    """Truncated product of two coefficient lists by the schoolbook double loop."""
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j, y in enumerate(b[: order + 1 - i]):
                out[i + j] += x * y
    return out


def expand_factors(factors, order):
    """Multiply out a list of factors, each a full coefficient list."""
    out = [1] + [0] * order
    for factor in factors:
        out = dense_product(factor, out, order)
    return out


def binomial_factor(k, sign, order):
    """Coefficients of 1 + sign * q^k truncated at q^order."""
    out = [1] + [0] * order
    if k <= order:
        out[k] += sign
    return out


def geometric_factor(k, order):
    """Coefficients of 1 / (1 - q^k) = 1 + q^k + q^2k + ... truncated at q^order."""
    return [1 if i % k == 0 else 0 for i in range(order + 1)]


def core_product_dense(t, order):
    """prod (1 - q^(nt))^t / (1 - q^n), every factor expanded as a full series."""
    factors = [geometric_factor(n, order) for n in range(1, order + 1)]
    factors += [binomial_factor(n * t, -1, order) for n in range(1, order // t + 1)] * t
    return expand_factors(factors, order)


def sc_even_core_product_dense(t, order):
    """prod (1 - q^(4nt))^t (1 + q^(2n-1)), every factor expanded as a full series."""
    factors = [binomial_factor(4 * n * t, -1, order) for n in range(1, order // (4 * t) + 1)] * t
    factors += [binomial_factor(k, 1, order) for k in range(1, order + 1, 2)]
    return expand_factors(factors, order)


def gauss_product_dense(order):
    """prod (1 - q^(2n)) / (1 - q^(2n-1)), every factor expanded as a full series."""
    factors = [geometric_factor(k, order) for k in range(1, order + 1, 2)]
    factors += [binomial_factor(k, -1, order) for k in range(2, order + 1, 2)]
    return expand_factors(factors, order)


def binomial_pass(s: TruncatedSeries, exponent: int, sign: int) -> TruncatedSeries:
    """s times 1 + sign * q^exponent, for sign = 1 or -1, in one pass."""
    if exponent < 1:
        raise ValueError(f"exponent must be >= 1, got {exponent}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, got {sign}")
    # out[k] = c[k] + sign * c[k - exponent] for k >= exponent.
    c = s.coeffs
    combine = operator.add if sign == 1 else operator.sub
    return TruncatedSeries._from_coeffs(c[:exponent] + tuple(map(combine, c[exponent:], c)))


def core_product_by_factors(t: int, order: int) -> TruncatedSeries:
    """prod (1 - q^(nt))^t / (1 - q^n), one times_geometric or binomial_pass per factor."""
    check_moduli((t,))
    out = TruncatedSeries.one(order)
    for n in range(1, order + 1):
        out = out.times_geometric(n)
    for n in range(1, order // t + 1):
        for _ in range(t):
            out = binomial_pass(out, n * t, -1)
    return out


def sc_even_core_product_by_factors(t: int, order: int) -> TruncatedSeries:
    """prod (1 - q^(4nt))^t (1 + q^(2n-1)), one binomial_pass per factor."""
    check_moduli((t,))
    out = TruncatedSeries.one(order)
    for n in range(1, order // (4 * t) + 1):
        for _ in range(t):
            out = binomial_pass(out, 4 * n * t, -1)
    for odd in range(1, order + 1, 2):
        out = binomial_pass(out, odd, 1)
    return out


def gauss_product_by_factors(order: int) -> TruncatedSeries:
    """prod (1 - q^(2n)) / (1 - q^(2n-1)), one times_geometric or binomial_pass per factor."""
    out = TruncatedSeries.one(order)
    for odd in range(1, order + 1, 2):
        out = binomial_pass(out.times_geometric(odd), odd + 1, -1)
    return out
