"""Independent brute-force oracles used to pin expected values in tests.

These deliberately avoid the library's own formulas: conjugation goes
through an explicit cell set, hooks are counted by walking boxes, and
the classical sequences come from their recurrences. The core-count
oracles take every partition (or self-conjugate partition) of each weight
from the library's generators and test it with its core predicate, so
they share nothing with the library's search over cores.
"""

from functools import lru_cache

from scpartitions import classify, partitions_of, self_conjugate_of


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
