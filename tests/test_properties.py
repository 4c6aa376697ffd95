"""Randomized invariants; the exhaustive sweeps live next to each module."""

from hypothesis import given, settings
from hypothesis import strategies as st

from scpartitions import (
    Partition,
    TruncatedSeries,
    delete_principal_hook,
    phi,
    psi,
    sc_from_diagonal,
    self_conjugate_of,
)

from oracles import hooks_by_cells


partitions = st.lists(st.integers(1, 15), max_size=12).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)

odd_sets = st.sets(st.integers(0, 20), max_size=8).map(
    lambda s: tuple(sorted((2 * x + 1 for x in s), reverse=True))
)


@given(partitions)
def test_conjugate_is_involution(p):
    assert p.conjugate().conjugate() == p


@given(partitions)
def test_conjugate_preserves_weight(p):
    assert p.conjugate().weight == p.weight


@given(partitions)
def test_beta_set_strictly_decreasing(p):
    beta = p.beta_set()
    assert all(a > b for a, b in zip(beta, beta[1:]))


@given(odd_sets)
def test_diagonal_round_trip(deltas):
    sc = sc_from_diagonal(deltas)
    assert sc.is_self_conjugate()
    assert sc.diagonal_hooks() == deltas
    assert sc.weight == sum(deltas)


@given(partitions, st.integers(0, 8))
@settings(max_examples=60)
def test_correspondence_round_trip(mu, m):
    assert phi(psi(m, mu)) == (m, mu)


coeff_lists = st.lists(st.integers(-50, 50), min_size=1, max_size=12)


@given(coeff_lists, coeff_lists)
def test_series_multiplication_commutes(a, b):
    order = max(len(a), len(b)) - 1
    x = TruncatedSeries(a, order)
    y = TruncatedSeries(b, order)
    assert x * y == y * x


@given(coeff_lists, coeff_lists, coeff_lists)
@settings(max_examples=60)
def test_series_multiplication_associates_and_distributes(a, b, c):
    order = max(len(a), len(b), len(c)) - 1
    x = TruncatedSeries(a, order)
    y = TruncatedSeries(b, order)
    z = TruncatedSeries(c, order)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


# The core tables search from the empty partition by adding one outer layer
# at a time; they see every core only if deleting that layer keeps a core.


@st.composite
def abacus_cores(draw):
    """(t, a t-core): beads on each runner of a t-abacus, packed to the top."""
    t = draw(st.integers(1, 6))
    beads = draw(st.lists(st.integers(0, 4), min_size=t, max_size=t))
    beta = sorted((r + t * i for r in range(t) for i in range(beads[r])), reverse=True)
    ell = len(beta)
    return t, Partition([x - (ell - i) for i, x in enumerate(beta, start=1)])


@given(abacus_cores())
def test_first_row_deletion_keeps_a_core(case):
    t, p = case
    assert all(h % t for h in hooks_by_cells(p.parts))
    assert Partition(p.parts[1:]).is_t_core(t)


@given(partitions)
def test_first_row_deletion_keeps_lower_hooks(p):
    rest = Partition(p.parts[1:])
    for i in range(2, len(p) + 1):
        for j in range(1, p[i - 1] + 1):
            assert rest.hook_length(i - 1, j) == p.hook_length(i, j)


SC_CORES = [
    (t, sc)
    for t in range(2, 9)
    for n in range(1, 41)
    for sc in self_conjugate_of(n)
    if sc.is_t_core(t)
]


@given(st.sampled_from(SC_CORES))
def test_principal_hook_deletion_keeps_a_core(case):
    t, sc = case
    assert delete_principal_hook(sc).is_t_core(t)


@given(odd_sets.filter(bool))
def test_principal_hook_deletion_keeps_inner_hooks(deltas):
    sc = sc_from_diagonal(deltas)
    inner = delete_principal_hook(sc)
    for i in range(2, len(sc) + 1):
        for j in range(2, sc[i - 1] + 1):
            assert inner.hook_length(i - 1, j - 1) == sc.hook_length(i, j)
