"""Randomized invariants; the exhaustive sweeps live next to each module."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from scpartitions import (
    Partition,
    TruncatedSeries,
    add_hook,
    beta_from_diagonal,
    delete_principal_hook,
    phi,
    psi,
    sc_from_diagonal,
    self_conjugate_of,
)
from oracles import beta_core, hook_table, hook_vector, hooks_by_cells


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
    assert Partition(sc.parts).is_self_conjugate()
    assert Partition(sc.parts).diagonal_hooks() == deltas
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
    assert Partition(p.parts[1:]).is_simultaneous_core((t,))


@given(partitions)
def test_first_row_deletion_keeps_lower_hooks(p):
    table = hook_table(p.parts)
    assert hook_table(p.parts[1:]) == table[1:]
    first_row = Counter(table[0] if table else ())
    rest = Counter(dict(enumerate(Partition(p.parts[1:]).hook_multiset())))
    assert p.hook_multiset() == hook_vector(rest + first_row)


SC_CORES = [
    (t, sc)
    for t in range(2, 9)
    for n in range(1, 41)
    for sc in self_conjugate_of(n)
    if sc.is_simultaneous_core((t,))
]


@given(st.sampled_from(SC_CORES))
def test_principal_hook_deletion_keeps_a_core(case):
    t, sc = case
    assert delete_principal_hook(sc).is_simultaneous_core((t,))


@given(odd_sets.filter(bool))
def test_principal_hook_deletion_keeps_inner_hooks(deltas):
    sc = sc_from_diagonal(deltas)
    inner = delete_principal_hook(sc)
    # The inner partition's boxes are exactly sc's boxes off the first row and column.
    below = tuple(row[1:] for row in hook_table(sc.parts)[1:] if len(row) > 1)
    assert hook_table(inner.parts) == below


@st.composite
def hook_nodes(draw):
    """(diagonal hooks, their add_hook node, ascending moduli the partition is a core for)."""
    deltas = draw(odd_sets)
    beads = frozenset(beta_from_diagonal(deltas))
    cores_for = [t for t in range(1, 45) if beta_core(beads, (t,))]
    moduli = draw(st.lists(st.sampled_from(cores_for), min_size=1, max_size=3))
    return deltas, (deltas[0] if deltas else -1, beads), tuple(sorted(set(moduli)))


@given(hook_nodes(), st.integers(0, 60))
def test_add_hook_yields_exactly_the_core_children(case, room):
    # Each child is checked on its whole first-column hook set, rebuilt
    # from its diagonal hooks, against the padded-bead test add_hook makes.
    deltas, node, moduli = case
    expected = []
    for delta in range(node[0] + 2, room + 1, 2):
        beads = frozenset(beta_from_diagonal((delta,) + deltas))
        if beta_core(beads, moduli):
            expected.append(((delta, beads), delta))
    assert list(add_hook(node, room, moduli)) == expected
