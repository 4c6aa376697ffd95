import pytest

from scpartitions import (
    Partition,
    classify,
    complement_beta,
    corresponding_partition_after_deletion,
    delete_principal_hook,
    half_even_beta,
    partitions_of,
    phi,
    psi,
    sc_from_diagonal,
    self_conjugate_of,
)

from oracles import diagonal_sequence_pair, hook_table, phi_by_definition, psi_by_definition

LAM = sc_from_diagonal([21, 15, 13, 9, 3, 1])    # class 3, weight 62
LAM_T = sc_from_diagonal([31, 19, 11, 5])        # class 4, weight 66
MU = Partition([4, 3, 3, 2, 1, 1])


def all_sc(max_weight):
    for n in range(max_weight + 1):
        yield from self_conjugate_of(n)


class TestClassify:
    def test_examples(self):
        assert classify(Partition([4, 4, 4, 3])) == 2
        assert classify(LAM) == 3
        assert classify(LAM_T) == 4
        assert classify(Partition()) == 0

    def test_rejects_non_self_conjugate(self):
        with pytest.raises(ValueError, match="self-conjugate"):
            classify(Partition([5, 4, 2, 1]))

    def test_class_encodes_residue_surplus(self):
        for sc in all_sc(30):
            a, b = diagonal_sequence_pair(sc)
            diff = len(a) - len(b)
            assert diff == sum(1 if h % 4 == 1 else -1 for h in sc.diagonal_hooks())
            m = classify(sc)
            assert diff == (-1) ** (m + 1) * ((m + 1) // 2)

    def test_matches_oracle_split_up_to_60(self):
        # classify counts the hooks 3 mod 4 by bit 1; the oracle splits them by residue.
        for sc in all_sc(60):
            a, b = diagonal_sequence_pair(sc)
            d = len(a) - len(b)
            assert classify(sc) == (2 * d - 1 if d >= 1 else -2 * d), sc


class TestDiagonalSequencePair:
    # The pair is the paper's definition; phi splits the hooks the same way
    # itself, and TestPhi checks it against phi_by_definition, which reads the pair.
    def test_examples(self):
        assert diagonal_sequence_pair(Partition([4, 4, 4, 3])) == ((1,), (2, 1))
        assert diagonal_sequence_pair(LAM) == ((5, 3, 2, 0), (4, 1))
        assert diagonal_sequence_pair(LAM_T) == ((1,), (8, 5, 3))

    def test_residue_split_examples(self):
        assert diagonal_sequence_pair(sc_from_diagonal([7, 5, 3])) == ((1,), (2, 1))
        assert diagonal_sequence_pair(Partition()) == ((), ())

    def test_residue_split_partitions_hooks(self):
        # a carries the hooks 1 mod 4 and b those 3 mod 4, each in order
        a, b = diagonal_sequence_pair(LAM)
        d1 = [4 * x + 1 for x in a]
        d3 = [4 * y - 1 for y in b]
        assert (d1, d3) == ([21, 13, 9, 1], [15, 3])
        assert sorted(d1 + d3, reverse=True) == list(LAM.diagonal_hooks())

    def test_sequences_rebuild_diagonal(self):
        for sc in all_sc(30):
            a, b = diagonal_sequence_pair(sc)
            rebuilt = sorted(
                [4 * x + 1 for x in a] + [4 * y - 1 for y in b], reverse=True
            )
            assert tuple(rebuilt) == sc.diagonal_hooks()
            assert list(a) == sorted(a, reverse=True)
            assert list(b) == sorted(b, reverse=True)
            assert all(x >= 0 for x in a)
            assert all(y >= 1 for y in b)


class TestPhi:
    def test_golden_examples(self):
        assert phi(LAM) == (3, MU)
        assert phi(LAM_T) == (4, MU)
        assert phi(Partition()) == (0, Partition())

    def test_4443(self):
        m, mu = phi(Partition([4, 4, 4, 3]))
        assert m == 2
        assert mu == Partition([3])

    def test_weight_law_up_to_60(self):
        for sc in all_sc(60):
            m, mu = phi(sc)
            assert sc.weight == 4 * mu.weight + m * (m + 1) // 2

    def test_matches_definition_up_to_60(self):
        # Built partitions carry their hooks; fresh ones derive them.
        for sc in all_sc(60):
            expected = phi_by_definition(sc)
            assert phi(sc) == expected, sc
            assert phi(Partition(sc.parts)) == expected, sc

    def test_image_is_a_checked_partition_up_to_60(self):
        # phi builds its image unchecked after its own test: it must hold no
        # zero part and be the partition a fresh parse of its parts gives.
        # Hooks (5, 1) and (9, 5, 1) give a head of zeros only.
        surplus_only = [sc_from_diagonal([5, 1]), sc_from_diagonal([9, 5, 1])]
        for sc in [*all_sc(60), *surplus_only]:
            mu = phi(sc).mu
            assert 0 not in mu.parts, sc
            assert mu == Partition(list(mu.parts)), sc
        assert [phi(sc) for sc in surplus_only] == [(3, Partition()), (5, Partition())]

    def test_rejects_an_image_that_is_no_partition(self):
        # A partition trusted with hooks out of order maps to the head [-1, 1].
        bad = Partition._from_parts((3, 1, 1), (3, 1, 1), (1, 5))
        with pytest.raises(RuntimeError) as excinfo:
            phi(bad)
        assert str(excinfo.value) == "phi image [-1, 1] of (3,1,1) is not a partition"


class TestPsi:
    def test_golden_examples(self):
        assert psi(3, MU) == LAM
        assert psi(4, MU) == LAM_T
        assert psi(0, Partition()) == Partition()

    def test_weight_five_example(self):
        lam = psi(1, Partition([1]))
        assert lam == Partition([3, 1, 1])
        assert lam.weight == 5

    def test_negative_class_rejected(self):
        with pytest.raises(ValueError):
            psi(-1, MU)

    def test_round_trip_sc_side(self):
        for sc in all_sc(40):
            m, mu = phi(sc)
            assert psi(m, mu) == sc

    def test_round_trip_mu_side(self):
        # Every class m <= 12 and every mu of weight <= 16: 11,895 pairs.
        for w in range(17):
            for mu in partitions_of(w):
                for m in range(13):
                    assert phi(psi(m, mu)) == (m, mu)

    def test_matches_definition(self):
        for w in range(17):
            for mu in partitions_of(w):
                for m in range(13):
                    lam, expected = psi(m, mu), psi_by_definition(m, mu)
                    assert lam == expected, (m, mu)
                    assert lam.diagonal_hooks() == expected.diagonal_hooks(), (m, mu)
                    # psi reads mu's parts alone: a fresh mu maps alike.
                    fresh = psi(m, Partition(mu.parts))
                    assert fresh == expected, (m, mu)
                    assert fresh.diagonal_hooks() == expected.diagonal_hooks(), (m, mu)


class TestDisparityLaw:
    def test_up_to_60(self):
        for sc in all_sc(60):
            m = classify(sc)
            assert sc.disparity() == m * (m + 1) // 2


class TestHalfEvenBeta:
    def test_examples(self):
        assert half_even_beta(LAM) == (9, 6, 4, 1)
        assert half_even_beta(LAM_T) == (9, 7, 6, 4, 2, 1)
        assert half_even_beta(Partition([1])) == ()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            half_even_beta(Partition())

    def test_matches_image_beta_up_to_60(self):
        for sc in all_sc(60):
            if not sc:
                continue
            mu = phi(sc).mu
            expected = (
                mu.conjugate().beta_set()
                if sc.diagonal_hooks()[0] % 4 == 1
                else mu.beta_set()
            )
            assert half_even_beta(sc) == expected


class TestComplementBeta:
    def test_examples(self):
        assert complement_beta(MU) == {2, 3, 5, 7, 8}
        assert complement_beta(Partition([1])) == frozenset()
        assert complement_beta(Partition([6])) == frozenset()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            complement_beta(Partition())

    def test_complements_first_row_hooks_up_to_25(self):
        for w in range(1, 26):
            for mu in partitions_of(w):
                corner = hook_table(mu.parts)[0][0]
                expected = set(range(1, corner + 1)) - set(mu.conjugate().beta_set())
                assert complement_beta(mu) == expected


class TestPrincipalHookDeletion:
    def test_examples(self):
        assert delete_principal_hook(Partition([4, 4, 4, 3])) == Partition([3, 3, 2])
        assert delete_principal_hook(Partition([1])) == Partition()
        assert delete_principal_hook(LAM) == sc_from_diagonal([15, 13, 9, 3, 1])

    def test_weight_drop(self):
        for sc in all_sc(40):
            if not sc:
                continue
            top = sc.diagonal_hooks()[0]
            assert delete_principal_hook(sc).weight == sc.weight - top

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            delete_principal_hook(Partition())

    def test_rows_agree_with_carried_hooks_up_to_60(self):
        # prop4.4 hands phi only the carried hooks, so the stripped rows are
        # checked here, on partitions as built and as parsed from their parts.
        for built in all_sc(60):
            for sc in (built, Partition(built.parts)):
                if not sc:
                    continue
                d = delete_principal_hook(sc)
                assert d == sc_from_diagonal(sc.diagonal_hooks()[1:])
                assert Partition(d.parts).diagonal_hooks() == d.diagonal_hooks()


class TestDeletionCorrespondence:
    def test_examples(self):
        assert corresponding_partition_after_deletion(MU, 1) == Partition([3, 3, 2, 1, 1])
        assert corresponding_partition_after_deletion(MU, 3) == Partition([3, 2, 2, 1])
        assert corresponding_partition_after_deletion(Partition(), 1) == Partition()
        assert corresponding_partition_after_deletion(Partition(), 3) == Partition()
        assert corresponding_partition_after_deletion(Partition([1, 1, 1]), 3) == Partition()
        assert corresponding_partition_after_deletion(Partition([2, 1, 1]), 3) == Partition([1])

    def test_bad_class_rejected(self):
        with pytest.raises(ValueError):
            corresponding_partition_after_deletion(MU, 2)

    def test_square_commutes_up_to_60(self):
        for sc in all_sc(60):
            if not sc:
                continue
            mu = phi(sc).mu
            residue = sc.diagonal_hooks()[0] % 4
            assert corresponding_partition_after_deletion(mu, residue) == phi(
                delete_principal_hook(sc)
            ).mu


class TestEvenHookDoubling:
    def test_up_to_60(self):
        for sc in all_sc(60):
            mu = phi(sc).mu
            sc_hooks = dict(enumerate(sc.hook_multiset()))
            evens = {h // 2: c for h, c in sc_hooks.items() if h % 2 == 0 and c}
            assert evens == {k: 2 * c for k, c in enumerate(mu.hook_multiset()) if c}
            odd = sum(c for h, c in sc_hooks.items() if h % 2)
            assert odd == sc.weight - 2 * mu.weight


class TestDoubledCoreEquivalence:
    @pytest.mark.parametrize("ts", [(2,), (3,), (2, 3), (3, 4)])
    def test_up_to_60(self, ts):
        for sc in all_sc(60):
            mu = phi(sc).mu
            doubled = [2 * t for t in ts]
            assert sc.is_simultaneous_core(doubled) == mu.is_simultaneous_core(ts)
