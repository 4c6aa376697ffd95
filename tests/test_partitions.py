import pytest

from scpartitions import (
    Partition,
    PartitionError,
    beta_from_diagonal,
    check_moduli,
    parse_partition,
    partitions_of,
    sc_from_diagonal,
    split_diagonal_classes,
)

from oracles import hooks_by_cells, transpose_by_cells


class TestConstruction:
    def test_valid_passthrough(self):
        assert Partition([5, 4, 2, 1]).parts == (5, 4, 2, 1)

    def test_empty(self):
        p = Partition([])
        assert p.parts == ()
        assert p.weight == 0
        assert len(p) == 0
        assert not p

    def test_trailing_zeros_stripped(self):
        assert Partition([3, 1, 0, 0]).parts == (3, 1)
        assert Partition([0]).parts == ()

    def test_increasing_rejected_with_index(self):
        with pytest.raises(PartitionError, match="index 1"):
            Partition([2, 3, 1])

    def test_interior_nonpositive_rejected_with_index(self):
        with pytest.raises(PartitionError, match="index 1"):
            Partition([3, 0, 1])
        with pytest.raises(PartitionError, match="index 2"):
            Partition([3, 2, -1])

    def test_non_integer_rejected(self):
        with pytest.raises(PartitionError):
            Partition([2.5, 1])

    def test_equality_and_hash(self):
        assert Partition([2, 1]) == Partition((2, 1))
        assert hash(Partition([2, 1])) == hash(Partition([2, 1]))
        assert Partition([2, 1]) != Partition([3])

    def test_wire_format(self):
        assert str(Partition([4, 4, 4, 3])) == "4,4,4,3"
        assert str(Partition()) == ""
        assert parse_partition("4,4,4,3").parts == (4, 4, 4, 3)
        assert parse_partition("  ") == Partition()
        assert parse_partition("4, 4, 4, 3").parts == (4, 4, 4, 3)

    def test_parse_rejects_junk(self):
        with pytest.raises(PartitionError, match="token 1"):
            parse_partition("4,x,1")
        with pytest.raises(PartitionError):
            parse_partition("1,2")


class TestConjugate:
    def test_example(self):
        assert Partition([5, 4, 2, 1]).conjugate().parts == (4, 3, 2, 2, 1)

    def test_empty(self):
        assert Partition().conjugate() == Partition()

    def test_self_conjugate_fixed_point(self):
        p = Partition([4, 4, 4, 3])
        assert p.conjugate() == p
        assert p.is_self_conjugate()

    def test_matches_cell_transpose_oracle(self):
        for n in range(13):
            for p in partitions_of(n):
                assert p.conjugate().parts == transpose_by_cells(p.parts)

    def test_involution_up_to_40(self):
        for n in range(41):
            for p in partitions_of(n):
                assert p.conjugate().conjugate() == p


class TestHooks:
    def test_first_row_of_5421(self):
        p = Partition([5, 4, 2, 1])
        assert [p.hook_length(1, j) for j in range(1, 6)] == [8, 6, 4, 3, 1]

    def test_full_table_4443(self):
        p = Partition([4, 4, 4, 3])
        table = [
            [p.hook_length(i, j) for j in range(1, p.parts[i - 1] + 1)]
            for i in range(1, 5)
        ]
        assert table == [[7, 6, 5, 3], [6, 5, 4, 2], [5, 4, 3, 1], [3, 2, 1]]

    def test_single_box(self):
        assert Partition([1]).hook_length(1, 1) == 1

    def test_out_of_diagram_is_an_error(self):
        p = Partition([2, 1])
        for i, j in ((1, 3), (2, 2), (3, 1), (0, 1), (1, 0)):
            with pytest.raises(IndexError):
                p.hook_length(i, j)

    def test_multiset_4443(self):
        assert dict(Partition([4, 4, 4, 3]).hook_multiset()) == {
            7: 1, 6: 2, 5: 3, 4: 2, 3: 3, 2: 2, 1: 2,
        }

    def test_multiset_small(self):
        assert dict(Partition([2, 1]).hook_multiset()) == {3: 1, 1: 2}
        assert dict(Partition().hook_multiset()) == {}

    def test_multiset_matches_cell_oracle(self):
        for n in range(11):
            for p in partitions_of(n):
                got = sorted(p.hook_multiset().elements())
                assert got == hooks_by_cells(p.parts)

    def test_multiset_total_is_weight(self):
        for n in range(26):
            for p in partitions_of(n):
                assert sum(p.hook_multiset().values()) == n

    def test_hook_symmetry_up_to_40(self):
        for n in range(41):
            for p in partitions_of(n):
                assert p.hook_multiset() == p.conjugate().hook_multiset()


class TestBetaSet:
    def test_example(self):
        assert Partition([4, 3, 3, 2, 1, 1]).beta_set() == (9, 7, 6, 4, 2, 1)

    def test_empty_and_single_row(self):
        assert Partition().beta_set() == ()
        assert Partition([7]).beta_set() == (7,)

    def test_length_is_part_count(self):
        for n in range(21):
            for p in partitions_of(n):
                beta = p.beta_set()
                assert len(beta) == len(p)
                assert list(beta) == sorted(beta, reverse=True)
                if beta:
                    assert beta[0] == p.hook_length(1, 1)

    def test_self_conjugate_beta_equality(self):
        from scpartitions import self_conjugate_of

        for n in range(41):
            for sc in self_conjugate_of(n):
                assert sc.beta_set() == sc.conjugate().beta_set()


class TestDiagonalHooks:
    def test_example(self):
        assert Partition([4, 4, 4, 3]).diagonal_hooks() == (7, 5, 3)

    def test_trivial(self):
        assert Partition([1]).diagonal_hooks() == (1,)
        assert Partition().diagonal_hooks() == ()
        assert Partition([2, 1]).diagonal_hooks() == (3,)

    def test_non_self_conjugate_rejected(self):
        with pytest.raises(ValueError, match="self-conjugate"):
            Partition([5, 4, 2, 1]).diagonal_hooks()
        with pytest.raises(ValueError, match="self-conjugate"):
            Partition([2]).diagonal_hooks()

    def test_durfee_side(self):
        assert Partition([4, 4, 4, 3]).durfee_side() == 3
        assert Partition([2, 1]).durfee_side() == 1
        assert Partition().durfee_side() == 0

    def test_reconstruction_examples(self):
        assert sc_from_diagonal([7, 5, 3]).parts == (4, 4, 4, 3)
        assert sc_from_diagonal([]) == Partition()
        lam = sc_from_diagonal([21, 15, 13, 9, 3, 1])
        assert lam.weight == 62
        assert lam.is_self_conjugate()

    def test_reconstruction_rejects_bad_input(self):
        with pytest.raises(ValueError, match="even"):
            sc_from_diagonal([4, 1])
        with pytest.raises(ValueError, match="duplicate"):
            sc_from_diagonal([5, 5])
        with pytest.raises(ValueError, match="positive"):
            sc_from_diagonal([3, -1])

    def test_round_trip_up_to_60(self):
        from scpartitions import distinct_odd_decompositions

        for n in range(61):
            for deltas in distinct_odd_decompositions(n):
                sc = sc_from_diagonal(deltas)
                assert sc.weight == n
                assert sc.is_self_conjugate()
                assert sc.diagonal_hooks() == deltas


class TestDiagonalClasses:
    def test_examples(self):
        assert split_diagonal_classes([7, 5, 3]) == ((5,), (7, 3))
        assert split_diagonal_classes([21, 15, 13, 9, 3, 1]) == (
            (21, 13, 9, 1),
            (15, 3),
        )
        assert split_diagonal_classes([]) == ((), ())

    def test_partitioning(self):
        d1, d3 = split_diagonal_classes([21, 15, 13, 9, 3, 1])
        assert sorted(d1 + d3, reverse=True) == [21, 15, 13, 9, 3, 1]
        assert all(x % 4 == 1 for x in d1)
        assert all(x % 4 == 3 for x in d3)


class TestBetaFromDiagonal:
    def test_examples(self):
        assert beta_from_diagonal([7, 5, 3]) == (7, 6, 5, 3)
        assert beta_from_diagonal([1]) == (1,)
        assert beta_from_diagonal([5]) == (5, 2, 1)

    def test_agrees_with_direct_beta_up_to_60(self):
        from scpartitions import distinct_odd_decompositions

        for n in range(61):
            for deltas in distinct_odd_decompositions(n):
                assert beta_from_diagonal(deltas) == sc_from_diagonal(deltas).beta_set()


class TestDisparity:
    def test_examples(self):
        assert Partition([4, 4, 4, 3]).disparity() == 3
        assert Partition().disparity() == 0
        assert Partition([1]).disparity() == 1

    def test_counts_match_multiset(self):
        for n in range(16):
            for p in partitions_of(n):
                odd = sum(c for h, c in p.hook_multiset().items() if h % 2)
                assert p.disparity() == odd - (n - odd)


class TestCores:
    def test_examples(self):
        assert Partition([2]).is_t_core(3)
        assert not Partition([4, 4, 4, 3]).is_t_core(7)
        assert Partition().is_t_core(5)

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            Partition([1]).is_t_core(0)
        with pytest.raises(ValueError):
            Partition([1]).is_simultaneous_core([])

    def test_every_modulus_checked_before_testing_any(self):
        # [2] is not a 2-core, so a lazy check would stop before seeing the 0.
        with pytest.raises(ValueError, match="got 0"):
            Partition([2]).is_simultaneous_core([2, 0])
        with pytest.raises(ValueError, match="got -3"):
            Partition([2]).is_simultaneous_core(iter([2, -3]))

    def test_check_moduli(self):
        assert check_moduli(iter([3, 4, 3])) == (3, 4, 3)
        with pytest.raises(ValueError, match="nonempty"):
            check_moduli([])
        with pytest.raises(ValueError, match="positive integer, got 0"):
            check_moduli([5, 0])

    def test_simultaneous_examples(self):
        assert Partition([1]).is_simultaneous_core([2, 3])
        assert not Partition([2, 1]).is_simultaneous_core([2, 3])
        assert Partition().is_simultaneous_core([5, 7])

    def test_one_core_is_only_empty(self):
        assert Partition().is_t_core(1)
        for n in range(1, 8):
            assert not any(p.is_t_core(1) for p in partitions_of(n))

    def test_against_hook_divisibility_up_to_28(self):
        # The fast first-column test must match the definition verbatim.
        for n in range(29):
            for p in partitions_of(n):
                hooks = p.hook_multiset()
                for t in range(1, 9):
                    brute = not any(h % t == 0 for h in hooks)
                    assert p.is_t_core(t) == brute
                assert p.is_simultaneous_core([2, 3]) == (
                    p.is_t_core(2) and p.is_t_core(3)
                )
