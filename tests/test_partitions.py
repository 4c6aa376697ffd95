import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scpartitions import (
    Partition,
    PartitionError,
    beta_from_diagonal,
    check_moduli,
    parse_partition,
    partitions_of,
    sc_from_diagonal,
    self_conjugate_of,
)

from oracles import (
    beta_core,
    hook_table,
    hook_vector,
    hooks_by_cells,
    hooks_by_formula,
    odd_desc_walk,
    transpose_by_cells,
)


def _parts_up_to(weight):
    # Decreasing parts, cut where the running sum would pass the weight.
    def cut(xs):
        parts, total = [], 0
        for x in sorted(xs, reverse=True):
            if total + x > weight:
                break
            parts.append(x)
            total += x
        return Partition(parts)

    return st.lists(st.integers(1, 60), max_size=60).map(cut)


def _parity_balance(hooks):
    # Odd minus even lengths of a hook multiset.
    return sum(c if h % 2 else -c for h, c in hooks.items())


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

    def test_a_million_trailing_zeros_strip_at_once(self):
        # One slice past the last nonzero part; a slice per zero took minutes here.
        assert Partition([2] + [0] * 1_000_000) == Partition([2])

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

    @pytest.mark.parametrize(
        "parts, message",
        [
            ([3, -1], "part at index 1 is not positive: -1"),
            ([3, 2, -1, 0], "part at index 2 is not positive: -1"),
            ([0, 0, -2], "part at index 0 is not positive: 0"),
            ([3, 0, 1], "part at index 1 is not positive: 0"),
            ([2, 3, 1], "parts increase at index 1: 2 < 3"),
            ([4, 2, 0, 3], "part at index 2 is not positive: 0"),
            ([2, 1.5], "parts must be integers: 'float' object cannot be interpreted as an integer"),
            ([None], "parts must be integers: 'NoneType' object cannot be interpreted as an integer"),
            (5, "parts must be integers: 'int' object is not iterable"),
        ],
    )
    def test_error_messages(self, parts, message):
        with pytest.raises(PartitionError) as excinfo:
            Partition(parts)
        assert str(excinfo.value) == message

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
        for n in range(26):
            for p in partitions_of(n):
                assert p.conjugate().parts == transpose_by_cells(p.parts)

    def test_involution_up_to_40(self):
        for n in range(41):
            for p in partitions_of(n):
                assert p.conjugate().conjugate() == p


class TestHooks:
    # The per-box hook table is the oracle's; hooks_by_formula counts it.
    def test_first_row_of_5421(self):
        assert hook_table((5, 4, 2, 1))[0] == (8, 6, 4, 3, 1)

    def test_full_table_4443(self):
        table = hook_table((4, 4, 4, 3))
        assert table == ((7, 6, 5, 3), (6, 5, 4, 2), (5, 4, 3, 1), (3, 2, 1))

    def test_single_box(self):
        assert hook_table((1,)) == ((1,),)

    def test_multiset_4443(self):
        # Lengths 0 .. 7: 1: 2, 2: 2, 3: 3, 4: 2, 5: 3, 6: 2, 7: 1.
        assert Partition([4, 4, 4, 3]).hook_multiset() == (0, 2, 2, 3, 2, 3, 2, 1)

    def test_multiset_small(self):
        assert Partition([2, 1]).hook_multiset() == (0, 2, 0, 1)
        assert Partition().hook_multiset() == ()

    def test_multiset_matches_cell_oracle(self):
        for n in range(11):
            for p in partitions_of(n):
                assert p.hook_multiset() == hook_vector(Counter(hooks_by_cells(p.parts)))

    def test_multiset_total_is_weight(self):
        for n in range(26):
            for p in partitions_of(n):
                assert sum(p.hook_multiset()) == n

    def test_hook_symmetry_up_to_40(self):
        for n in range(41):
            for p in partitions_of(n):
                assert p.hook_multiset() == p.conjugate().hook_multiset()

    def test_multiset_matches_formula_oracle_up_to_30(self):
        # tuple equality, so a trailing 0 or a missing length would fail as well.
        for n in range(31):
            for p in partitions_of(n):
                assert p.hook_multiset() == hook_vector(hooks_by_formula(p.parts)), p

    @given(_parts_up_to(200))
    def test_multiset_matches_formula_oracle_up_to_200(self, p):
        assert p.hook_multiset() == hook_vector(hooks_by_formula(p.parts))


class TestHookDigitWidth:
    # A digit of the hook product counts at most n // 2 pairs, for n the
    # beads' bit length: 1-byte digits up to a largest bead of 510, wider
    # ones above. The staircases put more than 255 in a digit or sit at the
    # limit, so packing too narrow a digit would carry into the next.
    @pytest.mark.parametrize(
        "parts",
        [
            range(300, 0, -1),  # staircase: 300 hooks of length 1, 2-byte digits
            (600,),  # a single row: largest bead 600, 2-byte digits
            range(256, 1, -1),  # largest bead 510: 255 hooks of length 1, 1-byte digits
            range(256, 0, -1),  # largest bead 511: 256 hooks of length 1, 2-byte digits
            (),
            (1,),
        ],
        ids=["staircase-300", "row-600", "bead-510", "bead-511", "empty", "one-box"],
    )
    def test_matches_formula_oracle(self, parts):
        p = Partition(parts)
        assert p.hook_multiset() == hook_vector(hooks_by_formula(p.parts))

    def test_staircase_hook_counts(self):
        # The staircase (n, ..., 1) has n + 1 - j hooks of length 2j - 1 and
        # none of even length.
        for n in (255, 256, 300):
            expected = [0] * (2 * n)
            expected[1::2] = range(n, 0, -1)
            assert Partition(range(n, 0, -1)).hook_multiset() == tuple(expected), n

    def test_row_with_four_byte_digits(self):
        # Largest bead 131,072: a digit bound of 65,536 takes 4-byte digits.
        assert Partition([131_072]).hook_multiset() == (0,) + (1,) * 131_072


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
                    assert beta[0] == hook_table(p.parts)[0][0]

    def test_matches_definition_up_to_25(self):
        # beta_i = p_i + ell - i, rows indexed from 1
        for n in range(26):
            for p in partitions_of(n):
                ell = len(p)
                assert p.beta_set() == tuple(p[i - 1] + ell - i for i in range(1, ell + 1)), p

    def test_self_conjugate_beta_equality(self):
        for n in range(41):
            for sc in self_conjugate_of(n):
                assert sc.beta_set() == Partition(sc.parts).conjugate().beta_set()


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

    def test_parsed_partition_derives_hooks_once(self):
        p = Partition([4, 4, 4, 3])
        assert p.diagonal_hooks() is p.diagonal_hooks()
        # A refused partition stores nothing and is refused again.
        q = Partition([2])
        for _ in range(2):
            with pytest.raises(ValueError, match="self-conjugate"):
                q.diagonal_hooks()

    def test_carried_hooks_and_beads_match_a_fresh_partition_up_to_40(self):
        # A built partition returns the hooks it was built from and packs its
        # beads from its own parts; a fresh Partition derives both again.
        for n in range(41):
            for sc in self_conjugate_of(n):
                fresh = Partition(sc.parts)
                assert sc.diagonal_hooks() == fresh.diagonal_hooks(), sc
                beads = sum(1 << x for x in fresh.beta_set())
                assert sc._bead_bits() == fresh._bead_bits() == beads, sc
                assert sc._bead_bits() is sc._bead_bits()

    def test_reconstruction_examples(self):
        assert sc_from_diagonal([7, 5, 3]).parts == (4, 4, 4, 3)
        assert sc_from_diagonal([]) == Partition()
        lam = sc_from_diagonal([21, 15, 13, 9, 3, 1])
        assert lam.weight == 62
        assert Partition(lam.parts).is_self_conjugate()

    def test_reconstruction_rejects_bad_input(self):
        # Each message in full; the first fault in input order is the one named.
        for deltas, message in [
            ([4, 1], "diagonal hook 4 is even"),
            ([3, -1], "diagonal hook -1 is not positive"),
            ([0], "diagonal hook 0 is not positive"),
            ([5, 5], "duplicate diagonal hooks in [5, 5]"),
            ([1, 2, -3], "diagonal hook 2 is even"),
        ]:
            with pytest.raises(ValueError) as excinfo:
                sc_from_diagonal(deltas)
            assert str(excinfo.value) == message
        with pytest.raises(TypeError) as excinfo:
            sc_from_diagonal([3, 1.5])
        assert str(excinfo.value) == "'float' object cannot be interpreted as an integer"

    def test_reconstruction_names_duplicates_sorted_and_faults_first(self):
        # Duplicates are named in decreasing order, after the whole input has
        # passed the positive and odd tests; beta_from_diagonal words them alike.
        for build in (sc_from_diagonal, beta_from_diagonal):
            for deltas, message in [
                ([3, 7, 3], "duplicate diagonal hooks in [7, 3, 3]"),
                ([3, 3, 4], "diagonal hook 4 is even"),
            ]:
                with pytest.raises(ValueError) as excinfo:
                    build(deltas)
                assert str(excinfo.value) == message

    def test_reconstruction_matches_cell_transpose_up_to_40(self):
        # Rows below the diagonal are built as runs; check them against
        # conjugation by cells, and the diagonal round trip.
        for n in range(41):
            for deltas in odd_desc_walk(n):
                sc = sc_from_diagonal(deltas)
                assert sc.parts == transpose_by_cells(sc.parts), deltas
                assert sc.weight == n
                assert Partition(sc.parts).diagonal_hooks() == deltas

    def test_round_trip_up_to_60(self):
        for n in range(61):
            for deltas in odd_desc_walk(n):
                sc = sc_from_diagonal(deltas)
                assert sc.weight == n
                assert Partition(sc.parts).is_self_conjugate()
                assert Partition(sc.parts).diagonal_hooks() == deltas


class TestBetaFromDiagonal:
    def test_examples(self):
        assert beta_from_diagonal([7, 5, 3]) == (7, 6, 5, 3)
        assert beta_from_diagonal([1]) == (1,)
        assert beta_from_diagonal([5]) == (5, 2, 1)

    def test_agrees_with_direct_beta_up_to_60(self):
        for n in range(61):
            for deltas in odd_desc_walk(n):
                assert beta_from_diagonal(deltas) == sc_from_diagonal(deltas).beta_set()


class TestDisparity:
    def test_examples(self):
        assert Partition([4, 4, 4, 3]).disparity() == 3
        assert Partition().disparity() == 0
        assert Partition([1]).disparity() == 1

    def test_counts_match_multiset(self):
        for n in range(16):
            for p in partitions_of(n):
                odd = sum(p.hook_multiset()[1::2])
                assert p.disparity() == odd - (n - odd)

    def test_matches_formula_oracle_up_to_30(self):
        for n in range(31):
            for p in partitions_of(n):
                assert p.disparity() == _parity_balance(hooks_by_formula(p.parts)), p

    def test_self_conjugate_matches_formula_oracle_up_to_60(self):
        for n in range(61):
            for sc in self_conjugate_of(n):
                assert sc.disparity() == _parity_balance(hooks_by_formula(sc.parts)), sc

    def test_matches_cell_oracle_up_to_10(self):
        for n in range(11):
            for p in partitions_of(n):
                odd = sum(h % 2 for h in hooks_by_cells(p.parts))
                assert p.disparity() == odd - (n - odd), p


class TestCores:
    def test_examples(self):
        assert Partition([2]).is_simultaneous_core((3,))
        assert not Partition([4, 4, 4, 3]).is_simultaneous_core((7,))
        assert Partition().is_simultaneous_core((5,))

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            Partition([1]).is_simultaneous_core((0,))
        with pytest.raises(ValueError):
            Partition([1]).is_simultaneous_core([])

    def test_every_modulus_checked_before_testing_any(self):
        # [2] is not a 2-core, so a lazy check would stop before seeing the 0.
        with pytest.raises(ValueError, match="got 0"):
            Partition([2]).is_simultaneous_core([2, 0])
        with pytest.raises(ValueError, match="got -3"):
            Partition([2]).is_simultaneous_core(iter([2, -3]))

    def test_one_shot_iterator_is_read_once(self):
        # check_moduli consumes the iterator; the test must read its tuple.
        assert not Partition([2]).is_simultaneous_core(iter([3, 2]))
        assert not Partition([4, 4, 4, 3]).is_simultaneous_core(iter([9, 7]))
        assert Partition([2]).is_simultaneous_core(iter([3]))

    def test_modulus_above_largest_bead(self):
        # Beads of (4,4,4,3) are 7, 6, 5, 3: a shift past 7 leaves nothing,
        # and a passing modulus must not end the test before a failing one.
        p = Partition([4, 4, 4, 3])
        assert p.is_simultaneous_core((8,))
        assert p.is_simultaneous_core((100, 9))
        assert not p.is_simultaneous_core((100, 7))
        assert not p.is_simultaneous_core((8, 100, 2))

    def test_check_moduli(self):
        assert check_moduli(iter([3, 4, 3])) == (3, 4, 3)
        for ts, message in [
            ([], "modulus list must be nonempty"),
            ([3, 0], "modulus must be a positive integer, got 0"),
        ]:
            with pytest.raises(ValueError) as excinfo:
                check_moduli(ts)
            assert str(excinfo.value) == message

    def test_simultaneous_examples(self):
        assert Partition([1]).is_simultaneous_core([2, 3])
        assert not Partition([2, 1]).is_simultaneous_core([2, 3])
        assert Partition().is_simultaneous_core([5, 7])

    def test_one_core_is_only_empty(self):
        assert Partition().is_simultaneous_core((1,))
        for n in range(1, 8):
            assert not any(p.is_simultaneous_core((1,)) for p in partitions_of(n))

    def test_shift_test_matches_set_oracle_up_to_20(self):
        # The shift on the packed beads against bead lookups in a set.
        rng = random.Random(0)
        ts_sets = [(t,) for t in range(1, 13)] + list(combinations(range(1, 13), 2))
        ts_sets += [tuple(rng.sample(range(1, 13), k)) for k in (3, 4, 6) for _ in range(8)]
        for n in range(21):
            for p in partitions_of(n):
                beads = set(p.beta_set())
                for ts in ts_sets:
                    assert p.is_simultaneous_core(ts) == beta_core(beads, ts), (p, ts)

    def test_against_hook_divisibility_up_to_28(self):
        # The fast first-column test must match the definition verbatim.
        for n in range(29):
            for p in partitions_of(n):
                hooks = [h for h, c in enumerate(p.hook_multiset()) if c]
                for t in range(1, 9):
                    brute = not any(h % t == 0 for h in hooks)
                    assert p.is_simultaneous_core((t,)) == brute
                assert p.is_simultaneous_core([2, 3]) == (
                    p.is_simultaneous_core((2,)) and p.is_simultaneous_core((3,))
                )
