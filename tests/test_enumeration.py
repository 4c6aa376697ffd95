import json

import pytest

from scpartitions import (
    Partition,
    TruncatedSeries,
    add_hook,
    add_row,
    anderson_count,
    catalan,
    cli,
    core_product_series,
    count_sc_sim_core_m,
    motzkin,
    partition_count,
    partition_count_table,
    partitions_of,
    sc_class_table,
    sc_count_table,
    sc_even_core_product_series,
    sc_from_diagonal,
    sc_sim_core_count_table,
    self_conjugate_of,
    sim_core_count_table,
    sufficient_core_bound,
    tabulate,
    wang_count,
)

from oracles import (
    catalan_by_recurrence,
    cores_by_brute_force,
    motzkin_by_recurrence,
    odd_desc_recursive,
    odd_desc_walk,
    partitions_brute,
    partitions_by_stack,
    sc_counts_by_decomposition,
    sc_cores_by_brute_force,
    transpose_by_cells,
)


class TestPartitionsOf:
    def test_zero(self):
        assert list(partitions_of(0)) == [Partition()]

    def test_small_counts(self):
        assert sum(1 for _ in partitions_of(4)) == 5
        assert sum(1 for _ in partitions_of(5)) == 7

    def test_reverse_lex_order(self):
        expected = [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        assert [p.parts for p in partitions_of(4)] == expected
        for n in range(12):
            seq = [p.parts for p in partitions_of(n)]
            assert seq == sorted(seq, reverse=True)

    def test_matches_naive_recursion(self):
        for n in range(15):
            assert {p.parts for p in partitions_of(n)} == set(partitions_brute(n))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            list(partitions_of(-1))

    def test_matches_stack_walk_up_to_40(self):
        for n in range(41):
            zs1 = (p.parts for p in partitions_of(n))
            for got, walked in zip(zs1, partitions_by_stack(n), strict=True):
                assert got == walked, n

    def test_generator_soundness_up_to_60(self):
        for n in range(61):
            assert sum(1 for _ in partitions_of(n)) == partition_count(n)


class TestPartitionCount:
    def test_known_values(self):
        assert [partition_count(n) for n in range(10)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            partition_count(-1)
        with pytest.raises(ValueError, match="max_n"):
            partition_count_table(-1)

    def test_matches_the_product_of_geometric_series_to_2000(self):
        # prod 1/(1 - q^n), one pass per factor, shares no pentagonal numbers.
        product = TruncatedSeries.one(2000)
        for n in range(1, 2001):
            product = product.times_geometric(n)
        assert partition_count_table(2000) == product.coeffs
        assert partition_count(1000) == 24061467864032622473692149727991
        assert partition_count(2000) == 4720819175619413888601432406799959512200344166

    def test_a_table_below_the_memo_is_a_prefix(self):
        partition_count(50)
        assert partition_count_table(5) == (1, 1, 2, 3, 5, 7)
        assert partition_count_table(0) == (1,)


class TestSelfConjugateOf:
    def test_small(self):
        assert [p.parts for p in self_conjugate_of(3)] == [(2, 1)]
        assert list(self_conjugate_of(2)) == []

    def test_contains_example(self):
        assert Partition([4, 4, 4, 3]) in set(self_conjugate_of(15))

    def test_all_outputs_self_conjugate(self):
        for n in range(31):
            for sc in self_conjugate_of(n):
                assert Partition(sc.parts).is_self_conjugate()
                assert sc.weight == n

    def test_built_parts_are_their_cell_transpose_up_to_40(self):
        # The generator builds each partition unchecked and takes its parts as
        # its conjugate; check both against conjugation by cells.
        for n in range(41):
            for deltas, sc in zip(odd_desc_walk(n), self_conjugate_of(n), strict=True):
                assert sc.parts == transpose_by_cells(sc.parts), deltas
                assert sc.conjugate().parts == transpose_by_cells(sc.parts), deltas
                assert Partition(sc.parts).diagonal_hooks() == deltas

    def test_matches_reconstruction_from_the_flat_walk_up_to_60(self):
        # Each partition is built from its parent's rows; it must be the one
        # sc_from_diagonal builds from the earlier walk's hooks, in the same
        # order, and carry what a fresh Partition of its parts derives.
        for n in range(61):
            generated = list(self_conjugate_of(n))
            assert generated == [sc_from_diagonal(ds) for ds in odd_desc_walk(n)], n
            for sc in generated:
                fresh = Partition(sc.parts)
                assert sc.parts == fresh.parts
                assert sc.conjugate().parts == fresh.conjugate().parts, sc
                assert sc.diagonal_hooks() == fresh.diagonal_hooks(), sc
                assert sc._bead_bits() == fresh._bead_bits(), sc

    def test_matches_filter_oracle_up_to_40(self):
        for n in range(41):
            filtered = {p for p in partitions_of(n) if p.is_self_conjugate()}
            generated = list(self_conjugate_of(n))
            assert len(generated) == len(set(generated))
            assert set(generated) == filtered
            # count equals the number of distinct-odd decompositions of n
            assert len(generated) == sum(1 for _ in odd_desc_walk(n))

    def test_walk_matches_recursive_oracle_up_to_90(self):
        for n in range(91):
            walked = (sc.diagonal_hooks() for sc in self_conjugate_of(n))
            for flat, recursive in zip(walked, odd_desc_recursive(n, n), strict=True):
                assert flat == recursive, n

    def test_decompositions_stream_decreasing_lex(self):
        for n in range(31):
            ds = [sc.diagonal_hooks() for sc in self_conjugate_of(n)]
            assert ds == sorted(ds, reverse=True)
            for d in ds:
                assert sum(d) == n
                assert all(x % 2 == 1 for x in d)
                assert list(d) == sorted(set(d), reverse=True)


def sc_class_rows(max_n):
    """Self-conjugate counts by class, as prop3.4 reads them."""
    rows = sc_class_table(max_n)
    return lambda n, m: rows.get(m, (0,) * (max_n + 1))[n]


class TestSurplusTable:
    def test_classes_match_the_class_keyed_search(self):
        # Every partition of weight <= n is an (n + 1)-core, so the search
        # counts every self-conjugate partition, keyed by class. The small n
        # step the surplus bound sqrt(n/2) + 1 through its values.
        for n in (*range(13), 40):
            table = sc_class_table(n)
            assert table == tabulate(add_hook, (n + 1,), n), n
            assert all(any(row) for row in table.values())
            assert tuple(map(sum, zip(*table.values()))) == sc_count_table(n)

    def test_examples(self):
        assert sc_class_table(0) == {0: (1,)}
        # weight 4: {3, 1} is class 0; weight 5: {5} class 1; weight 3: {3} class 2
        assert sc_class_table(5) == {
            0: (1, 0, 0, 0, 1, 0), 1: (0, 1, 0, 0, 0, 1), 2: (0, 0, 0, 1, 0, 0)
        }

    def test_negative_max_n_rejected(self):
        with pytest.raises(ValueError, match="max_n"):
            sc_class_table(-1)


class TestClassCounts:
    def test_examples(self):
        count = sc_class_rows(15)
        assert count(15, 2) == 3 == partition_count(3)
        assert count(5, 1) == 1
        assert count(2, 0) == 0

    def test_closed_form_small(self):
        count = sc_class_rows(30)
        for m in range(5):
            tri = m * (m + 1) // 2
            for k in range(6):
                assert count(4 * k + tri, m) == partition_count(k)

    def test_zero_off_congruence_class(self):
        count = sc_class_rows(30)
        for m in range(5):
            tri = m * (m + 1) // 2
            for n in range(31):
                if n >= tri and (n - tri) % 4 == 0:
                    continue
                assert count(n, m) == 0

    def test_classes_partition_sc(self):
        count = sc_class_rows(40)
        for n in range(41):
            total = sum(1 for _ in self_conjugate_of(n))
            # disparity m(m+1)/2 <= n forces m to stay small
            assert sum(count(n, m) for m in range(10)) == total


class TestCoreCounts:
    def test_examples(self):
        assert sim_core_count_table((3,), 2)[2] == 2
        assert sim_core_count_table((7,), 0)[0] == 1
        assert sim_core_count_table((2,), 2)[2] == 0

    def test_table_matches_pointwise(self):
        table = sim_core_count_table((3,), 12)
        assert list(table) == [
            sum(1 for p in partitions_of(n) if p.is_simultaneous_core((3,))) for n in range(13)
        ]

    def test_two_core_counts_are_staircase_indicator(self):
        # 2-cores are exactly the staircases, one per triangular weight
        table = sim_core_count_table((2,), 21)
        triangulars = {k * (k + 1) // 2 for k in range(7)}
        assert list(table) == [1 if n in triangulars else 0 for n in range(22)]


def all_classes(rows):
    """The class rows of one tabulate call, summed weight by weight."""
    return tuple(map(sum, zip(*rows.values())))


class TestTabulate:
    def test_one_sweep_counts_every_moduli_set(self):
        for ts in [(2,), (3,), (2, 3), (3, 4)]:
            assert tabulate(add_row, ts, 12)[0] == sim_core_count_table(ts, 12)

    def test_rows_match_brute_force_over_any_stream(self):
        rows = {ts: all_classes(tabulate(add_hook, ts, 16)) for ts in [(4,), (4, 6)]}
        for n in range(17):
            scs = list(self_conjugate_of(n))
            assert rows[(4,)][n] == sum(1 for sc in scs if sc.is_simultaneous_core((4,)))
            assert rows[(4, 6)][n] == sum(1 for sc in scs if sc.is_simultaneous_core((4, 6)))
        assert rows[(4, 6)] == sc_sim_core_count_table((4, 6), 16)

    def test_rows_are_tuples_indexed_by_weight(self):
        assert tabulate(add_row, (5,), 4) == {0: (1, 1, 2, 3, 5)}
        assert sim_core_count_table((5,), 4) == (1, 1, 2, 3, 5)

    @pytest.mark.parametrize("core_sets", [(), (3, 0), (-1,)])
    def test_bad_moduli_rejected(self, core_sets):
        with pytest.raises(ValueError, match="modul"):
            tabulate(add_row, core_sets, 3)

    def test_negative_max_n_rejected(self):
        with pytest.raises(ValueError, match="max_n"):
            tabulate(add_row, (2,), -1)

    def test_key_splits_counts_not_the_search(self):
        # The principal-hook reduction can change the class (the root, the
        # empty partition, is class 0), so a search that also pruned by
        # class would lose cores of every class but 0. Each class row is
        # checked against brute force, which classifies every partition.
        rows = tabulate(add_hook, (41,), 40)
        assert set(rows) == {0, 1, 2, 3, 4, 5, 6, 7, 8}
        for m, row in rows.items():
            assert row == sc_cores_by_brute_force((41,), 40, m=m), m
        assert all_classes(rows) == sc_count_table(40)


# Moduli sets every table is checked on against brute force: single moduli,
# a repeated modulus, a non-coprime pair, coprime pairs, a triple, and a set
# whose moduli all exceed the weight bound (every partition is a core).
ORACLE_SETS = [(1,), (2,), (3,), (5,), (7,), (3, 3), (4, 6), (2, 3), (3, 4), (4, 5, 6)]
ORDINARY_MAX, SC_MAX = 24, 40


class TestSearchAgainstBruteForce:
    @pytest.mark.parametrize("ts", ORACLE_SETS + [(25, 31)], ids=str)
    def test_sim_core_count_table(self, ts):
        assert sim_core_count_table(ts, ORDINARY_MAX) == cores_by_brute_force(ts, ORDINARY_MAX)

    def test_core_count_table_and_tables(self):
        singles = sorted({t for ts in ORACLE_SETS for t in ts} | {25})
        for t in singles:
            expected = cores_by_brute_force((t,), ORDINARY_MAX)
            assert sim_core_count_table((t,), ORDINARY_MAX) == expected
            assert tabulate(add_row, (t,), ORDINARY_MAX) == {0: expected}

    def test_tabulate_on_every_set(self):
        for ts in ORACLE_SETS + [(25, 31)]:
            assert tabulate(add_row, ts, ORDINARY_MAX) == {0: cores_by_brute_force(ts, ORDINARY_MAX)}
            by_class = tabulate(add_hook, ts, SC_MAX)
            assert all_classes(by_class) == sc_cores_by_brute_force(ts, SC_MAX)

    @pytest.mark.parametrize("ts", ORACLE_SETS + [(41, 43)], ids=str)
    def test_sc_sim_core_count_table(self, ts):
        assert sc_sim_core_count_table(ts, SC_MAX) == sc_cores_by_brute_force(ts, SC_MAX)

    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6, 7, 10, 41])
    def test_sc_core_count_table(self, t):
        assert sc_sim_core_count_table((t,), SC_MAX) == sc_cores_by_brute_force((t,), SC_MAX)

    @pytest.mark.parametrize(
        "ts", [tuple(2 * t for t in ts) for ts in ORACLE_SETS] + [(42,)], ids=str
    )
    def test_count_sc_sim_core_m(self, ts):
        for m in range(4):
            got = count_sc_sim_core_m(ts, m, SC_MAX)
            assert got == sc_cores_by_brute_force(ts, SC_MAX, m=m), m

    @pytest.mark.parametrize("t", [3, 5])
    def test_core_table_matches_product_at_order_200(self, t):
        assert list(sim_core_count_table((t,), 200)) == list(core_product_series(t, 200).coeffs)


def sim_cores(ts, max_n):
    """Parts of the simultaneous cores of weight <= max_n, by brute force."""
    return [
        p.parts
        for n in range(max_n + 1)
        for p in partitions_of(n)
        if p.is_simultaneous_core(ts)
    ]


class TestSimultaneousCores:
    def test_pair_23(self):
        assert sim_cores((2, 3), 10) == [(), (1,)]
        assert sum(sim_core_count_table((2, 3), 10)) == 2

    def test_pair_34(self):
        got = sim_cores((3, 4), 5)
        assert got == [(), (1,), (2,), (1, 1), (3, 1, 1)]
        assert sum(sim_core_count_table((3, 4), 5)) == len(got)

    def test_triple_345(self):
        assert sum(sim_core_count_table((3, 4, 5), 6)) == 4
        assert len(sim_cores((3, 4, 5), 6)) == 4

    def test_bounds(self):
        assert sufficient_core_bound((2, 3)) == 1
        assert sufficient_core_bound((3, 4)) == 5
        assert sufficient_core_bound((4, 5)) == 15
        assert sufficient_core_bound((3, 4, 5)) == 5
        assert sufficient_core_bound((1, 9)) == 0

    def test_bound_requires_coprime_pair(self):
        with pytest.raises(ValueError, match="coprime"):
            sufficient_core_bound((4, 6))

    def test_empty_moduli_rejected(self):
        with pytest.raises(ValueError):
            sim_core_count_table((), 5)


class TestClosedForms:
    def test_anderson_examples(self):
        assert anderson_count(2, 3) == 2
        assert anderson_count(3, 4) == 5
        assert anderson_count(1, 17) == 1

    def test_anderson_rejects_non_coprime(self):
        with pytest.raises(ValueError, match="coprime"):
            anderson_count(2, 4)

    @pytest.mark.parametrize("pair", [(2, 3), (3, 4), (3, 5)])
    def test_anderson_matches_enumeration(self, pair):
        bound = sufficient_core_bound(pair)
        assert sum(sim_core_count_table(pair, bound)) == anderson_count(*pair)

    def test_wang_examples(self):
        assert wang_count(3, 1) == 4 == motzkin(3)
        assert wang_count(4, 1) == 9 == motzkin(4)
        assert wang_count(1, 6) == 1
        assert wang_count(3, 2) == 6

    def test_wang_rejects_non_coprime(self):
        with pytest.raises(ValueError, match="coprime"):
            wang_count(2, 4)

    def test_wang_matches_enumeration(self):
        for n in (1, 2, 3):
            ts = (n, n + 1, n + 2)
            bound = sufficient_core_bound(ts)
            assert sum(sim_core_count_table(ts, bound)) == wang_count(n, 1)

    def test_catalan_against_recurrence(self):
        assert [catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]
        for n in range(12):
            assert catalan(n) == catalan_by_recurrence(n)

    def test_motzkin_against_recurrence(self):
        assert [motzkin(n) for n in range(5)] == [1, 1, 2, 4, 9]
        for n in range(12):
            assert motzkin(n) == motzkin_by_recurrence(n)


class TestScSimCoreClassCounts:
    def test_total_is_catalan_two(self):
        table = count_sc_sim_core_m((4, 6), 0, 4 * sufficient_core_bound((2, 3)))
        assert sum(table) == 2

    def test_zero_off_congruence(self):
        table = count_sc_sim_core_m((4, 6), 1, 20)
        for n, c in enumerate(table):
            if n % 4 != 1:
                assert c == 0

    def test_total_is_catalan_three(self):
        bound = 4 * sufficient_core_bound((3, 4))
        table = count_sc_sim_core_m((6, 8), 0, bound)
        assert sum(table) == 5

    def test_class_independence(self):
        # each class carries the same total, shifted by its triangular number
        for m in (0, 1, 2, 3):
            bound = 4 * sufficient_core_bound((2, 3)) + m * (m + 1) // 2
            assert sum(count_sc_sim_core_m((4, 6), m, bound)) == 2

    def test_odd_moduli_rejected(self):
        with pytest.raises(ValueError, match="even"):
            count_sc_sim_core_m((3, 4), 0, 10)


class TestCountTable:
    # A table is a tuple; `scpart count` writes it as CSV or JSON.
    def test_csv_golden(self, capsys):
        assert cli.main(["count", "--family", "p", "--max", "3", "--format", "csv"]) == 0
        assert capsys.readouterr().out == "n,count\n0,1\n1,1\n2,2\n3,3\n"

    def test_json_round_trip_shape(self, capsys):
        assert cli.main(["count", "--family", "sc-core", "--t", "4", "--max", "5"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["family"] == "sc-core"
        assert obj["params"] == {"t": 4}
        assert obj["rows"] == [[n, c] for n, c in enumerate(sc_sim_core_count_table((4,), 5))]

    def test_sc_table_matches_generator(self):
        table = sc_count_table(20)
        assert list(table) == [
            sum(1 for _ in self_conjugate_of(n)) for n in range(21)
        ]

    def test_sc_table_matches_decomposition_walk(self):
        assert sc_count_table(40) == sc_counts_by_decomposition(40)

    def test_sc_table_matches_odd_part_product_to_400(self):
        # With 4t above the order the product has no (1 - q^(4nt)) factor:
        # it is prod (1 + q^(2k-1)), built factor by factor in the series layer.
        assert sc_count_table(400) == sc_even_core_product_series(101, 400).coeffs
