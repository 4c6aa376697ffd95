import json

import pytest

from scpartitions import (
    Partition,
    anderson_count,
    catalan,
    core_count_table,
    core_count_tables,
    count_sc_m,
    count_sc_sim_core_m,
    distinct_odd_decompositions,
    enumerate_simultaneous_cores,
    motzkin,
    partition_count,
    partition_count_table,
    partitions_of,
    sc_core_count_table,
    sc_count_table,
    sc_sim_core_count_table,
    self_conjugate_of,
    sim_core_count_table,
    sufficient_core_bound,
    tabulate,
    wang_count,
)

from oracles import catalan_by_recurrence, motzkin_by_recurrence, partitions_brute


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

    def test_generator_soundness_up_to_60(self):
        for n in range(61):
            assert sum(1 for _ in partitions_of(n)) == partition_count(n)


class TestPartitionCount:
    def test_known_values(self):
        assert [partition_count(n) for n in range(10)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            partition_count(-1)


class TestSelfConjugateOf:
    def test_small(self):
        assert [p.parts for p in self_conjugate_of(3)] == [(2, 1)]
        assert list(self_conjugate_of(2)) == []

    def test_contains_example(self):
        assert Partition([4, 4, 4, 3]) in set(self_conjugate_of(15))

    def test_all_outputs_self_conjugate(self):
        for n in range(31):
            for sc in self_conjugate_of(n):
                assert sc.is_self_conjugate()
                assert sc.weight == n

    def test_matches_filter_oracle_up_to_40(self):
        for n in range(41):
            filtered = {p for p in partitions_of(n) if p.is_self_conjugate()}
            generated = list(self_conjugate_of(n))
            assert len(generated) == len(set(generated))
            assert set(generated) == filtered
            # count equals the number of distinct-odd decompositions of n
            assert len(generated) == sum(1 for _ in distinct_odd_decompositions(n))

    def test_decompositions_stream_decreasing_lex(self):
        for n in range(31):
            ds = list(distinct_odd_decompositions(n))
            assert ds == sorted(ds, reverse=True)
            for d in ds:
                assert sum(d) == n
                assert all(x % 2 == 1 for x in d)
                assert list(d) == sorted(set(d), reverse=True)


class TestClassCounts:
    def test_examples(self):
        assert count_sc_m(15, 2) == 3 == partition_count(3)
        assert count_sc_m(5, 1) == 1
        assert count_sc_m(2, 0) == 0

    def test_closed_form_small(self):
        for m in range(5):
            tri = m * (m + 1) // 2
            for k in range(6):
                assert count_sc_m(4 * k + tri, m) == partition_count(k)

    def test_zero_off_congruence_class(self):
        for m in range(5):
            tri = m * (m + 1) // 2
            for n in range(31):
                if n >= tri and (n - tri) % 4 == 0:
                    continue
                assert count_sc_m(n, m) == 0

    def test_classes_partition_sc(self):
        for n in range(41):
            total = sum(1 for _ in self_conjugate_of(n))
            # disparity m(m+1)/2 <= n forces m to stay small
            assert sum(count_sc_m(n, m) for m in range(10)) == total


class TestCoreCounts:
    def test_examples(self):
        assert core_count_table(3, 2).rows[2] == 2
        assert core_count_table(7, 0).rows[0] == 1
        assert core_count_table(2, 2).rows[2] == 0

    def test_table_matches_pointwise(self):
        table = core_count_table(3, 12)
        assert table.counts() == [sum(1 for p in partitions_of(n) if p.is_t_core(3)) for n in range(13)]

    def test_multi_sweep_matches_single(self):
        tables = core_count_tables((2, 3, 5), 10)
        for t in (2, 3, 5):
            assert tables[t].counts() == core_count_table(t, 10).counts()

    def test_two_core_counts_are_staircase_indicator(self):
        # 2-cores are exactly the staircases, one per triangular weight
        table = core_count_table(2, 21)
        triangulars = {k * (k + 1) // 2 for k in range(7)}
        assert table.counts() == [1 if n in triangulars else 0 for n in range(22)]


class TestTabulate:
    def test_one_sweep_counts_every_moduli_set(self):
        rows = tabulate(partitions_of, [(2,), (3,), (2, 3), (3, 4)], 12)
        assert rows[0] == core_count_table(2, 12).rows
        assert rows[1] == core_count_table(3, 12).rows
        assert rows[2] == sim_core_count_table((2, 3), 12).rows
        assert rows[3] == sim_core_count_table((3, 4), 12).rows

    def test_rows_match_brute_force_over_any_stream(self):
        rows = tabulate(self_conjugate_of, [(4,), (4, 6)], 16)
        for n in range(17):
            scs = list(self_conjugate_of(n))
            assert rows[0][n] == sum(1 for sc in scs if sc.is_t_core(4))
            assert rows[1][n] == sum(1 for sc in scs if sc.is_simultaneous_core((4, 6)))
        assert rows[1] == sc_sim_core_count_table((4, 6), 16).rows

    def test_rows_are_tuples_indexed_by_weight(self):
        assert tabulate(partitions_of, [(5,)], 4) == [(1, 1, 2, 3, 5)]
        table = core_count_table(5, 4)
        assert table.rows == (1, 1, 2, 3, 5)
        assert table.max_n == 4

    @pytest.mark.parametrize("core_sets", [[()], [(3,), (2, 0)], [(-1,)]])
    def test_bad_moduli_rejected(self, core_sets):
        with pytest.raises(ValueError, match="modul"):
            tabulate(partitions_of, core_sets, 3)

    def test_negative_max_n_rejected(self):
        with pytest.raises(ValueError, match="max_n"):
            tabulate(partitions_of, [(2,)], -1)


class TestSimultaneousCores:
    def test_pair_23(self):
        assert [p.parts for p in enumerate_simultaneous_cores((2, 3), 10)] == [(), (1,)]

    def test_pair_34(self):
        got = [p.parts for p in enumerate_simultaneous_cores((3, 4), 5)]
        assert got == [(), (1,), (2,), (1, 1), (3, 1, 1)]

    def test_triple_345(self):
        assert sum(1 for _ in enumerate_simultaneous_cores((3, 4, 5), 6)) == 4

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
            list(enumerate_simultaneous_cores((), 5))


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
        total = sum(1 for _ in enumerate_simultaneous_cores(pair, bound))
        assert total == anderson_count(*pair)

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
            total = sum(1 for _ in enumerate_simultaneous_cores(ts, bound))
            assert total == wang_count(n, 1)

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
        assert table.total() == 2

    def test_zero_off_congruence(self):
        table = count_sc_sim_core_m((4, 6), 1, 20)
        for n, c in enumerate(table.rows):
            if n % 4 != 1:
                assert c == 0

    def test_total_is_catalan_three(self):
        bound = 4 * sufficient_core_bound((3, 4))
        table = count_sc_sim_core_m((6, 8), 0, bound)
        assert table.total() == 5

    def test_class_independence(self):
        # each class carries the same total, shifted by its triangular number
        for m in (0, 1, 2, 3):
            bound = 4 * sufficient_core_bound((2, 3)) + m * (m + 1) // 2
            assert count_sc_sim_core_m((4, 6), m, bound).total() == 2

    def test_odd_moduli_rejected(self):
        with pytest.raises(ValueError, match="even"):
            count_sc_sim_core_m((3, 4), 0, 10)


class TestCountTable:
    def test_csv_golden(self):
        table = partition_count_table(3)
        assert table.to_csv_text() == "n,count\n0,1\n1,1\n2,2\n3,3\n"

    def test_json_round_trip_shape(self):
        table = sc_core_count_table(4, 5)
        obj = json.loads(json.dumps(table.to_json_dict(), sort_keys=True))
        assert obj["family"] == "sc-core"
        assert obj["params"] == {"t": 4}
        assert obj["rows"] == [[n, table.rows[n]] for n in range(6)]

    def test_sc_table_matches_generator(self):
        table = sc_count_table(20)
        assert table.counts() == [
            sum(1 for _ in self_conjugate_of(n)) for n in range(21)
        ]
