import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import core_product_dense, gauss_product_dense, sc_even_core_product_dense
from scpartitions import (
    TruncatedSeries,
    check_identity,
    core_count_table,
    core_product_series,
    gauss_product_series,
    partition_count_table,
    partitions_of,
    sc_core_count_table,
    sc_count_table,
    sc_even_core_product_series,
    sc_sim_core_count_table,
    series_from_counts,
    sim_core_count_table,
    triangular_series,
)


class TestArithmetic:
    def test_construction_pads(self):
        s = TruncatedSeries([1, 2], order=4)
        assert s.coeffs == (1, 2, 0, 0, 0)
        assert s.order == 4

    def test_construction_rejects_overflowing_coeffs(self):
        with pytest.raises(ValueError):
            TruncatedSeries([1, 2, 3], order=1)

    def test_add_mul(self):
        a = TruncatedSeries([1, 1], order=3)       # 1 + q
        b = TruncatedSeries([1, -1], order=3)      # 1 - q
        assert (a + b).coeffs == (2, 0, 0, 0)
        assert (a * b).coeffs == (1, 0, -1, 0)

    def test_mul_truncates(self):
        q = TruncatedSeries([0, 1], 2)
        assert (q * q * q).coeffs == (0, 0, 0)

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError, match="order mismatch"):
            TruncatedSeries([1], order=2) + TruncatedSeries([1], order=3)
        with pytest.raises(ValueError, match="order mismatch"):
            check_identity(TruncatedSeries([1], 2), TruncatedSeries([1], 3))

    def test_geometric(self):
        s = TruncatedSeries.one(6).times_geometric(2)
        assert s.coeffs == (1, 0, 1, 0, 1, 0, 1)
        # multiplying back by (1 - q^2) recovers 1
        one_minus = TruncatedSeries([1, 0, -1], 6)
        assert s * one_minus == TruncatedSeries.one(6)

    def test_non_integer_coefficients_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            TruncatedSeries([1.9, 2.5, True], 3)
        with pytest.raises(ValueError, match="integers"):
            TruncatedSeries(["1"], 0)

    def test_bool_coefficients_are_integers(self):
        assert TruncatedSeries([True, False], 2).coeffs == (1, 0, 0)

    def test_json_round_trip(self):
        s = TruncatedSeries([3, 0, -2], order=5)
        obj = s.to_json_dict()
        assert obj == {"order": 5, "coefficients": [3, 0, -2, 0, 0, 0]}
        assert TruncatedSeries.from_json_dict(obj) == s


class TestTimesBinomial:
    def test_plus(self):
        s = TruncatedSeries([1, 2, 3, 4, 5], 4).times_binomial(2, 1)
        assert s.coeffs == (1, 2, 4, 6, 8)

    def test_minus(self):
        s = TruncatedSeries([1, 2, 3, 4, 5], 4).times_binomial(2, -1)
        assert s.coeffs == (1, 2, 2, 2, 2)

    def test_matches_dense_product(self):
        s = TruncatedSeries([3, -1, 4, 1, -5, 9], 5)
        for k in range(1, 6):
            for sign in (1, -1):
                factor = TruncatedSeries.one(5) + TruncatedSeries([0] * k + [sign], 5)
                assert s.times_binomial(k, sign) == s * factor

    def test_exponent_above_order_is_identity(self):
        s = TruncatedSeries([1, 2, 3], 2)
        assert s.times_binomial(3, 1) == s
        assert s.times_binomial(50, -1) == s

    @pytest.mark.parametrize("exponent", [0, -1])
    def test_exponent_below_one_rejected(self, exponent):
        with pytest.raises(ValueError, match="exponent"):
            TruncatedSeries.one(4).times_binomial(exponent, 1)

    @pytest.mark.parametrize("sign", [0, 2, -2])
    def test_sign_other_than_one_rejected(self, sign):
        with pytest.raises(ValueError, match="sign"):
            TruncatedSeries.one(4).times_binomial(1, sign)

    def test_geometric_period_below_one_rejected(self):
        with pytest.raises(ValueError, match="period"):
            TruncatedSeries.one(4).times_geometric(0)


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=15), st.integers(1, 20))
def test_geometric_undoes_one_minus(coeffs, k):
    s = TruncatedSeries(coeffs)
    assert s.times_binomial(k, -1).times_geometric(k) == s


BUILDER_ORDERS = (0, 1, 2, 7, 40, 200)
BUILDER_MODULI = (1, 2, 3, 5, 7)


class TestBuildersMatchDenseExpansion:
    @pytest.mark.parametrize("order", BUILDER_ORDERS)
    @pytest.mark.parametrize("t", BUILDER_MODULI)
    def test_core_product(self, t, order):
        assert list(core_product_series(t, order).coeffs) == core_product_dense(t, order)

    @pytest.mark.parametrize("order", BUILDER_ORDERS)
    @pytest.mark.parametrize("t", BUILDER_MODULI)
    def test_sc_even_core_product(self, t, order):
        got = sc_even_core_product_series(t, order).coeffs
        assert list(got) == sc_even_core_product_dense(t, order)

    @pytest.mark.parametrize("order", BUILDER_ORDERS)
    def test_gauss_product(self, order):
        assert list(gauss_product_series(order).coeffs) == gauss_product_dense(order)


class TestTriangular:
    def test_order_six(self):
        assert triangular_series(6).coeffs == (1, 1, 0, 1, 0, 0, 1)

    def test_order_zero(self):
        assert triangular_series(0).coeffs == (1,)

    def test_coefficient_at_ten(self):
        assert triangular_series(10).coefficient(10) == 1


class TestSeriesFromCounts:
    def test_stride_one(self):
        s = series_from_counts(sc_count_table(6), 1, 6)
        assert s.coeffs == (1, 1, 0, 1, 1, 1, 1)

    def test_stride_four(self):
        s = series_from_counts(partition_count_table(2), 4, 8)
        assert s.coeffs == (1, 0, 0, 0, 1, 0, 0, 0, 2)

    def test_insufficient_table_rejected(self):
        with pytest.raises(ValueError, match="needs"):
            series_from_counts(partition_count_table(1), 1, 10)


class TestProductForms:
    def test_core_gf_small(self):
        assert core_product_series(3, 2).coeffs == (1, 1, 2)

    def test_core_gf_matches_enumeration(self):
        for t in (2, 3, 5):
            prod = core_product_series(t, 30)
            table = core_count_table(t, 30)
            assert check_identity(series_from_counts(table, 1, 30), prod).equal

    def test_core_gf_pointwise(self):
        prod = core_product_series(4, 12)
        for n in range(13):
            assert prod.coefficient(n) == sum(1 for p in partitions_of(n) if p.is_t_core(4))

    def test_sc_even_core_gf_matches_enumeration(self):
        for t in (1, 2, 3):
            prod = sc_even_core_product_series(t, 30)
            table = sc_core_count_table(2 * t, 30)
            assert check_identity(series_from_counts(table, 1, 30), prod).equal

    def test_sc_two_core_is_staircase_indicator(self):
        assert sc_even_core_product_series(1, 20) == triangular_series(20)

    def test_gauss_up_to_60(self):
        assert gauss_product_series(60) == triangular_series(60)


class TestIdentities:
    def test_sc_counts_factor(self):
        order = 24
        lhs = series_from_counts(sc_count_table(order), 1, order)
        rhs = series_from_counts(
            partition_count_table(order // 4), 4, order
        ) * triangular_series(order)
        assert check_identity(lhs, rhs).equal

    @pytest.mark.parametrize("t", [2, 3])
    def test_sc_core_series_factor(self, t):
        order = 24
        lhs = series_from_counts(sc_core_count_table(2 * t, order), 1, order)
        rhs = series_from_counts(
            core_count_table(t, order // 4), 4, order
        ) * triangular_series(order)
        assert check_identity(lhs, rhs).equal

    @pytest.mark.parametrize("pair", [(2, 3), (3, 4)])
    def test_sc_sim_core_series_factor(self, pair):
        order = 20
        t1, t2 = pair
        lhs = series_from_counts(
            sc_sim_core_count_table((2 * t1, 2 * t2), order), 1, order
        )
        rhs = series_from_counts(
            sim_core_count_table(pair, order // 4), 4, order
        ) * triangular_series(order)
        assert check_identity(lhs, rhs).equal

    def test_perturbed_coefficient_is_caught(self):
        lhs = triangular_series(12)
        coeffs = list(lhs.coeffs)
        coeffs[6] += 1
        outcome = check_identity(lhs, TruncatedSeries(coeffs, 12))
        assert not outcome.equal
        assert outcome.first_mismatch == 6
        assert outcome.lhs_coefficient == 1
        assert outcome.rhs_coefficient == 2

    def test_equal_report(self):
        outcome = check_identity(triangular_series(8), triangular_series(8))
        assert outcome.equal
        assert outcome.first_mismatch is None
