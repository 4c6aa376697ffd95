import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    binomial_pass,
    core_product_by_factors,
    core_product_dense,
    dense_product,
    gauss_product_by_factors,
    gauss_product_dense,
    geometric_factor,
    sc_even_core_product_by_factors,
    sc_even_core_product_dense,
)
from scpartitions import (
    TruncatedSeries,
    check_identity,
    core_product_series,
    gauss_product_series,
    partition_count_table,
    partitions_of,
    sc_count_table,
    sc_even_core_product_series,
    sc_sim_core_count_table,
    series_from_counts,
    sim_core_count_table,
    triangular_series,
)
from scpartitions.cli import ORDER_LIMIT
from scpartitions.enumeration import _pentagonal
from scpartitions import series
from scpartitions.series import _times_euler


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

    def test_non_series_operand_rejected(self):
        s = TruncatedSeries([1, 1], 1)
        for call in (lambda: s + 1, lambda: s * 2, lambda: check_identity(s, [1])):
            with pytest.raises(TypeError, match="expected a TruncatedSeries, got (int|list)"):
                call()

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


class TestTimesBinomial:
    # The oracles' one-pass factor 1 +- q^k (binomial_pass, once the method
    # TruncatedSeries.times_binomial), which the by-factor builders rest on.
    def test_plus(self):
        s = binomial_pass(TruncatedSeries([1, 2, 3, 4, 5], 4), 2, 1)
        assert s.coeffs == (1, 2, 4, 6, 8)

    def test_minus(self):
        s = binomial_pass(TruncatedSeries([1, 2, 3, 4, 5], 4), 2, -1)
        assert s.coeffs == (1, 2, 2, 2, 2)

    def test_matches_dense_product(self):
        s = TruncatedSeries([3, -1, 4, 1, -5, 9], 5)
        for k in range(1, 6):
            for sign in (1, -1):
                factor = TruncatedSeries.one(5) + TruncatedSeries([0] * k + [sign], 5)
                assert binomial_pass(s, k, sign) == s * factor

    def test_exponent_above_order_is_identity(self):
        s = TruncatedSeries([1, 2, 3], 2)
        assert binomial_pass(s, 3, 1) == s
        assert binomial_pass(s, 50, -1) == s

    @pytest.mark.parametrize("exponent", [0, -1])
    def test_exponent_below_one_rejected(self, exponent):
        with pytest.raises(ValueError, match="exponent"):
            binomial_pass(TruncatedSeries.one(4), exponent, 1)

    @pytest.mark.parametrize("sign", [0, 2, -2])
    def test_sign_other_than_one_rejected(self, sign):
        with pytest.raises(ValueError, match="sign"):
            binomial_pass(TruncatedSeries.one(4), 1, sign)

    def test_geometric_period_below_one_rejected(self):
        with pytest.raises(ValueError, match="period"):
            TruncatedSeries.one(4).times_geometric(0)


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=15), st.integers(1, 20))
def test_geometric_undoes_one_minus(coeffs, k):
    s = TruncatedSeries(coeffs)
    assert binomial_pass(s, k, -1).times_geometric(k) == s


# times_geometric is one running sum per residue class mod k. Over the 101
# coefficients, periods 1..100 give classes of 101 down to two terms; at 101
# and 102 every class is one term, and the series is left as it is.
@pytest.mark.parametrize("k", range(1, 103))
def test_geometric_by_residue_or_by_block(k):
    rng = random.Random(1900 + k)
    coeffs = [rng.randint(-(2**70), 2**70) for _ in range(101)]
    got = TruncatedSeries(coeffs).times_geometric(k)
    assert binomial_pass(got, k, -1).coeffs == tuple(coeffs)
    assert list(got.coeffs) == dense_product(coeffs, geometric_factor(k, 100), 100)


# Small, zero and 200-bit coefficients: the digit width follows the data.
COEFFICIENTS = st.one_of(
    st.integers(-9, 9),
    st.sampled_from([0, 2**200, -(2**200)]),
    st.integers(-(2**200), 2**200),
)


@st.composite
def operand_pairs(draw):
    order = draw(st.integers(0, 60))
    operand = st.one_of(
        st.just([0] * (order + 1)),
        st.lists(COEFFICIENTS, min_size=order + 1, max_size=order + 1),
    )
    return order, draw(operand), draw(operand)


@given(operand_pairs())
def test_product_matches_schoolbook(case):
    order, a, b = case
    assert list((TruncatedSeries(a) * TruncatedSeries(b)).coeffs) == dense_product(a, b, order)


class TestKroneckerProduct:
    def test_order_zero(self):
        assert (TruncatedSeries([7]) * TruncatedSeries([-6])).coeffs == (-42,)
        assert (TruncatedSeries([0]) * TruncatedSeries([0])).coeffs == (0,)
        big = TruncatedSeries([2**200])
        assert (big * TruncatedSeries([-(2**200)])).coeffs == (-(2**400),)

    def test_zero_times_huge(self):
        # The product bound is 0 here: the digit width must still hold the
        # inputs, or packing them overflows.
        zero = TruncatedSeries([0] * 5)
        huge = TruncatedSeries([2**300, -(2**300), 1, 0, -(2**64)])
        assert (zero * huge).coeffs == (0,) * 5
        assert (huge * zero).coeffs == (0,) * 5

    def test_cancellation_to_exact_zero(self):
        # (1 + q)(1 - q + q^2 - ...) = 1: every later digit is exactly the bias.
        for c in (1, 2**200):
            plus = TruncatedSeries([c, c] + [0] * 8)
            alternating = TruncatedSeries([(-1) ** k for k in range(10)])
            assert (plus * alternating).coeffs == (c,) + (0,) * 9

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_byte_boundaries(self, k):
        edge = 2 ** (8 * k - 1)
        values = [edge, -edge, edge - 1, 1 - edge, edge + 1, -edge - 1, 0, 1]
        for a in (values, values[::-1]):
            for b in (values, [1] + [0] * 7, [-1, 1] + [0] * 6):
                got = TruncatedSeries(a) * TruncatedSeries(b)
                assert list(got.coeffs) == dense_product(a, b, 7), (a, b)
        # Product bounds top_a * top_b * (order + 1) of exactly edge - 1 (the
        # last k-byte width) and edge (one byte more; from 2, 4 or 8 bytes, the
        # per-coefficient route): constant operands put the bound itself, with
        # either sign, in the last coefficient.
        for bound in (edge - 1, edge):
            n = max(d for d in range(1, 65) if bound % d == 0)
            for sign_a, sign_b in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                a, b = [sign_a * (bound // n)] * n, [sign_b] * n
                for x, y in ((a, b), (b, a)):
                    got = TruncatedSeries(x) * TruncatedSeries(y)
                    assert got.coeffs[-1] == sign_a * sign_b * bound
                    assert list(got.coeffs) == dense_product(x, y, n - 1), (bound, x[0], y[0])

    def test_word_digits_skip_the_per_coefficient_packer(self, monkeypatch):
        # Digits of 1, 2, 4 or 8 bytes are packed and read back by struct alone.
        def refuse(*args):
            raise AssertionError("per-coefficient packer reached")

        monkeypatch.setattr(series, "_pack", refuse)
        monkeypatch.setattr(series, "_unpack", refuse)
        rng = random.Random(400)
        a = [rng.randint(-9, 9) for _ in range(401)]
        b = [rng.randint(-9, 9) for _ in range(401)]
        assert list((TruncatedSeries(a) * TruncatedSeries(b)).coeffs) == dense_product(a, b, 400)
        assert sc_even_core_product_series(2, 400) == sc_even_core_product_by_factors(2, 400)
        for k in (1, 2, 4, 8):  # a largest k-byte digit, for every word width
            top = 2 ** (8 * k - 1) - 1
            assert (TruncatedSeries([top]) * TruncatedSeries([-1])).coeffs == (-top,)

    def test_wide_digits_take_the_per_coefficient_packer(self, monkeypatch):
        calls = {"_pack": 0, "_unpack": 0}

        def counted(name):
            original = getattr(series, name)

            def count(*args):
                calls[name] += 1
                return original(*args)

            return count

        for name in calls:
            monkeypatch.setattr(series, name, counted(name))
        a, b = [2**100, -3, 5], [7, -(2**99), 1]
        assert list((TruncatedSeries(a) * TruncatedSeries(b)).coeffs) == dense_product(a, b, 2)
        assert calls == {"_pack": 2, "_unpack": 1}

    def test_order_2000(self):
        rng = random.Random(2000)
        a = [rng.randint(-9, 9) for _ in range(2001)]
        b = [rng.randint(-9, 9) for _ in range(2001)]
        got = TruncatedSeries(a) * TruncatedSeries(b)
        assert list(got.coeffs) == dense_product(a, b, 2000)


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


# Past the dense oracles' reach: the earlier one-pass-per-factor builders.
FACTOR_ORDERS = (400, 1000)


class TestBuildersMatchFactorByFactor:
    @pytest.mark.parametrize("order", FACTOR_ORDERS)
    @pytest.mark.parametrize("t", BUILDER_MODULI)
    def test_core_product(self, t, order):
        assert core_product_series(t, order) == core_product_by_factors(t, order)

    @pytest.mark.parametrize("order", FACTOR_ORDERS + (ORDER_LIMIT,))
    @pytest.mark.parametrize("t", BUILDER_MODULI)
    def test_sc_even_core_product(self, t, order):
        assert sc_even_core_product_series(t, order) == sc_even_core_product_by_factors(t, order)

    # Where the quarter half's Euler products start: 4t just below, at and above the order.
    @pytest.mark.parametrize(
        "t, order", [(t, n) for n in range(9) for t in (1, 2, 3) if abs(4 * t - n) <= 1]
    )
    def test_sc_even_core_product_at_the_euler_edge(self, t, order):
        got = sc_even_core_product_series(t, order)
        assert got == sc_even_core_product_by_factors(t, order)
        assert list(got.coeffs) == sc_even_core_product_dense(t, order)

    @pytest.mark.parametrize("order", FACTOR_ORDERS + (ORDER_LIMIT,))
    def test_gauss_product(self, order):
        assert gauss_product_series(order) == gauss_product_by_factors(order)


class TestEulerProduct:
    ORDER = 500

    def test_pentagonal_terms_expand_the_euler_product(self):
        by_factors = TruncatedSeries.one(self.ORDER)
        for n in range(1, self.ORDER + 1):
            by_factors = binomial_pass(by_factors, n, -1)
        coeffs = [1] + [0] * self.ORDER
        for g, sign in _pentagonal(self.ORDER):
            coeffs[g] = sign
        assert by_factors.coeffs == tuple(coeffs)

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 60, 250, 500, 501])
    def test_times_euler_matches_one_pass_per_factor(self, k):
        rng = random.Random(k)
        s = TruncatedSeries([rng.randint(-9, 9) for _ in range(self.ORDER + 1)])
        by_factors = s
        for n in range(1, self.ORDER // k + 1):
            by_factors = binomial_pass(by_factors, k * n, -1)
        assert _times_euler(s, k) == by_factors


class TestHugeModulus:
    # Past t > order (4t > order for sc2t) every Euler factor is 1 modulo
    # q^(order + 1); the builders must not step through t copies of it.
    def test_core_product(self):
        expected = series_from_counts(partition_count_table(10), 1, 10)
        assert core_product_series(11, 10) == expected
        assert core_product_series(10**12, 10) == expected

    def test_sc_even_core_product(self):
        expected = series_from_counts(sc_count_table(10), 1, 10)
        assert sc_even_core_product_series(3, 10) == expected
        assert sc_even_core_product_series(10**12, 10) == expected


class TestTriangular:
    def test_order_six(self):
        assert triangular_series(6).coeffs == (1, 1, 0, 1, 0, 0, 1)

    def test_order_zero(self):
        assert triangular_series(0).coeffs == (1,)

    def test_coefficient_at_ten(self):
        assert triangular_series(10).coeffs[10] == 1


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
            table = sim_core_count_table((t,), 30)
            assert check_identity(series_from_counts(table, 1, 30), prod) is None

    def test_core_gf_pointwise(self):
        prod = core_product_series(4, 12)
        for n in range(13):
            assert prod.coeffs[n] == sum(1 for p in partitions_of(n) if p.is_simultaneous_core((4,)))

    def test_sc_even_core_gf_matches_enumeration(self):
        for t in (1, 2, 3):
            prod = sc_even_core_product_series(t, 30)
            table = sc_sim_core_count_table((2 * t,), 30)
            assert check_identity(series_from_counts(table, 1, 30), prod) is None

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
        assert check_identity(lhs, rhs) is None

    @pytest.mark.parametrize("t", [2, 3])
    def test_sc_core_series_factor(self, t):
        order = 24
        lhs = series_from_counts(sc_sim_core_count_table((2 * t,), order), 1, order)
        rhs = series_from_counts(
            sim_core_count_table((t,), order // 4), 4, order
        ) * triangular_series(order)
        assert check_identity(lhs, rhs) is None

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
        assert check_identity(lhs, rhs) is None

    def test_perturbed_coefficient_is_caught(self):
        lhs = triangular_series(12)
        coeffs = list(lhs.coeffs)
        coeffs[6] += 1
        assert check_identity(lhs, TruncatedSeries(coeffs, 12)) == (6, 1, 2)

    def test_equal_report(self):
        assert check_identity(triangular_series(8), triangular_series(8)) is None
