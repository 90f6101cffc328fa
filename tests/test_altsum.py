import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsum import altsum
from digitsum.altsum import (
    WeightTable,
    alpha_weights,
    alpha_weights_oracle,
    alternating_sum_direct,
    alternating_sum_via_weights,
    delta_product_form,
    forward_difference,
    limit_cumulant,
    pmf_standardized_cumulant,
    polynomial_annihilation_check,
    standardized_cumulant,
    zn_mgf,
    zn_pmf,
)
from digitsum.digitseq import digit_sum


def signed_sum_longhand(f, x, N):
    # brute reference: per-term digit parity computed one value at a time
    total = 0
    for n in range(2**N):
        sign = -1 if digit_sum(n, 2) % 2 else 1
        total += sign * f(x + n)
    return total


def fraction_mass_cumulant(N, order):
    # reference: raw moments summed over the Fraction masses of the pmf, then
    # the same moment-to-cumulant recursion
    raw = [Fraction(0)] * (order + 1)
    for k, m in enumerate(zn_pmf(N)):
        power = Fraction(1)
        for j in range(order + 1):
            raw[j] += m * power
            power *= k
    cumulants = [Fraction(0)] * (order + 1)
    for m in range(1, order + 1):
        acc = raw[m]
        for j in range(1, m):
            acc -= math.comb(m - 1, j - 1) * cumulants[j] * raw[m - j]
        cumulants[m] = acc
    return cumulants[order] / cumulants[2] ** (order // 2)


class TestAlternatingSumDirect:
    def test_identity_function_single_block_is_minus_one(self):
        assert alternating_sum_direct(lambda t: t, 0, 1) == -1

    @pytest.mark.parametrize("N", [1, 2, 5, 9])
    def test_constants_cancel(self, N):
        assert alternating_sum_direct(lambda t: 3, Fraction(2, 7), N) == 0

    def test_matches_longhand_signs(self):
        got = alternating_sum_direct(math.exp, 0.0, 3)
        want = signed_sum_longhand(math.exp, 0.0, 3)
        assert got == pytest.approx(want, rel=1e-15)

    def test_exact_with_rational_inputs(self):
        got = alternating_sum_direct(lambda t: t**2, Fraction(1, 3), 2)
        want = signed_sum_longhand(lambda t: t**2, Fraction(1, 3), 2)
        assert isinstance(got, Fraction) and got == want

    @pytest.mark.parametrize("N", [0, 31])
    def test_rejects_out_of_budget(self, N):
        with pytest.raises(ValueError):
            alternating_sum_direct(lambda t: t, 0, N)

    def test_budget_plus_one_builds_nothing(self, monkeypatch):
        # the direct route shares the budget of the other two routes
        monkeypatch.setattr(altsum, "digit_sum_range", lambda n, b: pytest.fail("built parities"))
        with pytest.raises(ValueError, match=f"within \\[1, {altsum._OPERATOR_BUDGET}\\]"):
            alternating_sum_direct(lambda t: t, 0, altsum._OPERATOR_BUDGET + 1)


class TestForwardDifference:
    @pytest.mark.parametrize("N", [1, 2, 3, 5, 8])
    def test_top_degree_monomial_gives_factorial(self, N):
        assert forward_difference(lambda t: t**N, Fraction(0), N) == math.factorial(N)

    @pytest.mark.parametrize("N", [2, 3, 6])
    def test_annihilates_lower_degree(self, N):
        poly = lambda t: 4 * t ** (N - 1) - 3 * t + 2
        assert forward_difference(poly, Fraction(5), N) == 0

    def test_exponential_square(self):
        got = forward_difference(math.exp, 0.0, 2)
        assert got == pytest.approx((math.e - 1) ** 2, rel=1e-14)

    def test_order_zero_is_evaluation(self):
        assert forward_difference(lambda t: t + 1, 4, 0) == 5

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            forward_difference(lambda t: t, 0, -1)


class TestDeltaProductForm:
    def test_two_step_expansion(self):
        f = lambda t: Fraction(t) ** 2
        x = Fraction(1, 3)
        want = f(x) - f(x + 1) - f(x + 2) + f(x + 3)
        assert delta_product_form(f, x, 2) == want

    @pytest.mark.parametrize("N", [0, 21])
    def test_rejects_out_of_budget(self, N):
        with pytest.raises(ValueError):
            delta_product_form(lambda t: t, 0, N)


def three_route_values(f, x, N):
    direct = alternating_sum_direct(f, x, N)
    product = delta_product_form(f, x, N)
    weighted = alternating_sum_via_weights(f, x, N)
    # each route can only be as accurate as the magnitudes it sums allow;
    # the weighted route multiplies by the table entries, so its terms are
    # far larger than the plain signed terms
    scale_plain = sum(abs(f(x + n)) for n in range(2**N))
    table = alpha_weights(N - 1).alpha
    scale_weighted = sum(
        a * sum(math.comb(N, l) * abs(f(x + k + l)) for l in range(N + 1))
        for k, a in enumerate(table)
    )
    return direct, product, weighted, max(scale_plain, 1.0), max(scale_weighted, 1.0)


class TestThreeRouteAgreement:
    FUNCTIONS = [
        ("exp", math.exp),
        ("sin", math.sin),
        ("reciprocal", lambda t: 1.0 / (t + 0.7)),
        ("cubic", lambda t: t**3 + 2.0 * t - 1.0),
    ]

    @pytest.mark.parametrize("name,f", FUNCTIONS, ids=[n for n, _ in FUNCTIONS])
    @pytest.mark.parametrize("x", [0.0, 0.3, 2.0])
    @pytest.mark.parametrize("N", list(range(1, 11)))
    def test_routes_agree(self, name, f, x, N):
        if name == "exp" and x + 2.0**N > 700.0:
            pytest.skip("the sum itself exceeds the double range")
        direct, product, weighted, plain, heavy = three_route_values(f, x, N)
        assert abs(direct - product) <= 1e-9 * plain
        assert abs(direct - weighted) <= 1e-9 * max(plain, heavy)

    @given(
        coeffs=st.lists(st.integers(-9, 9), min_size=1, max_size=5),
        num=st.integers(-6, 6),
        den=st.integers(1, 6),
        N=st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_rational_polynomials_agree_exactly(self, coeffs, num, den, N):
        x = Fraction(num, den)

        def poly(t):
            acc = Fraction(0)
            for c in reversed(coeffs):
                acc = acc * t + c
            return acc

        direct = alternating_sum_direct(poly, x, N)
        assert delta_product_form(poly, x, N) == direct
        assert alternating_sum_via_weights(poly, x, N) == direct


class TestAlphaWeights:
    def test_small_tables(self):
        assert alpha_weights(1).alpha == (1, 1)
        assert alpha_weights(2).alpha == (1, 2, 2, 2, 1)
        assert alpha_weights(3).alpha == (1, 3, 5, 7, 8, 8, 8, 8, 7, 5, 3, 1)

    @pytest.mark.parametrize("N", list(range(0, 11)))
    def test_matches_bounded_composition_count(self, N):
        assert alpha_weights(N).alpha == alpha_weights_oracle(N).alpha

    @pytest.mark.parametrize("N", [12, 16, 20])
    def test_large_tables_validate(self, N):
        # the constructor asserts symmetry, positivity and the 2^(N(N+1)/2) sum
        table = alpha_weights(N)
        assert len(table.alpha) == 2 ** (N + 1) - N - 1

    def test_rejects_out_of_budget(self):
        with pytest.raises(ValueError):
            alpha_weights(altsum._ALPHA_BUDGET + 1)
        with pytest.raises(ValueError):
            alpha_weights_oracle(altsum._COMPOSITION_BUDGET + 1)


class TestTableBudgets:
    """Past its budget a table builder raises before it builds anything."""

    def test_alpha_weights_budget_plus_one(self, monkeypatch):
        # the weight-table workload of perfbench builds every N up to 20
        assert altsum._ALPHA_BUDGET >= 20
        monkeypatch.setattr(altsum, "_alpha_tuple", lambda N: pytest.fail("built a table"))
        with pytest.raises(ValueError):
            alpha_weights(altsum._ALPHA_BUDGET + 1)

    def test_zn_pmf_budget_plus_one(self, monkeypatch):
        monkeypatch.setattr(altsum, "_bounded_sum_counts", lambda b: pytest.fail("built a pmf"))
        with pytest.raises(ValueError):
            zn_pmf(altsum._COMPOSITION_BUDGET + 1)

    def test_pmf_cumulant_budget_plus_one(self, monkeypatch):
        monkeypatch.setattr(altsum, "_bounded_sum_counts", lambda b: pytest.fail("built counts"))
        with pytest.raises(ValueError):
            pmf_standardized_cumulant(altsum._COMPOSITION_BUDGET + 1, 4)


class TestWeightTableType:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            WeightTable(1, (1, 2))

    def test_rejects_wrong_sum(self):
        with pytest.raises(ValueError):
            WeightTable(1, (2, 2))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            WeightTable(2, (1, 2, 2, 1))

    def test_rejects_nonpositive(self):
        # symmetric, of the right length and total, but with zero entries
        with pytest.raises(ValueError, match="positive"):
            WeightTable(2, (0, 4, 0, 4, 0))


class TestClosedPolynomialValues:
    # top-degree monomial: value is independent of the shift
    @pytest.mark.parametrize("N", list(range(1, 11)))
    @pytest.mark.parametrize("x", [Fraction(0), Fraction(1), Fraction(-3, 2)])
    def test_degree_n_monomial(self, N, x):
        want = (-1) ** N * 2 ** (N * (N - 1) // 2) * math.factorial(N)
        assert alternating_sum_via_weights(lambda t: t**N, x, N) == want
        assert alternating_sum_direct(lambda t: t**N, x, N) == want

    # one degree above: affine in the shift
    @pytest.mark.parametrize("N", list(range(1, 11)))
    @pytest.mark.parametrize("x", [Fraction(0), Fraction(1), Fraction(-3, 2)])
    def test_degree_n_plus_one_monomial(self, N, x):
        want = (
            (-1) ** N
            * math.factorial(N + 1)
            * 2 ** (N * (N - 1) // 2)
            * (x + Fraction(2**N - 1, 2))
        )
        assert alternating_sum_via_weights(lambda t: t ** (N + 1), x, N) == want
        assert alternating_sum_direct(lambda t: t ** (N + 1), x, N) == want


class TestPolynomialAnnihilation:
    def test_constant_annihilated_by_single_difference(self):
        assert polynomial_annihilation_check([1], 1)

    def test_quadratic_under_three_blocks_exact(self):
        # integer coefficients at x = 0: the sum is compared against zero
        # with no tolerance at all
        assert polynomial_annihilation_check([1, 3, 1], 3)

    def test_cubic_survives_three_blocks(self):
        assert not polynomial_annihilation_check([0, 0, 0, 1], 3)

    def test_rejects_out_of_budget(self):
        with pytest.raises(ValueError):
            polynomial_annihilation_check([1], 21)


class TestIntroReindexing:
    # doubling the summation range is the same statement one level up
    @pytest.mark.parametrize("N", [1, 2, 4, 6])
    def test_double_range_equals_next_level(self, N):
        poly = lambda t: t ** (N + 1) - 3 * t + Fraction(1, 2)
        x = Fraction(2, 3)
        direct = alternating_sum_direct(poly, x, N + 1)
        table = alpha_weights(N).alpha
        sign = (-1) ** (N + 1)
        scale = Fraction(1, 2 ** (N * (N + 1) // 2))
        weighted = sign * sum(
            a * forward_difference(poly, x + k, N + 1) for k, a in enumerate(table)
        )
        assert direct == weighted * scale * 2 ** (N * (N + 1) // 2)
        assert direct == alternating_sum_via_weights(poly, x, N + 1)


class TestZnPmf:
    def test_single_uniform(self):
        assert zn_pmf(1) == (Fraction(1, 2), Fraction(1, 2))

    def test_two_summands(self):
        want = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 8))
        assert zn_pmf(2) == want

    def test_four_summands_by_enumeration(self):
        import itertools

        counts = [0] * (2**5 - 4 - 1)
        for parts in itertools.product(range(2), range(4), range(8), range(16)):
            counts[sum(parts)] += 1
        denom = 2**10
        assert zn_pmf(4) == tuple(Fraction(c, denom) for c in counts)

    @pytest.mark.parametrize("N", list(range(0, 13)))
    def test_equals_normalized_weights(self, N):
        denom = 2 ** (N * (N + 1) // 2)
        want = tuple(Fraction(a, denom) for a in alpha_weights(N).alpha)
        assert zn_pmf(N) == want

    def test_rejects_out_of_budget(self):
        with pytest.raises(ValueError):
            zn_pmf(altsum._COMPOSITION_BUDGET + 1)

    @pytest.mark.parametrize("N", [10**6, -(10**6)])
    def test_far_out_of_range_builds_nothing(self, N):
        # the budget is checked before the total 2^(N(N+1)/2), a number of
        # about 5e11 bits here, is built
        with pytest.raises(ValueError):
            zn_pmf(N)


def pmf_mean_variance(N):
    masses = zn_pmf(N)
    mean = sum(Fraction(k) * m for k, m in enumerate(masses))
    second = sum(Fraction(k) ** 2 * m for k, m in enumerate(masses))
    return mean, second - mean**2


class TestZnMeanVariance:
    """The law of Z_N has mean 2^N - N/2 - 1 and variance (4^N - 3N/4 - 1)/9,
    the variance standardized_cumulant divides by."""

    def test_anchors(self):
        assert pmf_mean_variance(1) == (Fraction(1, 2), Fraction(1, 4))
        assert pmf_mean_variance(2) == (Fraction(2), Fraction(3, 2))

    @pytest.mark.parametrize("N", list(range(1, 13)))
    def test_matches_pmf_moments_exactly(self, N):
        mean = 2**N - Fraction(N, 2) - 1
        variance = (Fraction(4) ** N - Fraction(3, 4) * N - 1) / 9
        assert pmf_mean_variance(N) == (mean, variance)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            zn_pmf(-1)


class TestZnMgf:
    def test_unit_at_zero(self):
        assert zn_mgf(0.0, 5) == (1.0, 1.0)

    @pytest.mark.parametrize("z", [-2.0, -0.5, 0.1, 0.3, 1.0])
    @pytest.mark.parametrize("N", [1, 2, 3, 5, 6])
    def test_forms_agree(self, z, N):
        by_level, by_scale = zn_mgf(z, N)
        assert by_level == pytest.approx(by_scale, rel=1e-12)

    @pytest.mark.parametrize("z", [-1.0, 0.2])
    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_matches_pmf_transform(self, z, N):
        want = sum(float(m) * math.exp(z * k) for k, m in enumerate(zn_pmf(N)))
        assert zn_mgf(z, N) == pytest.approx((want, want), rel=1e-12)

    def test_far_negative_argument_isolates_smallest_value(self):
        # e^(zZ) concentrates all weight on Z = 0, whose mass is 2^-21
        want = 2.0**-21
        assert zn_mgf(-40.0, 6) == pytest.approx((want, want), rel=1e-9)

    @pytest.mark.parametrize("z", [1e-17, -1e-17])
    def test_unit_near_zero(self, z):
        # e^-z rounds to 1 here: a log of 1 - e^-z fails, a difference of logs of |z| cancels
        by_level, by_scale = zn_mgf(z, 3)
        assert abs(by_level - 1.0) <= 1e-15 and abs(by_scale - 1.0) <= 1e-15

    @pytest.mark.parametrize("z, N", [(-1e306, 10), (-1e308, 2)])
    def test_scale_past_the_float_range(self, z, N):
        # 2^k z overflows to -inf, where each factor (1 - e^(2^k z))/(1 - e^z) is 1
        want = 2.0 ** -(N * (N + 1) // 2)
        assert zn_mgf(z, N) == pytest.approx((want, want))

    def test_factor_past_the_exp_range(self):
        # e^(2z) overflows, but (e^(2z) - 1)/(2(e^z - 1)) = (1 + e^z)/2 does not
        want = math.exp(360.0 - math.log(2.0))
        assert zn_mgf(360.0, 1) == pytest.approx((want, want), rel=1e-13)

    def test_value_past_the_float_range_raises(self):
        # log E[e^(100 Z_3)] is about 1098, past the log of the largest double
        with pytest.raises(ValueError, match="past the float range"):
            zn_mgf(100.0, 3)

    def test_rejects_nonpositive_level(self):
        with pytest.raises(ValueError):
            zn_mgf(0.5, 0)


class TestStandardizedCumulants:
    @pytest.mark.parametrize("N", list(range(1, 11)))
    def test_second_cumulant_is_one(self, N):
        assert standardized_cumulant(N, 2) == 1.0

    @pytest.mark.parametrize("N", list(range(1, 9)))
    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    def test_matches_pmf_oracle(self, N, order):
        closed = standardized_cumulant(N, order)
        oracle = float(pmf_standardized_cumulant(N, order))
        assert closed == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("N", list(range(1, 9)))
    def test_oracle_equals_fraction_mass_route(self, N):
        # every even order up to the budget, compared as exact rationals
        for order in range(2, 17, 2):
            assert pmf_standardized_cumulant(N, order) == fraction_mass_cumulant(N, order)

    def test_level_budget_raises_before_any_power(self, monkeypatch):
        # the exact powers 4^(nN) are the cost the budget bounds
        class Built(Exception):
            pass

        def no_fraction(*args):
            raise Built

        monkeypatch.setattr(altsum, "Fraction", no_fraction)
        budget = altsum._CUMULANT_LEVEL_BUDGET
        with pytest.raises(ValueError, match=f"within \\[1, {budget}\\], the level budget"):
            standardized_cumulant(budget + 1, 16)
        with pytest.raises(Built):
            standardized_cumulant(budget, 16)

    def test_oracle_checks_total_mass(self, monkeypatch):
        counts = altsum._bounded_sum_counts

        def two_extra(bounds):
            # still positive and symmetric, but the total is 2 too large
            out = counts(bounds)
            out[0] += 1
            out[-1] += 1
            return out

        monkeypatch.setattr(altsum, "_bounded_sum_counts", two_extra)
        with pytest.raises(ValueError, match="sum to 2"):
            pmf_standardized_cumulant(4, 4)

    def test_oracle_checks_nonnegative_counts(self, monkeypatch):
        counts = altsum._bounded_sum_counts

        def shifted(bounds):
            # same total and still symmetric, but the counts of k = 0 and of
            # the last k (each 1) go negative
            out = counts(bounds)
            for k in (0, -1):
                out[k] -= 2
            for k in (1, -2):
                out[k] += 2
            return out

        monkeypatch.setattr(altsum, "_bounded_sum_counts", shifted)
        with pytest.raises(ValueError, match="positive"):
            pmf_standardized_cumulant(4, 4)

    def test_selected_higher_orders(self):
        assert standardized_cumulant(3, 4) == pytest.approx(
            float(pmf_standardized_cumulant(3, 4)), rel=1e-10
        )
        assert standardized_cumulant(6, 6) == pytest.approx(
            float(pmf_standardized_cumulant(6, 6)), rel=1e-10
        )

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            standardized_cumulant(3, 3)
        with pytest.raises(ValueError):
            standardized_cumulant(3, 18)
        with pytest.raises(ValueError):
            standardized_cumulant(0, 4)


class TestLimitCumulant:
    def test_anchors(self):
        assert limit_cumulant(2) == 1.0
        assert limit_cumulant(4) == -0.72

    def test_finite_level_converges(self):
        assert standardized_cumulant(14, 4) == pytest.approx(-0.72, abs=1e-3)

    @pytest.mark.parametrize("order", [8, 12, 16])
    def test_ratio_to_bernoulli_scale(self, order):
        # dividing out (B/order) 3^order leaves 2^order/(2^order - 1)
        from digitsum.specfun import bernoulli_even

        base = float(bernoulli_even(order) / order * Fraction(3) ** order)
        want = 2.0**order / (2.0**order - 1.0)
        assert limit_cumulant(order) / base == pytest.approx(want, rel=1e-12)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            limit_cumulant(5)


def table_mean(N):
    # the mean of the normalized level N - 1 weight table
    table = alpha_weights(N - 1).alpha
    return Fraction(sum(k * a for k, a in enumerate(table)), 2 ** ((N - 1) * N // 2))


class TestWeightsFirstMoment:
    def test_anchors(self):
        assert table_mean(2) == Fraction(1, 2)
        assert table_mean(3) == Fraction(2)
        assert table_mean(4) == Fraction(11, 2)

    @pytest.mark.parametrize("N", list(range(1, 11)))
    def test_closed_form_and_unnormalized_reading(self, N):
        assert table_mean(N) == Fraction(2**N - N - 1, 2)
        # the same moment before dividing by the table total
        table = alpha_weights(N - 1).alpha
        raw = sum(k * a for k, a in enumerate(table))
        assert 2 * raw == 2 ** ((N - 1) * N // 2) * (2**N - N - 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            alpha_weights(-1)
