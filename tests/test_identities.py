"""Closed forms for digit-sum series against brute-force and mpmath oracles."""
from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsum import identities
from digitsum.digitseq import _block_length, digit_sum, digit_sum_range, digit_weighted_sum
from digitsum.harness import GridSpec, run_suite
from digitsum.identities import (
    FiniteSumParams,
    binary_corollary_closed,
    digit_zeta_2,
    direct_digit_zeta,
    direct_j_infinity,
    direct_product_log,
    double_sum_alternate,
    finite_barnes_closed,
    finite_zeta_diff_closed,
    finite_zeta_diff_direct,
    infinite_barnes,
    infinite_product,
    infinite_zeta_diff,
    j_infinity,
    j_infinity_taylor_coeff,
    j_recurrence_check,
    product_special_values,
)
from digitsum.specfun import (
    DEFAULT_CTX,
    PrecisionContext,
    TruncationBudgetError,
    elliptic_K,
    log_gamma,
    stirling_beta,
)


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def blocked_sum_bound(terms: np.ndarray, limit: int, b: int) -> float:
    # float64 error bound of digit_weighted_sum against the exact sum of its terms
    block = _block_length(b)
    return (block + -(-limit // block)) * 2.0**-52 * math.fsum(np.abs(terms).tolist())


class TestFiniteSumParams:
    """Validation of the shared finite-sum parameter bundle."""

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            FiniteSumParams(1, 2, 2.0, 0.0)

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            FiniteSumParams(2, 0, 2.0, 0.0)

    def test_rejects_negative_shift(self):
        with pytest.raises(ValueError):
            FiniteSumParams(2, 2, 2.0, -0.5)


class TestFiniteClosedForm:
    """Telescoped closed form of the finite difference-kernel sum."""

    def test_depth_one_binary_reduces_to_one_bracket(self):
        # only n = 1 contributes, with weight (z+1)^-a - (z+2)^-a
        for alpha in (0.5, 1.0, 2.5):
            for z in (0.0, 1.0, 3.75):
                want = (z + 1.0) ** -alpha - (z + 2.0) ** -alpha
                got = finite_zeta_diff_closed(FiniteSumParams(2, 1, alpha, z))
                assert rel_err(got, want) < 1e-12

    def test_matches_direct_on_grid(self):
        worst = 0.0
        for b in (2, 3, 5, 10):
            for p in (1, 2, 3):
                for alpha in (0.5, 1.0, 2.0, 3.5):
                    for z in (0.0, 0.5, 3.75):
                        params = FiniteSumParams(b, p, alpha, z)
                        got = finite_zeta_diff_closed(params)
                        want = finite_zeta_diff_direct(params)
                        worst = max(worst, rel_err(got, want))
        assert worst < 5e-12

    def test_order_one_branch_is_the_limit_of_generic_orders(self):
        # the digamma collapse must join continuously across alpha = 1
        for (b, p, z) in [(2, 3, 0.5), (3, 2, 1.0)]:
            at_one = finite_zeta_diff_closed(FiniteSumParams(b, p, 1.0, z))
            for eps in (1e-6, -1e-6):
                near = finite_zeta_diff_closed(FiniteSumParams(b, p, 1.0 + eps, z))
                assert rel_err(near, at_one) < 1e-4

    @given(
        b=st.sampled_from([2, 3, 5]),
        p=st.integers(min_value=1, max_value=4),
        alpha=st.sampled_from([0.5, 1.0, 1.75, 2.0, 3.5]),
        z=st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_property(self, b, p, alpha, z):
        params = FiniteSumParams(b, p, alpha, z)
        got = finite_zeta_diff_closed(params)
        want = finite_zeta_diff_direct(params)
        assert rel_err(got, want) < 1e-9


class TestBinaryCorollary:
    """Base-2 half-shift variant of the finite closed form."""

    GRID = [
        (p, alpha, z)
        for p in (1, 2, 3, 4)
        for alpha in (0.5, 1.0, 2.0, 2.5, 3.5)
        for z in (0.0, 0.5, 1.0, 3.75)
    ]

    def test_matches_general_closed_form(self):
        worst = 0.0
        for p, alpha, z in self.GRID:
            got = binary_corollary_closed(p, alpha, z)
            want = finite_zeta_diff_closed(FiniteSumParams(2, p, alpha, z))
            worst = max(worst, rel_err(got, want))
        assert worst < 1e-10

    def test_matches_direct(self):
        worst = 0.0
        for p, alpha, z in self.GRID:
            got = binary_corollary_closed(p, alpha, z)
            want = finite_zeta_diff_direct(FiniteSumParams(2, p, alpha, z))
            worst = max(worst, rel_err(got, want))
        assert worst < 1e-9


class TestDoubleSumAlternate:
    """Alternating double-sum route to the base-2 finite sum."""

    def test_depth_one_weight(self):
        # 1/(z+1)^2 - 1/(z+2)^2 at z = 0 is 3/4
        assert rel_err(double_sum_alternate(1, 2.0, 0.0), 0.75) < 1e-12

    def test_matches_direct_grid(self):
        worst = 0.0
        for p in (1, 2, 3):
            for alpha in (0.5, 1.0, 2.0, 3.5):
                for z in (0.0, 0.5, 3.75):
                    got = double_sum_alternate(p, alpha, z)
                    want = finite_zeta_diff_direct(FiniteSumParams(2, p, alpha, z))
                    worst = max(worst, rel_err(got, want))
        assert worst < 1e-9

    @given(
        p=st.integers(min_value=1, max_value=4),
        alpha=st.sampled_from([0.5, 1.0, 2.0, 3.5]),
        z=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_three_routes_agree_property(self, p, alpha, z):
        alt = double_sum_alternate(p, alpha, z)
        half = binary_corollary_closed(p, alpha, z)
        general = finite_zeta_diff_closed(FiniteSumParams(2, p, alpha, z))
        assert rel_err(alt, general) < 1e-9
        assert rel_err(half, general) < 1e-9


class TestJRecurrence:
    """Odd-index recurrence of the partial harmonic-difference sums."""

    def test_small_anchor(self):
        # N = 1, x = 0: both sides equal 1/1*2 + 1/2*3 + 2/3*4 = 5/6
        report = j_recurrence_check(1, 0.0)
        assert report.passed
        assert rel_err(report.lhs, 5.0 / 6.0) < 1e-13
        assert rel_err(report.rhs, 5.0 / 6.0) < 1e-13

    @pytest.mark.parametrize(
        "N,x", [(3, 0.7), (7, 2.5), (15, 0.0), (12, 1.25), (1, 1000.0)]
    )
    def test_recurrence_holds(self, N, x):
        report = j_recurrence_check(N, x)
        assert report.passed, (N, x, report.rel_err)

    def test_report_identity_fields(self):
        report = j_recurrence_check(3, 0.7)
        assert report.identity_id == "j-recurrence"
        assert report.params == {"N": 3, "x": 0.7}
        assert report.abs_err == abs(report.lhs - report.rhs)


class TestInfiniteZetaDiff:
    """Closed form of the infinite difference-kernel sum."""

    def test_binary_integer_order_anchors(self):
        # at z = 0 and integer order p the value is a rational times zeta(p)
        for p in range(2, 9):
            want = (1.0 - 2.0 ** (1 - p)) / (1.0 - 2.0**-p) * float(mp.zeta(p))
            got = infinite_zeta_diff(2, float(p), 0.0)
            assert rel_err(got, want) < 1e-9, p

    def test_order_two_is_pi_squared_over_nine(self):
        assert rel_err(infinite_zeta_diff(2, 2.0, 0.0), math.pi**2 / 9.0) < 1e-12

    def test_matches_truncated_direct(self):
        lim = 2_000_000
        for (b, alpha, z) in [(2, 2.0, 0.0), (3, 1.5, 1.0), (2, 0.75, 0.5)]:
            s = digit_sum_range(lim, b).astype(np.float64)
            n = np.arange(lim, dtype=np.float64)
            weights = (z + n[1:]) ** -alpha - (z + n[1:] + 1.0) ** -alpha
            partial = float(np.dot(s[1:], weights))
            # tail terms are s(n) * O(n^-a-1); bound with the digit-count ceiling
            ceiling = (b - 1.0) * (math.log(lim) / math.log(b) + 2.0)
            tail = ceiling * alpha * (lim + z) ** -alpha / alpha
            got = infinite_zeta_diff(b, alpha, z)
            assert abs(got - partial) < tail, (b, alpha, z)

    def test_telescopes_to_plain_kernel_closed_forms(self):
        # difference kernel = plain kernel at z minus plain kernel at z+1
        for (b, alpha, z) in [(2, 2.5, 0.0), (2, 3.5, 0.5), (3, 3.0, 1.0)]:
            lhs = infinite_zeta_diff(b, alpha, z)
            rhs = infinite_barnes(b, alpha, z) - infinite_barnes(b, alpha, z + 1.0)
            assert rel_err(lhs, rhs) < 1e-11

    def test_rejects_order_one_and_nonpositive(self):
        with pytest.raises(ValueError):
            infinite_zeta_diff(2, 1.0, 0.0)
        with pytest.raises(ValueError):
            infinite_zeta_diff(2, -0.5, 0.0)


class TestJInfinity:
    """Limit of the harmonic-difference sums and its digamma closed form."""

    def test_zero_argument_anchor(self):
        for b in (2, 3, 10):
            want = b / (b - 1.0) * math.log(b)
            assert j_infinity(b, 0.0) == pytest.approx(want, rel=1e-15)

    def test_bracketed_by_direct_partial_sums(self):
        mid, half = direct_j_infinity(2, 1.0, 10_000_000)
        assert abs(j_infinity(2, 1.0) - mid) < half
        mid, half = direct_j_infinity(3, 0.5, 1_000_000)
        assert abs(j_infinity(3, 0.5) - mid) < half

    def test_halving_functional_equation(self):
        # J(x) = J(x/2)/2 + beta(x+1): the N -> infinity recurrence limit
        for x in (0.5, 1.0, 2.0, 5.0, 10.0):
            lhs = j_infinity(2, x)
            rhs = 0.5 * j_infinity(2, x / 2.0) + stirling_beta(x + 1.0)
            assert rel_err(lhs, rhs) < 1e-10, x

    def test_budget_exhaustion_raises(self):
        ctx = PrecisionContext(max_terms=3)
        with pytest.raises(TruncationBudgetError):
            j_infinity(2, 40.0, ctx)


class TestJInfinityTaylorCoeff:
    """Series coefficients of the closed limit form around x = 0."""

    def test_constant_term(self):
        for b in (2, 3, 10):
            want = b / (b - 1.0) * math.log(b)
            assert j_infinity_taylor_coeff(b, 0) == pytest.approx(want, rel=1e-15)

    def test_linear_term_binary(self):
        # -zeta(2) * (8-2)/(8-1) ... reduces to -pi^2/9 at b = 2
        assert rel_err(j_infinity_taylor_coeff(2, 1), -math.pi**2 / 9.0) < 1e-13

    @staticmethod
    def _mp_j_infinity(b: int, x) -> mp.mpf:
        # independent high-precision evaluation of the same level series
        x = mp.mpf(x)
        total = mp.mpf(b) / (b - 1) * mp.log(b)
        l = 0
        while True:
            lo = x / mp.mpf(b) ** (l + 1)
            hi = x / mp.mpf(b) ** l
            term = mp.mpf(b) ** (-l) * (mp.psi(0, lo) - mp.psi(0, hi) + (b - 1) * mp.mpf(b) ** l / x)
            total += term
            if abs(hi) < 1 and abs(term) < mp.mpf(10) ** (-mp.mp.dps + 6):
                return total
            l += 1

    @pytest.mark.parametrize("b", [2, 3, 10])
    def test_orders_one_to_four_match_difference_quotients(self, b):
        # interpolate the independent oracle on a symmetric stencil; the
        # level brackets vanish at x = 0, leaving the additive constant
        with mp.workdps(60):
            h = mp.mpf("0.001")
            nodes = [k * h for k in (-3, -2, -1, 1, 2, 3)]
            values = [self._mp_j_infinity(b, xk) for xk in nodes]
            nodes.append(mp.mpf(0))
            values.append(mp.mpf(b) / (b - 1) * mp.log(b))
            vander = mp.matrix([[xk**j for j in range(7)] for xk in nodes])
            coeffs = mp.lu_solve(vander, mp.matrix(values))
        for order in (1, 2, 3, 4):
            want = float(coeffs[order])
            got = j_infinity_taylor_coeff(b, order)
            assert rel_err(got, want) < 1e-5, (b, order)

    @pytest.mark.parametrize("b", [2, 3])
    def test_float_evaluator_agrees_with_mp_oracle(self, b):
        with mp.workdps(40):
            for x in (0.01, 0.03, 0.5, 1.0):
                want = float(self._mp_j_infinity(b, x))
                assert rel_err(j_infinity(b, x), want) < 1e-10, (b, x)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            j_infinity_taylor_coeff(1, 0)
        with pytest.raises(ValueError):
            j_infinity_taylor_coeff(2, -1)


class TestInfiniteProduct:
    """Gamma closed form of the digit-sum weighted rational product."""

    def test_empty_exponent(self):
        assert infinite_product(2, 0.0) == 1.0

    @pytest.mark.parametrize(
        "b,z", [(2, 1.0), (2, 0.5), (2, -0.6), (3, 0.3), (3, 1.0)]
    )
    def test_matches_mp_gamma_product(self, b, z):
        # telescoping the level gammas leaves prod Gamma(1+z/b^l)^(b-1)/Gamma(1+z)
        with mp.workdps(40):
            acc = mp.mpf(b) ** (mp.mpf(z) * b / (b - 1))
            acc /= mp.gamma(1 + mp.mpf(z))
            for l in range(1, 140):
                acc *= mp.gamma(1 + mp.mpf(z) / mp.mpf(b) ** l) ** (b - 1)
            want = float(acc)
        assert rel_err(infinite_product(b, z), want) < 5e-12

    def test_log_bracketed_by_direct_partial(self):
        mid, half = direct_product_log(3, 0.3, 1_000_000)
        assert abs(math.log(infinite_product(3, 0.3)) - mid) < half

    def test_rejects_z_at_or_below_minus_one(self):
        with pytest.raises(ValueError):
            infinite_product(2, -1.0)


class TestProductSpecialValues:
    """Ratios of the binary product at power-of-two arguments."""

    def test_all_cases_pass(self):
        reports = product_special_values()
        assert len(reports) == 4
        for report in reports:
            assert report.identity_id == "pi-over-2"
            assert report.passed, report.params

    def test_half_circle_ratio(self):
        got = infinite_product(2, 1.0) / infinite_product(2, 0.5)
        assert rel_err(got, math.pi / 2.0) < 1e-12

    def test_quarter_family_is_lemniscatic(self):
        got = infinite_product(2, 0.5) / infinite_product(2, 0.25)
        want = elliptic_K(1.0 / math.sqrt(2.0)) / math.sqrt(2.0)
        assert rel_err(got, want) < 1e-12

    def test_eighth_family_gamma_ratio(self):
        got = infinite_product(2, 0.25) / infinite_product(2, 0.125)
        want = 2.0**0.25 * math.exp(2.0 * log_gamma(1.125) - log_gamma(1.25))
        assert rel_err(got, want) < 1e-12


class TestFiniteBarnes:
    """Finite plain-kernel sum through the two-parameter zeta."""

    def test_depth_one_binary_is_single_power(self):
        for alpha in (2.5, 3.0, 4.0):
            for z in (0.0, 0.5, 1.0):
                got = finite_barnes_closed(2, 1, alpha, z)
                assert rel_err(got, (z + 1.0) ** -alpha) < 1e-12

    def test_matches_direct_on_grid(self):
        worst = 0.0
        for b in (2, 3):
            for p in (2, 3):
                for alpha in (2.5, 3.0, 4.0):
                    for z in (0.0, 0.5, 1.0):
                        top = b**p
                        want = sum(
                            digit_sum(n, b) * (n + z) ** -alpha for n in range(1, top)
                        )
                        got = finite_barnes_closed(b, p, alpha, z)
                        worst = max(worst, rel_err(got, want))
        assert worst < 1e-10

    def test_rejects_low_order(self):
        with pytest.raises(ValueError):
            finite_barnes_closed(2, 2, 2.0, 0.0)


class TestInfiniteBarnes:
    """Infinite plain-kernel sum through the two-parameter zeta."""

    def test_bracketed_by_direct_partial(self):
        for (b, alpha, z) in [(2, 2.5, 0.5), (3, 3.0, 0.0)]:
            mid, half = direct_digit_zeta(b, alpha, z, 1_000_000)
            assert abs(infinite_barnes(b, alpha, z) - mid) < half, (b, alpha, z)

    def test_shifting_z_by_one_reproduces_difference_kernel(self):
        for (b, alpha, z) in [(2, 2.2, 2.0), (3, 4.0, 0.0)]:
            lhs = infinite_barnes(b, alpha, z) - infinite_barnes(b, alpha, z + 1.0)
            rhs = infinite_zeta_diff(b, alpha, z)
            assert rel_err(lhs, rhs) < 1e-11

    def test_rejects_low_order(self):
        with pytest.raises(ValueError):
            infinite_barnes(2, 2.0, 0.0)


class TestDigitZeta2:
    """Order-2 plain-kernel sum from the regularized Barnes assembly."""

    def test_cor30_suite_passes_on_closed_value(self):
        run = run_suite(GridSpec("cor30", {}))
        assert run.summary == {"pass": 6, "fail": 0}
        for report in run.reports:
            assert report.lhs == digit_zeta_2(report.params["b"], report.params["z"])

    def test_value_bracketed_by_direct_partial(self):
        mid, half = direct_digit_zeta(2, 2.0, 1.0, 1_000_000)
        assert abs(digit_zeta_2(2, 1.0) - mid) < half

    def test_order_two_difference_kernel_consistency(self):
        lhs = digit_zeta_2(3, 0.5) - digit_zeta_2(3, 1.5)
        rhs = infinite_zeta_diff(3, 2.0, 0.5)
        assert rel_err(lhs, rhs) < 1e-10

    def test_wrong_closed_form_fails_cor30(self, monkeypatch):
        monkeypatch.setattr(
            identities, "_regularized_order2_assembly", lambda b, z, ctx: 1e6
        )
        run = run_suite(GridSpec("cor30", {}))
        assert run.summary == {"pass": 0, "fail": 6}

    def test_rejects_nonpositive_shift(self):
        for b, z in ((2, 0.0), (2, -0.5), (1, 1.0)):
            with pytest.raises(ValueError):
                digit_zeta_2(b, z)


class TestDirectOracles:
    """Tail-bracketed truncation models behind the brute-force oracles."""

    def test_digit_zeta_brackets_nest_around_known_value(self):
        want = math.pi**2 / 9.0  # difference-kernel value equals plain at z=0 shift
        # plain kernel at b=2, alpha=2, z=0 against two truncation depths
        closed = infinite_zeta_diff(2, 2.0, 0.0) + digit_zeta_2(2, 1.0)
        for lim in (10_000, 100_000):
            mid, half = direct_digit_zeta(2, 2.0, 0.0, lim)
            assert abs(closed - mid) < half, lim
        _, half_small = direct_digit_zeta(2, 2.0, 0.0, 10_000)
        _, half_large = direct_digit_zeta(2, 2.0, 0.0, 100_000)
        assert half_large < half_small
        assert want < closed  # the difference kernel drops part of each term

    def test_j_infinity_bracket_width_shrinks(self):
        _, half_small = direct_j_infinity(2, 1.0, 10_000)
        _, half_large = direct_j_infinity(2, 1.0, 100_000)
        assert half_large < half_small

    def test_digit_zeta_oracle_rejects_divergent_order(self):
        with pytest.raises(ValueError):
            direct_digit_zeta(2, 1.0, 0.0, 1000)

    @pytest.mark.parametrize(
        "oracle, args",
        [
            (direct_j_infinity, (2, -1.5, 1000)),
            (direct_j_infinity, (2, -1.0, 1000)),
            (direct_j_infinity, (2, math.nan, 1000)),
            (direct_j_infinity, (2, 1.0, 0)),
            (direct_j_infinity, (1, 1.0, 1000)),
            (direct_digit_zeta, (2, 2.0, math.nan, 1000)),
            (direct_digit_zeta, (2, 2.0, -1.0, 1000)),
            (direct_digit_zeta, (2, 2.0, math.inf, 1000)),
            (direct_digit_zeta, (2, math.nan, 1.0, 1000)),
            (direct_digit_zeta, (2, math.inf, 1.0, 1000)),
            (direct_digit_zeta, (2, 2.0, 1.0, 0)),
            (direct_digit_zeta, (1, 2.0, 1.0, 1000)),
            (direct_product_log, (2, -1.5, 1000)),
            (direct_product_log, (2, -math.inf, 1000)),
            (direct_product_log, (2, 0.5, 0)),
            (direct_product_log, (0, 0.5, 1000)),
        ],
    )
    def test_oracles_reject_points_outside_their_domain(self, oracle, args):
        # a shift <= -1 puts a pole or a log of a negative number on some n >= 1
        with pytest.raises(ValueError):
            oracle(*args)

    @pytest.mark.parametrize("b, shift", [(2, 0.0), (2, 1.0), (3, 0.5), (10, 1.7)])
    def test_oracles_match_reference_expressions_bitwise(self, monkeypatch, b, shift):
        """Partial sums match fsum of the plain per-term products; tail models exactly."""
        limit = 1_000_000
        z = 0.9 - shift  # both signs, for direct_product_log's two tail models
        s = digit_sum_range(limit, b).astype(np.float64)[1:]
        n = np.arange(1, limit, dtype=np.float64)
        cases = [
            (direct_digit_zeta, (b, 2.5, shift, limit), s * (n + shift) ** -2.5),
            (direct_j_infinity, (b, shift, limit), s * (1.0 / ((shift + n) * (shift + n + 1.0)))),
            (direct_product_log, (b, z, limit), s * np.log1p(z / (n * (z + n + 1.0)))),
        ]
        partials = []

        def recording(lim, base, fill):
            partials.append(digit_weighted_sum(lim, base, fill))
            return partials[-1]

        monkeypatch.setattr(identities, "digit_weighted_sum", recording)
        got = [oracle(*args) for oracle, args, _ in cases]
        # with a zero partial sum each oracle returns its tail model alone
        monkeypatch.setattr(identities, "digit_weighted_sum", lambda lim, base, fill: 0.0)
        for (oracle, args, terms), value, partial in zip(cases, got, partials):
            tail_mid, tail_half = oracle(*args)
            assert value == (partial + tail_mid, tail_half), oracle.__name__
            # blocked summation order: float64 bound fixed by the block count
            exact = math.fsum(terms.tolist())
            assert abs(partial - exact) <= blocked_sum_bound(terms, limit, b), oracle.__name__
