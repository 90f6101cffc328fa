"""Closed forms for digit-sum series against brute-force and mpmath oracles."""
from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsum import harness, identities, specfun
from digitsum.digitseq import _block_length, digit_sum, digit_sum_range, digit_weighted_sum
from digitsum.harness import Criterion, GridSpec, build_report, exact_report, run_suite
from digitsum.identities import (
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
    REL_TOL,
    TruncationBudgetError,
    barnes_zeta2,
    elliptic_K,
    log_gamma,
    stirling_beta,
)


J_INFINITY_REFERENCE = Path(__file__).resolve().parent / "golden" / "j_infinity_mpmath.json"
DIGIT_ZETA_REFERENCE = Path(__file__).resolve().parent / "golden" / "digit_zeta_mpmath.json"


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def blocked_sum_bound(terms: np.ndarray, limit: int, b: int) -> float:
    # float64 error bound of digit_weighted_sum against the exact sum of its terms
    block = _block_length(b)
    return (block + -(-limit // block)) * 2.0**-52 * math.fsum(np.abs(terms).tolist())


def zeta_diff_reference(b: int, alpha: float, z: float) -> float:
    """The printed level series of infinite_zeta_diff in mpmath at 40 digits, on the
    given doubles: zeta(a, 1+z) + (1-b) sum_{l>=1} b^(-l a) zeta(a, 1 + z/b^l).

    Levels with z/b^l >= 1/8 are summed one by one; the rest through
    zeta(a, 1 + e) = sum_j (-e)^j (a)_j / j! zeta(a + j), whose level sum is
    geometric for each j, so a slow ratio b^-a costs no extra levels.
    """
    with mp.workdps(40):
        a, x, base = mp.mpf(alpha), mp.mpf(z), mp.mpf(b)
        total, l = mp.zeta(a, 1 + x), 1
        while x / base**l >= mp.mpf(1) / 8:
            total += (1 - b) * base ** (-l * a) * mp.zeta(a, 1 + x / base**l)
            l += 1
        j = 0
        while True:
            level_sum = base ** (-l * (a + j)) / (1 - base ** -(a + j))
            term = (1 - b) * (-x) ** j * mp.rf(a, j) / mp.factorial(j) * mp.zeta(a + j) * level_sum
            total += term
            if abs(term) < mp.mpf(10) ** -35 * abs(total):
                return float(total)
            j += 1


class TestCriterion:
    """The one pass rule every report derives `passed` from."""

    def test_exact(self):
        exact = Criterion(0.0)
        assert exact.admits(0.0, 0.0)
        assert not exact.admits(1e-300, 1e-300)
        # an exact mismatch whose totals agree: the abs > 0 guard keeps it failing
        assert not exact.admits(0.0, 1.0)

    def test_abs_leg(self):
        bracket = Criterion(1e-12, 1e-6)
        assert bracket.admits(5e-7, 0.5)
        assert not bracket.admits(2e-6, 0.5)
        assert bracket.admits(2e-6, 1e-13)  # the relative leg alone suffices

    def test_cap(self):
        assert not Criterion(1e-12, 1e-6, cap=1e-9).admits(5e-7, 0.5)
        assert not Criterion(1e-6, cap=1e-9).admits(0.0, 1e-8)
        assert Criterion(1e-6, cap=1e-9).admits(0.0, 1e-10)
        assert not Criterion(0.0, cap=1.0).admits(0.0, 1.0)

    def test_reports_derive_passed_from_their_criterion(self):
        report = build_report("thm2.1", {}, 1.0 + 1e-10, 1.0, rel_tol=1e-9)
        assert report.criterion == Criterion(1e-9)
        assert report.passed
        assert not replace(report, criterion=Criterion(1e-9, cap=1e-11)).passed
        miss = exact_report("prouhet", {}, False, 0, 0, 4)
        assert (miss.abs_err, miss.rel_err, miss.passed) == (0.0, 1.0, False)
        assert exact_report("prouhet", {}, True, 0, 0, 4).passed

    def test_abs_leg_counts_only_inside_the_value(self):
        # the tail bound plus REL_TOL |lhs| is the absolute budget; a budget as
        # wide as |rhs| would admit any lhs of the right size
        inside = build_report("x", {}, 1.5, 1.0, rel_tol=1e-12, tail_bound=0.75)
        assert inside.criterion == Criterion(1e-12, 0.75 + REL_TOL * 1.5) and inside.passed
        for tail_bound in (1.0, 4.0):
            wide = build_report("x", {}, 1.5, 1.0, rel_tol=1e-12, tail_bound=tail_bound)
            assert wide.criterion == Criterion(1e-12) and not wide.passed

    @pytest.mark.parametrize("b, z", [(2, 0.999999), (3, -0.999999)])
    def test_vacuous_oracle_bracket_fails(self, b, z):
        # the truncated power series' tail bound passes |rhs| here, at rel_err
        # 3.8e3 and 0.43: the row fails instead of passing on its bracket
        run = run_suite(GridSpec("thm4.1", {"b": [b], "z": [z]}))
        assert run.summary == {"pass": 0, "fail": 1}


_FINITE_SUM_CHECKS = [
    ("base", (1, 2, 2.0, 0.0), "base must be >= 2"),
    ("p", (2, 0, 2.0, 0.0), "p must be >= 1"),
    ("z", (2, 2, 2.0, -0.5), "z must be >= 0 and finite"),
    ("z-nan", (2, 2, 2.0, math.nan), "z must be >= 0 and finite"),
    ("z-inf", (2, 2, 2.0, math.inf), "z must be >= 0 and finite"),
    ("alpha", (2, 2, 0.0, 0.0), "alpha must be > 0"),
    ("alpha-negative", (2, 2, -1.5, 0.0), "alpha must be > 0"),
]
_BARNES_CHECKS = [
    ("x", (3.0, 0.0, 1), "x must be positive"),
    ("h-zero", (3.0, 1.0, 0), "h must be an integer >= 1"),
    ("h-fraction", (3.0, 1.0, 2.5), "h must be an integer >= 1"),
]


@pytest.mark.parametrize(
    "fn, args, message",
    [
        pytest.param(fn, args, message, id=f"{fn.__name__}-{name}")
        for fn, checks in [
            (finite_zeta_diff_closed, _FINITE_SUM_CHECKS),
            (finite_zeta_diff_direct, _FINITE_SUM_CHECKS),
            (finite_barnes_closed, _FINITE_SUM_CHECKS),
            (barnes_zeta2, _BARNES_CHECKS),
        ]
        for name, args, message in checks
    ],
)
def test_evaluators_check_their_own_inputs(fn, args, message):
    # each input the finite sums and the Barnes zeta reject, with its text
    with pytest.raises(ValueError) as info:
        fn(*args)
    assert str(info.value) == message


class TestFiniteClosedForm:
    """Telescoped closed form of the finite difference-kernel sum."""

    def test_depth_one_binary_reduces_to_one_bracket(self):
        # only n = 1 contributes, with weight (z+1)^-a - (z+2)^-a
        for alpha in (0.5, 1.0, 2.5):
            for z in (0.0, 1.0, 3.75):
                want = (z + 1.0) ** -alpha - (z + 2.0) ** -alpha
                got = finite_zeta_diff_closed(2, 1, alpha, z)
                assert rel_err(got, want) < 1e-12

    def test_matches_direct_on_grid(self):
        worst = 0.0
        for b in (2, 3, 5, 10):
            for p in (1, 2, 3):
                for alpha in (0.5, 1.0, 2.0, 3.5):
                    for z in (0.0, 0.5, 3.75):
                        got = finite_zeta_diff_closed(b, p, alpha, z)
                        want = finite_zeta_diff_direct(b, p, alpha, z)
                        worst = max(worst, rel_err(got, want))
        assert worst < 5e-12

    def test_order_one_branch_is_the_limit_of_generic_orders(self):
        # the digamma collapse must join continuously across alpha = 1
        for (b, p, z) in [(2, 3, 0.5), (3, 2, 1.0)]:
            at_one = finite_zeta_diff_closed(b, p, 1.0, z)
            for eps in (1e-6, -1e-6):
                near = finite_zeta_diff_closed(b, p, 1.0 + eps, z)
                assert rel_err(near, at_one) < 1e-4

    @pytest.mark.parametrize("alpha", [2.5, 1.0])
    @pytest.mark.parametrize("b, p", [(2, 1), (2, 4), (3, 3)])
    def test_each_level_difference_once(self, monkeypatch, b, p, alpha):
        # p + 1 levels, one Hurwitz difference each, none repeated
        real, diffs = identities.hurwitz_difference, []

        def counted(*call):
            diffs.append(call)
            return real(*call)

        monkeypatch.setattr(identities, "hurwitz_difference", counted)
        finite_zeta_diff_closed(b, p, alpha, 0.5)
        assert len(diffs) == len(set(diffs)) == p + 1

    @pytest.mark.parametrize("alpha", [1 + 1e-8, 1 + 1e-10, 1 + 1e-12])
    def test_near_order_one_against_mpmath(self, alpha):
        # no level difference forms the pole 1/(alpha - 1), so no digit is lost to it
        with mp.workdps(40):
            a, z = mp.mpf(alpha), mp.mpf(0.5)
            terms = (bin(n).count("1") * ((z + n) ** -a - (z + n + 1) ** -a) for n in range(1, 8))
            want = float(mp.fsum(terms))
        assert rel_err(finite_zeta_diff_closed(2, 3, alpha, 0.5), want) < 1e-14
        assert rel_err(binary_corollary_closed(3, alpha, 0.5), want) < 1e-14

    @pytest.mark.parametrize(
        "fn, args",
        [
            (finite_zeta_diff_closed, (2, 4, 2.0, 1e6)),
            (binary_corollary_closed, (4, 2.0, 1e6)),
            (finite_barnes_closed, (2, 7, 3.0, 1e8)),
            (double_sum_alternate, (3, 0.5, 1e8)),
        ],
    )
    def test_cancelling_levels_raise(self, fn, args):
        # far from the origin the levels are 6.3e4 (half-shift) to 5.7e7 (Barnes
        # brackets) times their sum, so their rounding passes REL_TOL of it.
        # Without the check the two z = 1e8 forms were 1.3e-3 and 1.2e-9 off
        with pytest.raises(TruncationBudgetError, match=f"{fn.__name__}: the levels cancel"):
            fn(*args)

    @given(
        b=st.sampled_from([2, 3, 5]),
        p=st.integers(min_value=1, max_value=4),
        alpha=st.sampled_from([0.5, 1.0, 1.75, 2.0, 3.5]),
        z=st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_property(self, b, p, alpha, z):
        got = finite_zeta_diff_closed(b, p, alpha, z)
        want = finite_zeta_diff_direct(b, p, alpha, z)
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
            want = finite_zeta_diff_closed(2, p, alpha, z)
            worst = max(worst, rel_err(got, want))
        assert worst < 1e-10

    def test_matches_direct(self):
        worst = 0.0
        for p, alpha, z in self.GRID:
            got = binary_corollary_closed(p, alpha, z)
            want = finite_zeta_diff_direct(2, p, alpha, z)
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
                    want = finite_zeta_diff_direct(2, p, alpha, z)
                    worst = max(worst, rel_err(got, want))
        assert worst < 1e-9

    @pytest.mark.parametrize("fn", [binary_corollary_closed, double_sum_alternate])
    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 2.0, 0.5), "p must be"),
            ((3, 0.0, 0.5), "alpha must be"),
            ((3, 2.0, -1.0), "z must be"),
        ],
    )
    def test_base_two_forms_share_the_finite_sum_domain(self, fn, args, message):
        with pytest.raises(ValueError, match=message):
            fn(*args)

    @given(
        p=st.integers(min_value=1, max_value=4),
        alpha=st.sampled_from([0.5, 1.0, 2.0, 3.5]),
        z=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_three_routes_agree_property(self, p, alpha, z):
        alt = double_sum_alternate(p, alpha, z)
        half = binary_corollary_closed(p, alpha, z)
        general = finite_zeta_diff_closed(2, p, alpha, z)
        assert rel_err(alt, general) < 1e-9
        assert rel_err(half, general) < 1e-9


class TestJRecurrence:
    """Odd-index recurrence of the partial harmonic-difference sums."""

    @staticmethod
    def report(N, x):
        (report,) = run_suite(GridSpec("j-recurrence", {"N": [N], "x": [x]})).reports
        return report

    def test_small_anchor(self):
        # N = 1, x = 0: both sides equal 1/1*2 + 1/2*3 + 2/3*4 = 5/6
        report = self.report(1, 0.0)
        assert report.passed
        assert rel_err(report.lhs, 5.0 / 6.0) < 1e-13
        assert rel_err(report.rhs, 5.0 / 6.0) < 1e-13

    @pytest.mark.parametrize(
        "N,x", [(3, 0.7), (7, 2.5), (15, 0.0), (12, 1.25), (1, 1000.0), (12, 1e5)]
    )
    def test_recurrence_holds(self, N, x):
        report = self.report(N, x)
        assert report.passed, (N, x, report.rel_err)

    def test_report_identity_fields(self):
        report = self.report(3, 0.7)
        assert report.identity_id == "j-recurrence"
        assert report.params == {"N": 3, "x": 0.7}
        assert report.abs_err == abs(report.lhs - report.rhs)

    def test_closed_form_pair_only_below_a_power_of_two(self):
        # N = 2^p - 1 adds J_N(x) against the closed half-shift form
        assert len(j_recurrence_check(3, 0.7)) == 2
        assert len(j_recurrence_check(12, 1.25)) == 1
        for bad in ((0, 1.0), (3, -0.5)):
            with pytest.raises(ValueError):
                j_recurrence_check(*bad)


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

    def test_slow_geometric_decay_matches_mpmath(self):
        # summed by parts, each level is a difference that shrinks like
        # b^-(a+1) once z/b^l < 1, so the ratio 2^-0.03 of the printed levels
        # does not set the level count
        want = zeta_diff_reference(2, 0.03, 1.0)
        assert rel_err(infinite_zeta_diff(2, 0.03, 1.0), want) < REL_TOL

    @pytest.mark.parametrize(
        "b, alpha, z",
        [(2, 1 + 1e-8, 0.0), (2, 1 + 1e-12, 0.0), (3, 1 + 1e-10, 0.5), (16, 1 + 1e-8, 0.0)],
    )
    def test_near_order_one_matches_mpmath(self, b, alpha, z):
        # the printed levels each carry the pole 1/(alpha - 1); the sum by parts
        # keeps it in the head, where 1 - b^(1-alpha) cancels it in closed form
        assert rel_err(infinite_zeta_diff(b, alpha, z), zeta_diff_reference(b, alpha, z)) < REL_TOL

    @pytest.mark.parametrize(
        "b, alpha, z", [(2, 0.5, 1e8), (3, 0.3, 1e12), (2, 0.5, 1e30), (2, 0.9, 1e100)]
    )
    def test_cancelling_levels_raise(self, b, alpha, z):
        # below order one the level terms grow like (z/b^l)^(1-a) and cancel:
        # kappa = sum |term| / |total| is 2.7e7 to 1.2e29 here, so kappa 2^-52
        # is above rel_tol and the float sum has lost the digits it promises
        with pytest.raises(TruncationBudgetError):
            infinite_zeta_diff(b, alpha, z)

    @pytest.mark.parametrize("b, alpha, z", [(2, 0.5, 3.0), (2, 0.7, 100.0), (3, 2.5, 1.0)])
    def test_matches_the_level_series_in_mpmath(self, b, alpha, z):
        # kappa is 6.4, 154 and 1.9 here, so rel_tol = 1e-12 is within reach
        assert rel_err(infinite_zeta_diff(b, alpha, z), zeta_diff_reference(b, alpha, z)) < 1e-12

    @pytest.mark.parametrize(
        "b, alpha", [(2, 0.3), (3, 0.3), (3, 0.5), (10, 0.3), (10, 0.5), (16, 0.3), (16, 0.5)]
    )
    def test_small_order_far_shift_raises(self, b, alpha):
        # a known loss: the head's factor 1/(1 - b^-a) puts kappa at 5.5e3 to 1.0e4
        # here, above the limit REL_TOL 2^52 = 4504, where the printed levels
        # (kappa 853 to 3.9e3) met REL_TOL; a fix turns this into an mpmath test
        with pytest.raises(TruncationBudgetError, match="the levels cancel"):
            infinite_zeta_diff(b, alpha, 1e4)

    def test_order_one_against_mpmath_and_nonpositive_raises(self):
        # alpha = 1 takes the head's limit log b; alpha = 1 +- 1e-12 takes the
        # Hurwitz zeta in the head, and both meet the 40-digit references
        points = json.loads(J_INFINITY_REFERENCE.read_text())["points"]
        for b, x, want in points:
            assert rel_err(infinite_zeta_diff(b, 1.0, x), float(want)) < 1e-13, (b, x)
            for alpha in (1 - 1e-12, 1 + 1e-12):
                assert rel_err(infinite_zeta_diff(b, alpha, x), float(want)) < 1e-11, (b, x)
        with pytest.raises(ValueError):
            infinite_zeta_diff(2, 0.0, 0.0)
        with pytest.raises(ValueError):
            infinite_zeta_diff(2, -0.5, 0.0)

    @pytest.mark.parametrize(
        "fn, args",
        [
            pytest.param(fn, args, id=fn.__name__)
            for fn, args in [
                (infinite_zeta_diff, (2, 2.0, math.inf)),
                (j_infinity, (2, math.inf)),
                (binary_corollary_closed, (3, 2.0, math.inf)),
                (double_sum_alternate, (3, 2.0, math.inf)),
                (j_recurrence_check, (3, math.inf)),
            ]
        ],
    )
    def test_infinite_shift_raises(self, fn, args):
        # an infinite shift would reach hurwitz_difference as inf - inf
        with pytest.raises(ValueError, match="must be >= 0 and finite"):
            fn(*args)


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

    def test_level_past_the_float_range_raises(self):
        # x / b^l stays above 1 until b^l leaves the float range
        with pytest.raises(TruncationBudgetError):
            j_infinity(2, 1e308)

    def test_perturbed_differences_stay_close(self, monkeypatch):
        # no level cancels a pole, so Hurwitz values and differences off by
        # 1e-12 move the value by about that much.  The sign alternates from
        # call to call, as rounding does: a difference of two zetas near
        # alpha = 1 would then carry 1e-12 of 1/(alpha - 1) = 1e10
        cases = [(infinite_zeta_diff, (2, 1 + 1e-10, 0.5)), (j_infinity, (3, 1.0))]
        want = [fn(*args) for fn, args in cases]
        for module, name in ((identities, "hurwitz_difference"), (specfun, "hurwitz_zeta")):
            real, flips = getattr(module, name), itertools.cycle((1.0 + 1e-12, 1.0 - 1e-12))
            perturbed = lambda *call, real=real, flips=flips: real(*call) * next(flips)
            monkeypatch.setattr(module, name, perturbed)
        for (fn, args), value in zip(cases, want):
            got = fn(*args)
            assert math.isfinite(got)
            assert rel_err(got, value) < 1e-10, (fn.__name__, args)

    def test_matches_mpmath_references(self):
        # 40-digit values from tests/golden/j_infinity_mpmath.json; rebuild them
        # with tests/build_j_infinity_reference.py
        points = json.loads(J_INFINITY_REFERENCE.read_text())["points"]
        assert len(points) == 40
        for b, x, want in points:
            assert rel_err(j_infinity(b, x), float(want)) < 1e-13, (b, x)

    @pytest.mark.parametrize("b, x", [(2, 1.0), (3, 0.5), (10, 40.0), (2, 1e-6)])
    def test_each_level_difference_once(self, monkeypatch, b, x):
        # level l >= 1 takes one difference at order 1 between the consecutive
        # boundaries 1 + x / b^l and 1 + x / b^(l-1), none repeated
        real, seen = identities.hurwitz_difference, []

        def counted(*call):
            seen.append(call)
            return real(*call)

        monkeypatch.setattr(identities, "hurwitz_difference", counted)
        j_infinity(b, x)
        v = [1.0 + x / float(b) ** l for l in range(len(seen) + 1)]
        assert seen == [(1.0, v[l], v[l - 1]) for l in range(1, len(v))]
        assert len(set(seen)) == len(seen) > 1


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

    @pytest.mark.parametrize("b, z", [(2, 1.0), (3, 0.3), (2, -0.6), (10, 500.0)])
    def test_each_level_log_gamma_once(self, monkeypatch, b, z):
        # one log Gamma per level boundary 1 + z / b^l, l = 0, 1, ..., none repeated
        real, seen = identities.log_gamma, []

        def counted(w):
            seen.append(w)
            return real(w)

        monkeypatch.setattr(identities, "log_gamma", counted)
        infinite_product(b, z)
        assert seen == [1.0 + z / float(b) ** l for l in range(len(seen))]
        assert len(set(seen)) == len(seen) > 1


class TestProductSpecialValues:
    """Ratios of the binary product at power-of-two arguments."""

    CASES = ["half-circle", "quarter-family", "lemniscatic", "eighth-family"]

    def test_all_cases_pass(self):
        reports = run_suite(GridSpec("pi-over-2", {"case": self.CASES})).reports
        assert len(reports) == 4
        for report, case in zip(reports, self.CASES):
            assert report.identity_id == "pi-over-2"
            assert report.params == {"case": case}
            assert report.passed, report.params

    @pytest.mark.parametrize("case", ["bogus", 3, ["half-circle"]])
    def test_unknown_case_raises(self, case):
        with pytest.raises(ValueError):
            product_special_values(case)

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

    @pytest.mark.parametrize("b, p", [(2, 1), (2, 4), (3, 3), (10, 3)])
    def test_each_level_bracket_once(self, monkeypatch, b, p):
        # a level below the switch sums its b^(p-l) Hurwitz values and makes no
        # Barnes call; a level above it takes two distinct Barnes values
        alpha, z, top = 3.0, 0.5, float(b**p)
        real_barnes, real_hurwitz = identities.barnes_zeta2, identities.hurwitz_zeta
        barnes, hurwitz = [], []

        def counted_barnes(*args):
            barnes.append(args)
            return real_barnes(*args)

        def counted_hurwitz(a, x):
            hurwitz.append(x)
            return real_hurwitz(a, x)

        monkeypatch.setattr(identities, "barnes_zeta2", counted_barnes)
        monkeypatch.setattr(identities, "hurwitz_zeta", counted_hurwitz)
        finite_barnes_closed(b, p, alpha, z)
        want_hurwitz, want_barnes = [], []
        for l in range(p + 1):
            step, count = float(b) ** l, b ** (p - l)
            if count < identities._BRACKET_TERMS:
                want_hurwitz += [z + k * step for k in range(1, count + 1)]
            else:
                want_barnes += [
                    (alpha, z + step, b**l),
                    (alpha, z + step + top, b**l),
                ]
        assert sorted(hurwitz) == sorted(want_hurwitz)
        assert barnes == want_barnes  # two distinct values per level above the switch
        assert bool(want_barnes) == (b**p >= identities._BRACKET_TERMS)

    @pytest.mark.parametrize(
        "b, p, alpha, z", [(10, 3, 2.5, 0.5), (10, 3, 4.0, 0.0), (16, 4, 3.0, 0.0)]
    )
    def test_both_routes_against_mpmath(self, b, p, alpha, z):
        # the low levels take the Barnes difference, the high ones the finite
        # sum; the bound is the evaluators' rel_tol, fixed before measuring
        with mp.workdps(30):
            x, a = mp.mpf(z), mp.mpf(alpha)
            want = mp.fsum(digit_sum(n, b) * (n + x) ** -a for n in range(1, b**p))
        got = finite_barnes_closed(b, p, alpha, z)
        assert abs(got - want) <= REL_TOL * abs(want), float(abs(got - want) / want)


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

    def test_matches_mpmath_references(self):
        # 40-digit values from tests/golden/digit_zeta_mpmath.json, the default
        # thm29-infinite grid and points off it; rebuild them with
        # tests/build_digit_zeta_reference.py
        points = [p for p in json.loads(DIGIT_ZETA_REFERENCE.read_text())["points"] if p[1] > 2]
        assert len(points) == 15
        for b, alpha, z, want in points:
            assert rel_err(infinite_barnes(b, alpha, z), float(want)) < 2e-13, (b, alpha, z)

    @pytest.mark.parametrize("z", [0.0, 0.5, 1e4, 1e15])
    @pytest.mark.parametrize("alpha", [2 + 1e-6, 2.01, 2.5, 4.0, 7.0])
    @pytest.mark.parametrize("b", [2, 3, 10, 16])
    def test_closed_tail_is_the_sum_of_its_levels(self, b, alpha, z):
        # the levels from the first h >= 32 max(z, 1) on, one barnes_zeta2 each,
        # until h^(alpha + EM_ORDER + 1) leaves the float range.  Each level is
        # (1-b) sum_{m>=1} zeta(alpha, z + h m) over positive, decreasing values,
        # and the next keeps every b-th of them: the levels past the last one
        # taken add at most |t| / (b-1) to the sum
        L = next(l for l in itertools.count(1) if b**l >= 32 * max(z, 1))
        levels = []
        for l in itertools.count(L):
            try:
                levels.append((1 - b) * barnes_zeta2(alpha, z + float(b) ** l, b**l))
            except TruncationBudgetError:
                break
        tail = identities._closed_tail(b, alpha, z, L)[0]
        rest = abs(levels[-1]) / (b - 1)
        gap = abs(tail - math.fsum(levels))
        assert gap <= REL_TOL * sum(map(abs, levels)) + rest, (tail, levels)

    def test_a_tail_over_budget_raises(self, monkeypatch):
        # no measured point misses it: the first tail's bound is far inside
        # the budget.  Made to miss, the sum raises after one tail, from L = 5
        real, starts = identities._closed_tail, []

        def misses(b, alpha, z, L):
            starts.append(L)
            return real(b, alpha, z, L)[:2] + (math.inf,)

        monkeypatch.setattr(identities, "_closed_tail", misses)
        message = "infinite_barnes: the tail from level 5 misses its budget"
        with pytest.raises(TruncationBudgetError, match=message) as info:
            infinite_barnes(2, 2.5, 0.5)
        assert info.value.terms_used == 5
        assert starts == [5]

    def test_past_the_float_range_raises(self):
        # at z = 1e300 the sums are below the float range (about 3e-448 at
        # b = 2, alpha = 2.5) and zeta(alpha, z + 1) in level 0 underflows, so
        # no value is right: the levels before the closed tail reach an h
        # whose barnes_zeta2 raises.  At (1000, 5000, 0.5) the sum is about
        # 1.5^-5000 = 1e-880, and every level is the tail
        for b, alpha, z in ((2, 2.5, 1e300), (16, 5.0, 1e300), (1000, 5000.0, 0.5)):
            with pytest.raises(TruncationBudgetError):
                infinite_barnes(b, alpha, z)

    @pytest.mark.parametrize(
        "b, alpha, z",
        [
            (2, 2.5, 1e15), (2, 2.5, 1e10),
            (2, 2 + 1e-6, 0.5), (3, 2 + 1e-6, 0.0), (2, 2 + 1e-8, 0.5),
        ],
    )
    def test_cancelling_levels_raise(self, b, alpha, z):
        # far shifts leave a sum far below its head, and alpha -> 2+ levels
        # carry the pole 1/(alpha - 2) that their sum cancels
        with pytest.raises(TruncationBudgetError, match="infinite_barnes: the levels cancel"):
            infinite_barnes(b, alpha, z)


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

    def test_matches_mpmath_references(self):
        # 40-digit values from tests/golden/digit_zeta_mpmath.json: the default
        # cor30 grid and points off it, at the bound of the alpha > 2 points.
        # One point misses it and is held to REL_TOL: at z = 1e3 level 0 is
        # -7.9 against a sum of 0.0056, and digamma(1001), 1.5e-15 off psi,
        # puts it 2.7e-13 off
        known_misses = {(2, 1000.0): REL_TOL}
        points = [p for p in json.loads(DIGIT_ZETA_REFERENCE.read_text())["points"] if p[1] == 2]
        assert len(points) == 10
        for b, _, z, want in points:
            bound = known_misses.get((b, z), 2e-13)
            assert rel_err(digit_zeta_2(b, z), float(want)) < bound, (b, z)

    def test_base_level_against_mpmath(self, monkeypatch):
        # with every level l >= 1 zeroed, the explicit ones and the closed tail,
        # what is left is level 0, FP(z+1; 1, 1) = -psi(z+1) - z psi'(z+1)
        monkeypatch.setattr(identities, "barnes_zeta2", lambda alpha, x, h: 0.0)
        monkeypatch.setattr(identities, "_closed_tail", lambda *args: (0.0, 0.0, 0.0))
        for z in (0.01, 0.25, 1.0, 5.0):
            want = -mp.digamma(z + 1) - z * mp.psi(1, z + 1)
            assert rel_err(digit_zeta_2(2, z), float(want)) < 1e-13, z

    def test_wrong_closed_form_fails_cor30(self, monkeypatch):
        monkeypatch.setattr(harness, "digit_zeta_2", lambda b, z: 1e6)
        run = run_suite(GridSpec("cor30", {}))
        assert run.summary == {"pass": 0, "fail": 6}

    def test_finite_parts_off_by_1e_4_fail_cor30(self, monkeypatch):
        # every level l >= 1 is a finite part barnes_zeta2(2.0, ...); scaled by
        # 1 + 1e-4 they move each default point past its oracle bracket
        real = identities.barnes_zeta2
        monkeypatch.setattr(
            identities, "barnes_zeta2", lambda alpha, x, h: real(alpha, x, h) * (1 + 1e-4)
        )
        run = run_suite(GridSpec("cor30", {}))
        assert run.summary == {"pass": 0, "fail": 6}

    def test_level_past_float_range_raises(self):
        # at z = 1e15 the levels run to h = 2^54 before the closed tail, and
        # the sum, 2.4e-14, is left by a level 0 of -35: a named error, not an
        # OverflowError and not a value
        with pytest.raises(TruncationBudgetError, match="digit_zeta_2: the levels cancel"):
            digit_zeta_2(2, 1e15)

    def test_shift_past_every_level_raises_at_once(self):
        # 32 z is inf: no level b^L reaches it, and the search stops at the level cap
        start = time.perf_counter()
        with pytest.raises(TruncationBudgetError, match="digit_zeta_2: no convergence by level"):
            digit_zeta_2(2, 1.7e308)
        assert time.perf_counter() - start < 1.0

    def test_cancelling_levels_raise(self):
        # the levels at z = 1e4 are 2.8e4 times their sum: digit_zeta_2 was off by 1.06e-12
        with pytest.raises(TruncationBudgetError, match="digit_zeta_2: the levels cancel"):
            digit_zeta_2(2, 1e4)

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

        def recording(lim, base, fill, shift):
            partials.append(digit_weighted_sum(lim, base, fill, shift))
            return partials[-1]

        monkeypatch.setattr(identities, "digit_weighted_sum", recording)
        got = [oracle(*args) for oracle, args, _ in cases]
        # with a zero partial sum each oracle returns its tail model alone
        monkeypatch.setattr(identities, "digit_weighted_sum", lambda lim, base, fill, shift: 0.0)
        for (oracle, args, terms), value, partial in zip(cases, got, partials):
            tail_mid, tail_half = oracle(*args)
            assert value == (partial + tail_mid, tail_half), oracle.__name__
            # blocked summation order: float64 bound fixed by the block count
            exact = math.fsum(terms.tolist())
            assert abs(partial - exact) <= blocked_sum_bound(terms, limit, b), oracle.__name__
