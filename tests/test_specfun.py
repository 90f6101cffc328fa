"""Special-function layer: anchors, independent oracles, and identities.

Closed-form anchors are classical constants; everything else is checked
against mpmath at 30 digits or against direct/accelerated summation
oracles that share no code with the implementations under test.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsum import specfun
from digitsum.altsum import _CUMULANT_BUDGET
from digitsum.specfun import (
    ABS_FLOOR,
    BERNOULLI_LIMIT,
    EM_ORDER,
    MAX_TERMS,
    REL_TOL,
    SHIFT_THRESHOLD,
    TAIL_SAFETY,
    TruncationBudgetError,
    _level_cap,
    _level_series,
    alternating_hurwitz,
    barnes_zeta2,
    bernoulli_even,
    digamma,
    dirichlet_eta,
    elliptic_K,
    hurwitz_difference,
    hurwitz_zeta,
    log_gamma,
    stirling_beta,
)

mp.mp.dps = 30

BARNES_REFERENCE = Path(__file__).resolve().parent / "golden" / "barnes_zeta2_mpmath.json"
LEVEL_REFERENCE = Path(__file__).resolve().parent / "golden" / "barnes_level_mpmath.json"

EULER_GAMMA = 0.57721566490153286


def averaged_alternating(terms: np.ndarray, passes: int = 30) -> float:
    """Accelerate an alternating series by repeated pairwise averaging."""
    partial = np.cumsum(terms)
    for _ in range(passes):
        partial = 0.5 * (partial[:-1] + partial[1:])
    return float(partial[-1])


class TestPrecisionContext:
    """The one precision policy every evaluator works under: module constants."""

    def test_defaults(self):
        assert (REL_TOL, MAX_TERMS, TAIL_SAFETY) == (1e-12, 10**7, 10.0)
        # the expansion order, switch point and floor are fixed as well
        assert (EM_ORDER, SHIFT_THRESHOLD, ABS_FLOOR) == (8, 16.0, 1e-300)


class TestLevelSeries:
    """The one level-series loop behind the infinite closed forms."""

    @pytest.mark.parametrize("b", [2, 3, 10, 16, 1000, 2**40 + 1])
    def test_cap_is_the_last_level_with_a_finite_next_power(self, b):
        cap = _level_cap(b)
        assert math.isfinite(float(b) ** (cap + 1))
        with pytest.raises(OverflowError):
            float(b) ** (cap + 2)

    @staticmethod
    def constant(b):
        # a term that never decays; its tail forms b^(l+1) as the callers do
        levels = []

        def term(l):
            levels.append(l)
            return 1.0

        with pytest.raises(TruncationBudgetError) as info:
            _level_series("constant", b, term, lambda l, t: float(b) ** (l + 1), 0, 0.0)
        return levels, info.value

    @pytest.mark.parametrize("b", [2, 3, 10])
    def test_constant_term_raises_at_the_float_cap(self, b):
        levels, err = self.constant(b)
        assert levels == list(range(_level_cap(b) + 1))
        assert err.terms_used == len(levels)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_term_raises(self, bad):
        levels = []

        def term(l):
            levels.append(l)
            return bad if l == 3 else 0.5**l

        with pytest.raises(TruncationBudgetError, match="not finite"):
            _level_series("broken", 2, term, lambda l, t: abs(t), 0, 1.0)
        assert levels == [0, 1, 2, 3]

    @pytest.mark.parametrize("scale", [None, 1.0])
    def test_cancelling_levels_raise(self, scale):
        # start + level = start - (start - 1) = 1: with the start 3000 counted,
        # the magnitude 6000 rounds by 6000 2^-52 = 1.3e-12, past REL_TOL of the
        # total or of the scale 1; 2000 rounds by 4.4e-13, within it
        for start, cancels in ((3000.0, True), (1000.0, False)):
            args = ("cancel", 2, lambda l: 1.0 - start, lambda l, t: 0.0, 0, start, scale)
            if cancels:
                with pytest.raises(TruncationBudgetError, match="cancel: the levels cancel"):
                    _level_series(*args)
            else:
                assert _level_series(*args) == 1.0

    @pytest.mark.parametrize(
        "constants, scale",
        [
            ((TAIL_SAFETY, REL_TOL), None),
            ((1.0, REL_TOL), None),
            ((4.0, 1e-6), None),
            ((TAIL_SAFETY, REL_TOL), 1e6),
        ],
    )
    def test_geometric_series_stops_at_the_first_level_the_rule_allows(
        self, monkeypatch, constants, scale
    ):
        # sum 2^-l with its exact tail 2^-l: every partial sum is exact, so the
        # stop level follows from the rule in rational arithmetic
        safety, tol = constants
        monkeypatch.setattr(specfun, "TAIL_SAFETY", safety)
        monkeypatch.setattr(specfun, "REL_TOL", tol)
        levels = []

        def term(l):
            levels.append(l)
            return 0.5**l

        got = _level_series("geometric", 2, term, lambda l, t: t, 0, 0.0, scale)
        want = 0
        while True:
            tail = Fraction(1, 2**want)
            size = 2 - tail if scale is None else Fraction(scale)
            if Fraction(safety) * tail <= Fraction(tol) * size:
                break
            want += 1
        assert levels == list(range(want + 1))
        assert got == 2.0 - 0.5**want


class TestTermBudget:
    """At a tolerance no double meets, each Euler-Maclaurin loop that can
    grow raises once its recurrence would pass MAX_TERMS steps, instead of
    running on.  log_gamma takes one pass (TestLogGammaAndBeta)."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: digamma(0.5),
            lambda: barnes_zeta2(2.0, 0.5, 2),
            lambda: hurwitz_zeta(2.0, 0.5),
            lambda: barnes_zeta2(3.0, 0.5, 32),
            lambda: hurwitz_difference(1.0, 0.5, 1.5),
        ],
        ids=[
            "digamma", "barnes_zeta2-finite-part", "hurwitz_zeta", "barnes_zeta2",
            "hurwitz_difference",
        ],
    )
    def test_unreachable_tolerance_raises(self, monkeypatch, call):
        monkeypatch.setattr(specfun, "REL_TOL", 1e-300)
        monkeypatch.setattr(specfun, "MAX_TERMS", 10**4)
        with pytest.raises(TruncationBudgetError):
            call()

    @pytest.mark.parametrize(
        "call, steps",
        [
            (lambda: digamma(100.0), int(specfun.DIFFERENCE_SHIFT) - 1),
            (lambda: hurwitz_zeta(2.0, 1.0), int(specfun.SHIFT_THRESHOLD) - 1),
        ],
        ids=["digamma", "hurwitz_zeta"],
    )
    def test_budget_counts_recurrence_steps_only(self, monkeypatch, call, steps):
        # digamma is hurwitz_difference(1, 1, z) - gamma, whose direct steps run
        # from a = 1 to DIFFERENCE_SHIFT = 24 at every z >= 1: 23 steps of budget
        # give the default value, 22 raise.  hurwitz_zeta(2, 1) steps from 1 to
        # SHIFT_THRESHOLD = 16 and stops there: 15 give its value, 14 raise
        want = call()
        monkeypatch.setattr(specfun, "MAX_TERMS", steps)
        assert call() == want
        monkeypatch.setattr(specfun, "MAX_TERMS", steps - 1)
        with pytest.raises(TruncationBudgetError):
            call()


class TestDigamma:
    def test_at_one(self):
        np.testing.assert_allclose(digamma(1.0), -EULER_GAMMA, rtol=1e-13)

    def test_at_half(self):
        np.testing.assert_allclose(
            digamma(0.5), -EULER_GAMMA - 2 * math.log(2), rtol=1e-13
        )

    def test_series_oracle(self):
        """psi(z) = -gamma + sum_k (1/(k+1) - 1/(z+k)), tail-corrected."""
        z = 10.75
        terms = 2 * 10**6
        k = np.arange(terms, dtype=np.float64)
        partial = float(np.sum(1.0 / (k + 1.0) - 1.0 / (z + k)))
        # remaining terms are (z-1)/((k+1)(z+k)); integral bracket on the tail
        tail = (z - 1.0) / terms
        oracle = -EULER_GAMMA + partial + tail
        np.testing.assert_allclose(digamma(z), oracle, rtol=1e-6)

    def test_against_mpmath_grid(self):
        # 40-digit references from the exact doubles, out to v = 1e15, where a
        # difference of two psi values would lose log10(v) digits
        grid = [0.05, 0.31, 1.0, 2.5, 7.3, 15.99, 16.0, 42.7, 300.0]
        grid += [float(v) for v in np.geomspace(0.5, 1e15, 64)]
        with mp.workdps(40):
            for z in grid:
                want = mp.digamma(mp.mpf(z))
                assert abs(digamma(z) - want) <= 2e-15 * max(abs(want), 1), z

    def test_one_hurwitz_difference_per_call(self, monkeypatch):
        # psi and beta are each one order-1 difference, not two psi values
        calls = []
        real = specfun.hurwitz_difference
        monkeypatch.setattr(
            specfun, "hurwitz_difference", lambda *args: calls.append(args) or real(*args)
        )
        for fn, x in [(digamma, 2.5), (stirling_beta, 0.5), (stirling_beta, 1e4)]:
            calls.clear()
            fn(x)
            assert len(calls) == 1, (fn.__name__, x)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            digamma(0.0)
        with pytest.raises(ValueError):
            digamma(-2.5)

    @given(st.floats(min_value=0.01, max_value=60.0))
    @settings(max_examples=60)
    def test_ladder(self, z):
        """psi(z+1) - psi(z) == 1/z."""
        np.testing.assert_allclose(digamma(z + 1.0) - digamma(z), 1.0 / z, rtol=1e-11)

    def test_multiplication_formula(self):
        """psi(b z) = (1/b) sum_k psi(z + k/b) + log b."""
        for b in (2, 3, 5):
            for z in (0.3, 1.0, 7.0):
                rhs = sum(digamma(z + k / b) for k in range(b)) / b + math.log(b)
                np.testing.assert_allclose(digamma(b * z), rhs, rtol=1e-11)


class TestHurwitzZeta:
    def test_basel(self):
        np.testing.assert_allclose(hurwitz_zeta(2.0, 1.0), math.pi**2 / 6, rtol=1e-13)

    def test_shift_by_one_term(self):
        np.testing.assert_allclose(
            hurwitz_zeta(2.0, 2.0), math.pi**2 / 6 - 1.0, rtol=1e-13
        )

    def test_continued_value_at_half(self, monkeypatch):
        """zeta(1/2): same algorithm at a thousandfold tighter tolerance agrees."""
        value = hurwitz_zeta(0.5, 1.0)
        monkeypatch.setattr(specfun, "REL_TOL", 1e-15)
        np.testing.assert_allclose(value, hurwitz_zeta(0.5, 1.0), rtol=1e-12)
        np.testing.assert_allclose(value, float(mp.zeta(mp.mpf("0.5"))), rtol=1e-12)

    def test_against_mpmath_grid(self):
        for alpha in (0.25, 0.5, 0.75, 1.5, 2.5, 3.5, 6.0, 11.0):
            for z in (0.07, 0.5, 1.0, 3.75, 16.0, 90.0):
                want = float(mp.zeta(alpha, z))
                np.testing.assert_allclose(hurwitz_zeta(alpha, z), want, rtol=1e-12)

    def test_rejects_pole_and_bad_domain(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(1.0, 2.0)
        with pytest.raises(ValueError):
            hurwitz_zeta(-0.5, 2.0)
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, 0.0)

    def test_multiplication_formula(self):
        """b^a zeta(a,z) - (b/z)^a == sum_{k=1..b} zeta(a,(z+k)/b)."""
        for b in (2, 3, 5):
            for alpha in (0.5, 2.0, 3.5):
                for z in (0.3, 1.0, 7.0):
                    lhs = b**alpha * hurwitz_zeta(alpha, z) - (b / z) ** alpha
                    rhs = sum(hurwitz_zeta(alpha, (z + k) / b) for k in range(1, b + 1))
                    np.testing.assert_allclose(lhs, rhs, rtol=1e-11)

    @given(
        st.sampled_from([0.5, 2.0, 2.5, 3.5]),
        st.floats(min_value=0.05, max_value=50.0),
    )
    @settings(max_examples=40)
    def test_shift_identity(self, alpha, z):
        """zeta(a, z) - z^(-a) == zeta(a, z+1)."""
        lhs = hurwitz_zeta(alpha, z) - z ** (-alpha)
        np.testing.assert_allclose(lhs, hurwitz_zeta(alpha, z + 1.0), rtol=1e-10, atol=1e-13)


def difference_reference(alpha: float, a: float, c: float) -> float:
    """zeta(alpha, a) - zeta(alpha, c) in mpmath at 40 digits on the given doubles,
    psi(c) - psi(a) at alpha = 1."""
    with mp.workdps(40):
        s, a, c = mp.mpf(alpha), mp.mpf(a), mp.mpf(c)
        if alpha == 1:
            return float(mp.digamma(c) - mp.digamma(a))
        return float(mp.zeta(s, a) - mp.zeta(s, c))


class TestHurwitzDifference:
    def test_generic_order_against_mpmath(self):
        for alpha in (0.5, 2.5):
            for a, c in ((0.3, 2.5), (4.0, 1.25)):
                want = difference_reference(alpha, a, c)
                assert abs(hurwitz_difference(alpha, a, c) - want) <= 1e-13 * abs(want)

    def test_near_order_one_against_mpmath(self):
        # the two zetas each carry the pole 1/(alpha-1); the pairs never form it,
        # so the difference keeps its digits at every alpha, large shifts included
        for alpha in (1 - 1e-4, 1 - 1e-8, 1.0, 1 + 1e-12, 1 + 1e-9, 1 + 1e-6, 1 + 1e-4):
            for a in (0.5, 3.7, 1e6):
                for d in (-0.25, 1e-3, 1.0, 1e3):
                    c = a + d
                    want = difference_reference(alpha, a, c)
                    got = hurwitz_difference(alpha, a, c)
                    assert abs(got - want) <= 1e-13 * abs(want), (alpha, a, c)

    def test_order_one_against_mpmath(self):
        # the poles of the two zetas cancel: zeta(s, a) - zeta(s, c) -> psi(c) - psi(a)
        for a, c in ((0.3, 2.5), (1.0, 1.5), (7.0, 0.05), (1e-3, 40.0)):
            want = float(mp.digamma(c) - mp.digamma(a))
            np.testing.assert_allclose(hurwitz_difference(1.0, a, c), want, rtol=1e-12)

    @pytest.mark.parametrize("eps", [1e-6, -1e-6])
    def test_order_one_is_the_limit(self, eps):
        at_one = hurwitz_difference(1.0, 0.75, 3.0)
        np.testing.assert_allclose(hurwitz_difference(1.0 + eps, 0.75, 3.0), at_one, rtol=1e-5)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1 + 1e-9, 2.0, 4.0])
    def test_far_arguments_against_mpmath(self, alpha):
        # the pairs start from the smaller argument, so c + n is never formed
        # as a + d, which would keep only the digits of the larger argument
        for a, c in ((40.0, 1e-3), (1e6, 1e-3), (1e300, 1e-3), (1e6, 0.7)):
            for x, y in ((a, c), (c, a)):
                want = difference_reference(alpha, x, y)
                assert abs(hurwitz_difference(alpha, x, y) - want) <= 1e-13 * abs(want), (x, y)

    @pytest.mark.parametrize(
        "alpha, a, c", [(2.0, 1.0, math.inf), (2.0, math.inf, math.inf), (math.inf, 1.0, 2.0)]
    )
    def test_rejects_non_finite_arguments(self, alpha, a, c):
        # inf - inf would make every step nan, and the stop rule would never hold
        with pytest.raises(ValueError, match="finite"):
            hurwitz_difference(alpha, a, c)

    @pytest.mark.parametrize("alpha, unused", [(1.0, "hurwitz_zeta"), (2.5, "digamma")])
    def test_one_function_per_order(self, monkeypatch, alpha, unused):
        # the one pass calls neither digamma nor hurwitz_zeta, at alpha = 1 or not
        def forbidden(*args):
            raise AssertionError(f"{unused} called at alpha = {alpha}")

        monkeypatch.setattr(specfun, unused, forbidden)
        assert math.isfinite(hurwitz_difference(alpha, 0.5, 2.0))

    @pytest.mark.parametrize(
        "alpha, a, c", [(1.0, 0.0, 1.0), (1.0, 1.0, -2.0), (2.0, 0.0, 1.0), (-0.5, 1.0, 2.0)]
    )
    def test_inherits_the_domain_checks(self, alpha, a, c):
        with pytest.raises(ValueError):
            hurwitz_difference(alpha, a, c)


class TestFloatRange:
    """A direct sum whose first term w^-alpha is past the float range."""

    @pytest.mark.parametrize(
        "fn, args",
        [
            (hurwitz_zeta, (2.0, 1e-200)),
            (hurwitz_difference, (2.0, 1e-200, 1.0)),
            (digamma, (1e-310,)),
            (stirling_beta, (1e-310,)),
        ],
    )
    def test_is_a_named_value_error(self, fn, args):
        # not a bare OverflowError from the power
        with pytest.raises(ValueError, match="past the float range"):
            fn(*args)

    def test_digamma_inside_the_range_answers(self):
        # psi(z) ~ -1/z, and 1/1e-300 still fits
        assert digamma(1e-300) == -9.999999999999999e299


class TestRiemannZetaAndEta:
    def test_eta_at_one(self):
        assert dirichlet_eta(1.0) == math.log(2.0)

    @pytest.mark.parametrize(
        "alpha", [1 + 1e-8, 1 + 1e-10, 1 + 1e-12, 1 - 1e-9, 0.5, 1.5, 2.0, 3.0]
    )
    def test_eta_against_mpmath(self, alpha):
        # 1 - 2^(1-alpha) cancels near alpha = 1 unless it is formed by expm1
        with mp.workdps(40):
            want = float(mp.altzeta(mp.mpf(alpha)))
        assert abs(dirichlet_eta(alpha) - want) <= 1e-14 * want

    def test_eta_at_two(self):
        np.testing.assert_allclose(dirichlet_eta(2.0), math.pi**2 / 12, rtol=1e-13)

    def test_zeta_three(self):
        """Direct-sum oracle with integral tail bracket."""
        n = np.arange(1, 200001, dtype=np.float64)
        partial = float(np.sum(n**-3.0))
        tail_low = 0.5 * 200001.0**-2  # integral from 200001
        tail_high = tail_low + 200001.0**-3
        got = hurwitz_zeta(3.0, 1.0)
        assert partial + tail_low - 1e-12 <= got <= partial + tail_high + 1e-12

    def test_zeta_rejects_pole(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(1.0, 1.0)

    def test_eta_zeta_relation(self):
        for alpha in (0.5, 1.5, 3.0):
            np.testing.assert_allclose(
                dirichlet_eta(alpha),
                (1 - 2.0 ** (1 - alpha)) * hurwitz_zeta(alpha, 1.0),
                rtol=1e-13,
            )


class TestStirlingBeta:
    def test_at_one(self):
        np.testing.assert_allclose(stirling_beta(1.0), math.log(2.0), rtol=1e-13)

    def test_at_two(self):
        np.testing.assert_allclose(stirling_beta(2.0), 1.0 - math.log(2.0), rtol=1e-13)

    def test_alternating_series_oracle(self):
        """beta(x) == sum_{k>=0} (-1)^k/(x+k), accelerated."""
        x = 0.5
        k = np.arange(4000, dtype=np.float64)
        oracle = averaged_alternating((-1.0) ** k / (x + k))
        np.testing.assert_allclose(stirling_beta(x), oracle, rtol=1e-12)

    @pytest.mark.parametrize("x", [1e3, 1e4, 1e5, 1e6])
    def test_large_argument_against_mpmath(self, x):
        # beta(x) ~ 1/(2x): two psi values of size log x would lose log10(x) digits
        with mp.workdps(40):
            X = mp.mpf(x)
            want = (mp.digamma((X + 1) / 2) - mp.digamma(X / 2)) / 2
            assert abs(stirling_beta(x) - want) <= 1e-14 * want


class TestAlternatingHurwitz:
    def test_shifted_eta_anchor(self):
        np.testing.assert_allclose(
            alternating_hurwitz(2.0, 1.0), math.pi**2 / 12 - 1.0, rtol=1e-13
        )

    def test_direct_sum_oracle(self):
        n = np.arange(1, 10**6 + 1, dtype=np.float64)
        direct = float(np.sum((-1.0) ** n / (2.0 + n) ** 3))
        np.testing.assert_allclose(alternating_hurwitz(3.0, 2.0), direct, rtol=1e-9)

    def test_rejects_infinite_shift(self):
        with pytest.raises(ValueError, match="finite"):
            alternating_hurwitz(2.0, math.inf)
        with pytest.raises(ValueError, match="w >= 0"):
            alternating_hurwitz(2.0, -0.5)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_zero_shift_is_minus_eta(self, alpha):
        with mp.workdps(40):
            want = -mp.altzeta(mp.mpf(alpha))
            assert abs(alternating_hurwitz(alpha, 0.0) - want) <= 2e-15 * abs(want)

    def test_accelerated_oracle_slow_decay(self):
        w = 1.0
        n = np.arange(1, 6001, dtype=np.float64)
        oracle = averaged_alternating((-1.0) ** n / (w + n) ** 0.5)
        np.testing.assert_allclose(alternating_hurwitz(0.5, w), oracle, rtol=1e-12)

    @given(
        st.sampled_from([0.5, 2.0, 3.0]),
        st.floats(min_value=0.1, max_value=20.0),
    )
    @settings(max_examples=30)
    def test_recurrence_in_w(self, alpha, w):
        """S(a, w) == -1/(w+1)^a - S(a, w+1), term re-indexing."""
        lhs = alternating_hurwitz(alpha, w)
        rhs = -((w + 1.0) ** -alpha) - alternating_hurwitz(alpha, w + 1.0)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-13)


class TestLogGammaAndBeta:
    def test_log_gamma_anchors(self):
        assert abs(log_gamma(1.0)) < 1e-13
        np.testing.assert_allclose(log_gamma(0.5), 0.5 * math.log(math.pi), rtol=1e-13)

    def test_against_mpmath(self):
        for z in (0.03, 0.4, 1.0, 5.5, 16.0, 123.4):
            np.testing.assert_allclose(
                log_gamma(z), float(mp.loggamma(z)), rtol=1e-12, atol=1e-13
            )

    def test_gamma_recurrence(self):
        for z in (0.25, 1.7):
            np.testing.assert_allclose(
                log_gamma(z + 1.0), log_gamma(z) + math.log(z), rtol=1e-12
            )

    def test_one_pass_meets_the_stop_rule(self):
        # log_gamma stops after one pass: at w >= SHIFT_THRESHOLD the first
        # omitted Stirling term, |B_(EM_ORDER+2)| / ((EM_ORDER+2)(EM_ORDER+1)
        # w^(EM_ORDER+1)), times TAIL_SAFETY is within REL_TOL, the least
        # that REL_TOL * max(|value|, 1) can be
        n = EM_ORDER + 2
        omitted = abs(bernoulli_even(n)) / (
            n * (n - 1) * Fraction(SHIFT_THRESHOLD) ** (n - 1)
        )
        assert Fraction(TAIL_SAFETY) * omitted <= Fraction(REL_TOL)

    @pytest.mark.parametrize("z", [math.inf, math.nan, -math.inf, 0.0])
    def test_rejects_non_finite_and_non_positive(self, z):
        with pytest.raises(ValueError):
            log_gamma(z)


# fixed before measuring: the truncation the stop rule admits
# (rel_tol / tail_safety), and as much again for rounding
LEVEL_BOUND = 2 * REL_TOL / TAIL_SAFETY


class TestBarnesZeta2:
    def test_rank_one_reduction(self):
        """zeta_2(a, z+1; 1, 1) == -z zeta(a, z+1) + zeta(a-1, z+1)."""
        for alpha, z in [(3.0, 0.7), (2.5, 0.7), (4.5, 2.3)]:
            got = barnes_zeta2(alpha, z + 1.0, 1)
            want = -z * hurwitz_zeta(alpha, z + 1.0) + hurwitz_zeta(alpha - 1.0, z + 1.0)
            np.testing.assert_allclose(got, want, rtol=1e-11)

    def test_basel_specialization(self):
        got = barnes_zeta2(3.0, 1.0, 1)
        np.testing.assert_allclose(got, math.pi**2 / 6, rtol=1e-11)

    def test_bracketing_row_oracle(self):
        """Row sums via mpmath zeta plus an integral bracket pin the value.

        The rows f(m) = zeta(alpha, x + h m) are convex and decreasing in m, so
        the rows from R on lie between the trapezoid bound int_R f + f(R)/2
        and the midpoint bound int_(R-1/2) f, where int_c f is
        zeta(alpha-1, x + h c) / (h (alpha-1)).  No multiplication formula
        is involved.
        """
        cases = [(2.5, 2.0, 4)] + [
            (alpha, 0.5 + h, h) for alpha, h in [(2.5, 2), (3.5, 3), (2.5, 16), (3.5, 27), (4.0, 31)]
        ]
        rows = 400
        for alpha, x, h in cases:
            a = mp.mpf(alpha)
            partial = mp.fsum(mp.zeta(a, x + h * m) for m in range(rows))

            def integral(c):
                return mp.zeta(a - 1, x + h * c) / (h * (a - 1))

            lower = float(partial + integral(rows) + mp.zeta(a, x + h * rows) / 2)
            upper = float(partial + integral(rows - mp.mpf(0.5)))
            got = barnes_zeta2(alpha, x, h)
            assert lower * (1 - 1e-12) <= got <= upper * (1 + 1e-12), (alpha, x, h)

    def test_finite_double_loop_lower_bound(self):
        m1 = np.arange(2000, dtype=np.float64)[:, None]
        m2 = np.arange(2000, dtype=np.float64)[None, :]
        partial = float(np.sum((2.0 + 1.0 * m1 + 4.0 * m2) ** -2.5))
        got = barnes_zeta2(2.5, 2.0, 4)
        assert got > partial

    def test_rejects_low_alpha(self):
        # alpha = 2 is the finite part; below it, and NaN, there is no value
        for alpha in (1.9, math.nan):
            with pytest.raises(ValueError):
                barnes_zeta2(alpha, 1.0, 1)

    def test_power_past_float_range_raises(self):
        # h^(alpha + EM_ORDER + 1) = 2^1100 is no double: a named error, not
        # an OverflowError
        h = 2**100
        assert h ** (2.0 + EM_ORDER) < math.inf
        with pytest.raises(TruncationBudgetError, match=re.escape(f"h = {float(h):.17g}")):
            barnes_zeta2(2.0, 1.0 + h, h)

    def test_matches_mpmath_references(self):
        # 40-digit values from tests/golden/barnes_zeta2_mpmath.json; rebuild
        # them with tests/build_barnes_reference.py.  The bounds were fixed
        # before measuring: LEVEL_BOUND, and REL_TOL for the finite part at
        # h = 1, whose value changes sign between x = 1 and x = 1.25
        points = json.loads(BARNES_REFERENCE.read_text())["points"]
        assert len(points) == 200
        for alpha, x, h, want in points:
            want = float(want)
            bound = REL_TOL if alpha == 2 and h == 1 else LEVEL_BOUND
            got = barnes_zeta2(alpha, x, h)
            assert abs(got - want) <= bound * abs(want), (alpha, x, h, abs(got - want) / abs(want))


# zeta_2(alpha, x; 1, h) for TestBarnesDirection, keyed by (alpha, x, h): the
# multiplication formula at 40 digits from the exact doubles, with no
# Euler-Maclaurin summation; rebuild with tests/build_barnes_reference.py
_LEVEL_VALUES = {
    (alpha, x, h): float(want)
    for alpha, x, h, want in json.loads(LEVEL_REFERENCE.read_text())["points"]
}


# the full alpha x z grid at h from 8 to 64; every h up to 33 at alpha = 2.01
# (zeta(alpha - 1, v) near its pole) and at 7 (from h = 16 on, M = 0 does not
# converge there and the loop doubles to M = 1); one point per alpha and per z
# above 64, where each reference costs 2h zetas
_LEVEL_CASES = (
    [
        (h, alpha, z)
        for h in (8, 16, 27, 31, 32, 33, 64)
        for alpha in (2.5, 3.5, 4.0)
        for z in (0.0, 0.5, 1.0)
    ]
    + [(h, alpha, 0.5) for h in range(1, 34) for alpha in (2.01, 7.0)]
    + [(243, 2.5, 0.5), (243, 4.0, 0.0), (729, 3.5, 1.0)]
)


class TestBarnesDirection:
    """Level terms zeta_2(alpha, z + h; 1, h) against the multiplication
    formula, and the strip and tail of the Euler-Maclaurin loop along h."""

    def test_references_hold_exactly_the_points_checked(self):
        checked = {(alpha, z + h, h) for h, alpha, z in _LEVEL_CASES}
        checked |= {(2.5, 0.1, 100), (4.0, 0.1, 100), (3.0, SHIFT_THRESHOLD, 32)}
        assert len(_LEVEL_VALUES) == len(checked) == 135
        assert set(_LEVEL_VALUES) == checked

    @pytest.mark.parametrize("h, alpha, z", _LEVEL_CASES)
    def test_level_term_against_mpmath(self, h, alpha, z):
        got = barnes_zeta2(alpha, z + h, h)
        want = _LEVEL_VALUES[(alpha, z + h, h)]
        assert abs(got - want) <= LEVEL_BOUND * abs(want), float(abs(got - want) / want)

    def test_small_argument_at_ratio_one_hundred(self):
        # x = 0.1: the strip holds the one row m2 = 0 before the tail at v = 1.001
        for alpha in (2.5, 4.0):
            got = barnes_zeta2(alpha, 0.1, 100)
            want = _LEVEL_VALUES[(alpha, 0.1, 100)]
            assert abs(got - want) <= LEVEL_BOUND * abs(want)

    def _counted(self, monkeypatch, *args):
        seen, psi = [], []

        def counted(alpha, u):
            seen.append(u)
            return hurwitz_zeta(alpha, u)

        def counted_digamma(v):
            psi.append(v)
            return digamma(v)

        monkeypatch.setattr(specfun, "hurwitz_zeta", counted)
        monkeypatch.setattr(specfun, "digamma", counted_digamma)
        value = barnes_zeta2(*args)
        return value, seen, psi

    @pytest.mark.parametrize(
        "alpha, x, h",
        [(3.5, 2.0, 1), (3.5, 3.0, 2), (3.5, 0.5, 3), (2.5, 17.0, 16), (3.5, 32.0, 31),
         (2.0, 2.0, 1), (2.0, 3.0, 2), (2.0, 17.0, 16), (2.0, 1.0 + 2**40, 2**40)],
    )
    def test_first_m_takes_em_order_values(self, monkeypatch, alpha, x, h):
        # converging at its first M = ceil((SHIFT_THRESHOLD - x)/h), the loop
        # takes the M strip values zeta(alpha, x + h m2), then EM_ORDER/2 + 3
        # at v = x/h + M: the integral term (a digamma at alpha = 2), the half
        # term, EM_ORDER/2 corrections and the first omitted one
        m = max(0, math.ceil((SHIFT_THRESHOLD - x) / h))
        v = x / h + m
        _, seen, psi = self._counted(monkeypatch, alpha, x, h)
        tail = EM_ORDER // 2 + (2 if alpha == 2 else 3)
        assert seen == [x + h * k for k in range(m)] + [v] * tail
        assert psi == ([v] if alpha == 2 else [])

    @pytest.mark.parametrize("alpha", [2.5, 4.0])
    def test_long_ratio_converges_at_m_zero(self, monkeypatch, alpha):
        # x >= SHIFT_THRESHOLD: no row is summed directly; the tail's
        # EM_ORDER/2 + 2 values and the first omitted correction's one, all at x / h
        h = 32
        _, seen, _ = self._counted(monkeypatch, alpha, 1.0 + h, h)
        assert len(seen) == EM_ORDER // 2 + 3
        assert set(seen) == {(1.0 + h) / h}

    def test_doubling_leaves_m_zero(self, monkeypatch):
        # at x = SHIFT_THRESHOLD and h = 32, M = 0 does not converge for
        # alpha = 3 (v = 1/2), so M must move on to 1, 2, 4, ...
        value, seen, _ = self._counted(monkeypatch, 3.0, SHIFT_THRESHOLD, 32)
        assert len(seen) > EM_ORDER // 2 + 3
        want = _LEVEL_VALUES[(3.0, SHIFT_THRESHOLD, 32)]
        assert abs(value - want) <= LEVEL_BOUND * abs(want)


class TestBarnesFinitePart:
    def test_unit_periods_closed_form(self):
        """At (1,1) the finite part is -psi(z) + (1-z) psi'(z)."""
        for z in (1.3, 0.6, 2.8):
            got = barnes_zeta2(2.0, z, 1)
            want = -digamma(z) + (1.0 - z) * float(mp.polygamma(1, z))
            np.testing.assert_allclose(got, want, rtol=1e-11)

    def test_euler_gamma_specialization(self):
        np.testing.assert_allclose(barnes_zeta2(2.0, 1.0, 1), EULER_GAMMA, rtol=1e-11)

    def test_pole_limit_oracle(self):
        """Richardson extrapolation of zeta_2(2+eps) - pole reproduces it."""
        for z, h in [(0.5, 2), (1.3, 1)]:
            e1, e2 = 1e-4, 1e-5
            f1 = barnes_zeta2(2 + e1, z, h) - 1 / (h * e1)
            f2 = barnes_zeta2(2 + e2, z, h) - 1 / (h * e2)
            extrapolated = (e1 * f2 - e2 * f1) / (e1 - e2)
            got = barnes_zeta2(2.0, z, h)
            np.testing.assert_allclose(got, extrapolated, rtol=1e-4)

    @pytest.mark.parametrize("h", [1, 2, 3, 16, 31, 32, 243])
    def test_laurent_remainder_is_linear(self, h):
        """zeta_2(2+eps) - 1/(h eps) - FP is O(eps): it shrinks tenfold from
        eps = 1e-3 to 1e-4, so FP is the constant term of the Laurent expansion."""
        x = 0.5 + h
        finite = barnes_zeta2(2.0, x, h)
        rest = [barnes_zeta2(2.0 + eps, x, h) - 1.0 / (h * eps) - finite for eps in (1e-3, 1e-4)]
        assert 9.5 < rest[0] / rest[1] < 10.5, rest

    @pytest.mark.parametrize("h", [2, 3, 8, 31, 32, 81])
    def test_multiplication_formula_at_integer_periods(self, h):
        """FP(x; 1, h) == h^-2 sum_{r<h} [-psi(v_r) - (v_r-1) zeta(2, v_r)] - log(h)/h
        with v_r = (x+r)/h, at 30 digits from the exact doubles."""
        for x in (0.25, 1.0, 0.25 + h, 2.5 + h):
            want = mp.fsum(
                -mp.digamma(v) - (v - 1) * mp.zeta(2, v)
                for v in ((mp.mpf(x) + r) / h for r in range(h))
            ) / h**2 - mp.log(h) / h
            got = barnes_zeta2(2.0, x, h)
            assert abs(got - want) <= REL_TOL * abs(want), (x, float(abs(got - want) / want))


class TestEllipticK:
    def test_lemniscatic_value(self):
        """K(1/sqrt 2) == Gamma(1/4)^2 / (4 sqrt(pi))."""
        gamma_quarter = math.exp(log_gamma(0.25))
        want = gamma_quarter**2 / (4.0 * math.sqrt(math.pi))
        np.testing.assert_allclose(elliptic_K(1 / math.sqrt(2)), want, rtol=1e-12)

    def test_small_modulus_limit(self):
        np.testing.assert_allclose(elliptic_K(1e-8), math.pi / 2, rtol=1e-16)

    def test_quadrature_oracle(self):
        """Defining integral evaluated by mpmath quadrature."""
        k = 0.5
        oracle = float(
            mp.quad(lambda t: 1 / mp.sqrt(1 - k**2 * mp.sin(t) ** 2), [0, mp.pi / 2])
        )
        np.testing.assert_allclose(elliptic_K(k), oracle, rtol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            elliptic_K(0.0)
        with pytest.raises(ValueError):
            elliptic_K(1.0)


class TestBernoulli:
    def test_small_values(self):
        from fractions import Fraction

        assert bernoulli_even(2) == Fraction(1, 6)
        assert bernoulli_even(4) == Fraction(-1, 30)
        assert bernoulli_even(12) == Fraction(-691, 2730)

    def test_rejects_odd_and_out_of_range(self):
        with pytest.raises(ValueError):
            bernoulli_even(3)
        with pytest.raises(ValueError):
            bernoulli_even(18)
        with pytest.raises(ValueError):
            bernoulli_even(0)

    def test_table_covers_every_index_read(self):
        # the expansions read B_(EM_ORDER + 2), the cumulants B_(_CUMULANT_BUDGET)
        assert BERNOULLI_LIMIT >= EM_ORDER + 2
        assert BERNOULLI_LIMIT >= _CUMULANT_BUDGET
        for n2 in (EM_ORDER + 2, _CUMULANT_BUDGET):
            assert bernoulli_even(n2) == Fraction(*mp.bernfrac(n2))

    def test_zeta_bridge(self):
        """zeta(2n) == (-1)^(n+1) B_2n (2 pi)^(2n) / (2 (2n)!)."""
        for n in (1, 2, 3, 7):
            b = float(bernoulli_even(2 * n))
            want = (
                (-1) ** (n + 1)
                * b
                * (2 * math.pi) ** (2 * n)
                / (2 * math.factorial(2 * n))
            )
            np.testing.assert_allclose(hurwitz_zeta(2.0 * n, 1.0), want, rtol=1e-12)


def _factorial_loop_hurwitz(alpha, z):
    # hurwitz_zeta as written with an inline B_2j / (2j)! per correction term
    bern = [float(bernoulli_even(n)) if n else 1.0 for n in range(0, 17, 2)]
    half = EM_ORDER // 2
    direct, w, target = 0.0, z, SHIFT_THRESHOLD
    while True:
        while w < target:
            direct += w ** (-alpha)
            w += 1.0
        value = direct + w ** (1.0 - alpha) / (alpha - 1.0) + 0.5 * w ** (-alpha)
        poch, wp = alpha, w ** (-alpha - 1.0)
        for j in range(1, half + 1):
            value += bern[j] / math.factorial(2 * j) * poch * wp
            poch *= (alpha + 2 * j - 1) * (alpha + 2 * j)
            wp /= w * w
        omitted = abs(bern[half + 1]) / math.factorial(2 * half + 2) * poch * wp
        if TAIL_SAFETY * omitted <= REL_TOL * max(abs(value), ABS_FLOOR):
            return value
        target *= 2.0


def _factorial_loop_barnes(a, x, h):
    # barnes_zeta2 for a > 2 as written with an inline B_2j / (2j)!, on the loop above
    bern = [float(bernoulli_even(n)) if n else 1.0 for n in range(0, 17, 2)]
    half = EM_ORDER // 2
    h = float(h)
    direct, m_done = 0.0, 0
    M = max(0, math.ceil((SHIFT_THRESHOLD - x) / h))
    while True:
        while m_done < M:
            direct += _factorial_loop_hurwitz(a, x + h * m_done)
            m_done += 1
        u = x / h + M
        tail = h ** (1.0 - a) * _factorial_loop_hurwitz(a - 1.0, u) / (a - 1.0)
        tail += 0.5 * h ** (-a) * _factorial_loop_hurwitz(a, u)
        poch = a
        for j in range(1, half + 1):
            tail += (
                bern[j] / math.factorial(2 * j) * poch
                / h ** (a + 2 * j - 1) * _factorial_loop_hurwitz(a + 2 * j - 1, u)
            )
            poch *= (a + 2 * j - 1) * (a + 2 * j)
        omitted = (
            abs(bern[half + 1]) / math.factorial(2 * half + 2) * poch
            / h ** (a + 2 * half + 1) * _factorial_loop_hurwitz(a + 2 * half + 1, u)
        )
        value = direct + tail
        if TAIL_SAFETY * omitted <= REL_TOL * max(abs(value), ABS_FLOOR):
            return value
        M = max(1, 2 * M)


class TestEulerMaclaurinCoefficients:
    """The B_2j / (2j)! table gives the bits the per-term factorial gave."""

    def test_hurwitz_zeta_bitwise_on_a_seeded_grid(self):
        rng = np.random.default_rng(1708)
        alphas = rng.uniform(0.05, 12.0, size=150)
        zs = 10.0 ** rng.uniform(-2.0, 2.5, size=150)
        for alpha, z in zip(alphas.tolist(), zs.tolist()):
            assert hurwitz_zeta(alpha, z) == _factorial_loop_hurwitz(alpha, z), (alpha, z)

    def test_barnes_zeta2_bitwise_on_a_seeded_grid(self):
        rng = np.random.default_rng(6479)
        for _ in range(12):
            a, x = rng.uniform(2.05, 7.0), rng.uniform(0.1, 40.0)
            h = int(2.0 ** rng.uniform(0.0, 10.0))  # periods from 1 to 1023, log-uniform
            assert barnes_zeta2(a, x, h) == _factorial_loop_barnes(a, x, h), (a, x, h)
