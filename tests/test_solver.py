import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsum.digitseq import digit_sum
from digitsum.harness import GridSpec, run_suite
from digitsum import solver, specfun
from digitsum.identities import finite_zeta_diff_direct
from digitsum.lambert import lambert_gf
from digitsum.solver import (
    SequenceFn,
    base_relation_check,
    recover_j_infinity_check,
    solve_implicit,
    weighted_digit_sum,
)
from digitsum.specfun import REL_TOL, TAIL_SAFETY, TruncationBudgetError

J_INFINITY_REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "golden" / "j_infinity_mpmath.json").read_text()
)
FAR_POINTS = J_INFINITY_REFERENCE["far_points"]
NEAR_POINTS = [(x, want) for b, x, want in J_INFINITY_REFERENCE["points"] if b == 2]


def telescoping_pair():
    # g(n) = n^-2 - (n+1)^-2 has the closed inverse g(n)/(1 - 2^-2)
    return SequenceFn(
        eval=lambda n: n**-2.0 - (n + 1.0) ** -2.0,
        decay=(3.0, 3.0),
        partial_sum=lambda a, c: a**-2.0 - c**-2.0,
    )


def reciprocal_product():
    return SequenceFn(
        eval=lambda n: 1.0 / (n * (n + 1.0)),
        decay=(1.0, 2.0),
        partial_sum=lambda a, c: 1.0 / a - 1.0 / c,
    )


def geometric(z):
    return SequenceFn(
        eval=lambda n: z**n,
        decay=(1.2, 2.0),
        partial_sum=lambda a, c: (z**a - z**c) / (1.0 - z),
    )


def scalar_series(b, g, n):
    # the one-point level loop: levels until the decay bound on the rest meets
    # REL_TOL of the floor C n^-beta, which the _level_series scale is
    c, beta = g.decay
    ratio = float(b) ** (1.0 - beta)
    floor = c * float(n) ** (-beta)
    total = 0.0
    for k in range(200):
        total = total + g.partial_sum(b**k * n, b**k * (n + 1))
        if TAIL_SAFETY * (floor * ratio ** (k + 1) / (1.0 - ratio)) <= REL_TOL * floor:
            return total
    raise AssertionError("reference loop ran out of levels")


def slow_decay():
    # beta = 1.001: the levels shrink by 2^-0.001, so no level cap is enough
    return SequenceFn(
        eval=lambda n: 1.0 / (n * (n + 1.0)),
        decay=(1.0, 1.001),
        partial_sum=lambda a, c: 1.0 / a - 1.0 / c,
    )


class TestSequenceFn:
    def test_rejects_bad_decay(self):
        with pytest.raises(ValueError, match="C > 0 and beta > 1"):
            SequenceFn(eval=lambda n: 0.0, decay=(1.0, 1.0), partial_sum=lambda a, c: 0.0)
        with pytest.raises(ValueError, match="C > 0 and beta > 1"):
            SequenceFn(eval=lambda n: 0.0, decay=(-1.0, 2.0), partial_sum=lambda a, c: 0.0)

    def test_decay_requires_partial_sum(self):
        # the decay series sums whole blocks in closed form only
        with pytest.raises(ValueError, match="partial_sum"):
            SequenceFn(eval=lambda n: float(n) ** -4.0, decay=(1.0, 4.0))

    def test_rejects_empty_support(self):
        with pytest.raises(ValueError):
            SequenceFn(eval=lambda n: 0.0, support_bound=0)


class TestSolveImplicit:
    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    def test_telescoping_pair_closed_inverse(self, n):
        got = solve_implicit(2, telescoping_pair(), n)
        want = (n**-2.0 - (n + 1.0) ** -2.0) / (1.0 - 0.25)
        assert got == pytest.approx(want, rel=1e-12)

    def test_point_support(self):
        g = SequenceFn(eval=lambda n: 1 if n == 1 else 0, support_bound=2)
        assert solve_implicit(2, g, 1) == 1
        assert solve_implicit(2, g, 2) == 0
        assert solve_implicit(2, g, 5) == 0

    def test_geometric_against_level_sums(self):
        z = 0.5
        got = solve_implicit(2, geometric(z), 3)
        want = sum(z ** (3 * 2**k) * (1 - z ** (2**k)) / (1 - z) for k in range(40))
        assert got == pytest.approx(want, rel=1e-13)

    def test_requires_summability_declaration(self):
        bare = SequenceFn(eval=lambda n: 1.0 / n**2)
        with pytest.raises(ValueError):
            solve_implicit(2, bare, 1)

    def test_level_budget_raises(self, monkeypatch):
        # with no tolerance the stop rule never holds: the series runs to the
        # _level_cap of base 2, the last level whose bound 2^1023 is a float
        monkeypatch.setattr(specfun, "REL_TOL", 0.0)
        with pytest.raises(TruncationBudgetError, match="no convergence by level 1022"):
            solve_implicit(2, reciprocal_product(), 1)

    def test_rejects_bad_arguments(self):
        g = reciprocal_product()
        with pytest.raises(ValueError):
            solve_implicit(1, g, 1)
        with pytest.raises(ValueError):
            solve_implicit(2, g, 0)


class TestLevelMajorSeries:
    # the level-major series hands partial_sum float64 arrays; the reference
    # hands it python ints

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 11, 100, 12345])
    def test_power_partial_sum_matches_scalar_loop(self, n):
        # ** on arrays is np.power, which may differ from libm pow by an ulp
        got = solve_implicit(2, telescoping_pair(), n)
        assert got == pytest.approx(scalar_series(2, telescoping_pair(), n), rel=4e-16)

    @pytest.mark.parametrize("b", [2, 3, 10])
    def test_weighted_levels_match_point_sum(self, b):
        # one weighted level sum over 40 (b - 1) start points, against the
        # points solved one at a time and summed exactly
        ns = [b * n + j for n in range(40) for j in range(1, b)]
        weights = [j for n in range(40) for j in range(1, b)]
        got = solver._level_major("t", b, reciprocal_product(), np.array(ns), np.array(weights))
        want = math.fsum(w * scalar_series(b, reciprocal_product(), m) for w, m in zip(weights, ns))
        assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("b, n", [(2, 2**40 + 1), (3, 3**25 + 1)])
    def test_level_bounds_past_int64(self, b, n):
        # b^k (n+1) passes 2^63 before the tail test stops these points
        got = solve_implicit(b, reciprocal_product(), n)
        assert got != 0.0
        assert got.hex() == scalar_series(b, reciprocal_product(), n).hex()

    def test_level_budget_raises_from_weighted_sum(self, monkeypatch):
        # with no tolerance the levels run until b^k (n + 1) of the largest
        # start point passes the float range, below the level cap
        monkeypatch.setattr(specfun, "REL_TOL", 0.0)
        with pytest.raises(TruncationBudgetError, match="past the float range"):
            weighted_digit_sum(2, reciprocal_product())

    @pytest.mark.parametrize("route", [
        lambda g: solve_implicit(2, g, 1),
        lambda g: solve_implicit(3, g, 5),
        lambda g: weighted_digit_sum(2, g),
    ])
    def test_slow_decay_raises_budget_error(self, route):
        # never an OverflowError from a block bound past the float range
        with pytest.raises(TruncationBudgetError):
            route(slow_decay())


class TestFixedPoint:
    @pytest.mark.parametrize("n", [1, 2, 5, 17])
    def test_decay_route_satisfies_relation(self, n):
        g = reciprocal_product()
        residual = (
            solve_implicit(2, g, n)
            - solve_implicit(2, g, 2 * n)
            - solve_implicit(2, g, 2 * n + 1)
        )
        assert residual == pytest.approx(g.eval(n), rel=1e-10)

    @pytest.mark.parametrize("b", [2, 3])
    def test_base_b_relation(self, b):
        g = reciprocal_product()
        residual = solve_implicit(b, g, 3) - sum(
            solve_implicit(b, g, 3 * b + j) for j in range(b)
        )
        assert residual == pytest.approx(g.eval(3), rel=1e-10)

    @given(
        values=st.lists(st.integers(-50, 50), min_size=15, max_size=15),
        den=st.integers(1, 9),
    )
    @settings(max_examples=30, deadline=None)
    def test_finite_support_is_exact(self, values, den):
        table = {m + 1: Fraction(v, den) for m, v in enumerate(values)}
        g = SequenceFn(eval=lambda m: table.get(m, Fraction(0)), support_bound=16)
        for n in range(1, 16):
            residual = (
                solve_implicit(2, g, n)
                - solve_implicit(2, g, 2 * n)
                - solve_implicit(2, g, 2 * n + 1)
            )
            assert residual == table.get(n, Fraction(0))


class TestOperatorFold:
    # scaling and shifting do not commute; their canonical k-fold product is
    # the block sum over l < 2^k
    def test_noncommutation_witness(self):
        g = lambda n: n
        scale_then_shift = lambda n: g(2 * n + 2)
        shift_then_scale = lambda n: g(2 * n + 1)
        assert scale_then_shift(1) != shift_then_scale(1)

    @pytest.mark.parametrize("k", list(range(0, 7)))
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_folded_operator_equals_block_sum(self, k, n):
        g = lambda m: Fraction(1, m)
        h = g
        for _ in range(k):
            h = (lambda inner: lambda m: inner(2 * m) + inner(2 * m + 1))(h)
        block = sum(g(2**k * n + l) for l in range(2**k))
        assert h(n) == block


class TestWeightedDigitSum:
    def test_reciprocal_product_base_two(self):
        got = weighted_digit_sum(2, reciprocal_product())
        assert got == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    @pytest.mark.parametrize("b", [3, 10])
    def test_reciprocal_product_general_base(self, b):
        got = weighted_digit_sum(b, reciprocal_product())
        want = b / (b - 1.0) * math.log(b)
        assert got == pytest.approx(want, rel=1e-12)

    def test_geometric_matches_generating_function(self):
        got = weighted_digit_sum(2, geometric(0.5))
        assert got == pytest.approx(lambert_gf(2, 0.5), rel=1e-12)

    def test_three_point_support(self):
        g = SequenceFn(eval=lambda n: 1 if n <= 3 else 0, support_bound=4)
        assert weighted_digit_sum(2, g) == 4

    @pytest.mark.parametrize("b", [2, 3, 5])
    def test_finite_support_matches_direct_sum(self, b):
        table = {m: Fraction(m**2 - 3 * m + 1, 7) for m in range(1, 30)}
        g = SequenceFn(eval=lambda m: table.get(m, Fraction(0)), support_bound=30)
        want = sum(digit_sum(m, b) * v for m, v in table.items())
        assert weighted_digit_sum(b, g) == want

    def test_requires_declaration(self):
        with pytest.raises(ValueError):
            weighted_digit_sum(2, SequenceFn(eval=lambda n: 0.0))


class TestBaseRelationCheck:
    def test_indicator_window(self):
        # an int sequence is summed exactly
        g = SequenceFn(eval=lambda n: 1 if 1 <= n <= 15 else 0, support_bound=16)
        lhs, rhs = base_relation_check(2, g)
        assert type(lhs) is int and lhs == rhs

    def test_base_three_float_sequence(self):
        # the registered suite's sequence at b = 3: support 82, n <= 81
        (report,) = run_suite(GridSpec("base-relation", {"b": [3]})).reports
        assert report.identity_id == "base-relation"
        assert report.params == {"b": 3}
        assert report.terms == 82  # the support bound 3^4 + 1
        assert report.passed and report.rel_err <= 1e-12

    def test_zero_sequence(self):
        g = SequenceFn(eval=lambda n: 0, support_bound=5)
        lhs, rhs = base_relation_check(2, g)
        assert lhs == 0 and rhs == 0

    def test_requires_finite_support(self):
        with pytest.raises(ValueError):
            base_relation_check(2, reciprocal_product())


def window(p, g):
    # g on the window [1, 2^p - 1]
    return SequenceFn(eval=g, support_bound=2**p)


class TestSolveImplicitFinite:
    def test_window_solution_layers(self):
        # distinct powers of two make every g-contribution identifiable
        g = window(4, lambda m: 1 << m)
        f = {n: solve_implicit(2, g, n) for n in range(1, 16)}
        assert f[3] == sum(1 << m for m in (3, 6, 7, 12, 13, 14, 15))
        assert f[7] == (1 << 7) + (1 << 14) + (1 << 15)
        assert f[1] == sum(1 << m for m in range(1, 16))
        assert all(f[m] == 1 << m for m in range(8, 16))

    def test_accepts_sequence_fn(self):
        # a support bound that is not a power of the base clips the last level
        g = SequenceFn(eval=lambda m: m, support_bound=8)
        assert solve_implicit(2, g, 4) == 4
        assert solve_implicit(2, g, 3) == 3 + 6 + 7
        assert solve_implicit(3, g, 2) == 2 + 6 + 7

    @given(values=st.lists(st.integers(-9, 9), min_size=15, max_size=15))
    @settings(max_examples=40, deadline=None)
    def test_window_fixed_point(self, values):
        table = {m + 1: Fraction(v, 5) for m, v in enumerate(values)}
        g = window(4, lambda m: table[m])
        f = {n: solve_implicit(2, g, n) for n in range(1, 16)}
        for n in range(1, 8):
            assert table[n] == f[n] - f[2 * n] - f[2 * n + 1]
        for n in range(8, 16):
            assert table[n] == f[n]

    def test_rejects_empty_window(self):
        # support_bound = 1 is the empty window: nothing to sum, and g is never called
        def g(m):
            raise AssertionError(m)

        empty = SequenceFn(eval=g, support_bound=1)
        assert solve_implicit(2, empty, 1) == 0
        assert weighted_digit_sum(3, empty) == 0


class TestFiniteWeightedSum:
    def test_all_ones_counts_digit_sums(self):
        assert weighted_digit_sum(2, window(3, lambda n: 1)) == 12

    def test_reciprocal_matches_direct(self):
        got = weighted_digit_sum(2, window(4, lambda n: 1.0 / n))
        want = sum(digit_sum(n, 2) / n for n in range(1, 16))
        assert got == pytest.approx(want, rel=1e-12)

    def test_single_cell(self):
        assert weighted_digit_sum(2, window(1, lambda n: 7.5)) == 7.5

    @given(values=st.lists(st.integers(-20, 20), min_size=63, max_size=63))
    @settings(max_examples=20, deadline=None)
    def test_exact_rational_window(self, values):
        table = {m + 1: Fraction(v, 11) for m, v in enumerate(values)}
        got = weighted_digit_sum(2, window(6, lambda m: table[m]))
        want = sum(Fraction(digit_sum(n, 2)) * table[n] for n in range(1, 64))
        assert got == want

    @pytest.mark.parametrize("z", [0.0, 0.5])
    def test_partial_fraction_bridge(self, z):
        # 1/((z+n)(z+n+1)) is the difference of first powers, so the window
        # sum equals the order-one finite difference-kernel sum
        got = weighted_digit_sum(2, window(5, lambda n: 1.0 / ((z + n) * (z + n + 1.0))))
        want = finite_zeta_diff_direct(2, 5, 1.0, z)
        assert got == pytest.approx(want, rel=1e-12)


class TestRecoverJInfinity:
    @staticmethod
    def report(x):
        (report,) = run_suite(GridSpec("recover-jinfty", {"x": [x]})).reports
        return report

    @pytest.mark.parametrize("x", [1.0, 0.1, 100.0])
    def test_matches_direct_evaluator(self, x):
        report = self.report(x)
        assert report.passed and report.rel_err <= 1e-9

    def test_report_shape(self):
        report = self.report(2.5)
        assert report.identity_id == "recover-jinfty"
        assert report.params == {"x": 2.5}
        assert report.terms > 0
        assert report.tail_bound >= 0.0
        assert (report.lhs, report.terms, report.tail_bound) == recover_j_infinity_check(2.5)

    @pytest.mark.parametrize("x, want", NEAR_POINTS)
    def test_matches_j_infinity_references(self, x, want):
        # the 40-digit b = 2 values of tests/golden/j_infinity_mpmath.json; the
        # count is of levels, each one order-1 difference, and the tail bounds
        # the levels after the last
        value, levels, tail = recover_j_infinity_check(x)
        assert abs(value - float(want)) <= 1e-13 * float(want)
        assert tail == 2.0 ** (-levels - 1) * (4.0 * math.log(2.0) + 1.0)

    @pytest.mark.parametrize("x, want", FAR_POINTS)
    def test_far_arguments_against_references(self, x, want):
        # 60-digit values from tests/golden/j_infinity_mpmath.json.  The value
        # is about log2(x)/(2x), so from x = 1e60 on the levels run past 200
        value, terms, tail = recover_j_infinity_check(x)
        assert abs(value - float(want)) <= 1e-13 * float(want)
        assert tail <= REL_TOL / TAIL_SAFETY * value

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            recover_j_infinity_check(0.0)


class TestTelescopingRow:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 2**20 + 1, 10**6 + 7, 2**40 + 1, 2**50 + 1])
    def test_both_sides_against_mpmath(self, n):
        # f(n) = (n^-2 - (n+1)^-2) / (1 - 2^-2) at 60 digits.  The float
        # difference n^-2 - (n+1)^-2 loses log10(n) digits, and two sides that
        # both took it would agree on the same wrong value
        (report,) = run_suite(GridSpec("thm6.2", {"n": [n]})).reports
        with mp.workdps(60):
            m = mp.mpf(n)
            want = (m**-2 - (m + 1) ** -2) / mp.mpf(0.75)
        for value in (report.lhs, report.rhs):
            assert abs(value - want) <= 1e-13 * want, (n, value)
