"""Digit-sum generating functions, rank polynomials, and divisor-sum checks."""
from __future__ import annotations

import math
import sys

import mpmath as mp
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsum import harness, lambert
from digitsum.digitseq import (
    _block_length,
    delta_digit_sum,
    digit_sum,
    digit_sum_range,
    power2_indicator,
    valuation2_range,
)
from digitsum.harness import Criterion, GridSpec, run_suite
from digitsum.lambert import (
    c_sequence,
    eta_dirichlet_bridge_check,
    finite_gf_coefficients,
    lambert_gf,
    lambert_gf_finite,
    mobius,
    mobius_inverse_check,
    partition_convolution_check,
    rankwise_coefficients,
)
from digitsum.specfun import REL_TOL, dirichlet_eta


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def direct_gf(b: int, z: float, terms: int) -> float:
    return sum(digit_sum(n, b) * z**n for n in range(1, terms))


def printed_kernel(b, u):
    # the paper's rank kernel as printed, numerator subtraction and all
    return (u - b * u**b + (b - 1) * u ** (b + 1)) / ((1 - u) * (1 - u**b))


def printed_series(b: int, z: float) -> mp.mpf:
    """(1/(1-z)) sum_l kernel(z^(b^l)) at 80 digits on the exact double z.

    The kernel's subtraction costs at most 2 log10(1/(1-|z|)) + 2 of the 80
    digits here; the sum stops once z^(b^l) is below 1e-70 of the total, which
    leaves a rest below 2 |z|^(b^(l+1)).
    """
    with mp.workdps(80):
        x, total, l = mp.mpf(z), mp.mpf(0), 0
        while True:
            u = x ** (b**l)
            total += printed_kernel(b, u)
            if abs(u) < mp.mpf(10) ** -70 * abs(total):
                return total / (1 - x)
            l += 1


def printed_window(b: int, p: int, z: float) -> mp.mpf:
    """((1 - z^(b^p)) / (1 - z)) sum_{l<p} kernel(z^(b^l)) at 60 digits on the
    exact double z, for z != +-1."""
    with mp.workdps(60):
        x = mp.mpf(z)
        return (1 - x ** (b**p)) / (1 - x) * mp.fsum(printed_kernel(b, x ** (b**l)) for l in range(p))


def unit_rank_sum(b: int, p: int, s: int) -> int:
    """The rank polynomials' sum at z = s = +-1, exact in integers: rank l is
    (sum_{j<b^l} s^j) (sum_{d<b} d s^(d b^l)) (sum_{m<b^(p-l-1)} s^(m b^(l+1)))."""

    def geometric(count: int, step: int) -> int:  # sum_{m<count} s^(m step)
        return count if s == 1 or step % 2 == 0 else count % 2

    return sum(
        geometric(b**l, 1)
        * sum(d * s ** (d * b**l) for d in range(b))
        * geometric(b ** (p - l - 1), b ** (l + 1))
        for l in range(p)
    )


U = sympy.Symbol("u")


class TestRankPolynomials:
    """P(u) = sum_{d<b} u^d and Q(u) = sum_{k<=b-2} (k+1) u^k as integer
    coefficient lists, from the code's own operations on a symbol u."""

    @staticmethod
    def read_back(b: int) -> tuple[sympy.Poly, sympy.Poly]:
        return tuple(sympy.Poly(value, U) for value in lambert._rank_polynomials(b, U))

    @pytest.mark.parametrize("b", range(2, 17))
    def test_coefficient_lists(self, b):
        P, Q = self.read_back(b)
        assert P.all_coeffs() == [1] * b
        assert Q.all_coeffs() == list(range(b - 1, 0, -1))

    @pytest.mark.parametrize("b", range(2, 17))
    def test_they_factor_the_printed_kernel(self, b):
        # (1-u) P = 1 - u^b and u (1-u)^2 Q = u - b u^b + (b-1) u^(b+1)
        P, Q = self.read_back(b)
        assert sympy.Poly(1 - U, U) * P == sympy.Poly(1 - U**b, U)
        numerator = sympy.Poly(U - b * U**b + (b - 1) * U ** (b + 1), U)
        assert sympy.Poly(U * (1 - U) ** 2, U) * Q == numerator

    @pytest.mark.parametrize("b", range(2, 17))
    def test_paired_form_of_p(self, b):
        # (b mod 2) + (1+u) u^(b mod 2) sum_{k<b/2} u^(2k) = sum_{d<b} u^d
        odd = b % 2
        paired = odd + (1 + U) * U**odd * sum(U ** (2 * k) for k in range(b // 2))
        assert sympy.Poly(paired, U).all_coeffs() == [1] * b


GF_GRID = [0.15, -0.148, 0.3, -0.3, 0.5, -0.5, 0.9, -0.9, 0.99, -0.99]
GF_GRID += [0.9999, -0.9999, 0.999999, -0.999999, 1e-8, -1e-5]
WINDOW_GRID = [0.3, -0.3, 0.9, -0.9, 0.999999, -0.999, -0.999999]
WINDOW_GRID += [1.0, -1.0, 1.05, -1.05, 1.5, -2.5]


class TestLambertGF:
    """Closed rank-telescoped power series against direct partial sums."""

    def test_zero_argument(self):
        assert lambert_gf(2, 0.0) == 0.0
        assert lambert_gf(7, 0.0) == 0.0

    def test_binary_half_matches_one_term_per_rank_form(self):
        # at b = 2 each rank kernel collapses to u/(1+u)
        want = sum(0.5 ** (2**l) / (1.0 + 0.5 ** (2**l)) for l in range(8)) / 0.5
        assert rel_err(lambert_gf(2, 0.5), want) < 1e-14

    @pytest.mark.parametrize(
        "b,z,terms", [(2, 0.5, 200), (3, 0.3, 200), (2, -0.5, 300), (5, 0.8, 3000)]
    )
    def test_matches_direct_partial_sum(self, b, z, terms):
        # the omitted tail is below (b-1)(log_b n + 1) |z|^n summed past the cut
        assert rel_err(lambert_gf(b, z), direct_gf(b, z, terms)) < 1e-11

    @pytest.mark.parametrize(
        "b, z, bound",
        [(2, 1e-8, 1e-15), (3, -1e-5, 1e-15), (5, -0.3, 1e-14)],
    )
    def test_matches_mpmath_on_the_exact_double(self, b, z, bound):
        # the defining power series at 50 digits, from the double the code
        # receives; a small z needs the relative stop rule, not a floor of 1
        with mp.workdps(50):
            x, want, n = mp.mpf(z), mp.mpf(0), 1
            while abs(x) ** n > mp.mpf(10) ** -60:
                want += digit_sum(n, b) * x**n
                n += 1
            assert float(abs(lambert_gf(b, z) - want) / abs(want)) < bound

    @pytest.mark.parametrize("b, z", [(2, 0.999999), (3, 0.999999), (10, 0.9999)])
    def test_near_one_against_the_printed_series(self, b, z):
        # the printed numerator is O((1-u)^2) here, so formed by subtraction
        # it loses up to 1e-5; as u (1-u)^2 Q(u) it cancels before any rounding
        want = printed_series(b, z)
        assert abs(lambert_gf(b, z) - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("b", [2, 3, 4, 5, 10, 15, 16])
    def test_grid_against_the_printed_series(self, b):
        # the level series promises REL_TOL
        for z in GF_GRID:
            want = printed_series(b, z)
            assert abs(lambert_gf(b, z) - want) <= REL_TOL * abs(want), z

    @pytest.mark.parametrize("b", [3, 5, 15])
    @pytest.mark.parametrize("z", [-0.9999999999999999, -0.999999999999999])
    def test_odd_base_next_to_minus_one(self, b, z):
        # the levels run past b^l = 2^53 before |z|^(b^l) is negligible, and
        # the float of an odd b^l that large is even: the sign of z^(b^l) must
        # come from the int
        want = printed_series(b, z)
        assert abs(lambert_gf(b, z) - want) <= 1e-14 * abs(want)

    def test_triple_sum_rearrangement_binary_half(self):
        # enumerate exponents 2^(k+1) n + 2^k + l <= cutoff; each integer m
        # is hit once per set bit, so the triple sum rebuilds the series
        z, cutoff = 0.5, 260
        total = 0.0
        k = 0
        while 2**k <= cutoff:
            step, base = 2 ** (k + 1), 2**k
            n = 0
            while base + step * n <= cutoff:
                for l in range(2**k):
                    e = step * n + base + l
                    if e <= cutoff:
                        total += z**e
                n += 1
            k += 1
        assert rel_err(lambert_gf(2, 0.5), total) < 1e-9

    def test_rejects_unit_disk_boundary(self):
        with pytest.raises(ValueError):
            lambert_gf(2, 1.0)
        with pytest.raises(ValueError):
            lambert_gf(2, -1.0)

    @given(
        b=st.sampled_from([2, 3, 5]),
        z=st.floats(min_value=-0.8, max_value=0.8, allow_nan=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_direct_partial_property(self, b, z):
        got = lambert_gf(b, z)
        want = direct_gf(b, z, 700)
        assert abs(got - want) < 1e-9 * max(abs(want), 1.0)


class TestLambertGFFinite:
    """Windowed finite form by the leading-digit recursion, at every finite z."""

    def test_matches_printed_three_rank_factorization(self):
        for z in (0.37, -0.6, 2.0, 5.5):
            want = (
                z * (1 + z**2 + z**4 + z**6)
                + z**2 * (1 + z) * (1 + z**4)
                + z**4 * (1 + z + z**2 + z**3)
            )
            assert rel_err(lambert_gf_finite(2, 3, z), want) < 1e-13

    def test_single_term_outside_unit_disk(self):
        assert lambert_gf_finite(2, 1, 2) == 2.0

    def test_base_three_depth_two(self):
        want = direct_gf(3, -0.7, 9)
        assert rel_err(lambert_gf_finite(3, 2, -0.7), want) < 1e-14

    def test_leading_digit_sums_at_plus_minus_one(self):
        # z = 1 and z = -1 zero out the printed kernel's denominators; the
        # recursion must give the rank polynomials' integer sums there, which
        # are checked against the coefficient lists where those are short
        for b in range(2, 17):
            for p in range(1, 5):
                for z in (1, -1):
                    want = unit_rank_sum(b, p, z)
                    if b <= 5:
                        coeffs = finite_gf_coefficients(b, p)
                        assert want == sum(c * z**n for n, c in enumerate(coeffs))
                    assert lambert_gf_finite(b, p, float(z)) == want, (b, p, z)

    @pytest.mark.parametrize("p", [40, 700])
    def test_minus_one_in_an_odd_base(self, p):
        # every 3^k is odd, so every level has u = -1 and adds 1; past 2^53 the
        # float of 3^k is even, so the sign of u must come from the int
        assert lambert_gf_finite(3, p, -1.0) == float(p)

    @pytest.mark.parametrize("b", [2, 3, 4, 5, 10, 16])
    def test_window_grid_against_mpmath(self, b):
        # the printed window at 60 digits on the exact double, or the integer
        # sum at z = +-1; a value past the float range must raise instead
        for p in (1, 2, 3, 5, 8):
            if b**p > 2**40:
                continue
            for z in WINDOW_GRID:
                want = unit_rank_sum(b, p, int(z)) if abs(z) == 1.0 else printed_window(b, p, z)
                if abs(want) > sys.float_info.max:
                    with pytest.raises(ValueError, match="past the float range"):
                        lambert_gf_finite(b, p, z)
                else:
                    assert abs(lambert_gf_finite(b, p, z) - want) <= 2e-15 * abs(want), (p, z)

    def test_minus_one_at_a_long_window(self):
        # the rank polynomials have 2^40 coefficients here; the recursion
        # takes 40 steps
        assert lambert_gf_finite(2, 40, -1.0) == -(2.0**39)

    @pytest.mark.parametrize(
        "b, p, z, bound",
        [(2, 10, 1.9, 1e-15), (2, 10, -1.9, 1e-15), (2, 6, 1.05, 2e-15), (3, 5, -2.5, 1e-15)],
    )
    def test_outside_the_unit_disk_against_the_direct_sum(self, b, p, z, bound):
        # the 60-digit sum at the double z; at (2, 10, 1.9) the value is 2.9e286,
        # and the recursion reaches it with no partial sum past the float range
        with mp.workdps(60):
            want = mp.fsum(digit_sum(n, b) * mp.mpf(z) ** n for n in range(1, b**p))
            assert abs(lambert_gf_finite(b, p, z) - want) <= bound * abs(want)

    @pytest.mark.parametrize("b, p, z", [(2, 1100, 0.5), (3, 700, -0.5)])
    def test_window_past_the_float_range_inside_the_disk(self, b, p, z):
        # b^p is past the float range, and every power z^(b^l) that large is 0
        assert abs(lambert_gf_finite(b, p, z) - lambert_gf(b, z)) <= 1e-15 * abs(lambert_gf(b, z))

    @pytest.mark.parametrize("p, z", [(10, 2.0), (60, 1.0000001), (1100, 1.0)])
    def test_past_the_float_range_is_a_value_error(self, p, z):
        with pytest.raises(ValueError, match="past the float range"):
            lambert_gf_finite(2, p, z)

    @pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan])
    def test_rejects_a_non_finite_argument(self, z):
        with pytest.raises(ValueError, match="finite z"):
            lambert_gf_finite(2, 3, z)

    def test_converges_to_infinite_form(self):
        # depths kept small enough that the true tail sits above float noise
        for (b, z, plist) in [(2, 0.6, (3, 4, 5, 6)), (3, 0.4, (2, 3))]:
            infinite = lambert_gf(b, z)
            gaps = []
            for p in plist:
                gap = abs(infinite - lambert_gf_finite(b, p, z))
                top = b**p
                # tail bound: digit sums below (b-1)(log_b n + 1) against |z|^n
                ceiling = (b - 1) * (math.log(top) / math.log(b) + 2.0)
                bound = ceiling * abs(z) ** top / (1.0 - abs(z)) ** 2
                assert gap < bound, (b, z, p)
                gaps.append(gap)
            assert gaps == sorted(gaps, reverse=True)


class TestRankwiseCoefficients:
    """Exact per-rank polynomials and their sum."""

    def test_binary_depth_three_matches_printed_factors(self):
        polys = rankwise_coefficients(2, 3)
        assert polys[0] == [0, 1, 0, 1, 0, 1, 0, 1]
        assert polys[1] == [0, 0, 1, 1, 0, 0, 1, 1]
        assert polys[2] == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_depth_one_is_single_monomial(self):
        assert rankwise_coefficients(2, 1) == [[0, 1]]

    def test_rank_entry_is_the_digit(self):
        for b in (2, 3):
            polys = rankwise_coefficients(b, 4)
            for l, poly in enumerate(polys):
                for n in range(b**4):
                    assert poly[n] == (n // b**l) % b

    def test_coefficients_are_digit_sums(self):
        for b in (2, 3):
            for p in range(1, 7):
                got = finite_gf_coefficients(b, p)
                want = digit_sum_range(b**p, b)
                assert got == [int(x) for x in want]


class TestMobius:
    """Trial-division Moebius values."""

    def test_anchors(self):
        assert mobius(1) == 1
        assert mobius(6) == 1
        assert mobius(12) == 0

    def test_against_sympy(self):
        for n in range(1, 2000):
            assert mobius(n) == int(sympy.mobius(n)), n

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            mobius(0)


class TestCSequence:
    """2-adic Moebius companion values."""

    def test_anchors(self):
        assert c_sequence(1) == 1
        assert c_sequence(2) == 1
        assert c_sequence(12) == -2

    def test_odd_arguments_reduce_to_mobius(self):
        for n in range(1, 400, 2):
            assert c_sequence(n) == mobius(n)

    def test_power_of_two_scaling(self):
        # c(2^v m) = 2^(v-1) mu(m) for odd m, v >= 1
        for v in range(1, 6):
            for m in (1, 3, 5, 15):
                assert c_sequence(2**v * m) == 2 ** (v - 1) * mobius(m)


def divisor_loop_failures(n_max):
    # reference: one trial-division divisor loop per n
    failures = []
    for n in range(1, n_max + 1):
        total = sum(
            lambert.c_sequence(n // d) * delta_digit_sum(d - 1, 2)
            for d in range(1, n + 1)
            if n % d == 0
        )
        if total != power2_indicator(n):
            failures.append(n)
    return failures


class TestMobiusInverseCheck:
    """Convolution of the companion sequence against the increments."""

    def test_anchors(self):
        assert mobius_inverse_check(1) == []
        assert mobius_inverse_check(4) == []
        assert mobius_inverse_check(6) == []
        with pytest.raises(ValueError):
            mobius_inverse_check(0)

    def test_holds_to_ten_thousand(self):
        assert mobius_inverse_check(10_000) == []

    @pytest.mark.parametrize("n_max", [1, 2, 7, 64, 300])
    def test_sieve_matches_divisor_loop(self, n_max):
        assert mobius_inverse_check(n_max) == divisor_loop_failures(n_max) == []

    def test_sieve_reports_the_divisor_loop_failures(self, monkeypatch):
        # a companion sequence that is wrong at n = 3 mod 7 breaks the identity
        # at many n; the sieve must name exactly the n the divisor loop does
        true_c = lambert.c_sequence
        monkeypatch.setattr(lambert, "c_sequence", lambda n: true_c(n) + (n % 7 == 3))
        want = divisor_loop_failures(300)
        assert want
        assert mobius_inverse_check(300) == want


def brute_partition_stats(n: int) -> tuple[int, int, int]:
    # exhaustive enumeration, small n only
    even = odd = 0

    def walk(remaining: int, largest: int, parts: int):
        nonlocal even, odd
        if remaining == 0:
            if parts % 2 == 0:
                even += 1
            else:
                odd += 1
            return
        for k in range(min(remaining, largest), 0, -1):
            walk(remaining - k, k, parts + 1)

    walk(n, n if n else 1, 0)

    power2 = 0

    def walk_distinct(remaining: int, largest: int, acc: int):
        nonlocal power2
        if remaining == 0:
            power2 += acc
            return
        for k in range(min(remaining, largest), 0, -1):
            walk_distinct(remaining - k, k - 1, acc + (1 if (k & (k - 1)) == 0 else 0))

    walk_distinct(n, n if n else 1, 0)
    return even, odd, power2


def partition_stats(n: int) -> tuple[int, int, int]:
    # the tables' row n: even parts, odd parts, power-of-two distinct parts
    return tuple(table[n] for table in lambert._partition_tables(n))


class TestPartitionCounts:
    """Parity-tracked and power-of-two-weighted partition tables."""

    def test_empty_partition(self):
        assert partition_stats(0) == (1, 0, 0)

    def test_three(self):
        assert partition_stats(3) == (1, 2, 2)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_against_exhaustive_enumeration(self, n):
        assert partition_stats(n) == brute_partition_stats(n)

    def test_budget(self):
        with pytest.raises(ValueError):
            partition_convolution_check(401)


class TestPartitionConvolution:
    """Power-of-two part counts convolved with the parity imbalance."""

    def test_exact_to_two_hundred(self):
        reports = run_suite(GridSpec("partition-conv", {"n_max": [200]})).reports
        assert len(reports) == 200
        assert all(r.passed for r in reports)
        assert all(r.abs_err == 0.0 for r in reports)

    def test_reproduces_increment_values(self):
        by_n = dict(enumerate(partition_convolution_check(16), 1))
        assert by_n[2] == 0  # 1 - nu_2(2)
        assert by_n[5] == 1
        assert by_n[16] == -3


class TestEtaDirichletBridge:
    """Closed power-of-two Dirichlet series against the increment series."""

    @staticmethod
    def reports(s_values):
        return run_suite(GridSpec("eta-bridge", {"s": s_values})).reports

    def test_grid_passes(self):
        reports = self.reports([2.0, 3.0, 1.5])
        assert all(r.passed for r in reports)
        assert reports[0].lhs == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert reports[0].rel_err < 1e-6
        assert reports[2].rel_err < 1e-4

    def test_rejects_divergent_exponent(self):
        with pytest.raises(ValueError):
            eta_dirichlet_bridge_check(1.0, 1000)
        with pytest.raises(ValueError):
            self.reports([1.0])

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
    def test_rhs_off_by_1e8_fails(self, monkeypatch, s):
        true_eta = harness.dirichlet_eta
        monkeypatch.setattr(harness, "dirichlet_eta", lambda a: true_eta(a) / (1.0 + 1e-8))
        (report,) = self.reports([s])
        assert report.rel_err == pytest.approx(1e-8, rel=1e-3)
        assert not report.passed

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
    def test_criterion_is_the_tail_bracket(self, s):
        # the tail bound is the bracket carried through the division by eta,
        # in the units of the value, and the budget adds REL_TOL |lhs|
        (report,) = self.reports([s])
        half = eta_dirichlet_bridge_check(s, report.terms)[1]
        assert report.tail_bound == half / dirichlet_eta(s)
        budget = report.tail_bound + REL_TOL * report.lhs
        assert report.criterion == Criterion(0.0, budget)
        assert report.abs_err <= budget

    @pytest.mark.parametrize("N", [5, 1000, 1_499_999])
    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
    def test_tail_covers_every_layer(self, s, N):
        # the exact tail through 40-digit Hurwitz zetas, every 2-adic layer
        # counted: zeta(s, N+1) - sum_{j>=1} 2^-js zeta(s, (N >> j) + 1).  The
        # integral brackets put the midpoint within 2.2% of half of it at these
        # points, so a gap past a quarter of half is a layer left out
        mid, half = lambert._increment_series_tail(N, s)
        with mp.workdps(40):
            a, two = mp.mpf(s), mp.mpf(2)
            exact = mp.zeta(a, N + 1) - sum(
                two ** (-j * a) * mp.zeta(a, (N >> j) + 1) for j in range(1, 200)
            )
            gap = abs(mp.mpf(mid) - exact)
        assert gap <= half / 4


BLOCK = _block_length(2)


class TestIncrementDirichletPartial:
    """The sum of (1 - nu_2(n)) n^-s behind the eta bridge, summed by parts as
    sum s_2(n) [n^-s - (n+1)^-s] + s_2(L-1) L^-s through the blocked kernel."""

    @pytest.mark.parametrize(
        "limit",
        [1, 2, 1000, BLOCK - 1, BLOCK, BLOCK + 1]
        + [2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1, 4 * BLOCK, 6 * BLOCK + 5, 10**6],
    )
    @pytest.mark.parametrize("s", [0.0, -1.0])
    def test_integer_terms_are_exact(self, limit, s):
        # at s = 0 and s = -1 every term and every partial total is an integer
        # below 2^53, so the blocked sum must be exact whatever its order
        n = np.arange(1, limit, dtype=np.int64)
        want = int(((1 - valuation2_range(limit)[1:]) * n ** int(-s)).sum())
        assert lambert._increment_dirichlet_partial(limit, s) == want

    @pytest.mark.parametrize(
        "limit", [BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1, 6 * BLOCK, 6 * BLOCK + 12345]
    )
    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
    def test_close_to_fsum_of_the_terms(self, limit, s):
        """Against math.fsum of the terms (1 - nu_2(n)) n^-s, n < L = limit.

        Each power is within eps = 4 2^-53 of n^-s: k 2^-53 for the orders k
        that _inverse_power multiplies out, within an ulp for np.power.  So the
        weight d(n) = w(n) - w(n+1) carries eps (w(n) + w(n+1)) from its two
        powers, and the kernel then sums s_2(n) d(n) within gamma_(C + depth + 2)
        sum s_2(n) |d(n)|: C blocks, depth = 25 + log2 B roundings in a
        pairwise sum as in the kernel tests, and one more for the subtraction.
        The boundary term s_2(L-1) L^-s carries 2 eps, the reference
        eps sum |1 - nu_2(n)| n^-s, and each side one final rounding.
        """
        n = np.arange(1, limit + 1, dtype=np.float64)
        w = n**-s
        terms = (1.0 - valuation2_range(limit)[1:]) * w[:-1]
        exact = math.fsum(terms.tolist())
        eps = 4 * 2.0**-53
        k = -(-limit // BLOCK) + 25 + math.ceil(math.log2(BLOCK)) + 2
        gamma = k * 2.0**-53 / (1.0 - k * 2.0**-53)
        weights = eps * (w[:-1] + w[1:]) + gamma * (w[:-1] - w[1:])
        bound = (
            math.fsum((digit_sum_range(limit, 2)[1:] * weights).tolist())
            + 2 * eps * digit_sum(limit - 1, 2) * w[-1]
            + eps * math.fsum(np.abs(terms).tolist())
            + 2 * 2.0**-53 * abs(exact)
        )
        assert abs(lambert._increment_dirichlet_partial(limit, s) - exact) <= bound
