"""Acceptance gate: each test is one shipping criterion at its stated
tolerance, time-bounded where the criterion bounds time. Run with -v for one
pass/fail line per criterion."""
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from digitsum.altsum import (
    alpha_weights,
    alpha_weights_oracle,
    alternating_sum_direct,
    alternating_sum_via_weights,
    delta_product_form,
    limit_cumulant,
    pmf_standardized_cumulant,
    standardized_cumulant,
)
from digitsum.cli import main
from digitsum.digitseq import digit_sum_range, valuation2_range
from digitsum.harness import GridSpec, emit_report, run_all, run_suite
from digitsum.identities import (
    binary_corollary_closed,
    digit_zeta_2,
    direct_digit_zeta,
    double_sum_alternate,
    finite_barnes_closed,
    finite_zeta_diff_closed,
    finite_zeta_diff_direct,
    infinite_product,
    infinite_zeta_diff,
)
from digitsum.lambert import (
    finite_gf_coefficients,
    lambert_gf,
    mobius_inverse_check,
)
from digitsum.solver import SequenceFn, solve_implicit, weighted_digit_sum
from digitsum.specfun import elliptic_K, hurwitz_zeta


def relerr(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def harmonic_pair() -> SequenceFn:
    return SequenceFn(
        eval=lambda n: 1.0 / (n * (n + 1.0)),
        decay=(1.0, 2.0),
        partial_sum=lambda a, c: 1.0 / a - 1.0 / c,
    )


def test_criterion_01_weighted_harmonic_sum_hits_b_log_b():
    for b in (2, 3, 10):
        start = time.perf_counter()
        got = weighted_digit_sum(b, harmonic_pair())
        elapsed = time.perf_counter() - start
        want = b / (b - 1.0) * math.log(b)
        assert relerr(got, want) <= 1e-8, (b, got, want)
        assert elapsed < 5.0, (b, elapsed)


def test_criterion_02_difference_series_matches_scaled_zeta():
    for p in range(2, 9):
        got = infinite_zeta_diff(2, float(p), 0.0)
        want = (1.0 - 2.0 ** (1 - p)) / (1.0 - 2.0**-p) * hurwitz_zeta(float(p), 1.0)
        assert relerr(got, want) <= 1e-9, (p, got, want)


def test_criterion_03_finite_difference_closed_form_full_grid():
    start = time.perf_counter()
    worst = 0.0
    for b in (2, 3, 5, 10):
        for p in range(1, 6):
            for alpha in (0.5, 1.0, 2.0, 2.5, 3.5):
                for z in (0.0, 0.5, 1.0, 3.75):
                    params = (b, p, alpha, z)
                    err = relerr(
                        finite_zeta_diff_closed(*params), finite_zeta_diff_direct(*params)
                    )
                    assert err <= 1e-9, (b, p, alpha, z, err)
                    worst = max(worst, err)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, elapsed
    assert worst <= 1e-9


def test_criterion_04_binary_half_shift_and_double_sum_forms():
    for p in range(1, 6):
        for alpha in (0.5, 1.0, 2.0, 2.5, 3.5):
            for z in (0.0, 0.5, 1.0, 3.75):
                direct = finite_zeta_diff_direct(2, p, alpha, z)
                assert relerr(binary_corollary_closed(p, alpha, z), direct) <= 1e-9
                assert relerr(double_sum_alternate(p, alpha, z), direct) <= 1e-9


def test_criterion_05_product_special_values():
    def family(p: int) -> float:
        return infinite_product(2, 2.0**-p) / infinite_product(2, 2.0 ** -(p + 1))

    assert relerr(family(0), math.pi / 2.0) <= 1e-8
    lemniscatic = elliptic_K(1.0 / math.sqrt(2.0)) / math.sqrt(2.0)
    assert relerr(family(1), lemniscatic) <= 1e-8


def test_criterion_06_power_series_window_exact_and_series_close():
    for b in (2, 3):
        for p in range(1, 7):
            coeffs = finite_gf_coefficients(b, p)
            want = digit_sum_range(b**p, b)
            assert len(coeffs) == b**p
            assert all(c == int(w) for c, w in zip(coeffs, want))
    cut = 900
    for b in (2, 3):
        table = digit_sum_range(cut + 1, b).astype(np.float64)
        for z in (-0.3, 0.3, 0.5, 0.9):
            partial = float(np.dot(table, z ** np.arange(cut + 1, dtype=np.float64)))
            assert relerr(lambert_gf(b, z), partial) <= 1e-9, (b, z)


def test_criterion_07_one_step_increment_and_factorial_valuation():
    n_max = 1_000_000
    start = time.perf_counter()
    s = digit_sum_range(n_max + 1, 2)
    nu = valuation2_range(n_max + 1)
    # s(n) - s(n-1) + v(n) == 1 for every n >= 1
    assert np.array_equal(s[1:] - s[:-1] + nu[1:], np.ones(n_max, dtype=nu.dtype))
    # v(n!) + s(n) == n for every n >= 1
    assert np.array_equal(np.cumsum(nu[1:]) + s[1:], np.arange(1, n_max + 1))
    assert time.perf_counter() - start < 10.0


def test_criterion_08_divisor_inversion_and_partition_convolution():
    assert mobius_inverse_check(10_000) == []
    reports = run_suite(GridSpec("partition-conv", {"n_max": [200]})).reports
    assert reports and all(r.passed and r.rel_err == 0.0 for r in reports)


def test_criterion_09_weight_tables_exact():
    assert alpha_weights(1).alpha == (1, 1)
    assert alpha_weights(2).alpha == (1, 2, 2, 2, 1)
    assert alpha_weights(3).alpha == (1, 3, 5, 7, 8, 8, 8, 8, 7, 5, 3, 1)
    for N in range(0, 11):
        assert alpha_weights(N).alpha == alpha_weights_oracle(N).alpha
    for N in range(0, 21):
        assert sum(alpha_weights(N).alpha) == 2 ** (N * (N + 1) // 2)


def test_criterion_10_three_route_agreement_and_closed_polynomials():
    f = lambda t: 1.0 / (t + 0.7)
    for N in range(1, 11):
        for x in (0.0, 0.3):
            direct = alternating_sum_direct(f, x, N)
            product = delta_product_form(f, x, N)
            weighted = alternating_sum_via_weights(f, x, N)
            plain = max(sum(abs(f(x + n)) for n in range(2**N)), 1.0)
            table = alpha_weights(N - 1).alpha
            heavy = max(
                sum(
                    a * sum(math.comb(N, l) * abs(f(x + k + l)) for l in range(N + 1))
                    for k, a in enumerate(table)
                ),
                plain,
            )
            assert abs(direct - product) <= 1e-9 * plain, (N, x)
            assert abs(direct - weighted) <= 1e-9 * heavy, (N, x)
    for N in range(1, 11):
        monomial = alternating_sum_via_weights(lambda t: t**N, Fraction(0), N)
        assert monomial == (-1) ** N * 2 ** (N * (N - 1) // 2) * math.factorial(N)
        x = Fraction(3, 7)
        next_power = alternating_sum_via_weights(lambda t: t ** (N + 1), x, N)
        want = (
            (-1) ** N
            * math.factorial(N + 1)
            * 2 ** (N * (N - 1) // 2)
            * (x + Fraction(2**N - 1, 2))
        )
        assert next_power == want


def test_criterion_11_window_solver_worked_example_and_random_windows():
    # p = 4, g(m) = 2^m makes every contribution a distinct bit, so each
    # solved value pins down its exact term set
    g = SequenceFn(eval=lambda m: 2**m, support_bound=16)
    expected_terms = {
        1: list(range(1, 16)),
        2: [2, 4, 5, 8, 9, 10, 11],
        3: [3, 6, 7, 12, 13, 14, 15],
        4: [4, 8, 9],
        5: [5, 10, 11],
        6: [6, 12, 13],
        7: [7, 14, 15],
    }
    expected_terms.update({n: [n] for n in range(8, 16)})
    for n, terms in expected_terms.items():
        assert solve_implicit(2, g, n) == sum(2**m for m in terms), n
    rng = random.Random(11)
    for p in (5, 9, 12):
        values = [Fraction(rng.randrange(-99, 100), rng.randrange(1, 60)) for _ in range(2**p)]
        g_rand = SequenceFn(eval=lambda m: values[m], support_bound=2**p)
        s = digit_sum_range(2**p, 2)
        direct = sum(int(s[n]) * values[n] for n in range(1, 2**p))
        assert weighted_digit_sum(2, g_rand) == direct, p


def test_criterion_12_plain_kernel_finite_closed_form():
    for b in (2, 3):
        for p in (1, 2, 3):
            for alpha in (2.5, 3.0, 4.0):
                for z in (0.0, 0.5, 1.0):
                    closed = finite_barnes_closed(b, p, alpha, z)
                    top = b**p
                    s = digit_sum_range(top, b).astype(np.float64)
                    n = np.arange(top, dtype=np.float64)
                    direct = float(np.dot(s[1:], (n[1:] + z) ** -alpha))
                    assert relerr(closed, direct) <= 1e-8, (b, p, alpha, z)
    for alpha in (2.5, 3.0, 4.0):
        for z in (0.0, 0.5, 1.0):
            got = finite_barnes_closed(2, 1, alpha, z)
            assert relerr(got, (1.0 + z) ** -alpha) <= 1e-12, (alpha, z)


def test_criterion_13_quadratic_kernel_against_ten_million_terms():
    for b in (2, 3):
        for z in (0.25, 1.0, 2.0):
            closed = digit_zeta_2(b, z)
            mid, half = direct_digit_zeta(b, 2.0, z, 10_000_000)
            assert half < 1e-4
            assert abs(closed - mid) <= 1e-4, (b, z, closed, mid)


def test_criterion_14_cumulants_closed_form_and_limit():
    for N in range(1, 13):
        assert standardized_cumulant(N, 2) == 1.0
    for N in range(1, 9):
        for order in (2, 4, 6, 8):
            got = standardized_cumulant(N, order)
            want = float(pmf_standardized_cumulant(N, order))
            assert relerr(got, want) <= 1e-10, (N, order)
    assert limit_cumulant(4) == -0.72
    assert abs(standardized_cumulant(14, 4) - (-0.72)) <= 1e-3


def test_criterion_15_full_verification_is_deterministic(tmp_path):
    start = time.perf_counter()
    runner = CliRunner()
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    for out in (first, second):
        result = runner.invoke(main, ["verify", "--suite", "all", "--out", str(out)])
        assert result.exit_code == 0, result.output
    blob = first.read_bytes()
    assert blob == second.read_bytes()
    assert blob == emit_report(run_all(), "json")
    summary = json.loads(blob)["summary"]
    assert summary["fail"] == 0
    assert time.perf_counter() - start < 600.0
