"""Integer sequence layer: exact values and structural invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsum.digitseq import (
    _block_length,
    digit_count,
    digit_sum,
    digit_sum_range,
    digit_weighted_sum,
    delta_digit_sum,
    legendre_checks,
    power2_indicator,
    thue_morse_sign,
    valuation2,
    valuation2_range,
)


class TestDigitSum:
    def test_first_sixteen_binary_values(self):
        """Classical head of the binary digit-sum sequence."""
        expected = [0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4]
        assert [digit_sum(n, 2) for n in range(16)] == expected

    def test_zero_has_empty_expansion(self):
        assert digit_sum(0, 10) == 0

    def test_decimal_digits(self):
        assert digit_sum(1234, 10) == 10

    def test_arbitrary_size_integers(self):
        # 10**50 has a single nonzero digit in base 10
        assert digit_sum(10**50, 10) == 1
        assert digit_sum(2**200 - 1, 2) == 200

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            digit_sum(-1, 2)
        with pytest.raises(ValueError):
            digit_sum(3, 1)

    @given(st.integers(min_value=0, max_value=10**5 - 1), st.sampled_from([2, 3, 10]))
    def test_recurrence_all_residues(self, n, b):
        """digit_sum(b*n + j) == digit_sum(n) + j for every digit j."""
        base_value = digit_sum(n, b)
        for j in range(b):
            assert digit_sum(b * n + j, b) == base_value + j


class TestDigitCount:
    def test_binary_examples(self):
        assert digit_count(7, 2) == 3
        assert digit_count(8, 2) == 4

    def test_decimal_example(self):
        assert digit_count(100, 10) == 3

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            digit_count(0, 2)

    @given(st.integers(min_value=1, max_value=10**30), st.sampled_from([2, 3, 10]))
    def test_unique_bracketing_power(self, n, b):
        """digit_count(n, b) is the unique d with b^(d-1) <= n < b^d."""
        d = digit_count(n, b)
        assert b ** (d - 1) <= n < b**d

    def test_exact_powers_not_off_by_one(self):
        # exact powers are the float-log failure mode; must be exact here
        for e in [10, 48, 53, 100]:
            assert digit_count(2**e, 2) == e + 1
            assert digit_count(2**e - 1, 2) == e


class TestValuation2:
    def test_examples(self):
        assert valuation2(48) == 4
        assert valuation2(1) == 0
        assert valuation2(2**30) == 30

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            valuation2(0)

    @given(st.integers(min_value=1, max_value=10**18))
    def test_divides_and_next_power_does_not(self, n):
        e = valuation2(n)
        assert n % 2**e == 0
        assert n % 2 ** (e + 1) != 0


class TestDeltaDigitSum:
    def test_examples(self):
        assert delta_digit_sum(5, 2) == 0
        assert delta_digit_sum(0, 2) == 1
        assert delta_digit_sum(7, 2) == -2

    @given(st.integers(min_value=1, max_value=10**6))
    def test_binary_delta_is_one_minus_valuation(self, n):
        """delta(n-1) + valuation2(n) == 1, the carry-count identity."""
        assert delta_digit_sum(n - 1, 2) == 1 - valuation2(n)


class TestThueMorseSign:
    def test_examples(self):
        assert thue_morse_sign(0) == 1
        assert thue_morse_sign(3) == 1
        assert thue_morse_sign(7) == -1

    @given(st.integers(min_value=0, max_value=10**6))
    def test_parity_and_sibling_flip(self, n):
        sign = thue_morse_sign(n)
        assert sign == (1 if digit_sum(n, 2) % 2 == 0 else -1)
        assert thue_morse_sign(2 * n) == -thue_morse_sign(2 * n + 1)


class TestPower2Indicator:
    def test_examples(self):
        assert power2_indicator(8) == 1
        assert power2_indicator(12) == 0
        assert power2_indicator(1) == 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            power2_indicator(0)

    @given(st.integers(min_value=0, max_value=60))
    def test_powers_and_neighbors(self, e):
        assert power2_indicator(2**e) == 1
        if e >= 2:
            assert power2_indicator(2**e + 1) == 0
            assert power2_indicator(2**e - 1) == 0


class TestLegendreChecks:
    @pytest.mark.parametrize("n", [6, 1, 1024])
    def test_examples(self, n):
        result = legendre_checks(n)
        assert result.lhs_valuation_identity
        assert result.lhs_factorial_identity

    @given(st.integers(min_value=1, max_value=3000))
    @settings(max_examples=50)
    def test_random_n(self, n):
        result = legendre_checks(n)
        assert result.lhs_valuation_identity and result.lhs_factorial_identity


class TestRangeScans:
    def test_digit_sum_range_matches_scalar(self):
        """Every entry, at limits on both sides of each block edge b^k."""
        for b in range(2, 17):
            for limit in (1, 2, b - 1, b, b + 1, b**2 - 1, b**2, b**2 + 1, b**3 + 7, 12345):
                block = digit_sum_range(limit, b)
                assert block.dtype == np.int64
                assert block.flags.c_contiguous
                assert block.tolist() == [digit_sum(n, b) for n in range(limit)], (b, limit)

    @pytest.mark.parametrize("b", [2, 3])
    def test_digit_sum_range_matches_divmod_loop(self, b):
        limit = 10**6
        # reference: one divmod pass per digit position over the whole range
        work = np.arange(limit, dtype=np.int64)
        want = np.zeros(limit, dtype=np.int64)
        while work.any():
            want += work % b
            work //= b
        assert digit_sum_range(limit, b).tobytes() == want.tobytes()

    @pytest.mark.parametrize("limit, b", [(0, 2), (-3, 2), (10, 1), (10, 0)])
    def test_digit_sum_range_rejects_bad_arguments(self, limit, b):
        with pytest.raises(ValueError):
            digit_sum_range(limit, b)

    def test_valuation2_range_matches_scalar(self):
        v = valuation2_range(4097)
        assert int(v[0]) == 0
        assert all(int(v[n]) == valuation2(n) for n in range(1, 4097))

    def test_digit_sum_from_valuation_cumsum(self):
        """digit_sum(n, 2) == n - sum_{k<=n} valuation2(k) up to 10^5."""
        limit = 10**5
        v = valuation2_range(limit + 1)
        cum = np.cumsum(v)
        s = digit_sum_range(limit + 1, 2)
        n = np.arange(limit + 1, dtype=np.int64)
        assert np.array_equal(s, n - cum)


def _fill_ones(n, out):
    out[...] = 1.0


def _fill_n(n, out):
    out[...] = n


class TestDigitWeightedSum:
    """The blocked kernel against whole-range digit sums."""

    @pytest.mark.parametrize("b", [*range(2, 17), 70001])
    def test_integer_weights_are_exact(self, b):
        """w = 1 and w = n: every partial sum is an integer below 2^53, so exact."""
        block = _block_length(b)
        for limit in (1, 2, block - 1, block, block + 1, 2 * block + 7, 12345, 10**6):
            s = digit_sum_range(limit, b)
            n = np.arange(limit, dtype=np.int64)
            assert digit_weighted_sum(limit, b, _fill_ones) == int(s.sum()), (b, limit)
            # b = 70001 at 10^6: sum s(n) n is about 1.7e16 > 2^53, past exact doubles
            if b != 70001 or limit < 10**6:
                assert digit_weighted_sum(limit, b, _fill_n) == int(np.dot(s, n)), (b, limit)

    def test_block_length(self):
        assert [_block_length(b) for b in (2, 3, 10, 16, 256, 257, 70001)] == [
            2**16, 3**10, 10**4, 16**4, 256**2, 257, 70001
        ]

    @pytest.mark.parametrize("b", [2, 3, 10, 70001])
    def test_float_weights_within_float64_bound(self, b):
        limit = 10**6

        def fill(n, out):
            np.add(n, 0.5, out=out)
            np.power(out, -2.5, out=out)

        terms = digit_sum_range(limit, b)[1:] * np.arange(1.5, limit, dtype=np.float64) ** -2.5
        exact = math.fsum(terms.tolist())
        block = _block_length(b)
        bound = (block + -(-limit // block)) * 2.0**-52 * math.fsum(np.abs(terms).tolist())
        assert abs(digit_weighted_sum(limit, b, fill) - exact) <= bound

    def test_skips_zero(self):
        # w(0) = inf would poison the sum if n = 0 were filled
        def fill(n, out):
            np.divide(1.0, n, out=out)

        assert digit_weighted_sum(2, 2, fill) == 1.0

    @pytest.mark.parametrize("limit, b", [(0, 2), (-3, 2), (10, 1), (10, 0)])
    def test_rejects_bad_arguments(self, limit, b):
        with pytest.raises(ValueError):
            digit_weighted_sum(limit, b, _fill_ones)
