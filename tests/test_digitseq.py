"""Integer sequence layer: exact values and structural invariants."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsum import digitseq
from digitsum.digitseq import (
    _MULTIPLY_MAX_ORDER,
    _block_length,
    _difference_weight,
    _inverse_power,
    _power_weight,
    digit_sum,
    digit_sum_range,
    digit_weighted_sum,
    delta_digit_sum,
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
        """w = 1 and w = n, and w = n + 0.5 at the shift 0.5, where m + 0.5 is
        exact: every partial sum is a multiple of 1/2 below 2^52, so exact."""
        block = _block_length(b)
        for limit in (1, 2, block - 1, block, block + 1, 2 * block + 7, 12345, 10**6):
            s = digit_sum_range(limit, b)
            n = np.arange(limit, dtype=np.int64)
            assert digit_weighted_sum(limit, b, _fill_ones, 0.0) == int(s.sum()), (b, limit)
            # b = 70001 at 10^6: sum s(n) n is about 1.7e16 > 2^53, past exact doubles
            if b != 70001 or limit < 10**6:
                dot = int(np.dot(s, n))
                assert digit_weighted_sum(limit, b, _fill_n, 0.0) == dot, (b, limit)
                shifted = Fraction(digit_weighted_sum(limit, b, _fill_n, 0.5))
                assert shifted == Fraction(2 * dot + int(s.sum()), 2), (b, limit)

    @pytest.mark.parametrize("b", [2, 3])
    def test_shifted_float_weights_within_bound(self, b):
        """w(x) = x^-2 at the shift 0.1: fill gets x = fl(fl(m + 0.1) + cB), and the
        sum stays within the docstring bound of fsum over the weights of those x."""
        limit = 10**6
        block = _block_length(b)
        index = np.arange(limit)
        x = ((index % block).astype(np.float64) + 0.1) + (index // block * block).astype(np.float64)
        handed = np.full(limit, np.nan)

        def fill(y, out):
            start = int(y[0])
            handed[start : start + y.size] = y
            _inverse_power(y, 2.0, out)

        got = digit_weighted_sum(limit, b, fill, 0.1)
        assert np.array_equal(handed[1:], x[1:])
        terms = (digit_sum_range(limit, b)[1:] * (1.0 / (x[1:] * x[1:]))).tolist()
        exact = math.fsum(terms)
        scale = math.fsum(map(abs, terms))
        k = -(-limit // block) + 25 + math.ceil(math.log2(block)) + 1 + 2
        assert abs(got - exact) <= k * 2.0**-53 / (1.0 - k * 2.0**-53) * scale

    def test_block_length(self):
        assert [_block_length(b) for b in (2, 3, 10, 16, 256, 257, 70001)] == [
            2**15, 3**9, 10**4, 16**3, 256, 257, 70001
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
        assert abs(digit_weighted_sum(limit, b, fill, 0.0) - exact) <= bound

    def test_skips_zero(self):
        # w(0) = inf would poison the sum if n = 0 were filled
        def fill(n, out):
            np.divide(1.0, n, out=out)

        assert digit_weighted_sum(2, 2, fill, 0.0) == 1.0

    @pytest.mark.parametrize("k", range(1, _MULTIPLY_MAX_ORDER + 1))
    def test_integer_order_weights_within_float64_bound(self, k):
        """Each term within (k + 1) 2^-53 of s(n) x^-k, which k 2^-52 covers."""
        limit, b = 10**6, 3

        def fill(n, out):
            n += 0.5
            _inverse_power(n, float(k), out)

        # libm pow is within one ulp of x^-k; fsum adds the terms exactly rounded
        terms = digit_sum_range(limit, b)[1:] * np.arange(1.5, limit, dtype=np.float64) ** -k
        exact = math.fsum(terms.tolist())
        block = _block_length(b)
        bound = (block + -(-limit // block) + k + 2) * 2.0**-52 * exact
        assert abs(digit_weighted_sum(limit, b, fill, 0.0) - exact) <= bound

    @pytest.mark.parametrize("limit, b", [(0, 2), (-3, 2), (10, 1), (10, 0)])
    def test_rejects_bad_arguments(self, limit, b):
        with pytest.raises(ValueError):
            digit_weighted_sum(limit, b, _fill_ones, 0.0)

    @pytest.mark.parametrize("b", [2, 3, 10])
    def test_fill_gets_64_byte_aligned_rows(self, b):
        """Every row starts on a 64-byte boundary; block 0 is handed from n = 1 on,
        then the blocks c >= 1 by s_b(c), and by c within one digit sum."""
        block = _block_length(b)
        limit = 3 * block + 5
        starts = []

        def fill(n, out):
            # the row's m = 0 slot sits (n[0] mod B) doubles before n[0]
            offset = 8 * (int(n[0]) % block)
            starts.append(int(n[0]))
            assert (n.ctypes.data - offset) % 64 == 0, (b, int(n[0]))
            assert (out.ctypes.data - offset) % 64 == 0, (b, int(n[0]))
            out[...] = 1.0

        assert digit_weighted_sum(limit, b, fill, 0.0) == int(digit_sum_range(limit, b).sum())
        order = sorted(range(1, 4), key=lambda c: (digit_sum(c, b), c))
        assert starts == [1] + [c * block for c in order]
        assert order == ([1, 3, 2] if b == 3 else [1, 2, 3])

    @pytest.mark.parametrize("b", [2, 3, 10])
    def test_reads_no_unwritten_buffer_memory(self, b, monkeypatch):
        """With the buffers poisoned by nan, only a read of a slot that was never
        written (acc[0], or a stale tail of w) can reach the sum."""
        rows = digitseq._aligned_rows

        def poisoned(count, size):
            out = rows(count, size)
            out[...] = np.nan
            return out

        monkeypatch.setattr(digitseq, "_aligned_rows", poisoned)
        block = _block_length(b)
        for limit in (1, 2, block - 1, block, block + 1, 2 * block + 7):
            want = int(digit_sum_range(limit, b).sum())
            assert digit_weighted_sum(limit, b, _fill_ones, 0.0) == want, (b, limit)

    @pytest.mark.parametrize("b", [2, 3])
    def test_float_weights_over_many_blocks(self, b):
        """About 4e6 signed terms against math.fsum of the same terms.

        The kernel visits the C blocks grouped by s_b(c) and sums each
        position over a group's blocks in a group row.  When a group ends it
        reduces that row pairwise, times s_b(c), into a running scalar and adds
        the row to the position sums, which it multiplies once by s_b(m) and
        reduces pairwise at the end.  A term takes at most C - 1 roundings
        outside the pairwise sums (see the ``digit_weighted_sum`` docstring).
        numpy's pairwise sum takes an element through at most 25 roundings in
        a leaf of 128 terms (8 partial sums of 16, joined in 3, then 7
        stragglers) and one per halving above it, so d = 25 + log2(B) bounds
        its depth.  The kernel is then within gamma_(C + d + 1) sum s(n)|w(n)|
        of the exact sum of its doubles, and the reference fsum of the rounded
        products s(n) w(n) within 2 * 2^-53 of the same scale.
        """
        limit = 4 * 10**6
        block = _block_length(b)
        weights = np.empty(limit)

        def fill(n, out):
            start = int(n[0])
            np.cos(n, out=out)
            n += 0.5
            out /= n
            weights[start : start + n.size] = out

        got = digit_weighted_sum(limit, b, fill, 0.0)
        s = digit_sum_range(limit, b)

        def terms():  # one block of Python floats at a time
            for i in range(1, limit, block):
                yield from (s[i : i + block] * weights[i : i + block]).tolist()

        exact = math.fsum(terms())
        scale = math.fsum(map(abs, terms()))
        depth = 25 + math.ceil(math.log2(block))
        k = -(-limit // block) + depth + 1 + 2
        bound = k * 2.0**-53 / (1.0 - k * 2.0**-53) * scale
        assert abs(got - exact) <= bound


def _power_bases() -> np.ndarray:
    """Seeded x in [1, 10^7] at four shifts, and four edge doubles."""
    n = np.random.default_rng(20171).integers(1, 10**7, size=400).astype(np.float64)
    shifted = [n + shift for shift in (0.0, 0.25, 0.7, 1e-10)]
    # 2^52 + 0.5 rounds to 2^52 and 1 + 1e-10 to 1 + 1.0000000827e-10: the
    # references below use these doubles, not the decimal literals
    edges = np.array([2.0**52 + 0.5, 1.0 + 1e-10, 1.0, 1e7])
    return np.concatenate([*shifted, edges])


class TestInversePower:
    """x^-alpha by multiplies and one reciprocal, or by np.power."""

    @pytest.mark.parametrize("k", range(1, _MULTIPLY_MAX_ORDER + 1))
    def test_integer_orders_within_rounding_bound(self, k):
        # binary powering rounds at most k - 1 times and the reciprocal once:
        # k 2^-53 to first order, so k 2^-52 bounds the relative error
        x = _power_bases()
        out = np.empty_like(x)
        _inverse_power(x, float(k), out)
        for value, got in zip(x.tolist(), out.tolist()):
            want = Fraction(value) ** -k
            assert abs(Fraction(got) - want) <= k * 2.0**-52 * want, (k, value)

    def test_accepts_an_integer_typed_order(self):
        x = _power_bases()
        want, got = np.empty_like(x), np.empty_like(x)
        _inverse_power(x, 2.0, want)
        _inverse_power(x, 2, got)
        assert want.tobytes() == got.tobytes()

    @pytest.mark.parametrize(
        "alpha", [0.5, 2.5, 3.5, -1.0, 0.0, float(_MULTIPLY_MAX_ORDER + 1), 8.0]
    )
    def test_other_orders_are_np_power_bitwise(self, alpha):
        x = _power_bases()
        out = np.empty_like(x)
        _inverse_power(x, alpha, out)
        assert out.tobytes() == np.power(x, -alpha).tobytes()

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 2.5, 4.0, 5.0])
    def test_out_may_alias_x(self, alpha):
        x = _power_bases()
        want = np.empty_like(x)
        _inverse_power(x, alpha, want)
        _inverse_power(x, alpha, x)
        assert x.tobytes() == want.tobytes()

    def test_odd_order_rejects_an_aliased_out(self):
        # x^3 = x^2 x needs x after x^2 is written
        x = _power_bases()
        with pytest.raises(ValueError):
            _inverse_power(x, 3.0, x)
        with pytest.raises(ValueError):
            _inverse_power(x[1:], 3.0, x[:-1])

    def test_odd_order_into_a_disjoint_slice_of_one_buffer(self):
        x = _power_bases()
        buf = np.concatenate([x, np.empty_like(x)])
        _inverse_power(buf[: x.size], 3.0, buf[x.size :])
        want = np.empty_like(x)
        _inverse_power(x, 3.0, want)
        assert buf[x.size :].tobytes() == want.tobytes()


def _two_power_fill(alpha):
    """w(x) - w(x + 1) with both powers taken over the whole row."""

    def fill(x, out):
        later = np.empty_like(x)
        _inverse_power(x, alpha, out)
        x += 1.0
        _inverse_power(x, alpha, later)
        out -= later

    return fill


def _kernel_rows(limit, b, shift):
    """Copies of the rows x that digit_weighted_sum hands its fill."""
    rows = []

    def record(x, out):
        rows.append(x.copy())
        out[...] = 0.0

    digit_weighted_sum(limit, b, record, shift)
    return rows


def _fill_row(fill, x):
    out = np.empty_like(x)
    fill(x.copy(), out)
    return out


class TestWeights:
    """The power and forward-difference fills of digit_weighted_sum."""

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 2.5, 3.0])
    def test_power_weight_is_inverse_power(self, alpha):
        x = _power_bases()
        want = np.empty_like(x)
        _inverse_power(x, alpha, want)
        assert _fill_row(_power_weight(alpha), x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 2.5, 3.0])
    @pytest.mark.parametrize("shift", [0.0, 0.25, 0.5])
    @pytest.mark.parametrize("b", [2, 3, 10])
    def test_difference_is_the_two_power_fill_at_dyadic_shifts(self, b, shift, alpha):
        """Each row bit for bit, and so the sum: fl(x[i] + 1) = x[i + 1] here."""
        block = _block_length(b)
        for limit in (block - 1, block, block + 1, 6 * block + 5):
            for x in _kernel_rows(limit, b, shift):
                got = _fill_row(_difference_weight(alpha), x)
                assert got.tobytes() == _fill_row(_two_power_fill(alpha), x).tobytes()
            got = digit_weighted_sum(limit, b, _difference_weight(alpha), shift)
            want = digit_weighted_sum(limit, b, _two_power_fill(alpha), shift)
            assert got.hex() == want.hex(), (limit, got, want)

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 2.5, 3.0])
    @pytest.mark.parametrize("shift", [0.3, 1.0 / 3.0, 1e-10])
    @pytest.mark.parametrize("b", [2, 3, 10])
    def test_difference_near_the_two_power_fill_elsewhere(self, b, shift, alpha):
        """x[i + 1] stands in for fl(x[i] + 1).  Each is within 5 2^-53
        relative of n + shift + 1 (x carries two roundings from fl(m + shift)
        and the block offset, the +1 one more), so w differs between them by
        at most 5 alpha 2^-53 relative to first order.  Each power rounds
        within 4 2^-53 (k 2^-53 for the multiplied orders k <= 4, an ulp for
        np.power) and each subtraction once, so a weight moves by at most
        (5 alpha + 8) 2^-53 w(x[i + 1]) + 2^-53 (|new| + |old|).  At 0.3
        every row happens to give fl(x[i] + 1) = x[i + 1]; 1/3 and 1e-10 do not.
        """
        rows = _kernel_rows(6 * _block_length(b), b, shift)
        assert any(np.any(x[1:] != x[:-1] + 1.0) for x in rows) == (shift != 0.3)
        for x in rows:
            new = _fill_row(_difference_weight(alpha), x)
            old = _fill_row(_two_power_fill(alpha), x)
            after = np.append(x[1:], x[-1] + 1.0) ** -alpha
            bound = (5 * alpha + 8) * 2.0**-53 * after + 2.0**-53 * (abs(new) + abs(old))
            assert np.all(np.abs(new - old) <= 1.01 * bound), (b, shift, alpha)

    def test_difference_of_an_empty_row_is_empty(self):
        # block 0 of a one-term limit hands the fill an empty row
        assert _fill_row(_difference_weight(3.0), np.empty(0)).size == 0
        assert digit_weighted_sum(1, 2, _difference_weight(3.0), 0.0) == 0.0
