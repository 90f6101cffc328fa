"""Digit-sum sequences and 2-adic companions.

Integer-exact building blocks: base-b digit sums, 2-adic valuations and
the Thue-Morse sign.  Everything here works on arbitrary-size Python
integers; the vectorized range helpers use numpy int64 and are only
meant for the bulk scans in the verification harness.
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable

import numpy as np

__all__ = [
    "digit_sum",
    "valuation2",
    "delta_digit_sum",
    "thue_morse_sign",
    "power2_indicator",
    "digit_sum_range",
    "digit_weighted_sum",
    "valuation2_range",
]


def digit_sum(n: int, b: int = 2) -> int:
    """Sum of the base-b digits of n (0 for n = 0)."""
    if n < 0:
        raise ValueError("digit_sum requires n >= 0")
    if b < 2:
        raise ValueError("digit_sum requires base >= 2")
    total = 0
    while n:
        n, r = divmod(n, b)
        total += r
    return total


def valuation2(n: int) -> int:
    """2-adic valuation: the largest e with 2^e dividing n (n >= 1)."""
    if n < 1:
        raise ValueError("valuation2 requires n >= 1")
    # int.bit_length-free formulation: (n & -n) isolates the lowest set bit
    return (n & -n).bit_length() - 1


def delta_digit_sum(n: int, b: int = 2) -> int:
    """First difference digit_sum(n+1, b) - digit_sum(n, b)."""
    return digit_sum(n + 1, b) - digit_sum(n, b)


def thue_morse_sign(n: int) -> int:
    """(-1)**digit_sum(n, 2), the +/-1 Thue-Morse sequence."""
    return -1 if digit_sum(n, 2) & 1 else 1


def power2_indicator(n: int) -> int:
    """1 if n is a power of two (n >= 1), else 0."""
    if n < 1:
        raise ValueError("power2_indicator requires n >= 1")
    return 1 if n & (n - 1) == 0 else 0


# ---------------------------------------------------------------------------
# Vectorized range scans (harness-scale bulk checks)
# ---------------------------------------------------------------------------


def digit_sum_range(limit: int, b: int = 2) -> np.ndarray:
    """Array of digit_sum(n, b) for n = 0 .. limit-1 (int64).

    Built by block recursion on the leading digit: once out[:b^k] holds
    s_b(0 .. b^k - 1), the block out[j b^k : (j+1) b^k] is out[:b^k] + j for
    each digit j = 1 .. b-1, and the last block is clipped at limit.  That
    is the definition of s_b, not a closed form, at a cost of O(limit)
    int64 adds and O(log_b limit) numpy calls.
    """
    if limit < 1:
        raise ValueError("digit_sum_range requires limit >= 1")
    if b < 2:
        raise ValueError("digit_sum_range requires base >= 2")
    out = np.zeros(limit, dtype=np.int64)
    block = 1
    while block < limit:
        # leading digits j = 1 .. rows-1 have whole blocks below limit
        rows = min(b, limit // block)
        digits = np.arange(1, rows, dtype=np.int64)[:, None]
        np.add(out[:block], digits, out=out[block : rows * block].reshape(rows - 1, block))
        # digit j = rows, if it is one, starts below limit and is clipped there
        start = rows * block
        tail = min(b * block, limit) - start
        if tail > 0:
            np.add(out[:tail], rows, out=out[start : start + tail])
        block *= b
    return out


# A weighted-sum block holds at most this many terms.  The kernel holds six
# float64 rows of one block each, and each block streams four of them (the
# position row m + shift, the points x, w and the group sums part, 32 bytes a
# term) through four numpy passes for an order-2 weight, so the cap is the
# largest power of two whose block rows fit a 2 MB per-core L2 with room to
# spare: 2^15 terms are 1 MB, 2^16 are 2 MB.  A smaller cap lets the
# per-block Python cost take over.
# direct_digit_zeta(b, 2.0, 0.5, 10^7) for b = 2 and 3, median of 15
# interleaved runs (numpy 2.4, a 2-core x86-64 VM with 2 MB L2 per core):
# 2^13 26 and 28 ms, 2^14 21 and 27 ms, 2^15 20 and 21 ms, 2^16 26 and
# 25 ms, 2^17 35 and 25 ms.  The 200k-term oracles take 0.9-1.1 ms at 2^15
# and 1.4 ms at 2^16.
_BLOCK_CAP = 2**15


def _block_length(b: int) -> int:
    """B = the largest power of b that is <= _BLOCK_CAP, and at least b."""
    block = b
    while block * b <= _BLOCK_CAP:
        block *= b
    return block


def digit_weighted_sum(
    limit: int,
    b: int,
    fill: Callable[[np.ndarray, np.ndarray], None],
    shift: float,
) -> float:
    """sum_{1 <= n < limit} s_b(n) w(n + shift), one block of B = b^k terms at a time.

    ``fill(x, out)`` writes w(x) into ``out`` for the float64 array x of the
    shifted points n + shift of consecutive integers n; both arrays have the
    same length, at most B, and ``fill`` may use x as scratch, since the kernel
    rewrites it for every block.  Each array starts on a 64-byte boundary,
    except that block 0 starts at n = 1, 8 bytes in.  With n = cB + m, m < B,
    the kernel builds the row pos[m] = fl(m + shift) once and hands block c
    x = fl(pos + cB): one rounding more than fl(n + shift), and none when m +
    shift is exact, as for shift 0 or a dyadic shift such as 0.25.

    The digit sums split as s_b(n) = s_b(c) + s_b(m), so the sum is
    sum_m s_b(m) acc[m] + sum_c s_b(c) W_c, with acc[m] = sum_c w(cB + m) and
    W_c = sum_m w(cB + m): no product s w is formed per term and no array of
    length ``limit`` is held.  Block 0 writes acc.  The blocks c >= 1 are
    visited grouped by k = s_b(c), k ascending, and c ascending within a group;
    each block adds its w to the group's row part.  When group k ends, k times
    the pairwise ``np.add.reduce`` of part goes to a scalar and part is added to
    acc.  At the end acc is multiplied by s_b(m) and reduced pairwise once.
    cB and the digit sums are exact in float64 (n < 2^53).  A term in a group
    of C_k blocks takes at most C_k - 1 roundings in part, then one for each
    group from its own on, in acc or in the scalar; no group is empty, so that
    is at most C - 1 in all.  So the result is within gamma_(C + d + 1)
    sum s_b(n) |w| of the exact sum over the doubles w, for C blocks and d the
    most roundings on one term's path through a pairwise sum of B terms.  No
    sum goes through the BLAS, so the result does not depend on its threads.
    """
    if limit < 1:
        raise ValueError("digit_weighted_sum requires limit >= 1")
    if b < 2:
        raise ValueError("digit_weighted_sum requires base >= 2")
    block = _block_length(b)
    size = min(block, limit)  # below one block, rows of length limit do
    low, pos, x, w, part, acc = _aligned_rows(6, size)
    low[...] = digit_sum_range(size, b)
    pos[...] = np.arange(size, dtype=np.float64)
    pos += shift
    high = digit_sum_range(-(-limit // block), b).tolist()
    # block 0: s_b(c) = 0, and the sum starts at n = 1, where w may first be finite
    np.copyto(x[1:], pos[1:])
    fill(x[1:], acc[1:])
    acc[0] = 0.0  # its slot is unwritten memory, and s_b(0) = 0 keeps it out of the sum
    total = 0.0
    for k, group in groupby(sorted(range(1, len(high)), key=high.__getitem__), high.__getitem__):
        part[...] = 0.0
        for c in group:
            start = c * block
            stop = min(size, limit - start)
            np.add(pos[:stop], start, out=x[:stop])
            fill(x[:stop], w[:stop])
            part[:stop] += w[:stop]
        total += k * float(np.add.reduce(part))
        acc += part
    acc *= low
    return float(np.add.reduce(acc)) + total


def _aligned_rows(rows: int, size: int) -> np.ndarray:
    """rows float64 rows of length size, each starting on a 64-byte boundary,
    carved from one uninitialized allocation."""
    stride = -(-size // 8) * 8
    raw = np.empty(rows * stride + 7)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip : skip + rows * stride].reshape(rows, stride)[:, :size]


# Integer orders k up to this are built by _inverse_power with multiplies and
# one reciprocal.  Per term, on blocks of 2^16 (numpy 2.4, a 2-core x86-64
# VM), k = 1, 2, 3, 4 cost 0.9, 1.6, 1.9 and 1.9 ns, where np.power (libm
# pow) costs 1.7 ns for k = 1 and 4.2-4.5 ns for every other order.  Each
# further order adds a rounding to the k 2^-53 error bound, and the grids use
# no integer order above 4.
_MULTIPLY_MAX_ORDER = 4


def _inverse_power(x: np.ndarray, alpha: float, out: np.ndarray) -> None:
    """out = x ** -alpha elementwise, for float64 arrays of one shape.

    A positive integer order k <= _MULTIPLY_MAX_ORDER is built by binary
    powering, one squaring per bit of k after the leading one and a multiply
    by x for each of those bits that is set, and then one reciprocal.  That
    is k roundings at most, so out is within k 2^-53 relative (plus
    second-order terms) of the exact power of the double x.  Every other
    order goes to np.power.  out may be x unless k has a set bit below its
    leading one (k = 3 here): that bit multiplies by x after out is written,
    so such a call raises.
    """
    order = float(alpha)
    k = int(order) if order.is_integer() else 0
    if not 1 <= k <= _MULTIPLY_MAX_ORDER:
        np.power(x, -order, out=out)
        return
    bits = bin(k)[3:]
    if "1" in bits and np.shares_memory(x, out):
        raise ValueError(f"order {k} needs x kept: out must not share memory with x")
    power = x
    for bit in bits:
        np.multiply(power, power, out=out)
        power = out
        if bit == "1":
            np.multiply(out, x, out=out)
    np.divide(1.0, power, out=out)


def _power_weight(alpha: float) -> Callable[[np.ndarray, np.ndarray], None]:
    """The digit_weighted_sum fill w(x) = x^-alpha, by _inverse_power."""

    def fill(x, out):
        _inverse_power(x, alpha, out)

    return fill


def _difference_weight(alpha: float) -> Callable[[np.ndarray, np.ndarray], None]:
    """The digit_weighted_sum fill w(x) - w(x + 1), w(x) = x^-alpha, at one power a term.

    The kernel hands consecutive points, so the power at x[i + 1] stands in for
    the one at fl(x[i] + 1); only the last point's comes from one more
    _inverse_power call, on a one-element array, so that np.power orders take
    the same numpy routine as the row.  Where fl(x[i] + 1) = x[i + 1], as at
    shift 0 or a dyadic shift, each weight is bit for bit fl(w(x) - w(fl(x + 1)))
    with both powers taken by _inverse_power.  At any other shift both points
    are within 5 2^-53 relative of n + shift + 1 (x carries the roundings of
    m + shift and of the block offset, the +1 one more), so w there differs by
    at most about 5 alpha 2^-53 relative.
    """

    def fill(x, out):
        # x is empty for a one-term limit, and then so is every slice below
        edge = np.empty_like(x[-1:])
        _inverse_power(x[-1:] + 1.0, alpha, edge)
        _inverse_power(x, alpha, out)
        out[:-1] -= out[1:]
        out[-1:] -= edge

    return fill


def valuation2_range(limit: int) -> np.ndarray:
    """Array v with v[n] = valuation2(n) for n = 1 .. limit-1 and v[0] = 0."""
    if limit < 1:
        raise ValueError("valuation2_range requires limit >= 1")
    v = np.zeros(limit, dtype=np.int64)
    step = 2
    while step < limit:
        v[step::step] += 1
        step *= 2
    return v
