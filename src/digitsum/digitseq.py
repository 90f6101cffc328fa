"""Digit-sum sequences and 2-adic companions.

Integer-exact building blocks: base-b digit sums, digit counts, 2-adic
valuations, the Thue-Morse sign, and the classical factorial-valuation
identities that tie them together.  Everything here works on arbitrary-size
Python integers; the vectorized range helpers use numpy int64 and are only
meant for the bulk scans in the verification harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "digit_sum",
    "digit_count",
    "valuation2",
    "delta_digit_sum",
    "thue_morse_sign",
    "power2_indicator",
    "LegendreChecks",
    "legendre_checks",
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


def digit_count(n: int, b: int = 2) -> int:
    """Number of base-b digits of n, i.e. floor(log_b n) + 1.

    Computed by repeated division; float log would round wrong at exact
    powers of b.
    """
    if n < 1:
        raise ValueError("digit_count requires n >= 1")
    if b < 2:
        raise ValueError("digit_count requires base >= 2")
    d = 0
    while n:
        n //= b
        d += 1
    return d


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


@dataclass(frozen=True)
class LegendreChecks:
    """Outcome of the two factorial-valuation identities at a single n."""

    n: int
    lhs_valuation_identity: bool  # delta_digit_sum(n-1, 2) + valuation2(n) == 1
    lhs_factorial_identity: bool  # valuation2(n!) + digit_sum(n, 2) == n


def legendre_checks(n: int) -> LegendreChecks:
    """Check the valuation difference identity and Legendre's formula at n.

    valuation2(n!) is accumulated as sum(valuation2(k) for k <= n), not via
    n - digit_sum(n, 2), so the second check is non-circular.
    """
    if n < 1:
        raise ValueError("legendre_checks requires n >= 1")
    val_identity = delta_digit_sum(n - 1, 2) + valuation2(n) == 1
    v_factorial = sum(valuation2(k) for k in range(1, n + 1))
    fact_identity = v_factorial + digit_sum(n, 2) == n
    return LegendreChecks(n, val_identity, fact_identity)


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


# A weighted-sum block holds at most this many terms: enough to spread numpy's
# per-call cost over many terms, few enough that the block buffers stay in
# cache instead of paging in limit-length arrays.
_BLOCK_CAP = 2**16


def _block_length(b: int) -> int:
    """B = the largest power of b that is <= _BLOCK_CAP, and at least b."""
    block = b
    while block * b <= _BLOCK_CAP:
        block *= b
    return block


def digit_weighted_sum(
    limit: int, b: int, fill: Callable[[np.ndarray, np.ndarray], None]
) -> float:
    """sum_{1 <= n < limit} s_b(n) w(n), one block of B = b^k terms at a time.

    ``fill(n, out)`` writes w(n) into ``out`` for a float64 array ``n`` of
    consecutive integers; both arrays have the same length, at most B.  The
    digit sums come from the block identity s_b(cB + m) = s_b(c) + s_b(m)
    for m < B: s_b(m) is built once, s_b(c) once per block index, so no
    array of length ``limit`` is ever formed.  Each block adds one
    ``np.dot`` to a Python float; n and s are exact in float64 (n < 2^53),
    so each term is the double the whole-range expression gives, and only
    the order of summation differs.
    """
    if limit < 1:
        raise ValueError("digit_weighted_sum requires limit >= 1")
    if b < 2:
        raise ValueError("digit_weighted_sum requires base >= 2")
    block = _block_length(b)
    size = min(block, limit)  # below one block, buffers of length limit do
    low = digit_sum_range(size, b).astype(np.float64)
    high = digit_sum_range(-(-limit // block), b).tolist()
    m = np.arange(size, dtype=np.float64)
    n, w, s = np.empty(size), np.empty(size), np.empty(size)
    total = 0.0
    for c, s_high in enumerate(high):
        start = c * block
        first = 1 if c == 0 else 0  # the sum starts at n = 1, where w may first be finite
        stop = min(size, limit - start)
        np.add(m[first:stop], start, out=n[first:stop])
        fill(n[first:stop], w[first:stop])
        np.add(low[first:stop], s_high, out=s[first:stop])
        total += float(np.dot(s[first:stop], w[first:stop]))
    return total


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
