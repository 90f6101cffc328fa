"""Generating functions of the digit-sum sequence and the integer sequences
tied to them: rank polynomials, a 2-adic Moebius companion, partition-count
convolutions, and a Dirichlet-series bridge.

The bridge's one brute-force sum goes through digitseq's blocked kernel, so
the module needs no numpy of its own."""
from __future__ import annotations

import math
from functools import lru_cache

from .digitseq import (
    _difference_weight,
    digit_sum,
    digit_sum_range,
    digit_weighted_sum,
    power2_indicator,
    valuation2,
)
from .specfun import _level_series

__all__ = [
    "lambert_gf",
    "lambert_gf_finite",
    "finite_gf_coefficients",
    "rankwise_coefficients",
    "mobius",
    "c_sequence",
    "mobius_inverse_check",
    "partition_convolution_check",
    "eta_dirichlet_bridge_check",
]

_PARTITION_BUDGET = 400


# ---------------------------------------------------------------------------
# Power series sum_{n>=1} s_b(n) z^n
# ---------------------------------------------------------------------------


def _rank_polynomials(b: int, u: float) -> tuple[float, float]:
    """P(u) = sum_{d<b} u^d and Q(u) = sum_{k<=b-2} (k+1) u^k, which factor the
    rank kernel (u - b u^b + (b-1) u^(b+1)) / ((1-u)(1-u^b)) as u Q(u) / P(u).

    Q goes by Horner's rule; P as (b mod 2) + (1+u) u^(b mod 2) sum_{k<b/2} u^(2k),
    whose one cancellation as u -> -1 is in 1 + u.  Int literals let a symbol u pass.
    """
    q = 0
    for k in range(b - 1, 0, -1):
        q = q * u + k
    odd, pairs = b % 2, 0
    for _ in range(b // 2):
        pairs = pairs * u * u + 1
    return odd + (1 + u) * u**odd * pairs, q


def lambert_gf(b: int, z: float) -> float:
    """sum_{n>=1} s_b(n) z^n for |z| < 1, one closed term per digit rank.

    (1/(1-z)) sum_{l>=0} u Q(u) / P(u) at u = z^(b^l), its sign from the int b^l;
    the levels decay doubly exponentially and the kernel is ~ u for small u, so
    the rest past level l is below 2 |z|^(b^(l+1)), a tail held to the relative
    rule of _level_series.
    """
    if b < 2:
        raise ValueError("base must be >= 2")
    if not abs(z) < 1.0:
        raise ValueError("lambert_gf requires |z| < 1")
    if z == 0.0:
        return 0.0

    def term(l: int) -> float:
        u = math.copysign(abs(z) ** (b**l), z if b**l % 2 else 1.0)
        P, Q = _rank_polynomials(b, u)
        return u * Q / P

    tail = lambda l, t: 2.0 * abs(z) ** (b ** (l + 1))
    return _level_series("lambert_gf", b, term, tail, 0, 0.0) / (1.0 - z)


def _poly_mul(a: list[int], c: list[int]) -> list[int]:
    out = [0] * (len(a) + len(c) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, cj in enumerate(c):
            out[i + j] += ai * cj
    return out


def rankwise_coefficients(b: int, p: int) -> list[list[int]]:
    """Exact rank polynomials: entry l holds sum_{n < b^p} digit_l(n) z^n.

    Each is the product (1 + ... + z^(b^l - 1)) (sum_j j z^(j b^l))
    (sum_m z^(m b^(l+1))); they add up to the finite generating polynomial.
    """
    if b < 2:
        raise ValueError("base must be >= 2")
    if p < 1:
        raise ValueError("p must be >= 1")
    polys = []
    for l in range(p):
        block = b**l
        lower = [1] * block
        digits = [0] * (block * (b - 1) + 1)
        for j in range(1, b):
            digits[j * block] = j
        window = [0] * (b**p - block * b + 1)
        for m in range(b ** (p - l - 1)):
            window[m * block * b] = 1
        polys.append(_poly_mul(_poly_mul(lower, digits), window))
    return polys


def finite_gf_coefficients(b: int, p: int) -> list[int]:
    """Coefficients of sum_{n=1}^{b^p-1} s_b(n) z^n from the rank expansion."""
    polys = rankwise_coefficients(b, p)
    coeffs = [0] * (b**p)
    for poly in polys:
        for n, c in enumerate(poly):
            coeffs[n] += c
    return coeffs


def lambert_gf_finite(b: int, p: int, z) -> float:
    """sum_{n=1}^{b^p-1} s_b(n) z^n, for every finite z.

    The paper's window ((1 - z^(b^p)) / (1 - z)) sum_{l<p} kernel(z^(b^l)), with
    each P(z^(b^l)) of _rank_polynomials cancelled, is the leading-digit
    recursion: s_b(d b^k + m) = d + s_b(m) for m < b^k gives
    S_(k+1) = P(u) S_k + u Q(u) W_k and W_(k+1) = P(u) W_k at u = z^(b^k), from
    S_0 = 0 and W_0 = 1.  It divides by nothing, so it holds at z = +-1 and
    |z| > 1 too.  The sign of u comes from the parity of the int b^k, its size
    from |z|^(b^k) with the exponent capped at 2^1022, where |z| < 1 gives 0.
    """
    if b < 2:
        raise ValueError("base must be >= 2")
    if p < 1:
        raise ValueError("p must be >= 1")
    zf = float(z)
    if not math.isfinite(zf):
        raise ValueError("lambert_gf_finite needs a finite z")
    total, width = 0.0, 1.0
    try:
        for k in range(p):
            u = math.copysign(abs(zf) ** min(b**k, 2**1022), zf if b**k % 2 else 1.0)
            P, Q = _rank_polynomials(b, u)
            total, width = P * total + u * Q * width, P * width
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ValueError(
            f"lambert_gf_finite: a power of z = {zf} or the sum at b = {b}, p = {p}"
            " is past the float range"
        )
    return total


# ---------------------------------------------------------------------------
# 2-adic Moebius companion sequence
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def mobius(n: int) -> int:
    """Moebius mu(n) by trial division."""
    if n < 1:
        raise ValueError("n must be >= 1")
    result = 1
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            result = -result
        d += 1 if d == 2 else 2
    if m > 1:
        result = -result
    return result


def c_sequence(n: int) -> int:
    """mu(n) for odd n, else 2^(v-1) mu(n / 2^v) with v the 2-adic valuation."""
    if n < 1:
        raise ValueError("n must be >= 1")
    v = valuation2(n)
    if v == 0:
        return mobius(n)
    return (1 << (v - 1)) * mobius(n >> v)


def mobius_inverse_check(n_max: int) -> list[int]:
    """The n <= n_max where sum_{d|n} c(n/d) * (one-step digit increment at
    d-1) misses the power-of-two indicator of n; empty when the identity holds.

    One Dirichlet-convolution sieve: each d adds c(m/d) delta(d-1) to every
    multiple m of d.  The increments delta(d-1) = s_2(d) - s_2(d-1) are read
    off the digit sums, not the closed form 1 - nu_2(d) under test.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    s = digit_sum_range(n_max + 1, 2).tolist()
    c = [0] + [c_sequence(q) for q in range(1, n_max + 1)]
    total = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        increment = s[d] - s[d - 1]
        for q in range(1, n_max // d + 1):
            total[q * d] += c[q] * increment
    return [n for n in range(1, n_max + 1) if total[n] != power2_indicator(n)]


# ---------------------------------------------------------------------------
# Partition counts and their convolution with the digit-sum increments
# ---------------------------------------------------------------------------


def _partition_tables(n_max: int) -> tuple[list[int], list[int], list[int]]:
    # parity-tracked unbounded partition DP
    even = [0] * (n_max + 1)
    odd = [0] * (n_max + 1)
    even[0] = 1
    for k in range(1, n_max + 1):
        for m in range(k, n_max + 1):
            # taking one more copy of part k flips the count parity
            even[m] += odd[m - k]
            odd[m] += even[m - k]
    # distinct-part DP carrying the running number of power-of-two parts
    count = [0] * (n_max + 1)
    weighted = [0] * (n_max + 1)
    count[0] = 1
    for k in range(1, n_max + 1):
        bonus = 1 if (k & (k - 1)) == 0 else 0
        for m in range(n_max, k - 1, -1):
            weighted[m] += weighted[m - k] + bonus * count[m - k]
            count[m] += count[m - k]
    return even, odd, weighted


def partition_convolution_check(n_max: int) -> list[int]:
    """Convolve the power-of-two part counts against the parity imbalance.

    Entry n - 1 holds sum_{k=1}^{n} P2(k) (even(n-k) - odd(n-k)) for
    n = 1 .. n_max, an exact integer that equals the one-step digit-sum
    increment at n-1 (equivalently 1 - nu_2(n)).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > _PARTITION_BUDGET:
        raise ValueError(f"partition budget is n <= {_PARTITION_BUDGET}")
    even, odd, weighted = _partition_tables(n_max)
    return [
        sum(weighted[k] * (even[n - k] - odd[n - k]) for k in range(1, n + 1))
        for n in range(1, n_max + 1)
    ]


# ---------------------------------------------------------------------------
# Dirichlet-series bridge through the alternating zeta
# ---------------------------------------------------------------------------


def _plain_zeta_tail(M: int, s: float) -> tuple[float, float]:
    """sum_{m>M} m^-s as midpoint +- half of an integral bracket."""
    direct = 0.0
    edge = M + 32
    for m in range(M + 1, edge + 1):
        direct += float(m) ** -s
    upper = float(edge) ** (1.0 - s) / (s - 1.0)
    lower = float(edge + 1) ** (1.0 - s) / (s - 1.0)
    return direct + 0.5 * (upper + lower), 0.5 * (upper - lower)


def _increment_series_tail(N: int, s: float) -> tuple[float, float]:
    """Tail of sum (1 - nu_2(n)) n^-s past n = N, via 2-adic layers."""
    mid, half = _plain_zeta_tail(N, s)
    for j in range(1, 64):
        layer_mid, layer_half = _plain_zeta_tail(N >> j, s)
        weight = 2.0 ** (-j * s)
        mid -= weight * layer_mid
        half += weight * layer_half
        if weight * (layer_mid + layer_half) < 1e-18:
            break
    return mid, half


def _increment_dirichlet_partial(limit: int, s: float) -> float:
    """sum_{1 <= n < limit} (1 - nu_2(n)) n^-s, summed by parts over the digit sums.

    1 - nu_2(n) is the increment s_2(n) - s_2(n - 1), so with L = limit the sum
    is sum_{1 <= n < L} s_2(n) [n^-s - (n+1)^-s] + s_2(L - 1) L^-s, exactly:
    the blocked kernel with the difference weight, and one boundary term.
    """
    boundary = digit_sum(limit - 1, 2) * float(limit) ** -s
    return digit_weighted_sum(limit, 2, _difference_weight(s), 0.0) + boundary


def eta_dirichlet_bridge_check(s: float, limit: int) -> tuple[float, float]:
    """The increment Dirichlet series sum_{n>=1} (1 - nu_2(n)) n^-s, which
    equals eta(s) / (1 - 2^-s), as (midpoint, half width).

    The terms below limit are summed by parts over the binary digit sums, since
    1 - nu_2(n) = s_2(n) - s_2(n - 1), in digitseq's blocked kernel; the rest is
    bracketed by integral tails over the 2-adic layers.
    """
    if not s > 1.0:
        raise ValueError("bridge check needs s > 1")
    s = float(s)
    partial = _increment_dirichlet_partial(limit, s)
    tail_mid, tail_half = _increment_series_tail(limit - 1, s)
    return partial + tail_mid, tail_half
