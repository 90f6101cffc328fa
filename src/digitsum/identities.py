"""Closed forms for digit-sum weighted series, paired with direct oracles.

Every evaluator here computes one side of a published-style identity:
finite telescoped sums over n < b^p weighted by the base-b digit sum,
their p -> infinity limits, the associated infinite products, and the
order-2 family assembled from the two-parameter Barnes zeta.  The digit
zeta takes its near levels as Barnes values and sums every level from the
first h = b^l >= 32 max(z, 1) on at once, as geometric series over Riemann
zeta values.  The
difference-kernel family takes each level as one pole-free
hurwitz_difference, so its order-1 member, the harmonic-difference sum
j_infinity, is no separate case.  Each closed form has a brute-force
companion (direct_* or *_direct) that computes the same quantity from the
definition with an explicit tail bracket, so the two routes stay
independent end to end.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .digitseq import _difference_weight, _power_weight, digit_sum, digit_weighted_sum

# digit_sum_range is no longer used here but stays importable: the tracer test
# in perfbench/tests checks that it is wrapped under this module's name too
from .digitseq import digit_sum_range  # noqa: F401
from .specfun import (
    ABS_FLOOR,
    EM_ORDER,
    EULER_GAMMA,
    REL_TOL,
    SHIFT_THRESHOLD,
    TAIL_SAFETY,
    TruncationBudgetError,
    _EM_COEFFICIENTS,
    _check_rounding,
    _level_cap,
    _level_series,
    _pole_free_product,
    alternating_hurwitz,
    barnes_zeta2,
    digamma,
    elliptic_K,
    hurwitz_difference,
    hurwitz_zeta,
    log_gamma,
    stirling_beta,
)

__all__ = [
    "finite_zeta_diff_direct",
    "finite_zeta_diff_closed",
    "binary_corollary_closed",
    "double_sum_alternate",
    "j_recurrence_check",
    "infinite_zeta_diff",
    "j_infinity",
    "j_infinity_taylor_coeff",
    "infinite_product",
    "product_special_values",
    "finite_barnes_closed",
    "infinite_barnes",
    "digit_zeta_2",
    "direct_digit_zeta",
    "direct_j_infinity",
    "direct_product_log",
]


# ---------------------------------------------------------------------------
# Finite telescoped sums (order p over base b)
# ---------------------------------------------------------------------------


def _check_finite_sum(b: int, p: int, alpha: float, z: float) -> None:
    """The domain of the finite sums over 1 <= n < b^p."""
    if b < 2:
        raise ValueError("base must be >= 2")
    if p < 1:
        raise ValueError("p must be >= 1")
    if not 0 <= z < math.inf:
        raise ValueError("z must be >= 0 and finite")
    if not alpha > 0:
        raise ValueError("alpha must be > 0")


def finite_zeta_diff_direct(b: int, p: int, alpha: float, z: float) -> float:
    """sum_{n=1}^{b^p - 1} s_b(n) [(z+n)^-a - (z+n+1)^-a], term by term,
    for b >= 2, p >= 1, alpha > 0 and z >= 0."""
    _check_finite_sum(b, p, alpha, z)
    return digit_weighted_sum(b**p, b, _difference_weight(alpha), z)


def finite_zeta_diff_closed(b: int, p: int, alpha: float, z: float) -> float:
    """Telescoped closed form of finite_zeta_diff_direct, on the same domain.

    sum_{l=0}^{p-1} b^(-a l) D_l - sum_{l=1}^{p} b^(1-a l) D_l with
    D_l = zeta(a, 1 + z/b^l) - zeta(a, 1 + (z+b^p)/b^l), a hurwitz_difference,
    pole-free at a = 1 as well; terms that cancel raise (_check_rounding).
    """
    _check_finite_sum(b, p, alpha, z)
    top = float(b**p)

    def diff(l: int) -> float:
        scale = float(b) ** l
        return hurwitz_difference(alpha, 1.0 + z / scale, 1.0 + (z + top) / scale)

    # levels 1 .. p-1 enter both sums: compute each difference once
    diffs = [diff(l) for l in range(p + 1)]
    first = [float(b) ** (-alpha * l) * diffs[l] for l in range(p)]
    second = [b * float(b) ** (-alpha * l) * diffs[l] for l in range(1, p + 1)]
    total = sum(first) - sum(second)
    _check_rounding("finite_zeta_diff_closed", sum(map(abs, first + second)), abs(total), 2 * p)
    return total


def binary_corollary_closed(p: int, alpha: float, z: float) -> float:
    """Base-2 half-shift form of the finite closed sum; near and far
    differences that cancel raise TruncationBudgetError (_check_rounding)."""
    _check_finite_sum(2, p, alpha, z)
    top = float(2**p)
    total = magnitude = 0.0
    for l in range(p):
        scale = float(2 ** (l + 1))
        near = hurwitz_difference(alpha, 0.5 + z / scale, 1.0 + z / scale)
        far = hurwitz_difference(alpha, 0.5 + (z + top) / scale, 1.0 + (z + top) / scale)
        total += scale**-alpha * (near - far)
        magnitude += scale**-alpha * (abs(near) + abs(far))
    _check_rounding("binary_corollary_closed", magnitude, abs(total), p)
    return total


def double_sum_alternate(p: int, alpha: float, z: float) -> float:
    """Alternating double-sum form of the base-2 finite closed sum.

    sum_{l=0}^{p-1} sum_{n>=1} (-1)^n [(z + 2^p + n 2^l)^-a - (z + n 2^l)^-a],
    each inner sum h^-a alternating_hurwitz(a, c/h) at h = 2^l, c = z + 2^p or z;
    inner sums that cancel raise TruncationBudgetError (_check_rounding).
    """
    _check_finite_sum(2, p, alpha, z)
    top = float(2**p)
    total = magnitude = 0.0
    for l in range(p):
        h = float(2**l)
        far, near = (h**-alpha * alternating_hurwitz(alpha, c / h) for c in (z + top, z))
        total += far - near
        magnitude += abs(far) + abs(near)
    _check_rounding("double_sum_alternate", magnitude, abs(total), p)
    return total


def j_recurrence_check(N: int, x: float) -> list[tuple[float, float]]:
    """Both sides of the odd-index recurrence of the binary harmonic-difference sum.

    J_N(x) = sum_{n=1}^N s_2(n)[1/(x+n) - 1/(x+n+1)] satisfies
    J_{2N+1}(x) = J_N(x/2)/2 + beta(x+1) - beta(x+2N+3) with the
    alternating-digamma beta.  Returns the (left, right) pair of that
    recurrence; when N = 2^p - 1 a second pair follows, J_N(x) against its
    closed half-shift form.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not 0 <= x < math.inf:
        raise ValueError("x must be >= 0 and finite")

    def j_direct(limit: int, arg: float) -> float:
        return sum(
            digit_sum(n, 2) * (1.0 / (arg + n) - 1.0 / (arg + n + 1))
            for n in range(1, limit + 1)
        )

    lhs = j_direct(2 * N + 1, x)
    rhs = 0.5 * j_direct(N, x / 2.0) + stirling_beta(x + 1.0) - stirling_beta(x + 2.0 * N + 3.0)
    pairs = [(lhs, rhs)]
    p = (N + 1).bit_length() - 1
    if N + 1 == 2**p:
        pairs.append((j_direct(N, x), binary_corollary_closed(p, 1.0, x)))
    return pairs


# ---------------------------------------------------------------------------
# Limits p -> infinity
# ---------------------------------------------------------------------------


def infinite_zeta_diff(b: int, alpha: float, z: float) -> float:
    """sum_{n>=1} s_b(n) [(z+n)^-a - (z+n+1)^-a] in closed form, for a > 0.

    The level series zeta(a, 1+z) + (1-b) sum_{l>=1} b^(-l a) zeta(a, v_l),
    v_l = 1 + z/b^l, summed by parts: (1 - b^(1-a)) zeta(a, 1+z)/(1 - b^-a)
    plus (1-b) b^(-l a)/(1 - b^-a) [zeta(a, v_l) - zeta(a, v_(l-1))] for l >= 1,
    one hurwitz_difference each, so no pole forms at a = 1 (j_infinity).  Once
    z/b^l < 1 the terms shrink like b^-(a+1).  Where the levels cancel,
    _level_series raises TruncationBudgetError.
    """
    if b < 2:
        raise ValueError("base must be >= 2")
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    if not 0 <= z < math.inf:
        raise ValueError("z must be >= 0 and finite")
    ratio = -math.expm1(-alpha * math.log(b))  # 1 - b^-a
    v = [1.0 + z]  # the level boundaries v_l so far, each formed once
    head = _pole_free_product(b, alpha, v[0]) / ratio

    def term(l: int) -> float:
        v.append(1.0 + z / float(b) ** l)
        return (1 - b) * float(b) ** (-l * alpha) / ratio * hurwitz_difference(alpha, v[-1], v[-2])

    tail = lambda l, t: abs(t) / (b ** (alpha + 1.0) - 1.0) if z / float(b) ** l < 1.0 else math.inf
    return _level_series("infinite_zeta_diff", b, term, tail, 1, head)


def j_infinity(b: int, x: float) -> float:
    """sum_{n>=1} s_b(n)/((x+n)(x+n+1)), the alpha = 1 case of infinite_zeta_diff."""
    return infinite_zeta_diff(b, 1.0, x)


def j_infinity_taylor_coeff(b: int, n: int) -> float:
    """Taylor coefficient of the closed j_infinity form at x = 0.

    Order 0 is (b/(b-1)) log b; order n >= 1 is
    (-1)^n zeta(n+1) (b^(n+1) - b)/(b^(n+1) - 1).
    """
    if b < 2:
        raise ValueError("base must be >= 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return b / (b - 1.0) * math.log(b)
    bn = float(b) ** (n + 1)
    return (-1.0) ** n * hurwitz_zeta(n + 1.0, 1.0) * (bn - b) / (bn - 1.0)


# ---------------------------------------------------------------------------
# Infinite products
# ---------------------------------------------------------------------------


def infinite_product(b: int, z: float) -> float:
    """prod_{n>=1} ((1+z/n)/(1+z/(n+1)))^{s_b(n)} in closed gamma form.

    Log-space evaluation of
    b^(z b/(b-1)) prod_{l>=0} Gamma(1+z/b^(l+1))^b / Gamma(1+z/b^l);
    each log summand is O(z^2 b^(-2l)), exponentiation happens once.
    """
    if b < 2:
        raise ValueError("base must be >= 2")
    if not z > -1.0:
        raise ValueError("z must exceed -1")
    if z == 0.0:
        return 1.0
    lg = [log_gamma(1.0 + z)]  # log Gamma(1 + z/b^l) at the levels so far, each taken once

    def term(l: int) -> float:
        lg.append(log_gamma(1.0 + z / float(b) ** (l + 1)))
        return b * lg[-1] - lg[-2]

    tail = lambda l, t: abs(t) / (b * b - 1.0) if abs(z) / float(b) ** l < 1.0 else math.inf
    # the promise is on exp(log P), whose relative error is the absolute error
    # of log P: the tail is compared with REL_TOL itself, at the fixed scale 1
    log_base = z * b / (b - 1.0) * math.log(b)
    return math.exp(_level_series("infinite_product", b, term, tail, 0, log_base, 1.0))


def product_special_values(case: str) -> tuple[float, float]:
    """Both sides of one special value of the base-2 product family
    F_p = P(2^-p)/P(2^-p-1).

    "half-circle": F_0 = pi/2; "quarter-family": F_1 = 2 sqrt(2/pi) Gamma(5/4)^2;
    "lemniscatic": that constant = K(1/sqrt 2)/sqrt 2; "eighth-family":
    F_2 = 2^(1/4) Gamma(9/8)^2 / Gamma(5/4).
    """

    def family(p: int) -> float:
        return infinite_product(2, 2.0**-p) / infinite_product(2, 2.0 ** -(p + 1))

    def quarter_closed() -> float:
        return 2.0 * math.sqrt(2.0 / math.pi) * math.exp(log_gamma(1.25)) ** 2

    if case == "half-circle":
        return family(0), math.pi / 2.0
    if case == "quarter-family":
        return family(1), quarter_closed()
    if case == "lemniscatic":
        return quarter_closed(), elliptic_K(1.0 / math.sqrt(2.0)) / math.sqrt(2.0)
    if case == "eighth-family":
        closed = 2.0 ** 0.25 * math.exp(2.0 * log_gamma(1.125) - log_gamma(1.25))
        return family(2), closed
    raise ValueError(f"unknown special-value case {case!r}")


# ---------------------------------------------------------------------------
# Order-alpha sums via the two-parameter Barnes zeta
# ---------------------------------------------------------------------------


# a level bracket with fewer Hurwitz values than this is summed as them; one
# with more takes the difference of its two Barnes values.  The sum costs its
# count of values, the difference about 14-29 at every h (M + 7 per Barnes
# value, M <= 15).  Timed for b = 2, 3, 4, 10 and 16 at alpha = 2.5 and 4,
# z = 0.5, h = b^l for l <= 2 and counts up to 1024 (2-core Xeon VM, Python
# 3.11, best of 5), the sum took 0.03-1.01 times the difference's time below
# 64 values and 1.4-49 times from 64 on, so 64 takes the cheaper route on
# every timed bracket but one tie (1.01, at 32 values).  Against a 30-digit
# reference the sums were within 4.0e-14, the differences from 64 values on
# within 8.4e-14
_BRACKET_TERMS = 64


def finite_barnes_closed(b: int, p: int, alpha: float, z: float) -> float:
    """sum_{n=1}^{b^p-1} s_b(n)/(n+z)^alpha via two-dimensional telescoping.

    sum_{l=0}^{p-1} [zeta_2(a, z+b^l, (1,b^l)) - zeta_2(a, z+b^l+b^p, (1,b^l))]
    - b sum_{l=1}^{p} [same].

    With h = b^l the bracket of level l is exactly the finite sum
    sum_{k=1}^{b^(p-l)} zeta(a, z + k h).  A level with fewer than
    _BRACKET_TERMS such values is summed that way, with one correctly rounded
    sum; a level with more takes the difference of its two Barnes values.
    Brackets that cancel raise TruncationBudgetError (_check_rounding).
    """
    _check_finite_sum(b, p, alpha, z)
    if not alpha > 2:
        raise ValueError("alpha must exceed 2")
    top = float(b**p)

    def bracket(l: int) -> float:
        step = float(b) ** l
        count = b ** (p - l)
        if count < _BRACKET_TERMS:
            return math.fsum(hurwitz_zeta(alpha, z + k * step) for k in range(1, count + 1))
        left = barnes_zeta2(alpha, z + step, b**l)
        right = barnes_zeta2(alpha, z + step + top, b**l)
        return left - right

    # levels 1 .. p-1 enter both sums: evaluate each bracket once
    brackets = [bracket(l) for l in range(p + 1)]
    total = sum(brackets[:p]) - b * sum(brackets[1:])
    magnitude = sum(map(abs, brackets[:p])) + b * sum(map(abs, brackets[1:]))
    _check_rounding("finite_barnes_closed", magnitude, abs(total), 2 * p)
    return total


def _closed_tail(b: int, alpha: float, z: float, L: int) -> tuple[float, float, float]:
    """sum_{l>=L} (1-b) zeta_2(alpha, z+h, (1,h)), h = b^l, in one pass, for b^L >= 32 max(z, 1).

    Returns (tail, magnitude, bound): the tail, the sum of |piece| it adds,
    and a bound on what it leaves out.  At these h barnes_zeta2 stops at
    M = 0: level l is (1-b) sum_i a_i h^(-s_i) zeta(s_i, 1+w), w = z/h, over its
    Euler-Maclaurin pieces s_i = alpha-1+n_i, with a_i = 1/(alpha-1) at
    n_i = 0, 1/2 at n_i = 1 and B_2j/(2j)! (alpha)_(2j-1) at n_i = 2j.  By
    zeta(s, 1+w) = sum_k C(-s, k) zeta(s+k) w^k (Abramowitz-Stegun 6.3.14)
    each power h^(-s-k) sums over l >= L to H^(-s-k)/(1 - b^(-s-k)), H = b^L:
    the tail is one series in n = n_i + k over zeta(alpha-1+n), at w = z/H.
    At alpha = 2 the integral piece is the finite part -(1 + l log b +
    psi(1+w))/h, and psi(1+w) = -gamma - sum_{k>=1} (-1)^k zeta(k+1) w^k gives
    the same terms for k >= 1; its k = 0 term sums (gamma - 1 - l log b) b^-l.

    The series takes zeta(alpha-1+n, 1), from n = 1 at alpha = 2, once each
    as it needs them.  Once every piece has started, the series stops when
    TAIL_SAFETY times its rest is at most 2^-52 magnitude.  A piece's rest is
    its next term over 1 - r, with r bounding the ratio of its terms from
    there on.  The bound is that rest plus the first omitted Euler-Maclaurin
    piece, n = 10, summed the same way.
    """
    H = float(b) ** L
    w = z / H
    log_b = math.log(b)
    first = 1 if alpha == 2 else 0  # zetas[0] is zeta(alpha - 1 + first): zeta(1) is a pole
    zetas: list[float] = []

    def zeta(n: int) -> float:  # zeta(alpha-1+n, 1) / (1 - b^-(alpha-1+n))
        while len(zetas) <= n - first:
            zetas.append(hurwitz_zeta(alpha - 1.0 + first + len(zetas), 1.0))
        return -zetas[n - first] / math.expm1(-(alpha - 1.0 + n) * log_b)

    # each piece as [n_i, a_i H^-n_i C(-s_i, k) w^k], at k = n - n_i
    half = EM_ORDER // 2
    pieces = [[0, 1.0 / (alpha - 1.0)], [1, 0.5 / H]]
    poch = alpha
    for j in range(1, half + 1):
        pieces.append([2 * j, _EM_COEFFICIENTS[j] * poch * H ** (-2 * j)])
        poch *= (alpha + 2 * j - 1) * (alpha + 2 * j)
    omitted = abs(_EM_COEFFICIENTS[half + 1]) * poch * H ** (-2 * half - 2) * zeta(2 * half + 2)

    total = magnitude = 0.0
    if first:  # the finite part at k = 0: sum_{l>=L} (gamma - 1 - l log b) b^(L-l)
        level_sum = b / (b - 1.0)
        log_sum = log_b * (L + 1.0 / (b - 1.0)) * level_sum
        total = (EULER_GAMMA - 1.0) * level_sum - log_sum
        magnitude = (1.0 - EULER_GAMMA) * level_sum + log_sum
        pieces[0][1] = -w  # a_0 C(-1, 1) w, its k = 1 term
    n = first
    while True:
        this, following = zeta(n), zeta(n + 1)
        rest = 0.0
        for piece in pieces:
            n_i, c = piece
            if n_i <= n:
                total += c * this
                magnitude += abs(c) * this
                k, s = n - n_i, alpha - 1.0 + n_i
                piece[1] = -c * (s + k) / (k + 1) * w
                r = (s + k + 1) / (k + 2) * w
                rest += abs(piece[1]) * following / (1.0 - r) if r < 1.0 else math.inf
        n += 1
        if n > 2 * half and TAIL_SAFETY * rest <= 2.0**-52 * magnitude:
            break
    scale = (b - 1) * H ** (1.0 - alpha)
    return -scale * total, scale * magnitude, scale * (rest + omitted)


def _digit_zeta(b: int, alpha: float, z: float) -> float:
    """sum_{n>=1} s_b(n)/(n+z)^alpha for alpha >= 2 and z >= 0: level 0
    zeta(a-1, z+1) - z zeta(a, z+1), level l >= 1 (1-b) zeta_2(a, z+b^l, (1,b^l)).

    At a = 2 the zeta_2 are finite parts, barnes_zeta2(2.0, ...), and level 0
    is -psi(z+1) - z zeta(2, z+1): the term-by-term limit, where the poles
    cancel as (1-b) sum_{l>=1} b^-l = -1.  The levels l < L are barnes_zeta2
    calls, L the first level with b^L >= 2 SHIFT_THRESHOLD max(z, 1); every
    level from L on is summed at once by _closed_tail.  The head, every level
    and every tail piece pass _check_rounding.  No such L up to _level_cap(b),
    a tail whose bound times TAIL_SAFETY passes REL_TOL of the total, or a sum
    below the normal float range raises TruncationBudgetError.
    """
    if b < 2:
        raise ValueError("base must be >= 2")
    name = "digit_zeta_2" if alpha == 2 else "infinite_barnes"
    last, reach = _level_cap(b), 2.0 * SHIFT_THRESHOLD * max(z, 1.0)
    L = next((l for l in range(1, last + 1) if float(b) ** l >= reach), None)
    if L is None:
        raise TruncationBudgetError(f"{name}: no convergence by level {last}", last, math.inf)
    if alpha == 2:
        head = -digamma(z + 1.0) - z * hurwitz_zeta(2.0, z + 1.0)
    else:
        head = -z * hurwitz_zeta(alpha, z + 1.0) + hurwitz_zeta(alpha - 1.0, z + 1.0)
    levels = [(1 - b) * barnes_zeta2(alpha, z + float(b) ** l, b**l) for l in range(1, L)]
    tail, magnitude, bound = _closed_tail(b, alpha, z, L)
    total = sum(levels, head) + tail
    size = max(abs(total), ABS_FLOOR)
    if not TAIL_SAFETY * bound <= REL_TOL * size:
        raise TruncationBudgetError(f"{name}: the tail from level {L} misses its budget", L, bound)
    _check_rounding(name, abs(head) + sum(map(abs, levels)) + magnitude, size, L)
    if abs(total) < sys.float_info.min:  # a sum of positive terms, underflowed
        raise TruncationBudgetError(f"{name}: the sum is below the float range", L, bound)
    return total


def infinite_barnes(b: int, alpha: float, z: float) -> float:
    """sum_{n>=1} s_b(n)/(n+z)^alpha in closed form, for alpha > 2 and z >= 0."""
    if not alpha > 2:
        raise ValueError("alpha must exceed 2")
    if not z >= 0:
        raise ValueError("z must be >= 0")
    return _digit_zeta(b, alpha, z)


def digit_zeta_2(b: int, z: float) -> float:
    """sum_{n>=1} s_b(n)/(n+z)^2 for z > 0, the alpha = 2 case of the digit zeta."""
    if not z > 0:
        raise ValueError("z must be positive")
    return _digit_zeta(b, 2.0, z)


# ---------------------------------------------------------------------------
# Direct oracles for the infinite forms (definition + tail bracket)
# ---------------------------------------------------------------------------


def _check_oracle_shift(shift: float) -> None:
    # n + shift > 0 for every n >= 1, so every weight below is finite
    if not (math.isfinite(shift) and shift > -1.0):
        raise ValueError("direct oracle needs a finite shift > -1")


def direct_digit_zeta(b: int, alpha: float, z: float, limit: int) -> tuple[float, float]:
    """Partial sum of s_b(n)/(n+z)^alpha to n < limit, with mid-tail model.

    Returns (estimate, half_bracket): the tail lies between the all-ones
    bound and the digit-count ceiling (b-1)(log_b t + 1); the estimate adds
    the bracket midpoint and half the bracket width is the uncertainty.
    """
    if not (math.isfinite(alpha) and alpha > 1):
        raise ValueError("direct oracle needs a finite alpha > 1 for a convergent tail")
    _check_oracle_shift(z)
    partial = digit_weighted_sum(limit, b, _power_weight(alpha), z)
    edge = float(limit) + z
    low = edge ** (1.0 - alpha) / (alpha - 1.0)
    log_term = math.log(limit) / math.log(b) + 1.0 + 1.0 / ((alpha - 1.0) * math.log(b))
    high = (b - 1.0) * log_term * edge ** (1.0 - alpha) / (alpha - 1.0)
    return partial + 0.5 * (low + high), 0.5 * (high - low)


def direct_j_infinity(b: int, x: float, limit: int) -> tuple[float, float]:
    """Partial sum of s_b(n)/((x+n)(x+n+1)) with mid-tail model."""
    _check_oracle_shift(x)
    # 1/((x+n)(x+n+1)) is the order-1 difference (x+n)^-1 - (x+n+1)^-1
    partial = digit_weighted_sum(limit, b, _difference_weight(1.0), x)
    edge = float(limit) + x
    low = 1.0 / edge
    high = (b - 1.0) * (math.log(limit) / math.log(b) + 1.0 + 1.0 / math.log(b)) / edge
    return partial + 0.5 * (low + high), 0.5 * (high - low)


def direct_product_log(b: int, z: float, limit: int) -> tuple[float, float]:
    """Partial log-product sum_{n<limit} s_b(n) log((z+n)(n+1)/(n(z+n+1)))."""
    _check_oracle_shift(z)

    def fill(n, out):
        np.add(n, z, out=out)
        out += 1.0
        out *= n
        np.divide(z, out, out=out)
        np.log1p(out, out=out)

    partial = digit_weighted_sum(limit, b, fill, 0.0)
    edge = float(limit)
    low = z / (edge + abs(z) + 1.0)
    high = (
        abs(z)
        * (b - 1.0)
        * (math.log(limit) / math.log(b) + 1.0 + 1.0 / math.log(b))
        / edge
    )
    if z >= 0:
        return partial + 0.5 * (low + high), 0.5 * (high - low)
    return partial - 0.5 * high, 0.5 * high
