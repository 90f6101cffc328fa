"""Real special functions used by the closed forms.

Digamma, Hurwitz zeta (analytically continued in the order; the Riemann
zeta is hurwitz_zeta(s, 1)), Dirichlet eta, Stirling beta, log-gamma, the
two-parameter Barnes zeta with its order-2 finite part, exact even-index
Bernoulli numbers, and the complete elliptic integral K.

Everything works in native double precision under one fixed policy.  Each
evaluator truncates by an explicit first-omitted-correction estimate and
stops once TAIL_SAFETY times it is at most REL_TOL of the value, so
accuracy claims are budgeted rather than hoped for; a loop that would pass
MAX_TERMS steps raises TruncationBudgetError instead.  The asymptotic
expansions run at the fixed order EM_ORDER once the argument passes
SHIFT_THRESHOLD, and a relative tolerance is taken of a magnitude no
smaller than ABS_FLOOR.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "TruncationBudgetError",
    "bernoulli_even",
    "digamma",
    "hurwitz_zeta",
    "dirichlet_eta",
    "stirling_beta",
    "alternating_hurwitz",
    "log_gamma",
    "barnes_zeta2",
    "barnes_psi2_2",
    "elliptic_K",
]

REL_TOL = 1e-12  # relative accuracy every evaluator promises
MAX_TERMS = 10**7  # steps a loop may take chasing REL_TOL before it raises
TAIL_SAFETY = 10.0  # multiplies tail estimates before comparing
EM_ORDER = 8  # highest Bernoulli index in the asymptotic corrections
SHIFT_THRESHOLD = 16.0  # argument size where the asymptotics engage
ABS_FLOOR = 1e-300  # smallest magnitude a relative tolerance is taken of


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


class TruncationBudgetError(RuntimeError):
    """Raised when a truncated series misses its tail target within its budget."""

    def __init__(self, message: str, terms_used: int, tail_estimate: float):
        super().__init__(message)
        self.terms_used = terms_used
        self.tail_estimate = tail_estimate


@lru_cache(maxsize=None)
def _level_cap(b: int) -> int:
    """The largest level l for which float(b) ** (l + 1) is finite."""
    l = int(1024 / math.log2(b))  # b^(l+1) > 2^1024 here, so l starts above the cap
    while b ** (l + 1) > sys.float_info.max:  # int-to-float comparisons are exact
        l -= 1
    return l


def _level_series(
    name: str, b: int, term: Callable[[int], float], tail: Callable[[int, float], float],
    start: int, total: float, scale: float | None = None,
) -> float:
    """total + sum_{l >= start} term(l), the level series of a closed form.

    term(l) is called once per level, in order.  After adding t = term(l) the
    series stops once TAIL_SAFETY * tail(l, t) <= REL_TOL * max(|total|,
    ABS_FLOOR), or REL_TOL * scale if a fixed scale is given; tail(l, t) bounds
    the terms past level l, or is inf until their decay law holds.  Levels end
    at _level_cap(b), so term and tail may form b^(l+1); a series open there,
    or a non-finite total, raises TruncationBudgetError.
    """
    last, bound = _level_cap(b), math.inf
    for l in range(start, last + 1):
        t = term(l)
        total += t
        if not math.isfinite(total):
            raise TruncationBudgetError(f"{name}: not finite at level {l}", l + 1 - start, bound)
        bound = tail(l, t)
        size = max(abs(total), ABS_FLOOR) if scale is None else scale
        if TAIL_SAFETY * bound <= REL_TOL * size:
            return total
    raise TruncationBudgetError(f"{name}: no convergence by level {last}", last + 1 - start, bound)


# ---------------------------------------------------------------------------
# Bernoulli numbers (exact, even index)
# ---------------------------------------------------------------------------


# the last Bernoulli index any caller reads: the expansions stop at
# EM_ORDER + 2 = 10, and altsum's cumulants at order 16
BERNOULLI_LIMIT = 16


def _bernoulli_table() -> tuple[Fraction, ...]:
    """B_0 .. B_BERNOULLI_LIMIT as exact rationals via the convolution recurrence."""
    table = [Fraction(1)]
    for m in range(1, BERNOULLI_LIMIT + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * table[j]
        table.append(-acc / (m + 1))
    return tuple(table)


_BERNOULLI = _bernoulli_table()
_BERNOULLI_FLOAT = tuple(float(b) for b in _BERNOULLI)
# B_2j / (2j)! for j = 0 .. BERNOULLI_LIMIT/2: the Euler-Maclaurin weights,
# formed once as the same doubles an inline float(B_2j) / (2j)! gives
_EM_COEFFICIENTS = tuple(
    _BERNOULLI_FLOAT[2 * j] / math.factorial(2 * j) for j in range(BERNOULLI_LIMIT // 2 + 1)
)


def bernoulli_even(n2: int) -> Fraction:
    """Exact B_{n2} for even n2 with 2 <= n2 <= BERNOULLI_LIMIT."""
    if n2 % 2 or not 2 <= n2 <= BERNOULLI_LIMIT:
        raise ValueError(f"bernoulli_even requires even n2 with 2 <= n2 <= {BERNOULLI_LIMIT}")
    return _BERNOULLI[n2]


# ---------------------------------------------------------------------------
# Digamma
# ---------------------------------------------------------------------------


def digamma(z: float) -> float:
    """psi(z) for z > 0: upward recurrence, then Bernoulli asymptotics."""
    if not z > 0:
        raise ValueError("digamma requires z > 0")
    bern = _BERNOULLI_FLOAT
    half = EM_ORDER // 2
    target = SHIFT_THRESHOLD
    omitted = math.inf
    while True:
        if target - z > MAX_TERMS:  # hurwitz_zeta's budget on the recurrence steps
            raise TruncationBudgetError(
                "digamma recurrence past MAX_TERMS", MAX_TERMS, omitted
            )
        shift = 0.0
        w = z
        while w < target:
            shift += 1.0 / w
            w += 1.0
        value = math.log(w) - 0.5 / w
        w2 = w * w
        wp = w2
        for m in range(1, half + 1):
            value -= bern[2 * m] / (2 * m * wp)
            wp *= w2
        omitted = abs(bern[2 * half + 2]) / ((2 * half + 2) * wp)
        value -= shift
        if TAIL_SAFETY * omitted <= REL_TOL * max(abs(value), ABS_FLOOR):
            return value
        target *= 2.0


# ---------------------------------------------------------------------------
# Hurwitz zeta and friends
# ---------------------------------------------------------------------------


def hurwitz_zeta(alpha: float, z: float) -> float:
    """zeta(alpha, z) for alpha > 0, alpha != 1, z > 0 by Euler-Maclaurin.

    Direct sum over z..z+N-1, integral term w^(1-alpha)/(alpha-1) at
    w = z+N, half term, and Bernoulli corrections up to EM_ORDER.  N
    grows until the first omitted correction clears REL_TOL; for
    alpha in (0,1) this is the analytic continuation.
    """
    if alpha == 1:
        raise ValueError("hurwitz_zeta has a pole at alpha = 1")
    if not alpha > 0:
        raise ValueError("hurwitz_zeta requires alpha > 0")
    if not z > 0:
        raise ValueError("hurwitz_zeta requires z > 0")
    coef = _EM_COEFFICIENTS
    half = EM_ORDER // 2

    direct = 0.0
    n_used = 0
    w = z
    target = SHIFT_THRESHOLD
    while True:
        while w < target:
            direct += w ** (-alpha)
            w += 1.0
            n_used += 1
            if n_used > MAX_TERMS:
                raise TruncationBudgetError(
                    "hurwitz_zeta direct sum exhausted MAX_TERMS",
                    n_used,
                    w ** (1.0 - alpha) / abs(alpha - 1.0),
                )
        value = direct + w ** (1.0 - alpha) / (alpha - 1.0) + 0.5 * w ** (-alpha)
        poch = alpha
        wp = w ** (-alpha - 1.0)
        for j in range(1, half + 1):
            value += coef[j] * poch * wp
            poch *= (alpha + 2 * j - 1) * (alpha + 2 * j)
            wp /= w * w
        omitted = abs(coef[half + 1]) * poch * wp
        if TAIL_SAFETY * omitted <= REL_TOL * max(abs(value), ABS_FLOOR):
            return value
        target *= 2.0


def dirichlet_eta(alpha: float) -> float:
    """eta(alpha) = (1 - 2^(1-alpha)) zeta(alpha); eta(1) = ln 2."""
    if not alpha > 0:
        raise ValueError("dirichlet_eta requires alpha > 0")
    if alpha == 1:
        return math.log(2.0)
    return (1.0 - 2.0 ** (1.0 - alpha)) * hurwitz_zeta(alpha, 1.0)


def stirling_beta(x: float) -> float:
    """beta(x) = (psi((x+1)/2) - psi(x/2)) / 2 for x > 0."""
    if not x > 0:
        raise ValueError("stirling_beta requires x > 0")
    return 0.5 * (digamma((x + 1.0) / 2.0) - digamma(x / 2.0))


def alternating_hurwitz(alpha: float, w: float) -> float:
    """sum_{n>=1} (-1)^n / (w+n)^alpha for alpha > 0, w > 0.

    Splitting the sum into even and odd n gives
    2^(-alpha) [zeta(alpha, w/2 + 1) - zeta(alpha, (w+1)/2)]; the even/odd
    split fixes the bracket order (checked against the direct alternating
    sum in the tests).
    """
    if not alpha > 0:
        raise ValueError("alternating_hurwitz requires alpha > 0")
    if not w > 0:
        raise ValueError("alternating_hurwitz requires w > 0")
    if alpha == 1.0:
        # telescoped even/odd split; the zeta poles cancel in the bracket
        return 0.5 * (digamma((w + 1.0) / 2.0) - digamma(w / 2.0 + 1.0))
    return 2.0 ** (-alpha) * (
        hurwitz_zeta(alpha, w / 2.0 + 1.0) - hurwitz_zeta(alpha, (w + 1.0) / 2.0)
    )


# ---------------------------------------------------------------------------
# Log-gamma
# ---------------------------------------------------------------------------

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma(z: float) -> float:
    """ln Gamma(z) for finite z > 0: recurrence past SHIFT_THRESHOLD, then Stirling.

    One pass suffices.  After the recurrence w >= SHIFT_THRESHOLD, so the
    first omitted term is |B_10| / (90 w^9) <= 1.3e-14, and TAIL_SAFETY times
    it is at most REL_TOL <= REL_TOL max(|value|, 1): the stop rule of the
    other expansions always holds at once.
    """
    if not 0 < z < math.inf:
        raise ValueError("log_gamma requires finite z > 0")
    bern = _BERNOULLI_FLOAT
    log_shift = 0.0
    w = z
    while w < SHIFT_THRESHOLD:
        log_shift += math.log(w)
        w += 1.0
    value = (w - 0.5) * math.log(w) - w + _HALF_LOG_2PI
    wp = w
    for m in range(1, EM_ORDER // 2 + 1):
        value += bern[2 * m] / ((2 * m) * (2 * m - 1) * wp)
        wp *= w * w
    return value - log_shift


# ---------------------------------------------------------------------------
# Barnes double zeta
# ---------------------------------------------------------------------------


def barnes_zeta2(alpha: float, x: float, omega1: float, omega2: float) -> float:
    """zeta_2(alpha; x; (omega1, omega2)) = sum_{m1,m2>=0} (x+omega1 m1+omega2 m2)^(-alpha).

    For alpha > 2 and positive x, omega1, omega2.  Evaluated as a single sum
    of Hurwitz values along one period w1, with w2 the other,
    sum_{m2>=0} w1^(-alpha) zeta(alpha, (x + w2 m2)/w1),
    truncated after M outer terms with the remainder restored by the
    Euler-Maclaurin tail in m2 (integral term via the (alpha-1)-Hurwitz
    antiderivative, half term, Bernoulli corrections).  M grows until the
    first omitted correction clears REL_TOL.

    The value is symmetric in (omega1, omega2), so the direction is free and
    the caller's order does not matter: both orders give the same bits.
    When the larger period is at least 2 SHIFT_THRESHOLD times the smaller,
    w1 is the long one: the Hurwitz values run along it, and the outer sum
    along the short w2 starts where its argument in short periods,
    x/w2 + M, reaches SHIFT_THRESHOLD.  For x >= SHIFT_THRESHOLD w2 that is
    M = 0, and the whole sum is the tail's Hurwitz values at x/w1.
    Otherwise w1 is the short one, and M starts where the Hurwitz argument
    (x + w2 M)/w1 reaches SHIFT_THRESHOLD.
    """
    if not (x > 0 and omega1 > 0 and omega2 > 0):
        raise ValueError("x, omega1, omega2 must be positive")
    if not alpha > 2:
        raise ValueError("barnes_zeta2 requires alpha > 2 (order-2 finite part is separate)")
    coef = _EM_COEFFICIENTS
    half = EM_ORDER // 2

    short, long = min(omega1, omega2), max(omega1, omega2)
    if long >= 2.0 * SHIFT_THRESHOLD * short:
        w1, w2 = long, short
        M = max(0, math.ceil(SHIFT_THRESHOLD - x / w2))
    else:
        w1, w2 = short, long
        M = max(1, math.ceil((SHIFT_THRESHOLD * w1 - x) / w2))
    # outer terms m2 = 0 .. M-1 summed directly
    direct = 0.0
    m_done = 0
    while True:
        while m_done < M:
            direct += w1 ** (-alpha) * hurwitz_zeta(alpha, (x + w2 * m_done) / w1)
            m_done += 1
        u = (x + w2 * M) / w1
        tail = w1 ** (1.0 - alpha) * hurwitz_zeta(alpha - 1.0, u) / (w2 * (alpha - 1.0))
        tail += 0.5 * w1 ** (-alpha) * hurwitz_zeta(alpha, u)
        poch = alpha
        for j in range(1, half + 1):
            tail += (
                coef[j]
                * poch
                * w2 ** (2 * j - 1)
                / w1 ** (alpha + 2 * j - 1)
                * hurwitz_zeta(alpha + 2 * j - 1, u)
            )
            poch *= (alpha + 2 * j - 1) * (alpha + 2 * j)
        omitted = (
            abs(coef[half + 1])
            * poch
            * w2 ** (2 * half + 1)
            / w1 ** (alpha + 2 * half + 1)
            * hurwitz_zeta(alpha + 2 * half + 1, u)
        )
        value = direct + tail
        if TAIL_SAFETY * omitted <= REL_TOL * max(abs(value), ABS_FLOOR):
            return value
        M = max(1, 2 * M)
        if M > MAX_TERMS:
            raise TruncationBudgetError(
                "barnes_zeta2 outer sum exhausted MAX_TERMS", m_done, abs(tail)
            )


def barnes_psi2_2(z: float, omega1: float, omega2: float) -> float:
    """Finite part of the order-2 pole of the two-parameter Barnes zeta.

    Computed from the regularized representation
        -(1/(omega1 omega2)) (1 + log(omega2) + psi(z/omega2))
        + sum_{m>=0} [ zeta(2, (z+omega2 m)/omega1) / omega1^2
                       - 1/(omega1 (z+omega2 m)) ],
    whose m-tail from M onward is summed in closed form through the
    zeta(2, u) - 1/u = 1/(2u^2) + sum_j B_{2j} u^(-1-2j) expansion:
        (1/(2 omega2^2)) zeta(2, z/omega2 + M)
        + sum_j B_{2j} omega1^(2j-1)/omega2^(2j+1) zeta(2j+1, z/omega2 + M).
    The representation is symmetric under omega1 <-> omega2 (a test
    checks this), and at omega1 = omega2 = 1 it collapses to
    -psi(z) + (1-z) psi'(z).
    """
    if not (z > 0 and omega1 > 0 and omega2 > 0):
        raise ValueError("barnes_psi2_2 requires positive arguments")
    bern = _BERNOULLI_FLOAT
    half = EM_ORDER // 2

    base = -(1.0 + math.log(omega2) + digamma(z / omega2)) / (omega1 * omega2)
    m_start = max(1, math.ceil((SHIFT_THRESHOLD * omega1 - z) / omega2))
    direct = 0.0
    m_done = 0
    M = m_start
    inv_w1sq = 1.0 / (omega1 * omega1)
    while True:
        while m_done < M:
            arg = z + omega2 * m_done
            direct += inv_w1sq * hurwitz_zeta(2.0, arg / omega1) - 1.0 / (
                omega1 * arg
            )
            m_done += 1
        v = z / omega2 + M
        tail = 0.5 / (omega2 * omega2) * hurwitz_zeta(2.0, v)
        for j in range(1, half + 1):
            tail += (
                bern[2 * j]
                * omega1 ** (2 * j - 1)
                / omega2 ** (2 * j + 1)
                * hurwitz_zeta(2 * j + 1.0, v)
            )
        omitted = (
            abs(bern[2 * half + 2])
            * omega1 ** (2 * half + 1)
            / omega2 ** (2 * half + 3)
            * hurwitz_zeta(2 * half + 3.0, v)
        )
        value = base + direct + tail
        if TAIL_SAFETY * omitted <= REL_TOL * max(abs(value), ABS_FLOOR):
            return value
        M *= 2
        if M > MAX_TERMS:
            raise TruncationBudgetError(
                "barnes_psi2_2 m-sum exhausted MAX_TERMS", m_done, abs(tail)
            )


# ---------------------------------------------------------------------------
# Elliptic integral
# ---------------------------------------------------------------------------


def elliptic_K(k: float) -> float:
    """Complete elliptic integral K(k), 0 < k < 1, by AGM iteration."""
    if not 0.0 < k < 1.0:
        raise ValueError("elliptic_K requires 0 < k < 1")
    a = 1.0
    g = math.sqrt(1.0 - k * k)
    for _ in range(64):  # quadratic convergence; 64 is far beyond need
        if abs(a - g) <= REL_TOL * a:
            break
        a, g = 0.5 * (a + g), math.sqrt(a * g)
    return math.pi / (2.0 * a)
