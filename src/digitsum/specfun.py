"""Real special functions used by the closed forms.

Hurwitz zeta (analytically continued in the order; the Riemann zeta is
hurwitz_zeta(s, 1)), the difference of two Hurwitz zetas in one pole-free
pass through alpha = 1, the one psi route (digamma is the order-1 difference
psi(z) - psi(1) minus gamma, Stirling beta one such difference), Dirichlet
eta, log-gamma, the Barnes double zeta at the periods (1, h) for an integer
h and order alpha >= 2 (at alpha = 2 the finite part of its pole), exact
even-index Bernoulli numbers, and the complete elliptic integral K.

Everything works in native double precision under one fixed policy.  Each
evaluator truncates by an explicit first-omitted-correction estimate and
stops once TAIL_SAFETY times it is at most REL_TOL of the value, so
accuracy claims are budgeted rather than hoped for; a loop that would pass
MAX_TERMS steps raises TruncationBudgetError instead.  The asymptotic
expansions run at the fixed order EM_ORDER once the argument passes
SHIFT_THRESHOLD (DIFFERENCE_SHIFT in hurwitz_difference), and a relative
tolerance is taken of a magnitude no smaller than ABS_FLOOR.
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
    "hurwitz_difference",
    "dirichlet_eta",
    "stirling_beta",
    "alternating_hurwitz",
    "log_gamma",
    "barnes_zeta2",
    "elliptic_K",
]

REL_TOL = 1e-12  # relative accuracy every evaluator promises
MAX_TERMS = 10**7  # steps a loop may take chasing REL_TOL before it raises
TAIL_SAFETY = 10.0  # multiplies tail estimates before comparing
EM_ORDER = 8  # highest Bernoulli index in the asymptotic corrections
SHIFT_THRESHOLD = 16.0  # argument size where the asymptotics engage
# hurwitz_difference's expansion start: its error has one sign and adds up over
# infinite_zeta_diff's levels; from 16, j_infinity(2, 100) is off by 1.02e-13
DIFFERENCE_SHIFT = 1.5 * SHIFT_THRESHOLD
ABS_FLOOR = 1e-300  # smallest magnitude a relative tolerance is taken of
EULER_GAMMA = 0.57721566490153286  # -psi(1)


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


def _check_rounding(name: str, magnitude: float, size: float, terms: int) -> None:
    """Raise TruncationBudgetError if the rounding magnitude 2^-52 of a sum passes REL_TOL size."""
    rounding = magnitude * 2.0**-52
    if rounding > REL_TOL * size:
        message = f"{name}: the levels cancel, rounding {rounding:.3g} on {size:.3g}"
        raise TruncationBudgetError(message, terms, rounding)


def _check_power_range(name: str, w: float, alpha: float) -> None:
    """Raise ValueError if w^-alpha, the first term of a direct sum, is past the float range."""
    try:
        w**-alpha
    except OverflowError:
        raise ValueError(f"{name}: the power {w!r}^-{alpha!r} is past the float range") from None


def _level_series(
    name: str, b: int, term: Callable[[int], float], tail: Callable[[int, float], float],
    start: int, total: float, scale: float | None = None,
) -> float:
    """total + sum_{l >= start} term(l), the level series of a closed form.

    term(l) is called once per level, in order.  After adding t = term(l) the
    series stops once TAIL_SAFETY * tail(l, t) <= REL_TOL * max(|total|,
    ABS_FLOOR), or REL_TOL * scale if a fixed scale is given; tail(l, t) bounds
    the terms past level l, or is inf until their decay law holds.  At the stop
    the sum of |term|, the start total counted, must fit the same budget
    (_check_rounding).  Levels end at _level_cap(b), so term and tail may form
    b^(l+1); a series open there, or a non-finite total, raises
    TruncationBudgetError.
    """
    last, bound = _level_cap(b), math.inf
    magnitude = abs(total)
    for l in range(start, last + 1):
        t = term(l)
        total += t
        magnitude += abs(t)
        if not math.isfinite(total):
            raise TruncationBudgetError(f"{name}: not finite at level {l}", l + 1 - start, bound)
        bound = tail(l, t)
        size = max(abs(total), ABS_FLOOR) if scale is None else scale
        if TAIL_SAFETY * bound <= REL_TOL * size:
            _check_rounding(name, magnitude, size, l + 1 - start)
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
# Hurwitz zeta and friends
# ---------------------------------------------------------------------------


def hurwitz_zeta(alpha: float, z: float) -> float:
    """zeta(alpha, z) for alpha > 0, alpha != 1, z > 0 by Euler-Maclaurin.

    Direct sum over z..z+N-1, integral term w^(1-alpha)/(alpha-1) at
    w = z+N, half term, and Bernoulli corrections up to EM_ORDER.  The
    expansion point z+N starts at SHIFT_THRESHOLD and doubles until the first
    omitted correction clears REL_TOL; a pass whose point lies more than
    MAX_TERMS steps past z raises, as in hurwitz_difference.  For alpha in
    (0,1) this is the analytic continuation.
    """
    if alpha == 1:
        raise ValueError("hurwitz_zeta has a pole at alpha = 1")
    if not alpha > 0:
        raise ValueError("hurwitz_zeta requires alpha > 0")
    if not z > 0:
        raise ValueError("hurwitz_zeta requires z > 0")
    _check_power_range("hurwitz_zeta", z, alpha)
    coef = _EM_COEFFICIENTS
    half = EM_ORDER // 2

    direct = 0.0
    w = z
    target = SHIFT_THRESHOLD
    while True:
        if target - z > MAX_TERMS:  # the budget on the direct steps
            message = "hurwitz_zeta direct sum exhausted MAX_TERMS"
            raise TruncationBudgetError(message, MAX_TERMS, math.inf)
        while w < target:
            direct += w ** (-alpha)
            w += 1.0
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


def hurwitz_difference(alpha: float, a: float, c: float) -> float:
    """zeta(alpha, a) - zeta(alpha, c) for alpha > 0 and a, c > 0, with no pole at alpha = 1.

    One Euler-Maclaurin pass over the pairs (w, w + d), d = c - a >= 0 (F. Johansson,
    Numer. Algorithms 69, 2015).  With L = log1p(d/w), w^-s - (w+d)^-s is
    -w^-s expm1(-s L) in the direct, half and Bernoulli terms, and the integral
    term is w^(1-alpha) L E((1-alpha) L), E(t) = expm1(t)/t: log1p(d/w) at alpha = 1.
    The expansion engages at DIFFERENCE_SHIFT.
    """
    if not (0 < alpha < math.inf and 0 < a < math.inf and 0 < c < math.inf):
        raise ValueError("hurwitz_difference requires finite alpha > 0 and a, c > 0")
    if c < a:  # pair from the smaller argument: w + d = c + n keeps its digits
        return -hurwitz_difference(alpha, c, a)
    _check_power_range("hurwitz_difference", a, alpha)
    coef = _EM_COEFFICIENTS
    half = EM_ORDER // 2
    d = c - a
    pair = lambda s: -(w**-s) * math.expm1(-s * L)  # w^-s - (w+d)^-s at the current w and L

    direct = 0.0
    w = a
    target = DIFFERENCE_SHIFT
    while True:
        if target - a > MAX_TERMS:  # the budget on the direct steps
            raise TruncationBudgetError("hurwitz_difference past MAX_TERMS", MAX_TERMS, math.inf)
        while w < target:
            direct -= w**-alpha * math.expm1(-alpha * math.log1p(d / w))
            w += 1.0
        L = math.log1p(d / w)
        t = (1.0 - alpha) * L
        value = direct + w ** (1.0 - alpha) * L * (math.expm1(t) / t if t else 1.0)
        value += 0.5 * pair(alpha)
        poch = alpha
        for j in range(1, half + 1):
            value += coef[j] * poch * pair(alpha + 2 * j - 1)
            poch *= (alpha + 2 * j - 1) * (alpha + 2 * j)
        omitted = abs(coef[half + 1] * poch * pair(alpha + 2 * half + 1))
        if TAIL_SAFETY * omitted <= REL_TOL * max(abs(value), ABS_FLOOR):
            return value
        target *= 2.0


def digamma(z: float) -> float:
    """psi(z) for z > 0: the order-1 Hurwitz difference psi(z) - psi(1), minus gamma."""
    if not z > 0:
        raise ValueError("digamma requires z > 0")
    return hurwitz_difference(1.0, 1.0, z) - EULER_GAMMA


def _pole_free_product(b: float, alpha: float, v: float) -> float:
    """(1 - b^(1-alpha)) zeta(alpha, v), with its limit log b at alpha = 1."""
    if alpha == 1:
        return math.log(b)
    return -math.expm1((1.0 - alpha) * math.log(b)) * hurwitz_zeta(alpha, v)


def dirichlet_eta(alpha: float) -> float:
    """eta(alpha) = (1 - 2^(1-alpha)) zeta(alpha); eta(1) = ln 2."""
    if not alpha > 0:
        raise ValueError("dirichlet_eta requires alpha > 0")
    return _pole_free_product(2.0, alpha, 1.0)


def stirling_beta(x: float) -> float:
    """beta(x) = (psi((x+1)/2) - psi(x/2)) / 2 for x > 0."""
    if not x > 0:
        raise ValueError("stirling_beta requires x > 0")
    return 0.5 * hurwitz_difference(1.0, x / 2.0, (x + 1.0) / 2.0)


def alternating_hurwitz(alpha: float, w: float) -> float:
    """sum_{n>=1} (-1)^n / (w+n)^alpha for alpha > 0, w >= 0.

    Splitting the sum into even and odd n gives
    2^(-alpha) [zeta(alpha, w/2 + 1) - zeta(alpha, (w+1)/2)], a
    hurwitz_difference, so alpha = 1 takes the same pole-free pass; the
    even/odd split fixes the bracket order (checked against the direct
    alternating sum in the tests).  At w = 0 the sum is -eta(alpha).
    """
    if not alpha > 0:
        raise ValueError("alternating_hurwitz requires alpha > 0")
    if not 0 <= w < math.inf:
        raise ValueError("alternating_hurwitz requires finite w >= 0")
    return 2.0 ** (-alpha) * hurwitz_difference(alpha, w / 2.0 + 1.0, (w + 1.0) / 2.0)


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


def barnes_zeta2(alpha: float, x: float, h: int) -> float:
    """zeta_2(alpha; x; (1, h)) = sum_{m1,m2>=0} (x + m1 + h m2)^(-alpha).

    For alpha >= 2, x > 0 and an integer period h >= 1; at alpha = 2 the
    value is the finite part of the pole 1/(h (alpha-2)), the constant term
    of the Laurent expansion.  The m1 sum of each row is the Hurwitz value
    zeta(alpha, x + h m2).  The rows m2 < M are summed directly; the rest is
    the Euler-Maclaurin sum in m2 of the rows' own expansion, again Hurwitz
    values, at v = x/h + M:
        h^(1-alpha) zeta(alpha-1, v)/(alpha-1) + h^(-alpha) zeta(alpha, v)/2
        + sum_j B_2j/(2j)! (alpha)_(2j-1) h^(1-alpha-2j) zeta(alpha+2j-1, v).
    At alpha = 2 the integral term has the finite part
    -(1 + log h + psi(v))/h.  M starts where x + h M reaches SHIFT_THRESHOLD,
    which is M = 0 for x >= SHIFT_THRESHOLD, and doubles until the first
    omitted correction clears REL_TOL.  An h whose power h^(alpha+EM_ORDER+1)
    passes the float range raises TruncationBudgetError.
    """
    if not (h >= 1 and h % 1 == 0):
        raise ValueError("h must be an integer >= 1")
    if not x > 0:
        raise ValueError("x must be positive")
    if not alpha >= 2:
        raise ValueError("barnes_zeta2 requires alpha >= 2")
    h = float(h)
    coef = _EM_COEFFICIENTS
    half = EM_ORDER // 2
    try:
        h_last = h ** (alpha + 2 * half + 1)  # the largest power the corrections form
    except OverflowError:
        message = f"barnes_zeta2: h = {h:.17g} puts h^(alpha + EM_ORDER + 1) past the float range"
        raise TruncationBudgetError(message, 0, math.inf) from None

    M = max(0, math.ceil((SHIFT_THRESHOLD - x) / h))
    direct = 0.0
    m_done = 0
    while True:
        while m_done < M:
            direct += hurwitz_zeta(alpha, x + h * m_done)
            m_done += 1
        v = x / h + M
        if alpha == 2:
            tail = -(1.0 + math.log(h) + digamma(v)) / h
        else:
            tail = h ** (1.0 - alpha) * hurwitz_zeta(alpha - 1.0, v) / (alpha - 1.0)
        tail += 0.5 * h ** (-alpha) * hurwitz_zeta(alpha, v)
        poch = alpha
        for j in range(1, half + 1):
            tail += coef[j] * poch / h ** (alpha + 2 * j - 1) * hurwitz_zeta(alpha + 2 * j - 1, v)
            poch *= (alpha + 2 * j - 1) * (alpha + 2 * j)
        omitted = abs(coef[half + 1]) * poch / h_last * hurwitz_zeta(alpha + 2 * half + 1, v)
        value = direct + tail
        if TAIL_SAFETY * omitted <= REL_TOL * max(abs(value), ABS_FLOOR):
            return value
        M = max(1, 2 * M)
        if M > MAX_TERMS:
            raise TruncationBudgetError(
                "barnes_zeta2 outer sum exhausted MAX_TERMS", m_done, abs(tail)
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
