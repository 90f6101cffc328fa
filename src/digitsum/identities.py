"""Closed forms for digit-sum weighted series, paired with direct oracles.

Every evaluator here computes one side of a published-style identity:
finite telescoped sums over n < b^p weighted by the base-b digit sum,
their p -> infinity limits, the associated infinite products, and the
order-2 family assembled from the two-parameter Barnes zeta.  Each closed
form has a brute-force companion (direct_* or *_direct) that computes the
same quantity from the definition with an explicit tail bracket, so the
two routes stay independent end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# digit_sum_range is no longer used here but stays importable: the tracer test
# in perfbench/tests checks that it is wrapped under this module's name too
from .digitseq import digit_sum, digit_sum_range, digit_weighted_sum  # noqa: F401
from .specfun import (
    DEFAULT_CTX,
    BarnesParams,
    PrecisionContext,
    TruncationBudgetError,
    alternating_hurwitz,
    barnes_psi2_2,
    barnes_zeta2,
    digamma,
    dirichlet_eta,
    elliptic_K,
    hurwitz_zeta,
    log_gamma,
    riemann_zeta,
    stirling_beta,
)

__all__ = [
    "FiniteSumParams",
    "IdentityReport",
    "build_report",
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
# Domain types and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteSumParams:
    """Parameters of the finite sums over 1 <= n < b^p."""

    b: int
    p: int
    alpha: float
    z: float

    def __post_init__(self) -> None:
        if self.b < 2:
            raise ValueError("base must be >= 2")
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if not self.z >= 0:
            raise ValueError("z must be >= 0")
        if not self.alpha > 0:
            raise ValueError("alpha must be > 0")


@dataclass(frozen=True)
class IdentityReport:
    """One closed-form-versus-oracle comparison."""

    identity_id: str
    params: dict
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    truncation: dict  # {"terms": int, "tail_bound": float}
    passed: bool


def build_report(
    identity_id: str,
    params: dict,
    lhs: float,
    rhs: float,
    rel_tol: float,
    abs_tol: float = 0.0,
    terms: int = 0,
    tail_bound: float = 0.0,
    abs_floor: float = 1e-300,
) -> IdentityReport:
    """Assemble a report; pass if either error budget is met."""
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / max(abs(rhs), abs_floor)
    passed = rel_err <= rel_tol or (abs_tol > 0.0 and abs_err <= abs_tol)
    return IdentityReport(
        identity_id=identity_id,
        params=params,
        lhs=lhs,
        rhs=rhs,
        abs_err=abs_err,
        rel_err=rel_err,
        truncation={"terms": terms, "tail_bound": tail_bound},
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Finite telescoped sums (order p over base b)
# ---------------------------------------------------------------------------


def finite_zeta_diff_direct(params: FiniteSumParams) -> float:
    """sum_{n=1}^{b^p - 1} s_b(n) [(z+n)^-a - (z+n+1)^-a], term by term."""
    alpha, z = params.alpha, params.z

    def fill(n, out):
        out[...] = (z + n) ** -alpha - (z + n + 1.0) ** -alpha

    return digit_weighted_sum(params.b**params.p, params.b, fill)


def finite_zeta_diff_closed(
    params: FiniteSumParams, ctx: PrecisionContext = DEFAULT_CTX
) -> float:
    """Telescoped closed form of finite_zeta_diff_direct.

    Generic order: sum_{l=0}^{p-1} b^(-a l) D_l - sum_{l=1}^{p} b^(1-a l) D_l
    with D_l = zeta(a, 1 + z/b^l) - zeta(a, 1 + (z+b^p)/b^l); at a = 1 the
    differences collapse to digamma values instead.
    """
    b, p, alpha, z = params.b, params.p, params.alpha, params.z
    top = float(b**p)

    if alpha == 1.0:
        # order-1 collapse: the zeta difference becomes a reversed digamma one
        def diff(l: int) -> float:
            scale = float(b) ** l
            return digamma(1.0 + (z + top) / scale, ctx) - digamma(1.0 + z / scale, ctx)
    else:
        def diff(l: int) -> float:
            scale = float(b) ** l
            return hurwitz_zeta(alpha, 1.0 + z / scale, ctx) - hurwitz_zeta(
                alpha, 1.0 + (z + top) / scale, ctx
            )

    first = sum(float(b) ** (-alpha * l) * diff(l) for l in range(p))
    second = sum(b * float(b) ** (-alpha * l) * diff(l) for l in range(1, p + 1))
    return first - second


def binary_corollary_closed(
    p: int, alpha: float, z: float, ctx: PrecisionContext = DEFAULT_CTX
) -> float:
    """Base-2 half-shift form of the finite closed sum."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if not z >= 0:
        raise ValueError("z must be >= 0")
    top = float(2**p)
    total = 0.0
    for l in range(p):
        scale = float(2 ** (l + 1))
        if alpha == 1.0:
            bracket = (
                -digamma(0.5 + z / scale, ctx)
                + digamma(1.0 + z / scale, ctx)
                + digamma(0.5 + (z + top) / scale, ctx)
                - digamma(1.0 + (z + top) / scale, ctx)
            )
            total += bracket / scale
        else:
            bracket = (
                hurwitz_zeta(alpha, 0.5 + z / scale, ctx)
                - hurwitz_zeta(alpha, 1.0 + z / scale, ctx)
                - hurwitz_zeta(alpha, 0.5 + (z + top) / scale, ctx)
                + hurwitz_zeta(alpha, 1.0 + (z + top) / scale, ctx)
            )
            total += scale**-alpha * bracket
    return total


def _signed_power_sum(alpha: float, c: float, h: float, ctx: PrecisionContext) -> float:
    """sum_{n>=1} (-1)^n (c + n h)^-alpha for c >= 0, h > 0."""
    w = c / h  # c below the subnormal floor of h counts as zero
    if w == 0.0:
        return -(h**-alpha) * dirichlet_eta(alpha, ctx)
    return h**-alpha * alternating_hurwitz(alpha, w, ctx)


def double_sum_alternate(
    p: int, alpha: float, z: float, ctx: PrecisionContext = DEFAULT_CTX
) -> float:
    """Alternating double-sum form of the base-2 finite closed sum.

    sum_{l=0}^{p-1} sum_{n>=1} (-1)^n [(z + 2^p + n 2^l)^-a - (z + n 2^l)^-a],
    inner sums taken in closed form through the shifted alternating zeta.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if not z >= 0:
        raise ValueError("z must be >= 0")
    top = float(2**p)
    total = 0.0
    for l in range(p):
        h = float(2**l)
        total += _signed_power_sum(alpha, z + top, h, ctx) - _signed_power_sum(
            alpha, z, h, ctx
        )
    return total


def j_recurrence_check(
    N: int,
    x: float,
    ctx: PrecisionContext = DEFAULT_CTX,
    rel_tol: float = 1e-9,
) -> IdentityReport:
    """Check the odd-index recurrence of the binary harmonic-difference sum.

    J_N(x) = sum_{n=1}^N s_2(n)[1/(x+n) - 1/(x+n+1)] satisfies
    J_{2N+1}(x) = J_N(x/2)/2 + beta(x+1) - beta(x+2N+3) with the
    alternating-digamma beta.  When N = 2^p - 1 the closed half-shift form
    is checked on top.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not x >= 0:
        raise ValueError("x must be >= 0")

    def j_direct(limit: int, arg: float) -> float:
        return sum(
            digit_sum(n, 2) * (1.0 / (arg + n) - 1.0 / (arg + n + 1))
            for n in range(1, limit + 1)
        )

    lhs = j_direct(2 * N + 1, x)
    rhs = 0.5 * j_direct(N, x / 2.0) + stirling_beta(x + 1.0, ctx) - stirling_beta(
        x + 2.0 * N + 3.0, ctx
    )
    rel_err = abs(lhs - rhs) / max(abs(rhs), 1e-300)

    p = (N + 1).bit_length() - 1
    if N + 1 == 2**p:
        closed = binary_corollary_closed(p, 1.0, x, ctx)
        closed_rel = abs(j_direct(N, x) - closed) / max(abs(closed), 1e-300)
        rel_err = max(rel_err, closed_rel)

    return IdentityReport(
        identity_id="j-recurrence",
        params={"N": N, "x": x},
        lhs=lhs,
        rhs=rhs,
        abs_err=abs(lhs - rhs),
        rel_err=rel_err,
        truncation={"terms": 3 * N + 2, "tail_bound": 0.0},
        passed=rel_err <= rel_tol,
    )


# ---------------------------------------------------------------------------
# Limits p -> infinity
# ---------------------------------------------------------------------------


def infinite_zeta_diff(
    b: int, alpha: float, z: float, ctx: PrecisionContext = DEFAULT_CTX
) -> float:
    """sum_{n>=1} s_b(n) [(z+n)^-a - (z+n+1)^-a] in closed form.

    zeta(a, 1+z) + (1-b) sum_{l>=1} b^(-l a) zeta(a, 1 + z/b^l); the
    l-series is geometric with ratio b^-a.
    """
    if b < 2:
        raise ValueError("base must be >= 2")
    if alpha == 1.0 or not alpha > 0:
        raise ValueError("alpha must be positive and != 1")
    if not z >= 0:
        raise ValueError("z must be >= 0")
    total = hurwitz_zeta(alpha, 1.0 + z, ctx)
    scale_zeta = hurwitz_zeta(alpha, 1.0, ctx)
    l = 1
    while True:
        term = float(b) ** (-l * alpha) * hurwitz_zeta(alpha, 1.0 + z / b**l, ctx)
        total += (1 - b) * term
        l += 1
        probe = float(b) ** (-l * alpha) * abs(scale_zeta)
        if (b - 1) * probe * ctx.tail_safety / (1.0 - float(b) ** -alpha) <= (
            ctx.rel_tol * max(abs(total), ctx.abs_floor)
        ):
            return total
        if l > ctx.max_terms:
            raise TruncationBudgetError(
                "infinite_zeta_diff level series exhausted max_terms", l, probe
            )


def j_infinity(b: int, x: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """sum_{n>=1} s_b(n)/((x+n)(x+n+1)) in closed digamma form.

    (b/(b-1)) log b + sum_{l>=0} b^-l [psi(x/b^(l+1)) - psi(x/b^l)
    + (b-1) b^l / x]; the bracket cancels the digamma poles so each term
    is O(x b^(-2l)).  x = 0 returns the limit value outright.

    The pole cancellation costs absolute accuracy ~ eps/x, so for
    0 < x < 1e-6 prefer the Taylor coefficients.
    """
    if b < 2:
        raise ValueError("base must be >= 2")
    if x < 0:
        raise ValueError("x must be >= 0")
    base_value = b / (b - 1.0) * math.log(b)
    if x == 0.0:
        return base_value
    total = base_value
    psi_outer = digamma(x, ctx)  # psi(x / b^l) at l = 0
    l = 0
    while True:
        psi_inner = digamma(x / float(b) ** (l + 1), ctx)
        bracket = psi_inner - psi_outer + (b - 1.0) * float(b) ** l / x
        term = float(b) ** (-l) * bracket
        total += term
        # once in the small-argument regime the terms shrink like b^-2l
        probe = abs(term) * ctx.tail_safety / (b * b - 1.0)
        if x / float(b) ** l < 1.0 and probe <= ctx.rel_tol * max(
            abs(total), ctx.abs_floor
        ):
            return total
        psi_outer = psi_inner
        l += 1
        if l > ctx.max_terms:
            raise TruncationBudgetError(
                "j_infinity level series exhausted max_terms", l, abs(term)
            )


def j_infinity_taylor_coeff(
    b: int, n: int, ctx: PrecisionContext = DEFAULT_CTX
) -> float:
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
    return (-1.0) ** n * riemann_zeta(n + 1.0, ctx) * (bn - b) / (bn - 1.0)


# ---------------------------------------------------------------------------
# Infinite products
# ---------------------------------------------------------------------------


def infinite_product(b: int, z: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
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
    log_total = z * b / (b - 1.0) * math.log(b)
    lg_outer = log_gamma(1.0 + z, ctx)  # log Gamma(1 + z/b^l) at l = 0
    l = 0
    while True:
        lg_inner = log_gamma(1.0 + z / float(b) ** (l + 1), ctx)
        term = b * lg_inner - lg_outer
        log_total += term
        probe = abs(term) * ctx.tail_safety / (b * b - 1.0)
        if abs(z) / float(b) ** l < 1.0 and probe <= ctx.rel_tol:
            return math.exp(log_total)
        lg_outer = lg_inner
        l += 1
        if l > ctx.max_terms:
            raise TruncationBudgetError(
                "infinite_product level series exhausted max_terms", l, abs(term)
            )


def product_special_values(
    ctx: PrecisionContext = DEFAULT_CTX, rel_tol: float = 1e-8
) -> list[IdentityReport]:
    """Special values of the base-2 product family F_p = P(2^-p)/P(2^-p-1).

    (i) F_0 = pi/2; (ii) F_1 = 2 sqrt(2/pi) Gamma(5/4)^2 = K(1/sqrt 2)/sqrt 2;
    (iii) F_2 = 2^(1/4) Gamma(9/8)^2 / Gamma(5/4).
    """
    reports = []

    def family(p: int) -> float:
        return infinite_product(2, 2.0**-p, ctx) / infinite_product(
            2, 2.0 ** -(p + 1), ctx
        )

    reports.append(
        build_report(
            "pi-over-2",
            {"case": "half-circle"},
            family(0),
            math.pi / 2.0,
            rel_tol,
        )
    )

    gamma54 = math.exp(log_gamma(1.25, ctx))
    closed_p1 = 2.0 * math.sqrt(2.0 / math.pi) * gamma54**2
    reports.append(
        build_report("pi-over-2", {"case": "quarter-family"}, family(1), closed_p1, rel_tol)
    )
    reports.append(
        build_report(
            "pi-over-2",
            {"case": "lemniscatic"},
            closed_p1,
            elliptic_K(1.0 / math.sqrt(2.0), ctx) / math.sqrt(2.0),
            rel_tol,
        )
    )

    closed_p2 = (
        2.0 ** 0.25 * math.exp(2.0 * log_gamma(1.125, ctx) - log_gamma(1.25, ctx))
    )
    reports.append(
        build_report("pi-over-2", {"case": "eighth-family"}, family(2), closed_p2, rel_tol)
    )
    return reports


# ---------------------------------------------------------------------------
# Order-alpha sums via the two-parameter Barnes zeta
# ---------------------------------------------------------------------------


def finite_barnes_closed(
    b: int, p: int, alpha: float, z: float, ctx: PrecisionContext = DEFAULT_CTX
) -> float:
    """sum_{n=1}^{b^p-1} s_b(n)/(n+z)^alpha via two-dimensional telescoping.

    sum_{l=0}^{p-1} [zeta_2(a, z+b^l, (1,b^l)) - zeta_2(a, z+b^l+b^p, (1,b^l))]
    - b sum_{l=1}^{p} [same].
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if not alpha > 2:
        raise ValueError("alpha must exceed 2")
    if not z >= 0:
        raise ValueError("z must be >= 0")
    top = float(b**p)

    def bracket(l: int) -> float:
        step = float(b) ** l
        left = barnes_zeta2(BarnesParams(alpha, z + step, 1.0, step), ctx)
        right = barnes_zeta2(BarnesParams(alpha, z + step + top, 1.0, step), ctx)
        return left - right

    first = sum(bracket(l) for l in range(p))
    second = sum(bracket(l) for l in range(1, p + 1))
    return first - b * second


def infinite_barnes(
    b: int, alpha: float, z: float, ctx: PrecisionContext = DEFAULT_CTX
) -> float:
    """sum_{n>=1} s_b(n)/(n+z)^alpha in closed form, alpha > 2.

    -z zeta(a, z+1) + zeta(a-1, z+1) + (1-b) sum_{l>=1} zeta_2(a, z+b^l, (1,b^l));
    the l-terms decay like b^(l(1-a)).
    """
    if b < 2:
        raise ValueError("base must be >= 2")
    if not alpha > 2:
        raise ValueError("alpha must exceed 2")
    if not z >= 0:
        raise ValueError("z must be >= 0")
    total = -z * hurwitz_zeta(alpha, z + 1.0, ctx) + hurwitz_zeta(alpha - 1.0, z + 1.0, ctx)
    l = 1
    while True:
        step = float(b) ** l
        total += (1 - b) * barnes_zeta2(BarnesParams(alpha, z + step, 1.0, step), ctx)
        l += 1
        probe = (z + float(b) ** l) ** (1.0 - alpha) / (alpha - 1.0)
        tail_est = (b - 1) * probe * ctx.tail_safety / (1.0 - float(b) ** (1.0 - alpha))
        if tail_est <= ctx.rel_tol * max(abs(total), ctx.abs_floor):
            return total
        if l > ctx.max_terms:
            raise TruncationBudgetError(
                "infinite_barnes level series exhausted max_terms", l, tail_est
            )


# ---------------------------------------------------------------------------
# Order-2 case
# ---------------------------------------------------------------------------


def _regularized_order2_assembly(
    b: int, z: float, ctx: PrecisionContext
) -> float:
    """Pole-cancelled order-2 assembly from the Barnes finite parts.

    FP(z+1, 1, 1) + (1-b) sum_{l>=1} FP(z+b^l, 1, b^l), the term-by-term
    alpha -> 2 limit of the closed infinite_barnes form (the simple poles
    cancel because (1-b) sum b^-l = -1).  A literal per-level transcription
    of the printed formula is not usable: its level terms tend to -1 - psi(z)
    instead of 0, so that series diverges.
    """
    total = barnes_psi2_2(z + 1.0, 1.0, 1.0, ctx)
    l = 1
    while True:
        step = float(b) ** l
        term = barnes_psi2_2(z + step, 1.0, step, ctx)
        total += (1 - b) * term
        # terms decay like (1 + l log b) b^-l
        nxt = (2.0 + (l + 1) * math.log(b)) / (b * step)
        tail_est = (b - 1) * nxt * b / (b - 1.0) * ctx.tail_safety
        if tail_est <= ctx.rel_tol * max(abs(total), ctx.abs_floor):
            return total
        l += 1
        if l > ctx.max_terms:
            raise TruncationBudgetError(
                "order-2 level series exhausted max_terms", l, tail_est
            )


def digit_zeta_2(b: int, z: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """sum_{n>=1} s_b(n)/(n+z)^2 from the regularized Barnes assembly."""
    if b < 2:
        raise ValueError("base must be >= 2")
    if not z > 0:
        raise ValueError("z must be positive")
    return _regularized_order2_assembly(b, z, ctx)


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

    def fill(n, out):
        np.add(n, z, out=out)
        np.power(out, -alpha, out=out)

    partial = digit_weighted_sum(limit, b, fill)
    edge = float(limit) + z
    low = edge ** (1.0 - alpha) / (alpha - 1.0)
    log_term = math.log(limit) / math.log(b) + 1.0 + 1.0 / ((alpha - 1.0) * math.log(b))
    high = (b - 1.0) * log_term * edge ** (1.0 - alpha) / (alpha - 1.0)
    return partial + 0.5 * (low + high), 0.5 * (high - low)


def direct_j_infinity(b: int, x: float, limit: int) -> tuple[float, float]:
    """Partial sum of s_b(n)/((x+n)(x+n+1)) with mid-tail model."""
    _check_oracle_shift(x)

    def fill(n, out):
        np.add(n, x, out=out)
        out *= out + 1.0
        np.divide(1.0, out, out=out)

    partial = digit_weighted_sum(limit, b, fill)
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

    partial = digit_weighted_sum(limit, b, fill)
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
