"""Sign-alternating sums over binary digit parity: finite-difference
representations, exact weight tables, and the discrete distribution those
weights define, with closed moment and cumulant formulas."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .digitseq import digit_sum_range
from .specfun import bernoulli_even

__all__ = [
    "WeightTable",
    "alternating_sum_direct",
    "forward_difference",
    "delta_product_form",
    "alpha_weights",
    "alpha_weights_oracle",
    "alternating_sum_via_weights",
    "polynomial_annihilation_check",
    "zn_pmf",
    "zn_mgf",
    "standardized_cumulant",
    "pmf_standardized_cumulant",
    "limit_cumulant",
]

# Each budget is the largest N that every function under it handles within
# 10 s and a 1 GiB address space (ulimit -v), measured one N per process on a
# 2-core Xeon VM with Python 3.11.
# The three alternating-sum routes (and polynomial_annihilation_check), at
# f(t) = 1/(t + 0.7): at N = 19 the weights route takes 5.8-5.9 s and 84 MB
# peak RSS, the others under 1 s; at N = 20 it takes 11.3-11.9 s.
_OPERATOR_BUDGET = 19
# alpha_weights(21) takes 5.4-6.5 s and 605 MB, and alpha_weights(22) runs out
# of memory.
_ALPHA_BUDGET = 21
# alpha_weights_oracle and the two readers of its counts, zn_pmf and
# pmf_standardized_cumulant(N, 16): at N = 19 zn_pmf takes 4.4-5.0 s and
# 262 MB, the others under 4.4 s; at N = 20 zn_pmf takes 10.4-11.0 s.
_COMPOSITION_BUDGET = 19
_CUMULANT_BUDGET = 16
# standardized_cumulant(N, 16), the costliest order, builds 4^(8N) as an exact
# Fraction: at N = 200000 it takes 9.0-9.7 s and 31 MB, at N = 210000 10.0 s
# and at N = 220000 10.6 s.
_CUMULANT_LEVEL_BUDGET = 200_000


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightTable:
    N: int
    alpha: tuple[int, ...]  # indices 0 .. 2^(N+1) - N - 2

    def __post_init__(self) -> None:
        expected = 2 ** (self.N + 1) - self.N - 1
        if len(self.alpha) != expected:
            raise ValueError(f"weight table for N={self.N} needs {expected} entries")
        if any(a <= 0 for a in self.alpha):
            raise ValueError("weights must be positive")
        if self.alpha != self.alpha[::-1]:
            raise ValueError("weights must be symmetric")
        if sum(self.alpha) != 2 ** (self.N * (self.N + 1) // 2):
            raise ValueError("weights must sum to 2^(N(N+1)/2)")


# ---------------------------------------------------------------------------
# Three routes to the alternating sum
# ---------------------------------------------------------------------------


def alternating_sum_direct(f: Callable, x, N: int):
    """sum_{n=0}^{2^N - 1} (-1)^(binary digit sum of n) f(x + n)."""
    if not 1 <= N <= _OPERATOR_BUDGET:
        raise ValueError(f"N must be within [1, {_OPERATOR_BUDGET}]")
    parity = digit_sum_range(2**N, 2) & 1
    total = 0
    for n in range(2**N):
        term = f(x + n)
        total = total - term if parity[n] else total + term
    return total


def forward_difference(f: Callable, x, N: int):
    """N-th forward difference sum_{l} C(N,l) (-1)^(N-l) f(x+l), exact binomials."""
    if N < 0:
        raise ValueError("N must be >= 0")
    total = 0
    for l in range(N + 1):
        term = math.comb(N, l) * f(x + l)
        total = total + term if (N - l) % 2 == 0 else total - term
    return total


def delta_product_form(f: Callable, x, N: int):
    """(-1)^N applied to the composed step differences with steps 1,2,...,2^(N-1).

    Each step operator maps g to g(.+k) - g(.); the expansion is accumulated
    as offset/coefficient pairs before f is evaluated.
    """
    if not 1 <= N <= _OPERATOR_BUDGET:
        raise ValueError(f"N must be within [1, {_OPERATOR_BUDGET}]")
    expansion = {0: 1}
    for i in range(N):
        step = 2**i
        grown: dict[int, int] = {}
        for offset, coeff in expansion.items():
            grown[offset + step] = grown.get(offset + step, 0) + coeff
            grown[offset] = grown.get(offset, 0) - coeff
        expansion = grown
    sign = 1 if N % 2 == 0 else -1
    total = 0
    for offset in sorted(expansion):
        total = total + sign * expansion[offset] * f(x + offset)
    return total


# ---------------------------------------------------------------------------
# Exact weight tables
# ---------------------------------------------------------------------------


def _alpha_tuple(N: int) -> tuple[int, ...]:
    # coefficients of prod_{i=0}^{N-1} (1 + x^(2^i))^(N-i), packed into one
    # big integer with a field per coefficient; fields cannot carry into each
    # other because every coefficient is below the total 2^(N(N+1)/2)
    if N == 0:
        return (1,)
    width = N * (N + 1) // 2 + 1
    packed = 1
    for i in range(N):
        shift = (1 << i) * width
        for _ in range(N - i):
            packed += packed << shift
    length = 2 ** (N + 1) - N - 1
    raw = packed.to_bytes((length * width) // 8 + 16, "little")
    mask = (1 << width) - 1
    window = width // 8 + 3
    out = []
    for k in range(length):
        bit = k * width
        byte0 = bit >> 3
        chunk = int.from_bytes(raw[byte0 : byte0 + window], "little")
        out.append((chunk >> (bit & 7)) & mask)
    return tuple(out)


def alpha_weights(N: int) -> WeightTable:
    """Exact weight table from the rank generating polynomial."""
    if not 0 <= N <= _ALPHA_BUDGET:
        raise ValueError(f"N must be within [0, {_ALPHA_BUDGET}]")
    return WeightTable(N, _alpha_tuple(N))


def _bounded_sum_counts(bounds: Sequence[int]) -> list[int]:
    # number of ways to write k as a sum with the i-th part in [0, bounds[i]]
    counts = [1]
    for bound in bounds:
        out = [0] * (len(counts) + bound)
        window = 0
        for k in range(len(out)):
            if k < len(counts):
                window += counts[k]
            drop = k - bound - 1
            if 0 <= drop < len(counts):
                window -= counts[drop]
            out[k] = window
        counts = out
    return counts


def alpha_weights_oracle(N: int) -> WeightTable:
    """Weights recounted as bounded compositions, part i capped at 2^i - 1."""
    if not 0 <= N <= _COMPOSITION_BUDGET:
        raise ValueError(f"N must be within [0, {_COMPOSITION_BUDGET}]")
    counts = _bounded_sum_counts([2**i - 1 for i in range(1, N + 1)])
    return WeightTable(N, tuple(counts))


def alternating_sum_via_weights(f: Callable, x, N: int):
    """Weight-table form: (-1)^N sum_k alpha_k^(N-1) times the N-th difference at x+k."""
    if not 1 <= N <= _OPERATOR_BUDGET:
        raise ValueError(f"N must be within [1, {_OPERATOR_BUDGET}]")
    table = _alpha_tuple(N - 1)
    sign = 1 if N % 2 == 0 else -1
    total = 0
    for k, weight in enumerate(table):
        total = total + weight * forward_difference(f, x + k, N)
    return sign * total


def polynomial_annihilation_check(coeffs: Sequence[int], N: int) -> bool:
    """Is the alternating sum of the integer polynomial with these coefficients
    zero?  Evaluated at x = 0 in exact integer arithmetic."""
    if not 1 <= N <= _OPERATOR_BUDGET:
        raise ValueError(f"N must be within [1, {_OPERATOR_BUDGET}]")

    def poly(t):
        acc = 0
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc

    return alternating_sum_direct(poly, 0, N) == 0


# ---------------------------------------------------------------------------
# The weight distribution, its transforms and cumulants
# ---------------------------------------------------------------------------


def zn_pmf(N: int) -> tuple[Fraction, ...]:
    """Law of a sum of independent uniforms on {0..2^k-1}, k = 1..N, exact.

    The masses of 0 .. 2^(N+1) - N - 2 are the bounded-composition counts of
    alpha_weights_oracle(N) over their total 2^(N(N+1)/2); the table's own
    checks (positive counts, that total) make them non-negative and sum to one.
    """
    counts = alpha_weights_oracle(N).alpha
    denom = 2 ** (N * (N + 1) // 2)
    return tuple(Fraction(c, denom) for c in counts)


def _log_expm1_ratio(u: float, z: float) -> float:
    # log((e^u - 1)/(e^z - 1)) for u = 2^k z, z != 0: the ratio is formed before
    # the log, so near z = 0 no log|z| cancels, and a u that overflowed to -inf
    # leaves the ratio 1/(1 - e^z)
    if u > 700.0:  # e^u overflows past 709.78, and e^-u < 1e-304 rounds away
        return u - (z if z > 700.0 else math.log(math.expm1(z)))
    return math.log(math.expm1(u) / math.expm1(z))


def zn_mgf(z: float, N: int) -> tuple[float, float]:
    """Moment transform E[e^(z Z_N)] in both closed product forms, as
    (by_level, by_scale):

    by_level: prod_{i<N} ((1+e^(2^i z))/2)^(N-i);
    by_scale: prod_{k=1..N} 2^(-k) (1-e^(2^k z))/(1-e^z), each ratio formed
    before its log, so that z -> 0 cancels nothing.
    Both run in log space so large 2^N z stays in range.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if z == 0.0:
        return 1.0, 1.0
    by_level = 0.0
    for i in range(N):
        u = 2.0**i * z
        by_level += (N - i) * (max(u, 0.0) + math.log1p(math.exp(-abs(u))) - math.log(2.0))
    by_scale = 0.0
    for k in range(1, N + 1):
        by_scale += _log_expm1_ratio(2.0**k * z, z) - k * math.log(2.0)
    try:
        return math.exp(by_level), math.exp(by_scale)
    except OverflowError:
        raise ValueError(
            f"zn_mgf: E[e^(z Z_N)] at z = {z}, N = {N} is past the float range"
        ) from None


def standardized_cumulant(N: int, order: int) -> float:
    """Closed even cumulant of the standardized weight distribution.

    (9/(4^N - 3N/4 - 1))^n (B_2n/2n) (4^n (4^(nN) - N - 1) + N)/(4^n - 1)
    for order 2n; reduces to exactly 1 at order 2.
    """
    if not 1 <= N <= _CUMULANT_LEVEL_BUDGET:
        raise ValueError(f"N must be within [1, {_CUMULANT_LEVEL_BUDGET}], the level budget")
    if order < 2 or order % 2 or order > _CUMULANT_BUDGET:
        raise ValueError(f"order must be even within [2, {_CUMULANT_BUDGET}]")
    n = order // 2
    nine_var = Fraction(4) ** N - Fraction(3, 4) * N - 1
    value = (
        Fraction(9) ** n
        / nine_var**n
        * (bernoulli_even(order) / order)
        * (Fraction(4) ** n * (Fraction(4) ** (n * N) - N - 1) + N)
        / (Fraction(4) ** n - 1)
    )
    return float(value)


def pmf_standardized_cumulant(N: int, order: int) -> Fraction:
    """Oracle value: exact cumulant extracted from the pmf, then standardized.

    The raw moments are the integer power sums S_j = sum_k c_k k^j over the
    bounded-composition counts c_k of alpha_weights_oracle(N), each divided
    once by their total 2^(N(N+1)/2), which the table has checked along with
    the positivity of every count.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if order < 2 or order > _CUMULANT_BUDGET:
        raise ValueError(f"order must be within [2, {_CUMULANT_BUDGET}]")
    counts = alpha_weights_oracle(N).alpha
    denom = 2 ** (N * (N + 1) // 2)
    power_sums = [0] * (order + 1)
    for k, c in enumerate(counts):
        term = c
        for j in range(order + 1):
            power_sums[j] += term
            term *= k
    raw = [Fraction(total, denom) for total in power_sums]
    cumulants = [Fraction(0)] * (order + 1)
    for m in range(1, order + 1):
        acc = raw[m]
        for j in range(1, m):
            acc -= math.comb(m - 1, j - 1) * cumulants[j] * raw[m - j]
        cumulants[m] = acc
    variance = cumulants[2]
    return cumulants[order] / variance ** (order // 2)


def limit_cumulant(order: int) -> float:
    """Large-N limit of the standardized cumulants: (B_2n/2n) 6^2n/(2^2n - 1)."""
    if order < 2 or order % 2 or order > _CUMULANT_BUDGET:
        raise ValueError(f"order must be even within [2, {_CUMULANT_BUDGET}]")
    value = bernoulli_even(order) / order * Fraction(6) ** order / (2**order - 1)
    return float(value)

