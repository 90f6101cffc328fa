"""Inversion of the base-b splitting relation g(n) = f(n) - sum_j f(bn+j),
and the digit-sum-weighted sums it unlocks: term by term over a finite
support, by a level series over base-b blocks for a decaying g."""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .digitseq import digit_sum
from .specfun import TruncationBudgetError, _level_series, hurwitz_difference

__all__ = [
    "SequenceFn",
    "solve_implicit",
    "weighted_digit_sum",
    "base_relation_check",
    "recover_j_infinity_check",
]


@dataclass(frozen=True)
class SequenceFn:
    """A sequence g on the positive integers, of one of two kinds.

    Finite support: support_bound = B promises g(n) = 0 for n >= B, and the
    solver sums eval term by term in the arithmetic eval returns, so a
    Fraction-valued g is solved exactly.  Decay: decay = (C, beta) promises
    |g(n)| <= C * n^-beta with beta > 1, and requires partial_sum, which
    returns sum_{t=a}^{c-1} g(t) in closed form.  The decay solver is
    level-major: it calls partial_sum once a level, elementwise on float64
    arrays a, c of the block bounds b^k n and b^k (n+1) of all its start
    points, each the product of float(b^k) and an integer, so it must be
    written in numpy-compatible arithmetic.
    When both are given, the finite support is used.
    """

    eval: Callable
    support_bound: Optional[int] = None
    decay: Optional[tuple[float, float]] = None
    partial_sum: Optional[Callable] = None

    def __post_init__(self) -> None:
        if self.support_bound is not None and self.support_bound < 1:
            raise ValueError("support_bound must be >= 1")
        if self.decay is not None:
            c, beta = self.decay
            if not (c > 0 and beta > 1):
                raise ValueError("decay needs C > 0 and beta > 1")
            if self.partial_sum is None:
                raise ValueError("decay needs a partial_sum")


def solve_implicit(b: int, g: SequenceFn, n: int):
    """f(n) = sum_{k>=0} sum_{l<b^k} g(b^k n + l), the series inverse of
    g(n) = f(n) - sum_{j<b} f(bn+j); for a decay g, _level_major with the one
    start point n and weight 1."""
    if b < 2:
        raise ValueError("base must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    if g.support_bound is not None:
        total = 0
        lo, hi = n, n + 1
        while lo < g.support_bound:
            for t in range(lo, min(hi, g.support_bound)):
                total = total + g.eval(t)
            lo, hi = b * lo, b * hi
        return total
    if g.decay is None:
        raise ValueError("g needs support_bound or decay for the series solution")
    return _level_major("solve_implicit", b, g, np.array([n]), np.ones(1))


def _level_major(name: str, b: int, g: SequenceFn, ns: np.ndarray, weights: np.ndarray) -> float:
    """sum_i w_i f(n_i) for the decay series f of solve_implicit, level-major.

    Level k sums w_i partial_sum(b^k n_i, b^k (n_i+1)) over every start point
    at once.  The levels past k are at most floor ratio^(k+1) / (1 - ratio),
    floor = sum_i w_i C n_i^-beta and ratio = b^(1-beta), and floor is the
    _level_series scale, so the level count depends on b and beta alone.
    """
    c, beta = g.decay
    ratio = float(b) ** (1.0 - beta)
    floor = float(np.sum(weights * (c * ns.astype(np.float64) ** -beta)))
    tail = lambda k, t: floor * ratio ** (k + 1) / (1.0 - ratio)

    top = int(ns.max()) + 1

    def term(k: int) -> float:
        if b**k * top > sys.float_info.max:  # int-to-float comparisons are exact
            message = f"{name}: block bounds past the float range at level {k}"
            raise TruncationBudgetError(message, k, tail(k - 1, 0.0))
        # float(b^k) and n are exact at every level the grids reach, so each
        # bound is its exact integer rounded once
        scale = float(b**k)
        return float(np.sum(weights * g.partial_sum(scale * ns, scale * (ns + 1))))

    return _level_series(name, b, term, tail, 0, 0.0, scale=floor)


def weighted_digit_sum(b: int, g: SequenceFn):
    """sum_{n>=1} (digit sum of n in base b) * g(n), evaluated through the
    series inverse as sum_{j=1}^{b-1} j sum_{n>=0} f(bn+j).

    For a decay g the outer sum over n is cut at M = 1500, 3000 and 6000, each
    round one level-major series over its new start points bn + j with
    weights j, and extrapolated by two rounds of doubling.  That
    extrapolation states no bound: it assumes the outer tail is a power
    series in 1/M, nothing checks that, and a g off it can miss REL_TOL
    without raising.
    """
    if b < 2:
        raise ValueError("base must be >= 2")
    if g.support_bound is not None:
        total = 0
        for j in range(1, b):
            for m in range(j, g.support_bound, b):
                total = total + j * solve_implicit(b, g, m)
        return total
    if g.decay is None:
        raise ValueError("g needs support_bound or decay for the series solution")
    digits = np.arange(1, b, dtype=np.int64)

    def outer_partial(start: int, count: int) -> float:
        ns = (b * np.arange(start, count, dtype=np.int64)[:, None] + digits).ravel()
        return _level_major("weighted_digit_sum", b, g, ns, np.tile(digits, count - start))

    m0 = 1500
    s1 = outer_partial(0, m0)
    s2 = s1 + outer_partial(m0, 2 * m0)
    s4 = s2 + outer_partial(2 * m0, 4 * m0)
    a1 = 2.0 * s2 - s1
    a2 = 2.0 * s4 - s2
    return (4.0 * a2 - a1) / 3.0


def base_relation_check(b: int, g: SequenceFn) -> tuple:
    """Both sides of the splitting identity for a finitely supported sequence,
    sum_n s_b(n) (g(n) - sum_{j<b} g(bn+j)) and sum_{j=1}^{b-1} j sum_n g(bn+j),
    each summed in the arithmetic g.eval returns."""
    if g.support_bound is None:
        raise ValueError("the finite relation needs a support_bound")
    top = g.support_bound
    lhs = 0
    for n in range(1, top):
        inner = g.eval(n)
        for j in range(b):
            m = b * n + j
            if m < top:
                inner = inner - g.eval(m)
        lhs = lhs + digit_sum(n, b) * inner
    rhs = 0
    for j in range(1, b):
        m = j
        n = 0
        while m < top:
            rhs = rhs + j * g.eval(m)
            n += 1
            m = b * n + j
    return lhs, rhs


def recover_j_infinity_check(x: float) -> tuple[float, int, float]:
    """The infinite digit-sum bracket sum sum_{n>=1} s_2(n)/((x+n)(x+n+1)),
    rebuilt from the series inverse of g(n) = 1/((x+n)(x+n+1)).

    The solved form collapses to
    sum_{k>=0} 2^(-k-2) sum_{n>=1} 1/((w+n-1/2)(w+n)), w = x/2^(k+1), and each
    inner sum is 2 (psi(w+1) - psi(w+1/2)), one hurwitz_difference at the gap
    1/2.  Returns (value, levels summed, bound on the omitted levels).
    """
    if not x > 0:
        raise ValueError("x must be positive")
    levels = []

    def term(k: int) -> float:
        levels.append(k)
        return 2.0 ** (-k - 1) * hurwitz_difference(1.0, x / 2.0 ** (k + 1) + 0.5, 0.5)

    # every remaining inner sum is below the w -> 0 limit of 4 log 2
    tail = lambda k, t: 2.0 ** (-k - 2) * (4.0 * math.log(2.0) + 1.0)
    total = _level_series("recover_j_infinity_check", 2, term, tail, 0, 0.0)
    return total, len(levels), tail(levels[-1], 0.0)
