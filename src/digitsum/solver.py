"""Inversion of the base-b splitting relation g(n) = f(n) - sum_j f(bn+j),
and the digit-sum-weighted sums it unlocks: term by term over a finite
support, by a level series over base-b blocks for a decaying g."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .digitseq import digit_sum
from .specfun import REL_TOL, TAIL_SAFETY, TruncationBudgetError, _level_series, hurwitz_zeta

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
    returns sum_{t=a}^{c-1} g(t) in closed form.  The decay solver calls it
    elementwise on float64 arrays a, c holding the exact block bounds (each
    rounded once to float64), so it must be written in numpy-compatible
    arithmetic.  When both are given, the finite support is used.
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


_MAX_LEVELS = 60  # the decay series gives up after levels 0 .. _MAX_LEVELS
# outer terms of the first round of the decay route's doubling extrapolation
_OUTER_TERMS = 1500


def solve_implicit(b: int, g: SequenceFn, n: int):
    """f(n) = sum_{k>=0} sum_{l<b^k} g(b^k n + l), the series inverse of
    g(n) = f(n) - sum_{j<b} f(bn+j)."""
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
    return float(_solve_series(b, g, np.array([n]))[0])


def _level_bounds(scale: int, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """float64 of the exact integers scale*n and scale*(n+1), each rounded once."""
    if scale * (int(ns.max()) + 1) < 2**63:  # the int64 products cannot wrap
        lo = ns * scale
        return lo.astype(np.float64), (lo + scale).astype(np.float64)
    exact = [scale * n for n in ns.tolist()]
    return (
        np.array([float(v) for v in exact]),
        np.array([float(v + scale) for v in exact]),
    )


def _solve_series(b: int, g: SequenceFn, ns: np.ndarray) -> np.ndarray:
    """The decay series of solve_implicit for every start point in ns at once.

    Level k adds the block [b^k n, b^k (n+1)) to each point still active; a
    point leaves at the first level whose tail bound meets the tolerance, so
    its value does not depend on which other points share the call.
    """
    c, beta = g.decay
    ratio = float(b) ** (1.0 - beta)
    # python floats, not np.power, whose last bit can differ from libm pow
    floors = np.array([c * float(n) ** (-beta) for n in ns.tolist()], dtype=np.float64)
    totals = np.zeros(len(ns))
    # the active points, compacted: their place in ns, start, running total and floor
    index, starts, running = np.arange(len(ns)), ns, np.zeros(len(ns))
    for k in range(_MAX_LEVELS + 1):
        running = running + g.partial_sum(*_level_bounds(b**k, starts))
        tail = floors * ratio ** (k + 1) / (1.0 - ratio)
        done = TAIL_SAFETY * tail <= REL_TOL * np.maximum(np.abs(running), floors)
        totals[index[done]] = running[done]
        keep = ~done
        index, starts, running, floors = index[keep], starts[keep], running[keep], floors[keep]
        if index.size == 0:
            return totals
    raise TruncationBudgetError(
        f"decay bound not met within {_MAX_LEVELS} levels",
        _MAX_LEVELS + 1,
        float(floors[0]) * ratio ** (_MAX_LEVELS + 1) / (1.0 - ratio),
    )


def weighted_digit_sum(b: int, g: SequenceFn):
    """sum_{n>=1} (digit sum of n in base b) * g(n), evaluated through the
    series inverse as sum_{j=1}^{b-1} j sum_{n>=0} f(bn+j)."""
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

    def outer_partial(count: int, start: int, acc):
        # one series call per round over the start points b*n + j, n-major;
        # the terms j f(bn+j) go onto acc one at a time in that order, as
        # np.add.accumulate adds, since a pairwise np.sum would round
        # differently and change the reported value
        digits = np.arange(1, b, dtype=np.int64)
        ms = (b * np.arange(start, count, dtype=np.int64)[:, None] + digits).ravel()
        terms = np.tile(digits, count - start) * _solve_series(b, g, ms)
        return float(np.add.accumulate(np.concatenate(([acc], terms)))[-1])

    # the outer tail behaves like a power series in 1/M, so two rounds of
    # doubling extrapolation strip the 1/M and 1/M^2 parts
    m0 = _OUTER_TERMS
    s1 = outer_partial(m0, 0, 0.0)
    s2 = outer_partial(2 * m0, m0, s1)
    s4 = outer_partial(4 * m0, 2 * m0, s2)
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
    sum_{k>=0} 2^(-k-2) sum_{n>=1} 1/((w+n-1/2)(w+n)), w = x/2^(k+1).
    Returns (value, inner terms summed directly, bound on the omitted levels).
    """
    if not x > 0:
        raise ValueError("x must be positive")
    inner_terms = 256
    n = np.arange(1.0, inner_terms + 1.0)
    levels = []

    def term(k: int) -> float:
        levels.append(k)
        w = x / 2.0 ** (k + 1)
        # n order, as np.add.accumulate adds; two reciprocals: (w+n-1/2)(w+n) overflows past 1e154
        window = w + n
        inner = float(np.add.accumulate(1.0 / (window - 0.5) * (1.0 / window))[-1])
        # remainder past the direct window, expanded in half-integer shifts:
        # sum_{r>=0} 2^-r zeta(r+2, w + M + 1)
        edge = w + inner_terms + 1.0
        for r in range(64):
            piece = 2.0**-r * hurwitz_zeta(r + 2.0, edge)
            inner += piece
            if piece <= 1e-18 * inner:
                break
        return 2.0 ** (-k - 2) * inner

    # every remaining inner sum is below the w -> 0 limit of 4 log 2
    tail = lambda k, t: 2.0 ** (-k - 2) * (4.0 * math.log(2.0) + 1.0)
    total = _level_series("recover_j_infinity_check", 2, term, tail, 0, 0.0)
    return total, inner_terms * len(levels), tail(levels[-1], 0.0)
