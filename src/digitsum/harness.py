"""Identity catalog, grid runner, and machine-readable reporting.

Every registered identity pairs a closed-form evaluator with an independent
oracle; run_suite sweeps a parameter grid and collects IdentityReport rows
whose serialized form is byte-stable across runs.  The report type and its
pass rule live here, and every report is built here.
"""
from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import altsum, lambert, solver
from .digitseq import (
    _power_weight,
    delta_digit_sum,
    digit_sum_range,
    digit_weighted_sum,
    valuation2_range,
)
from .identities import (
    binary_corollary_closed,
    digit_zeta_2,
    direct_digit_zeta,
    direct_j_infinity,
    direct_product_log,
    double_sum_alternate,
    finite_barnes_closed,
    finite_zeta_diff_closed,
    finite_zeta_diff_direct,
    infinite_barnes,
    infinite_product,
    infinite_zeta_diff,
    j_infinity,
    j_infinity_taylor_coeff,
    j_recurrence_check,
    product_special_values,
)
from .lambert import finite_gf_coefficients, lambert_gf, rankwise_coefficients
from .solver import SequenceFn
from .specfun import REL_TOL, dirichlet_eta

__all__ = [
    "Criterion",
    "IdentityReport",
    "build_report",
    "exact_report",
    "GridSpec",
    "RunReport",
    "identity_ids",
    "default_grid",
    "run_suite",
    "run_all",
    "emit_report",
]

_ORACLE_TERMS = 200_000


# ---------------------------------------------------------------------------
# Reports and their pass rule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Criterion:
    """The pass rule a report carries.

    A point passes when rel_err <= rel, or when abs > 0 and abs_err <= abs,
    and in either case rel_err <= cap.  Criterion(0.0) is an exact match.
    The abs > 0 guard matters: an exact mismatch whose totals agree carries
    abs_err = 0 and rel_err = 1, and must still fail.
    """

    rel: float
    abs: float = 0.0
    cap: float = math.inf

    def admits(self, abs_err: float, rel_err: float) -> bool:
        within = rel_err <= self.rel or (self.abs > 0.0 and abs_err <= self.abs)
        return within and rel_err <= self.cap


@dataclass(frozen=True)
class IdentityReport:
    """One closed-form-versus-oracle comparison, judged by its criterion.

    terms and tail_bound describe the truncation of the oracle: how many
    terms it summed and the bound on what it left out.
    """

    identity_id: str
    params: dict
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    criterion: Criterion
    terms: int = 0
    tail_bound: float = 0.0

    @property
    def passed(self) -> bool:
        return self.criterion.admits(self.abs_err, self.rel_err)


def build_report(
    identity_id: str,
    params: dict,
    lhs: float,
    rhs: float,
    rel_tol: float,
    terms: int = 0,
    tail_bound: float = 0.0,
    scale: float = 0.0,
    legs=(),
) -> IdentityReport:
    """Judge a float comparison; every float report is built here.

    abs_err is |lhs - rhs|.  rel_err is the worst of |lhs - rhs| over
    max(scale, |rhs|) and, for each further leg (value, reference, leg_scale)
    the runner compares, |value - reference| over leg_scale.  The point passes
    within rel_tol, or within the absolute budget tail_bound + REL_TOL |lhs|, the
    stated truncation plus the evaluators' rounding, while tail_bound > 0 and the
    budget is below |rhs|: a wider one would admit any lhs of the right size."""
    abs_err = abs(lhs - rhs)
    rel_err = max(
        [abs_err / max(scale, abs(rhs), 1e-300)]
        + [abs(value - ref) / max(leg_scale, 1e-300) for value, ref, leg_scale in legs]
    )
    budget = tail_bound + REL_TOL * abs(lhs) if tail_bound > 0 else 0.0
    criterion = Criterion(rel_tol, budget if budget < abs(rhs) else 0.0)
    return IdentityReport(
        identity_id, params, lhs, rhs, abs_err, rel_err, criterion, terms, tail_bound
    )


def exact_report(
    identity_id: str, params: dict, matched: bool, lhs, rhs, terms: int
) -> IdentityReport:
    """Report an exact check: rel_err is 0 on a match and 1 otherwise."""
    abs_err = 0.0 if matched else abs(float(lhs) - float(rhs))
    rel_err = 0.0 if matched else 1.0
    return IdentityReport(identity_id, params, lhs, rhs, abs_err, rel_err, Criterion(0.0), terms)


# ---------------------------------------------------------------------------
# Grid and run containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    identity_id: str
    ranges: dict = field(default_factory=dict)  # param name -> list of values
    tol: Optional[float] = None  # also require rel_err <= tol at every point

    def __post_init__(self) -> None:
        for name, values in self.ranges.items():
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"range for {name!r} must be a list")
        if self.tol is not None and not self.tol >= 0:
            raise ValueError("tol must be a non-negative number")


@dataclass(frozen=True)
class RunReport:
    reports: list

    @property
    def summary(self) -> dict:
        """{"pass": int, "fail": int}, counted from the reports."""
        passed = sum(1 for r in self.reports if r.passed)
        return {"pass": passed, "fail": len(self.reports) - passed}

    @property
    def worst_rel_err(self) -> float:
        return max((r.rel_err for r in self.reports), default=0.0)


# ---------------------------------------------------------------------------
# Identity runners: each maps one grid point to one or more reports
# ---------------------------------------------------------------------------


def _putnam_sequence() -> SequenceFn:
    return SequenceFn(
        eval=lambda n: 1.0 / (n * (n + 1.0)),
        decay=(1.0, 2.0),
        partial_sum=lambda a, c: 1.0 / a - 1.0 / c,
    )


def _run_thm21(params):
    b, p, alpha, z = params["b"], params["p"], params["alpha"], params["z"]
    lhs = finite_zeta_diff_closed(b, p, alpha, z)
    rhs = finite_zeta_diff_direct(b, p, alpha, z)
    return [build_report("thm2.1", params, lhs, rhs, rel_tol=1e-9, terms=b**p)]


def _run_cor_eq_zeta(params):
    p = params["p"]
    lhs = infinite_zeta_diff(2, float(p), 0.0)
    # (1 - 2^(1-p)) / (1 - 2^-p) zeta(p) is (-1)^(p-1) times the order p - 1
    # Taylor coefficient of j_infinity at x = 0
    rhs = (-1.0) ** (p - 1) * j_infinity_taylor_coeff(2, p - 1)
    return [build_report("cor-eq-zeta", params, lhs, rhs, rel_tol=1e-9)]


def _run_thm31(params):
    p, alpha, z = params["p"], params["alpha"], params["z"]
    lhs = binary_corollary_closed(p, alpha, z)
    rhs = finite_zeta_diff_direct(2, p, alpha, z)
    # the alternating double-sum form is a second leg against the same oracle
    legs = [(double_sum_alternate(p, alpha, z), rhs, abs(rhs))]
    return [build_report("thm3.1", params, lhs, rhs, 1e-9, terms=2**p, legs=legs)]


def _run_jinfty(params):
    b, x = params["b"], params["x"]
    lhs = j_infinity(b, x)
    mid, half = direct_j_infinity(b, x, _ORACLE_TERMS)
    return [build_report("jinfty", params, lhs, mid, 1e-12, _ORACLE_TERMS, half)]


def _run_j_recurrence(params):
    N = params["N"]
    (lhs, rhs), *rest = j_recurrence_check(N, params["x"])
    # for N = 2^p - 1 the closed form is a second leg
    legs = [(a, c, abs(c)) for a, c in rest]
    return [build_report("j-recurrence", params, lhs, rhs, 1e-9, terms=3 * N + 2, legs=legs)]


def _run_inf_product(params):
    b, z = params["b"], params["z"]
    lhs = infinite_product(b, z)
    log_mid, log_half = direct_product_log(b, z, _ORACLE_TERMS)
    # the log bracket in value units: exp(log_mid +- log_half) is within
    # rhs expm1(log_half) of rhs
    rhs = math.exp(log_mid)
    half = rhs * math.expm1(log_half)
    return [build_report("inf-product", params, lhs, rhs, 1e-12, _ORACLE_TERMS, half)]


def _run_pi_over_2(params):
    lhs, rhs = product_special_values(params["case"])
    return [build_report("pi-over-2", params, lhs, rhs, rel_tol=1e-8)]


def _run_thm29_finite(params):
    b, p, alpha, z = params["b"], params["p"], params["alpha"], params["z"]
    lhs = finite_barnes_closed(b, p, alpha, z)
    rhs = digit_weighted_sum(b**p, b, _power_weight(alpha), z)
    return [build_report("thm29-finite", params, lhs, rhs, rel_tol=1e-8, terms=b**p)]


def _run_thm29_infinite(params):
    b, alpha, z = params["b"], params["alpha"], params["z"]
    lhs = infinite_barnes(b, alpha, z)
    mid, half = direct_digit_zeta(b, alpha, z, _ORACLE_TERMS)
    return [build_report("thm29-infinite", params, lhs, mid, 1e-9, _ORACLE_TERMS, half)]


def _run_cor30(params):
    b, z = params["b"], params["z"]
    lhs = digit_zeta_2(b, z)
    mid, half = direct_digit_zeta(b, 2.0, z, _ORACLE_TERMS)
    return [build_report("cor30", params, lhs, mid, 0.0, _ORACLE_TERMS, half)]


def _run_thm41(params):
    b, z = params["b"], params["z"]
    lhs = lambert_gf(b, z)
    cut = 600
    rhs = digit_weighted_sum(cut + 1, b, lambda n, out: np.power(z, n, out=out), 0.0)
    digits_per_term = (b - 1) * (math.log(cut) / math.log(b) + 2.0)
    tail = digits_per_term * abs(z) ** (cut + 1) / (1.0 - abs(z)) ** 2
    return [build_report("thm4.1", params, lhs, rhs, 1e-12, cut, tail)]


def _run_lambert_finite(params):
    b, p = params["b"], params["p"]
    coeffs = finite_gf_coefficients(b, p)
    want = digit_sum_range(b**p, b)
    matched = len(coeffs) == len(want) and all(
        c == int(w) for c, w in zip(coeffs, want)
    )
    return [
        exact_report(
            "lambert-finite", params, matched, int(sum(coeffs)), int(want.sum()), b**p
        )
    ]


def _run_rankwise(params):
    b, p = params["b"], params["p"]
    rows = rankwise_coefficients(b, p)
    matched = all(
        rows[l][n] == (n // b**l) % b for l in range(p) for n in range(b**p)
    )
    total = sum(sum(row) for row in rows)
    want = int(digit_sum_range(b**p, b).sum())
    return [exact_report("rankwise", params, matched and total == want, total, want, b**p)]


def _run_thm_2adic(params):
    n_max = params["n_max"]
    s = digit_sum_range(n_max + 1, 2)
    nu = valuation2_range(n_max + 1)
    increments_ok = bool(np.array_equal((s[1:] - s[:-1]) + nu[1:], np.ones(n_max, dtype=nu.dtype)))
    factorial_ok = bool(np.array_equal(np.cumsum(nu[1:]) + s[1:], np.arange(1, n_max + 1)))
    matched = increments_ok and factorial_ok
    return [exact_report("thm-2adic", params, matched, int(matched) * n_max, n_max, n_max)]


def _run_mobius_inverse(params):
    n_max = params["n_max"]
    hits = n_max - len(lambert.mobius_inverse_check(n_max))
    return [exact_report("mobius-inverse", params, hits == n_max, hits, n_max, n_max)]


def _run_partition_conv(params):
    convolutions = lambert.partition_convolution_check(params["n_max"])
    # the convolution at n against the one-step digit-sum increment at n - 1;
    # each row is the grid point plus its own index n
    return [
        build_report(
            "partition-conv", {**params, "n": n}, float(c), float(delta_digit_sum(n - 1, 2)), 0.0
        )
        for n, c in enumerate(convolutions, 1)
    ]


def _run_eta_bridge(params):
    s, terms = float(params["s"]), 1_500_000
    mid, half = lambert.eta_dirichlet_bridge_check(s, terms)
    eta = dirichlet_eta(s)
    lhs = 1.0 / (1.0 - 2.0**-s)
    # the tail bracket carried through the division by eta
    return [build_report("eta-bridge", params, lhs, mid / eta, 0.0, terms, half / abs(eta))]


def _run_thm51(params):
    N, x = params["N"], params["x"]
    f = lambda t: 1.0 / (t + 0.7)
    direct = altsum.alternating_sum_direct(f, x, N)
    product = altsum.delta_product_form(f, x, N)
    weighted = altsum.alternating_sum_via_weights(f, x, N)
    plain = max(sum(abs(f(x + n)) for n in range(2**N)), 1.0)
    table = altsum.alpha_weights(N - 1).alpha
    heavy = max(
        sum(
            a * sum(math.comb(N, l) * abs(f(x + k + l)) for l in range(N + 1))
            for k, a in enumerate(table)
        ),
        plain,
    )
    # the product form is a second leg, on the scale of the plain sum
    legs = [(direct, product, plain)]
    return [
        build_report("thm5.1", params, direct, weighted, 1e-9, terms=2**N, scale=heavy, legs=legs)
    ]


def _run_as1(params):
    N = params["N"]
    got = altsum.alternating_sum_via_weights(lambda t: t**N, 0, N)
    want = (-1) ** N * 2 ** (N * (N - 1) // 2) * math.factorial(N)
    return [exact_report("as1", params, got == want, got, want, 2**N)]


def _run_as2(params):
    N = params["N"]
    x = Fraction(params["x"])
    # an integral x keeps the exact sum in int arithmetic, as in _run_as1
    start = x.numerator if x.denominator == 1 else x
    got = altsum.alternating_sum_via_weights(lambda t: t ** (N + 1), start, N)
    want = (
        (-1) ** N
        * math.factorial(N + 1)
        * 2 ** (N * (N - 1) // 2)
        * (x + Fraction(2**N - 1, 2))
    )
    return [exact_report("as2", params, got == want, got, want, 2**N)]


def _run_prouhet(params):
    N = params["N"]
    # lhs counts the checks that hold: degree N - 1 is annihilated, x^N is not
    held = altsum.polynomial_annihilation_check([1] * N, N) + (
        not altsum.polynomial_annihilation_check([0] * N + [1], N)
    )
    return [exact_report("prouhet", params, held == 2, held, 2, 2**N)]


def _run_weights(params):
    N = params["N"]
    table = altsum.alpha_weights(N)
    oracle = altsum.alpha_weights_oracle(N)
    matched = table.alpha == oracle.alpha
    total = 2 ** (N * (N + 1) // 2)
    return [exact_report("weights", params, matched, sum(table.alpha), total, len(table.alpha))]


def _run_zn_cumulants(params):
    N, order = params["N"], params["order"]
    lhs = altsum.standardized_cumulant(N, order)
    rhs = float(altsum.pmf_standardized_cumulant(N, order))
    return [build_report("zn-cumulants", params, lhs, rhs, rel_tol=1e-10)]


def _run_mgf_consistency(params):
    z, N = params["z"], params["N"]
    by_level, by_scale = altsum.zn_mgf(z, N)
    masses = altsum.zn_pmf(N)
    try:
        transform = sum(float(m) * math.exp(z * k) for k, m in enumerate(masses))
    except OverflowError:
        # a term e^(zk) passes the float range before the transform does: sum
        # with the largest exponent, z k at the last k, factored out in log space
        top = z * (len(masses) - 1)
        rest = sum(float(m) * math.exp(z * k - top) for k, m in enumerate(masses))
        try:
            transform = math.exp(top + math.log(rest))
        except OverflowError:
            raise ValueError(
                f"mgf-consistency: E[e^(z Z_N)] at z = {z}, N = {N} is past the float range"
            ) from None
    scale = max(abs(by_level), abs(by_scale), abs(transform))
    # the scale form is a second leg against the level form
    legs = [(by_level, by_scale, scale)]
    return [
        build_report(
            "mgf-consistency", params, by_level, transform, 1e-12,
            terms=len(masses), scale=scale, legs=legs,
        )
    ]


def _run_thm62(params):
    n = params["n"]
    g = SequenceFn(
        eval=lambda m: m**-2.0 - (m + 1.0) ** -2.0,
        decay=(3.0, 3.0),
        partial_sum=lambda a, c: a**-2.0 - c**-2.0,
    )
    lhs = solver.solve_implicit(2, g, n)
    rhs = (n**-2.0 - (n + 1.0) ** -2.0) / (1.0 - 0.25)
    return [build_report("thm6.2", params, lhs, rhs, rel_tol=1e-11)]


def _run_thm66(params):
    b = params["b"]
    lhs = solver.weighted_digit_sum(b, _putnam_sequence())
    rhs = b / (b - 1.0) * math.log(b)
    return [build_report("thm6.6", params, lhs, rhs, rel_tol=1e-8)]


def _run_thm68(params):
    p = params["p"]
    g = lambda n: Fraction((7 * n**3 - 5 * n + 3) % 97 - 48, 11)
    lhs = solver.weighted_digit_sum(2, SequenceFn(eval=g, support_bound=2**p))
    s = digit_sum_range(2**p, 2)
    rhs = sum(int(s[n]) * g(n) for n in range(1, 2**p))
    return [exact_report("thm6.8", params, lhs == rhs, lhs, rhs, 2**p)]


def _run_base_relation(params):
    b = params["b"]
    top = b**4 + 1
    g = SequenceFn(
        eval=lambda n: 1.0 / (n + 1.0) ** 2 if n < top else 0.0,
        support_bound=top,
    )
    lhs, rhs = solver.base_relation_check(b, g)
    # neither side is the reference, so the larger one scales the error
    return [build_report("base-relation", params, lhs, rhs, 1e-12, terms=top, scale=abs(lhs))]


def _run_recover_jinfty(params):
    x = params["x"]
    lhs, terms, tail = solver.recover_j_infinity_check(x)
    rhs = j_infinity(2, x)
    # neither side is the reference, so the larger one scales the error.  The
    # tail bounds the levels lhs leaves out, not an oracle's; it is at most
    # 0.1 REL_TOL |lhs|, so its budget of at most 1.1e-12 |lhs| can pass no
    # point that the 1e-9 relative rule fails
    return [build_report("recover-jinfty", params, lhs, rhs, 1e-9, terms, tail, abs(lhs))]


@dataclass(frozen=True)
class _Entry:
    runner: Callable
    defaults: dict  # param name -> list of values, declared order


_REGISTRY: dict[str, _Entry] = {
    "thm2.1": _Entry(
        _run_thm21,
        {"b": [2, 3], "p": [1, 2, 3, 4], "alpha": [0.5, 1.0, 2.0], "z": [0.0, 1.0]},
    ),
    "cor-eq-zeta": _Entry(_run_cor_eq_zeta, {"p": [2, 3, 4, 5, 6, 7, 8]}),
    "thm3.1": _Entry(
        _run_thm31, {"p": [1, 2, 3, 4], "alpha": [0.5, 1.0, 2.5], "z": [0.0, 0.5]}
    ),
    "jinfty": _Entry(_run_jinfty, {"b": [2, 3], "x": [0.5, 1.0, 2.0]}),
    "j-recurrence": _Entry(_run_j_recurrence, {"N": [3, 7, 15], "x": [0.7, 2.5]}),
    "inf-product": _Entry(_run_inf_product, {"b": [2, 3], "z": [0.3, 1.0, -0.6]}),
    "pi-over-2": _Entry(
        _run_pi_over_2,
        {"case": ["half-circle", "quarter-family", "lemniscatic", "eighth-family"]},
    ),
    "thm29-finite": _Entry(
        _run_thm29_finite,
        {"b": [2, 3], "p": [1, 2, 3], "alpha": [2.5, 4.0], "z": [0.0, 0.5]},
    ),
    "thm29-infinite": _Entry(
        _run_thm29_infinite, {"b": [2, 3], "alpha": [2.5, 3.5], "z": [0.5, 1.0]}
    ),
    "cor30": _Entry(_run_cor30, {"b": [2, 3], "z": [0.25, 1.0, 2.0]}),
    "thm4.1": _Entry(_run_thm41, {"b": [2, 3], "z": [0.5, -0.3]}),
    "lambert-finite": _Entry(_run_lambert_finite, {"b": [2, 3], "p": [1, 2, 3, 4, 5]}),
    "rankwise": _Entry(_run_rankwise, {"b": [2, 3], "p": [1, 2, 3, 4]}),
    "thm-2adic": _Entry(_run_thm_2adic, {"n_max": [100_000]}),
    "mobius-inverse": _Entry(_run_mobius_inverse, {"n_max": [2000]}),
    "partition-conv": _Entry(_run_partition_conv, {"n_max": [64]}),
    "eta-bridge": _Entry(_run_eta_bridge, {"s": [1.5, 2.0, 3.0]}),
    "thm5.1": _Entry(
        _run_thm51, {"N": [1, 2, 3, 4, 5, 6, 7, 8], "x": [0.0, 0.3]}
    ),
    "as1": _Entry(_run_as1, {"N": [1, 2, 3, 4, 5, 6, 7, 8]}),
    "as2": _Entry(_run_as2, {"N": [1, 2, 3, 4, 5, 6], "x": [0.0, 1.0, -1.5]}),
    "prouhet": _Entry(_run_prouhet, {"N": [2, 3, 4, 5, 6]}),
    "weights": _Entry(_run_weights, {"N": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]}),
    "zn-cumulants": _Entry(
        _run_zn_cumulants, {"N": [2, 4, 6, 8], "order": [2, 4, 6, 8]}
    ),
    "mgf-consistency": _Entry(
        _run_mgf_consistency, {"z": [-1.0, 0.1, 0.5], "N": [2, 4]}
    ),
    "thm6.2": _Entry(_run_thm62, {"n": [1, 2, 3, 10]}),
    "thm6.6": _Entry(_run_thm66, {"b": [2, 3]}),
    "thm6.8": _Entry(_run_thm68, {"p": [4, 6, 8]}),
    "base-relation": _Entry(_run_base_relation, {"b": [2, 3]}),
    "recover-jinfty": _Entry(_run_recover_jinfty, {"x": [0.1, 1.0, 100.0]}),
}


def identity_ids() -> list[str]:
    return list(_REGISTRY)


def default_grid(identity_id: str) -> dict:
    if identity_id not in _REGISTRY:
        raise ValueError(f"unknown identity {identity_id!r}")
    return {name: list(values) for name, values in _REGISTRY[identity_id].defaults.items()}


# ---------------------------------------------------------------------------
# Suite execution
# ---------------------------------------------------------------------------


def _grid_points(entry: _Entry, overrides: dict) -> list[dict]:
    unknown = set(overrides) - set(entry.defaults)
    if unknown:
        raise ValueError(f"parameters not in the identity schema: {sorted(unknown)}")
    for name, values in overrides.items():
        defaults = entry.defaults[name]
        # a parameter takes the type of its defaults: an int, a finite
        # number, or a case name
        if all(type(v) is int for v in defaults):
            kind, fits = "an integer", lambda v: type(v) is int
        elif all(type(v) is str for v in defaults):
            kind, fits = "a string", lambda v: type(v) is str
        else:
            kind = "a finite number"
            # an int too large for a float is not finite either
            fits = lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max
        for value in values:
            if not fits(value):
                raise ValueError(f"parameter {name!r} must be {kind}, got {value!r}")
    names = list(entry.defaults)
    ranges = [list(overrides.get(name, entry.defaults[name])) for name in names]
    return [dict(zip(names, combo)) for combo in itertools.product(*ranges)]


def run_suite(grid: GridSpec) -> RunReport:
    """Evaluate one identity over its grid; report order is the grid order.
    Every criterion is calibrated to the evaluators' fixed REL_TOL."""
    if grid.identity_id not in _REGISTRY:
        raise ValueError(f"unknown identity {grid.identity_id!r}")
    entry = _REGISTRY[grid.identity_id]
    points = _grid_points(entry, grid.ranges)
    reports = [report for point in points for report in entry.runner(point)]
    if grid.tol is not None:
        # no runner sets a cap, so this only adds a condition: it can fail a
        # point but never pass one
        reports = [replace(r, criterion=replace(r.criterion, cap=grid.tol)) for r in reports]
    return RunReport(reports)


def run_all(tol: Optional[float] = None) -> RunReport:
    """Every registered identity on its compiled-in default grid."""
    reports = []
    for identity_id in identity_ids():
        suite = run_suite(GridSpec(identity_id, {}, tol))
        reports.extend(suite.reports)
    return RunReport(reports)


# ---------------------------------------------------------------------------
# Serialization: byte-stable JSON and CSV
# ---------------------------------------------------------------------------


def _fmt_value(v) -> str:
    # report values: floats as bare 17-significant-digit numbers, exact
    # integers and rationals as quoted decimal strings
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, (int, Fraction)):
        return '"' + str(v) + '"'
    return json.dumps(v)


def _params_json(params: dict) -> str:
    # parameters are written as values are, except that an int is bare
    inner = ",".join(
        json.dumps(name) + ":" + (str(v) if type(v) is int else _fmt_value(v))
        for name, v in sorted(params.items())
    )
    return "{" + inner + "}"


def _report_cells(report: IdentityReport) -> list[str]:
    # the report's fields in order, each as its JSON text
    return [
        json.dumps(report.identity_id),
        _params_json(report.params),
        _fmt_value(report.lhs),
        _fmt_value(report.rhs),
        _fmt_value(report.abs_err),
        _fmt_value(report.rel_err),
        str(report.terms),
        _fmt_value(report.tail_bound),
        "true" if report.passed else "false",
    ]


_JSON_ROW = (
    '{{"identity":{},"params":{},"lhs":{},"rhs":{},"abs_err":{},"rel_err":{},'
    '"truncation":{{"terms":{},"tail_bound":{}}},"pass":{}}}'
)
_CSV_HEADER = "identity,params,lhs,rhs,abs_err,rel_err,terms,tail_bound,pass"


def _report_json(report: IdentityReport) -> str:
    return _JSON_ROW.format(*_report_cells(report))


def _report_csv(report: IdentityReport) -> str:
    # a cell is its JSON text unquoted, quoted again CSV-style if it must be
    cells = (cell.strip('"') for cell in _report_cells(report))
    return ",".join(
        '"' + cell.replace('"', '""') + '"' if any(c in cell for c in ',"\n') else cell
        for cell in cells
    )


def emit_report(run: RunReport, format: str = "json") -> bytes:
    """Serialize a run, byte-identical across identical runs.  The JSON puts
    each report on a line of its own, so a diff of two reports shows the rows
    that moved."""
    if format == "json":
        body = ",".join("\n" + _report_json(r) for r in run.reports)
        text = (
            '{"reports":['
            + body
            + '],"summary":{"pass":'
            + str(run.summary["pass"])
            + ',"fail":'
            + str(run.summary["fail"])
            + '},"worst_rel_err":'
            + _fmt_value(float(run.worst_rel_err))
            + "}"
        )
        return text.encode()
    if format == "csv":
        lines = [_CSV_HEADER] + [_report_csv(r) for r in run.reports]
        return ("\n".join(lines) + "\n").encode()
    raise ValueError("format must be 'json' or 'csv'")
