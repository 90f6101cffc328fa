"""Identity catalog, grid runner, and machine-readable reporting.

Every registered identity pairs a closed-form evaluator with an independent
oracle; run_suite sweeps a parameter grid and collects IdentityReport rows
whose serialized form is byte-stable across runs.
"""
from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import altsum, lambert, solver
from .digitseq import digit_sum_range, digit_weighted_sum, valuation2_range
from .identities import (
    FiniteSumParams,
    IdentityReport,
    binary_corollary_closed,
    build_report,
    digit_zeta_2,
    direct_digit_zeta,
    direct_j_infinity,
    direct_product_log,
    finite_barnes_closed,
    finite_zeta_diff_closed,
    finite_zeta_diff_direct,
    infinite_barnes,
    infinite_product,
    infinite_zeta_diff,
    j_infinity,
    j_recurrence_check,
    product_special_values,
)
from .lambert import finite_gf_coefficients, lambert_gf, rankwise_coefficients
from .solver import SequenceFn, recover_j_infinity_check
from .specfun import DEFAULT_CTX, PrecisionContext, hurwitz_zeta

__all__ = [
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
# Grid and run containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    identity_id: str
    ranges: dict = field(default_factory=dict)  # param name -> list of values
    tolerances: Optional[dict] = None  # {"rel": x} also requires rel_err <= x

    def __post_init__(self) -> None:
        for name, values in self.ranges.items():
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"range for {name!r} must be a list")
        if self.tolerances is not None:
            unknown = set(self.tolerances) - {"rel"}
            if unknown:
                raise ValueError(f"unknown tolerance keys: {sorted(unknown)}")
            if "rel" in self.tolerances and not self.tolerances["rel"] >= 0:
                raise ValueError("tolerance 'rel' must be a non-negative number")


@dataclass(frozen=True)
class RunReport:
    reports: list
    summary: dict  # {"pass": int, "fail": int}
    worst_rel_err: float
    wall_time: float


# ---------------------------------------------------------------------------
# Identity runners: each maps one grid point to one or more reports
# ---------------------------------------------------------------------------


def _plain_finite_direct(b: int, p: int, alpha: float, z: float) -> float:
    def fill(n, out):
        out[...] = (n + z) ** -alpha

    return digit_weighted_sum(b**p, b, fill)


def _putnam_sequence() -> SequenceFn:
    return SequenceFn(
        eval=lambda n: 1.0 / (n * (n + 1.0)),
        decay=(1.0, 2.0),
        partial_sum=lambda a, c: 1.0 / a - 1.0 / c,
    )


def _run_thm21(params, ctx):
    fp = FiniteSumParams(params["b"], params["p"], params["alpha"], params["z"])
    lhs = finite_zeta_diff_closed(fp, ctx)
    rhs = finite_zeta_diff_direct(fp)
    return [build_report("thm2.1", params, lhs, rhs, rel_tol=1e-9, terms=fp.b**fp.p)]


def _run_cor_eq_zeta(params, ctx):
    p = params["p"]
    lhs = infinite_zeta_diff(2, float(p), 0.0, ctx)
    zeta_p = hurwitz_zeta(float(p), 1.0, ctx)
    rhs = (1.0 - 2.0 ** (1 - p)) / (1.0 - 2.0**-p) * zeta_p
    return [build_report("cor-eq-zeta", params, lhs, rhs, rel_tol=1e-9)]


def _run_thm31(params, ctx):
    p, alpha, z = params["p"], params["alpha"], params["z"]
    lhs = binary_corollary_closed(p, alpha, z, ctx)
    rhs = finite_zeta_diff_direct(FiniteSumParams(2, p, alpha, z))
    return [build_report("thm3.1", params, lhs, rhs, rel_tol=1e-9, terms=2**p)]


def _run_jinfty(params, ctx):
    b, x = params["b"], params["x"]
    lhs = j_infinity(b, x, ctx)
    mid, half = direct_j_infinity(b, x, _ORACLE_TERMS)
    return [
        build_report(
            "jinfty",
            params,
            lhs,
            mid,
            rel_tol=1e-12,
            abs_tol=half + 1e-9 * abs(lhs),
            terms=_ORACLE_TERMS,
            tail_bound=half,
        )
    ]


def _run_j_recurrence(params, ctx):
    return [j_recurrence_check(params["N"], params["x"], ctx)]


def _run_inf_product(params, ctx):
    b, z = params["b"], params["z"]
    lhs = infinite_product(b, z, ctx)
    log_mid, log_half = direct_product_log(b, z, _ORACLE_TERMS)
    rhs = math.exp(log_mid)
    abs_tol = abs(rhs) * math.expm1(log_half) + 1e-9 * abs(rhs)
    return [
        build_report(
            "inf-product",
            params,
            lhs,
            rhs,
            rel_tol=1e-12,
            abs_tol=abs_tol,
            terms=_ORACLE_TERMS,
            tail_bound=log_half,
        )
    ]


def _run_pi_over_2(params, ctx):
    case = params["case"]
    for report in product_special_values(ctx):
        if report.params["case"] == case:
            return [report]
    raise ValueError(f"unknown special-value case {case!r}")


def _run_thm29_finite(params, ctx):
    b, p, alpha, z = params["b"], params["p"], params["alpha"], params["z"]
    lhs = finite_barnes_closed(b, p, alpha, z, ctx)
    rhs = _plain_finite_direct(b, p, alpha, z)
    return [build_report("thm29-finite", params, lhs, rhs, rel_tol=1e-8, terms=b**p)]


def _run_thm29_infinite(params, ctx):
    b, alpha, z = params["b"], params["alpha"], params["z"]
    lhs = infinite_barnes(b, alpha, z, ctx)
    mid, half = direct_digit_zeta(b, alpha, z, _ORACLE_TERMS)
    return [
        build_report(
            "thm29-infinite",
            params,
            lhs,
            mid,
            rel_tol=1e-9,
            abs_tol=half + 1e-9 * abs(lhs),
            terms=_ORACLE_TERMS,
            tail_bound=half,
        )
    ]


def _run_cor30(params, ctx):
    b, z = params["b"], params["z"]
    mid, half = direct_digit_zeta(b, 2.0, z, _ORACLE_TERMS)
    return [
        build_report(
            "cor30",
            params,
            digit_zeta_2(b, z, ctx),
            mid,
            rel_tol=0.0,
            abs_tol=max(1e-4, 10.0 * half),
            terms=_ORACLE_TERMS,
            tail_bound=half,
        )
    ]


def _run_thm41(params, ctx):
    b, z = params["b"], params["z"]
    lhs = lambert_gf(b, z, ctx)
    cut = 600
    weights = digit_sum_range(cut + 1, b).astype(np.float64)
    powers = np.abs(z) ** np.arange(cut + 1, dtype=np.float64)
    signs = np.sign(z) ** np.arange(cut + 1)
    rhs = float(np.dot(weights, powers * signs))
    digits_per_term = (b - 1) * (math.log(cut) / math.log(b) + 2.0)
    tail = digits_per_term * abs(z) ** (cut + 1) / (1.0 - abs(z)) ** 2
    return [
        build_report(
            "thm4.1",
            params,
            lhs,
            rhs,
            rel_tol=1e-12,
            abs_tol=tail + 1e-9 * abs(lhs),
            terms=cut,
            tail_bound=tail,
        )
    ]


def _exact_report(identity_id, params, matched: bool, lhs, rhs, terms: int):
    return IdentityReport(
        identity_id=identity_id,
        params=params,
        lhs=lhs,
        rhs=rhs,
        abs_err=0.0 if matched else abs(float(lhs) - float(rhs)),
        rel_err=0.0 if matched else 1.0,
        truncation={"terms": terms, "tail_bound": 0.0},
        passed=matched,
    )


def _run_lambert_finite(params, ctx):
    b, p = params["b"], params["p"]
    coeffs = finite_gf_coefficients(b, p)
    want = digit_sum_range(b**p, b)
    matched = len(coeffs) == len(want) and all(
        c == int(w) for c, w in zip(coeffs, want)
    )
    return [
        _exact_report(
            "lambert-finite", params, matched, int(sum(coeffs)), int(want.sum()), b**p
        )
    ]


def _run_rankwise(params, ctx):
    b, p = params["b"], params["p"]
    rows = rankwise_coefficients(b, p)
    matched = all(
        rows[l][n] == (n // b**l) % b for l in range(p) for n in range(b**p)
    )
    total = sum(sum(row) for row in rows)
    want = int(digit_sum_range(b**p, b).sum())
    return [_exact_report("rankwise", params, matched and total == want, total, want, b**p)]


def _run_thm_2adic(params, ctx):
    n_max = params["n_max"]
    s = digit_sum_range(n_max + 1, 2)
    nu = valuation2_range(n_max + 1)
    increments_ok = bool(np.array_equal((s[1:] - s[:-1]) + nu[1:], np.ones(n_max, dtype=nu.dtype)))
    factorial_ok = bool(np.array_equal(np.cumsum(nu[1:]) + s[1:], np.arange(1, n_max + 1)))
    matched = increments_ok and factorial_ok
    return [_exact_report("thm-2adic", params, matched, int(matched) * n_max, n_max, n_max)]


def _run_mobius_inverse(params, ctx):
    n_max = params["n_max"]
    hits = sum(1 for n in range(1, n_max + 1) if lambert.mobius_inverse_check(n))
    return [_exact_report("mobius-inverse", params, hits == n_max, hits, n_max, n_max)]


def _run_partition_conv(params, ctx):
    return lambert.partition_convolution_check(params["n_max"])


def _run_eta_bridge(params, ctx):
    return lambert.eta_dirichlet_bridge_check([params["s"]], ctx)


def _run_thm51(params, ctx):
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
    ok = abs(direct - product) <= 1e-9 * plain and abs(direct - weighted) <= 1e-9 * heavy
    rel = abs(direct - weighted) / heavy
    return [
        IdentityReport(
            identity_id="thm5.1",
            params=params,
            lhs=direct,
            rhs=weighted,
            abs_err=abs(direct - weighted),
            rel_err=rel,
            truncation={"terms": 2**N, "tail_bound": 0.0},
            passed=ok,
        )
    ]


def _run_as1(params, ctx):
    N = params["N"]
    got = altsum.alternating_sum_via_weights(lambda t: t**N, Fraction(0), N)
    want = (-1) ** N * 2 ** (N * (N - 1) // 2) * math.factorial(N)
    return [_exact_report("as1", params, got == want, got, want, 2**N)]


def _run_as2(params, ctx):
    N = params["N"]
    x = Fraction(params["x"])
    got = altsum.alternating_sum_via_weights(lambda t: t ** (N + 1), x, N)
    want = (
        (-1) ** N
        * math.factorial(N + 1)
        * 2 ** (N * (N - 1) // 2)
        * (x + Fraction(2**N - 1, 2))
    )
    return [_exact_report("as2", params, got == want, got, want, 2**N)]


def _run_prouhet(params, ctx):
    N = params["N"]
    annihilated = altsum.polynomial_annihilation_check([1] * N, N)
    survivor = not altsum.polynomial_annihilation_check([0] * N + [1], N)
    return [_exact_report("prouhet", params, annihilated and survivor, 0, 0, 2**N)]


def _run_weights(params, ctx):
    N = params["N"]
    table = altsum.alpha_weights(N)
    oracle = altsum.alpha_weights_oracle(N)
    matched = table.alpha == oracle.alpha
    total = 2 ** (N * (N + 1) // 2)
    return [_exact_report("weights", params, matched, sum(table.alpha), total, len(table.alpha))]


def _run_zn_cumulants(params, ctx):
    N, order = params["N"], params["order"]
    lhs = altsum.standardized_cumulant(N, order)
    rhs = float(altsum.pmf_standardized_cumulant(N, order))
    return [build_report("zn-cumulants", params, lhs, rhs, rel_tol=1e-10)]


def _run_mgf_consistency(params, ctx):
    z, N = params["z"], params["N"]
    by_level = altsum.zn_mgf(z, N, "product_over_i")
    by_scale = altsum.zn_mgf(z, N, "product_over_k")
    pmf = altsum.zn_pmf(N)
    transform = sum(float(m) * math.exp(z * k) for k, m in enumerate(pmf.mass))
    scale = max(abs(by_level), abs(by_scale), abs(transform))
    ok = (
        abs(by_level - by_scale) <= 1e-12 * scale
        and abs(by_level - transform) <= 5e-12 * scale
    )
    return [
        IdentityReport(
            identity_id="mgf-consistency",
            params=params,
            lhs=by_level,
            rhs=transform,
            abs_err=abs(by_level - transform),
            rel_err=abs(by_level - transform) / scale,
            truncation={"terms": len(pmf.mass), "tail_bound": 0.0},
            passed=ok,
        )
    ]


def _run_thm62(params, ctx):
    n = params["n"]
    g = SequenceFn(
        eval=lambda m: m**-2.0 - (m + 1.0) ** -2.0,
        decay=(3.0, 3.0),
        partial_sum=lambda a, c: a**-2.0 - c**-2.0,
    )
    lhs = solver.solve_implicit(2, g, n, ctx=ctx)
    rhs = (n**-2.0 - (n + 1.0) ** -2.0) / (1.0 - 0.25)
    return [build_report("thm6.2", params, lhs, rhs, rel_tol=1e-11)]


def _run_thm66(params, ctx):
    b = params["b"]
    lhs = solver.weighted_digit_sum(b, _putnam_sequence(), ctx=ctx)
    rhs = b / (b - 1.0) * math.log(b)
    return [build_report("thm6.6", params, lhs, rhs, rel_tol=1e-8)]


def _run_putnam(params, ctx):
    lhs = solver.weighted_digit_sum(2, _putnam_sequence(), ctx=ctx)
    rhs = 2.0 * math.log(2.0)
    return [build_report("putnam-2log2", params, lhs, rhs, rel_tol=1e-8)]


def _run_thm68(params, ctx):
    p = params["p"]
    g = lambda n: Fraction((7 * n**3 - 5 * n + 3) % 97 - 48, 11)
    lhs = solver.finite_weighted_sum(p, g)
    s = digit_sum_range(2**p, 2)
    rhs = sum(int(s[n]) * g(n) for n in range(1, 2**p))
    return [_exact_report("thm6.8", params, lhs == rhs, lhs, rhs, 2**p)]


def _run_base_relation(params, ctx):
    b = params["b"]
    top = b**4 + 1
    g = SequenceFn(
        eval=lambda n: 1.0 / (n + 1.0) ** 2 if n < top else 0.0,
        support_bound=top,
    )
    return [solver.base_relation_check(b, g, ctx=ctx)]


def _run_recover_jinfty(params, ctx):
    return [recover_j_infinity_check(params["x"], ctx)]


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
    "pi-over-2": _Entry(_run_pi_over_2, {"case": ["half-circle"]}),
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
    "thm6.6": _Entry(_run_thm66, {"b": [3]}),
    "thm6.8": _Entry(_run_thm68, {"p": [4, 6, 8]}),
    "putnam-2log2": _Entry(_run_putnam, {}),
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
    names = list(entry.defaults)
    ranges = [list(overrides.get(name, entry.defaults[name])) for name in names]
    return [dict(zip(names, combo)) for combo in itertools.product(*ranges)]


def _apply_tolerance(report: IdentityReport, rel: float) -> IdentityReport:
    return replace(report, passed=report.passed and report.rel_err <= rel)


def _summarize(reports: list, wall_time: float) -> RunReport:
    passed = sum(1 for r in reports if r.passed)
    worst = max((r.rel_err for r in reports), default=0.0)
    return RunReport(
        reports=reports,
        summary={"pass": passed, "fail": len(reports) - passed},
        worst_rel_err=worst,
        wall_time=wall_time,
    )


def run_suite(grid: GridSpec, ctx: PrecisionContext = DEFAULT_CTX) -> RunReport:
    """Evaluate one identity over its grid; report order is the grid order."""
    if grid.identity_id not in _REGISTRY:
        raise ValueError(f"unknown identity {grid.identity_id!r}")
    entry = _REGISTRY[grid.identity_id]
    points = _grid_points(entry, grid.ranges)
    start = time.perf_counter()
    reports = [report for point in points for report in entry.runner(point, ctx)]
    if grid.tolerances and "rel" in grid.tolerances:
        reports = [_apply_tolerance(r, grid.tolerances["rel"]) for r in reports]
    return _summarize(reports, time.perf_counter() - start)


def run_all(
    ctx: PrecisionContext = DEFAULT_CTX,
    tolerances: Optional[dict] = None,
) -> RunReport:
    """Every registered identity on its compiled-in default grid."""
    start = time.perf_counter()
    reports = []
    for identity_id in _REGISTRY:
        suite = run_suite(GridSpec(identity_id, {}, tolerances), ctx)
        reports.extend(suite.reports)
    return _summarize(reports, time.perf_counter() - start)


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


def _fmt_param(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, int):
        return str(v)
    return json.dumps(v)


def _params_json(params: dict) -> str:
    inner = ",".join(
        json.dumps(name) + ":" + _fmt_param(params[name]) for name in sorted(params)
    )
    return "{" + inner + "}"


def _report_json(report: IdentityReport) -> str:
    return (
        "{"
        + f'"identity":{json.dumps(report.identity_id)},'
        + f'"params":{_params_json(report.params)},'
        + f'"lhs":{_fmt_value(report.lhs)},'
        + f'"rhs":{_fmt_value(report.rhs)},'
        + f'"abs_err":{_fmt_value(report.abs_err)},'
        + f'"rel_err":{_fmt_value(report.rel_err)},'
        + '"truncation":{'
        + f'"terms":{report.truncation["terms"]},'
        + f'"tail_bound":{_fmt_value(report.truncation["tail_bound"])}'
        + "},"
        + f'"pass":{"true" if report.passed else "false"}'
        + "}"
    )


_CSV_HEADER = "identity,params,lhs,rhs,abs_err,rel_err,terms,tail_bound,pass"


def _csv_field(text: str) -> str:
    if any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _report_csv(report: IdentityReport) -> str:
    cells = [
        report.identity_id,
        _params_json(report.params),
        _fmt_value(report.lhs).strip('"'),
        _fmt_value(report.rhs).strip('"'),
        _fmt_value(report.abs_err).strip('"'),
        _fmt_value(report.rel_err).strip('"'),
        str(report.truncation["terms"]),
        _fmt_value(report.truncation["tail_bound"]).strip('"'),
        "true" if report.passed else "false",
    ]
    return ",".join(_csv_field(cell) for cell in cells)


def emit_report(run: RunReport, format: str = "json") -> bytes:
    """Serialize a run; wall_time is intentionally left out so identical runs
    are byte-identical."""
    if format == "json":
        body = ",".join(_report_json(r) for r in run.reports)
        text = (
            '{"reports":['
            + body
            + '],"summary":{"pass":'
            + str(run.summary["pass"])
            + ',"fail":'
            + str(run.summary["fail"])
            + '},"worst_rel_err":'
            + format_worst(run.worst_rel_err)
            + "}"
        )
        return text.encode()
    if format == "csv":
        lines = [_CSV_HEADER] + [_report_csv(r) for r in run.reports]
        return ("\n".join(lines) + "\n").encode()
    raise ValueError("format must be 'json' or 'csv'")


def format_worst(x: float) -> str:
    return format(float(x), ".17g")
