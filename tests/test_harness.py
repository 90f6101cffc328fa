import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from click.testing import CliRunner

import digitsum
from digitsum import altsum, harness, identities
from digitsum.cli import main
from digitsum.harness import (
    GridSpec,
    RunReport,
    default_grid,
    emit_report,
    identity_ids,
    run_all,
    run_suite,
)
from digitsum.lambert import lambert_gf, lambert_gf_finite
from digitsum.specfun import REL_TOL

EXPECTED_IDS = [
    "thm2.1",
    "cor-eq-zeta",
    "thm3.1",
    "jinfty",
    "j-recurrence",
    "inf-product",
    "pi-over-2",
    "thm29-finite",
    "thm29-infinite",
    "cor30",
    "thm4.1",
    "lambert-finite",
    "rankwise",
    "thm-2adic",
    "mobius-inverse",
    "partition-conv",
    "eta-bridge",
    "thm5.1",
    "as1",
    "as2",
    "prouhet",
    "weights",
    "zn-cumulants",
    "mgf-consistency",
    "thm6.2",
    "thm6.6",
    "thm6.8",
    "base-relation",
    "recover-jinfty",
]


class TestRegistry:
    def test_battery_is_registered(self):
        ids = identity_ids()
        for identity_id in EXPECTED_IDS:
            assert identity_id in ids

    def test_default_grid_is_a_copy(self):
        grid = default_grid("weights")
        grid["N"].append(999)
        assert 999 not in default_grid("weights")["N"]

    def test_default_grid_unknown_id(self):
        with pytest.raises(ValueError):
            default_grid("no-such-identity")


class TestGridSpec:
    def test_range_must_be_list(self):
        with pytest.raises(ValueError):
            GridSpec("thm2.1", {"b": 2})

    def test_zero_tolerance_is_allowed(self):
        # the bound of the non-negative check: tol = 0 demands rel_err == 0
        assert GridSpec("thm2.1", {}, 0.0).tol == 0.0
        run = run_suite(GridSpec("weights", {"N": [2]}, 0.0))
        assert run.summary == {"pass": 1, "fail": 0}

    @pytest.mark.parametrize("rel", [-1.0, math.nan])
    def test_rejects_negative_or_nan_tolerance(self, rel):
        with pytest.raises(ValueError):
            GridSpec("thm2.1", {}, rel)


def _off_type_values():
    # every (suite, parameter) with each non-finite float, and 2.5 where the
    # defaults are integers
    cases = []
    for identity_id in identity_ids():
        for name, defaults in default_grid(identity_id).items():
            values = [math.inf, -math.inf, math.nan]
            if all(type(v) is int for v in defaults):
                values.append(2.5)
            cases += [
                pytest.param(identity_id, name, v, id=f"{identity_id}-{name}-{v}") for v in values
            ]
    return cases


class TestRunSuite:
    @pytest.mark.parametrize("identity_id,name,value", _off_type_values())
    def test_grid_value_must_match_its_parameter_type(self, identity_id, name, value):
        with pytest.raises(ValueError, match=f"parameter '{name}' must be"):
            run_suite(GridSpec(identity_id, {name: [value]}))

    def test_grid_type_follows_the_defaults(self):
        # an int fills a float parameter, a bool is not an int, a case is a string
        assert run_suite(GridSpec("jinfty", {"b": [2], "x": [1]})).summary["fail"] == 0
        with pytest.raises(ValueError, match="'N' must be an integer"):
            run_suite(GridSpec("weights", {"N": [True]}))
        with pytest.raises(ValueError, match="'case' must be a string"):
            run_suite(GridSpec("pi-over-2", {"case": [1]}))
        # an int past the float range is not a finite number
        with pytest.raises(ValueError, match="'alpha' must be a finite number"):
            run_suite(GridSpec("thm2.1", {"alpha": [10**400]}))

    def test_finite_difference_grid_all_pass(self):
        grid = GridSpec(
            "thm2.1",
            {"b": [2, 3], "p": [1, 2, 3, 4], "alpha": [0.5, 1.0, 2.0], "z": [0.0, 1.0]},
        )
        run = run_suite(grid)
        assert run.summary == {"pass": 48, "fail": 0}
        assert len(run.reports) == 48
        assert run.worst_rel_err <= 1e-9

    def test_half_circle_default_is_a_single_report(self):
        # the default grid runs all four special values, one report each
        run = run_suite(GridSpec("pi-over-2", {}))
        cases = [r.params["case"] for r in run.reports]
        assert cases == ["half-circle", "quarter-family", "lemniscatic", "eighth-family"]
        report = run.reports[0]
        assert report.rhs == pytest.approx(math.pi / 2.0, rel=1e-12)
        assert all(r.passed for r in run.reports)

    def test_weight_tables_exact(self):
        run = run_suite(GridSpec("weights", {"N": [1, 2, 3]}))
        assert run.summary == {"pass": 3, "fail": 0}
        for report in run.reports:
            assert report.rel_err == 0.0

    def test_unknown_identity(self):
        with pytest.raises(ValueError):
            run_suite(GridSpec("no-such-identity", {}))

    def test_unknown_parameter_name(self):
        with pytest.raises(ValueError):
            run_suite(GridSpec("thm2.1", {"gamma": [1.0]}))

    def test_reports_follow_grid_order(self):
        grid = GridSpec("thm2.1", {"b": [2], "p": [1, 2], "alpha": [0.5], "z": [0.0, 1.0]})
        run = run_suite(grid)
        seen = [(r.params["p"], r.params["z"]) for r in run.reports]
        assert seen == [(1, 0.0), (1, 1.0), (2, 0.0), (2, 1.0)]

    def test_tolerance_override_can_fail_a_passing_grid(self):
        base = run_suite(GridSpec("jinfty", {"b": [2], "x": [1.0]}))
        assert base.summary["fail"] == 0
        tight = run_suite(GridSpec("jinfty", {"b": [2], "x": [1.0]}, 1e-30))
        assert tight.summary["fail"] == 1

    def test_tolerance_override_keeps_exact_passes(self):
        run = run_suite(GridSpec("weights", {"N": [3]}, 1e-30))
        assert run.summary == {"pass": 1, "fail": 0}

    def test_summary_is_counted_from_the_reports(self):
        reports = run_suite(GridSpec("jinfty", {"b": [2], "x": [1.0, 2.0]})).reports
        capped = replace(reports[1], criterion=replace(reports[1].criterion, cap=0.0))
        run = RunReport([reports[0], capped])
        assert run.summary == {"pass": 1, "fail": 1}
        assert run.worst_rel_err == max(r.rel_err for r in reports) > 0.0

    @pytest.mark.parametrize("N", range(1, 9))
    def test_as1_integer_sum_is_the_fraction_sum(self, N):
        # summed from int 0, the exact total and its report bytes are those of
        # the same sum carried in Fraction
        (report,) = harness._run_as1({"N": N})
        want = altsum.alternating_sum_via_weights(lambda t: t**N, Fraction(0), N)
        assert type(report.lhs) is int
        assert report.lhs == want
        assert harness._fmt_value(report.lhs) == harness._fmt_value(want)
        assert report.passed

    @pytest.mark.parametrize("x", [0.0, 1.0, -1.5])
    @pytest.mark.parametrize("N", range(1, 7))
    def test_as2_sum_is_the_fraction_sum(self, N, x):
        # an integral x is summed in int, a fractional one stays in Fraction
        (report,) = harness._run_as2({"N": N, "x": x})
        want = altsum.alternating_sum_via_weights(lambda t: t ** (N + 1), Fraction(x), N)
        assert type(report.lhs) is (int if x.is_integer() else Fraction)
        assert report.lhs == want
        assert harness._fmt_value(report.lhs) == harness._fmt_value(want)
        assert report.passed



class TestRunAll:
    def test_everything_passes_on_default_grids(self):
        run = run_all()
        assert run.summary["fail"] == 0
        assert run.summary["pass"] == len(run.reports)
        covered = {report.identity_id for report in run.reports}
        for identity_id in EXPECTED_IDS:
            assert identity_id in covered

    def test_tolerance_only_adds_a_condition(self):
        plain = run_all()
        tight = run_all(tol=1e-9)
        assert len(tight.reports) == len(plain.reports) == 324
        for before, after in zip(plain.reports, tight.reports):
            assert (after.identity_id, after.params) == (before.identity_id, before.params)
            assert before.criterion.cap == math.inf  # so --tol can only tighten
            if after.passed:
                assert after.rel_err <= 1e-9, after
            if not before.passed:
                assert not after.passed, after
        assert tight.summary["fail"] > 0  # the oracle brackets are wider than 1e-9


class TestPassRule:
    """Runners whose pass decision folds more than one comparison."""

    def test_thm51_fails_on_the_product_leg(self, monkeypatch):
        real = altsum.delta_product_form
        monkeypatch.setattr(altsum, "delta_product_form", lambda f, x, N: real(f, x, N) + 1.0)
        run = run_suite(GridSpec("thm5.1", {"N": [3], "x": [0.0]}))
        assert run.summary == {"pass": 0, "fail": 1}
        # abs_err still reports the weighted leg, which is untouched
        assert run.reports[0].abs_err <= 1e-12

    def test_j_recurrence_fails_on_the_closed_form_leg(self, monkeypatch):
        real = identities.binary_corollary_closed
        monkeypatch.setattr(
            identities,
            "binary_corollary_closed",
            lambda p, alpha, z: real(p, alpha, z) * (1.0 + 1e-6),
        )
        # N = 3 = 2^2 - 1 carries the closed-form leg, N = 12 does not
        run = run_suite(GridSpec("j-recurrence", {"N": [3, 12], "x": [0.7]}))
        assert [r.passed for r in run.reports] == [False, True]
        # abs_err still reports the recurrence leg, which is untouched
        assert run.reports[0].abs_err <= 1e-12

    def test_thm31_fails_on_the_double_sum_leg(self, monkeypatch):
        real = harness.double_sum_alternate
        monkeypatch.setattr(
            harness, "double_sum_alternate", lambda p, alpha, z: real(p, alpha, z) * (1.0 + 1e-6)
        )
        run = run_suite(GridSpec("thm3.1", {"p": [2], "alpha": [2.5], "z": [0.5]}))
        assert run.summary == {"pass": 0, "fail": 1}
        # abs_err still reports the half-shift leg, which is untouched
        assert run.reports[0].abs_err <= 1e-12

    def test_abs_err_is_the_first_leg_on_every_float_row(self):
        # a runner's further legs move rel_err only: abs_err is |lhs - rhs|
        rows = [r for r in run_all().reports if isinstance(r.lhs, float)]
        assert {r.identity_id for r in rows} >= {"thm3.1", "thm5.1", "mgf-consistency"}
        for report in rows:
            assert report.abs_err == abs(report.lhs - report.rhs), report

    def test_the_tail_bound_is_the_only_absolute_budget(self):
        # abs is tail_bound + REL_TOL |lhs| while that is below |rhs|, else 0
        bracketed = set()
        for report in run_all().reports:
            budget = report.tail_bound + REL_TOL * abs(report.lhs)
            if report.tail_bound > 0 and budget < abs(report.rhs):
                bracketed.add(report.identity_id)
                assert report.criterion.abs == budget, report
            else:
                assert report.criterion.abs == 0.0, report
        oracles = {"jinfty", "inf-product", "thm29-infinite", "cor30", "thm4.1", "eta-bridge"}
        assert bracketed == oracles | {"recover-jinfty"}

    def test_lambert_gf_off_by_1e10_fails_a_thm41_point(self, monkeypatch):
        # the oracle's tail is about |z|^601, so the budget is about REL_TOL |lhs|
        # and a 1e-10 error in the closed form must fail a point
        real = harness.lambert_gf
        monkeypatch.setattr(harness, "lambert_gf", lambda b, z: real(b, z) * (1.0 + 1e-10))
        assert run_suite(GridSpec("thm4.1", {})).summary["fail"] >= 1

    def test_prouhet_counts_the_checks_that_hold(self, monkeypatch):
        # a check that calls everything annihilated fails the survivor check only
        monkeypatch.setattr(altsum, "polynomial_annihilation_check", lambda c, N: True)
        (report,) = run_suite(GridSpec("prouhet", {"N": [3]})).reports
        assert (report.lhs, report.rhs, report.passed) == (1, 2, False)

    def test_mgf_consistency_fails_on_the_scale_leg(self, monkeypatch):
        real = altsum.zn_mgf

        def skewed(z, N):
            by_level, by_scale = real(z, N)
            return by_level, by_scale * (1.0 + 1e-9)

        monkeypatch.setattr(altsum, "zn_mgf", skewed)
        run = run_suite(GridSpec("mgf-consistency", {"z": [0.5], "N": [4]}))
        assert run.summary == {"pass": 0, "fail": 1}
        report = run.reports[0]
        assert report.rel_err > 1e-12
        # abs_err still reports the transform leg, which is untouched
        assert report.abs_err == abs(report.lhs - report.rhs)

    def test_mgf_consistency_with_terms_past_the_float_range(self):
        # e^(710) overflows, but the transform (1 + e^710)/2 = e^709.3 does not
        (report,) = run_suite(GridSpec("mgf-consistency", {"z": [710.0], "N": [1]})).reports
        assert report.passed
        assert math.isfinite(report.rhs) and report.rhs > 1e308

    def test_mgf_consistency_transform_past_the_float_range(self, monkeypatch):
        # a transform past the float range is a domain error, not an OverflowError
        monkeypatch.setattr(altsum, "zn_mgf", lambda z, N: (1.0, 1.0))
        with pytest.raises(ValueError, match="past the float range"):
            run_suite(GridSpec("mgf-consistency", {"z": [800.0], "N": [1]}))


class TestEmitReport:
    def small_run(self):
        return run_suite(GridSpec("weights", {"N": [1, 2]}))

    def test_json_schema(self):
        data = json.loads(emit_report(self.small_run(), "json"))
        assert set(data) == {"reports", "summary", "worst_rel_err"}
        row = data["reports"][0]
        assert list(row) == [
            "identity",
            "params",
            "lhs",
            "rhs",
            "abs_err",
            "rel_err",
            "truncation",
            "pass",
        ]
        assert list(row["truncation"]) == ["terms", "tail_bound"]
        assert data["summary"] == {"pass": 2, "fail": 0}

    def test_wall_time_not_serialized(self):
        blob = emit_report(self.small_run(), "json")
        assert b"wall_time" not in blob

    def test_one_report_per_line(self):
        run = self.small_run()
        blob = emit_report(run, "json")
        lines = blob.split(b"\n")
        assert len(lines) == len(run.reports) + 1
        assert lines[0] == b'{"reports":['
        assert all(line.startswith(b'{"identity":"weights",') for line in lines[1:])
        # the newlines are the only bytes added to the one-line layout
        one_line = b'{"reports":[' + b",".join(harness._report_json(r).encode() for r in run.reports)
        assert blob.replace(b"\n", b"").startswith(one_line + b'],"summary":')

    def test_exact_values_are_quoted_decimal_strings(self):
        data = json.loads(emit_report(self.small_run(), "json"))
        assert data["reports"][0]["lhs"] == "2"
        assert data["reports"][1]["lhs"] == "8"

    def test_floats_use_17_significant_digits(self):
        run = run_suite(GridSpec("thm2.1", {"b": [2], "p": [2], "alpha": [0.5], "z": [0.5]}))
        blob = emit_report(run, "json").decode()
        lhs = run.reports[0].lhs
        assert format(lhs, ".17g") in blob
        # round-trip exactness is the point of 17 digits
        parsed = json.loads(blob)["reports"][0]["lhs"]
        assert parsed == lhs

    def test_byte_identical_reruns(self):
        grid = GridSpec("thm3.1", {"p": [1, 2], "alpha": [0.5], "z": [0.0]})
        first = emit_report(run_suite(grid), "json")
        second = emit_report(run_suite(grid), "json")
        assert first == second

    def test_thread_count_does_not_change_bytes(self):
        # run_suite has a single serial execution path; two runs of a larger grid
        # must still give the same bytes
        grid = GridSpec(
            "thm2.1", {"b": [2, 3], "p": [1, 2, 3], "alpha": [0.5, 2.0], "z": [0.0, 1.0]}
        )
        first = emit_report(run_suite(grid), "json")
        second = emit_report(run_suite(grid), "json")
        assert first == second

    @pytest.mark.parametrize(
        "suite, points",
        [("eta-bridge", 3), ("cor30", 6), ("all", 324)],
        ids=["eta-bridge", "cor30", "all"],
    )
    def test_report_bytes_do_not_depend_on_blas_threads(self, suite, points):
        # each subprocess fixes its BLAS thread count at import; no oracle
        # reduces through the BLAS, so the report must not depend on it
        src = os.path.dirname(os.path.dirname(digitsum.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        script = "import sys; from digitsum.cli import main; sys.exit(main())"
        outputs = []
        for threads in ("1", "2"):
            env = dict(
                os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads
            )
            result = subprocess.run(
                [sys.executable, "-c", script, "verify", "--suite", suite, "--format", "json"],
                env=env,
                capture_output=True,
                check=True,
                timeout=120,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["summary"] == {"pass": points, "fail": 0}

    def test_csv_layout(self):
        lines = emit_report(self.small_run(), "csv").decode().splitlines()
        assert lines[0] == "identity,params,lhs,rhs,abs_err,rel_err,terms,tail_bound,pass"
        assert len(lines) == 3
        assert lines[1].startswith("weights,")
        assert lines[1].endswith(",true")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(self.small_run(), "yaml")

    def test_empty_run_serializes(self):
        empty = RunReport([])
        data = json.loads(emit_report(empty, "json"))
        assert data == {"reports": [], "summary": {"pass": 0, "fail": 0}, "worst_rel_err": 0.0}


class TestCli:
    def invoke(self, *args):
        return CliRunner().invoke(main, list(args))

    def test_seq_table(self):
        result = self.invoke("seq", "--limit", "8")
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "n,digit_sum,valuation2,delta_digit_sum,thue_morse_sign"
        assert len(lines) == 9
        assert lines[1] == "0,0,,1,1"
        assert lines[4] == "3,2,0,-1,1"

    def test_seq_other_base(self):
        result = self.invoke("seq", "--base", "10", "--limit", "12")
        assert result.output.splitlines()[11].startswith("10,1,1,")

    def test_eval_single_report(self):
        result = self.invoke("eval", "thm2.1", "--param", "b=3", "--param", "p=2")
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["identity"] == "thm2.1"
        assert report["params"]["b"] == 3
        assert report["params"]["p"] == 2
        assert report["pass"] is True

    def test_eval_reproduces_a_row_of_every_suite(self):
        # the last row of each suite, fed back as name=value through its grid
        # parameters, comes out of eval byte for byte
        last = {report.identity_id: report for report in run_all().reports}
        assert list(last) == identity_ids()
        for identity_id, report in last.items():
            row = harness._report_json(report)
            params = json.loads(row)["params"]
            args = [a for k in default_grid(identity_id) for a in ("-p", f"{k}={params[k]}")]
            result = self.invoke("eval", identity_id, *args)
            assert result.exit_code == 0, identity_id
            assert row in result.output.splitlines(), identity_id

    def test_eval_unknown_identity(self):
        assert self.invoke("eval", "nope").exit_code != 0

    @pytest.mark.parametrize(
        "args", [["eval", "nope"], ["verify", "--suite", "nope"]], ids=["eval", "verify"]
    )
    def test_unknown_identity_message(self, args):
        # the harness raises, and the command group prints the message
        result = self.invoke(*args)
        assert result.exit_code == 1
        assert "Error: unknown identity 'nope'" in result.output

    def test_eval_unknown_parameter(self):
        assert self.invoke("eval", "thm2.1", "--param", "gamma=1").exit_code != 0

    def test_eval_out_of_domain_parameter_message(self):
        # the evaluator checks its own inputs, and the command group prints the message
        result = self.invoke("eval", "thm2.1", "-p", "p=0")
        assert result.exit_code == 1
        assert result.output == "Error: p must be >= 1\n"

    @pytest.mark.parametrize(
        "args", [("inf-product", "z=inf"), ("thm2.1", "p=2.5"), ("thm5.1", "x=inf")]
    )
    def test_eval_off_type_parameter_message(self, args):
        identity_id, param = args
        result = self.invoke("eval", identity_id, "-p", param)
        assert result.exit_code == 1
        assert result.output.startswith(f"Error: parameter '{param.split('=')[0]}' must be")

    def test_verify_json(self):
        result = self.invoke("verify", "--suite", "weights")
        assert result.exit_code == 0
        # the report goes to stdout byte for byte; the pass/fail line follows
        data, _ = json.JSONDecoder().raw_decode(result.output)
        assert data["summary"]["fail"] == 0

    def test_verify_nonzero_exit_on_failure(self):
        result = self.invoke("verify", "--suite", "jinfty", "--tol", "1e-30")
        assert result.exit_code == 1

    def test_verify_tol_cannot_pass_a_failing_suite(self, monkeypatch):
        # exact mismatches carry rel_err = 1.0, so a rel-only rule would pass them
        real = altsum.alternating_sum_via_weights
        monkeypatch.setattr(
            altsum, "alternating_sum_via_weights", lambda f, x, N: real(f, x, N) + 1
        )
        for extra in ([], ["--tol", "1.0"]):
            result = self.invoke("verify", "--suite", "as1", *extra)
            assert result.exit_code == 1, extra
            data, _ = json.JSONDecoder().raw_decode(result.output)
            assert data["summary"] == {"pass": 0, "fail": 8}, extra

    @pytest.mark.parametrize("suite", ["lambert-finite", "rankwise"])
    def test_verify_tol_cannot_pass_an_exact_mismatch_with_equal_totals(
        self, suite, monkeypatch
    ):
        # both sides report the same total, so abs_err = 0 while rel_err = 1:
        # only the abs > 0 guard keeps the absolute leg from passing them
        if suite == "lambert-finite":
            real = harness.finite_gf_coefficients

            def swapped(b, p):
                coeffs = list(real(b, p))
                coeffs[0], coeffs[1] = coeffs[1], coeffs[0]
                return coeffs

            monkeypatch.setattr(harness, "finite_gf_coefficients", swapped)
        else:
            real = harness.rankwise_coefficients

            def swapped(b, p):
                rows = real(b, p)
                rows[0][0], rows[0][1] = rows[0][1], rows[0][0]
                return rows

            monkeypatch.setattr(harness, "rankwise_coefficients", swapped)
        points = math.prod(len(values) for values in default_grid(suite).values())
        for extra in ([], ["--tol", "1.0"]):
            result = self.invoke("verify", "--suite", suite, *extra)
            assert result.exit_code == 1, extra
            data, _ = json.JSONDecoder().raw_decode(result.output)
            assert data["summary"] == {"pass": 0, "fail": points}, extra
            assert all(r["abs_err"] == 0 and r["rel_err"] == 1 for r in data["reports"])

    @pytest.mark.parametrize("suite", ["as1", "all"])
    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_verify_rejects_bad_tolerance(self, suite, tol):
        result = self.invoke("verify", "--suite", suite, "--tol", tol)
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert "Error:" in result.output and "pass" not in result.output

    @pytest.mark.parametrize(
        "args",
        [
            ["seq", "--base", "1"],
            ["eval", "thm6.6", "-p", "b=1"],
            ["eval", "thm6.2", "-p", "n=0"],
            ["weights", "--N", "-1"],
            ["gf", "--p", "0", "--z", "0.5"],
            ["cumulants", "--N", "3", "--orders", "3"],
            ["eval", "jinfty", "-p", "x=1e308"],
            ["eval", "pi-over-2", "-p", "case=bogus"],
            ["eval", "cor30", "-p", "b=2", "-p", "z=1e20"],
        ],
    )
    def test_domain_errors_are_reported_not_raised(self, args):
        result = self.invoke(*args)
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert "Error:" in result.output

    def test_verify_grid_file(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"N": [1, 2], "x": [0.0]}))
        result = self.invoke("verify", "--suite", "thm5.1", "--grid", str(grid), "--format", "csv")
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0].startswith("identity,params")
        assert sum(1 for line in lines if line.startswith("thm5.1,")) == 2

    def test_verify_out_file(self, tmp_path):
        out = tmp_path / "report.json"
        result = self.invoke("verify", "--suite", "weights", "--out", str(out))
        assert result.exit_code == 0
        assert json.loads(out.read_bytes())["summary"]["fail"] == 0

    def test_verify_rejects_grid_with_all(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text("{}")
        assert self.invoke("verify", "--suite", "all", "--grid", str(grid)).exit_code != 0

    def test_weights_table(self):
        result = self.invoke("weights", "--N", "2")
        assert result.output.splitlines() == ["k,weight", "0,1", "1,2", "2,2", "3,2", "4,1"]

    def test_weights_normalized(self):
        result = self.invoke("weights", "--N", "2", "--normalized")
        lines = result.output.splitlines()
        assert lines[0] == "k,mass"
        assert lines[1] == "0,1/8"

    @pytest.mark.parametrize("N", ["1000000", "-1000000"])
    def test_weights_normalized_out_of_budget(self, N):
        result = self.invoke("weights", "--N", N, "--normalized")
        assert result.exit_code == 1
        assert result.output.startswith("Error: N must be within")

    def test_cumulants_with_levels(self):
        result = self.invoke("cumulants", "--N", "3", "--orders", "2,4")
        lines = result.output.splitlines()
        assert lines[0] == "order,value,limit"
        assert lines[1].startswith("2,1,")

    def test_cumulants_limit_only(self):
        result = self.invoke("cumulants", "--orders", "4")
        lines = result.output.splitlines()
        assert lines[0] == "order,limit"
        assert lines[1] == "4,-0.71999999999999997"

    def test_gf_finite_window(self):
        result = self.invoke("gf", "--base", "2", "--p", "3", "--z", "2.0")
        assert float(result.output) == pytest.approx(lambert_gf_finite(2, 3, 2.0), rel=1e-15)

    def test_gf_full_series_needs_contraction(self):
        assert self.invoke("gf", "--base", "2", "--z", "1.5").exit_code != 0

    def test_gf_full_series(self):
        result = self.invoke("gf", "--base", "2", "--z", "0.5")
        assert result.exit_code == 0
        assert result.output == format(lambert_gf(2, 0.5), ".17g") + "\n"

    def test_gf_full_series_at_the_unit_circle(self):
        result = self.invoke("gf", "--base", "2", "--z", "1")
        assert result.exit_code == 1
        assert result.output == "Error: the full series needs |z| < 1\n"

    def test_eval_parameter_without_value(self):
        result = self.invoke("eval", "thm2.1", "-p", "b")
        assert result.exit_code == 1
        assert result.output == "Error: --param needs name=value, got 'b'\n"

    def test_verify_grid_file_must_be_an_object(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"b": [2]}]))
        result = self.invoke("verify", "--suite", "thm2.1", "--grid", str(grid))
        assert result.exit_code == 1
        assert result.output == "Error: grid file must be a JSON object\n"

    def test_eval_mgf_consistency_past_the_float_range(self, monkeypatch):
        monkeypatch.setattr(altsum, "zn_mgf", lambda z, N: (1.0, 1.0))
        result = self.invoke("eval", "mgf-consistency", "-p", "z=800", "-p", "N=1")
        assert result.exit_code == 1
        assert result.output.startswith("Error: mgf-consistency: E[e^(z Z_N)] at z = 800")
