"""Command-line front end: sequence tables, single-point identity checks,
grid verification with machine-readable reports, weight tables, cumulants,
and generating-function values."""
from __future__ import annotations

import json
import sys

import click

from .altsum import alpha_weights, limit_cumulant, standardized_cumulant, zn_pmf
from .digitseq import delta_digit_sum, digit_sum, thue_morse_sign, valuation2
from .harness import (
    GridSpec,
    default_grid,
    emit_report,
    run_all,
    run_suite,
    _report_json,
)
from .lambert import lambert_gf, lambert_gf_finite
from .specfun import TruncationBudgetError


def _parse_value(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


class _Main(click.Group):
    """Command group that shows a ValueError or TruncationBudgetError from any
    command as `Error: ...`, exit 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ValueError, TruncationBudgetError) as err:
            raise click.ClickException(str(err)) from err


@click.group(cls=_Main)
def main() -> None:
    """Evaluate and verify closed forms for digit-sum weighted sums."""


@main.command()
@click.option("--base", "-b", default=2, show_default=True, help="Digit base.")
@click.option("--limit", "-n", default=32, show_default=True, help="Rows to print.")
def seq(base: int, limit: int) -> None:
    """Table of the digit sum and its companion sequences, as CSV."""
    click.echo("n,digit_sum,valuation2,delta_digit_sum,thue_morse_sign")
    for n in range(limit):
        nu = str(valuation2(n)) if n >= 1 else ""
        click.echo(
            f"{n},{digit_sum(n, base)},{nu},"
            f"{delta_digit_sum(n, base)},{thue_morse_sign(n)}"
        )


@main.command(name="eval")
@click.argument("identity_id")
@click.option(
    "--param",
    "-p",
    "params",
    multiple=True,
    help="Override one parameter as name=value; repeatable.",
)
def eval_cmd(identity_id: str, params: tuple[str, ...]) -> None:
    """Evaluate one identity at a single point and print its report as JSON."""
    point = {name: values[0] for name, values in default_grid(identity_id).items()}
    for item in params:
        if "=" not in item:
            raise click.ClickException(f"--param needs name=value, got {item!r}")
        name, _, raw = item.partition("=")
        if name not in point:
            raise click.ClickException(f"unknown parameter {name!r}")
        point[name] = _parse_value(raw)
    run = run_suite(GridSpec(identity_id, {k: [v] for k, v in point.items()}))
    for report in run.reports:
        click.echo(_report_json(report))
    sys.exit(0 if run.summary["fail"] == 0 else 1)


@main.command()
@click.option("--suite", required=True, help="Identity id, or 'all'.")
@click.option(
    "--grid",
    "grid_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="JSON file mapping parameter names to value lists (single suite only).",
)
@click.option(
    "--tol",
    type=float,
    default=None,
    help="Also require rel_err <= TOL at every point. It adds a condition to each "
    "point's own criterion, so it can fail a passing point but never pass a failing one.",
)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "csv"]),
    default="json",
    show_default=True,
)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write the report here instead of stdout.")
def verify(suite, grid_path, tol, fmt, out) -> None:
    """Run an identity suite (or all of them) and emit the report."""
    if suite == "all":
        if grid_path is not None:
            raise click.ClickException("--grid applies to a single suite, not 'all'")
        run = run_all(tol=tol)
    else:
        ranges = {}
        if grid_path is not None:
            with open(grid_path) as handle:
                ranges = json.load(handle)
            if not isinstance(ranges, dict):
                raise click.ClickException("grid file must be a JSON object")
        run = run_suite(GridSpec(suite, ranges, tol))
    blob = emit_report(run, fmt)
    if out is None:
        click.get_binary_stream("stdout").write(blob)
    else:
        with open(out, "wb") as handle:
            handle.write(blob)
    click.echo(
        f"pass {run.summary['pass']} fail {run.summary['fail']} "
        f"worst_rel_err {run.worst_rel_err:.3e}",
        err=True,
    )
    sys.exit(0 if run.summary["fail"] == 0 else 1)


@main.command()
@click.option("--N", "n_levels", required=True, type=int, help="Number of difference levels.")
@click.option("--normalized", is_flag=True, help="Print probability masses instead of raw weights.")
def weights(n_levels: int, normalized: bool) -> None:
    """Exact finite-difference weight table, as CSV."""
    if normalized:
        masses = zn_pmf(n_levels)
        click.echo("k,mass")
        for k, mass in enumerate(masses):
            click.echo(f"{k},{mass}")
    else:
        table = alpha_weights(n_levels).alpha
        click.echo("k,weight")
        for k, value in enumerate(table):
            click.echo(f"{k},{value}")


@main.command()
@click.option("--N", "n_levels", type=int, default=None, help="Levels; omit for the limit law.")
@click.option("--orders", default="2,4,6,8", show_default=True, help="Comma-separated even orders.")
def cumulants(n_levels, orders: str) -> None:
    """Standardized cumulants of the weight distribution, as CSV."""
    order_list = [int(tok) for tok in orders.split(",") if tok.strip()]
    if n_levels is None:
        click.echo("order,limit")
        for order in order_list:
            click.echo(f"{order},{limit_cumulant(order):.17g}")
    else:
        click.echo("order,value,limit")
        for order in order_list:
            value = standardized_cumulant(n_levels, order)
            click.echo(f"{order},{value:.17g},{limit_cumulant(order):.17g}")


@main.command()
@click.option("--base", "-b", default=2, show_default=True, help="Digit base.")
@click.option("--p", "levels", type=int, default=None, help="Window exponent; omit for the full series.")
@click.option("--z", required=True, type=float, help="Evaluation point.")
def gf(base: int, levels, z: float) -> None:
    """Value of the digit-sum power series (finite window or full series)."""
    if levels is None:
        if not abs(z) < 1:
            raise click.ClickException("the full series needs |z| < 1")
        value = lambert_gf(base, z)
    else:
        value = lambert_gf_finite(base, levels, z)
    click.echo(format(value, ".17g"))


if __name__ == "__main__":
    main()
