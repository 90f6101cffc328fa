"""The live `verify --suite all` report against its committed golden copy.

A change that moves a row on purpose regenerates the golden in the same
commit, with the command given in README, so that `git diff` shows each
moved row.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

from digitsum.harness import emit_report, run_all

GOLDEN = Path(__file__).parent / "golden" / "verify-all.json"

# Budget for one float field, fixed before any comparison was run: moving to
# another SIMD dispatch level moved report floats by about 1.4 ulp, and 4 ulp
# leaves room for that while a change to an evaluator or an oracle moves a
# value by far more.
ULPS = 4
EPS = 2.0**-52  # ulp(x) <= EPS * |x|


def _within_ulps(got: float, want: float) -> bool:
    return abs(got - want) <= ULPS * math.ulp(want)


def _row_matches(got: dict, want: dict) -> bool:
    same = (
        got["identity"] == want["identity"]
        and got["params"] == want["params"]
        and got["pass"] == want["pass"]
        and got["truncation"]["terms"] == want["truncation"]["terms"]
        and _within_ulps(got["truncation"]["tail_bound"], want["truncation"]["tail_bound"])
    )
    if isinstance(want["lhs"], str) or isinstance(want["rhs"], str):
        # an exact integer or rational check: every field is exact
        return same and got == want
    # Each error compares two values a, c, each within ULPS ulp of its golden
    # value.  |a - c| then moves by at most 2 ULPS EPS max(|a|, |c|), plus
    # the rounding of each run's subtraction.  The relative error divides by
    # a scale no smaller than |c|, so it moves by at most 2 ULPS EPS (1 + rel),
    # plus the rounding of each run's subtraction and division.
    size = max(abs(want["lhs"]), abs(want["rhs"]))
    rel = want["rel_err"]
    return (
        same
        and _within_ulps(got["lhs"], want["lhs"])
        and _within_ulps(got["rhs"], want["rhs"])
        and abs(got["abs_err"] - want["abs_err"]) <= 2 * (ULPS + 1) * EPS * size
        and abs(got["rel_err"] - rel) <= 2 * (ULPS + 2) * EPS * (1.0 + rel)
    )


def test_live_report_matches_golden():
    live = json.loads(emit_report(run_all(), "json"))
    golden = json.loads(GOLDEN.read_bytes())
    assert live["summary"] == golden["summary"]
    assert len(live["reports"]) == len(golden["reports"])
    moved = [
        (got, want)
        for got, want in zip(live["reports"], golden["reports"])
        if not _row_matches(got, want)
    ]
    assert not moved, f"{len(moved)} rows moved, first: {moved[0]}"
