"""Rebuild tests/golden/j_infinity_mpmath.json, the 40-digit references of
j_infinity(b, x) that test_identities.py checks, and the far references at
b = 2 that test_solver.py checks recover_j_infinity_check against.

Run from the repository root:

    python tests/build_j_infinity_reference.py

Each value is the printed level series
    (b/(b-1)) log b + sum_{l>=0} b^-l [psi(x/b^(l+1)) - psi(x/b^l) + (b-1) b^l/x]
in mpmath at 40 digits, on the exact double x that the test passes.  This is
the form with the digamma poles cancelled by hand, not the pole-free form of
the code, so the references also check that rewrite.  The cancellation costs
at most log10(1/x) <= 9 of the 40 digits.  Once x/b^l < 1 the terms shrink
like b^-2l, and the sum stops when a term falls below 10^-40 of the total.

At the far arguments x >= 1e10 the head (b/(b-1)) log b cancels down to a
value of about log(x)/x, and j_infinity raises there ("the levels cancel"), so
TestJInfinity does not read them.  They are summed at 60 + 2 log10(x) digits,
which keeps at least 60 after the cancellation.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath as mp

BASES = (2, 3, 10, 16)
ARGUMENTS = (1e-9, 1e-7, 1e-6, 1e-3, 0.3, 0.5, 1.0, 2.0, 7.5, 100.0)
FAR_ARGUMENTS = (1e10, 1e40, 1e60, 1e100, 1e200)
OUT = Path(__file__).resolve().parent / "golden" / "j_infinity_mpmath.json"


def reference(b: int, x: float, digits: int = 40) -> mp.mpf:
    with mp.workdps(digits):
        base, arg = mp.mpf(b), mp.mpf(x)  # mpf(x) is the double exactly
        total, l = base / (base - 1) * mp.log(base), 0
        while True:
            scale = base**l
            bracket = mp.digamma(arg / (scale * base)) - mp.digamma(arg / scale)
            term = (bracket + (base - 1) * scale / arg) / scale
            total += term
            l += 1
            if arg / scale < 1 and abs(term) < mp.mpf(10) ** -40 * abs(total):
                return total


def main() -> None:
    points = [[b, x, mp.nstr(reference(b, x), 30)] for b in BASES for x in ARGUMENTS]
    far = [
        [x, mp.nstr(reference(2, x, 60 + 2 * round(math.log10(x))), 30)] for x in FAR_ARGUMENTS
    ]
    rows = ",\n".join(json.dumps(point) for point in points)
    far_rows = ",\n".join(json.dumps(point) for point in far)
    OUT.write_text(f'{{"points": [\n{rows}\n],\n"far_points": [\n{far_rows}\n]}}\n')


if __name__ == "__main__":
    main()
