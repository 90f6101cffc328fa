"""Rebuild tests/golden/barnes_zeta2_mpmath.json, the 40-digit references of
barnes_zeta2(alpha, x, h) that test_specfun.py checks.

Run from the repository root:

    python tests/build_barnes_reference.py

Each value is the multiplication formula at the periods (1, h), in mpmath at
40 digits on the exact doubles the test passes: with v_r = (x + r)/h,
    zeta_2(alpha, x; 1, h) = h^-alpha sum_{r<h} [zeta(alpha-1, v_r) - (v_r-1) zeta(alpha, v_r)]
for alpha > 2, and its finite part at alpha = 2,
    h^-2 sum_{r<h} [-psi(v_r) - (v_r-1) zeta(2, v_r)] - log(h)/h.
No Euler-Maclaurin summation is involved.  The grid puts x at h, h + 1/4,
h + 1 and h + 64 (the level terms of the closed forms and their far
brackets) for periods on both sides of 2 SHIFT_THRESHOLD = 32.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

ORDERS = (2.0, 2.01, 2.5, 4.0, 7.0)
PERIODS = (1, 2, 3, 13, 16, 23, 31, 33, 81, 243)
OFFSETS = (0.0, 0.25, 1.0, 64.0)
OUT = Path(__file__).resolve().parent / "golden" / "barnes_zeta2_mpmath.json"


def reference(alpha: float, x: float, h: int) -> mp.mpf:
    with mp.workdps(40):
        a, arg = mp.mpf(alpha), mp.mpf(x)  # mpf of a double is the double exactly
        vs = [(arg + r) / h for r in range(h)]
        if alpha == 2:
            finite = mp.fsum(-mp.digamma(v) - (v - 1) * mp.zeta(2, v) for v in vs)
            return finite / h**2 - mp.log(h) / h
        return mp.fsum(mp.zeta(a - 1, v) - (v - 1) * mp.zeta(a, v) for v in vs) * mp.mpf(h) ** -a


def main() -> None:
    points = [
        [alpha, h + offset, h, mp.nstr(reference(alpha, h + offset, h), 30)]
        for alpha in ORDERS
        for h in PERIODS
        for offset in OFFSETS
    ]
    rows = ",\n".join(json.dumps(point) for point in points)
    OUT.write_text(f'{{"points": [\n{rows}\n]}}\n')


if __name__ == "__main__":
    main()
