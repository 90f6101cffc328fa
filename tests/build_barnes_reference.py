"""Rebuild tests/golden/barnes_zeta2_mpmath.json and barnes_level_mpmath.json,
the 40-digit references of barnes_zeta2(alpha, x, h) that test_specfun.py checks.

Run from the repository root:

    python tests/build_barnes_reference.py

Each value is the multiplication formula at the periods (1, h), in mpmath at
40 digits on the exact doubles the test passes: with v_r = (x + r)/h,
    zeta_2(alpha, x; 1, h) = h^-alpha sum_{r<h} [zeta(alpha-1, v_r) - (v_r-1) zeta(alpha, v_r)]
for alpha > 2, and its finite part at alpha = 2,
    h^-2 sum_{r<h} [-psi(v_r) - (v_r-1) zeta(2, v_r)] - log(h)/h.
No Euler-Maclaurin summation is involved.  The first file's grid puts x at
h, h + 1/4, h + 1 and h + 64 (the level terms of the closed forms and their
far brackets) for periods on both sides of 2 SHIFT_THRESHOLD = 32.  The second
holds the points of TestBarnesDirection, which probe the loop along h.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

ORDERS = (2.0, 2.01, 2.5, 4.0, 7.0)
PERIODS = (1, 2, 3, 13, 16, 23, 31, 33, 81, 243)
OFFSETS = (0.0, 0.25, 1.0, 64.0)
GOLDEN = Path(__file__).resolve().parent / "golden"

# the level terms zeta_2(alpha, z + h; 1, h): the full alpha x z grid at h
# from 8 to 64; every h up to 33 at alpha = 2.01 (zeta(alpha - 1, v) near its
# pole) and at 7 (from h = 16 on, M = 0 does not converge there and the loop
# doubles to M = 1); one point per alpha and per z above 64.  Then x = 0.1 at
# h = 100, whose strip holds one row, and x = SHIFT_THRESHOLD = 16 at h = 32,
# where M = 0 does not converge at alpha = 3
LEVEL_POINTS = (
    [
        (alpha, z + h, h)
        for h in (8, 16, 27, 31, 32, 33, 64)
        for alpha in (2.5, 3.5, 4.0)
        for z in (0.0, 0.5, 1.0)
    ]
    + [(alpha, 0.5 + h, h) for h in range(1, 34) for alpha in (2.01, 7.0)]
    + [(2.5, 243.5, 243), (4.0, 243.0, 243), (3.5, 730.0, 729)]
    + [(2.5, 0.1, 100), (4.0, 0.1, 100), (3.0, 16.0, 32)]
)


def reference(alpha: float, x: float, h: int) -> mp.mpf:
    with mp.workdps(40):
        a, arg = mp.mpf(alpha), mp.mpf(x)  # mpf of a double is the double exactly
        vs = [(arg + r) / h for r in range(h)]
        if alpha == 2:
            finite = mp.fsum(-mp.digamma(v) - (v - 1) * mp.zeta(2, v) for v in vs)
            return finite / h**2 - mp.log(h) / h
        return mp.fsum(mp.zeta(a - 1, v) - (v - 1) * mp.zeta(a, v) for v in vs) * mp.mpf(h) ** -a


def write(name: str, points) -> None:
    rows = ",\n".join(
        json.dumps([alpha, x, h, mp.nstr(reference(alpha, x, h), 30)]) for alpha, x, h in points
    )
    (GOLDEN / name).write_text(f'{{"points": [\n{rows}\n]}}\n')


def main() -> None:
    grid = [(alpha, h + offset, h) for alpha in ORDERS for h in PERIODS for offset in OFFSETS]
    write("barnes_zeta2_mpmath.json", grid)
    write("barnes_level_mpmath.json", LEVEL_POINTS)


if __name__ == "__main__":
    main()
