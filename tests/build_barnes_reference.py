"""Rebuild tests/golden/barnes_zeta2_mpmath.json, barnes_level_mpmath.json and
barnes_rows_mpmath.json, the mpmath references of barnes_zeta2(alpha, x, h, rows)
that test_specfun.py checks, and of finite_barnes_closed in test_identities.py.

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

The third holds finite strips, the first rows of the double sum:
    sum_{m<rows} zeta(alpha, x + h m) = zeta_2(alpha, x; 1, h) - zeta_2(alpha, x + h rows; 1, h),
both multiplication-formula values at 60 digits, with x + h rows exact, so the
cancellation of the difference stays far below the 30 digits written.  Its
second list is the digit sum sum_{n<b^p} s_b(n)/(n+z)^alpha itself, term by
term at 60 digits, at three points where the brackets cancel.
"""

from __future__ import annotations

import itertools
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

# strips: each (rows, h) pair at two (alpha, z) points, taken in turn from
# the order x shift grid, with x = z + h as in the brackets of the closed form
STRIP_GRID = list(itertools.product((2.5, 4.0, 7.0), (0.0, 0.5, 10.0, 1e3, 1e5)))
STRIP_POINTS = [
    (alpha, z + h, h, rows)
    for i, (rows, h) in enumerate(
        itertools.product((1, 2, 7, 8, 16, 27, 64, 1024, 65536), (1, 3, 16))
    )
    for alpha, z in (STRIP_GRID[2 * i % 15], STRIP_GRID[(2 * i + 1) % 15])
]
# (b, p, alpha, z) where the brackets of finite_barnes_closed are 1,600 to
# 4,100 times their sum
FINITE_POINTS = [(10, 2, 7.0, 1e5), (4, 3, 2.5, 1e4), (10, 2, 2.5, 1e4)]


def reference(alpha: float, x: float, h: int, dps: int = 40) -> mp.mpf:
    with mp.workdps(dps):
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


def strip(alpha: float, x: float, h: int, rows: int) -> mp.mpf:
    with mp.workdps(60):
        return reference(alpha, x, h, 60) - reference(alpha, mp.mpf(x) + h * rows, h, 60)


def digit_sum(n: int, b: int) -> int:
    total = 0
    while n:
        n, digit = divmod(n, b)
        total += digit
    return total


def digit_sum_series(b: int, p: int, alpha: float, z: float) -> mp.mpf:
    with mp.workdps(60):
        a, shift = mp.mpf(alpha), mp.mpf(z)
        return mp.fsum(mp.mpf(digit_sum(n, b)) * (n + shift) ** -a for n in range(1, b**p))


def main() -> None:
    grid = [(alpha, h + offset, h) for alpha in ORDERS for h in PERIODS for offset in OFFSETS]
    write("barnes_zeta2_mpmath.json", grid)
    write("barnes_level_mpmath.json", LEVEL_POINTS)
    strips = ",\n".join(
        json.dumps([*point, mp.nstr(strip(*point), 30)]) for point in STRIP_POINTS
    )
    finite = ",\n".join(
        json.dumps([*point, mp.nstr(digit_sum_series(*point), 30)]) for point in FINITE_POINTS
    )
    text = f'{{"strips": [\n{strips}\n],\n"finite_barnes_closed": [\n{finite}\n]}}\n'
    (GOLDEN / "barnes_rows_mpmath.json").write_text(text)


if __name__ == "__main__":
    main()
