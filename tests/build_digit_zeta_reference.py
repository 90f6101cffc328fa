"""Rebuild tests/golden/digit_zeta_mpmath.json, the 40-digit references of
infinite_barnes(b, alpha, z) and, at alpha = 2, digit_zeta_2(b, z) that
test_identities.py checks.

Run from the repository root:

    python tests/build_digit_zeta_reference.py

Each value is sum_{n>=1} s_b(n)/(n+z)^alpha through the digit-sum identity
s_b(n) = n - (b-1) sum_{l>=1} floor(n/b^l), in mpmath at 40 digits on the
exact doubles the test passes:
    zeta(a-1, 1+z) - z zeta(a, 1+z) - (b-1) sum_{l>=1} T(b^l),
    T(c) = sum_{q>=1} zeta(a, z + q c).
The q with z + q c < X0 are summed as Hurwitz values.  The rest take the
Euler-Maclaurin expansion of zeta(a, x) for x >= X0, whose q-sums are Hurwitz
values again: sum_{q>=q0} (z + q c)^-t = c^-t zeta(t, q0 + z/c).  At X0 = 64
with EM_TERMS Bernoulli terms its remainder is below 1e-50 of the value for
every order in the grid.  T(b^(l+1)) keeps only the q divisible by b of a sum
of decreasing terms, so T(b^(l+1)) <= T(b^l)/b: the levels after l add at
most (b-1) T(b^l)/(b-1) = T(b^l) to the total, and the sum stops once that is
below 10^-45 of it.
At a = 2 every T(c) diverges and is taken as its finite part: the integral
term c^(1-a) zeta(a-1, v)/(a-1) becomes -(1 + log c + psi(v))/c, and the head
is -psi(1+z) - z zeta(2, 1+z), where the poles cancel as
(1-b) sum_{l>=1} b^-l = -1.  These levels change sign, so the sum stops on
their decay law instead: past level l they add at most
(2 + (l+1) log b)/b^l, and the sum stops once that is below 10^-45 of it.
No Barnes zeta and no level-series code of the package is involved.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

# the default thm29-infinite grid, then points off it: the alpha -> 2+ edge,
# base 10, shifts past the first levels, and base 16 at a high order
POINTS = [(b, alpha, z) for b in (2, 3) for alpha in (2.5, 3.5) for z in (0.5, 1.0)] + [
    (2, 2.01, 0.5),
    (2, 2.001, 0.5),
    (10, 2.2, 2.5),
    (2, 2.5, 1e3),
    (3, 3.5, 1e4),
    (2, 4.0, 1e4),
    (16, 7.0, 0.0),
]
# digit_zeta_2: the default cor30 grid, then a shift that is not dyadic, base 16
# past its first level, a shift near 0, and a shift past the first 14 levels
POINTS += [(b, 2.0, z) for b in (2, 3) for z in (0.25, 1.0, 2.0)] + [
    (10, 2.0, 0.3),
    (16, 2.0, 5.0),
    (3, 2.0, 0.01),
    (2, 2.0, 1e3),
]
X0 = 64
EM_TERMS = 20
OUT = Path(__file__).resolve().parent / "golden" / "digit_zeta_mpmath.json"


def level(a: mp.mpf, z: mp.mpf, c: mp.mpf) -> mp.mpf:
    """T(c) = sum_{q>=1} zeta(a, z + q c), its finite part at a = 2."""
    q, part = 1, mp.mpf(0)
    while z + q * c < X0:
        part += mp.zeta(a, z + q * c)
        q += 1
    v = q + z / c
    if a == 2:
        part += -(1 + mp.log(c) + mp.digamma(v)) / c
    else:
        part += c ** (1 - a) * mp.zeta(a - 1, v) / (a - 1)
    part += c**-a * mp.zeta(a, v) / 2
    for k in range(1, EM_TERMS + 1):
        t = a + 2 * k - 1
        weight = mp.bernoulli(2 * k) / mp.factorial(2 * k) * mp.rf(a, 2 * k - 1)
        part += weight * c**-t * mp.zeta(t, v)
    return part


def reference(b: int, alpha: float, z: float) -> mp.mpf:
    with mp.workdps(40):
        a, shift = mp.mpf(alpha), mp.mpf(z)  # mpf of a double is the double exactly
        if a == 2:
            head = -mp.digamma(1 + shift) - shift * mp.zeta(2, 1 + shift)
        else:
            head = mp.zeta(a - 1, 1 + shift) - shift * mp.zeta(a, 1 + shift)
        levels, l = mp.mpf(0), 1
        while True:
            t = level(a, shift, mp.mpf(b) ** l)
            levels += t
            total = head - (b - 1) * levels
            rest = (2 + (l + 1) * mp.log(b)) / mp.mpf(b) ** l if a == 2 else t
            if rest < mp.mpf(10) ** -45 * abs(total):
                return total
            l += 1


def main() -> None:
    points = [[b, alpha, z, mp.nstr(reference(b, alpha, z), 30)] for b, alpha, z in POINTS]
    rows = ",\n".join(json.dumps(point) for point in points)
    OUT.write_text(f'{{"points": [\n{rows}\n]}}\n')


if __name__ == "__main__":
    main()
