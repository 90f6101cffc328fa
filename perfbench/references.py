"""mpmath references for the closed-form evaluators.

Each reference is computed at 30 significant digits of working precision
from the exact double the evaluator receives, and every series in it is
carried until the omitted part is below about 1e-20 of the result, far
inside the 1e-12 budget the evaluators promise.  Level series are summed term by
term while the scaled argument is large and in closed form afterwards:
once z/b^l is small, each Hurwitz or digamma value is a convergent Taylor
series in z/b^l whose level sum is geometric.
"""
from __future__ import annotations

import mpmath
from mpmath import mp, mpf

DPS = 30
_EPS = mpf(10) ** -26
_SMALL = mpf(1) / 8  # level tails start once the scaled argument is below this
_X0 = 30  # Hurwitz asymptotics engage at this argument
_EM_TERMS = 8  # Bernoulli terms used once the argument reaches _X0


def _geometric_tail(b, start, power):
    """sum_{l >= start} b^(-l power)."""
    return mpf(b) ** (-start * power) / (1 - mpf(b) ** (-power))


def infinite_zeta_diff(b, alpha, z):
    """zeta(a, 1+z) + (1-b) sum_{l>=1} b^(-l a) zeta(a, 1 + z/b^l)."""
    with mp.workdps(DPS):
        a, z = mpf(alpha), mpf(z)
        total = mpmath.zeta(a, 1 + z)
        level = 1
        while z / mpf(b) ** level > _SMALL:
            total += (1 - b) * mpf(b) ** (-level * a) * mpmath.zeta(a, 1 + z / mpf(b) ** level)
            level += 1
        # zeta(a, 1 + e) = sum_j (-e)^j (a)_j / j! zeta(a + j)
        tail = mpf(0)
        j = 0
        while True:
            term = (-z) ** j * mpmath.rf(a, j) / mpmath.factorial(j) * mpmath.zeta(a + j)
            term *= _geometric_tail(b, level, a + j)
            tail += term
            if j > 0 and abs(term) <= _EPS * abs(total + tail):
                break
            j += 1
            if z == 0:
                break
        return total + (1 - b) * tail


def _hurwitz_tail_terms(a):
    """(coefficient, exponent) pairs of zeta(a, x) for large x."""
    terms = [(1 / (a - 1), a - 1), (mpf(1) / 2, a)]
    for k in range(1, _EM_TERMS + 1):
        coeff = mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k) * mpmath.rf(a, 2 * k - 1)
        terms.append((coeff, a + 2 * k - 1))
    return terms


def infinite_barnes(b, alpha, z):
    """sum_{n>=1} s_b(n)/(n+z)^a through s_b(n) = n - (b-1) sum_l floor(n/b^l).

    zeta(a-1, 1+z) - z zeta(a, 1+z) - (b-1) sum_{l>=1} T(b^l), with
    T(c) = sum_{q>=1} zeta(a, z + q c).  For large arguments zeta(a, x) is
    its Euler-Maclaurin expansion, whose q-sums are Hurwitz values again.
    """
    with mp.workdps(DPS):
        a, z = mpf(alpha), mpf(z)
        asym = _hurwitz_tail_terms(a)
        total = mpmath.zeta(a - 1, 1 + z) - z * mpmath.zeta(a, 1 + z)
        levels = mpf(0)
        level = 1
        while mpf(b) ** level < _X0 or z / mpf(b) ** level > _SMALL:
            c = mpf(b) ** level
            q = 1
            part = mpf(0)
            while z + q * c < _X0:
                part += mpmath.zeta(a, z + q * c)
                q += 1
            for coeff, t in asym:
                part += coeff * c ** (-t) * mpmath.zeta(t, q + z / c)
            levels += part
            level += 1
        # remaining levels: zeta(t, 1 + z/c) as a Taylor series in z/c
        tail = mpf(0)
        for coeff, t in asym:
            j = 0
            while True:
                term = (-z) ** j * mpmath.rf(t, j) / mpmath.factorial(j) * mpmath.zeta(t + j)
                term *= coeff * _geometric_tail(b, level, t + j)
                tail += term
                if z == 0 or (j > 0 and abs(term) <= _EPS * abs(total)):
                    break
                j += 1
        return total - (b - 1) * (levels + tail)


def finite_barnes(b, p, alpha, z):
    """sum_{n=1}^{b^p - 1} s_b(n)/(n+z)^a, summed term by term."""
    with mp.workdps(DPS):
        a, z = mpf(alpha), mpf(z)
        terms = []
        for n in range(1, b**p):
            s, m = 0, n
            while m:
                m, r = divmod(m, b)
                s += r
            terms.append(s * (n + z) ** (-a))
        return mpmath.fsum(terms)


def j_infinity(b, x):
    """(b/(b-1)) log b + sum_{l>=0} b^-l [psi(1 + x/b^(l+1)) - psi(1 + x/b^l)]."""
    with mp.workdps(DPS):
        x = mpf(x)
        total = mpf(b) / (b - 1) * mpmath.log(b)
        if x == 0:
            return total
        level = 0
        while x / mpf(b) ** level > _SMALL:
            c = mpf(b) ** level
            total += (mpmath.digamma(1 + x / (b * c)) - mpmath.digamma(1 + x / c)) / c
            level += 1
        # psi(1 + e) = -gamma + sum_{k>=1} (-1)^(k+1) zeta(k+1) e^k
        k = 1
        while True:
            term = (-1) ** (k + 1) * mpmath.zeta(k + 1) * x**k * (mpf(b) ** -k - 1)
            term *= _geometric_tail(b, level, k + 1)
            total += term
            if abs(term) <= _EPS * abs(total):
                return total
            k += 1


def infinite_product(b, z):
    """exp of z (b/(b-1)) log b + sum_{l>=0} [b lnG(1 + z/b^(l+1)) - lnG(1 + z/b^l)]."""
    with mp.workdps(DPS):
        z = mpf(z)
        if z == 0:
            return mpf(1)
        log_total = z * b / (b - 1) * mpmath.log(b)
        level = 0
        while abs(z) / mpf(b) ** level > _SMALL:
            c = mpf(b) ** level
            log_total += b * mpmath.loggamma(1 + z / (b * c)) - mpmath.loggamma(1 + z / c)
            level += 1
        # lnG(1 + e) = -gamma e + sum_{k>=2} (-1)^k zeta(k)/k e^k; the linear parts cancel
        k = 2
        while True:
            term = (-1) ** k * mpmath.zeta(k) / k * z**k * (mpf(b) ** (1 - k) - 1)
            term *= _geometric_tail(b, level, k)
            log_total += term
            if abs(term) <= _EPS * max(abs(log_total), 1):
                return mpmath.exp(log_total)
            k += 1


def lambert_gf(b, z):
    """(1/(1-z)) sum_{l>=0} u sum_{k<=b-2} (k+1) u^k / sum_{k<b} u^k at u = z^(b^l)."""
    with mp.workdps(DPS):
        z = mpf(z)
        total = mpf(0)
        level = 0
        while True:
            u = z ** (b**level)
            num = mpmath.fsum((k + 1) * u**k for k in range(b - 1))
            den = mpmath.fsum(u**k for k in range(b))
            term = u * num / den
            total += term
            if abs(term) <= _EPS * max(abs(total), 1):
                return total / (1 - z)
            level += 1


REFERENCES = {
    "infinite_zeta_diff": infinite_zeta_diff,
    "infinite_barnes": infinite_barnes,
    "finite_barnes_closed": finite_barnes,
    "j_infinity": j_infinity,
    "infinite_product": infinite_product,
    "lambert_gf": lambert_gf,
}


def condition(fn, args, ref):
    """Stated condition number of a point: the accuracy budget is 1e-12 times it.

    The defining series of the zeta, Barnes, finite Barnes and j sums have
    positive terms, so their condition number is 1.  The product is the
    exponential of a one-signed log series, so a relative error of 1e-12 in
    that series is 1e-12 |log P| in P.  The power series has the condition
    number sum s_b(n) |z|^n / |sum s_b(n) z^n| of a sum whose terms change
    sign.
    """
    if fn == "infinite_product":
        with mp.workdps(DPS):
            return max(1.0, float(abs(mpmath.log(ref))))
    if fn == "lambert_gf":
        b, z = args
        with mp.workdps(DPS):
            return float(lambert_gf(b, abs(z)) / abs(ref)) if z < 0 else 1.0
    return 1.0


def evaluate(fn, args):
    """(reference value, condition number) of one closed-form point."""
    ref = REFERENCES[fn](*args)
    return float(ref), condition(fn, args, ref)
