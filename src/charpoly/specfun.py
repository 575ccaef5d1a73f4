"""Scalar special functions: Barnes G, Gamma ratios and the upper incomplete
gamma in log form, complex erfc, and the one integer test of exponents and sizes.

Everything ensemble-sized is exposed in log form so that constants remain
finite for matrix orders up to ~10^3.
"""

import math

import numpy as np
from scipy import special as _sp

__all__ = [
    "integer",
    "log_barnes_g",
    "log_gamma_ratio",
    "erfc_complex",
]


def integer(x: float) -> int | None:
    """round(x) if x is within 1e-12 relative of it, else None; the slack
    covers sizes and exponents computed in floats that land an ulp off an
    integer, such as 2.05 - 1.05 = 0.9999999999999998."""
    r = round(x)
    return int(r) if abs(x - r) <= 1e-12 * max(1.0, abs(x)) else None


# zeta'(-1) = 1/12 - log(Glaisher constant)
_ZETA_PRIME_MINUS_ONE = -0.16542114370045092921391966024278064276

# Bernoulli tail coefficients B_{2n+2}/(4n(n+1)) for n = 1..5
_BARNES_TAIL = (
    -1.0 / 240.0,
    1.0 / 1008.0,
    -1.0 / 1440.0,
    1.0 / 1056.0,
    -691.0 / 327600.0,
)


def log_barnes_g(x: float) -> float:
    """ln G(x) for the Barnes G-function, x > 0.

    Uses the recurrence G(z+1) = Gamma(z) G(z) to shift the argument above
    20 and then the standard large-z asymptotic series; the truncation error
    of the retained Bernoulli tail is below 1e-15 there.
    """
    if x <= 0.0:
        raise ValueError(f"log_barnes_g requires x > 0, got {x}")
    # integer arguments: G(n) = prod_{j=0}^{n-2} j!
    if x == round(x) and x < 25:
        n = int(round(x))
        return float(sum(_sp.gammaln(j + 1) for j in range(1, n - 1)))
    shift = 0.0
    z = x
    while z < 21.0:
        shift -= _sp.gammaln(z)
        z += 1.0
    # DLMF 5.17.5 for ln G(z+1), evaluated at z-1 so that it yields ln G(z)
    w = z - 1.0
    out = (
        0.5 * w * w * (math.log(w) - 1.5)
        + 0.5 * w * math.log(2.0 * math.pi)
        - math.log(w) / 12.0
        + _ZETA_PRIME_MINUS_ONE
    )
    w2 = w * w
    p = w2
    for c in _BARNES_TAIL:
        out += c / p
        p *= w2
    return float(out + shift)


# Stirling coefficients B_{2n}/(2n(2n-1)) for n = 1..6
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
             -691.0 / 360360.0)


def _stirling_tail(x: float) -> float:
    """ln Gamma(x) - (x - 1/2) ln x + x - ln(2 pi)/2; truncation < 1e-19 at x >= 20."""
    x2, p, out = x * x, x, 0.0
    for c in _STIRLING:
        out += c / p
        p *= x2
    return out


def log_gamma_ratio(a: float, b: float) -> float:
    """ln[Gamma(a) / Gamma(b)] for a, b > 0, as one ratio where both are >= 20:
    with d = b - a, -(a - 1/2) log1p(d/a) - d (ln b - 1) plus the Stirling
    tails, so that two ln Gamma terms of size a ln a do not round separately
    (a > b takes the reciprocal, where log1p is well conditioned); scipy
    ``gammaln`` below 20."""
    if min(a, b) < 20.0:
        return float(_sp.gammaln(a) - _sp.gammaln(b))
    if a > b:
        return -log_gamma_ratio(b, a)
    d = b - a
    return (-(a - 0.5) * math.log1p(d / a) - d * (math.log(b) - 1.0)
            + _stirling_tail(a) - _stirling_tail(b))


def _log_upper_gamma_cf(a: float, x: float) -> float:
    """ln of the (unregularized) upper incomplete gamma via Lentz CF, x > a;
    -inf at x = inf."""
    if x == math.inf:
        return -math.inf
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return a * math.log(x) - x + math.log(h)


def erfc_complex(z: complex) -> complex:
    """erfc continued to complex argument, via the Faddeeva function."""
    z = complex(z)
    return complex(np.exp(-z * z) * _sp.wofz(1j * z))
