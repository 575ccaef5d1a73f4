"""Scalar special functions: log-gamma, Barnes G, regularized incomplete
gamma/beta, and the complementary error function.

Everything ensemble-sized is exposed in log form so that constants remain
finite for matrix orders up to ~10^3.
"""

import math

import numpy as np
from scipy import special as _sp

__all__ = [
    "log_gamma",
    "log_barnes_g",
    "reg_lower_gamma",
    "log_reg_upper_gamma",
    "reg_inc_beta",
    "log_reg_inc_beta",
    "erfc",
    "erfc_complex",
]

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


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return float(_sp.gammaln(x))


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


def reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x), a > 0, x >= 0."""
    if a <= 0.0:
        raise ValueError(f"reg_lower_gamma requires a > 0, got {a}")
    if x < 0.0:
        raise ValueError(f"reg_lower_gamma requires x >= 0, got {x}")
    return float(_sp.gammainc(a, x))


def log_reg_upper_gamma(a: float, x: float) -> float:
    """ln Q(a, x) for the regularized upper incomplete gamma.

    Stays finite far into the tail where Q itself would underflow.
    """
    if a <= 0.0:
        raise ValueError(f"log_reg_upper_gamma requires a > 0, got {a}")
    if x <= 0.0:
        return 0.0
    q = float(_sp.gammaincc(a, x))
    if q > 1e-280:
        return math.log(q)
    # deep tail: Q(a,x) ~ x^{a-1} e^{-x} / Gamma(a) * CF correction
    return _log_upper_gamma_cf(a, x) - float(_sp.gammaln(a))


def _log_upper_gamma_cf(a: float, x: float) -> float:
    """ln of the (unregularized) upper incomplete gamma via Lentz CF, x > a."""
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


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b), a > 0, b > 0, x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"reg_inc_beta requires a, b > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"reg_inc_beta requires x in [0, 1], got {x}")
    return float(_sp.betainc(a, b, x))


def log_reg_inc_beta(a: float, b: float, x: float) -> float:
    """ln I_x(a, b), finite where I_x itself underflows, through
    I_x(a,b) = x^a (1-x)^b / (a B(a,b)) 2F1(a+b, 1; a+1; x) (DLMF 8.17.8)."""
    v = reg_inc_beta(a, b, x)
    if v > 1e-280:
        return math.log(v)
    if x == 0.0:
        return -math.inf
    log_lead = (
        a * math.log(x)
        + b * math.log1p(-x)
        - math.log(a)
        - float(_sp.betaln(a, b))
    )
    return log_lead + math.log(float(_sp.hyp2f1(a + b, 1.0, a + 1.0, x)))


def erfc(x: float) -> float:
    """Complementary error function (2/sqrt(pi)) int_x^inf e^{-t^2} dt."""
    return float(_sp.erfc(x))


def erfc_complex(z: complex) -> complex:
    """erfc continued to complex argument, via the Faddeeva function."""
    z = complex(z)
    return complex(np.exp(-z * z) * _sp.wofz(1j * z))
