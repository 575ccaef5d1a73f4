"""Extreme-eigenvalue probabilities of small GUE/LUE/JUE matrices.

The joint eigenvalue densities are w(t)^k Delta(t)^2 / C; restricting all
eigenvalues to a half line (or interval) and applying the Andreief identity
turns the k-fold integral into a k x k determinant of one-dimensional
incomplete moments.  ``_log_andreief`` builds every LUE/JUE Hankel from its
2k - 1 log-moments with per-column rescaling, so that large Laguerre
parameters (alpha up to ~10^3) stay finite; the GUE Hankel stays linear
because its odd moments change sign.

``gap_oracle`` is the pre-reduction k-fold adaptive quadrature, kept fully
independent of the determinant route.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate as _integrate
from scipy import special as _sp

from .specfun import (
    erfc,
    log_reg_inc_beta,
    log_reg_upper_gamma,
    reg_lower_gamma,
)

__all__ = [
    "GUE",
    "LUE",
    "JUE",
    "GapEnsemble",
    "log_norm_constant",
    "gap_cdf",
    "log_gap_cdf",
    "lue_tail",
    "log_lue_tail",
    "gap_oracle",
]


@dataclass(frozen=True)
class GUE:
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("GUE requires k >= 1")


@dataclass(frozen=True)
class LUE:
    k: int
    alpha: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("LUE requires k >= 1")
        if self.alpha <= -1:
            raise ValueError("LUE requires alpha > -1")


@dataclass(frozen=True)
class JUE:
    k: int
    alpha: float
    beta: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("JUE requires k >= 1")
        if self.alpha <= -1 or self.beta <= -1:
            raise ValueError("JUE requires alpha > -1 and beta > -1")


GapEnsemble = GUE | LUE | JUE


def log_norm_constant(e: GapEnsemble) -> float:
    """ln of the full-space normalization of w(t)^k Delta^2.

    GUE: (2pi)^{k/2} prod_{j=0}^{k-1} (j+1)!
    LUE: prod_{j=0}^{k-1} Gamma(alpha+j+1) Gamma(j+2)
    JUE: prod_{j=0}^{k-1} Gamma(alpha+j+1) Gamma(beta+j+1) Gamma(j+2)
                          / Gamma(alpha+beta+k+j+1)
    """
    if isinstance(e, GUE):
        k = e.k
        return 0.5 * k * math.log(2 * math.pi) + sum(
            _sp.gammaln(j + 2) for j in range(k)
        )
    if isinstance(e, LUE):
        return float(
            sum(
                _sp.gammaln(e.alpha + j + 1) + _sp.gammaln(j + 2)
                for j in range(e.k)
            )
        )
    if isinstance(e, JUE):
        return float(
            sum(
                _sp.gammaln(e.alpha + j + 1)
                + _sp.gammaln(e.beta + j + 1)
                + _sp.gammaln(j + 2)
                - _sp.gammaln(e.alpha + e.beta + e.k + j + 1)
                for j in range(e.k)
            )
        )
    raise TypeError(f"unknown ensemble {e!r}")


def _log_andreief(e: GapEnsemble, log_moment) -> float:
    """ln[k! det(m_{i+j})_{i,j<k} / C] for the Hankel of positive moments
    m_n = exp(log_moment(n)), n = 0..2k-2, each computed once.

    Columns are rescaled by their largest entry before the determinant so
    moment matrices with huge dynamic range keep relative accuracy; the
    scales are restored in log space.  Raises if the determinant comes out
    non-positive (the gap matrices are totally positive in exact arithmetic).
    """
    k = e.k
    lm = np.array([log_moment(n) for n in range(2 * k - 1)])
    logm = lm[np.add.outer(np.arange(k), np.arange(k))]
    scale = logm.max(axis=0)
    sign, logdet = np.linalg.slogdet(np.exp(logm - scale[None, :]))
    if sign <= 0:
        raise FloatingPointError(
            "incomplete-moment determinant lost positivity; the matrix is "
            "too ill-conditioned at this order"
        )
    return float(_sp.gammaln(k + 1) + (logdet + scale.sum()) - log_norm_constant(e))


def _gue_incomplete_moments(k: int, x: float) -> np.ndarray:
    """m_n(x) = int_{-inf}^x t^n e^{-t^2/2} dt for n = 0..2k-2.

    Upward recurrence m_n = (n-1) m_{n-2} - x^{n-1} e^{-x^2/2}, seeded with
    erfc and the Gaussian; odd moments may be negative so these stay linear
    (k <= ~10 keeps the range harmless).
    """
    nmax = 2 * k - 2
    m = np.empty(nmax + 1)
    g = math.exp(-0.5 * x * x)
    m[0] = math.sqrt(math.pi / 2.0) * erfc(-x / math.sqrt(2.0))
    if nmax >= 1:
        m[1] = -g
    for n in range(2, nmax + 1):
        m[n] = (n - 1) * m[n - 2] - x ** (n - 1) * g
    return m


def log_gap_cdf(e: GapEnsemble, x: float) -> float:
    """ln P(lambda_max < x) via the Andreief determinant of incomplete
    moments.  Arguments outside the support clamp to the endpoint value."""
    if isinstance(e, GUE):
        k = e.k
        m = _gue_incomplete_moments(k, x)
        mat = np.array([[m[i + j] for j in range(k)] for i in range(k)])
        sign, logdet = np.linalg.slogdet(mat)
        if sign <= 0:
            return -math.inf
        return float(
            _sp.gammaln(k + 1) + logdet - log_norm_constant(e)
        )
    if isinstance(e, LUE):
        if x <= 0.0:
            return -math.inf
        return _log_andreief(e, lambda n: _log_lower_gamma_moment(e.alpha + n + 1, x))
    if isinstance(e, JUE):
        if x <= 0.0:
            return -math.inf
        if x >= 1.0:
            return 0.0
        a, b = e.alpha, e.beta + 1
        return _log_andreief(
            e, lambda n: _sp.betaln(a + n + 1, b) + log_reg_inc_beta(a + n + 1, b, x)
        )
    raise TypeError(f"unknown ensemble {e!r}")


def _log_lower_gamma_moment(a: float, x: float) -> float:
    """ln int_0^x t^{a-1} e^{-t} dt = ln[Gamma(a) P(a, x)]."""
    p = reg_lower_gamma(a, x)
    if p > 1e-280:
        return float(_sp.gammaln(a) + math.log(p))
    # small-x series: gamma(a,x) = x^a e^{-x} sum_k x^k / (a)_{k+1}
    s, term = 0.0, 1.0 / a
    for k in range(1, 200):
        s += term
        term *= x / (a + k)
        if term < 1e-18 * s:
            break
    return a * math.log(x) - x + math.log(s + term)


def gap_cdf(e: GapEnsemble, x: float) -> float:
    """P(lambda_max < x), clamped to [0, 1] within 1e-12 slack."""
    lg = log_gap_cdf(e, x)
    if lg > 1e-12:
        raise FloatingPointError(f"gap_cdf exceeded 1 by {math.expm1(lg)}")
    return math.exp(min(lg, 0.0))


def log_lue_tail(k: int, alpha: float, x: float) -> float:
    """ln P(lambda_min > x) for the size-k LUE with parameter alpha.

    Andreief determinant of the shifted upper moments
    int_x^inf t^{alpha+n} e^{-t} dt = Gamma(a) Q(a, x), a = alpha + n + 1.
    """
    e = LUE(k, alpha)
    if x <= 0.0:
        return 0.0
    return _log_andreief(
        e, lambda n: _sp.gammaln(alpha + n + 1) + log_reg_upper_gamma(alpha + n + 1, x)
    )


def lue_tail(k: int, alpha: float, x: float) -> float:
    """P(lambda_min > x); returns 1 for x < 0."""
    if x < 0.0:
        return 1.0
    return math.exp(min(log_lue_tail(k, alpha, x), 0.0))


def _weight_and_domain(e: GapEnsemble):
    if isinstance(e, GUE):
        return (lambda t: math.exp(-0.5 * t * t)), (-np.inf, np.inf)
    if isinstance(e, LUE):
        a = e.alpha
        return (lambda t: t**a * math.exp(-t) if t > 0 else 0.0), (0.0, np.inf)
    if isinstance(e, JUE):
        a, b = e.alpha, e.beta
        return (
            lambda t: t**a * (1.0 - t) ** b if 0.0 < t < 1.0 else 0.0
        ), (0.0, 1.0)
    raise TypeError(f"unknown ensemble {e!r}")


def gap_oracle(e: GapEnsemble, x: float, tail: bool = False) -> float:
    """Brute-force k-fold adaptive quadrature of the joint density over the
    gap region (all eigenvalues below x, or above x when ``tail`` is set).

    Limited to k <= 3 by cost; absolute error target 1e-8.
    """
    k = e.k
    if k > 3:
        raise ValueError("gap_oracle supports k <= 3 only")
    w, (lo, hi) = _weight_and_domain(e)
    if tail:
        lo = max(lo, x)
    else:
        hi = min(hi, x)
    if hi <= lo:
        return 0.0

    def density(*ts):
        p = 1.0
        for t in ts:
            p *= w(t)
            if p == 0.0:
                return 0.0
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                d = ts[j] - ts[i]
                p *= d * d
        return p

    val, _err = _integrate.nquad(
        density,
        [(lo, hi)] * k,
        opts={"epsabs": 1e-11, "epsrel": 1e-10, "limit": 200},
    )
    return float(val * math.exp(-log_norm_constant(e)))
