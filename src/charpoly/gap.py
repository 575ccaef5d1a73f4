"""Extreme-eigenvalue probabilities of small GUE/LUE/JUE matrices.

The joint eigenvalue densities are w(t)^k Delta(t)^2 / C; restricting all
eigenvalues to a half line (or interval) and applying the Andreief identity
turns the k-fold integral into k! det[int t^{i+j} w dt]_{i,j<k} / C.
``_log_gram_det`` evaluates each as the Gram determinant of a quadrature rule
(Gautschi 2004, sec. 2.2; Bornemann 2010, arXiv:0804.2543), forming no moment,
in a variable where the weight is smooth: t = v for GUE, e^v for LUE and
1/(1 + e^{-v}) for JUE, so a non-integer power at a hard edge costs nothing.

``gap_oracle`` is the pre-reduction k-fold adaptive quadrature, kept fully
independent of the determinant route.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate as _integrate
from scipy import special as _sp
from scipy.linalg import lapack as _lapack

from .specfun import integer, log_gamma_ratio

__all__ = [
    "GUE",
    "LUE",
    "JUE",
    "GapEnsemble",
    "log_norm_constant",
    "gap_cdf",
    "clamped_log_gap_cdf",
    "log_gap_cdf",
    "log_lue_tail",
    "gap_oracle",
]


def _validate(e) -> None:
    """Store e.k as an int; refuse a size that is not a positive integer and
    a weight exponent alpha or beta <= -1."""
    if (k := integer(e.k)) is None or k < 1:
        raise ValueError(f"{type(e).__name__} requires an integer size k >= 1, got {e.k}")
    if min(getattr(e, "alpha", 0.0), getattr(e, "beta", 0.0)) <= -1:
        raise ValueError(f"{type(e).__name__} requires weight exponents alpha, beta > -1")
    object.__setattr__(e, "k", k)


@dataclass(frozen=True)
class GUE:
    k: int

    __post_init__ = _validate


@dataclass(frozen=True)
class LUE:
    k: int
    alpha: float

    __post_init__ = _validate


@dataclass(frozen=True)
class JUE:
    k: int
    alpha: float
    beta: float

    __post_init__ = _validate


GapEnsemble = GUE | LUE | JUE


@lru_cache(maxsize=None)
def log_norm_constant(e: GapEnsemble) -> float:
    """ln of the full-space normalization of w(t)^k Delta^2.

    GUE: (2pi)^{k/2} prod_{j=0}^{k-1} (j+1)!
    LUE: prod_{j=0}^{k-1} Gamma(alpha+j+1) Gamma(j+2)
    JUE: prod_{j=0}^{k-1} Gamma(alpha+j+1) Gamma(beta+j+1) Gamma(j+2)
                          / Gamma(alpha+beta+k+j+1)

    The JUE factor of the larger parameter enters as one ratio with the
    denominator (``specfun.log_gamma_ratio``): summed separately, two terms
    of size 6.6e4 at beta = 8192 put 1e-11 of rounding into ln C.
    """
    g, a, j = _sp.gammaln, getattr(e, "alpha", 0.0), range(e.k)
    if isinstance(e, GUE):
        return 0.5 * e.k * math.log(2 * math.pi) + sum(g(i + 2) for i in j)
    if isinstance(e, LUE):
        return float(sum(g(a + i + 1) + g(i + 2) for i in j))
    if isinstance(e, JUE):
        lo, hi = sorted((a, e.beta))
        return float(sum(g(lo + i + 1) + g(i + 2)
                         + log_gamma_ratio(hi + i + 1, a + e.beta + e.k + i + 1) for i in j))
    raise TypeError(f"unknown ensemble {e!r}")


_GL_T, _GL_W = np.polynomial.legendre.leggauss(20)


@lru_cache(maxsize=None)
def _panels(n: int):
    """Nodes in [0, n] and log-weights of n unit 20-point Gauss-Legendre panels."""
    return (np.arange(n)[:, None] + 0.5 * (_GL_T + 1.0)).ravel(), np.tile(np.log(0.5 * _GL_W), n)


def _log_gram_det(e: GapEnsemble, weight, a: float, b: float, width: float) -> float:
    """ln[k! det(int t^{i+j} w dt)_{i,j<k} / C] on 20-point Gauss-Legendre
    panels at most ``width`` wide over v in [a, b]; ``weight(v)`` returns
    (t, ln[w(t) dt/dv]).  With p = w W / max(w W), and c and sigma the mean and
    mean deviation of t under p, ((t - c)/sigma)^j is a unit triangular map of
    t^j / sigma^j, so ln det = 2 sum ln|R_jj| + k ln max(w W) + k(k-1) ln sigma
    with R from the thin QR of sqrt(p) ((t - c)/sigma)^j.

    Against 80-260-digit mpmath Hankels of exact moments (k <= 14, LUE alpha to
    800, JUE alpha and beta to 580, non-integer ones included) ln P is within
    5e-12 + 4e-16 |ln C|; the floor is the rounding of ln C.  A window that
    rounds to zero width (an x so far out that |x| swamps the weight's scale)
    raises FloatingPointError."""
    if not b > a:
        raise FloatingPointError(f"gap window [{a}, {b}] rounds to zero width")
    k, n = e.k, math.ceil((b - a) / width)
    grid, log_gl = _panels(n)
    t, lw = weight(a + (b - a) / n * grid)
    lw += log_gl
    m = lw.max()
    p = np.exp(lw - m)
    p_sum = p.sum()
    u = t - p @ t / p_sum
    sigma = float(p @ np.abs(u)) / p_sum  # not the rms: u * u underflows at t ~ 1e-300
    u /= sigma
    cols = np.empty((len(u), k), order="F")
    cols[:, 0] = np.sqrt(p)
    for j in range(1, k):
        np.multiply(cols[:, j - 1], u, out=cols[:, j])
    r = _lapack.dgeqrf(cols, overwrite_a=True)[0]
    return (math.lgamma(k + 1) + 2.0 * sum(math.log(abs(r[j, j])) for j in range(k))
            + k * (float(m) + math.log((b - a) / n)) + k * (k - 1) * math.log(sigma)
            - log_norm_constant(e))


def _drop(k: int) -> float:
    """ln w falls this far at every cut: an exponential tail past it keeps
    ~D^{2k-2} e^{-D} / ((k-1)!)^2 < 1e-17 of the degree k-1 polynomial's norm."""
    return 36.0 + 6.0 * k


def _rising_window(k: int, a0: float, slope: float):
    """(a, b, width) in v <= 0 for a log-weight a0 v + g(v) with g nondecreasing,
    so that every column peaks at v = 0 and falls by >= a0 |v| below it; panels
    are at most 1 and 3/``slope`` wide, slope being column k-1's f'(0)."""
    return -_drop(k) / a0, 0.0, min(1.0, 3.0 / slope)


def _log_lue(e: LUE, x: float, tail: bool) -> float:
    """ln P(lambda_max < x), or ln P(lambda_min > x) with ``tail``, in v = ln t.
    Column j carries f = a v - e^v, a = alpha + 1 + 2j; from its peak p on
    [lo, hi], with s = e^p and g = a - s, f falls by >= a d - s (and g d if
    g > 0) below p, and by >= |g| d + s d^2/2 and s (e^d - 1 - d) above p.
    Columns 0 and k-1 bound the others."""
    lx, drop, a0 = math.log(x), _drop(e.k), e.alpha + 1.0
    lo, hi = (lx, math.inf) if tail else (-math.inf, lx)
    a, b, curv = hi, lo, 0.0
    for aj in {a0, a0 + 2.0 * e.k - 2.0}:  # columns 0 and k-1
        p = min(max(math.log(aj), lo), hi)
        s, g = math.exp(p), aj - math.exp(p)
        a = min(a, p - min((drop + s) / aj, drop / g if g > 0.0 else math.inf))
        b = max(b, p + min((math.sqrt(g * g + 2.0 * s * drop) - abs(g)) / s,
                           1.0 + math.log1p(2.0 * drop / s)))
        curv = max(curv, g * g + s)

    def weight(v):
        t = np.exp(v)
        return t, a0 * v - t

    return _log_gram_det(e, weight, max(lo, a), min(hi, b), 3.0 / math.sqrt(curv))


def _log_jue(e: JUE, x: float) -> float:
    """ln P(lambda_max < x), 0 < x < 1, in v = logit t, up to v = logit x.
    Column j carries f = a v - (a+b) ln(1 + e^v), a = alpha + 1 + 2j and
    b = beta + 1; from its peak p, with f' = g there, f falls by >= a d -
    (a+b) ln(1 + e^p) (and g d if g > 0) below p.  Panels are at most 1 wide,
    as t(v) has poles at v = +-i pi."""
    hi, drop, a0, b1 = math.log(x) - math.log1p(-x), _drop(e.k), e.alpha + 1.0, e.beta + 1.0
    a, curv = hi, 0.0
    for aj in {a0, a0 + 2.0 * e.k - 2.0}:  # columns 0 and k-1
        p = min(math.log(aj / b1), hi)
        tp = 0.5 + 0.5 * math.tanh(0.5 * p)  # t at the peak
        g = aj - (aj + b1) * tp
        a = min(a, p - min((drop + (aj + b1) * math.log1p(math.exp(p))) / aj,
                           drop / g if g > 0.0 else math.inf))
        curv = max(curv, g * g + (aj + b1) * tp * (1.0 - tp))

    def weight(v):
        s = np.log1p(np.exp(-np.abs(v)))  # ln t = -max(-v, 0) - s
        lt = -np.maximum(-v, 0.0) - s
        return np.exp(lt), a0 * lt - b1 * (np.maximum(v, 0.0) + s)

    return _log_gram_det(e, weight, a, hi, min(1.0, 3.0 / math.sqrt(curv)))


def log_gap_cdf(e: GapEnsemble, x: float) -> float:
    """ln P(lambda_max < x); x outside the support clamps to the endpoint value."""
    if isinstance(e, GUE):  # f = -t^2/2 falls by D at -sqrt(p^2 + 2D), p = min(x, 0)
        p, drop = min(x, 0.0), _drop(e.k)
        return _log_gram_det(e, lambda v: (v, -0.5 * v * v), -math.sqrt(p * p + 2.0 * drop),
                             min(x, math.sqrt(2.0 * drop)), 3.0 / math.sqrt(p * p + 1.0))
    if isinstance(e, LUE):
        return _log_lue(e, x, tail=False) if x > 0.0 else -math.inf
    if isinstance(e, JUE):
        return -math.inf if x <= 0.0 else 0.0 if x >= 1.0 else _log_jue(e, x)
    raise TypeError(f"unknown ensemble {e!r}")


def clamped_log_gap_cdf(e: GapEnsemble, x: float) -> float:
    """ln P(lambda_max < x), clamped to at most 0 within 1e-12 slack."""
    lg = log_gap_cdf(e, x)
    if lg > 1e-12:
        raise FloatingPointError(f"gap_cdf exceeded 1 by {math.expm1(lg)}")
    return min(lg, 0.0)


def gap_cdf(e: GapEnsemble, x: float) -> float:
    """P(lambda_max < x) = exp(``clamped_log_gap_cdf``), in [0, 1]."""
    return math.exp(clamped_log_gap_cdf(e, x))


def log_lue_tail(k: int, alpha: float, x: float) -> float:
    """ln P(lambda_min > x) for the size-k LUE with parameter alpha, by
    ``_log_gram_det`` on [x, inf)."""
    e = LUE(k, alpha)
    return 0.0 if x <= 0.0 else _log_lue(e, x, tail=True)


def _weight_and_domain(e: GapEnsemble):
    if isinstance(e, GUE):
        return (lambda t: math.exp(-0.5 * t * t)), (-12.0, 12.0)
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

    Limited to k <= 3 by cost; absolute error target 1e-8.  The GUE domain
    is cut to [-12, 12]: outside it the weight e^{-t^2/2} < e^{-72} is far
    below the 1e-11 ``epsabs``, and GUE(3) takes about 2 s on a 2-core host
    instead of 19 s over the whole line.
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
