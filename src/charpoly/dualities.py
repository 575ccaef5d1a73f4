"""Exact finite-N representations of characteristic-polynomial moments:
LUE/JUE dualities (each one ``gap`` determinant), one Gram determinant for
every rotation-invariant moment E|det(A - z)|^gamma, its Painleve V check
(a Gram seed and one short solve), the HCIZ determinant ratio, the
lemniscate partition function, and the confluent kernel correlator.

All moments are returned as natural logs; the quantities grow like
exp(N k |z|^2) and would overflow otherwise.
"""

import cmath
import math
from functools import lru_cache

import numpy as np
from scipy import special as _sp
from scipy.linalg import lapack as _lapack

from . import confluent as _confluent
from . import gap as _gap
from . import painleve as _painleve
from .ensembles import Ginibre, InducedGinibre, TruncatedCUE
from .specfun import integer, log_gamma_ratio

__all__ = [
    "GinibreWeight",
    "InducedGinibre",
    "RadialWeightSpec",
    "log_r_gamma_zero",
    "log_tcue_r_gamma_one",
    "log_c_mnk",
    "ginibre_moment_exact",
    "ginibre_moment_toeplitz",
    "ginibre_moment_pv",
    "tcue_moment_exact",
    "tcue_moment_toeplitz",
    "hciz_ratio",
    "hciz_exp_taylor",
    "lemniscate_partition",
    "lemniscate_gamma_exponents",
    "log_c_lemniscate",
    "log_z_ginibre",
    "correlator_finiteN",
]


# one class per matrix model, in ``ensembles``; GinibreWeight is an alias
GinibreWeight = Ginibre
RadialWeightSpec = Ginibre | InducedGinibre | TruncatedCUE


# ---------------------------------------------------------------------------
# closed-form constants
# ---------------------------------------------------------------------------

def log_r_gamma_zero(n: int, gamma: float) -> float:
    """ln E|det G_N|^gamma = -gamma N/2 ln N + sum ln[G(g/2+j+1)/G(j+1)]."""
    return float(
        -0.5 * gamma * n * math.log(n)
        + sum(_sp.gammaln(0.5 * gamma + j + 1) - _sp.gammaln(j + 1.0) for j in range(n))
    )


def log_tcue_r_gamma_one(m: int, n: int, gamma: float) -> float:
    """ln E|det(T - z)|^gamma at |z| = 1 (Morris closed product)."""
    kap = m - n
    return float(
        sum(
            _sp.gammaln(kap + j + 1.0)
            + _sp.gammaln(kap + gamma + j + 1)
            - 2.0 * _sp.gammaln(kap + 0.5 * gamma + j + 1)
            for j in range(n)
        )
    )


def log_c_mnk(m: int, n: int, k: int) -> float:
    """ln C_{M,N,k} = ln E|det T|^{2k} as the finite Gamma product, Gamma(N+1+j)
    over Gamma(M+1+j) as one ratio (``specfun.log_gamma_ratio``)."""
    return float(sum(_sp.gammaln(m - n + 1.0 + j) - _sp.gammaln(1.0 + j)
                     + log_gamma_ratio(n + 1.0 + j, m + 1.0 + j) for j in range(k)))


# ---------------------------------------------------------------------------
# exact LUE-duality route (integer k)
# ---------------------------------------------------------------------------

def ginibre_moment_exact(n: int, k: int, z: complex) -> float:
    """ln E|det(G_N - z)|^{2k} via the smallest-eigenvalue LUE duality:
    N^{-Nk} e^{Nk|z|^2} prod_j Gamma(j+N)/Gamma(j) * P(lambda_min > N|z|^2).

    The tail is ``gap.log_lue_tail``: within 1.8e-12 in log of 150-digit mpmath
    Hankels at (N, k, |z|) = (800, 2, 1.0..1.5), (64, 200 and 800, 3, 1.4),
    (200, 4, 1.2 and 1.4), (64, 4, 1.23), (200, 5, 0.81) and (64, 8, 1.3), and
    within 1.3e-10 of the Gram route (``ginibre_moment_toeplitz``) there at k <= 4.
    """
    Ginibre(n)  # refuses n < 1
    k = _gap.LUE(k, float(n)).k  # refuses a size k that is not a positive integer
    az2 = abs(complex(z)) ** 2
    return float(
        -n * k * math.log(n)
        + n * k * az2
        + sum(_sp.gammaln(j + n) - _sp.gammaln(j) for j in range(1, k + 1))
        + _gap.log_lue_tail(k, float(n), n * az2)
    )


# ---------------------------------------------------------------------------
# Gram route: every rotation-invariant moment E|det(A - z)|^gamma
# ---------------------------------------------------------------------------

def _angular_near_one(m: int, gamma: float, y: np.ndarray) -> np.ndarray:
    """binom(g, m) 2F1(-g, m-g; m+1; 1-y), g = gamma/2, for y < 0.1, from the 1-x
    connection formulas DLMF 15.8.4, or 15.8.10 (logarithmic) at gamma = -1."""
    g = 0.5 * gamma
    a, b, n = -g, m - g, 1.0 + gamma
    k = np.arange(80.0)[:, None]

    def terms(a, b, c):  # the terms k < 80 of 2F1(a, b; c; y), one column per y
        ratio = (a + k[:-1]) * (b + k[:-1]) / ((c + k[:-1]) * k[1:]) * y
        return np.cumprod(np.vstack([np.ones_like(y)[None], ratio]), axis=0)

    if n == 0.0:
        psi = 2.0 * _sp.digamma(k + 1.0) - _sp.digamma(a + k) - _sp.digamma(b + k)
        return _sp.binom(g, m) * _sp.gamma(m + 1.0) / (_sp.gamma(a) * _sp.gamma(b)) * (
            terms(a, b, 1.0) * (psi - np.log(y))).sum(0)
    # sin(pi g) from g - round(g), which is exact, so that it keeps its
    # relative accuracy next to an even gamma
    s = math.sin(math.pi * (g - round(g))) / math.pi * (-1) ** (round(g) + m)
    return -s * _sp.gamma(n) / _sp.poch(b, n) * terms(a, b, -gamma).sum(0) + (
        (_sp.gamma(g + 1.0) * s) ** 2 * _sp.gamma(-n) * (-1) ** m * y**n
        * terms(m + 1.0 + g, 1.0 + g, 1.0 + n).sum(0)
    )


def _angular_coeffs(gamma: float, rho: np.ndarray, y: np.ndarray, n: int) -> list:
    """e_m = binom(g, m) 2F1(-g, m-g; m+1; rho^2), g = gamma/2, for m < N (e_m = 0
    for m > g at even gamma); (-rho)^m e_m are the Fourier coefficients of
    |1 - rho e^{i phi}|^gamma.  Downward recurrence (m-1-g) e_{m-1} =
    -[(1+rho^2) m e_m + rho^2 (m+1+g) e_{m+1}], seeded at the top and where
    |m-1-g| < 1/4; seeds at small y = 1-rho^2 come from y, except within 1e-3
    of an odd gamma > -1, where 15.8.4 cancels and scipy's hyp2f1 holds."""
    g = 0.5 * gamma
    if (top := integer(g)) is not None:
        hi, lo = 0.0 * y, 1.0 + 0.0 * y
    else:
        offset_form = gamma <= -1.0 or abs((gamma - 1.0) % 2.0 - 1.0) < 0.999
        top, near = n - 1, y < (min(0.1, 3.0 / n) if offset_form else 0.0)

        def seed(m):
            out = _sp.binom(g, m) * _sp.hyp2f1(-g, m - g, m + 1.0, np.where(near, 0.0, 1.0 - y))
            if near.any():
                out[near] = _angular_near_one(m, gamma, y[near])
            return out

        hi, lo = seed(n), seed(n - 1)
    e = [lo]
    for m in range(top, 0, -1):
        if abs(m - 1.0 - g) < 0.25:
            hi, lo = lo, seed(m - 1)
        else:
            hi, lo = lo, -((1.0 + rho**2) * m * lo + rho**2 * (m + 1.0 + g) * hi) / (m - 1.0 - g)
        e.append(lo)
    return e[::-1][:n]


def _log_gram_det(weight: RadialWeightSpec, gamma: float, z: complex) -> float:
    """ln E|det(A - z)|^gamma for a rotation-invariant weight w(|lam|): ln det of
    the Gram matrix M_jk = 2 pi int r^{j+k+1} w(r) a_{|j-k|}(r) dr / sqrt(h_j h_k)
    of the orthonormal monomials against |lam - z|^gamma, a_m = rho^m e_m
    max(r,|z|)^gamma (``_angular_coeffs``), rho = min(r,|z|)/max(r,|z|); phases
    are a similarity.  M is positive definite (gamma/2 + 1 diagonals at even
    gamma); Cholesky gives ln det.  The radial integral is split at r = |z|, where
    a_m has an |r-|z||^{1+gamma} or log singularity, into tanh-sinh rules in the
    offset from |z|.

    Measured envelope, refused outside it: gamma = 2, 4 within 4e-10 of
    ``correlator_finiteN`` for N <= 800, |z| <= 3; even gamma = 6..16 within
    5e-11 of the exact dualities for N <= 2^(8 - gamma/2), |z| <= 3, and gamma
    = 6 within 1.1e-10 for N <= 800, |z| >= 1.3 (round-off grows past that:
    1e-8 at gamma = 6, N = 400, |z| = 0.9); non-even gamma >= -1.95
    within 5e-13 of Toeplitz determinants in 80 digits for N <= 16, 1.4e-11 at
    N = 32 and 2.2e-11 at N = 64 (|z| <= 1.4), within 2e-10 for |gamma + 1| >=
    1e-3 (15.8.4 loses 1/|gamma + 1|; -1 itself is exact).  At the tCUE edge
    (N >= 400, ||z| - 1| <= 0.05) gamma = 4 stays 1e-9 to 3e-8 off: round-off."""
    n, c = weight.n, abs(complex(z))
    even, tcue = integer(0.5 * gamma) is not None, isinstance(weight, TruncatedCUE)
    for bad, need in ((gamma < -1.95, "gamma >= -1.95"),
                      (0.0 < abs(gamma + 1.0) < 1e-3, "|gamma + 1| = 0 or >= 1e-3"),
                      (not even and n > 64, "N <= 64 for non-even gamma"),
                      (tcue and n >= 400 and abs(c - 1.0) <= 0.05,
                       "tCUE N < 400 at ||z| - 1| <= 0.05"),
                      (even and gamma >= 6 and n > 2.0 ** (8 - gamma / 2)
                       and not (gamma == 6 and c >= 1.3 and n <= 800),
                       "N <= 2^(8 - gamma/2) at even gamma >= 6 (800 at gamma = 6, |z| >= 1.3)")):
        if bad:
            raise ValueError(f"outside the Gram route's envelope: needs {need} "
                             f"(N = {n}, gamma = {gamma:g}, |z| = {c:.6g})")
    if gamma == 0.0:
        return 0.0
    if tcue:
        h = min(0.1, 0.25 / math.sqrt(weight.m))
        sides = [(-1.0, max(0.0, c - 1.0), c)] + ([(1.0, 0.0, 1.0 - c)] if c < 1.0 else [])
    else:
        # every r^{2j+1+gamma} w(r), j < N, is below e^{-45} of its peak past r_hi
        g1 = getattr(weight, "gamma1", 0.0)
        a = n + g1 + 0.5 * max(gamma, 0.0) + 1.0
        r_hi = math.sqrt((a + 45.0 + math.sqrt(2025.0 + 90.0 * a)) / n)
        h = min(0.1, 0.25 / (max(c, r_hi) * math.sqrt(n)))
        sides = ([(-1.0, 0.0, c)] if c > 0 else []) + ([(1.0, 0.0, r_hi - c)] if r_hi > c else [])
    # s_max: an unbounded singular part carries < 1e-17 nearer |z| than e^{-39/(2+gamma)}
    s_max = 3.3 if gamma > -1.0 else min(6.1, math.asinh(39.0 / (math.pi * (2.0 + gamma))))
    t, u, cosh_s = _tanh_sinh(h, s_max)
    cols = []
    for sign, d0, d1 in sides:  # offsets from the near and far end; inner sides end at 0
        near, far = (d1 - d0) * t, (d1 - d0) * u
        d = d0 + near
        r = far if sign < 0 else c + d
        y = d * (2.0 * c + sign * d) / np.maximum(r, c) ** 2 if c > 0 else np.ones_like(r)
        wt = (d1 - d0) * h * math.pi * cosh_s * t * u
        keep = (near > 0) & (far > 0) & (wt > 0)
        cols.append((r[keep], wt[keep], y[keep]))
    r, wt, y = (np.concatenate(a) for a in zip(*cols))
    big = np.maximum(r, c)
    rho, ln_r = np.minimum(r, c) / big, np.log(r)
    # lp = (ln(1/h_j) + (2j + 1) ln r + ln w + gamma ln big + ln(2 pi wt)) / 2, in place
    lp = (2.0 * np.arange(n)[:, None] + 1.0) * ln_r
    lp += _kernel_coeffs(weight, n)[:, None]
    lp += _sp.xlog1py(weight.m - n - 1.0, -r * r) if tcue else 2.0 * g1 * ln_r - n * r * r
    lp += gamma * np.log(big)
    lp += np.log(2.0 * math.pi * wt)
    lp *= 0.5
    lp[~(lp > -340.0)] = -np.inf  # p_j p_k stays a normal float
    p = np.exp(lp, out=lp)
    e = _angular_coeffs(gamma, rho, y, n)
    ln_rho = np.log(np.maximum(rho, 1e-300))
    ab = np.zeros((len(e), n), order="F")
    for m, em in enumerate(e):
        if m:  # rho^0 = 1 exactly
            lr = m * ln_rho
            em = np.exp(np.where(lr > -300.0, lr, -np.inf)) * em
        ab[-1 - m, m:] = (p[: n - m] * p[m:]) @ em
    ab[np.abs(ab) < 1e-200 * np.max(ab[-1])] = 0.0  # subnormals slow the factorisation 100x
    if not np.isfinite(ab).all():
        raise FloatingPointError("Gram matrix is not finite")
    chol, info = _lapack.dpbtrf(ab, overwrite_ab=1)
    if info:
        raise FloatingPointError(f"Gram matrix lost positivity ({info}-th leading minor "
                                 "not positive definite)")
    return 2.0 * float(np.sum(np.log(chol[-1])))


@lru_cache(maxsize=64)
def _tanh_sinh(h: float, s_max: float):
    """(t, u, cosh s) of the tanh-sinh rule of step h on s in [-3.3, s_max],
    t, u = expit(-+pi sinh s), as read-only arrays."""
    s = np.arange(-math.ceil(3.3 / h), math.ceil(s_max / h) + 1) * h
    out = _sp.expit(-math.pi * np.sinh(s)), _sp.expit(math.pi * np.sinh(s)), np.cosh(s)
    for a in out:
        a.flags.writeable = False
    return out


def ginibre_moment_toeplitz(n: int, gamma: float, z: complex) -> float:
    """ln E|det(G_N - z)|^gamma by the Gram route (``_log_gram_det``)."""
    return _log_gram_det(Ginibre(n), gamma, z)


def tcue_moment_toeplitz(m: int, n: int, gamma: float, z: complex) -> float:
    """ln E|det(T - z)|^gamma, T the N x N truncation of Haar U(M), by the Gram route."""
    return _log_gram_det(TruncatedCUE(m, n), gamma, z)


# ---------------------------------------------------------------------------
# Painleve V route
# ---------------------------------------------------------------------------

def ginibre_moment_pv(n: int, gamma: float, z: complex) -> float:
    """ln E|det(G_N - z)|^gamma = ln R(0) + gamma x/2 + ln P(x), x = N|z|^2,
    where ln P' = sigma/t and sigma is the sigma-Painleve-V transcendent.

    sigma is seeded by ``sigma_data`` on ln P(t) = ln R(sqrt(t/N)) - ln R(0) -
    gamma t/2, R the Gram route, at t_ref = x N/(N + 3), and carried to x by
    one solve.  The transport error grows like exp(0.8 N (x - t_ref)/x): a
    fixed t_ref = 0.95 x is 1.8e-4 off at (N, gamma, |z|) = (400, 2, 0.3).
    Envelope: |z| <= 1.5 (ValueError beyond: at (8, 2, 4) it read 24.98
    against Gram's 22.24), the Gram route's (its ValueError), and
    ``sigma_data``'s FloatingPointError where ln P(t_ref) < ln 1e-300, as at
    (800, 4, 1.5).  Elsewhere within 9.9e-10 of the Gram route for N <= 800,
    gamma in {-1.5, -0.5, 1.3, 2, 4} and |z| in [0.05, 1.5].
    """
    if n < 1 or gamma <= -2 or abs(complex(z)) > 1.5:
        raise ValueError("requires n >= 1, gamma > -2 and |z| <= 1.5")
    if gamma == 0.0:
        return 0.0
    x = n * abs(complex(z)) ** 2
    log_r0 = log_r_gamma_zero(n, gamma)
    if x == 0.0:
        return log_r0
    fam = _painleve.PV(0.5 * gamma, float(n))

    def logp(t):  # the Gram moment over its z = 0 value and e^{gamma t/2}
        return _log_gram_det(Ginibre(n), gamma, (t / n) ** 0.5) - log_r0 - 0.5 * gamma * t

    # ln P(0) = 0, so the step need not shrink with t_ref: the relative
    # default step puts up to 3.4e-9 of round-off into x < 1
    t_ref = x * n / (n + 3.0)
    init = _painleve.sigma_data(fam, logp, t_ref, min(4e-3 * max(1.0, t_ref), t_ref / 4.5))
    sol = _painleve.solve_span(fam, init, t_ref, x, tol=1e-7)
    return float(log_r0 + 0.5 * gamma * x + sol.log_f(x))


# ---------------------------------------------------------------------------
# truncated CUE exact (Andreief) route
# ---------------------------------------------------------------------------

def tcue_moment_exact(m: int, n: int, k: int, x: complex, y: complex) -> float:
    """ln E[det(T-x)^k det(T^dagger - y)^k] = ln k! det[int_0^1 t^{kappa+i+j}
    (1 + (q-1)t)^N dt]_{i,j<k} - ln C^JUE_{kappa+N,0}, q = xy, kappa = M - N,
    for real q >= 0 (x = conj(y) gives E|det(T - x)|^{2k}); one gap
    determinant (``gap._log_gram_det``) either way.

    q < 1 is the JUE-factored form C_{M,N,k} (1-q)^{-k kappa - k^2}
    P(lambda_max^JUE(k, kappa, N) < 1-q), after s = (1-q)t.  q >= 1 takes the
    Hankel itself in v = ln t, where every column rises to v = 0.  Within
    5e-12 of 80-digit mpmath Hankels for M <= 802, N <= 800, k <= 4, |z| <= 3.
    """
    TruncatedCUE(m, n)  # refuses sizes outside 1 <= n < m
    q = complex(x) * complex(y)
    if q.imag != 0.0 or q.real < 0.0:
        raise ValueError("tcue_moment_exact requires a real xy >= 0")
    kap, q = m - n, q.real
    jue = _gap.JUE(k, float(kap), float(n))  # refuses a size k that is not a positive integer
    k = jue.k
    if q < 1.0:
        u = 1.0 - q
        return float(log_c_mnk(m, n, k) - (k * kap + k * k) * math.log(u)
                     + _gap.log_gap_cdf(jue, u))

    def weight(v):
        t = np.exp(v)
        return t, (kap + 1.0) * v + n * np.log1p((q - 1.0) * t)

    window = _gap._rising_window(k, kap + 1.0, kap + 2.0 * k - 1.0 + n * (q - 1.0) / q)
    return _gap._log_gram_det(_gap.JUE(k, kap + n, 0.0), weight, *window)


# ---------------------------------------------------------------------------
# HCIZ
# ---------------------------------------------------------------------------

def hciz_exp_taylor(P: int, Q: int, a: complex, b: complex) -> np.ndarray:
    """Taylor block d_u^p d_v^q e^{uv} / (p! q!) at (a, b), p < P, q < Q:
    e^{ab} sum_r b^{p-r} a^{q-r} / (r! (p-r)! (q-r)!)."""
    if P == Q == 1:  # a pair of single points, the common case
        return np.array([[cmath.exp(a * b)]])
    r = np.arange(max(P, Q))
    e = np.maximum(r[:, None] - r, 0)
    tri = (r[:, None] >= r) / _sp.gamma(e + 1.0)  # 1/(p-r)! on and below the diagonal
    return cmath.exp(a * b) * ((b**e * tri)[:P] / _sp.gamma(r + 1.0)) @ (a**e * tri)[:Q].T


def hciz_ratio(u, v) -> complex:
    """det{e^{u_i conj(v)_j}} / (Delta(u) Delta(conj(v))) at any separation
    of the points, coincident ones included: nearby points enter through
    exact Newton divided differences (see ``confluent``).

    Equals 1/G(1+k) times the U(k) group integral of exp Tr(U A U^dag B^bar).
    """
    u = [complex(t) for t in u]
    vbar = [complex(t).conjugate() for t in v]
    if len(u) != len(vbar) or not u:
        raise ValueError("u and v must have equal positive length")
    return _confluent.det_ratio(
        u, vbar, lambda P, Q, a, b: (hciz_exp_taylor(P, Q, a, b), 0.0, 0.0)
    )


# ---------------------------------------------------------------------------
# lemniscate partition function
# ---------------------------------------------------------------------------

def lemniscate_gamma_exponents(d: int):
    """gamma_l = -2(1 - (l+1)/d), l = 0..d-1 (the last one is zero)."""
    return [-2.0 * (1.0 - (l + 1.0) / d) for l in range(d)]


def log_c_lemniscate(n: int, d: int) -> float:
    """ln c_{N,d} = ln (Nd)! - N(Nd+2d+1)/2 ln d - d ln N!."""
    return float(
        _sp.gammaln(n * d + 1.0)
        - 0.5 * n * (n * d + 2.0 * d + 1.0) * math.log(d)
        - d * _sp.gammaln(n + 1.0)
    )


def log_z_ginibre(n: int) -> float:
    """ln Z^Gin_N = N ln pi + sum_{k=1}^N ln k! - N(N+1)/2 ln N."""
    return float(
        n * math.log(math.pi)
        + sum(_sp.gammaln(k + 2.0) for k in range(n))
        - 0.5 * n * (n + 1.0) * math.log(n)
    )


def lemniscate_partition(n: int, d: int, t: float) -> float:
    """ln Z^{Lem_d}_{Nd}(t) = (Ntd)^2 + ln c_{N,d} + d ln Z^Gin_N
    + sum_l ln R_{gamma_l}(t sqrt(d)), each factor a Gram determinant."""
    if d < 1 or n < 1:
        raise ValueError("requires d >= 1 and n >= 1")
    if t < 0:
        raise ValueError("requires t >= 0")
    out = (n * t * d) ** 2 + log_c_lemniscate(n, d) + d * log_z_ginibre(n)
    for g in lemniscate_gamma_exponents(d):
        out += _log_gram_det(Ginibre(n), g, t * math.sqrt(d))
    return float(out)


# ---------------------------------------------------------------------------
# generic polynomial-kernel correlator for radial weights
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _kernel_coeffs(w: RadialWeightSpec, nterms: int) -> np.ndarray:
    """ln(1/h_j) for j = 0..nterms-1 (B(x,y) = sum_j x^j y^j / h_j), read-only."""
    j = np.arange(nterms, dtype=float)
    if isinstance(w, Ginibre):
        out = (j + 1.0) * math.log(w.n) - math.log(math.pi) - _sp.gammaln(j + 1.0)
    elif isinstance(w, InducedGinibre):
        out = ((j + w.gamma1 + 1.0) * math.log(w.n) - math.log(math.pi)
               - _sp.gammaln(j + w.gamma1 + 1.0))
    elif isinstance(w, TruncatedCUE):
        kap = w.m - w.n
        out = (_sp.gammaln(j + kap + 1.0) - math.log(math.pi) - _sp.gammaln(j + 1.0)
               - _sp.gammaln(float(kap)))
    else:
        raise TypeError(f"unknown weight {w!r}")
    out.flags.writeable = False
    return out


def correlator_finiteN(w: RadialWeightSpec, charges) -> float:
    """ln E prod_i |det(A - z_i)|^{2 k_i} for a radial-weight point process,
    via the polynomial-kernel determinant
    det{B_{N+k}(x_i, conj(y)_j)}/(Delta Delta^bar) * prod h, with
    B(x, y) = sum_j x^j y^j / h_j, exact at any separation of the charges
    (nearby ones enter through Newton divided differences, see ``confluent``).

    Envelope: m >= 3 charges at one point lose digits as m and N|z|^2 grow
    (0.51 off in ln at m = 4, N = 800, |z| = 1.3); charges within
    ``confluent.CLUSTER_RADIUS`` of a cluster's first one count as coincident
    there (1.3 + 1e-10 for one 1.3 above read 1.42 off).  Measured against the
    exact dualities (Ginibre, truncated CUE at M = N + 2), they are refused
    (ValueError) unless m <= 8, 8 <= N <= 800, |z| <= 2 and N|z|^2 <= 150,
    40, 18, 10, 8, 5 for m = 3..8, where they stay within 1e-8.
    """
    pts, ks = [], []
    for z, g in zip(charges.points, charges.exponents):
        half = integer(0.5 * g)
        if half is None or half < 0:
            raise ValueError("correlator_finiteN needs nonnegative even integer exponents")
        if half > 0:
            pts.append(complex(z))
            ks.append(half)
    k = sum(ks)
    if k == 0:
        return 0.0  # empty product of characteristic polynomials
    n = w.n
    bounds = {3: 150.0, 4: 40.0, 5: 18.0, 6: 10.0, 7: 8.0, 8: 5.0}  # N|z|^2 for m charges
    for cl in _confluent._group(pts, range(len(pts)), _confluent.CLUSTER_RADIUS):
        z, m, x = cl.centre, sum(ks[i] for i in cl.members), n * abs(cl.centre) ** 2
        if m > 2 and not (8 <= n <= 800 and abs(z) <= 2.0 and x <= bounds.get(m, -1.0)):
            need = f"need N|z|^2 <= {bounds[m]:g}" if m in bounds else "are more than 8"
            raise ValueError(f"outside the correlator's envelope (8 <= N <= 800, |z| <= 2): {m} "
                             f"coincident charges at z = {z:.6g} {need}; N = {n}, N|z|^2 = {x:.4g}")
    lo = _kernel_coeffs(w, n + k)
    half_lo = 0.5 * lo
    powers = np.arange(n + k, dtype=float)

    @lru_cache(maxsize=None)
    def factor(a, size):
        # X[j, p] = binom(j, p) a^{j-p} e^{lo_j/2 - s} with s = max_j (lo_j/2 +
        # j ln|a|), so that X_a^T X_b e^{s_a + s_b} is the Taylor block of B;
        # 1/h_j and a^j over- and underflow separately for large N
        p = np.arange(size, dtype=float)
        e = powers[:, None] - p
        if a == 0:
            return np.where(e == 0, np.exp(half_lo - half_lo[0])[:, None], 0.0), half_lo[0]
        s = np.max(half_lo + powers * math.log(abs(a)))
        log_x = np.where(e >= 0, half_lo[:, None] - s + e * cmath.log(a), -np.inf)
        binom = np.cumprod(np.hstack([np.ones((len(powers), 1)), e[:, :-1] / p[1:]]), axis=1)
        return binom * np.exp(log_x), s

    def taylor(P, Q, a, b):
        # the coefficients 1/h_j are real, so X_b = conj(X_conj(b)); every y
        # centre here is the conjugate of an x centre, whose factor is cached
        xa, sa = factor(a, P)
        xb, sb = factor(b.conjugate(), Q)
        return xa.T @ xb.conj(), sa, sb

    xs, ys = [], []
    for z, kk in zip(pts, ks):
        xs.extend([z] * kk)
        ys.extend([z.conjugate()] * kk)
    total = _confluent.log_det_ratio(xs, ys, taylor) - lo[n:n + k].sum()
    # kernel terms that still over- or underflow leave a non-finite or
    # wrong-phase log; refuse it
    phase = math.remainder(total.imag, 2.0 * math.pi)
    if not math.isfinite(total.real) or abs(phase) > 1e-7:
        raise FloatingPointError(
            f"correlator is not a finite positive real (log {total:.3e})"
        )
    return float(total.real)
