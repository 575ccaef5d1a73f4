"""Exact finite-N representations of characteristic-polynomial moments:
LUE/JUE dualities, Toeplitz determinants with analytic Fourier coefficients,
the Painleve V transport route, the HCIZ determinant ratio, the lemniscate
partition function, and the confluent polynomial-kernel correlator.

All moments are returned as natural logs; the quantities grow like
exp(N k |z|^2) and would overflow otherwise.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate as _integrate
from scipy import special as _sp

from . import confluent as _confluent
from . import gap as _gap
from . import painleve as _painleve
from .linalg import logdet

__all__ = [
    "GinibreWeight",
    "InducedGinibre",
    "TruncatedCUEWeight",
    "RadialWeightSpec",
    "log_r_gamma_zero",
    "log_tcue_r_gamma_zero",
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


@dataclass(frozen=True)
class GinibreWeight:
    n: int


@dataclass(frozen=True)
class InducedGinibre:
    n: int
    gamma1: float

    def __post_init__(self):
        if self.gamma1 < 0:
            raise ValueError("InducedGinibre requires gamma1 >= 0")


@dataclass(frozen=True)
class TruncatedCUEWeight:
    m: int
    n: int

    def __post_init__(self):
        if self.n >= self.m:
            raise ValueError("TruncatedCUEWeight requires n < m")


RadialWeightSpec = GinibreWeight | InducedGinibre | TruncatedCUEWeight


# ---------------------------------------------------------------------------
# closed-form constants
# ---------------------------------------------------------------------------

def log_r_gamma_zero(n: int, gamma: float) -> float:
    """ln E|det G_N|^gamma = -gamma N/2 ln N + sum ln[G(g/2+j+1)/G(j+1)]."""
    return float(
        -0.5 * gamma * n * math.log(n)
        + sum(_sp.gammaln(0.5 * gamma + j + 1) - _sp.gammaln(j + 1.0) for j in range(n))
    )


def log_tcue_r_gamma_zero(m: int, n: int, gamma: float) -> float:
    """ln E|det T|^gamma for the N x N truncation of Haar U(M)."""
    kap = m - n
    return float(
        sum(
            _sp.gammaln(0.5 * gamma + j + 1)
            + _sp.gammaln(j + kap + 1.0)
            - _sp.gammaln(j + 1.0)
            - _sp.gammaln(0.5 * gamma + j + kap + 1)
            for j in range(n)
        )
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
    """ln C_{M,N,k} = ln E|det T|^{2k} as the finite Gamma product."""
    return float(
        sum(
            _sp.gammaln(m - n + 1.0 + j)
            + _sp.gammaln(n + 1.0 + j)
            - _sp.gammaln(m + 1.0 + j)
            - _sp.gammaln(1.0 + j)
            for j in range(k)
        )
    )


# ---------------------------------------------------------------------------
# exact LUE-duality route (integer k)
# ---------------------------------------------------------------------------

def ginibre_moment_exact(n: int, k: int, z: complex) -> float:
    """ln E|det(G_N - z)|^{2k} via the smallest-eigenvalue LUE duality:
    N^{-Nk} e^{Nk|z|^2} prod_j Gamma(j+N)/Gamma(j) * P(lambda_min > N|z|^2).
    """
    if k < 1:
        raise ValueError("ginibre_moment_exact requires k >= 1")
    az2 = abs(complex(z)) ** 2
    return float(
        -n * k * math.log(n)
        + n * k * az2
        + sum(_sp.gammaln(j + n) - _sp.gammaln(j) for j in range(1, k + 1))
        + _gap.log_lue_tail(k, float(n), n * az2)
    )


# ---------------------------------------------------------------------------
# Toeplitz routes
# ---------------------------------------------------------------------------

def _kummer_positive(a: float, b: float, w: float, rtol: float = 1e-16) -> float:
    """1F1(a; b; w) for a, b, w > 0 by direct summation (all terms positive)."""
    term, total = 1.0, 1.0
    j = 0
    while True:
        term *= (a + j) * w / ((b + j) * (j + 1.0))
        total += term
        j += 1
        if term <= rtol * total:
            return total
        if j > 1_000_000:
            raise FloatingPointError("Kummer series did not converge")


def _ginibre_symbol_coeff(m: int, gamma: float, w: float) -> float:
    """Fourier coefficient of (1 + conj(lam))^{gamma/2} e^{w lam}.

    The raw binomial convolution sum_j binom(g, j) w^{m+j}/(m+j)! alternates
    and cancels down from e^w-sized terms, so it is evaluated through the
    Kummer transformation instead, leaving series with positive terms only:
      m >= 0: e^{-w} w^m/m! * 1F1(m+1+g; m+1; w)
      m <  0: binom(g, -m) e^{-w} * 1F1(g+1; 1-m; w)
    (exact Laurent coefficients; no quadrature against the theta = pi
    endpoint singularity is needed and gamma in (-2, 0) is fully accurate).
    """
    g = 0.5 * gamma
    if w == 0.0:
        return float(_sp.binom(g, -m)) if m <= 0 else 0.0
    if w > 400.0:
        raise ValueError("symbol coefficients support N|z|^2 <= 400")
    if m >= 0:
        lead = math.exp(m * math.log(w) - _sp.gammaln(m + 1.0) - w)
        return lead * _kummer_positive(m + 1.0 + g, m + 1.0, w)
    q = -m
    return float(
        _sp.binom(g, q) * math.exp(-w) * _kummer_positive(g + 1.0, q + 1.0, w)
    )


def _tcue_symbol_coeff(m: int, gamma: float, kappa: float, rho: float) -> float:
    """Fourier coefficient of (1 + conj(lam))^g (1 + rho lam)^s, g = gamma/2,
    s = kappa + gamma/2, i.e. sum_j binom(g, j) binom(s, m+j) rho^{m+j}, in
    closed form:
      m >= 0: binom(s, m) rho^m 2F1(-g, m-s; m+1; rho)
      m <  0: binom(g, -m) 2F1(-m-g, -s; 1-m; rho)
    At rho = 1 the series converge by Gauss's theorem, c - a - b = 1 + g + s.
    """
    g = 0.5 * gamma
    s = kappa + g
    if m >= 0:
        return float(_sp.binom(s, m) * rho**m * _sp.hyp2f1(-g, m - s, m + 1.0, rho))
    q = -m
    return float(_sp.binom(g, q) * _sp.hyp2f1(q - g, -s, q + 1.0, rho))


_TOEPLITZ_MAX_N = 32


def _log_toeplitz_det(coeff_fn, n: int) -> float:
    if n > _TOEPLITZ_MAX_N:
        # the determinant cancels ~exponentially in N against entry scales;
        # beyond this order double precision returns noise
        raise ValueError(
            f"Toeplitz route supports N <= {_TOEPLITZ_MAX_N} in double precision"
        )
    c = {m: coeff_fn(m) for m in range(-(n - 1), n)}
    t = np.array([[c[i - j] for j in range(n)] for i in range(n)])
    logabs, phase = logdet(t)
    if phase != 0.0 or logabs == -math.inf:
        raise FloatingPointError("Toeplitz determinant lost positivity")
    return logabs


def ginibre_moment_toeplitz(n: int, gamma: float, z: complex) -> float:
    """ln E|det(G_N - z)|^gamma via the N x N Toeplitz determinant with
    symbol (1+conj(lam))^{gamma/2} exp(N|z|^2 lam), valid for gamma > -2."""
    if gamma <= -2:
        raise ValueError("requires gamma > -2")
    if gamma == 0.0:
        return 0.0
    w = n * abs(complex(z)) ** 2
    return log_r_gamma_zero(n, gamma) + _log_toeplitz_det(
        lambda m: _ginibre_symbol_coeff(m, gamma, w), n
    )


def tcue_moment_toeplitz(m: int, n: int, gamma: float, z: complex) -> float:
    """ln E|det(T - z)|^gamma via the Toeplitz determinant with symbol
    (1+conj(lam))^{gamma/2} (1+|z|^2 lam)^{kappa+gamma/2}, |z| <= 1."""
    if gamma <= -2:
        raise ValueError("requires gamma > -2")
    if n >= m:
        raise ValueError("requires n < m")
    rho = abs(complex(z)) ** 2
    if rho > 1.0 + 1e-12:
        raise ValueError("tcue Toeplitz route requires |z| <= 1")
    if gamma == 0.0:
        return 0.0
    kap = m - n
    return log_tcue_r_gamma_zero(m, n, gamma) + _log_toeplitz_det(
        lambda mm: _tcue_symbol_coeff(mm, gamma, float(kap), min(rho, 1.0)), n
    )


# ---------------------------------------------------------------------------
# Painleve V route
# ---------------------------------------------------------------------------

def ginibre_moment_pv(n: int, gamma: float, z: complex, tol: float = 1e-7) -> float:
    """ln E|det(G_N - z)|^gamma through the sigma-Painleve-V representation
    ln R(0) + N|z|^2 gamma/2 + int_0^{N|z|^2} sigma(t)/t dt.

    Integer gamma/2 seeds the solve from the exact smallest-eigenvalue tail;
    non-integer gamma seeds it by finite differences on the Toeplitz route at
    a reference point (the transport to the target is pure ODE work).
    """
    if gamma <= -2:
        raise ValueError("requires gamma > -2")
    if gamma == 0.0:
        return 0.0
    x = n * abs(complex(z)) ** 2
    base = log_r_gamma_zero(n, gamma) + 0.5 * gamma * x
    if x == 0.0:
        return base
    fam = _painleve.PV(0.5 * gamma, float(n))
    half_k = 0.5 * gamma
    t_ref = max(0.75, 0.5 * x)
    if abs(half_k - round(half_k)) < 1e-12 and round(half_k) >= 1:
        init = _painleve.init_from_gap(fam, t_ref, mode="smallest_tail")
    else:
        def psi(t):
            return (
                ginibre_moment_toeplitz(n, gamma, math.sqrt(t / n))
                - log_r_gamma_zero(n, gamma)
                - 0.5 * gamma * t
            )

        h = 4e-3 * max(1.0, t_ref)
        p0, p1, p2, p3 = _painleve.log_derivatives(psi, t_ref, h)
        init = _painleve.SigmaInit(
            t_ref, t_ref * p1, p1 + t_ref * p2, 2 * p2 + t_ref * p3, log_f0=p0
        )
    lo = min(x, t_ref)
    hi = max(x, t_ref)
    pad = 1e-3 * lo
    sol = _painleve.solve_span(fam, init, lo - pad, hi + pad, tol=tol)
    return base + math.log(_painleve.F_from_sigma(fam, sol, x))


# ---------------------------------------------------------------------------
# truncated CUE exact (Andreief) route
# ---------------------------------------------------------------------------

def _quad_complex(f, a, b, **kw):
    re = _integrate.quad(lambda t: f(t).real, a, b, **kw)[0]
    im = _integrate.quad(lambda t: f(t).imag, a, b, **kw)[0]
    return complex(re, im)


def tcue_moment_exact(
    m: int,
    n: int,
    k: int,
    x: complex,
    y: complex,
    check_factored: bool = True,
) -> float:
    """ln E[det(T-x)^k det(T^dagger - y)^k] as the k x k Andreief determinant
    of moments int_0^1 t^{kappa+i+j} (1+(xy-1)t)^N dt over C^JUE_{kappa+N,0}.

    For x = conj(y) with |x| < 1 the JUE-factored form
    C_{M,N,k} (1-|z|^2)^{-k kappa - k^2} P(lambda_max^JUE < 1-|z|^2)
    is evaluated as well and agreement is asserted to 1e-10.
    """
    if n >= m:
        raise ValueError("requires n < m")
    if k < 1:
        raise ValueError("requires k >= 1")
    kap = m - n
    xy = complex(x) * complex(y)

    def entry(i, j):
        f = lambda t: t ** (kap + i + j) * (1.0 + (xy - 1.0) * t) ** n
        if abs(xy.imag) < 1e-300:
            return complex(
                _integrate.quad(
                    lambda t: f(t).real, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=400
                )[0]
            )
        return _quad_complex(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=400)

    mat = np.array([[entry(i, j) for j in range(k)] for i in range(k)])
    logabs, phase = logdet(mat)
    if abs(phase) > 1e-8:
        raise FloatingPointError(
            f"tcue moment is not positive real (phase {phase:.2e}); "
            "only x = conj(y)-type configurations are supported in log form"
        )
    out = float(
        _sp.gammaln(k + 1)
        + logabs
        - _gap.log_norm_constant(_gap.JUE(k, kap + n, 0.0))
    )
    z2 = (complex(x) * complex(y).conjugate()).real
    if check_factored and abs(complex(x) - complex(y).conjugate()) < 1e-14 and z2 < 1.0:
        factored = tcue_moment_factored(m, n, k, math.sqrt(max(z2, 0.0)))
        if abs(factored - out) > 1e-10 * max(1.0, abs(out)):
            raise FloatingPointError(
                f"integral ({out}) and JUE-factored ({factored}) routes disagree"
            )
    return out


def tcue_moment_factored(m: int, n: int, k: int, absz: float) -> float:
    """The JUE-factored form of ln E|det(T-z)|^{2k} for |z| < 1."""
    if not 0.0 <= absz < 1.0:
        raise ValueError("the JUE-factored route requires |z| < 1")
    kap = m - n
    u = 1.0 - absz * absz
    return float(
        log_c_mnk(m, n, k)
        - (k * kap + k * k) * math.log(u)
        + _gap.log_gap_cdf(_gap.JUE(k, float(kap), float(n)), u)
    )


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
    + sum_l ln R_{gamma_l}(t sqrt(d)), each factor via the Toeplitz route."""
    if d < 1 or n < 1:
        raise ValueError("requires d >= 1 and n >= 1")
    if t < 0:
        raise ValueError("requires t >= 0")
    out = (n * t * d) ** 2 + log_c_lemniscate(n, d) + d * log_z_ginibre(n)
    for g in lemniscate_gamma_exponents(d):
        if g != 0.0:
            out += ginibre_moment_toeplitz(n, g, t * math.sqrt(d))
    return float(out)


# ---------------------------------------------------------------------------
# generic polynomial-kernel correlator for radial weights
# ---------------------------------------------------------------------------

def _kernel_coeffs(w: RadialWeightSpec, nterms: int) -> np.ndarray:
    """ln(1/h_j) for j = 0..nterms-1 (B(x,y) = sum_j x^j y^j / h_j)."""
    j = np.arange(nterms, dtype=float)
    if isinstance(w, GinibreWeight):
        return (j + 1.0) * math.log(w.n) - math.log(math.pi) - _sp.gammaln(j + 1.0)
    if isinstance(w, InducedGinibre):
        return (
            (j + w.gamma1 + 1.0) * math.log(w.n)
            - math.log(math.pi)
            - _sp.gammaln(j + w.gamma1 + 1.0)
        )
    if isinstance(w, TruncatedCUEWeight):
        kap = w.m - w.n
        return (
            _sp.gammaln(j + kap + 1.0)
            - math.log(math.pi)
            - _sp.gammaln(j + 1.0)
            - _sp.gammaln(float(kap))
        )
    raise TypeError(f"unknown weight {w!r}")


def correlator_finiteN(w: RadialWeightSpec, charges) -> float:
    """ln E prod_i |det(A - z_i)|^{2 k_i} for a radial-weight point process,
    via the polynomial-kernel determinant
    det{B_{N+k}(x_i, conj(y)_j)}/(Delta Delta^bar) * prod h, with
    B(x, y) = sum_j x^j y^j / h_j, exact at any separation of the charges
    (nearby ones enter through Newton divided differences, see ``confluent``).
    """
    pts, ks = [], []
    for z, g in zip(charges.points, charges.exponents):
        half = 0.5 * g
        if half < 0 or abs(half - round(half)) > 1e-12:
            raise ValueError("correlator_finiteN needs nonnegative even integer exponents")
        if round(half) > 0:
            pts.append(complex(z))
            ks.append(int(round(half)))
    k = sum(ks)
    if k == 0:
        return 0.0  # empty product of characteristic polynomials
    n = w.n
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
