"""Large-N evaluators for every asymptotic expansion: bulk and edge single
charge, two-charge bulk collision, multi-charge edge (error-function kernel /
non-intersecting paths) and bulk (HCIZ), truncated-CUE edge, exterior region,
and the three lemniscate regimes.

Every evaluator returns the full log of the right-hand side including the
constant term; the o(1) factors are dropped, and agreement with exact routes
is assessed via ratios along growing N.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from . import confluent as _confluent
from . import gap as _gap
from . import painleve as _painleve
from .dualities import (
    hciz_ratio,
    lemniscate_gamma_exponents,
    log_c_lemniscate,
)
from .linalg import logdet
from .specfun import erfc_complex, integer, log_barnes_g

__all__ = [
    "EdgeVectors",
    "bulk_interior",
    "gue_largest_log_f",
    "ginibre_edge",
    "bulk_two_charge",
    "edge_f_det",
    "edge_f_km",
    "edge_multi",
    "bulk_multi",
    "tcue_edge",
    "ginibre_exterior",
    "lemniscate_asym",
    "lemniscate_kappa",
]


@dataclass(frozen=True)
class EdgeVectors:
    """Microscopic offset vectors (units of 1/sqrt(N)); degeneracies allowed."""

    u: tuple
    v: tuple

    def __post_init__(self):
        u = tuple(complex(x) for x in self.u)
        v = tuple(complex(x) for x in self.v)
        if len(u) != len(v) or not u:
            raise ValueError("u and v must have equal positive length")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def k(self) -> int:
        return len(self.u)


def bulk_interior(n: int, gamma: float, z: complex) -> float:
    """ln of the interior expansion:
    N gamma (|z|^2-1)/2 + (gamma^2/8) ln N + (gamma/4) ln 2pi - ln G(1+gamma/2)."""
    az2 = abs(complex(z)) ** 2
    if gamma == 0.0:
        return 0.0
    return float(
        0.5 * n * gamma * (az2 - 1.0)
        + 0.125 * gamma * gamma * math.log(n)
        + 0.25 * gamma * math.log(2.0 * math.pi)
        - log_barnes_g(1.0 + 0.5 * gamma)
    )


def gue_largest_log_f(k: float, x: float) -> float:
    """ln F_k(x): the determinant route for integer k, the Painleve IV
    connection solve for real k; finite where F_k underflows."""
    if k == 0.0:
        return 0.0
    if (ki := integer(k)) is not None and ki >= 1:
        return _gap.clamped_log_gap_cdf(_gap.GUE(ki), x)
    return _painleve.piv_log_f(float(k), float(x))


def ginibre_edge(n: int, k: float, z: complex) -> float:
    """ln of the boundary expansion (uniform to |z| = 1 + L/sqrt(N)):
    ``bulk_interior(n, 2k, z)`` + ln F_k(sqrt(N)(1-|z|^2))."""
    x = math.sqrt(n) * (1.0 - abs(complex(z)) ** 2)
    return float(bulk_interior(n, 2.0 * k, z) + gue_largest_log_f(k, x))


def bulk_two_charge(n, k1, k2, z, u1, u2) -> float:
    """ln of the two-charge bulk collision expansion at z_i = z + u_i/sqrt(N):
    the interior expansions at z_i with 2 k_i, -2 k1 k2 ln|z_2 - z_1| and ln of
    the LUE(k2, k1 - k2) law at |u_2 - u_1|^2; k1 may be real (>= k2), k2 is
    an integer (LUE) determinant size."""
    if k2 > k1:
        k1, k2 = k2, k1
        u1, u2 = u2, u1
    rn = math.sqrt(n)
    z1, z2 = complex(z) + complex(u1) / rn, complex(z) + complex(u2) / rn
    out = bulk_interior(n, 2.0 * k1, z1) + bulk_interior(n, 2.0 * k2, z2)
    if k2 == 0:
        return out
    lue = _gap.LUE(k2, float(k1 - k2))
    sep2 = abs(complex(u2) - complex(u1)) ** 2
    return float(out - 2.0 * k1 * k2 * math.log(abs(z2 - z1))
                 + _gap.clamped_log_gap_cdf(lue, sep2))


# ---------------------------------------------------------------------------
# multi-charge edge: error-function kernel and Karlin-McGregor quadrature
# ---------------------------------------------------------------------------

def _kerf_taylor(P: int, Q: int, u: complex, v: complex) -> np.ndarray:
    """Taylor block d_u^p d_v^q K_erf(u, v) / (p! q!), p < P, q < Q, of
    K_erf = e^{-(u-v)^2/2} erfc(-(u+v)/sqrt2) = e^{-delta^2} erfc(-sigma),
    delta, sigma = (u -+ v)/sqrt2: the product of the series
      e^{-(delta+e)^2} = e^{-delta^2} sum_n (-1)^n H_n(delta) e^n / n!,
      erfc(-(sigma+e)) = erfc(-sigma) + 2/sqrt(pi) e^{-sigma^2}
                         sum_{n>=1} (-1)^{n-1} H_{n-1}(sigma) e^n / n!,
    with e = (x -+ y)/sqrt2 (H_n the physicists' Hermite polynomials)."""
    g0 = cmath.exp(-0.5 * (u - v) ** 2)
    e0 = erfc_complex(-(u + v) / math.sqrt(2.0))
    if P == Q == 1:  # a pair of single points, the common case
        return np.array([[e0 * g0]])
    n = P + Q - 1
    delta, sigma = (u - v) / math.sqrt(2.0), (u + v) / math.sqrt(2.0)
    hd, hs = [1.0, 2.0 * delta], [1.0, 2.0 * sigma]  # H_k / k!
    for k in range(1, n):
        hd.append((2.0 * delta * hd[k] - 2.0 * hd[k - 1]) / (k + 1))
        hs.append((2.0 * sigma * hs[k] - 2.0 * hs[k - 1]) / (k + 1))
    gs = np.array([g0 * (-1) ** k * hd[k] for k in range(n)])
    lead = 2.0 / math.sqrt(math.pi) * cmath.exp(-sigma * sigma)
    es = np.array([e0] + [lead * (-1) ** (k - 1) * hs[k - 1] / k for k in range(1, n)])
    i, j = np.arange(P)[:, None], np.arange(Q)
    c = _sp.binom(i + j, i) * 0.5 ** (0.5 * (i + j))  # [x^i y^j] ((x +- y)/sqrt2)^(i+j)
    a, b = es[i + j] * c, gs[i + j] * c * (-1.0) ** j
    block = np.zeros((P, Q), dtype=complex)
    for p in range(P):
        for q in range(Q):
            block[p:, q:] += a[p, q] * b[:P - p, :Q - q]
    return block


def edge_f_det(u, v) -> complex:
    """F^edge_k via the error-function-kernel determinant:
    k!/(2^k (2pi)^{k/2}) det{K_erf(u_i, conj(v_j))}/(Delta(u) Delta(conj(v))),
    exact at any separation of the points, coincident ones included (nearby
    points enter through Newton divided differences, see ``confluent``)."""
    u = [complex(x) for x in u]
    vb = [complex(x).conjugate() for x in v]
    k = len(u)
    ratio = _confluent.det_ratio(
        u, vb, lambda P, Q, a, b: (_kerf_taylor(P, Q, a, b), 0.0, 0.0)
    )
    return ratio * math.factorial(k) / (2.0**k * (2.0 * math.pi) ** (k / 2.0))


def _bm_kernel(a, s):
    # p_{1/2}(a, s) = e^{-(a-s)^2} / sqrt(pi)
    return np.exp(-((a - s) ** 2)) / math.sqrt(math.pi)


_KM_NODES = 160


def edge_f_km(u, v) -> complex:
    """F^edge_k via the Karlin-McGregor route: the k-fold integral
    Z_{1/2}(u, conj(v), R_+) divided by the Vandermondes, on a fixed
    160-node Gauss-Legendre tensor rule over [0, max|Re| + 7].

    By Cauchy-Binet (Andreief) the tensor sum of det{p(u_i, s_aj)}
    det{p(conj v_i, s_aj)} equals k! det[sum_a w_a p(u_i, s_a) p(conj v_j, s_a)],
    so it costs O(k^2 n), not O(n^k).  Requires pairwise-distinct u and
    distinct v (k <= 3)."""
    u = [complex(x) for x in u]
    vb = [complex(x).conjugate() for x in v]
    k = len(u)
    if k > 3:
        raise ValueError("Karlin-McGregor route supports k <= 3")
    L = max([abs(x.real) for x in u + vb], default=0.0) + 7.0
    x, w = np.polynomial.legendre.leggauss(_KM_NODES)
    s = 0.5 * L * (x + 1.0)
    ws = 0.5 * L * w
    pu = _bm_kernel(np.array(u)[:, None], s)
    pv = _bm_kernel(np.array(vb)[:, None], s)
    logabs, phase = logdet((pu * ws) @ pv.T)
    z_half = math.factorial(k) * cmath.exp(complex(logabs, phase))
    vand = np.prod([(u[j] - u[i]) * (vb[j] - vb[i]) for j in range(k) for i in range(j)])
    return z_half / vand


def edge_multi(n: int, z: complex, ev: EdgeVectors) -> float:
    """ln of the multi-charge edge expansion at x_j = z - u_j/(conj(z) sqrt N),
    conj(y_j) = conj(z) - conj(v_j)/(z sqrt N) with |z| = 1:
    -> exp(-sum_j (sqrt N (u_j + conj v_j) - (u_j^2 + conj(v_j)^2)/2)
    + (k^2/2) ln N) (2pi)^k / k! * F^edge_k."""
    z = complex(z)
    if abs(abs(z) - 1.0) > 1e-12:
        raise ValueError("edge expansion requires |z| = 1")
    k = ev.k
    f = edge_f_det(ev.u, ev.v)
    expo = 0.0 + 0.0j
    for uj, vj in zip(ev.u, ev.v):
        vjb = vj.conjugate()
        expo += -(math.sqrt(n) * (uj + vjb) - 0.5 * (uj * uj + vjb * vjb))
    total = (
        expo
        + 0.5 * k * k * math.log(n)
        + k * math.log(2.0 * math.pi)
        - math.lgamma(k + 1.0)
        + cmath.log(f)
    )
    if abs(math.remainder(total.imag, 2.0 * math.pi)) > 1e-7:
        raise FloatingPointError("edge correlator is not positive real here")
    return float(total.real)


def bulk_multi(n: int, z: complex, ev: EdgeVectors) -> float:
    """ln of the multi-charge bulk expansion at x_i = z + u_i/sqrt(N):
    exp(Nk(|z|^2-1) + sqrt N sum (z conj v + conj z u) + (k^2/2) ln N)
    (2pi)^{k/2} * det{e^{u conj v}}/(Delta Delta) (the G(1+k) factors cancel)."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("bulk expansion requires |z| < 1")
    k = ev.k
    ratio = hciz_ratio(ev.u, ev.v)
    s = sum(z * vj.conjugate() + z.conjugate() * uj for uj, vj in zip(ev.u, ev.v))
    total = (bulk_interior(n, 2.0 * k, z) + log_barnes_g(1.0 + k)
             + math.sqrt(n) * s + cmath.log(ratio))
    if abs(math.remainder(total.imag, 2.0 * math.pi)) > 1e-7:
        raise FloatingPointError("bulk correlator is not positive real here")
    return float(total.real)


def tcue_edge(n: int, kappa: float, k: int, u: float) -> float:
    """ln of the truncated-CUE boundary expansion at |z| = 1 - u/N:
    k^2 ln N + ln[G(k+kappa+1)/(G(k+1) G(kappa+1))] - (k^2+k kappa) ln(2u)
    + ln F_{k+kappa,k}(2u)."""
    if u <= 0:
        raise ValueError("requires u > 0")
    if kappa < 0:
        raise ValueError("requires kappa >= 0")
    log_f = _gap.clamped_log_gap_cdf(_gap.LUE(k, float(kappa)), 2.0 * u)
    return float(
        k * k * math.log(n)
        + log_barnes_g(k + kappa + 1.0)
        - log_barnes_g(k + 1.0)
        - log_barnes_g(kappa + 1.0)
        - (k * k + k * kappa) * math.log(2.0 * u)
        + log_f
    )


def ginibre_exterior(n: int, k: float, z: complex) -> float:
    """ln of the exterior expansion 2Nk ln|z| - k^2 ln(1 - |z|^{-2}), |z| > 1."""
    az = abs(complex(z))
    if az <= 1.0:
        raise ValueError("exterior expansion requires |z| > 1")
    if k == 0.0:
        return 0.0
    return float(2.0 * n * k * math.log(az) - k * k * math.log1p(-az ** (-2.0)))


def lemniscate_kappa(d: int) -> float:
    """kappa_d = (1/4) sum_l gamma_l^2 = d(d-1)(2d-1)/(6 d^2)."""
    return d * (d - 1.0) * (2.0 * d - 1.0) / (6.0 * d * d)


def lemniscate_asym(n: int, d: int, t: float, regime: str) -> float:
    """Asymptotic lemniscate ratios (t_c = 1/sqrt(d)):

    sub:      ln[Z_{Nd}(t)/Z_{Nd}(0)] ~ (Ntd)^2 - N t^2 d(d-1)/2,  t < t_c
    critical: the same plus sum_l ln F_{gamma_l/2}(2 tau) with
              tau = sqrt(N)(1 - t/t_c)  (conjectural constant term)
    super:    ln[Z_{Nd}(t)/(Z^{Lem_1}_N(t sqrt d))^d]
              ~ ln c_{N,d} - N(d-1) ln(t/t_c) - kappa_d ln(1-(t_c/t)^2), t > t_c
    """
    tc = 1.0 / math.sqrt(d)
    if regime == "sub":
        if not 0 < t < tc:
            raise ValueError("sub-critical regime needs 0 < t < t_c")
        return (n * t * d) ** 2 - n * t * t * d * (d - 1.0) / 2.0
    if regime == "critical":
        tau = math.sqrt(n) * (1.0 - t / tc)
        out = (n * t * d) ** 2 - n * t * t * d * (d - 1.0) / 2.0
        for g in lemniscate_gamma_exponents(d):
            out += gue_largest_log_f(0.5 * g, 2.0 * tau)
        return float(out)
    if regime == "super":
        if t <= tc:
            raise ValueError("super-critical regime needs t > t_c")
        return float(
            log_c_lemniscate(n, d)
            - n * (d - 1.0) * math.log(t / tc)
            - lemniscate_kappa(d) * math.log1p(-((tc / t) ** 2))
        )
    raise ValueError(f"unknown regime {regime!r}")
