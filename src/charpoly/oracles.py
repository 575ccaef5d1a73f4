"""Brute-force oracles: tensor-product quadrature of the defining planar
eigenvalue integrals (no determinant identities anywhere), and Haar-unitary
Monte Carlo for group integrals.

The planar integrals run in polar coordinates centered at the unique charge
with a non-even exponent (if any) so the |lambda - z|^gamma cusp is absorbed
into the smooth r^{gamma+1} factor; the angular direction uses the uniform
trapezoid rule (spectrally accurate for periodic integrands) and the radial
direction Gauss-Legendre.  The N-eigenvalue Vandermonde |Delta|^2 is expanded
bilinearly, which is exact and keeps the grids tensor-product.
"""

import math

import numpy as np

from .ensembles import ChargeConfiguration, _complex_normal, _haar_columns, _map_chunks, _rng
from .specfun import integer

__all__ = [
    "planar_moment_ginibre",
    "lemniscate_partition_quadrature",
    "haar_mc_hciz",
]


def _polar_grid(center: complex, r_max: float, n_r: int, n_th: int, mu: float = 0.0):
    """(nodes, weights) of a polar quadrature grid around ``center``.

    mu = 0: plain area element r dr dtheta (Gauss-Legendre radially).
    mu < 0: the weights absorb the radial factor r^mu of a centered
    |lam - center|^mu charge through the exact substitution v = r^{mu+2}
    (so r^{mu+1} dr = dv/(mu+2)); the caller must then evaluate the
    integrand WITHOUT that centered radial factor.  This keeps full
    accuracy arbitrarily close to the integrability boundary mu = -2.
    Positive mu keeps the plain grid (the substitution would introduce a
    v^{1/(mu+2)} kink instead of removing one).
    """
    x, wx = np.polynomial.legendre.leggauss(n_r)
    if mu < 0.0:
        p = mu + 2.0
        v = 0.5 * r_max**p * (x + 1.0)
        wv = 0.5 * r_max**p * wx / p
        r = v ** (1.0 / p)
        wr_eff = wv
    else:
        r = 0.5 * r_max * (x + 1.0)
        wr_eff = 0.5 * r_max * wx * r
    th = 2.0 * math.pi * np.arange(n_th) / n_th
    wth = 2.0 * math.pi / n_th
    lam = center + np.outer(r, np.exp(1j * th)).ravel()
    wgt = (np.outer(wr_eff, np.full(n_th, wth))).ravel()
    return lam, wgt


def _charge_factor(lam: np.ndarray, charges: ChargeConfiguration, skip: int = -1):
    """prod_i |lam - z_i|^{gamma_i} on the grid, optionally skipping the
    charge whose radial factor is absorbed into the quadrature measure."""
    out = np.ones_like(lam, dtype=float)
    for i, (z, g) in enumerate(zip(charges.points, charges.exponents)):
        if i != skip:
            out *= np.abs(lam - z) ** g
    return out


def _pick_center(charges: ChargeConfiguration):
    """(center, index, exponent) of the unique non-even charge, if any."""
    rough = [
        (z, i, g)
        for i, (z, g) in enumerate(zip(charges.points, charges.exponents))
        if integer(0.5 * g) is None
    ]
    if len(rough) > 1:
        raise ValueError("at most one non-even exponent is supported")
    return rough[0] if rough else (0.0 + 0.0j, -1, 0.0)


def _pair_partition_sums(f: np.ndarray, lam: np.ndarray, wgt: np.ndarray):
    """(S0, S1, S2) with S_m = sum w f lam^{(m)}: the bilinear pieces of
    int int f(a) f(b) |a - b|^2 = 2 (S2 S0 - |S1|^2)."""
    s0 = float(np.sum(wgt * f))
    s1 = complex(np.sum(wgt * f * lam))
    s2 = float(np.sum(wgt * f * np.abs(lam) ** 2))
    return s0, s1, s2


def planar_moment_ginibre(
    n: int,
    charges: ChargeConfiguration,
    n_r: int = 160,
    n_th: int = 256,
) -> float:
    """ln E prod_i |det(G_N - z_i)|^{gamma_i} for N in {1, 2} by direct
    quadrature of the eigenvalue integral with weight e^{-N |lam|^2}."""
    if n not in (1, 2):
        raise ValueError("planar oracle supports N in {1, 2}")
    center, idx, mu = _pick_center(charges)
    if mu >= 0.0:
        idx = -1  # plain grid keeps every charge factor explicit
        mu = 0.0
    reach = max([abs(z) for z in charges.points], default=0.0)
    r_max = abs(center) + reach + math.sqrt(60.0 / n) + 1.0
    # a centered negative-exponent charge's radial factor lives in the measure
    lam, wgt = _polar_grid(center, r_max, n_r, n_th, mu=mu)
    wfun = np.exp(-n * np.abs(lam) ** 2)
    f = wfun * _charge_factor(lam, charges, skip=idx)
    # normalization on a plain area-measure grid
    lam0, wgt0 = _polar_grid(0.0 + 0.0j, math.sqrt(60.0 / n) + 1.0, n_r, n_th)
    wfun0 = np.exp(-n * np.abs(lam0) ** 2)
    if n == 1:
        return math.log(float(np.sum(wgt * f)) / float(np.sum(wgt0 * wfun0)))
    s0, s1, s2 = _pair_partition_sums(f, lam, wgt)
    t0, t1, t2 = _pair_partition_sums(wfun0, lam0, wgt0)
    num = 2.0 * (s2 * s0 - abs(s1) ** 2)
    den = 2.0 * (t2 * t0 - abs(t1) ** 2)
    return math.log(num / den)


def lemniscate_partition_quadrature(
    t: float, n_r: int = 200, n_th: int = 256
) -> float:
    """ln Z^{Lem_2}_2(t): two eigenvalues in the plane with weight
    exp(-2(|lam|^4 - t(lam^2 + conj(lam)^2))) and |lam_1-lam_2|^2, by direct
    4-dimensional tensor quadrature (bilinearly reduced)."""
    r_max = (0.5 * (abs(t) + math.sqrt(t * t + 40.0))) ** 0.5 + 1.5
    lam, wgt = _polar_grid(0.0 + 0.0j, r_max, n_r, n_th)
    expo = -2.0 * (np.abs(lam) ** 4 - 2.0 * t * np.real(lam**2))
    f = np.exp(expo)
    s0, s1, s2 = _pair_partition_sums(f, lam, wgt)
    return math.log(2.0 * (s2 * s0 - abs(s1) ** 2))


def haar_mc_hciz(u, v, n_samples: int, seed: int):
    """Monte Carlo of int_{U(k)} exp Tr(U A U^dag conj(B)) dmu with
    A = diag(u), conj(B) = diag(conj(v)); returns (mean, stderr) complex.
    Its 2048-sample chunks run on mc_moment's workers, joined in order."""
    u = np.asarray(u, dtype=complex)
    vbar = np.conj(np.asarray(v, dtype=complex))
    k = u.size
    chunk = 2048
    n_chunks = (n_samples + chunk - 1) // chunk

    def run_chunk(c: int) -> np.ndarray:
        cnt = min(chunk, n_samples - c * chunk)
        uu = _haar_columns(_complex_normal(_rng(seed, c), (cnt, k, k)))
        # Tr(U A U^dag Bbar) = sum_{a,b} u_a vbar_b |U_{b,a}|^2
        return np.exp(np.einsum("a,b,cba->c", u, vbar, np.abs(uu) ** 2))

    vals = np.concatenate(_map_chunks(run_chunk, n_chunks))
    mean = complex(vals.mean())
    err = float(vals.std(ddof=1) / math.sqrt(n_samples))
    return mean, err
