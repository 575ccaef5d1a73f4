"""Sampling of complex Ginibre and truncated-CUE matrices, and Monte Carlo
estimation of E prod_i |det(A - z_i)|^{gamma_i}.

Randomness comes from counter-based Philox streams keyed by (seed, chunk),
so results are bit-identical for a given seed no matter how many worker
threads evaluate the chunks.  Each chunk draws at most _BLOCK standard
complex Gaussian entries (4 MB complex) for at most _CHUNK samples: every
real part, then every imaginary part (_complex_normal).  A call whose
whole draw fits that budget keeps it for the next call (mc_moment).

A Ginibre sample is the Hessenberg model read through an elimination
chain.  Householder reflections make a complex Ginibre matrix unitarily
similar to an upper-Hessenberg H with independent entries: N_C(0, 1/N) on
and above the diagonal, subdiagonal sqrt(Gamma(N - 1 - j, 1) / N)
(Dumitriu and Edelman, arXiv:math-ph/0206043).  The pivoted LU of H - z
reads each column of H once, through the row it carries, so m charges
need only m jointly Gaussian entries per column (_elimination_chain): a
sample draws N m Gaussians and N - 1 gammas and costs O(N m^2).  At one
charge the chain's Cholesky factor is a real scalar (_one_charge_chain).

A truncated-CUE sample draws only an M x N Gaussian A: the Q of its thin
QR holds the first N columns of a Haar U(M) (Mezzadri,
arXiv:math-ph/0609050), so the truncation is T = X R^-1, with X the top N
rows of A and R the upper-triangular Cholesky factor of A^H A (positive
diagonal).  No QR is formed: log|det(T - z)| = log|det(X - z R)| -
sum_j log R_jj, in O(M N^2) work per sample, not O(M^3).
"""

import cmath
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .linalg import logdet_batch

__all__ = [
    "Ginibre",
    "InducedGinibre",
    "default_log_shift",
    "TruncatedCUE",
    "EnsembleSpec",
    "ChargeConfiguration",
    "MCEstimate",
    "MC_SIGMAS",
    "sample_haar_unitary",
    "mc_moment",
    "worker_count",
]

_CHUNK = 4096
_BLOCK = 1 << 18  # Gaussian entries drawn per chunk at most: 4 MB complex
_kept = {}  # key: per-chunk draws, of the latest mc_moment call within _BLOCK
MC_SIGMAS = 3.0  # the Monte Carlo gate: an estimate passes within this many standard errors


@dataclass(frozen=True)
class Ginibre:
    """N x N complex Ginibre, eigenvalue weight e^{-N |lam|^2}."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("Ginibre requires n >= 1")


@dataclass(frozen=True)
class InducedGinibre:
    """Induced Ginibre, eigenvalue weight |lam|^{2 gamma1} e^{-N |lam|^2}."""

    n: int
    gamma1: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("InducedGinibre requires n >= 1")
        if self.gamma1 < 0:
            raise ValueError("InducedGinibre requires gamma1 >= 0")


@dataclass(frozen=True)
class TruncatedCUE:
    """N x N truncation of Haar U(M), eigenvalue weight (1 - |lam|^2)^{M-N-1}."""

    m: int
    n: int

    def __post_init__(self):
        if not 1 <= self.n < self.m:
            raise ValueError("TruncatedCUE requires 1 <= n < m")


EnsembleSpec = Ginibre | TruncatedCUE  # the models mc_moment samples


@dataclass(frozen=True)
class ChargeConfiguration:
    """Finite charge locations z_i with real exponents gamma_i (each > -2)."""

    points: tuple
    exponents: tuple

    def __post_init__(self):
        pts = tuple(complex(z) for z in self.points)
        ex = tuple(float(g) for g in self.exponents)
        if len(pts) != len(ex):
            raise ValueError("points and exponents must have equal length")
        if not all(map(cmath.isfinite, pts + ex)):
            raise ValueError("points and exponents must be finite")
        if any(g <= -2.0 for g in ex):
            raise ValueError("each exponent must exceed -2 (integrability)")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "exponents", ex)

    @property
    def m(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class MCEstimate:
    """Log-shifted Monte Carlo estimate: the value is
    exp(log_shift) * mean_shifted with standard error exp(log_shift) *
    stderr_shifted."""

    log_shift: float
    mean_shifted: float
    stderr_shifted: float
    n_samples: int
    seed: int

    @property
    def log_value(self) -> float:
        return self.log_shift + math.log(self.mean_shifted)

    @property
    def ess(self) -> float:
        """Effective sample size (sum w)^2 / sum w^2 of the shifted weights
        w, from the stored mean and stderr: n / (1 + (n - 1) (stderr/mean)^2).
        It is n for equal weights and near 1 when one weight dominates."""
        if self.mean_shifted == 0.0:
            return 0.0
        n = self.n_samples
        return n / (1.0 + (n - 1) * (self.stderr_shifted / self.mean_shifted) ** 2)

    def sigmas(self, log_ref: float) -> float:
        """Distance from the estimate to exp(log_ref) in standard errors."""
        dev = abs(self.mean_shifted - math.exp(log_ref - self.log_shift))
        return dev / max(self.stderr_shifted, 1e-300)

    def within(self, log_ref: float, n_sigma: float = MC_SIGMAS) -> bool:
        """Is exp(log_ref) within n_sigma standard errors of the estimate?"""
        return self.sigmas(log_ref) <= n_sigma


def _rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, chunk]))


def _complex_normal(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Standard complex Gaussians (real and imaginary parts N(0, 1)) from one
    draw: every real part, then every imaginary part."""
    g = rng.standard_normal((2, *shape))
    a = np.empty(shape, dtype=np.complex128)
    a.real = g[0]
    a.imag = g[1]
    return a


def sample_haar_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar U(m) via QR of a standard complex Gaussian matrix, with each
    column multiplied by the phase of the matching diagonal entry of R (the
    canonical positive-diagonal normalization)."""
    return _haar_columns(_complex_normal(rng, (m, m)))


def _haar_columns(a: np.ndarray) -> np.ndarray:
    """Q of the thin QR of each complex Gaussian in a, each column multiplied
    by the phase of the matching diagonal entry of R.  Column i depends only
    on Gaussian columns 0..i, so these are the first columns of a Haar
    unitary."""
    q, r = np.linalg.qr(a)
    d = np.einsum("...ii->...i", r)
    q *= (d / np.abs(d))[..., None, :]
    return q


def _sample_chunk(spec: EnsembleSpec, count: int, rng: np.random.Generator, m: int = 1):
    """count samples from one Gaussian draw.

    Ginibre: the chain's (b, xi) for m charges, samples last: xi the
    N_C(0, 1/N) column draws (N, m, count) from _complex_normal, then b
    the subdiagonal (N - 1, count) from one standard_gamma draw.
    TruncatedCUE: (X, R, log|det R|) from one draw A of shape (count, M,
    N): X the top N rows of A, R the upper-triangular Cholesky factor of
    A^H A, and the sum of log R_jj; the truncation is T = X R^-1.
    """
    n = spec.n
    if isinstance(spec, TruncatedCUE):
        a = _complex_normal(rng, (count, spec.m, n))
        r = np.linalg.cholesky(a.conj().swapaxes(1, 2) @ a, upper=True)
        return a[:, :n], r, np.log(np.einsum("...ii->...i", r).real).sum(axis=1)
    xi = _complex_normal(rng, (n, m, count))
    xi *= 1.0 / math.sqrt(2.0 * n)
    shape = np.arange(n - 1, 0, -1, dtype=float)[:, None]
    b = np.sqrt(rng.standard_gamma(shape, size=(n - 1, count)) / n)
    return b, xi


def _elimination_chain(b: np.ndarray, xi: np.ndarray, points) -> np.ndarray:
    """log|det(H - z_c)|, shape (m, count), for the charges z_c of points:
    H is the Hessenberg model with subdiagonal b, read through xi.

    Into column j the pivoted LU of H - z_c carries a row beta_c of rows
    0..j, with coefficient -w_c on row j (w = -1 at j = 0).  Column j of H
    is fresh on and above the diagonal, so the leading entries are
    a_c = w_c z_c + X_c, X ~ N_C(0, G/N) with G_cd = <beta_c, beta_d>;
    with L L^H = G (L lower triangular, real diagonal >= 0) that is
    X = L xi_j.  The pivot is p_c = max(b_j, |a_c|); with s_c = b_j / p_c
    and w_c = a_c / p_c the next row is s_c beta_c - w_c e_{j+1}, so
    G <- diag(s) G diag(s) + w w^H, one Givens sweep on L.  |det| is the
    product of the pivots and the last |a_c|.  A zero pivot reads -inf,
    and a rotation with nothing to rotate is the identity.
    """
    n, m, count = xi.shape
    z = np.asarray(points, dtype=np.complex128)[:, None]
    chol = np.zeros((m, m, count), dtype=np.complex128)
    chol[:, 0] = 1.0
    w = np.full((m, count), -1.0 + 0.0j)
    out = np.zeros((m, count))
    with np.errstate(divide="ignore"):
        for j in range(n):
            rank = min(j + 1, m)  # columns of L that are not zero
            a = w * z
            for k in range(rank):
                a += chol[:, k] * xi[j, k]
            if j == n - 1:
                break
            piv = np.maximum(b[j], np.abs(a))
            out += np.log(piv)
            inv = 1.0 / piv
            inv[piv == 0.0] = 0.0
            w = a * inv
            s = b[j] * inv
            x = w.copy()
            for k in range(min(rank + 1, m)):
                col = chol[k:, k] * s[k:]
                d, xk = col[0].real, x[k]
                r = np.hypot(d, np.abs(xk))
                flat = r == 0.0
                inv_r = 1.0 / (r + flat)
                c, sn = (d + flat) * inv_r, xk * inv_r
                chol[k:, k] = c * col + sn.conj() * x[k:]
                x[k + 1 :] = c * x[k + 1 :] - sn * col[1:]
        out += np.log(np.abs(a))
    return out


def _one_charge_chain(b: np.ndarray, xi: np.ndarray, z: complex) -> np.ndarray:
    """_elimination_chain for one charge z, with xi of shape (N, count).

    L is then a real scalar per sample, and the Givens sweep is a hypot:
    a = w z + L xi_j, p = max(b_j, |a|), w = a / p and
    L <- hypot(L b_j / p, |w|).  Same sample path, same zero-pivot rule.
    """
    n, count = xi.shape
    chol = np.ones(count)
    w = np.full(count, -1.0 + 0.0j)
    out = np.zeros(count)
    with np.errstate(divide="ignore"):
        for j in range(n - 1):
            a = w * z
            a += chol * xi[j]
            piv = np.maximum(b[j], np.abs(a))
            out += np.log(piv)
            inv = 1.0 / piv
            inv[piv == 0.0] = 0.0
            w = a * inv
            chol = np.hypot(chol * b[j] * inv, np.abs(w))
        a = w * z
        a += chol * xi[n - 1]
        out += np.log(np.abs(a))
    return out


def _chunk_logdets(spec: EnsembleSpec, draw, points):
    """Yield log|det(A - z)| over a chunk's samples for each z in points."""
    if isinstance(spec, TruncatedCUE):
        x, r, log_det_r = draw
        for z in points:
            yield logdet_batch(x - z * r) - log_det_r
    elif len(points) == 1:
        b, xi = draw
        yield _one_charge_chain(b, xi[:, 0], points[0])
    else:
        yield from _elimination_chain(*draw, points)


def worker_count() -> int:
    """Worker cap from CHARPOLY_THREADS (default: up to 8 cores)."""
    env = os.environ.get("CHARPOLY_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"CHARPOLY_THREADS must be an integer, got {env!r}") from None
    return max(1, min(8, os.cpu_count() or 1))


def _map_chunks(fn, n_chunks: int) -> list:
    """[fn(c) for c in range(n_chunks)], on up to worker_count() threads."""
    workers = min(worker_count(), n_chunks)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, range(n_chunks)))
    return [fn(c) for c in range(n_chunks)]


def default_log_shift(spec: EnsembleSpec, charges: ChargeConfiguration) -> float:
    """Leading exponential term of the matching large-N expansion: for the
    Ginibre ensemble N gamma (|z|^2 - 1)/2 per interior charge and
    N gamma ln|z| per exterior charge; truncated-CUE moments grow only
    polynomially, so no shift."""
    if isinstance(spec, TruncatedCUE) or charges.m == 0:
        return 0.0
    n = spec.n
    total = 0.0
    for z, g in zip(charges.points, charges.exponents):
        az = abs(z)
        if az <= 1.0:
            total += 0.5 * n * g * (az * az - 1.0)
        else:
            total += n * g * math.log(az)
    return total


def mc_moment(
    spec: EnsembleSpec,
    charges: ChargeConfiguration,
    n_samples: int,
    seed: int,
    log_shift: float | None = None,
) -> MCEstimate:
    """Monte Carlo average of exp(sum_i gamma_i log|det(A - z_i)| - log_shift).

    ``log_shift`` defaults to the leading exponential term of the matching
    asymptotic expansion so the shifted samples stay O(1) at large N.
    Deterministic for a given (seed, n_samples, spec, charges): each chunk
    of min(_CHUNK, _BLOCK // entries) samples, entries being the complex
    Gaussians one sample draws (N per charge for Ginibre, M N for the
    tCUE), comes from its own Philox stream, and chunks are reduced in chunk
    order, independent of the worker count.  A call with n_samples *
    entries <= _BLOCK keeps its draws, read-only; the next call reads them
    if it has the same (spec, charges.m, n_samples, seed), else drops them.
    A Ginibre chunk is one elimination chain over all the charges, a scalar
    one at one charge; a truncated-CUE chunk is one batched Cholesky
    factorisation and one batched LU per charge (module docstring).
    """
    if not isinstance(spec, (Ginibre, TruncatedCUE)):
        raise ValueError(f"mc_moment has no sampler for {spec!r}")
    if n_samples < 2:
        raise ValueError("mc_moment requires n_samples >= 2")
    if log_shift is None:
        log_shift = default_log_shift(spec, charges)
    if charges.m == 0:
        return MCEstimate(0.0, 1.0, 0.0, n_samples, seed)

    entries = spec.n * (charges.m if isinstance(spec, Ginibre) else spec.m)
    size = max(1, min(_CHUNK, _BLOCK // entries))
    n_chunks = (n_samples + size - 1) // size
    key, keep = (spec, charges.m, n_samples, seed), n_samples * entries <= _BLOCK
    kept = _kept.pop(key, None)
    _kept.clear()
    draws = kept or [None] * n_chunks

    def run_chunk(c: int) -> tuple[float, float]:
        count = min(size, n_samples - c * size)
        draw = draws[c] if kept else _sample_chunk(spec, count, _rng(seed, c), charges.m)
        if keep:
            draws[c] = draw
        s = np.zeros(count)
        for g, logdet in zip(charges.exponents, _chunk_logdets(spec, draw, charges.points)):
            s += g * logdet
        vals = np.exp(s - log_shift)
        return float(vals.sum()), float((vals * vals).sum())

    parts = _map_chunks(run_chunk, n_chunks)
    if keep:
        for a in (a for draw in draws for a in draw):  # a later call reads them
            a.flags.writeable = False
        _kept[key] = draws

    total, total_sq = map(sum, zip(*parts))
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0) * n_samples / (n_samples - 1)
    stderr = math.sqrt(var / n_samples)
    return MCEstimate(log_shift, mean, stderr, n_samples, seed)
