"""Sampling of complex Ginibre and truncated-CUE matrices, and Monte Carlo
estimation of E prod_i |det(A - z_i)|^{gamma_i}.

Randomness comes from counter-based Philox streams keyed by (seed, chunk),
so results are bit-identical for a given seed no matter how many worker
threads evaluate the chunks.  Each chunk draws at most _BLOCK standard
complex Gaussian entries (4 MB complex) for at most _CHUNK samples: every
real part, then every imaginary part (_complex_normal).

A Ginibre sample is drawn in upper-Hessenberg form.  Householder
reflections make a complex Ginibre matrix unitarily similar to an H whose
entries are independent: N_C(0, 1/N) on and above the diagonal, and
subdiagonal H[j+1, j] = sqrt(Gamma(N - 1 - j, 1) / N) (Dumitriu and
Edelman, arXiv:math-ph/0206043, for beta = 2).  H - z has the
characteristic polynomial of the Ginibre matrix, so one sample draws
N(N+1)/2 Gaussians and N - 1 gammas, and each charge costs an O(N^2)
Hessenberg LU (_logdet_hessenberg) instead of a dense one.

A truncated-CUE sample draws only an M x N Gaussian: the Q of its thin QR
holds the first N columns of a Haar U(M) (Mezzadri, arXiv:math-ph/0609050),
in O(M N^2) work, not O(M^3).
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .linalg import logdet_batch

__all__ = [
    "Ginibre",
    "default_log_shift",
    "TruncatedCUE",
    "EnsembleSpec",
    "ChargeConfiguration",
    "MCEstimate",
    "sample_haar_unitary",
    "mc_moment",
    "worker_count",
]

_CHUNK = 4096
_BLOCK = 1 << 18  # Gaussian entries drawn per chunk at most: 4 MB complex


@dataclass(frozen=True)
class Ginibre:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("Ginibre requires n >= 1")


@dataclass(frozen=True)
class TruncatedCUE:
    m: int
    n: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("TruncatedCUE requires positive sizes")
        if self.n >= self.m:
            raise ValueError("TruncatedCUE requires n < m (proper truncation)")


EnsembleSpec = Ginibre | TruncatedCUE


@dataclass(frozen=True)
class ChargeConfiguration:
    """Charge locations z_i with real exponents gamma_i (each > -2)."""

    points: tuple
    exponents: tuple

    def __post_init__(self):
        pts = tuple(complex(z) for z in self.points)
        ex = tuple(float(g) for g in self.exponents)
        if len(pts) != len(ex):
            raise ValueError("points and exponents must have equal length")
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
    def value(self) -> float:
        return math.exp(self.log_shift) * self.mean_shifted

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

    def within(self, log_ref: float, n_sigma: float = 3.0) -> bool:
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


def _entries(spec: EnsembleSpec) -> int:
    """Complex Gaussians one sample draws: the packed upper triangle of the
    Hessenberg model for Ginibre, the M x N block for the tCUE."""
    if isinstance(spec, Ginibre):
        return spec.n * (spec.n + 1) // 2
    if isinstance(spec, TruncatedCUE):
        return spec.m * spec.n
    raise TypeError(f"unknown ensemble spec {spec!r}")


def _sample_chunk(spec: EnsembleSpec, count: int, rng: np.random.Generator):
    """count samples from one Gaussian draw.

    Ginibre: the Hessenberg model (u, b).  u is each sample's upper
    triangle packed row by row, from the draw _complex_normal makes for
    shape (count, N(N+1)/2); b the subdiagonal, from one standard_gamma draw
    of shape (count, N - 1) after it.  Both are stored with the samples on
    the last axis, (N(N+1)/2, count) and (N - 1, count), so each column step
    of _logdet_hessenberg works on contiguous rows.  TruncatedCUE: a stack
    (count, N, N), the top N x N corner of _haar_columns of one draw of
    shape (count, M, N).
    """
    n = spec.n
    if isinstance(spec, TruncatedCUE):
        return _haar_columns(_complex_normal(rng, (count, spec.m, n)))[:, :n]
    g = rng.standard_normal((2, count, _entries(spec)))
    scale = 1.0 / math.sqrt(2.0 * n)
    u = np.empty(g.shape[:0:-1], dtype=np.complex128)
    np.multiply(g[0].T, scale, out=u.real)
    np.multiply(g[1].T, scale, out=u.imag)
    shape = np.arange(n - 1, 0, -1, dtype=float)
    b = np.sqrt(rng.standard_gamma(shape, size=(count, n - 1)).T / n)
    return u, b


def _logdet_hessenberg(u: np.ndarray, b: np.ndarray, z: complex) -> np.ndarray:
    """log|det(H - z)| for each upper-Hessenberg H of a chunk, in the layout
    of _sample_chunk: u packed rows of the upper triangle (N(N+1)/2, count),
    b the real subdiagonal (N - 1, count).

    LU with partial pivoting in which only the carried row and row j + 1
    compete for pivot j, vectorised over the samples: one step per column,
    O(N^2) per sample.  The row carried to the next column is divided by
    the pivot's modulus m rather than by the pivot, which changes it by a
    unit phase only, so |det| is the product of the m.  Singular members
    read -inf, as in logdet_batch.
    """
    n1, count = b.shape
    piv = np.empty((n1 + 1, count))
    tmp = np.empty((n1, count), dtype=np.complex128)
    r = u[: n1 + 1].copy()
    r[0] -= z
    off = n1 + 1
    with np.errstate(divide="ignore"):
        for j in range(n1):
            a, c = r[0], b[j]
            m = np.maximum(c, np.abs(a), out=piv[j])
            inv = 1.0 / m
            inv[m == 0.0] = 0.0
            w = a * inv
            # row j + 1 of H - z is (c, u row j + 1 - z e_0)
            r = r[1:]
            r *= c * inv
            r -= np.multiply(u[off : off + n1 - j], w, out=tmp[: n1 - j])
            r[0] += w * z
            off += n1 - j
        np.abs(r[0], out=piv[n1])
        return np.log(piv).sum(axis=0)


def _chunk_logdets(spec: EnsembleSpec, draw, points):
    """Yield log|det(A - z)| over a chunk's samples for each z in points."""
    if isinstance(spec, Ginibre):
        for z in points:
            yield _logdet_hessenberg(*draw, z)
        return
    # the tCUE chunk is this call's own: shift its diagonal in place
    diag = np.einsum("...ii->...i", draw)
    d0 = diag.copy()
    for z in points:
        np.subtract(d0, z, out=diag)
        yield logdet_batch(draw)


def worker_count() -> int:
    """Worker cap from CHARPOLY_THREADS (default: up to 8 cores)."""
    env = os.environ.get("CHARPOLY_THREADS")
    if env:
        return max(1, int(env))
    return max(1, min(8, os.cpu_count() or 1))


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
    Gaussians one sample draws (N(N+1)/2 for Ginibre, M N for the tCUE),
    comes from its own Philox stream, and chunks are reduced in chunk order,
    independent of the worker count.  A Ginibre sample is the
    upper-Hessenberg model of the module docstring, and each charge costs
    one O(N^2) Hessenberg LU per sample.
    """
    if n_samples < 2:
        raise ValueError("mc_moment requires n_samples >= 2")
    if log_shift is None:
        log_shift = default_log_shift(spec, charges)
    if charges.m == 0:
        return MCEstimate(0.0, 1.0, 0.0, n_samples, seed)

    size = max(1, min(_CHUNK, _BLOCK // _entries(spec)))

    def run_chunk(c: int) -> tuple[float, float]:
        count = min(size, n_samples - c * size)
        draw = _sample_chunk(spec, count, _rng(seed, c))
        s = np.zeros(count)
        for g, logdet in zip(charges.exponents, _chunk_logdets(spec, draw, charges.points)):
            s += g * logdet
        vals = np.exp(s - log_shift)
        return float(vals.sum()), float((vals * vals).sum())

    n_chunks = (n_samples + size - 1) // size
    workers = min(worker_count(), n_chunks)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_chunk, range(n_chunks)))
    else:
        parts = [run_chunk(c) for c in range(n_chunks)]

    total = sum(p[0] for p in parts)
    total_sq = sum(p[1] for p in parts)
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0) * n_samples / (n_samples - 1)
    stderr = math.sqrt(var / n_samples)
    return MCEstimate(log_shift, mean, stderr, n_samples, seed)
