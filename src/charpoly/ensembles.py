"""Sampling of complex Ginibre and truncated-CUE matrices, and Monte Carlo
estimation of E prod_i |det(A - z_i)|^{gamma_i}.

Randomness comes from counter-based Philox streams keyed by (seed, chunk),
so results are bit-identical for a given seed no matter how many worker
threads evaluate the chunks.

Truncated-CUE samples QR only the first N of the M drawn Gaussian columns
(Mezzadri, arXiv:math-ph/0609050), O(M N^2) not O(M^3).  The full M x M
Gaussian is still drawn, one block at a time, so every fixed-seed estimate
stays the full-QR one; drawing only M x N would save ~0.4 s per benchmark
Monte Carlo pass.

Memory.  A chunk of count samples, each drawn as a rows x rows Gaussian
(rows = N for Ginibre, M for the truncated CUE) of which the first n columns
are kept, holds 8 * count * rows * n bytes of kept real parts plus one block
of at most _BLOCK drawn entries (1 MB complex), per worker.  The real parts
cannot be streamed: a chunk's stream holds every real part before every
imaginary part, and the ziggurat sampler takes a variable number of words
per normal, so the imaginary parts' start is known only once every real part
has been drawn.
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
_BLOCK = 1 << 16  # drawn Gaussian entries formed at a time: 1 MB complex


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

    def within(self, log_ref: float, n_sigma: float = 3.0) -> bool:
        """Is exp(log_ref) within n_sigma standard errors of the estimate?"""
        return abs(self.mean_shifted - math.exp(log_ref - self.log_shift)) <= (
            n_sigma * self.stderr_shifted
        )


def _rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, chunk]))


def sample_haar_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar U(m) via QR of a standard complex Gaussian matrix, with each
    column multiplied by the phase of the matching diagonal entry of R (the
    canonical positive-diagonal normalization)."""
    return _sample_haar_batch(m, 1, rng)[0]


def _sample_haar_batch(
    m: int, count: int, rng: np.random.Generator, n: int | None = None
) -> np.ndarray:
    """First n (default m) columns of count Haar U(m) samples.  The whole
    (count, m, m) Gaussian is drawn, so the stream does not depend on n."""
    a = np.empty((count, m, n or m), dtype=np.complex128)
    for part in (a.real, a.imag):
        part[...] = rng.standard_normal((count, m, m))[:, :, :n]
    return _haar_columns(a)


def _haar_columns(a: np.ndarray) -> np.ndarray:
    """Q of the thin QR of each complex Gaussian in a, each column multiplied
    by the phase of the matching diagonal entry of R.  Column i depends only
    on Gaussian columns 0..i, so these are the first columns of a Haar
    unitary."""
    q, r = np.linalg.qr(a)
    d = np.einsum("...ii->...i", r)
    q *= (d / np.abs(d))[:, None, :]
    return q


def _sample_blocks(spec: EnsembleSpec, count: int, rng: np.random.Generator):
    """Yield (i, a): samples i .. i + len(a) - 1 of count, in stream order,
    in blocks of at most _BLOCK drawn entries (or one sample, if larger).
    Each a is overwritten by the next block: change it, do not keep it.

    Every sample is a rows x rows standard Gaussian draw of which the first
    spec.n columns are kept; the stream is the one of a (count, rows, rows)
    draw of all real parts followed by one of all imaginary parts.  Ginibre
    scales both parts by 1/sqrt(2N) (E|entry|^2 = 1/N); a truncated-CUE
    sample is the top N x N corner of _haar_columns."""
    if isinstance(spec, Ginibre):
        rows, scale = spec.n, 1.0 / math.sqrt(2.0 * spec.n)
    elif isinstance(spec, TruncatedCUE):
        rows, scale = spec.m, 1.0  # QR needs no scale; 1.0 keeps the draw exact
    else:
        raise TypeError(f"unknown ensemble spec {spec!r}")
    n = spec.n
    size = max(1, min(count, _BLOCK // (rows * rows)))
    starts = range(0, count, size)
    draw = np.empty((size, rows, rows))
    real = np.empty((count, rows, n))
    for i in starts:
        d = draw[: min(size, count - i)]
        rng.standard_normal(out=d)
        np.multiply(d[:, :, :n], scale, out=real[i : i + len(d)])
    block = np.empty((size, rows, n), dtype=np.complex128)
    for i in starts:
        d = draw[: min(size, count - i)]
        rng.standard_normal(out=d)
        a = block[: len(d)]
        a.real = real[i : i + len(d)]
        np.multiply(d[:, :, :n], scale, out=a.imag)
        yield i, (_haar_columns(a)[:, :n] if rows > n else a)


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
    Deterministic for a given (seed, n_samples, spec, charges): samples are
    drawn in fixed-size chunks with per-chunk Philox streams and reduced in
    chunk order, independent of the worker count.

    Memory per worker: one chunk's kept real parts, 8 * count * rows * N
    bytes (count <= _CHUNK, rows = N for Ginibre and M for the truncated
    CUE), plus one block of at most _BLOCK drawn entries (1 MB complex).
    The real parts are held whole because the stream puts every real part
    before every imaginary part, and the ziggurat sampler's words per normal
    vary, so where the imaginary parts start is known only after the last
    real part is drawn.
    """
    if n_samples < 2:
        raise ValueError("mc_moment requires n_samples >= 2")
    if log_shift is None:
        log_shift = default_log_shift(spec, charges)
    if charges.m == 0:
        return MCEstimate(0.0, 1.0, 0.0, n_samples, seed)

    def run_chunk(c: int) -> tuple[float, float, int]:
        cnt = min(_CHUNK, n_samples - c * _CHUNK)
        s = np.zeros(cnt)
        for i, a in _sample_blocks(spec, cnt, _rng(seed, c)):
            # the block is this call's own: shift its diagonal in place
            diag = np.einsum("...ii->...i", a)
            d0 = diag.copy()
            for z, g in zip(charges.points, charges.exponents):
                np.subtract(d0, z, out=diag)
                s[i : i + len(a)] += g * logdet_batch(a)
        vals = np.exp(s - log_shift)
        return float(vals.sum()), float((vals * vals).sum()), cnt

    n_chunks = (n_samples + _CHUNK - 1) // _CHUNK
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
