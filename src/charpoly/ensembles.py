"""Sampling of complex Ginibre and truncated-CUE matrices, and Monte Carlo
estimation of E prod_i |det(A - z_i)|^{gamma_i}.

Randomness comes from counter-based Philox streams keyed by (seed, chunk),
so results are bit-identical for a given seed no matter how many worker
threads evaluate the chunks.
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
    "sample_ginibre",
    "sample_haar_unitary",
    "sample_truncated_cue",
    "mc_moment",
    "worker_count",
]

_CHUNK = 4096


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

    def within(self, log_ref: float, n_sigma: float = 3.0) -> bool:
        """Is exp(log_ref) within n_sigma standard errors of the estimate?"""
        return abs(self.mean_shifted - math.exp(log_ref - self.log_shift)) <= (
            n_sigma * self.stderr_shifted
        )


def _rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, chunk]))


def sample_ginibre(n: int, rng: np.random.Generator) -> np.ndarray:
    """One n x n complex Ginibre matrix, E|entry|^2 = 1/n."""
    return _sample_ginibre_batch(n, 1, rng)[0]


def _sample_ginibre_batch(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    scale = 1.0 / math.sqrt(2.0 * n)
    re = rng.standard_normal((count, n, n))
    im = rng.standard_normal((count, n, n))
    return scale * (re + 1j * im)


def sample_haar_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar U(m) via QR of a standard complex Gaussian matrix, with each
    column multiplied by the phase of the matching diagonal entry of R (the
    canonical positive-diagonal normalization)."""
    return _sample_haar_batch(m, 1, rng)[0]


def _sample_haar_batch(m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((count, m, m)) + 1j * rng.standard_normal((count, m, m))
    q, r = np.linalg.qr(a)
    d = np.einsum("...ii->...i", r)
    ph = d / np.abs(d)
    return q * ph[:, None, :]


def sample_truncated_cue(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Upper-left n x n block of a Haar U(m) sample (requires n < m)."""
    if n >= m:
        raise ValueError("truncation requires n < m")
    return sample_haar_unitary(m, rng)[:n, :n]


def _sample_batch(spec: EnsembleSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(spec, Ginibre):
        return _sample_ginibre_batch(spec.n, count, rng)
    if isinstance(spec, TruncatedCUE):
        return _sample_haar_batch(spec.m, count, rng)[:, : spec.n, : spec.n]
    raise TypeError(f"unknown ensemble spec {spec!r}")


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
    """
    if n_samples < 2:
        raise ValueError("mc_moment requires n_samples >= 2")
    if log_shift is None:
        log_shift = default_log_shift(spec, charges)
    if charges.m == 0:
        return MCEstimate(0.0, 1.0, 0.0, n_samples, seed)

    pts = np.array(charges.points, dtype=np.complex128)
    gam = np.array(charges.exponents)
    n = spec.n
    eye = np.eye(n, dtype=np.complex128)

    def run_chunk(c: int) -> tuple[float, float, int]:
        lo = c * _CHUNK
        cnt = min(_CHUNK, n_samples - lo)
        a = _sample_batch(spec, cnt, _rng(seed, c))
        s = np.zeros(cnt)
        for z, g in zip(pts, gam):
            s += g * logdet_batch(a - z * eye)
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
