"""Dense complex matrix primitives: the row-scaled log-determinant shared by
the determinant routes and its batched Monte Carlo form."""

import numpy as np

__all__ = ["logdet", "logdet_batch"]


def logdet(a: np.ndarray) -> tuple[float, float]:
    """(log|det A|, arg det A) with the phase in (-pi, pi].

    Each row is divided by its largest modulus (a zero row keeps scale 1)
    and the scales are added back in log space, so entries with a large
    dynamic range keep their relative accuracy.  The input dtype is kept:
    a real matrix takes a real LU and reports phase 0 or pi.  Singular
    matrices report log-modulus -inf and phase 0.  Backed by LU with
    partial pivoting (LAPACK via numpy.linalg.slogdet).
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"logdet expects a square matrix, got shape {a.shape}")
    scale = np.max(np.abs(a), axis=1, initial=0.0)
    scale[scale == 0.0] = 1.0
    sign, logmod = np.linalg.slogdet(a / scale[:, None])
    if logmod == -np.inf or sign == 0:
        return -np.inf, 0.0
    phase = float(np.angle(sign))
    if phase <= -np.pi:
        phase = np.pi
    return float(logmod + np.sum(np.log(scale))), phase


def logdet_batch(a: np.ndarray) -> np.ndarray:
    """log|det| over a stack of square matrices (shape (..., n, n)).

    -inf entries mark singular members; used by the Monte Carlo estimators.
    """
    a = np.asarray(a, dtype=np.complex128)
    sign, logmod = np.linalg.slogdet(a)
    return np.where(sign == 0, -np.inf, logmod)

