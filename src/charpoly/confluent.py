"""Confluent (divided-difference) evaluation of determinant ratios
det{g(x_i, y_j)} / (Delta(x) Delta(y)) with possibly coincident nodes.

Coincident entries (within a clustering threshold) are replaced by exact
partial derivatives: rows of a cluster of size n carry d^p/dx^p / p! for
p = 0..n-1, and the Vandermondes degenerate to products over distinct
cluster representatives.  This is the analytic limit of repeated divided
differences on columns.
"""

import cmath
import math

import numpy as np

from .linalg import logdet

__all__ = ["cluster_points", "log_confluent_vandermonde", "det_ratio", "log_det_ratio"]

CLUSTER_TOL = 1e-8


def cluster_points(points):
    """Group nearly-coincident complex points.

    Returns (reps, row_cluster, row_order): representative value per cluster,
    and for every input row its cluster index and derivative order.
    """
    reps: list[complex] = []
    row_cluster, row_order, counts = [], [], []
    for z in points:
        z = complex(z)
        for c, r in enumerate(reps):
            if abs(z - r) <= CLUSTER_TOL:
                row_cluster.append(c)
                row_order.append(counts[c])
                counts[c] += 1
                break
        else:
            reps.append(z)
            row_cluster.append(len(reps) - 1)
            row_order.append(0)
            counts.append(1)
    return np.array(reps, dtype=complex), row_cluster, row_order, counts


def log_confluent_vandermonde(reps, counts) -> complex:
    """Complex log of prod_{c<c'} (rep_{c'} - rep_c)^{n_c n_{c'}}."""
    total = 0.0 + 0.0j
    for c2 in range(len(reps)):
        for c1 in range(c2):
            total += counts[c1] * counts[c2] * cmath.log(reps[c2] - reps[c1])
    return total


def _confluent_matrix(x, y, deriv):
    xr, xc, xo, xn = cluster_points(x)
    yr, yc, yo, yn = cluster_points(y)
    n = len(x)
    m = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            m[i, j] = deriv(xo[i], yo[j], xr[xc[i]], yr[yc[j]])
    return m, (xr, xn), (yr, yn)


def det_ratio(x, y, deriv) -> complex:
    """det{d^p d^q g / p! q!} / (Delta*(x) Delta*(y)) as a plain complex
    number; ``deriv(p, q, a, b)`` must return d_x^p d_y^q g(a, b)/(p! q!)."""
    return cmath.exp(log_det_ratio(x, y, deriv))


def log_det_ratio(x, y, deriv) -> complex:
    """Complex log of det_ratio, stable for entries with a large dynamic
    range (rows are rescaled before the determinant)."""
    m, (xr, xn), (yr, yn) = _confluent_matrix(x, y, deriv)
    logabs, phase = logdet(m)
    if logabs == -math.inf:
        return complex(-math.inf, 0.0)
    return (
        complex(logabs, phase)
        - log_confluent_vandermonde(xr, xn)
        - log_confluent_vandermonde(yr, yn)
    )
