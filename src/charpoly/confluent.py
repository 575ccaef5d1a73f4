"""Confluent (divided-difference) evaluation of determinant ratios
det{g(x_i, y_j)} / (Delta(x) Delta(y)) at any separation of the nodes.

Points within R = 0.05 of a cluster's first point c form one cluster.  Row i
of a cluster carries the Newton divided difference

    g[x_0..x_i] = sum_t h_t(x_0 - c, ..., x_i - c) T_{i+t}(c),

where T_p(c) = d^p g(c) / p! and h_t is the complete homogeneous symmetric
polynomial of the offsets; columns are treated the same way.  These rows are
a triangular transform of the original rows that divides out the cluster's
own Vandermonde, so only the Vandermonde over cross-cluster pairs of the
actual points is left (McCurdy, Ng and Parlett 1984; Higham, Functions of
Matrices, section 10).  The formula is exact at every separation below R,
coincident points included, so R sets only the conditioning.  The Taylor
order of each cluster doubles until the last terms of its sums fall below
rounding.  A cluster spread over more than a couple of growth lengths of g
is regrouped more tightly, because g changes across it by a factor that its
divided differences would lose to cancellation.
"""

import cmath
import math

import numpy as np

from .linalg import logdet

__all__ = ["det_ratio", "log_det_ratio"]

CLUSTER_RADIUS = 0.05
_TERM_RTOL = 1e-17
# over a cluster spread past this many growth lengths 1/rate, g changes by up
# to e^span and the divided differences lose that much; regroup at span/rate
_RATE_SPAN = 2.0


class _Cluster:
    """Points (indices) near the first one, the centre; the Taylor order of
    their divided differences; per pass, the largest term per Taylor index
    and the growth rate of g's Taylor rows."""

    def __init__(self, points, members):
        self.members, self.centre = members, points[members[0]]
        self.offsets = [points[i] - self.centre for i in members]
        self.spread = max(abs(d) for d in self.offsets)
        # coincident points take exact derivatives (order 0); otherwise start
        # at twice the order where the largest offset alone reaches rounding
        self.order = 0
        if self.spread:
            self.order = 2 * max(1, math.ceil(math.log(_TERM_RTOL) / math.log(self.spread)))

    def start(self):
        """Newton rows L[i, i + t] = h_t(d_0..d_i), t <= order, so that L @ T
        holds the divided differences g[x_0..x_i] of the Taylor rows T_p."""
        n, h = len(self.members), [1.0] + [0.0] * self.order
        self.rows = np.zeros((n, n + self.order), dtype=complex)
        for i, d in enumerate(self.offsets):
            for t in range(1, self.order + 1):
                h[t] += d * h[t - 1]  # h_t(..d_i) = h_t(..d_{i-1}) + d_i h_{t-1}(..d_i)
            self.rows[i, i:i + self.order + 1] = h
        self.terms, self.rate = np.zeros(n + self.order), 0.0

    def observe(self, taylor_rows):
        """Record the terms of rows @ taylor_rows against one partner, and the
        rate max_p (m_p / m_0)^(1/p) of the Taylor rows' largest moduli m_p."""
        m = np.abs(taylor_rows).max(axis=1)
        self.terms = np.maximum(self.terms, np.abs(self.rows).max(axis=0) * m)
        if m[0] > 0.0:
            self.rate = max(self.rate, np.max((m[1:] / m[0]) ** (1.0 / np.arange(1, len(m)))))

    def converged(self) -> bool:
        """Whether the last two terms are below rounding of the largest."""
        return self.order == 0 or self.terms[-2:].max() <= _TERM_RTOL * self.terms.max()


def _group(points, members, radius):
    """Clusters of ``members``: each joins the first cluster whose centre lies
    within ``radius``, else starts one."""
    groups = []
    for i in members:
        near = [g for g in groups if abs(points[i] - points[g[0]]) <= radius]
        if near:
            near[0].append(i)
        else:
            groups.append([i])
    return [_Cluster(points, g) for g in groups]


def _regroup(points, clusters):
    """The clusters, each one spread past _RATE_SPAN / rate regrouped there."""
    out = []
    for cl in clusters:
        tight = cl.rate * cl.spread <= _RATE_SPAN
        out.extend([cl] if tight else _group(points, cl.members, _RATE_SPAN / cl.rate))
    return out


def _matrix(shape, xcl, ycl, taylor):
    """The divided-difference matrix, rows and columns in cluster order;
    records each cluster's terms, rate and log scale."""
    for cl in xcl + ycl:
        cl.start()
    m = np.empty(shape, dtype=complex)
    i = 0
    for ca in xcl:
        j = 0
        for cb in ycl:
            k, ca.scale, cb.scale = taylor(
                ca.rows.shape[1], cb.rows.shape[1], ca.centre, cb.centre
            )
            if ca.order or cb.order:  # else both row sets are identities
                right = k @ cb.rows.T
                if ca.order:
                    ca.observe(right)
                if cb.order:
                    cb.observe((ca.rows @ k).T)
                k = ca.rows @ right
            m[i:i + len(ca.members), j:j + len(cb.members)] = k
            j += len(cb.members)
        i += len(ca.members)
    if not np.all(np.isfinite(m)):
        raise FloatingPointError("divided-difference matrix is not finite")
    return m


def det_ratio(x, y, taylor) -> complex:
    """det{g(x_i, y_j)} / (Delta(x) Delta(y)) as a plain complex number; see
    log_det_ratio for the ``taylor`` callback."""
    return cmath.exp(log_det_ratio(x, y, taylor))


def log_det_ratio(x, y, taylor) -> complex:
    """Complex log of det{g(x_i, y_j)} / (Delta(x) Delta(y)), with
    Delta(x) = prod_{i<j} (x_j - x_i), exact at any separation of the nodes.

    ``taylor(P, Q, a, b)`` returns ``(K, sa, sb)``: a P x Q array with
    K[p, q] e^{sa + sb} = d_x^p d_y^q g(a, b) / (p! q!), where the log scale
    sa depends on a only and sb on b only (zero when no scaling is needed).
    It is called once per pair of cluster centres in each pass.
    """
    x, y = [complex(t) for t in x], [complex(t) for t in y]
    xcl = _group(x, range(len(x)), CLUSTER_RADIUS)
    ycl = _group(y, range(len(y)), CLUSTER_RADIUS)
    while True:
        m = _matrix((len(x), len(y)), xcl, ycl, taylor)
        xnew, ynew = _regroup(x, xcl), _regroup(y, ycl)
        if xnew == xcl and ynew == ycl:
            grow = [cl for cl in xcl + ycl if not cl.converged()]
            if not grow:
                break
            for cl in grow:
                cl.order *= 2
        xcl, ycl = xnew, ynew
    logabs, phase = logdet(m)
    if logabs == -math.inf:
        return complex(-math.inf, 0.0)
    scale = sum(len(cl.members) * cl.scale for cl in xcl + ycl)
    return (
        complex(logabs + scale, phase)
        - _log_cross_vandermonde(x, xcl)
        - _log_cross_vandermonde(y, ycl)
    )


def _log_cross_vandermonde(points, clusters) -> complex:
    """Complex log of prod (x_b - x_a) over pairs in different clusters, a's
    cluster first."""
    return sum(
        cmath.log(points[b] - points[a])
        for c, cl in enumerate(clusters) for before in clusters[:c]
        for a in before.members for b in cl.members
    )
