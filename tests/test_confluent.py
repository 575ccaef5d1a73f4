import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charpoly.asymptotics import edge_f_det
from charpoly.confluent import det_ratio, log_det_ratio
from charpoly.dualities import GinibreWeight, correlator_finiteN, hciz_exp_taylor, hciz_ratio
from charpoly.ensembles import ChargeConfiguration


def exp_taylor(P, Q, a, b):
    """Taylor block of e^{xy} at (a, b) in the form log_det_ratio takes."""
    return hciz_exp_taylor(P, Q, a, b), 0.0, 0.0


def test_hciz_exp_taylor_matches_termwise_sum():
    a, b = 0.4 - 0.3j, -0.7 + 0.2j
    block = hciz_exp_taylor(4, 3, a, b)
    for p in range(4):
        for q in range(3):
            want = cmath.exp(a * b) * sum(
                a ** (q - r) * b ** (p - r)
                / (math.factorial(r) * math.factorial(p - r) * math.factorial(q - r))
                for r in range(min(p, q) + 1)
            )
            assert block[p, q] == pytest.approx(want, rel=1e-14, abs=1e-15)


def _direct_ratio(u, v):
    m = np.array([[cmath.exp(a * b) for b in v] for a in u])
    vand = 1.0 + 0.0j
    for j in range(len(u)):
        for i in range(j):
            vand *= (u[j] - u[i]) * (v[j] - v[i])
    return np.linalg.det(m) / vand


@given(st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_det_ratio_matches_direct_for_distinct(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 5))
    u = rng.normal(size=k) + 1j * rng.normal(size=k)
    v = rng.normal(size=k) + 1j * rng.normal(size=k)
    got = det_ratio(list(u), list(v), exp_taylor)
    want = _direct_ratio(u, v)
    assert got == pytest.approx(want, rel=1e-7)


def test_confluent_limit_vs_epsilon_separation():
    u = [0.3 + 0.2j, 0.3 + 0.2j]
    v = [0.1, 0.9]
    conf = det_ratio(u, v, exp_taylor)
    eps = 1e-6
    sep = det_ratio([u[0], u[0] + eps], v, exp_taylor)
    assert conf == pytest.approx(sep, rel=1e-5)


def test_full_confluence_k1_reduction():
    # all points merged: ratio = exp(uv) second derivative structure
    u = [0.4, 0.4]
    v = [0.7, 0.7]
    got = det_ratio(u, v, exp_taylor)
    # det{[f, f_v],[f_u, f_uv]} with f = e^{uv}) / (0!1!)^2 weights included
    f = math.exp(0.4 * 0.7)
    m = np.array([[f, 0.4 * f], [0.7 * f, (1 + 0.4 * 0.7) * f]])
    assert got == pytest.approx(np.linalg.det(m), rel=1e-12)


def test_log_det_ratio_consistent_with_value():
    u = [0.5, -0.2 + 0.1j, 0.5]
    v = [0.3, 0.8, 1.2]
    lg = log_det_ratio(u, v, exp_taylor)
    assert cmath.exp(lg) == pytest.approx(det_ratio(u, v, exp_taylor), rel=1e-10)


# -- regression against mpmath at and near coincidence -----------------------

def _log_ginibre_pairs_mp(n, points, dps=160):
    """ln E prod_i |det(G_N - z_i)|^2 as det{B_{N+k}(z_i, conj z_j)} /
    |Delta(z)|^2 * prod h in ``dps``-digit arithmetic; coincident points are
    split by 1e-40, far below double precision."""
    with mpmath.workdps(dps):
        xs = []
        for p in points:
            q = mpmath.mpc(p)
            while any(q == s for s in xs):
                q += mpmath.mpf("1e-40")
            xs.append(q)
        k = len(xs)
        inv_h = [
            mpmath.mpf(n) ** (j + 1) / (mpmath.pi * mpmath.factorial(j)) for j in range(n + k)
        ]

        def kernel(x, y):
            return mpmath.fsum(c * (x * y) ** j for j, c in enumerate(inv_h))

        mat = mpmath.matrix([[kernel(a, mpmath.conj(b)) for b in xs] for a in xs])
        vand = mpmath.mpf(1)
        for j in range(k):
            for i in range(j):
                vand *= abs(xs[j] - xs[i]) ** 2
        return float(
            mpmath.re(mpmath.log(mpmath.det(mat) / vand))
            - mpmath.fsum(mpmath.log(c) for c in inv_h[n:])
        )


def _correlator_pairs(n, points):
    return correlator_finiteN(
        GinibreWeight(n), ChargeConfiguration(tuple(points), (2.0,) * len(points))
    )


@pytest.mark.parametrize("n", [16, 32, 64])
def test_correlator_pair_at_every_separation_vs_mpmath(n):
    # coincident, nearly coincident (where a det/Vandermonde ratio cancels),
    # and either side of the cluster radius 0.05
    z = 0.7 * cmath.exp(0.4j)
    step = cmath.exp(2.1j)
    for sep in (0.0, 1e-12, 1e-9, 2e-8, 1e-7, 3e-7, 1e-4, 0.04, 0.06, 0.3):
        pts = (z, z + sep * step)
        assert _correlator_pairs(n, pts) == pytest.approx(
            _log_ginibre_pairs_mp(n, pts), abs=1e-12
        ), sep


@pytest.mark.parametrize("n", [100, 400])
@pytest.mark.parametrize("r", [0.3, 1.0, 1.3])
def test_correlator_pair_large_n_vs_mpmath(n, r):
    # outward, tangential and inward steps: along some of them the kernel
    # changes by e^{20} across a 0.049 pair
    z = r * cmath.exp(0.4j)
    for sep in (1e-7, 0.01, 0.049):
        for turn in (0.0, 0.5 * math.pi, 2.0, math.pi):
            pts = (z, z + sep * z / r * cmath.exp(1j * turn))
            assert _correlator_pairs(n, pts) == pytest.approx(
                _log_ginibre_pairs_mp(n, pts), abs=1e-10
            ), (sep, turn)


@pytest.mark.parametrize(
    "points",
    [
        (0.1, 1.3j, 1.3j, -0.9),
        (0.3 + 0.2j, 0.3 + 0.2j + 1e-9, 0.3 + 0.2j + 3e-7j),
        (0.5, 0.5 + 1e-9j, -0.4 + 0.3j, -0.4 + 0.3j + 0.02),
    ],
    ids=["coincident-pair", "triple-cluster", "two-clusters"],
)
def test_correlator_clusters_vs_mpmath(points):
    assert _correlator_pairs(64, points) == pytest.approx(
        _log_ginibre_pairs_mp(64, points), abs=1e-12
    )


_SEPARATIONS = (1e-12, 1e-10, 2e-8, 1e-6, 1e-4, 1e-2)
_HCIZ_POINTS = [
    ((0.3 + 0.1j), (0.2 - 0.4j, 0.5 + 0.2j)),
    ((-0.8 + 0.5j), (1.1 + 0.3j, 1.1 + 0.31j)),
    ((1.2 - 0.3j), (-0.7j, 0.9)),
]


def test_hciz_ratio_k2_near_coincident_vs_mpmath():
    # U(2) group integral (e^A - e^B)/(A - B), A - B = (u1 - u2)(v1 - v2)^bar
    for u0, v in _HCIZ_POINTS:
        for sep in _SEPARATIONS:
            u = (u0, u0 + sep * cmath.exp(0.7j))
            with mpmath.workdps(50):
                uu = [mpmath.mpc(t) for t in u]
                vb = [mpmath.conj(mpmath.mpc(t)) for t in v]
                ea = uu[0] * vb[0] + uu[1] * vb[1]
                eb = uu[0] * vb[1] + uu[1] * vb[0]
                want = complex((mpmath.exp(ea) - mpmath.exp(eb)) / (ea - eb))
            assert hciz_ratio(u, v) == pytest.approx(want, rel=1e-11), (u0, sep)


def test_edge_f_det_k2_near_coincident_vs_mpmath():
    for u0, v in _HCIZ_POINTS:
        for sep in _SEPARATIONS:
            u = (u0, u0 + sep * cmath.exp(0.7j))
            with mpmath.workdps(50):
                uu = [mpmath.mpc(t) for t in u]
                vb = [mpmath.conj(mpmath.mpc(t)) for t in v]
                mat = mpmath.matrix([
                    [mpmath.exp(-((a - b) ** 2) / 2) * mpmath.erfc(-(a + b) / mpmath.sqrt(2))
                     for b in vb]
                    for a in uu
                ])
                ratio = mpmath.det(mat) / ((uu[1] - uu[0]) * (vb[1] - vb[0]))
                # k!/(2^k (2 pi)^{k/2}) at k = 2
                want = complex(ratio * 2 / (4 * 2 * mpmath.pi))
            assert edge_f_det(u, v) == pytest.approx(want, rel=1e-11), (u0, sep)
