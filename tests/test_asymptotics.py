import cmath
import math

import numpy as np
import pytest
from scipy import special

from charpoly.asymptotics import (
    EdgeVectors,
    bulk_multi,
    bulk_two_charge,
    edge_f_det,
    edge_f_km,
    edge_multi,
    ginibre_edge,
    ginibre_exterior,
    gue_largest_log_f,
    lemniscate_asym,
    lemniscate_kappa,
    tcue_edge,
    bulk_interior,
)
from charpoly.dualities import (
    GinibreWeight,
    InducedGinibre,
    correlator_finiteN,
    ginibre_moment_exact,
    lemniscate_partition,
    log_r_gamma_zero,
    log_tcue_r_gamma_one,
    log_z_ginibre,
    tcue_moment_exact,
)
from charpoly.ensembles import ChargeConfiguration
from charpoly.gap import GUE, gap_cdf, log_gap_cdf
from charpoly.painleve import piv_log_f
from charpoly.specfun import log_barnes_g


def _ratio_gap(exact, asymp):
    return abs(math.expm1(exact - asymp))


def test_bulk_interior_values_and_trend():
    assert bulk_interior(10, 0.0, 0.3) == 0.0
    # gamma = 2 constant term: sqrt(2 pi) / G(2) = sqrt(2 pi)
    got = bulk_interior(100, 2.0, 0.0)
    want = -100.0 + 0.5 * math.log(100.0) + 0.5 * math.log(2 * math.pi)
    assert got == pytest.approx(want, rel=1e-12)
    gaps = [_ratio_gap(ginibre_moment_exact(n, 1, 0.5), bulk_interior(n, 2.0, 0.5)) for n in (50, 200, 800)]
    assert gaps[0] > gaps[1] > gaps[2] and gaps[2] < 0.1


def test_edge_f_at_boundary():
    # |z| = 1: F_k(0); k = 1 gives 1/2
    got = ginibre_edge(100, 1.0, 1.0)
    want = 0.5 * math.log(100.0) + 0.5 * math.log(2 * math.pi) + math.log(0.5)
    assert got == pytest.approx(want, rel=1e-12)


def test_edge_recovers_bulk_inside():
    # fixed |z| < 1: the gap factor is 1 - o(1), matching the interior form
    n = 400
    assert ginibre_edge(n, 1.0, 0.4) == pytest.approx(bulk_interior(n, 2.0, 0.4), abs=1e-10)


def test_edge_trend():
    gaps = [
        _ratio_gap(ginibre_moment_exact(n, 1, 1.0), ginibre_edge(n, 1.0, 1.0))
        for n in (100, 400, 1600)
    ]
    assert gaps[0] > gaps[1] > gaps[2] and gaps[2] < 0.1


def test_edge_real_k_matches_integer_route():
    x = 0.7
    assert gue_largest_log_f(2.0 + 0e-13, x) == pytest.approx(log_gap_cdf(GUE(2), x), abs=1e-9)
    # through the full evaluator (PIV solve for real k close to integer)
    a = ginibre_edge(50, 1.0, 1.0)
    b = (
        50 * 1.0 * (1.0 - 1.0)
        + 0.5 * math.log(50.0)
        + 0.5 * math.log(2 * math.pi)
        - log_barnes_g(2.0)
        + gue_largest_log_f(1.0, 0.0)
    )
    assert a == pytest.approx(b, rel=1e-12)


def test_real_k_edge_factor_reads_the_cached_piv_solution(ode_calls):
    k = 1.37
    first = gue_largest_log_f(k, 0.2)
    assert first == piv_log_f(k, 0.2)
    ode_calls.clear()
    for x in (-1.1, 0.45, 2.0):
        assert gue_largest_log_f(k, x) == piv_log_f(k, x)
    assert math.isfinite(ginibre_edge(64, k, 1.02))
    assert ode_calls == []


def test_two_charge_separation_limit():
    # large separation: the LUE factor is ~1 and the covariance term survives
    n, k1, k2 = 64, 1.0, 1
    u1, u2 = 0.0, 40.0
    got = bulk_two_charge(n, k1, k2, 0.0, u1, u2)
    z1, z2 = u1 / 8.0, u2 / 8.0
    no_f = (
        k1 * n * (abs(z1) ** 2 - 1)
        + k2 * n * (abs(z2) ** 2 - 1)
        + math.log(n)
        - 2.0 * math.log(abs(z2 - z1))
        + math.log(2 * math.pi)
    )
    assert got == pytest.approx(no_f, abs=1e-8)


def test_two_charge_k2_zero_reduces_to_interior():
    assert bulk_two_charge(100, 1.5, 0, 0.2, 0.3, 9.9) == pytest.approx(
        bulk_interior(100, 3.0, 0.2 + 0.3 / 10.0), rel=1e-12
    )


def test_two_charge_trend_vs_correlator():
    gaps = []
    for n in (8, 32, 128):
        u1, u2 = 0.0, 1.2
        ex = correlator_finiteN(
            GinibreWeight(n),
            ChargeConfiguration((u1 / math.sqrt(n), u2 / math.sqrt(n)), (2.0, 2.0)),
        )
        gaps.append(_ratio_gap(ex, bulk_two_charge(n, 1.0, 1, 0.0, u1, u2)))
    assert gaps[0] > gaps[1] > gaps[2] and gaps[2] < 0.1


def test_noninteger_bulk_trend_vs_induced_correlator():
    g1, k2, u2 = 1.5, 1, 0.8
    gaps = []
    for n in (8, 32, 128):
        z2 = u2 / math.sqrt(n)
        ex = log_r_gamma_zero(n, 2.0 * g1) + correlator_finiteN(
            InducedGinibre(n, g1), ChargeConfiguration((z2,), (2.0,))
        )
        gaps.append(_ratio_gap(ex, bulk_two_charge(n, g1, k2, 0.0, 0.0, u2)))
    assert gaps[0] > gaps[1] > gaps[2] and gaps[2] < 0.1


def test_noninteger_bulk_gap_factor_saturates():
    # u2 -> infinity: the LUE factor tends to 1
    a = bulk_two_charge(16, 2.0, 1, 0.0, 0.0, 30.0)
    b = (
        30.0**2
        - 3.0 * 16
        + 2.5 * math.log(16)
        - 4.0 * (math.log(30.0) - 0.5 * math.log(16))
        + 1.5 * math.log(2 * math.pi)
        - log_barnes_g(3.0)
    )
    assert a == pytest.approx(b, abs=1e-6)


def test_noninteger_bulk_hypothesis_guard():
    with pytest.raises(ValueError):
        bulk_two_charge(8, 0.5, 1, 0.0, 0.0, 1.0)


# -- multi-charge edge -------------------------------------------------------

def test_edge_routes_agree_smoke():
    rng = np.random.default_rng(7)
    for k in (2, 3):
        u = rng.normal(size=k) * 0.5 + 1j * rng.normal(size=k) * 0.5
        v = rng.normal(size=k) * 0.5 + 1j * rng.normal(size=k) * 0.5
        fd, fk = edge_f_det(u, v), edge_f_km(u, v)
        assert abs(fd - fk) <= 1e-7 * max(1.0, abs(fd))


def test_edge_k1_erfc_form():
    for u in (-0.8, 0.0, 0.6):
        got = complex(edge_f_det([u], [u])).real * math.sqrt(2 * math.pi)
        assert got == pytest.approx(0.5 * special.erfc(-math.sqrt(2.0) * u), abs=1e-12)


def test_kerf_taylor_block_vs_mpmath_derivatives():
    import mpmath

    from charpoly.asymptotics import _kerf_taylor

    u, v = 0.7 - 0.4j, -0.3 + 1.1j
    block = _kerf_taylor(5, 4, u, v)
    with mpmath.workdps(30):
        def kerf(x, y):
            return mpmath.exp(-((x - y) ** 2) / 2) * mpmath.erfc(-(x + y) / mpmath.sqrt(2))

        for p in range(5):
            for q in range(4):
                want = mpmath.diff(kerf, (mpmath.mpc(u), mpmath.mpc(v)), (p, q))
                want /= mpmath.factorial(p) * mpmath.factorial(q)
                assert block[p, q] == pytest.approx(complex(want), rel=1e-12, abs=1e-14)


def test_edge_degenerate_matches_separated():
    conf = edge_f_det([0.4, 0.4], [0.2, 0.7])
    sep = edge_f_det([0.4, 0.4 + 1e-6], [0.2, 0.7])
    assert conf == pytest.approx(sep, rel=1e-4)


def test_edge_multi_consistent_with_single_charge_theorem():
    # k = 1, u = v real: edge_multi equals the one-charge edge form with the
    # GUE factor evaluated at 2u instead of 2u - u^2/sqrt(N)
    n, u = 10_000, 0.5
    a = edge_multi(n, 1.0, EdgeVectors((u,), (u,)))
    b = (
        -2.0 * math.sqrt(n) * u
        + u * u
        + 0.5 * math.log(n)
        + 0.5 * math.log(2 * math.pi)
        + math.log(gap_cdf(GUE(1), 2.0 * u))
    )
    assert a == pytest.approx(b, abs=1e-10)
    # and converges to the one-charge theorem as N grows
    z = 1.0 - u / math.sqrt(n)
    assert a == pytest.approx(ginibre_edge(n, 1.0, z), abs=5e-3)


def test_edge_multi_requires_boundary():
    with pytest.raises(ValueError):
        edge_multi(10, 0.5, EdgeVectors((0.1,), (0.1,)))


def _km_tensor_reference(u, v):
    """The Karlin-McGregor quadrature summed over the full n^k tensor grid of
    per-node determinants det{p(u_i, s_aj)} det{p(conj v_i, s_aj)}."""
    u = [complex(x) for x in u]
    vb = [complex(x).conjugate() for x in v]
    k = len(u)
    L = max(abs(x.real) for x in u + vb) + 7.0
    x, w = np.polynomial.legendre.leggauss(160)
    s = 0.5 * L * (x + 1.0)
    ws = 0.5 * L * w

    def det_stack(rows):
        if k == 2:
            return np.einsum("a,b->ab", *rows) - np.einsum("b,a->ab", *rows)
        out = np.zeros((s.size,) * 3, dtype=complex)
        for perm, sgn in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                          ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
            spec = ",".join("abc"[j] for j in perm) + "->abc"
            out += sgn * np.einsum(spec, *rows)
        return out

    kern = lambda a: np.exp(-((a - s) ** 2)) / math.sqrt(math.pi)
    wprod = ws
    for _ in range(k - 1):
        wprod = np.multiply.outer(wprod, ws)
    z_half = complex(np.sum(wprod * det_stack([kern(a) for a in u])
                            * det_stack([kern(a) for a in vb])))
    vand = 1.0 + 0.0j
    for j in range(k):
        for i in range(j):
            vand *= (u[j] - u[i]) * (vb[j] - vb[i])
    return z_half / vand


@pytest.mark.parametrize("k", [2, 3])
def test_edge_km_cauchy_binet_equals_the_tensor_sum(k):
    rng = np.random.default_rng(11 + k)
    u = rng.normal(size=k) * 0.6 + 1j * rng.normal(size=k) * 0.6
    v = rng.normal(size=k) * 0.6 + 1j * rng.normal(size=k) * 0.6
    ref = _km_tensor_reference(u, v)
    assert abs(edge_f_km(u, v) - ref) <= 1e-10 * abs(ref)


def test_edge_km_size_guard():
    with pytest.raises(ValueError):
        edge_f_km([0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3, 0.4])


# -- multi-charge bulk -------------------------------------------------------

def test_bulk_multi_k1():
    n, z, u = 64, 0.3, 0.4 + 0.2j
    got = bulk_multi(n, z, EdgeVectors((u,), (u,)))
    want = (
        n * (abs(z) ** 2 - 1)
        + math.sqrt(n) * (z * u.conjugate() + z.conjugate() * u).real
        + 0.5 * math.log(n)
        + 0.5 * math.log(2 * math.pi)
        + abs(u) ** 2
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_bulk_multi_block_degenerate_equals_two_charge():
    n, z = 64, 0.3
    ev = EdgeVectors((0.1, 0.1, 0.9), (0.1, 0.1, 0.9))
    assert bulk_multi(n, z, ev) == pytest.approx(
        bulk_two_charge(n, 2.0, 1, z, 0.1, 0.9), abs=1e-10
    )


def test_bulk_multi_trend_vs_correlator():
    z, u1, u2 = 0.0, 0.3, 1.1
    gaps = []
    for n in (8, 32, 128):
        rn = math.sqrt(n)
        ex = correlator_finiteN(
            GinibreWeight(n),
            ChargeConfiguration((z + u1 / rn, z + u2 / rn), (2.0, 2.0)),
        )
        gaps.append(_ratio_gap(ex, bulk_multi(n, z, EdgeVectors((u1, u2), (u1, u2)))))
    assert gaps[0] > gaps[1] > gaps[2] and gaps[2] < 0.1


# -- truncated CUE edge ------------------------------------------------------

def test_tcue_edge_trend():
    gaps = []
    for n in (40, 160, 640):
        z = 1.0 - 1.0 / n
        ex = tcue_moment_exact(n + 2, n, 1, z, z)
        gaps.append(_ratio_gap(ex, tcue_edge(n, 2.0, 1, 1.0)))
    assert gaps[0] > gaps[1] > gaps[2] and gaps[2] < 0.1


def test_tcue_edge_morris_limit():
    # u -> 0: the expansion approaches the Morris constant N^{k^2} G-ratio
    n, kappa, k = 200, 2.0, 1
    u = 1e-5
    got = tcue_edge(n, kappa, k, u)
    morris = (
        k * k * math.log(n)
        + 2.0 * log_barnes_g(kappa + k + 1.0)
        - log_barnes_g(kappa + 1.0)
        - log_barnes_g(kappa + 2.0 * k + 1.0)
    )
    assert got == pytest.approx(morris, abs=1e-3)


def test_tcue_edge_keating_snaith_order():
    # kappa = 0, k = 1: leading order N^{k^2}
    k2_coeff = (tcue_edge(400, 0.0, 1, 1.0) - tcue_edge(100, 0.0, 1, 1.0)) / math.log(4.0)
    assert k2_coeff == pytest.approx(1.0, abs=0.05)


def test_exterior_values_and_trend():
    assert ginibre_exterior(10, 0.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        ginibre_exterior(10, 1.0, 0.9)
    gaps = [
        _ratio_gap(ginibre_moment_exact(n, 1, 1.5), ginibre_exterior(n, 1.0, 1.5))
        for n in (50, 200, 800)
    ]
    assert gaps[0] > gaps[1] > gaps[2] and gaps[2] < 0.1
    # CLT form: N gamma m1 + gamma^2/2 m2 with m1 = ln|z|, m2 = -ln(1-|z|^-2)/2
    n, k, z = 100, 1.0, 1.5
    clt = n * 2 * k * math.log(z) + (2 * k) ** 2 / 2.0 * (-0.5 * math.log(1 - z**-2))
    assert ginibre_exterior(n, k, z) == pytest.approx(clt, rel=1e-12)


# -- lemniscate regimes ------------------------------------------------------

def test_lemniscate_kappa_values():
    assert lemniscate_kappa(2) == pytest.approx(0.25, abs=1e-15)
    assert lemniscate_kappa(3) == pytest.approx(3 * 2 * 5 / 54.0, rel=1e-12)


def test_lemniscate_sub_trend():
    gaps = []
    for n in (1, 2, 3, 4):
        ex = lemniscate_partition(n, 2, 0.3) - lemniscate_partition(n, 2, 0.0)
        gaps.append(_ratio_gap(ex, lemniscate_asym(n, 2, 0.3, "sub")))
    assert gaps == sorted(gaps, reverse=True) and gaps[-1] < 0.1


def test_lemniscate_critical_trend():
    tc = 1.0 / math.sqrt(2.0)
    gaps = []
    for n in (2, 4, 8):
        ex = lemniscate_partition(n, 2, tc) - lemniscate_partition(n, 2, 0.0)
        gaps.append(_ratio_gap(ex, lemniscate_asym(n, 2, tc, "critical")))
    assert gaps[0] > gaps[1] > gaps[2] and gaps[2] < 0.1


def test_lemniscate_super_trend():
    t = 1.2
    gaps = []
    for n in (2, 4, 8):
        s = t * math.sqrt(2.0)
        ex = lemniscate_partition(n, 2, t) - 2.0 * ((n * s) ** 2 + log_z_ginibre(n))
        gaps.append(_ratio_gap(ex, lemniscate_asym(n, 2, t, "super")))
    assert gaps[0] > gaps[1] > gaps[2] and gaps[2] < 0.1


def test_lemniscate_regime_guards():
    with pytest.raises(ValueError):
        lemniscate_asym(4, 2, 0.9, "sub")
    with pytest.raises(ValueError):
        lemniscate_asym(4, 2, 0.3, "super")
    with pytest.raises(ValueError):
        lemniscate_asym(4, 2, 0.3, "nope")
