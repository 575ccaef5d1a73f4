import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from charpoly import dualities
from charpoly.asymptotics import tcue_edge
from charpoly.dualities import (
    GinibreWeight,
    InducedGinibre,
    correlator_finiteN,
    ginibre_moment_exact,
    ginibre_moment_pv,
    ginibre_moment_toeplitz,
    hciz_ratio,
    lemniscate_gamma_exponents,
    lemniscate_partition,
    log_c_lemniscate,
    log_c_mnk,
    log_r_gamma_zero,
    log_tcue_r_gamma_one,
    log_z_ginibre,
    tcue_moment_exact,
    tcue_moment_toeplitz,
)
from charpoly.ensembles import ChargeConfiguration, Ginibre, TruncatedCUE
from charpoly.oracles import (
    haar_mc_hciz,
    lemniscate_partition_quadrature,
    planar_moment_ginibre,
)


# -- exact LUE-duality route -------------------------------------------------

def test_r2k_at_zero_closed_form():
    # R_2(0) = N^{-N} N!
    for n in (1, 2, 5):
        want = -n * math.log(n) + math.lgamma(n + 1)
        assert ginibre_moment_exact(n, 1, 0.0) == pytest.approx(want, abs=1e-12)
    assert ginibre_moment_exact(1, 1, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_n1_moment_is_one_plus_z2():
    for z in (0.0, 0.5, 1.0 + 0.5j):
        want = math.log(1.0 + abs(z) ** 2)
        assert ginibre_moment_exact(1, 1, z) == pytest.approx(want, rel=1e-12)


def test_n2_direct_expectation():
    # E|det(G_2 - z)|^2 = (1/2 + |z|^2)^2 + 1/4 from independent entries
    for z in (0.0, 0.5, 0.3 + 0.4j):
        want = math.log((0.5 + abs(z) ** 2) ** 2 + 0.25)
        assert ginibre_moment_exact(2, 1, z) == pytest.approx(want, rel=1e-12)


def test_exact_vs_planar_oracle():
    got = ginibre_moment_exact(2, 1, 0.5)
    oracle = planar_moment_ginibre(2, ChargeConfiguration((0.5,), (2.0,)))
    assert abs(math.expm1(got - oracle)) < 1e-6


# -- Toeplitz route ----------------------------------------------------------

def test_toeplitz_equals_exact_for_even_gamma():
    for n, k, z in ((4, 1, 0.3), (6, 2, 0.5), (8, 1, 1.0), (8, 2, 0.9)):
        assert ginibre_moment_toeplitz(n, 2.0 * k, z) == pytest.approx(
            ginibre_moment_exact(n, k, z), abs=1e-10
        )


def test_toeplitz_gamma_zero():
    assert ginibre_moment_toeplitz(5, 0.0, 0.7) == 0.0


def test_toeplitz_noninteger_vs_oracle():
    got = ginibre_moment_toeplitz(2, 1.3, 0.6)
    oracle = planar_moment_ginibre(2, ChargeConfiguration((0.6,), (1.3,)))
    assert abs(math.expm1(got - oracle)) < 1e-4


def test_toeplitz_negative_gamma_vs_oracle():
    # includes the lemniscate exponent range, down to near the gamma = -2
    # integrability boundary (the oracle absorbs the cusp into its measure)
    for g in (-0.9, -4.0 / 3.0, -1.9):
        got = ginibre_moment_toeplitz(2, g, 0.5)
        oracle = planar_moment_ginibre(2, ChargeConfiguration((0.5,), (g,)))
        assert abs(math.expm1(got - oracle)) < 1e-9


def test_rotational_invariance():
    for route in (
        lambda z: ginibre_moment_exact(5, 1, z),
        lambda z: ginibre_moment_toeplitz(5, 1.7, z),
    ):
        base = route(0.5)
        for arg in (math.pi / 3.0, 1.7):
            assert route(0.5 * cmath.exp(1j * arg)) == pytest.approx(base, abs=1e-12)


# -- Gram route: accuracy and envelope ---------------------------------------

def test_gram_at_formerly_broken_toeplitz_point():
    # the Toeplitz-symbol route read 0.181 off in log here
    assert ginibre_moment_toeplitz(32, 2.0, 0.8) == pytest.approx(
        ginibre_moment_exact(32, 1, 0.8), abs=1e-9
    )


@pytest.mark.parametrize("n", [64, 200, 800])
def test_gram_large_n_k1_and_k2(n):
    for r in (0.0, 0.3, 0.7, 1.0, 1.2, 1.4):
        z = r * cmath.exp(0.7j)
        assert ginibre_moment_toeplitz(n, 2.0, z) == pytest.approx(
            ginibre_moment_exact(n, 1, z), abs=1e-9
        )
        assert ginibre_moment_toeplitz(n, 4.0, z) == pytest.approx(
            correlator_finiteN(GinibreWeight(n), ChargeConfiguration((z,), (4.0,))), abs=1e-9
        )


def _toeplitz_80_digits(n, gamma, absz):
    """ln E|det(G_N - z)|^gamma as the N x N Toeplitz determinant of the
    symbol (1 + conj(lam))^{gamma/2} e^{N|z|^2 lam}, whose Laurent
    coefficients are Kummer functions, in 80-digit arithmetic."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(80):
        g = mp.mpf(gamma) / 2
        w = n * mp.mpf(absz) ** 2

        def coeff(m):
            if m >= 0:
                return mp.exp(-w) * w**m / mp.factorial(m) * mp.hyp1f1(m + 1 + g, m + 1, w)
            return mp.binomial(g, -m) * mp.exp(-w) * mp.hyp1f1(g + 1, 1 - m, w)

        c = {m: coeff(m) for m in range(1 - n, n)}
        det = mp.det(mp.matrix([[c[i - j] for j in range(n)] for i in range(n)]))
        pref = -g * n * mp.log(n) + mp.fsum(
            mp.loggamma(g + j + 1) - mp.loggamma(j + 1) for j in range(n)
        )
        return float(pref + mp.log(det))


@pytest.mark.parametrize(
    "gamma",
    # the last three sit next to integers, where the recurrence and the
    # connection formulas lose 1/distance unless handled apart
    [-1.9, -4.0 / 3.0, -1.0, -0.5, 1.3, 3.1, -1.0015, 2.0 + 1e-6, 3.0 - 1e-8],
)
def test_gram_non_even_gamma_vs_80_digit_toeplitz(gamma):
    for n in (2, 8, 16):
        for r in (0.3, 1.0, 1.4):
            assert ginibre_moment_toeplitz(n, gamma, r) == pytest.approx(
                _toeplitz_80_digits(n, gamma, r), abs=1e-9
            )


def test_gram_refuses_outside_its_envelope():
    with pytest.raises(ValueError, match="N <= 64"):
        ginibre_moment_toeplitz(65, 1.3, 0.5)
    with pytest.raises(ValueError, match="N < 400"):
        tcue_moment_toeplitz(402, 400, 2.0, 1.0)
    with pytest.raises(ValueError, match="gamma >= -1.95"):
        ginibre_moment_toeplitz(4, -1.99, 0.5)
    with pytest.raises(ValueError, match=r"\|gamma \+ 1\| = 0 or >= 1e-3"):
        ginibre_moment_toeplitz(4, -1.0005, 0.5)


_GRAM_CLAUSES = ("gamma >= -1.95", "|gamma + 1| = 0 or >= 1e-3", "N <= 64 for non-even gamma",
                 "tCUE N < 400", "N <= 2^(8 - gamma/2)")


@pytest.mark.parametrize("model, gamma, z, clause", [
    (Ginibre(4), -1.99, 0.5, 0), (Ginibre(4), -1.0005, 0.5, 1), (Ginibre(100), 1.3, 0.45, 2),
    (TruncatedCUE(402, 400), 2.0, 1.0, 3), (Ginibre(200), 10.0, 0.81, 4),
])
def test_gram_refusal_names_only_the_clause_that_failed(model, gamma, z, clause):
    with pytest.raises(ValueError, match="envelope") as info:
        dualities._log_gram_det(model, gamma, z)
    named = [c for c in _GRAM_CLAUSES if c in str(info.value)]
    assert named == [_GRAM_CLAUSES[clause]]


def test_gram_route_reuses_its_cached_rule_and_coefficients():
    first = ginibre_moment_toeplitz(32, 2.0, 0.3)
    ginibre_moment_toeplitz(32, 2.0, 9.0)  # past r_hi: a step of its own
    assert ginibre_moment_toeplitz(32, 2.0, 0.3) == first
    for a in (*dualities._tanh_sinh(0.1, 3.3), dualities._kernel_coeffs(Ginibre(8), 8)):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


def test_gram_refuses_a_non_finite_band(monkeypatch):
    monkeypatch.setattr(dualities, "_angular_coeffs",
                        lambda gamma, rho, y, n: [np.full_like(y, np.nan)] * 2)
    with pytest.raises(FloatingPointError, match="not finite"):
        ginibre_moment_toeplitz(8, 2.0, 0.5)


@pytest.mark.parametrize("model, gamma, z, want", [
    # values pinned to rel 1e-13, not bit for bit, since numpy builds differ
    # in the last ulp: |z| = 0, |z| past r_hi (Ginibre(8) at gamma = 2:
    # r_hi = 3.69), gamma < -1 (a longer rule), and both truncated-CUE
    # branches (|z| < 1: two sides, |z| >= 1: one)
    (Ginibre(8), 2.0, 0.5, -4.031166906216789),
    (Ginibre(8), 2.0, 0.0, -6.0309294306934484),
    (Ginibre(8), 2.0, 4.0, 22.24470250459645),
    (Ginibre(32), 4.0, 1.0, 6.877688614462997),
    (Ginibre(8), 1.3, 0.5, -2.917100693356848),
    (Ginibre(8), -1.5, 0.5, 5.619833254520811),
    (Ginibre(16), -0.5, 1.4, -2.645815257650142),
    (InducedGinibre(8, 1.0), 2.0, 0.5, -2.672319269076121),
    (InducedGinibre(20, 2.5), 1.3, 1.4, 9.090486880232211),
    (TruncatedCUE(20, 12), 3.5, 1.0, 2.46162798829529),
    (TruncatedCUE(20, 12), 2.0, 0.5, -9.155032105288807),
    (TruncatedCUE(8, 6), -1.5, 1.4, -2.7512426645124113),
    (TruncatedCUE(8, 6), 4.0, 0.0, -5.817111159963204),
])
def test_gram_route_keeps_its_values(model, gamma, z, want):
    assert dualities._log_gram_det(model, gamma, z) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("n, k, z", [(800, 2, 1.45), (200, 3, 1.4 * cmath.exp(0.7j))])
def test_exact_route_at_large_n_z2_vs_gram(n, k, z):
    assert ginibre_moment_exact(n, k, z) == pytest.approx(
        ginibre_moment_toeplitz(n, 2.0 * k, z), abs=1e-9
    )


@pytest.mark.parametrize("n, gamma, z", [(200, 10.0, 0.81), (800, 12.0, 0.81)])
def test_gram_refuses_large_even_gamma_where_round_off_grows(n, gamma, z):
    # the route once returned values 1.3e-6 and 0.98 off ginibre_moment_exact
    # here, and 1.7e-7 and 1.5e-4 off the JUE-factored exact route for the tCUE
    with pytest.raises(ValueError, match="envelope"):
        ginibre_moment_toeplitz(n, gamma, z)
    with pytest.raises(ValueError, match="envelope"):
        tcue_moment_toeplitz(n + 4, n, gamma, z)


@pytest.mark.parametrize("n, gamma, z", [(32, 6.0, 0.85), (16, 8.0, 0.9), (4, 12.0, 0.7),
                                         (800, 6.0, 1.3 * cmath.exp(0.7j))])
def test_gram_keeps_even_gamma_inside_its_envelope(n, gamma, z):
    assert ginibre_moment_toeplitz(n, gamma, z) == pytest.approx(
        ginibre_moment_exact(n, int(gamma) // 2, z), abs=4e-10
    )


# -- Painleve V route --------------------------------------------------------

@pytest.mark.parametrize("n, gamma, r", [(32, 4.0, 0.6), (64, 4.0, 0.6), (64, 1.3, 0.45),
                                         (64, 4.0, 1.2), (64, 2.0, 0.6), (16, 1.3, 0.05),
                                         (400, 2.0, 1.0)])
def test_pv_route_matches_gram(n, gamma, r):
    # a transport from t_ref = max(0.75, x/2) read 2.8e-6, 6.88 and 11.4 off
    # at the first three inputs, refused (64, 2, 0.6) and did not return at
    # (16, 1.3, 0.05)
    z = r * cmath.exp(0.4j)
    assert ginibre_moment_pv(n, gamma, z) == pytest.approx(
        ginibre_moment_toeplitz(n, gamma, z), abs=1e-8
    )


@pytest.mark.parametrize("n, gamma, r, error", [(100, 1.3, 0.45, ValueError),
                                                (800, 4.0, 1.5, FloatingPointError),
                                                (8, 2.0, 4.0, ValueError),
                                                (8, -0.5, 8.0, ValueError),
                                                (4, 1.3, 14.0, ValueError)])
def test_pv_route_refuses_outside_the_gram_envelope(n, gamma, r, error):
    # the Gram route refuses non-even gamma at N > 64; at (800, 4, 1.5) the
    # seed probability is e^-708.  Beyond |z| = 1.5 the transport once read
    # 24.98 against the Gram route's 22.24 at (8, 2, 4), 304.8 against -8.32
    # at (8, -0.5, 8), and overflowed at (4, 1.3, 14)
    with pytest.raises(error):
        ginibre_moment_pv(n, gamma, r * cmath.exp(0.4j))


def test_pv_route_is_one_ode_solve(ode_calls):
    ginibre_moment_pv(8, 1.3, 0.7)
    assert ode_calls == ["solve_ivp"]


def test_pv_route_matches_exact_and_toeplitz():
    assert ginibre_moment_pv(4, 2.0, 0.3) == pytest.approx(
        ginibre_moment_exact(4, 1, 0.3), abs=1e-6
    )
    assert ginibre_moment_pv(4, 2.0, 0.9) == pytest.approx(
        ginibre_moment_exact(4, 1, 0.9), abs=1e-6
    )
    for g in (1.3, 2.0):
        assert ginibre_moment_pv(4, g, 0.6) == pytest.approx(
            ginibre_moment_toeplitz(4, g, 0.6), abs=1e-6
        )


def test_pv_route_z_zero_is_constant():
    assert ginibre_moment_pv(3, 1.3, 0.0) == pytest.approx(
        log_r_gamma_zero(3, 1.3), rel=1e-13
    )


# -- truncated CUE -----------------------------------------------------------

def test_tcue_constant_c211():
    assert math.exp(tcue_moment_exact(2, 1, 1, 0.0, 0.0)) == pytest.approx(0.5, rel=1e-12)
    assert log_c_mnk(2, 1, 1) == pytest.approx(math.log(0.5), rel=1e-12)


def test_tcue_exact_vs_planar_oracle(planar_moment_tcue):
    got = tcue_moment_exact(3, 1, 1, 0.4, 0.4)
    oracle = planar_moment_tcue(3, ChargeConfiguration((0.4,), (2.0,)))
    assert abs(math.expm1(got - oracle)) < 1e-6


def _mp_tcue_moment(m, n, k, absz, dps=None):
    """ln k! det[int_0^1 t^{kappa+i+j} (1 + (q-1)t)^N dt] - ln C^JUE_{kappa+N,0}
    in mpmath, q = |z|^2, the moments as binomial sums (positive terms at q >= 1;
    at q < 1 they alternate and cancel up to 2^N, hence the digits)."""
    with mpmath.workdps(dps or 80 + int(0.31 * n)):
        kap, c = m - n, mpmath.mpf(absz) ** 2 - 1
        mom = [mpmath.fsum(mpmath.binomial(n, l) * c**l / (kap + s + l + 1) for l in range(n + 1))
               for s in range(2 * k - 1)]
        hankel = mpmath.matrix([[mom[i + j] for j in range(k)] for i in range(k)])
        lg = mpmath.loggamma
        log_c = mpmath.fsum(lg(m + j + 1) + lg(j + 1) + lg(j + 2) - lg(m + k + j + 1)
                            for j in range(k))
        return float(lg(k + 1) + mpmath.log(mpmath.det(hankel)) - log_c)


@pytest.mark.parametrize("m, n, k, absz", [(64, 8, 3, 0.9), (66, 64, 3, 2.5), (802, 800, 3, 1.5),
                                           (802, 800, 4, 1.3), (802, 800, 1, 2.5)])
def test_tcue_exact_matches_mpmath_hankel(m, n, k, absz):
    # the scipy-quad Hankel once read 2.9e-10, 1.4e-9, 5.8e-6 and 0.10 off
    # here, and overflowed at (802, 800, 1, 2.5)
    assert abs(tcue_moment_exact(m, n, k, absz, absz) - _mp_tcue_moment(m, n, k, absz)) <= 5e-12


@pytest.mark.parametrize("x, y", [(0.5, -0.5), (0.5j, 0.5), (0.3 + 0.1j, 0.3 + 0.1j)])
def test_tcue_exact_refuses_a_non_real_or_negative_xy(x, y):
    with pytest.raises(ValueError, match="real xy >= 0"):
        tcue_moment_exact(6, 4, 1, x, y)


@pytest.mark.parametrize(
    "make",
    [lambda: GinibreWeight(0), lambda: InducedGinibre(0, 1.0), lambda: TruncatedCUE(3, 0),
     lambda: tcue_moment_exact(3, 0, 1, 0.5, 0.5), lambda: ginibre_moment_exact(0, 1, 0.5),
     lambda: ginibre_moment_pv(0, 2.0, 0.5)],
    ids=["ginibre", "induced", "tcue", "tcue-exact", "ginibre-exact", "ginibre-pv"],
)
def test_empty_matrices_are_refused(make):
    with pytest.raises(ValueError, match="n >= 1|1 <= n < m"):
        make()


@pytest.mark.parametrize(
    "make",
    [lambda: tcue_edge(64, 1, 1.3, 0.7), lambda: ginibre_moment_exact(8, 1.5, 0.5),
     lambda: tcue_moment_exact(8, 6, 1.5, 0.5, 0.5)],
    ids=["tcue-edge", "ginibre-exact", "tcue-exact"],
)
def test_determinant_routes_refuse_a_non_integer_size(make):
    # each builds an LUE or JUE of size k, which refuses k = 1.3 or 1.5;
    # these once raised TypeError from range(k)
    with pytest.raises(ValueError, match="integer size k >= 1"):
        make()


def test_correlator_takes_the_ensemble_model():
    cc = ChargeConfiguration((0.5,), (2.0,))
    assert GinibreWeight is Ginibre
    assert correlator_finiteN(Ginibre(8), cc) == pytest.approx(
        ginibre_moment_exact(8, 1, 0.5), abs=1e-10)


def test_tcue_toeplitz_matches_exact():
    assert tcue_moment_toeplitz(5, 3, 2.0, 0.6) == pytest.approx(
        tcue_moment_exact(5, 3, 1, 0.6, 0.6), abs=1e-10
    )


@pytest.mark.parametrize("r", [0.9452036735324122, 0.9455147446881843, 0.9498331999657055])
def test_tcue_factored_cross_check_accepts_a_correct_value_near_the_edge(r):
    # exact_sweep's tcue_64_8_k2 inputs at benchmark seeds 201, 12 and 51,
    # where the JUE-factored gap determinant once lost digits
    assert tcue_moment_exact(64, 8, 2, r, r) == pytest.approx(
        tcue_moment_toeplitz(64, 8, 4.0, r), abs=1e-10
    )


def test_tcue_toeplitz_morris_at_one():
    for m, n, g in (
        (5, 3, 1.7), (6, 4, 2.0), (4, 3, 0.9),
        (40, 8, 1.5), (40, 8, 3.9), (64, 8, -0.5), (64, 8, 1.5), (64, 8, 2.7),
    ):
        assert tcue_moment_toeplitz(m, n, g, 1.0) == pytest.approx(
            log_tcue_r_gamma_one(m, n, g), abs=1e-9
        )


def test_tcue_toeplitz_gamma_zero_and_prefactor_consistency():
    assert tcue_moment_toeplitz(5, 3, 0.0, 0.5) == 0.0
    # at z = 0: E|det T|^gamma = prod_j Gamma(g+j+1) Gamma(j+kappa+1)
    # / (Gamma(j+1) Gamma(g+j+kappa+1)), g = gamma/2
    for m, n, gamma in ((6, 4, 4.0), (12, 8, 1.3), (9, 8, -1.0), (40, 8, -1.9)):
        kap, g = m - n, 0.5 * gamma
        want = sum(
            math.lgamma(g + j + 1) + math.lgamma(j + kap + 1)
            - math.lgamma(j + 1) - math.lgamma(g + j + kap + 1)
            for j in range(n)
        )
        assert tcue_moment_toeplitz(m, n, gamma, 0.0) == pytest.approx(want, abs=1e-10)


def test_tcue_size_guard():
    with pytest.raises(ValueError):
        tcue_moment_exact(4, 4, 1, 0.0, 0.0)


# -- HCIZ --------------------------------------------------------------------

def test_hciz_k1():
    for u, v in ((0.5, 0.3), (1.0 + 0.2j, -0.4 + 0.1j)):
        assert hciz_ratio([u], [v]) == pytest.approx(
            cmath.exp(u * complex(v).conjugate()), rel=1e-12
        )


def test_hciz_confluent_vs_haar_mc():
    # fully merged vectors make A, B scalar, so the group integral is exact
    u = (0.4, 0.4)
    v = (0.25, 0.25)
    ratio = hciz_ratio(u, v)
    mc, err = haar_mc_hciz(u, v, 60_000, seed=2)
    assert abs(ratio - mc) < 3.0 * err + 1e-12
    # partially merged k = 3 with genuine Monte Carlo variance
    u = (0.4, 0.4, -0.3 + 0.2j)
    v = (0.25, 0.8, 0.1j)
    pred = hciz_ratio(u, v) * 2.0  # G(1+3) = 2
    mc, err = haar_mc_hciz(u, v, 80_000, seed=5)
    assert abs(pred - mc) < 3.0 * err


def test_hciz_generic_vs_haar_mc_k3():
    rng = np.random.default_rng(3)
    u = rng.normal(size=3) * 0.6 + 1j * rng.normal(size=3) * 0.6
    v = rng.normal(size=3) * 0.6 + 1j * rng.normal(size=3) * 0.6
    g4 = 2.0  # G(1+3) = 0! 1! 2!
    pred = hciz_ratio(u, v) * g4
    mc, err = haar_mc_hciz(u, v, 80_000, seed=4)
    assert abs(pred - mc) < 3.0 * err


# -- lemniscate --------------------------------------------------------------

def test_lemniscate_gamma_exponents():
    assert lemniscate_gamma_exponents(2) == [-1.0, 0.0]
    gs = lemniscate_gamma_exponents(3)
    assert gs[-1] == 0.0 and all(-2 < g <= 0 for g in gs)


def test_lemniscate_d1_closed_form():
    for n, t in ((2, 0.4), (3, 0.0), (4, 1.1)):
        want = (n * t) ** 2 + log_z_ginibre(n)
        assert lemniscate_partition(n, 1, t) == pytest.approx(want, rel=1e-12)


def test_lemniscate_vs_quadrature():
    got = lemniscate_partition(1, 2, 0.3)
    oracle = lemniscate_partition_quadrature(0.3)
    assert abs(math.expm1(got - oracle)) < 1e-5


def lemniscate_t0_radial(n: int, d: int) -> float:
    """ln Z^{Lem_d}_{Nd}(0) = ln (Nd)! + sum_j ln h_j with the radial norms
    h_j = pi int_0^inf s^j e^{-Nd s^d} ds (s = r^2) by 1-d quadrature."""
    nd = n * d
    total = math.lgamma(nd + 1.0)
    for j in range(nd):
        val, _ = integrate.quad(lambda s: s**j * math.exp(-nd * s**d), 0.0, np.inf, limit=400)
        total += math.log(math.pi * val)
    return total


def test_lemniscate_t0_radial_norms():
    for n, d in ((1, 2), (2, 2), (1, 3)):
        assert lemniscate_partition(n, d, 0.0) == pytest.approx(
            lemniscate_t0_radial(n, d), abs=1e-9
        )


# -- generic correlator ------------------------------------------------------

def test_correlator_single_charge_matches_exact():
    assert correlator_finiteN(
        GinibreWeight(6), ChargeConfiguration((0.4,), (4.0,))
    ) == pytest.approx(ginibre_moment_exact(6, 2, 0.4), abs=1e-10)


@pytest.mark.parametrize("r", [0.05, 0.1, 0.3, 0.5, 1.2, 1.4])
def test_correlator_large_n_matches_exact(r):
    # 1/h_j alone overflows near j ~ N here, and r^j underflows at small r
    got = correlator_finiteN(GinibreWeight(800), ChargeConfiguration((r,), (4.0,)))
    assert got == pytest.approx(ginibre_moment_exact(800, 2, r), abs=1e-6)


def test_correlator_two_charges_vs_mc():
    from charpoly.ensembles import Ginibre, mc_moment

    cc = ChargeConfiguration((0.2, 0.3), (2.0, 2.0))
    ref = correlator_finiteN(GinibreWeight(6), cc)
    est = mc_moment(Ginibre(6), cc, 60_000, seed=11, log_shift=ref)
    assert est.within(ref)


def test_correlator_rotational_invariance():
    a = correlator_finiteN(GinibreWeight(5), ChargeConfiguration((0.5,), (2.0,)))
    b = correlator_finiteN(
        GinibreWeight(5), ChargeConfiguration((0.5 * cmath.exp(1.7j),), (2.0,))
    )
    assert a == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize("model, exponent, r, m", [
    (Ginibre(800), 8.0, 1.3, 4),  # 0.51 off in ln before the refusal
    (Ginibre(800), 8.0, 2.0, 4),  # 5.4 off
    (Ginibre(200), 10.0, 1.5, 5),  # 2.7 off
    (TruncatedCUE(802, 800), 8.0, 1.3, 4),  # 0.3 off
])
def test_correlator_refuses_coincident_charges_outside_its_envelope(model, exponent, r, m):
    with pytest.raises(ValueError, match=f"{m} coincident charges"):
        correlator_finiteN(model, ChargeConfiguration((r,), (exponent,)))


def test_correlator_counts_coincident_charges_over_the_configuration():
    # two charges of exponent 4 at one point are four coincident charges
    with pytest.raises(ValueError, match="4 coincident charges"):
        correlator_finiteN(Ginibre(800), ChargeConfiguration((0.5, 0.5), (4.0, 4.0)))
    # one or two coincident charges are never refused
    assert correlator_finiteN(Ginibre(800), ChargeConfiguration((2.0,), (4.0,))) == pytest.approx(
        ginibre_moment_exact(800, 2, 2.0), abs=1e-8)


@pytest.mark.parametrize("eps", [1e-14, 1e-10, 1e-8])
def test_correlator_refuses_nearly_coincident_charges_outside_its_envelope(eps):
    # charges within confluent.CLUSTER_RADIUS count as coincident; these read
    # 0.28, -1.42 and -0.17 off ginibre_moment_exact(800, 4, 1.3) unrefused
    with pytest.raises(ValueError, match="4 coincident charges"):
        correlator_finiteN(Ginibre(800), ChargeConfiguration((1.3, 1.3 + eps), (4.0, 4.0)))


@pytest.mark.parametrize("model, k, r", [
    (Ginibre(64), 3, 1.5),  # N|z|^2 = 144 <= 150
    (Ginibre(8), 8, 0.75),  # N|z|^2 = 4.5 <= 5
    (TruncatedCUE(66, 64), 4, 0.75),  # N|z|^2 = 36 <= 40
])
def test_correlator_inside_its_envelope_matches_exact(model, k, r):
    got = correlator_finiteN(model, ChargeConfiguration((r,), (2.0 * k,)))
    want = (ginibre_moment_exact(model.n, k, r) if isinstance(model, Ginibre)
            else tcue_moment_exact(model.m, model.n, k, r, r))
    assert abs(got - want) <= 1e-8


def test_correlator_exponent_parity_guard():
    with pytest.raises(ValueError):
        correlator_finiteN(GinibreWeight(4), ChargeConfiguration((0.0,), (1.5,)))


def test_correlator_induced_ginibre_specialization():
    # E_Gin |det G|^{2g} |det(G-z)|^{2k} = R_{2g}(0) E_Ind |det(G-z)|^{2k}
    n, g, k, z = 5, 2, 1, 0.35
    lhs = correlator_finiteN(
        GinibreWeight(n), ChargeConfiguration((0.0, z), (2.0 * g, 2.0 * k))
    )
    rhs = log_r_gamma_zero(n, 2.0 * g) + correlator_finiteN(
        InducedGinibre(n, float(g)), ChargeConfiguration((z,), (2.0 * k,))
    )
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_correlator_induced_noninteger_vs_planar_oracle():
    # real gamma1 enters only through the weight; N = 2 checked by quadrature
    n, g1, k2, u2 = 2, 1.5, 1, 0.8
    z2 = u2 / math.sqrt(n)
    lhs = log_r_gamma_zero(n, 2.0 * g1) + correlator_finiteN(
        InducedGinibre(n, g1), ChargeConfiguration((z2,), (2.0,))
    )
    oracle = planar_moment_ginibre(
        n, ChargeConfiguration((0.0, z2), (3.0, 2.0))
    )
    assert abs(math.expm1(lhs - oracle)) < 1e-5


def test_correlator_tcue_weight_matches_jue_duality():
    for m, n, k, z in ((5, 3, 1, 0.4), (6, 4, 2, 0.5), (5, 3, 1, 0.3), (7, 4, 2, 0.6)):
        got = correlator_finiteN(
            TruncatedCUE(m, n), ChargeConfiguration((z,), (2.0 * k,))
        )
        assert got == pytest.approx(tcue_moment_exact(m, n, k, z, z), abs=1e-10)


def test_c_lemniscate_reconciliation():
    # the fully explicit Lemma form: c~ = c_{N,d} (Z^Gin_N)^d is what the
    # partition function uses; verified against the brute-force oracle at
    # (N, d) = (1, 2) through lemniscate_partition itself
    got = log_c_lemniscate(1, 2)
    want = math.lgamma(3.0) - 0.5 * (1 * (2 + 4 + 1)) * math.log(2.0) - 2 * math.lgamma(2.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_correlator_zero_exponents_trivial():
    assert correlator_finiteN(
        GinibreWeight(4), ChargeConfiguration((0.3, 0.7), (0.0, 0.0))
    ) == 0.0
    # zero charges mixed with active ones are dropped harmlessly
    mixed = correlator_finiteN(
        GinibreWeight(4), ChargeConfiguration((0.9, 0.4), (0.0, 2.0))
    )
    assert mixed == pytest.approx(ginibre_moment_exact(4, 1, 0.4), abs=1e-12)


def test_tcue_general_real_pair_n1_analytic():
    # Prop-level surface with x != conj(y): E(T-x)(T^dag - y) = 1/M + xy at N=1
    for m, x, y in ((3, 2.0, 0.3), (5, 0.7, 0.2), (4, -0.5, -0.4)):
        got = tcue_moment_exact(m, 1, 1, x, y)
        assert got == pytest.approx(math.log(1.0 / m + x * y), rel=1e-10)


def test_pv_route_negative_gamma():
    # the transport also covers the lemniscate exponent range
    for g in (-0.5, -1.0, -1.5):
        assert ginibre_moment_pv(3, g, 0.6) == pytest.approx(
            ginibre_moment_toeplitz(3, g, 0.6), abs=1e-6
        )


def test_fuzz_cross_routes():
    rng = np.random.default_rng(0)
    for _ in range(15):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 3))
        z = rng.uniform(0.0, 1.2) * cmath.exp(1j * rng.uniform(0.0, 6.28))
        assert ginibre_moment_exact(n, k, z) == pytest.approx(
            ginibre_moment_toeplitz(n, 2.0 * k, z), abs=1e-9
        )
    for _ in range(10):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, m))
        k = int(rng.integers(1, 3))
        z = float(rng.uniform(0.0, 0.97))
        assert tcue_moment_exact(m, n, k, z, z) == pytest.approx(
            tcue_moment_toeplitz(m, n, 2.0 * k, z), abs=1e-9
        )
