import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charpoly.gap import (
    GUE,
    JUE,
    LUE,
    gap_cdf,
    gap_oracle,
    log_gap_cdf,
    log_lue_tail,
    log_norm_constant,
)


def test_norm_constants_closed_forms():
    assert log_norm_constant(LUE(1, 0.0)) == pytest.approx(0.0, abs=1e-14)
    assert log_norm_constant(GUE(1)) == pytest.approx(0.5 * math.log(2 * math.pi), rel=1e-14)
    assert log_norm_constant(JUE(1, 0.0, 0.0)) == pytest.approx(0.0, abs=1e-14)
    # GUE k: (2pi)^{k/2} prod (j+1)!
    want = math.log(2 * math.pi) + math.log(1.0) + math.log(2.0)
    assert log_norm_constant(GUE(2)) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("k, a, b", [(1, 1, 8192), (2, 3, 8192), (3, 802, 0), (4, 802, 0),
                                     (2, 580, 20), (12, 20, 0), (4, 2, 800)])
def test_jue_norm_constant_matches_mpmath(k, a, b):
    # summed term by term, ln Gamma(8193) and ln Gamma(8195) rounded separately
    # left 1e-11 in ln C at (1, 1, 8192)
    with mpmath.workdps(50):
        lg = mpmath.loggamma
        want = float(mpmath.fsum(lg(a + j + 1) + lg(b + j + 1) + lg(j + 2) - lg(a + b + k + j + 1)
                                 for j in range(k)))
    assert abs(log_norm_constant(JUE(k, float(a), float(b))) - want) <= 1e-14 * abs(want)


def test_gap_cdf_scalar_cases():
    assert gap_cdf(GUE(1), 0.0) == pytest.approx(0.5, rel=1e-13)
    for x in (0.2, 1.3, 4.0):
        assert gap_cdf(LUE(1, 0.0), x) == pytest.approx(-math.expm1(-x), rel=1e-12)
        assert gap_cdf(JUE(1, 0.0, 0.0), min(x, 1.0)) == pytest.approx(min(x, 1.0), rel=1e-12)


def test_lue_tail_scalar_cases():
    for x in (0.0, 0.7, 3.0):
        assert math.exp(log_lue_tail(1, 0.0, x)) == pytest.approx(math.exp(-x), rel=1e-12)
    assert math.exp(log_lue_tail(3, 2.0, 0.0)) == 1.0
    assert math.exp(log_lue_tail(2, 1.5, -0.5)) == 1.0


def test_clamping_flags():
    assert gap_cdf(JUE(1, 1.0, 1.0), 1.5) == 1.0
    assert gap_cdf(LUE(2, 0.5), -1.0) == 0.0


@pytest.mark.parametrize(
    "ens,grid",
    [
        (GUE(2), np.linspace(-2.0, 2.0, 7)),
        (LUE(2, 0.0), np.linspace(0.2, 8.0, 7)),
        (LUE(2, 3.0), np.linspace(0.5, 12.0, 7)),
        (JUE(2, 1.0, 2.0), np.linspace(0.1, 0.9, 7)),
        (LUE(1, 2.5), np.linspace(0.2, 10.0, 5)),
    ],
)
def test_andreief_vs_oracle(ens, grid):
    for x in grid:
        assert abs(gap_cdf(ens, float(x)) - gap_oracle(ens, float(x))) <= 1e-8


def test_lue_tail_vs_oracle():
    for x in (0.4, 1.2, 3.0):
        det_route = math.exp(log_lue_tail(2, 3.0, x))
        quad_route = gap_oracle(LUE(2, 3.0), x, tail=True)
        assert det_route == pytest.approx(quad_route, abs=1e-8)


def test_gap_oracle_k3_smoke():
    assert gap_oracle(GUE(3), 0.5) == pytest.approx(gap_cdf(GUE(3), 0.5), abs=1e-7)


def test_gap_oracle_size_limit():
    with pytest.raises(ValueError):
        gap_oracle(GUE(4), 0.0)


@given(st.floats(-4.0, 4.0), st.floats(0.0, 2.0))
@settings(max_examples=40, deadline=None)
def test_gue_cdf_monotone(x, dx):
    assert gap_cdf(GUE(2), x + dx) >= gap_cdf(GUE(2), x) - 1e-13


@given(st.floats(0.01, 20.0), st.floats(0.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_lue_cdf_monotone_and_tail_antitone(x, dx):
    assert gap_cdf(LUE(2, 1.0), x + dx) >= gap_cdf(LUE(2, 1.0), x) - 1e-13
    tail = lambda t: math.exp(log_lue_tail(2, 1.0, t))
    assert tail(x + dx) <= tail(x) + 1e-13


@given(st.floats(0.01, 0.99), st.floats(0.0, 0.5))
@settings(max_examples=40, deadline=None)
def test_jue_cdf_monotone(x, dx):
    # also the gap factor of the JUE-factored truncated-CUE formula
    hi = min(x + dx, 1.0)
    assert gap_cdf(JUE(2, 2.0, 4.0), hi) >= gap_cdf(JUE(2, 2.0, 4.0), x) - 1e-13


def test_cdf_limits():
    assert gap_cdf(GUE(2), -12.0) < 1e-20
    assert gap_cdf(GUE(2), 12.0) == pytest.approx(1.0, abs=1e-12)
    assert gap_cdf(JUE(2, 1.0, 2.0), 0.0) == 0.0
    assert gap_cdf(JUE(2, 1.0, 2.0), 1.0) == pytest.approx(1.0, abs=1e-12)


def test_large_alpha_log_scale():
    # alpha = N ~ 800 with a far-tail argument stays finite in log space
    val = log_lue_tail(1, 800.0, 1800.0)
    assert -400.0 < val < -300.0
    # k = 2 also works through column rescaling
    val2 = log_lue_tail(2, 200.0, 500.0)
    assert math.isfinite(val2) and val2 < -50


def test_non_integer_alpha_supported():
    v = gap_cdf(LUE(2, 1.7), 3.0)
    o = gap_oracle(LUE(2, 1.7), 3.0)
    assert v == pytest.approx(o, abs=1e-8)


# -- the Gram-on-a-rule determinant against exact moments in mpmath ---------


def _mp_log_gap(kind, k, x, a=0.0, b=0.0, dps=250):
    """ln[k! det(m_{i+j}) / C] from exact incomplete moments m_n: the Gaussian
    recurrence for GUE, the lower (CDF) or upper (tail) gamma for LUE, the
    incomplete beta for JUE."""
    with mpmath.workdps(dps):
        x, a, b = mpmath.mpf(x), mpmath.mpf(a), mpmath.mpf(b)
        lg = mpmath.loggamma
        if kind == "gue":
            g = mpmath.exp(-x * x / 2)
            m = [mpmath.sqrt(mpmath.pi / 2) * mpmath.erfc(-x / mpmath.sqrt(2)), -g]
            for n in range(2, 2 * k - 1):
                m.append((n - 1) * m[n - 2] - x ** (n - 1) * g)
            logc = k * mpmath.log(2 * mpmath.pi) / 2 + sum(lg(j + 2) for j in range(k))
        elif kind in ("lue", "lue_tail"):
            lims = (x, mpmath.inf) if kind == "lue_tail" else (0, x)
            m = [mpmath.gammainc(a + n + 1, *lims) for n in range(2 * k - 1)]
            logc = sum(lg(a + j + 1) + lg(j + 2) for j in range(k))
        else:
            m = [mpmath.betainc(a + n + 1, b + 1, 0, x) for n in range(2 * k - 1)]
            logc = sum(lg(a + j + 1) + lg(b + j + 1) + lg(j + 2) - lg(a + b + k + j + 1)
                       for j in range(k))
        hankel = mpmath.matrix([[m[i + j] for j in range(k)] for i in range(k)])
        return float(lg(k + 1) + mpmath.log(mpmath.det(hankel)) - logc)


@pytest.mark.parametrize(
    "k, alpha, x",
    [(2, 800, 2048.0), (3, 200, 392.0), (4, 64, 64 * 1.23**2), (4, 200, 392.0),
     (10, 100, 150.0), (12, 400, 900.0), (8, 64, 108.16)],
)
def test_lue_tail_matches_mpmath_hankel(k, alpha, x):
    want = _mp_log_gap("lue_tail", k, x, alpha)
    assert abs(log_lue_tail(k, float(alpha), x) - want) <= 5e-12


@pytest.mark.parametrize("k, x", [(14, 0.5), (3, -24.0), (4, -16.0), (10, -3.0)])
def test_gue_cdf_matches_mpmath_hankel(k, x):
    assert abs(log_gap_cdf(GUE(k), x) - _mp_log_gap("gue", k, x)) <= 5e-12


@pytest.mark.parametrize(
    "m, n, k, absz",
    [(600, 20, 2, 0.6), (64, 8, 2, 0.9452), (64, 8, 3, 0.9), (200, 20, 2, 0.97)],
)
def test_jue_cdf_of_the_factored_tcue_form_matches_mpmath_hankel(m, n, k, absz):
    u = 1.0 - absz * absz
    want = _mp_log_gap("jue", k, u, m - n, n)
    assert abs(log_gap_cdf(JUE(k, float(m - n), float(n)), u) - want) <= 5e-12


def test_non_integer_hard_edge_stays_accurate():
    # t^alpha at t = 0 is smooth in the rule's variable, v = ln t or logit t
    for ens, x, want in (
        (LUE(2, 0.5), 3.0, _mp_log_gap("lue", 2, 3.0, 0.5, dps=60)),
        (LUE(2, -0.9), 2.0, _mp_log_gap("lue", 2, 2.0, -0.9, dps=60)),
        (JUE(2, 0.5, 2.5), 0.99, _mp_log_gap("jue", 2, 0.99, 0.5, 2.5, dps=60)),
    ):
        assert abs(log_gap_cdf(ens, x) - want) <= 1e-12
    assert abs(log_lue_tail(2, 1.5, 0.01) - _mp_log_gap("lue_tail", 2, 0.01, 1.5, dps=60)) <= 1e-14
