import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from charpoly.specfun import (
    erfc,
    erfc_complex,
    log_barnes_g,
    log_gamma,
    log_reg_inc_beta,
    log_reg_upper_gamma,
    reg_inc_beta,
    reg_lower_gamma,
)


def test_log_gamma_known_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)


def test_log_gamma_domain():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-1.3)


@given(st.floats(0.5, 50.0))
def test_log_gamma_recurrence(x):
    assert log_gamma(x + 1.0) == pytest.approx(log_gamma(x) + math.log(x), abs=1e-12, rel=1e-12)


def test_barnes_g_integers():
    # G(1) = G(2) = G(3) = 1, G(4) = 2
    for n in (1, 2, 3):
        assert log_barnes_g(float(n)) == pytest.approx(0.0, abs=1e-14)
    assert log_barnes_g(4.0) == pytest.approx(math.log(2.0), rel=1e-14)


def test_barnes_g_factorial_product():
    for n in range(1, 13):
        expected = sum(math.lgamma(j + 1) for j in range(n))
        assert math.exp(log_barnes_g(n + 1.0)) == pytest.approx(
            math.exp(expected), rel=1e-12
        )


def _log_barnes_product_limit(x: float, terms: int = 200_000) -> float:
    """Independent oracle: the canonical product for ln G(1+z) with the
    analytically summed z^3/(3k^2) tail."""
    z = x - 1.0
    euler = 0.5772156649015328606
    total = 0.5 * z * math.log(2.0 * math.pi) - 0.5 * z * (z + 1.0) - 0.5 * euler * z * z
    for k in range(1, terms):
        total += k * math.log1p(z / k) - z + z * z / (2.0 * k)
    # remaining tail: sum_{k>K} [z^3/(3k^2) - z^4/(4k^3) + O(k^-4)]
    total += (z**3 / 3.0) * float(mpmath.zeta(2, terms)) - (z**4 / 4.0) * float(
        mpmath.zeta(3, terms)
    )
    return total


def test_barnes_g_noninteger_oracle():
    got = log_barnes_g(3.5)
    assert got == pytest.approx(_log_barnes_product_limit(3.5), abs=5e-10)
    assert got == pytest.approx(float(mpmath.log(mpmath.barnesg(3.5))), rel=1e-12)


@pytest.mark.parametrize("x", [0.3, 1.7, 6.25, 12.5, 40.0])
def test_barnes_g_vs_mpmath(x):
    assert log_barnes_g(x) == pytest.approx(
        float(mpmath.log(mpmath.barnesg(x))), rel=1e-12, abs=1e-12
    )


def test_reg_lower_gamma_exponential_law():
    for x in (0.1, 1.0, 4.0):
        assert reg_lower_gamma(1.0, x) == pytest.approx(-math.expm1(-x), rel=1e-14)
    assert reg_lower_gamma(3.3, 0.0) == 0.0


def test_reg_lower_gamma_quadrature_oracle():
    a, x = 2.5, 1.3
    val, _ = integrate.quad(
        lambda t: t ** (a - 1) * math.exp(-t), 0.0, x, epsabs=1e-13, epsrel=1e-13
    )
    assert reg_lower_gamma(a, x) == pytest.approx(val / math.gamma(a), rel=1e-10)


@given(st.floats(0.2, 20.0), st.floats(0.0, 30.0), st.floats(1e-3, 5.0))
@settings(max_examples=60)
def test_reg_lower_gamma_monotone(a, x, dx):
    assert reg_lower_gamma(a, x + dx) >= reg_lower_gamma(a, x) - 1e-15


def test_log_reg_upper_gamma_deep_tail():
    # smooth continuation far below the underflow point of Q itself
    a, x = 5.0, 800.0
    direct = (a - 1) * math.log(x) - x - math.lgamma(a)
    assert log_reg_upper_gamma(a, x) == pytest.approx(direct, rel=1e-3)
    # continuity across the switch to the continued fraction
    lo = log_reg_upper_gamma(3.0, 650.0)
    hi = log_reg_upper_gamma(3.0, 650.001)
    assert abs(lo - hi) < 1e-2


def test_reg_inc_beta_uniform_and_endpoints():
    for x in (0.0, 0.25, 0.9, 1.0):
        assert reg_inc_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-15)
    assert reg_inc_beta(2.0, 5.0, 1.0) == 1.0


def test_reg_inc_beta_quadrature_oracle():
    a, b, x = 2.0, 3.0, 0.4
    val, _ = integrate.quad(lambda t: t ** (a - 1) * (1 - t) ** (b - 1), 0.0, x)
    norm, _ = integrate.quad(lambda t: t ** (a - 1) * (1 - t) ** (b - 1), 0.0, 1.0)
    assert reg_inc_beta(a, b, x) == pytest.approx(val / norm, rel=1e-12)


@given(st.floats(0.2, 10.0), st.floats(0.2, 10.0), st.floats(0.0, 1.0), st.floats(0.0, 0.3))
@settings(max_examples=60)
def test_reg_inc_beta_monotone(a, b, x, dx):
    hi = min(x + dx, 1.0)
    assert reg_inc_beta(a, b, hi) >= reg_inc_beta(a, b, x) - 1e-15


def test_erfc_values_and_symmetry():
    assert erfc(0.0) == pytest.approx(1.0, rel=1e-15)
    for x in (-2.0, -0.5, 0.7, 3.1):
        assert erfc(x) == pytest.approx(2.0 - erfc(-x), rel=1e-13)
    val, _ = integrate.quad(lambda t: math.exp(-t * t), 1.0, 12.0)
    assert erfc(1.0) == pytest.approx(2.0 / math.sqrt(math.pi) * val, rel=1e-13)


@pytest.mark.parametrize(
    "a, b, x",
    [(1200, 3, 0.55), (2000, 0.5, 0.7), (900, 40, 0.4), (1500, 100, 0.2), (700, 1.5, 0.35)],
)
def test_log_reg_inc_beta_underflow_matches_mpmath(a, b, x):
    # I_x(a, b) < 1e-280 here, so the value comes from the 2F1 identity
    assert reg_inc_beta(a, b, x) < 1e-280
    with mpmath.workdps(50):
        want = float(mpmath.log(mpmath.betainc(a, b, 0, x, regularized=True)))
    assert abs(log_reg_inc_beta(a, b, x) - want) <= 1e-12 * abs(want)


def test_erfc_complex_matches_mpmath():
    for z in (0.5 + 0.8j, -1.2 + 0.3j, 2.0 - 1.5j):
        want = complex(mpmath.erfc(mpmath.mpc(z)))
        got = erfc_complex(z)
        assert got == pytest.approx(want, rel=1e-12)
