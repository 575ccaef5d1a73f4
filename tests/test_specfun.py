import math

import mpmath
import pytest

from charpoly.specfun import (_log_upper_gamma_cf, erfc_complex, integer, log_barnes_g,
                              log_gamma_ratio)


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


def test_log_reg_upper_gamma_deep_tail():
    # painleve's continued fraction for ln Gamma(a, x), x > a, far below the
    # underflow point of Gamma(a, x) itself
    a, x = 5.0, 800.0
    assert _log_upper_gamma_cf(a, x) == pytest.approx((a - 1) * math.log(x) - x, rel=1e-3)
    for a, x in ((5.0, 800.0), (3.0, 650.0), (2.5, 40.0), (30.0, 45.0)):
        with mpmath.workdps(50):
            want = float(mpmath.log(mpmath.gammainc(a, x)))
        assert _log_upper_gamma_cf(a, x) == pytest.approx(want, rel=1e-13)


def test_erfc_complex_matches_mpmath():
    for z in (0.5 + 0.8j, -1.2 + 0.3j, 2.0 - 1.5j):
        want = complex(mpmath.erfc(mpmath.mpc(z)))
        got = erfc_complex(z)
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("a, b", [(3.0, 5.0), (19.99, 30.0), (20.0, 20.5), (803.0, 806.0),
                                  (8193.0, 8195.0), (8195.0, 20.0), (1e5, 1e5 + 3.0)])
def test_log_gamma_ratio_matches_mpmath(a, b):
    with mpmath.workdps(50):
        want = float(mpmath.loggamma(a) - mpmath.loggamma(b))
    assert abs(log_gamma_ratio(a, b) - want) <= 1e-15 * max(1.0, abs(want))


def test_integer_tolerates_1e12_relative():
    assert integer(2.0) == 2 and integer(-3.0) == -3 and integer(0.0) == 0
    assert integer(3.0 + 4e-16) == 3 and integer(1e4 * (1.0 + 5e-13)) == 10_000
    assert integer(2.5) is None and integer(2.0 + 1e-11) is None
    assert type(integer(4.0)) is int
