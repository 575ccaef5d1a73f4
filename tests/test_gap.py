import math

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
    lue_tail,
)


def test_norm_constants_closed_forms():
    assert log_norm_constant(LUE(1, 0.0)) == pytest.approx(0.0, abs=1e-14)
    assert log_norm_constant(GUE(1)) == pytest.approx(0.5 * math.log(2 * math.pi), rel=1e-14)
    assert log_norm_constant(JUE(1, 0.0, 0.0)) == pytest.approx(0.0, abs=1e-14)
    # GUE k: (2pi)^{k/2} prod (j+1)!
    want = math.log(2 * math.pi) + math.log(1.0) + math.log(2.0)
    assert log_norm_constant(GUE(2)) == pytest.approx(want, rel=1e-14)


def test_gap_cdf_scalar_cases():
    assert gap_cdf(GUE(1), 0.0) == pytest.approx(0.5, rel=1e-13)
    for x in (0.2, 1.3, 4.0):
        assert gap_cdf(LUE(1, 0.0), x) == pytest.approx(-math.expm1(-x), rel=1e-12)
        assert gap_cdf(JUE(1, 0.0, 0.0), min(x, 1.0)) == pytest.approx(min(x, 1.0), rel=1e-12)


def test_lue_tail_scalar_cases():
    for x in (0.0, 0.7, 3.0):
        assert lue_tail(1, 0.0, x) == pytest.approx(math.exp(-x), rel=1e-12)
    assert lue_tail(3, 2.0, 0.0) == 1.0
    assert lue_tail(2, 1.5, -0.5) == 1.0


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
        det_route = lue_tail(2, 3.0, x)
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
    assert lue_tail(2, 1.0, x + dx) <= lue_tail(2, 1.0, x) + 1e-13


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
