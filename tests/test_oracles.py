import cmath
import math

import numpy as np
import pytest

from charpoly.ensembles import ChargeConfiguration
from charpoly.oracles import (
    haar_mc_hciz,
    lemniscate_partition_quadrature,
    planar_moment_ginibre,
)


def test_planar_n1_analytic():
    # N = 1: E|g - z|^2 = 1 + |z|^2 for a standard complex normal g
    for z in (0.0, 0.5, 0.8j):
        got = planar_moment_ginibre(1, ChargeConfiguration((z,), (2.0,)))
        assert got == pytest.approx(math.log(1.0 + abs(z) ** 2), abs=1e-10)


def test_planar_n1_noninteger_resolution():
    # doubling the grid does not move the value (spectral convergence)
    cc = ChargeConfiguration((0.4,), (1.3,))
    a = planar_moment_ginibre(1, cc, n_r=120, n_th=192)
    b = planar_moment_ginibre(1, cc, n_r=240, n_th=384)
    assert a == pytest.approx(b, abs=1e-10)


def test_planar_two_cusps_rejected():
    cc = ChargeConfiguration((0.0, 0.5), (1.3, 0.7))
    with pytest.raises(ValueError):
        planar_moment_ginibre(2, cc)


def test_planar_tcue_m2_uniform_disc(planar_moment_tcue):
    # M = 2, N = 1: eigenvalue uniform on the disc; E|lam - z|^2 = 1/2 + |z|^2
    for z in (0.0, 0.3):
        got = planar_moment_tcue(2, ChargeConfiguration((z,), (2.0,)))
        assert got == pytest.approx(math.log(0.5 + z * z), abs=1e-9)


def test_lemniscate_quadrature_resolution():
    a = lemniscate_partition_quadrature(0.3, n_r=150, n_th=192)
    b = lemniscate_partition_quadrature(0.3, n_r=250, n_th=320)
    assert a == pytest.approx(b, abs=1e-9)


def test_haar_mc_k1_exact():
    # k = 1: the group integral is exactly e^{u conj(v)}
    mc, err = haar_mc_hciz([0.4 + 0.1j], [0.3 - 0.2j], 5000, seed=1)
    want = cmath.exp((0.4 + 0.1j) * (0.3 + 0.2j))
    assert abs(mc - want) < 1e-12 and err < 1e-12


def test_haar_mc_is_independent_of_the_worker_count(monkeypatch):
    # ten chunks of 2048 on one thread and on five, joined in chunk order
    u, v = [0.4 + 0.1j, -0.3j, 0.5], [0.3 - 0.2j, 0.6, -0.1 + 0.4j]
    monkeypatch.setenv("CHARPOLY_THREADS", "1")
    one = haar_mc_hciz(u, v, 20_000, seed=3)
    monkeypatch.setenv("CHARPOLY_THREADS", "5")
    assert haar_mc_hciz(u, v, 20_000, seed=3) == one
