import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charpoly.ensembles import _rng, sample_haar_unitary
from charpoly.linalg import logdet, logdet_batch


def det_cofactor(a: np.ndarray) -> complex:
    """Brute-force determinant by first-row cofactor expansion (oracle)."""
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[0]
    if n == 1:
        return complex(a[0, 0])
    total = 0.0 + 0.0j
    cols = np.arange(n)
    for j in range(n):
        minor = a[1:][:, cols != j]
        total += (-1) ** j * a[0, j] * det_cofactor(minor)
    return complex(total)


def test_logdet_identity():
    lm, ph = logdet(np.eye(5))
    assert lm == pytest.approx(0.0, abs=1e-14)
    assert ph == pytest.approx(0.0, abs=1e-14)


def test_logdet_diagonal_phase():
    lm, ph = logdet(np.diag([2.0j, 3.0]))
    assert lm == pytest.approx(math.log(6.0), rel=1e-14)
    assert ph == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_logdet_singular():
    lm, ph = logdet(np.array([[1.0, 2.0], [2.0, 4.0]]))
    assert lm == -np.inf
    assert logdet(np.array([[1.0, 2.0], [0.0, 0.0]])) == (-np.inf, 0.0)


def test_logdet_nonsquare_rejected():
    with pytest.raises(ValueError):
        logdet(np.ones((2, 3)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_logdet_vs_cofactor(n):
    rng = np.random.default_rng(5 + n)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    want = det_cofactor(a)
    lm, ph = logdet(a)
    got = math.exp(lm) * np.exp(1j * ph)
    assert got == pytest.approx(want, rel=1e-10)


def test_logdet_of_unitary_has_unit_modulus():
    u = sample_haar_unitary(7, _rng(11, 0))
    lm, _ = logdet(u)
    assert abs(lm) < 1e-10


@given(st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_det_product_identity(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 6)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    (la, pa), (lb, pb) = logdet(a), logdet(b)
    lab, pab = logdet(a @ b)
    assert lab == pytest.approx(la + lb, rel=1e-10, abs=1e-10)
    assert abs(math.remainder(pab - pa - pb, 2.0 * math.pi)) < 1e-10


def test_logdet_basics():
    lm, ph = logdet(np.array([[3.0 + 1j]]))
    assert lm == pytest.approx(0.5 * math.log(10.0), rel=1e-14)
    assert ph == pytest.approx(math.atan2(1.0, 3.0), rel=1e-14)
    assert logdet(np.eye(4)[[1, 0, 3, 2]]) == (0.0, 0.0)
    assert logdet(np.eye(3)[[1, 0, 2]]) == (0.0, math.pi)


def test_logdet_hilbert_vs_cofactor():
    h = np.array([[1.0 / (i + j + 1) for j in range(4)] for i in range(4)])
    lm, ph = logdet(h)
    assert ph == 0.0
    assert math.exp(lm) == pytest.approx(det_cofactor(h).real, rel=1e-8)


def test_logdet_row_scaling_keeps_relative_accuracy():
    # rows 1e400 apart: without row scaling the LU multipliers underflow
    # and the small rows lose their elimination updates
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    d = np.array([1e200, 1e-200, 1e150, 1.0])
    lm, ph = logdet(d[:, None] * a)
    lm0, ph0 = logdet(a)
    assert lm == pytest.approx(lm0 + float(np.sum(np.log(d))), rel=1e-13)
    assert ph == pytest.approx(ph0, abs=1e-12)


def test_logdet_batch_matches_scalar():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    batch = logdet_batch(a)
    for i in range(6):
        assert batch[i] == pytest.approx(logdet(a[i])[0], rel=1e-13)
