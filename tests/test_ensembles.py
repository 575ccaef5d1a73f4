import math

import numpy as np
import pytest

from charpoly.dualities import ginibre_moment_exact
from charpoly.ensembles import (
    ChargeConfiguration,
    Ginibre,
    MCEstimate,
    TruncatedCUE,
    _rng,
    mc_moment,
    sample_ginibre,
    sample_haar_unitary,
    sample_truncated_cue,
)


def test_charge_configuration_validation():
    cc = ChargeConfiguration((0.5, 1j), (2.0, 1.3))
    assert cc.m == 2
    with pytest.raises(ValueError):
        ChargeConfiguration((0.0,), (-2.0,))
    with pytest.raises(ValueError):
        ChargeConfiguration((0.0, 1.0), (2.0,))


def test_spec_validation():
    with pytest.raises(ValueError):
        Ginibre(0)
    with pytest.raises(ValueError):
        TruncatedCUE(4, 4)
    with pytest.raises(ValueError):
        sample_truncated_cue(3, 3, _rng(0, 0))


def test_ginibre_entry_statistics():
    draws = np.stack([sample_ginibre(4, _rng(1, i)) for i in range(4000)])
    second = np.abs(draws) ** 2
    # E|entry|^2 = 1/N with stderr ~ (1/N)/sqrt(count)
    mean = second.mean()
    stderr = second.std() / math.sqrt(second.size)
    assert abs(mean - 0.25) < 4 * stderr
    first = draws.mean()
    assert abs(first) < 4 * np.abs(draws).std() / math.sqrt(draws.size)


def test_circular_law_spectral_radius():
    radii = []
    for i in range(12):
        ev = np.linalg.eigvals(sample_ginibre(200, _rng(2, i)))
        radii.append(np.abs(ev).max())
    assert 0.9 < float(np.mean(radii)) < 1.15


def test_haar_unitarity_and_trace_moment():
    u = sample_haar_unitary(5, _rng(3, 0))
    assert np.allclose(u @ u.conj().T, np.eye(5), atol=1e-12)
    traces = [
        np.trace(sample_haar_unitary(3, _rng(4, i))) for i in range(3000)
    ]
    m2 = np.mean(np.abs(traces) ** 2)
    assert abs(m2 - 1.0) < 0.1  # E|Tr U|^2 = 1 for Haar


def test_truncation_subunitary():
    for i in range(200):
        t = sample_truncated_cue(4, 2, _rng(5, i))
        assert np.linalg.norm(t, 2) <= 1.0 + 1e-8
        assert np.max(np.abs(np.linalg.eigvals(t))) < 1.0


def test_truncation_second_moment_m2n1():
    vals = [
        abs(sample_truncated_cue(2, 1, _rng(6, i))[0, 0]) ** 2 for i in range(20000)
    ]
    mean, stderr = np.mean(vals), np.std(vals) / math.sqrt(len(vals))
    assert abs(mean - 0.5) < 3 * stderr  # C_{2,1,1} = 1/2


def test_mc_empty_charges_is_exactly_one():
    est = mc_moment(Ginibre(3), ChargeConfiguration((), ()), 100, seed=1)
    assert est.mean_shifted == 1.0 and est.stderr_shifted == 0.0
    assert est.value == 1.0


def test_mc_n1_unit_moment():
    est = mc_moment(Ginibre(1), ChargeConfiguration((0.0,), (2.0,)), 50_000, seed=2)
    assert est.within(0.0)  # ln R_2(0) = 0 at N = 1


def test_mc_matches_exact_duality():
    n, k, z = 8, 1, 0.5
    ref = ginibre_moment_exact(n, k, z)
    est = mc_moment(
        Ginibre(n), ChargeConfiguration((z,), (2.0,)), 40_000, seed=3, log_shift=ref
    )
    assert est.within(ref)


def test_mc_determinism_and_thread_independence(monkeypatch):
    cc = ChargeConfiguration((0.3,), (2.0,))
    monkeypatch.setenv("CHARPOLY_THREADS", "1")
    a = mc_moment(Ginibre(3), cc, 9000, seed=42)
    monkeypatch.setenv("CHARPOLY_THREADS", "5")
    b = mc_moment(Ginibre(3), cc, 9000, seed=42)
    assert a == b  # bit identical regardless of worker count
    c = mc_moment(Ginibre(3), cc, 9000, seed=43)
    assert c != a


def test_mc_requires_two_samples():
    with pytest.raises(ValueError):
        mc_moment(Ginibre(2), ChargeConfiguration((0.0,), (2.0,)), 1, seed=0)


def test_stderr_scaling():
    cc = ChargeConfiguration((0.5,), (2.0,))
    errs = [
        mc_moment(Ginibre(4), cc, n, seed=7).stderr_shifted
        for n in (1000, 10_000, 100_000)
    ]
    for i in range(2):
        ratio = errs[i] / errs[i + 1]
        assert math.sqrt(10.0) / 1.5 <= ratio <= math.sqrt(10.0) * 1.5


def test_mc_estimate_value_identity():
    est = MCEstimate(2.0, 1.5, 0.1, 100, 1)
    assert est.value == pytest.approx(math.exp(2.0) * 1.5)
    assert est.log_value == pytest.approx(2.0 + math.log(1.5))
