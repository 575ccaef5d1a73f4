import math
import tracemalloc

import numpy as np
import pytest

from charpoly.dualities import ginibre_moment_exact
from charpoly.ensembles import (
    ChargeConfiguration,
    Ginibre,
    MCEstimate,
    TruncatedCUE,
    _BLOCK,
    _CHUNK,
    _complex_normal,
    _haar_columns,
    _rng,
    _sample_chunk,
    mc_moment,
    sample_haar_unitary,
)
from charpoly.linalg import logdet_batch


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


def test_ginibre_entry_statistics():
    draws = np.stack([_sample_chunk(Ginibre(4), 1, _rng(1, i))[0] for i in range(4000)])
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
        ev = np.linalg.eigvals(_sample_chunk(Ginibre(200), 1, _rng(2, i))[0])
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
        t = _sample_chunk(TruncatedCUE(4, 2), 1, _rng(5, i))[0]
        assert np.linalg.norm(t, 2) <= 1.0 + 1e-8
        assert np.max(np.abs(np.linalg.eigvals(t))) < 1.0


def test_truncation_second_moment_m2n1():
    vals = [
        abs(_sample_chunk(TruncatedCUE(2, 1), 1, _rng(6, i))[0][0, 0]) ** 2
        for i in range(20000)
    ]
    mean, stderr = np.mean(vals), np.std(vals) / math.sqrt(len(vals))
    assert abs(mean - 0.5) < 3 * stderr  # C_{2,1,1} = 1/2


def _full_qr_truncation(m, n, count, rng):
    """The full-QR truncated-CUE sampler: the M x N draw, every real part
    then every imaginary part, padded with M - N independent Gaussian
    columns; QR of the whole M x M matrix, phase fix by R's diagonal,
    upper-left n x n block."""
    g = rng.standard_normal((2, count, m, n))
    pad = np.random.default_rng([m, n, count]).standard_normal((2, count, m, m - n))
    a = np.concatenate([g[0] + 1j * g[1], pad[0] + 1j * pad[1]], axis=2)
    q, r = np.linalg.qr(a)
    d = np.einsum("...ii->...i", r)
    return (q * (d / np.abs(d))[:, None, :])[:, :n, :n]


@pytest.mark.parametrize("m,n", [(64, 8), (8, 6), (4, 2), (2, 1)])
def test_truncation_bit_identical_to_full_qr(m, n):
    for s, c in ((1, 0), (2, 3)):
        got = _sample_chunk(TruncatedCUE(m, n), 64, _rng(s, c))
        assert np.array_equal(got, _full_qr_truncation(m, n, 64, _rng(s, c)))


@pytest.mark.parametrize("m,n", [(64, 8), (8, 6), (5, 5), (2, 1)])
def test_haar_batch_columns_orthonormal(m, n):
    q = _haar_columns(_complex_normal(_rng(8, 1), (16, m, n)))
    assert q.shape == (16, m, n)
    gram = np.einsum("sji,sjk->sik", q.conj(), q)
    assert np.max(np.abs(gram - np.eye(n))) < 1e-12


def _one_shot_chunk(spec, count, rng):
    """A chunk drawn whole: every real part in one (count, rows, N) draw,
    then every imaginary part in a second one."""
    if isinstance(spec, TruncatedCUE):
        return _full_qr_truncation(spec.m, spec.n, count, rng)
    scale = 1.0 / math.sqrt(2.0 * spec.n)
    a = np.empty((count, spec.n, spec.n), dtype=np.complex128)
    for part in (a.real, a.imag):
        np.multiply(rng.standard_normal(part.shape), scale, out=part)
    return a


def _mc_shifted_reference(spec, charges, n_samples, seed):
    """mc_moment's mean and stderr from whole-chunk draws, with each charge
    applied as a - z*eye."""
    eye = np.eye(spec.n)
    rows = spec.m if isinstance(spec, TruncatedCUE) else spec.n
    size = max(1, min(_CHUNK, _BLOCK // (rows * spec.n)))
    total = total_sq = 0.0
    for c in range((n_samples + size - 1) // size):
        a = _one_shot_chunk(spec, min(size, n_samples - c * size), _rng(seed, c))
        s = np.zeros(a.shape[0])
        for z, g in zip(charges.points, charges.exponents):
            s += g * logdet_batch(a - z * eye)
        vals = np.exp(s)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0) * n_samples / (n_samples - 1)
    return mean, math.sqrt(var / n_samples)


@pytest.mark.parametrize(
    "spec,charges",
    [
        (Ginibre(8), ChargeConfiguration((0.3, -0.5j, 1.1 + 0.2j, -0.7), (2.0, 1.0, -0.5, 3.0))),
        (TruncatedCUE(8, 6), ChargeConfiguration((0.4j, -0.6 + 0.1j), (2.0, 1.5))),
        (Ginibre(64), ChargeConfiguration((0.5 + 0.2j, -0.3), (2.0, 1.0))),
        (TruncatedCUE(64, 8), ChargeConfiguration((0.4j, -0.6 + 0.1j), (2.0, 1.5))),
    ],
)
def test_mc_multi_charge_matches_shifted_copies(spec, charges):
    # Ginibre(8): one whole chunk of 4096 and a short one, the stream of
    # every N <= 8; Ginibre(64): 64 chunks of 64 and a short one;
    # tCUE(64, 8): a chunk of 512 and a short one (the full-QR reference is large)
    n_samples = {Ginibre(64): _CHUNK + 4, TruncatedCUE(64, 8): 600}.get(spec, 5000)
    est = mc_moment(spec, charges, n_samples, seed=21, log_shift=0.0)
    ref = _mc_shifted_reference(spec, charges, n_samples, 21)
    assert (est.mean_shifted, est.stderr_shifted) == ref


def test_mc_chunk_memory_is_a_few_chunks(monkeypatch):
    # a chunk is at most _BLOCK complex entries (4 MB); drawing the whole
    # 4096-sample Ginibre(64) batch at once would trace 128 MiB
    monkeypatch.setenv("CHARPOLY_THREADS", "1")
    cc = ChargeConfiguration((0.5,), (2.0,))
    tracemalloc.start()
    try:
        mc_moment(Ginibre(64), cc, 4096, seed=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 << 20


def test_mc_ess_is_the_weights_effective_sample_size():
    spec, n_samples = Ginibre(4), 3000
    cc = ChargeConfiguration((0.5, -0.2j), (2.0, 1.0))
    est = mc_moment(spec, cc, n_samples, seed=11, log_shift=0.0)
    a = _one_shot_chunk(spec, n_samples, _rng(11, 0))
    w = np.exp(sum(g * logdet_batch(a - z * np.eye(4)) for z, g in zip(cc.points, cc.exponents)))
    assert est.ess == pytest.approx(w.sum() ** 2 / (w * w).sum(), rel=1e-9)
    assert 1.0 <= est.ess <= n_samples
    assert mc_moment(spec, ChargeConfiguration((), ()), n_samples, seed=11).ess == n_samples


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
    for spec, n in ((TruncatedCUE(8, 6), 9000), (Ginibre(64), 4096), (TruncatedCUE(64, 8), 2048)):
        monkeypatch.setenv("CHARPOLY_THREADS", "1")
        a = mc_moment(spec, cc, n, seed=42)
        monkeypatch.setenv("CHARPOLY_THREADS", "5")
        assert mc_moment(spec, cc, n, seed=42) == a


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
