import math
import tracemalloc
import warnings

import numpy as np
import pytest

from charpoly import ensembles
from charpoly.dualities import GinibreWeight, correlator_finiteN, ginibre_moment_exact
from charpoly.ensembles import (
    ChargeConfiguration,
    Ginibre,
    InducedGinibre,
    MCEstimate,
    TruncatedCUE,
    _BLOCK,
    _CHUNK,
    _chunk_logdets,
    _complex_normal,
    _elimination_chain,
    _haar_columns,
    _one_charge_chain,
    _rng,
    _sample_chunk,
    mc_moment,
    sample_haar_unitary,
    worker_count,
)
from charpoly.linalg import logdet_batch


def test_charge_configuration_validation():
    cc = ChargeConfiguration((0.5, 1j), (2.0, 1.3))
    assert cc.m == 2
    with pytest.raises(ValueError):
        ChargeConfiguration((0.0,), (-2.0,))
    with pytest.raises(ValueError):
        ChargeConfiguration((0.0, 1.0), (2.0,))


@pytest.mark.parametrize(
    "points,exponents",
    [((math.nan,), (2.0,)), ((complex(0.1, math.inf),), (2.0,)), ((0.5, -math.inf), (2.0, 2.0)),
     ((0.5,), (math.nan,)), ((0.5,), (math.inf,))],
)
def test_charge_configuration_refuses_non_finite(points, exponents):
    with pytest.raises(ValueError, match="finite"):
        ChargeConfiguration(points, exponents)


def test_spec_validation():
    with pytest.raises(ValueError):
        Ginibre(0)
    with pytest.raises(ValueError):
        TruncatedCUE(4, 4)


def test_mc_moment_takes_the_dualities_name_of_a_model():
    cc = ChargeConfiguration((0.5,), (2.0,))
    assert mc_moment(GinibreWeight(8), cc, 3000, 4) == mc_moment(Ginibre(8), cc, 3000, 4)


def test_mc_moment_refuses_a_model_it_cannot_sample():
    with pytest.raises(ValueError, match="no sampler"):
        mc_moment(InducedGinibre(8, 1.0), ChargeConfiguration((0.5,), (2.0,)), 1000, 1)


def _hessenberg_model(n, count, rng):
    """The stack (count, N, N) of Dumitriu-Edelman Hessenberg matrices:
    N_C(0, 1/N) entries on and above the diagonal, subdiagonal
    sqrt(Gamma(N - 1 - j, 1) / N) at column j."""
    h = np.triu(rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n)))
    h /= math.sqrt(2.0 * n)
    shape = np.arange(n - 1, 0, -1, dtype=float)
    h[:, np.arange(1, n), np.arange(n - 1)] = np.sqrt(rng.standard_gamma(shape, (count, n - 1)) / n)
    return h


def _project_columns(h, points):
    """The chain's (b, xi) that reproduce the stack h pathwise.  Row c of
    beta holds the elimination vector of charge c (its carried row as a
    combination of rows of h - z_c).  Column j of h, read through beta, is
    X = beta h_j; with L the lower-triangular factor of the Gram
    beta beta^H (only its leading rank x rank block is invertible),
    xi_j = L^-1 X on that block and 0 below it."""
    count, n, _ = h.shape
    m, z = len(points), np.asarray(points)
    xi = np.zeros((n, m, count), dtype=np.complex128)
    beta = np.zeros((count, m, n), dtype=np.complex128)
    beta[:, :, 0] = 1.0
    for j in range(n):
        x = np.einsum("scr,sr->sc", beta, h[:, :, j])
        rank = min(j + 1, m)
        lead = beta[:, :rank]
        chol = np.linalg.cholesky(np.einsum("scr,sdr->scd", lead, lead.conj()))
        xi[j, :rank] = np.linalg.solve(chol, x[:, :rank, None])[..., 0].T
        if j == n - 1:
            break
        a = x - z * beta[:, :, j]
        b = h[:, j + 1, j, None].real
        piv = np.maximum(b, np.abs(a))
        beta *= (b / piv)[:, :, None]
        beta[:, :, j + 1] -= a / piv
    return np.ascontiguousarray(h[:, np.arange(1, n), np.arange(n - 1)].real.T), xi


def test_ginibre_entry_statistics():
    # E|xi|^2 = 1/N for every column draw; E b_j^2 = (N - 1 - j)/N
    n, m, count = 4, 3, 4000
    b, xi = _sample_chunk(Ginibre(n), count, _rng(1, 0), m)
    assert xi.shape == (n, m, count) and b.shape == (n - 1, count)
    second = np.abs(xi) ** 2
    assert abs(second.mean() - 1.0 / n) < 4 * second.std() / math.sqrt(second.size)
    assert abs(xi.mean()) < 4 * np.abs(xi).std() / math.sqrt(xi.size)
    assert np.all(b >= 0.0)
    for j, row in enumerate(b * b):
        assert abs(row.mean() - (n - 1 - j) / n) < 4 * row.std() / math.sqrt(count)


def test_circular_law_spectral_radius():
    radii = []
    for i in range(12):
        ev = np.linalg.eigvals(_hessenberg_model(200, 1, _rng(2, i))[0])
        radii.append(np.abs(ev).max())
    assert 0.9 < float(np.mean(radii)) < 1.15


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 200])
def test_logdet_hessenberg_matches_dense_lu(n):
    # the chain fed the column projections of a dense Hessenberg H is the
    # pivoted LU of H - z_c, for 1, 2 and 4 distinct charges
    h = _hessenberg_model(n, 30, _rng(31, n))
    charges = (0.0, 0.3 - 0.4j, 0.95j, 1.2 + 0.5j, -3.0)
    for points in (charges[1:2], charges[3:], charges[:4], charges[1:]):
        ref = np.array([logdet_batch(h - z * np.eye(n)) for z in points])
        got = _elimination_chain(*_project_columns(h, points), points)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_logdet_hessenberg_exact_zeros():
    # member 0: b_0 = 0 and a zero leading entry, singular; member 1: a zero
    # leading entry that only the row swap gets past, |det| = 0.7; member 2:
    # regular, against the dense LU of the H it projects from
    z = 0.4 + 0.2j
    h = np.array([[[z, 1.0], [0.0, 0.0]], [[z, 1.0], [0.7, 0.0]], [[z, 0.5], [0.7, -0.3j]]])
    b, xi = _project_columns(h[1:], (z,))
    b = np.concatenate([[[0.0]], b], axis=1)
    xi = np.concatenate([np.full((2, 1, 1), z), xi], axis=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _elimination_chain(b, xi, (z,))[0]
        pair = _elimination_chain(b, np.concatenate([xi, xi], axis=1), (z, -0.5))
    assert got[0] == -np.inf
    assert got[1] == pytest.approx(math.log(0.7), rel=1e-14)
    assert got[2] == pytest.approx(logdet_batch(h[2] - z * np.eye(2)), rel=1e-14)
    # the zero member of one charge leaves the other charge finite
    assert pair[0, 0] == -np.inf and np.all(np.isfinite(pair[1]))


@pytest.mark.parametrize("n", [1, 2, 8, 64, 200])
def test_one_charge_chain_matches_the_general_chain(n):
    # the scalar step follows the m = 1 chain on the same (b, xi); member 0
    # has a zero leading entry (and b_0 = 0): a zero pivot, -inf in both
    z = 0.3 - 0.4j
    b, xi = _sample_chunk(Ginibre(n), 500, _rng(13, n), 1)
    xi[0, 0, 0] = z
    b[:1, 0] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref = _elimination_chain(b, xi, (z,))[0]
        got = _one_charge_chain(b, xi[:, 0], z)
    assert got[0] == ref[0] == -np.inf
    assert np.all(np.abs(got[1:] - ref[1:]) <= 1e-13 * np.maximum(1.0, np.abs(ref[1:])))


def test_coincident_charges_share_their_chain():
    # two charges at one point are one charge with the summed exponent
    b, xi = _sample_chunk(Ginibre(8), 2000, _rng(12, 0), 3)
    got = _elimination_chain(b, xi, (0.3, -0.5j, 0.3))
    assert np.max(np.abs(got[0] - got[2])) <= 1e-12


def test_mc_coincident_charges_match_correlator():
    cc = ChargeConfiguration((0.3, 0.3), (2.0, 2.0))
    ref = correlator_finiteN(GinibreWeight(4), cc)
    est = mc_moment(Ginibre(4), cc, 50_000, seed=24, log_shift=ref)
    assert est.within(ref)


def test_haar_unitarity_and_trace_moment():
    u = sample_haar_unitary(5, _rng(3, 0))
    assert np.allclose(u @ u.conj().T, np.eye(5), atol=1e-12)
    traces = [
        np.trace(sample_haar_unitary(3, _rng(4, i))) for i in range(3000)
    ]
    m2 = np.mean(np.abs(traces) ** 2)
    assert abs(m2 - 1.0) < 0.1  # E|Tr U|^2 = 1 for Haar


def _truncation(spec, rng):
    """One truncated-CUE sample T = X R^-1 from _sample_chunk's (X, R)."""
    x, r, _ = _sample_chunk(spec, 1, rng)
    return x[0] @ np.linalg.inv(r[0])


def test_truncation_subunitary():
    for i in range(200):
        t = _truncation(TruncatedCUE(4, 2), _rng(5, i))
        assert np.linalg.norm(t, 2) <= 1.0 + 1e-8
        assert np.max(np.abs(np.linalg.eigvals(t))) < 1.0


def test_truncation_second_moment_m2n1():
    vals = [abs(_truncation(TruncatedCUE(2, 1), _rng(6, i))[0, 0]) ** 2 for i in range(20000)]
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


@pytest.mark.parametrize("m,n", [(2, 1), (4, 2), (8, 6), (64, 8), (65, 64)])
def test_truncation_logdet_matches_full_qr(m, n):
    # log|det(X - z R)| - sum log R_jj on the same draws as the full QR's
    # T - z; with M - N = 1 the Gram matrix A^H A squares a large condition
    points = (0.0, 0.5, -0.6 + 0.1j, 0.4j, 1.3)
    for s, c in ((1, 0), (2, 3)):
        spec = TruncatedCUE(m, n)
        got = list(_chunk_logdets(spec, _sample_chunk(spec, 64, _rng(s, c)), points))
        t = _full_qr_truncation(m, n, 64, _rng(s, c))
        for z, logdet in zip(points, got):
            ref = logdet_batch(t - z * np.eye(n))
            assert np.max(np.abs(logdet - ref)) <= 1e-11


@pytest.mark.parametrize("m,n", [(64, 8), (8, 6), (5, 5), (2, 1)])
def test_haar_batch_columns_orthonormal(m, n):
    q = _haar_columns(_complex_normal(_rng(8, 1), (16, m, n)))
    assert q.shape == (16, m, n)
    gram = np.einsum("sji,sjk->sik", q.conj(), q)
    assert np.max(np.abs(gram - np.eye(n))) < 1e-12


def _one_shot_chunk(spec, count, rng, m):
    """A chunk drawn whole: for Ginibre, every real part of the (N, m,
    count) column draws in one draw, then every imaginary part in a second
    one, then the subdiagonal gammas one column at a time."""
    if isinstance(spec, TruncatedCUE):
        return _full_qr_truncation(spec.m, spec.n, count, rng)
    n = spec.n
    scale = 1.0 / math.sqrt(2.0 * n)
    xi = np.empty((n, m, count), dtype=np.complex128)
    for part in (xi.real, xi.imag):
        np.multiply(rng.standard_normal(part.shape), scale, out=part)
    b = np.sqrt(np.array([rng.standard_gamma(n - 1.0 - j, count) for j in range(n - 1)]) / n)
    return b.reshape(n - 1, count), xi


def _mc_shifted_reference(spec, charges, n_samples, seed):
    """mc_moment's mean and stderr from whole-chunk draws of
    min(_CHUNK, _BLOCK // entries) samples, with each charge applied as
    a - z*eye (tCUE) or by the elimination chain (Ginibre)."""
    eye = np.eye(spec.n)
    entries = spec.m * spec.n if isinstance(spec, TruncatedCUE) else spec.n * charges.m
    size = max(1, min(_CHUNK, _BLOCK // entries))
    total = total_sq = 0.0
    for c in range((n_samples + size - 1) // size):
        count = min(size, n_samples - c * size)
        a = _one_shot_chunk(spec, count, _rng(seed, c), charges.m)
        if isinstance(spec, TruncatedCUE):
            logdets = [logdet_batch(a - z * eye) for z in charges.points]
        else:
            logdets = _elimination_chain(*a, charges.points)
        s = np.zeros(count)
        for g, logdet in zip(charges.exponents, logdets):
            s += g * logdet
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
    # Ginibre(8), four charges: a whole chunk of 4096 and a short one;
    # Ginibre(64), two charges: two chunks of 2048 and a short one;
    # tCUE(64, 8): a chunk of 512 and a short one (the full-QR reference is large)
    n_samples = {Ginibre(64): _CHUNK + 4, TruncatedCUE(64, 8): 600}.get(spec, 5000)
    # the tCUE: same draws, Cholesky in place of the reference's full QR
    est = mc_moment(spec, charges, n_samples, seed=21, log_shift=0.0)
    ref = _mc_shifted_reference(spec, charges, n_samples, 21)
    if isinstance(spec, Ginibre):
        assert (est.mean_shifted, est.stderr_shifted) == ref
    else:
        assert (est.mean_shifted, est.stderr_shifted) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_mc_chunk_memory_is_a_few_chunks(monkeypatch):
    # a chunk is at most _BLOCK complex entries (4 MB); drawing the whole
    # 4096-sample Ginibre(64) batch at once would trace 130 MiB
    monkeypatch.setenv("CHARPOLY_THREADS", "1")
    cc = ChargeConfiguration((0.5,), (2.0,))
    tracemalloc.start()
    try:
        mc_moment(Ginibre(64), cc, 4096, seed=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 << 20


@pytest.mark.parametrize(
    "spec,n_samples,parent_peak",
    [(TruncatedCUE(8, 6), 50_000, 12_334_157), (TruncatedCUE(64, 8), 2048, 13_315_824)],
)
def test_mc_tcue_memory_below_the_full_qr(monkeypatch, spec, n_samples, parent_peak):
    # parent_peak: the traced peak of the thin-QR sampler on the same call
    # (9.9 and 8.5 MiB now, against 11.8 and 12.7 MiB)
    monkeypatch.setenv("CHARPOLY_THREADS", "1")
    cc = ChargeConfiguration((0.5,), (2.0,))
    tracemalloc.start()
    try:
        mc_moment(spec, cc, n_samples, seed=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= parent_peak


def test_mc_ess_is_the_weights_effective_sample_size():
    spec, n_samples = Ginibre(4), 3000
    cc = ChargeConfiguration((0.5, -0.2j), (2.0, 1.0))
    est = mc_moment(spec, cc, n_samples, seed=11, log_shift=0.0)
    logdets = _elimination_chain(*_one_shot_chunk(spec, n_samples, _rng(11, 0), cc.m), cc.points)
    w = np.exp(sum(g * logdet for g, logdet in zip(cc.exponents, logdets)))
    assert est.ess == pytest.approx(w.sum() ** 2 / (w * w).sum(), rel=1e-9)
    assert 1.0 <= est.ess <= n_samples
    assert mc_moment(spec, ChargeConfiguration((), ()), n_samples, seed=11).ess == n_samples


def test_mc_empty_charges_is_exactly_one():
    est = mc_moment(Ginibre(3), ChargeConfiguration((), ()), 100, seed=1)
    assert est.mean_shifted == 1.0 and est.stderr_shifted == 0.0
    assert est.log_value == 0.0


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


def test_mc_ginibre64_matches_exact_duality():
    n, z = 64, 0.5
    ref = ginibre_moment_exact(n, 1, z)
    est = mc_moment(Ginibre(n), ChargeConfiguration((z,), (2.0,)), 8192, seed=64, log_shift=ref)
    assert est.within(ref)


def _counted_draws(monkeypatch) -> list:
    """A list that gains one entry per _sample_chunk call of mc_moment."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _sample_chunk(*args)

    monkeypatch.setattr(ensembles, "_sample_chunk", counted)
    return calls


def test_mc_determinism_and_thread_independence(monkeypatch):
    # each call starts with no kept draws, so the 5-worker call draws its
    # chunks itself instead of reading the ones the 1-worker call kept
    calls = _counted_draws(monkeypatch)

    def cold(spec, charges, n, seed, threads):
        monkeypatch.setattr(ensembles, "_kept", {})
        monkeypatch.setenv("CHARPOLY_THREADS", threads)
        calls.clear()
        est = mc_moment(spec, charges, n, seed=seed)
        assert calls
        return est

    cc = ChargeConfiguration((0.3,), (2.0,))
    a = cold(Ginibre(3), cc, 9000, 42, "1")
    assert cold(Ginibre(3), cc, 9000, 42, "5") == a  # bit identical regardless of worker count
    assert cold(Ginibre(3), cc, 9000, 43, "5") != a
    cc2 = ChargeConfiguration((0.3, -0.6j), (2.0, 1.0))
    for spec, n, charges in (
        (Ginibre(1), 9000, cc),
        (Ginibre(2), 9000, cc),
        (Ginibre(8), 9000, cc),
        (Ginibre(8), 20_000, cc2),
        (TruncatedCUE(8, 6), 9000, cc),
        (Ginibre(64), 4096, cc),
        (Ginibre(64), 4096, cc2),
        (TruncatedCUE(64, 8), 2048, cc),
    ):
        a = cold(spec, charges, n, 42, "1")
        assert cold(spec, charges, n, 42, "5") == a


def _hex(est):
    return tuple(map(float.hex, (est.log_shift, est.mean_shifted, est.stderr_shifted)))


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize(
    "spec,points,n_samples",
    [(Ginibre(8), (0.3,), 20_000), (Ginibre(8), (0.3, -0.6j), 9000),
     (TruncatedCUE(2, 1), (0.3,), 20_000)],
)
def test_mc_kept_draws_match_a_cold_call(monkeypatch, threads, spec, points, n_samples):
    # a z-grid: the first call keeps its draws, every later one reads them
    monkeypatch.setenv("CHARPOLY_THREADS", threads)
    monkeypatch.setattr(ensembles, "_kept", {})
    calls = _counted_draws(monkeypatch)
    exponents = (2.0, 1.0)[: len(points)]
    mc_moment(spec, ChargeConfiguration(points, exponents), n_samples, seed=5)
    for shift in (0.0, 0.2 - 0.1j, -0.5j, 0.9):
        cc = ChargeConfiguration(tuple(z + shift for z in points), exponents)
        drawn = len(calls)
        warm = mc_moment(spec, cc, n_samples, seed=5)
        assert len(calls) == drawn
        monkeypatch.setattr(ensembles, "_kept", {})
        cold = mc_moment(spec, cc, n_samples, seed=5)
        assert len(calls) > drawn
        assert _hex(warm) == _hex(cold)


def test_mc_any_other_key_draws(monkeypatch):
    # another seed, sample count, spec or charge count reads none of the kept draws
    monkeypatch.setattr(ensembles, "_kept", {})
    calls = _counted_draws(monkeypatch)
    cc, cc2 = ChargeConfiguration((0.3,), (2.0,)), ChargeConfiguration((0.3, 0.1j), (2.0, 2.0))
    for spec, charges, n, seed in ((Ginibre(8), cc, 5000, 6), (Ginibre(8), cc, 5001, 5),
                                   (Ginibre(7), cc, 5000, 5), (Ginibre(8), cc2, 5000, 5)):
        mc_moment(Ginibre(8), cc, 5000, seed=5)
        drawn = len(calls)
        mc_moment(spec, charges, n, seed=seed)
        assert len(calls) > drawn


def test_mc_kept_draws_are_read_only(monkeypatch):
    monkeypatch.setattr(ensembles, "_kept", {})
    cc = ChargeConfiguration((0.3,), (2.0,))
    for spec in (Ginibre(8), TruncatedCUE(2, 1)):
        mc_moment(spec, cc, 5000, seed=5)
        [(key, draws)] = ensembles._kept.items()
        assert key == (spec, 1, 5000, 5) and len(draws) == 2
        for a in (a for draw in draws for a in draw):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0


def test_mc_over_budget_call_keeps_nothing(monkeypatch):
    # 50 000 tCUE(8, 6) samples draw 2.4M Gaussians, over the 2^18 budget:
    # the call drops the grid's draws first and keeps none of its own; the
    # bound is the thin-QR sampler's peak, as in the memory test above
    monkeypatch.setenv("CHARPOLY_THREADS", "1")
    monkeypatch.setattr(ensembles, "_kept", {})
    cc = ChargeConfiguration((0.5,), (2.0,))
    mc_moment(Ginibre(8), cc, 20_000, seed=9)
    assert ensembles._kept
    tracemalloc.start()
    try:
        mc_moment(TruncatedCUE(8, 6), cc, 50_000, seed=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not ensembles._kept
    assert peak <= 12_334_157


def test_worker_count_reads_charpoly_threads(monkeypatch):
    for env, want in (("3", 3), ("0", 1), ("-2", 1)):
        monkeypatch.setenv("CHARPOLY_THREADS", env)
        assert worker_count() == want
    monkeypatch.setenv("CHARPOLY_THREADS", "abc")
    with pytest.raises(ValueError, match="^CHARPOLY_THREADS must be an integer, got 'abc'$"):
        worker_count()


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
    assert est.log_value == pytest.approx(2.0 + math.log(1.5))
