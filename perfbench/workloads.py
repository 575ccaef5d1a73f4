"""The three benchmark workloads and their correctness gate.

Each workload is a list of ``Case`` objects built from the seed.  A case is
one evaluation of a ``charpoly`` route plus a check of its value against an
independent route or a closed form, at the tolerance that ``verify.py`` (or,
where verify has no such pair, the test suite) uses for that pair.  A pass
runs every case once, in order, in one thread: a closed loop with one caller.

Every route is looked up on its module when the case runs, never bound when
the case is built, so that the tracer's wrappers see the call.

Known defects are marked on the case from its inputs alone, before it runs.
A known-defect case that fails still counts as failed; it only keeps the run
``correct``.  An unmarked case that fails makes the run incorrect.
"""

import cmath
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np
# bound here, before spans.Tracer wraps scipy.integrate.solve_ivp, so that the
# reference kernel's solves never count as charpoly ODE solves
from scipy.integrate import solve_ivp

WORKLOADS = ("exact_sweep", "monte_carlo", "painleve_edge")

# Toeplitz determinants lose accuracy as N|z|^2 grows; at N = 32 the log
# error passes verify's 1e-6 between |z| = 0.45 and 0.5 and reaches O(1)
# (or the determinant loses positivity) from |z| = 0.8.
TOEPLITZ_DEFECT = "ginibre_moment_toeplitz loses accuracy at N=32, |z|>=0.5"
TOEPLITZ_DEFECT_MODULI = (0.6, 0.8, 1.0, 1.2, 1.4)

# confluent.CLUSTER_TOL = 1e-8: charges closer than that take the exact
# derivative path; just above it the plain determinant ratio cancels.
CLUSTER_DEFECT = "correlator_finiteN cancels for charge separations in (1e-8, 1e-6]"
CLUSTER_DEFECT_EPS = (2e-8, 1e-7, 3e-7)

# the kernel coefficients of correlator_finiteN overflow from N ~ 700 on
# (it is correct to 1e-9 at N = 600); the sum then reads NaN, raising nothing
LARGE_N_DEFECT = "correlator_finiteN returns NaN for N >= 700"
LARGE_N_DEFECT_N = 700

# a product of four |det|^2 at interior points is so heavy-tailed at N = 8
# that the sample stderr means nothing: with 50k samples the mean falls
# more than 4 stderr below correlator_finiteN for 7 of streams 0-19 at
# these charges, and for 40-80% of seeded interior charge sets.  The case
# keeps these charges and stream 14 (13.8 stderr below), so that it fails
# the same way for every benchmark seed.
HEAVY_TAIL_DEFECT = "mc_moment stderr is unreliable for 4 interior charges at N=8"
HEAVY_TAIL_CHARGES = (0.2, 0.4j, -0.6, -0.8j)
HEAVY_TAIL_STREAM = 14

MC_SIGMAS = 4.0


@dataclass
class Case:
    """One checked evaluation.

    ``route()`` returns the value under test; ``check(value)`` returns True
    when it agrees with the reference.  ``timing`` names the row that the
    route duration is recorded under.
    ``mc_work`` is matrix samples times charges for Monte Carlo routes.
    """

    label: str
    route: object
    check: object
    known: str = ""
    timing: str = ""
    mc_work: int = 0


class Recorder:
    """Attempts, failures and route timings accumulated over passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known_failed = 0
        self.unexpected = []
        self.times = {}
        self.mc_work = 0
        self.mc_s = 0.0

    def _time(self, key, dt):
        if key:
            self.times.setdefault(key, []).append(dt)

    def run(self, case: Case) -> float:
        """Evaluate and check ``case``; returns the time taken."""
        self.attempted += 1
        ok, detail = False, "check failed"
        t0 = time.perf_counter()
        t1 = None
        try:
            value = case.route()
            t1 = time.perf_counter()
            ok = bool(case.check(value))
        except Exception as exc:  # a raised evaluation is a failed evaluation
            detail = repr(exc)
        if t1 is not None:
            self._time(case.timing, t1 - t0)
            if case.mc_work:
                self.mc_work += case.mc_work
                self.mc_s += t1 - t0
        if not ok:
            self.failed += 1
            if case.known:
                self.known_failed += 1
            else:
                self.unexpected.append(f"{case.label}: {detail}")
        return time.perf_counter() - t0


def run_pass(cases, rec: Recorder, clock: "HostClock"):
    """Evaluate every case once.

    The cases run in segments of at least SEGMENT_S seconds, each followed
    by a burst of the reference kernel lasting REF_SHARE of the segment.
    Returns the pass time in seconds (the cases' time only) and the pass
    time in reference-kernel units: each segment's time over the mean of
    the median kernel times of the bursts just before and just after it.
    """
    total = norm = seg = 0.0
    before = clock.last
    for n, case in enumerate(cases, 1):
        dt = rec.run(case)
        total += dt
        seg += dt
        if seg >= SEGMENT_S or n == len(cases):
            after = clock.burst(REF_SHARE * seg)
            norm += seg / (0.5 * (before + after))
            before, seg = after, 0.0
    return total, norm


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

# The host these figures come from is shared, and the speed it gives a
# process drifts by up to half, within seconds and between minutes.  A
# fixed kernel timed just before and just after a piece of work follows
# that drift: a cold PIV shoot's time tracked the median kernel time of the
# 1.5 s on either side of it with correlation 0.8, and their ratio spread
# half as much over a run of 44 shoots as the shoot time did.
SEGMENT_S = 0.1
REF_SHARE = 0.2
_REF_MATS = np.random.default_rng(0).normal(size=(64, 24, 24))


def _van_der_pol(t, y):
    return np.array([y[1], (1.0 - y[0] * y[0]) * y[1] - y[0]])


def reference_kernel() -> float:
    """Time about 5 ms of fixed work that uses no charpoly code; returns
    seconds.  It mixes the three kinds of work the workloads do: an
    interpreted float loop, a DOP853 solve with a Python right-hand side,
    and a batch of small QR factorisations and log-determinants."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(20_000):
        s += math.sin(i * 1e-3)
    solve_ivp(_van_der_pol, (0.0, 2.0), [2.0, 0.0], method="DOP853", rtol=1e-10, atol=1e-12)
    np.linalg.qr(_REF_MATS)
    np.linalg.slogdet(_REF_MATS)
    return time.perf_counter() - t0


class HostClock:
    """Reference-kernel bursts in one process.  ``ref_s`` holds every
    kernel time; ``last`` is the median of the latest burst."""

    def __init__(self, seconds: float = 0.5):
        reference_kernel()  # warm-up
        self.ref_s = []
        self.last = self.burst(seconds)

    def burst(self, seconds: float) -> float:
        """Time the kernel back to back for ``seconds``, at least once;
        returns the median time."""
        times = []
        end = time.perf_counter() + seconds
        while not times or time.perf_counter() < end:
            times.append(reference_kernel())
        self.ref_s += times
        self.last = statistics.median(times)
        return self.last


def build(name: str, cp, seed: int):
    """The case list of workload ``name`` for package ``cp`` and ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return {
        "exact_sweep": _exact_sweep,
        "monte_carlo": _monte_carlo,
        "painleve_edge": _painleve_edge,
    }[name](cp, rng, seed)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _call(mod, fname, *args, **kwargs):
    """A thunk that looks ``fname`` up on ``mod`` at call time."""
    return lambda: getattr(mod, fname)(*args, **kwargs)


def _near(ref, tol):
    """Check |value - ref()| <= tol (logs, or probabilities)."""
    return lambda v: abs(v - ref()) <= tol


def _near_rel(ref, tol):
    def check(v):
        r = ref()
        return abs(v - r) <= tol * max(abs(r), 1e-300)

    return check


def _near_expm1(ref, tol):
    """Check |exp(value - ref()) - 1| <= tol (log values)."""
    return lambda v: abs(math.expm1(v - ref())) <= tol


def _strata(rng, lo, hi, n):
    """n seeded points, one uniform in each of n equal parts of [lo, hi].

    Route costs depend on where the inputs fall, so stratifying keeps the
    work of a pass nearly the same from seed to seed."""
    return list(lo + (hi - lo) * (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n)


def _phase(rng):
    return cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _mc_within(ref):
    """Check a MCEstimate against exp(ref()) at MC_SIGMAS standard errors."""
    return lambda est: est.within(ref(), MC_SIGMAS)


def _log_ginibre_abs2(n, z):
    """ln E|det(G_N - z)|^2 = ln N! - N ln N + ln sum_{j<=N} (N|z|^2)^j / j!."""
    x = n * abs(z) ** 2
    if x == 0.0:
        terms = np.array([0.0])
    else:
        j = np.arange(n + 1)
        terms = j * math.log(x) - np.array([math.lgamma(i + 1.0) for i in j])
    top = terms.max()
    return math.lgamma(n + 1.0) - n * math.log(n) + top + math.log(np.exp(terms - top).sum())


def _gap_reference(kind, k, alpha, beta, x, nodes):
    """P(lambda_max < x) for GUE/LUE/JUE(k) by tensor Gauss-Legendre
    quadrature of the joint density over [lo, x]^k, normalised by the same
    rule over the whole support (no determinant identity involved)."""
    if kind == "gue":
        lo, hi = -14.0, 14.0

        def logw(t):
            return -0.5 * t * t
    elif kind == "lue":
        lo, hi = 0.0, 90.0

        def logw(t):
            return alpha * np.log(t) - t
    else:
        lo, hi = 0.0, 1.0

        def logw(t):
            return alpha * np.log(t) + beta * np.log1p(-t)

    gx, gw = np.polynomial.legendre.leggauss(nodes)

    def integral(b):
        t = lo + 0.5 * (b - lo) * (gx + 1.0)
        w = 0.5 * (b - lo) * gw * np.exp(logw(t))
        ts = np.meshgrid(*([t] * k), indexing="ij")
        ws = np.meshgrid(*([w] * k), indexing="ij")
        f = np.prod(ws, axis=0)
        for i in range(k):
            for j in range(i + 1, k):
                f = f * (ts[j] - ts[i]) ** 2
        return float(f.sum())

    return integral(min(x, hi)) / integral(hi)


def _lemniscate_t0(n, d):
    """ln Z^{Lem_d}_{Nd}(0) = ln (Nd)! + sum_j ln[pi/d (Nd)^{-(j+1)/d} Gamma((j+1)/d)]."""
    nd = n * d
    return math.lgamma(nd + 1.0) + sum(
        math.log(math.pi / d) - (j + 1.0) / d * math.log(nd) + math.lgamma((j + 1.0) / d)
        for j in range(nd)
    )


def _log_z_ginibre(n):
    """ln Z^Gin_N = N ln pi + sum_{k=1}^N ln k! - N(N+1)/2 ln N."""
    return (
        n * math.log(math.pi)
        + sum(math.lgamma(k + 2.0) for k in range(n))
        - 0.5 * n * (n + 1.0) * math.log(n)
    )


# ---------------------------------------------------------------------------
# exact_sweep
# ---------------------------------------------------------------------------

def _exact_sweep(cp, rng, seed):
    d, g, a = cp.dualities, cp.gap, cp.asymptotics
    CC = cp.ensembles.ChargeConfiguration
    cases = []

    # ginibre_moment_toeplitz vs ginibre_moment_exact (verify c07: 1e-6)
    for n in (8, 16, 32):
        for k in (1, 2):
            if n < 32:
                moduli = _strata(rng, 0.0, 1.4, 4)
            else:
                moduli = _strata(rng, 0.0, 0.45, 2) + list(TOEPLITZ_DEFECT_MODULI)
            for r in moduli:
                z = r * _phase(rng)
                cases.append(Case(
                    f"toeplitz_n{n}_k{k}_r{r:.2f}",
                    _call(d, "ginibre_moment_toeplitz", n, 2.0 * k, z),
                    _near(_call(d, "ginibre_moment_exact", n, k, z), 1e-6),
                    known=TOEPLITZ_DEFECT if n >= 32 and r >= 0.5 else "",
                    timing="toeplitz_n32" if n == 32 else "",
                ))

    # large-N exact route: k=1 against the truncated exponential series,
    # k=2 against the polynomial-kernel correlator (which fails at N=800)
    for n, r in zip((100, 200, 400, 800), _strata(rng, 0.0, 1.4, 4)):
        z = r * _phase(rng)
        ref = _log_ginibre_abs2(n, z)
        cases.append(Case(f"exact_n{n}_k1", _call(d, "ginibre_moment_exact", n, 1, z),
                          _near(lambda ref=ref: ref, 1e-6)))
    for n, r in zip((64, 128, 200, 800), _strata(rng, 0.0, 1.4, 4)):
        z = r * _phase(rng)
        cases.append(Case(
            f"exact_n{n}_k2",
            _call(d, "ginibre_moment_exact", n, 2, z),
            _near(_call(d, "correlator_finiteN", d.GinibreWeight(n), CC((z,), (4.0,))), 1e-6),
            known=LARGE_N_DEFECT if n >= LARGE_N_DEFECT_N else "",
        ))

    # truncated CUE: Andreief route vs Toeplitz (verify c08: 1e-10)
    for (m, n, k), r in zip(
        [(m, n, k) for m, n in ((8, 6), (12, 8), (20, 16), (64, 8)) for k in (1, 2)],
        _strata(rng, 0.0, 0.95, 8),
    ):
        cases.append(Case(
            f"tcue_{m}_{n}_k{k}",
            _call(d, "tcue_moment_exact", m, n, k, r, r),
            _near(_call(d, "tcue_moment_toeplitz", m, n, 2.0 * k, r * _phase(rng)), 1e-10),
        ))

    # Toeplitz at non-integer gamma: tCUE at |z| = 1 vs the Morris product
    # (tests: 1e-9)
    for (m, n), gamma in zip(((12, 8), (20, 12)) * 2, _strata(rng, 1.5, 3.9, 4)):
        cases.append(Case(
            f"tcue_toeplitz_morris_{m}_{n}",
            _call(d, "tcue_moment_toeplitz", m, n, gamma, _phase(rng)),
            _near(_call(d, "log_tcue_r_gamma_one", m, n, gamma), 1e-9),
        ))

    # correlator_finiteN: a pair at separation eps vs the coincident exact
    # value plus the linear response measured at separation 1e-4 (1e-6)
    h = 1e-4
    for n, k, r in zip((16, 32, 64), (1, 2, 1), _strata(rng, 0.2, 1.2, 3)):
        z = r * _phase(rng)
        step = _phase(rng)
        for eps in (0.0,) + CLUSTER_DEFECT_EPS:

            def ref(n=n, z=z, step=step, eps=eps):
                ex = cp.dualities.ginibre_moment_exact(n, 2, z)
                if eps == 0.0:
                    return ex
                far = cp.dualities.correlator_finiteN(
                    cp.dualities.GinibreWeight(n), CC((z, z + h * step), (2.0, 2.0)))
                return ex + eps / h * (far - ex)

            cases.append(Case(
                f"correlator_n{n}_eps{eps:.0e}",
                _call(d, "correlator_finiteN", d.GinibreWeight(n),
                      CC((z, z + eps * step), (2.0, 2.0))),
                _near(ref, 1e-6),
                known=CLUSTER_DEFECT if 1e-8 < eps <= 1e-6 else "",
            ))
        cases.append(Case(
            f"correlator_n{n}_single_k{k}",
            _call(d, "correlator_finiteN", d.GinibreWeight(n), CC((z,), (2.0 * k,))),
            _near(_call(d, "ginibre_moment_exact", n, k, z), 1e-6),
        ))

    # HCIZ at k = 2 vs the U(2) group integral (e^A - e^B)/(A - B), where
    # |U_11|^2 is uniform on [0, 1]
    for _ in range(4):
        u = rng.normal(size=2) * 0.6 + 1j * rng.normal(size=2) * 0.6
        v = rng.normal(size=2) * 0.6 + 1j * rng.normal(size=2) * 0.6
        vb = np.conj(v)
        ea = u[0] * vb[0] + u[1] * vb[1]
        eb = u[0] * vb[1] + u[1] * vb[0]
        want = complex((cmath.exp(ea) - cmath.exp(eb)) / (ea - eb))
        cases.append(Case("hciz_k2", _call(d, "hciz_ratio", u, v),
                          _near_rel(lambda want=want: want, 1e-10)))

    # edge kernel at k = 1 vs its erfc reduction (verify c13: 1e-8)
    for u in _strata(rng, -1.5, 1.5, 4):
        want = 0.5 * math.erfc(-2.0 * u / math.sqrt(2.0)) / math.sqrt(2.0 * math.pi)
        cases.append(Case(
            "edge_f_det_k1",
            _call(a, "edge_f_det", [u], [u]),
            lambda f, want=want: abs(complex(f).real - want) * math.sqrt(2.0 * math.pi) <= 1e-8,
        ))

    # gap_cdf vs tensor quadrature of the joint density (verify c03: 1e-7)
    nodes = {1: 200, 2: 120, 3: 60}
    for k in (1, 2, 3):
        for kind in ("gue", "lue", "jue"):
            span = {"gue": (-2.0, 2.5), "lue": (0.5, 8.0), "jue": (0.08, 0.95)}[kind]
            for x in _strata(rng, *span, 2):
                al = be = 0.0
                if kind == "gue":
                    ens = g.GUE(k)
                elif kind == "lue":
                    al = float(rng.integers(0, 4))
                    ens = g.LUE(k, al)
                else:
                    al, be = (float(c) for c in rng.integers(0, 3, 2))
                    ens = g.JUE(k, al, be)
                want = _gap_reference(kind, k, al, be, x, nodes[k])
                cases.append(Case(f"gap_cdf_{kind}{k}", _call(g, "gap_cdf", ens, x),
                                  _near(lambda want=want: want, 1e-7)))

    # lemniscate partition function: t = 0 radial closed form, d = 1 closed
    # form at t > 0 (verify c10: 1e-5)
    for n, dd in ((1, 2), (2, 2), (2, 3)):
        want = _lemniscate_t0(n, dd)
        cases.append(Case(f"lemniscate_t0_n{n}_d{dd}", _call(d, "lemniscate_partition", n, dd, 0.0),
                          _near_expm1(lambda want=want: want, 1e-5)))
    for n, t in zip((2, 4), _strata(rng, 0.1, 1.2, 2)):
        want = (n * t) ** 2 + _log_z_ginibre(n)
        cases.append(Case(f"lemniscate_d1_n{n}", _call(d, "lemniscate_partition", n, 1, t),
                          _near_expm1(lambda want=want: want, 1e-5)))
    return cases


# ---------------------------------------------------------------------------
# monte_carlo
# ---------------------------------------------------------------------------

def _monte_carlo(cp, rng, seed):
    d, e, o = cp.dualities, cp.ensembles, cp.oracles
    CC, Gin, TC = e.ChargeConfiguration, e.Ginibre, e.TruncatedCUE
    cases = []
    mc_seed = seed * 1009

    def mc(label, spec, cc, n_samples, ref, timing=""):
        nonlocal mc_seed
        mc_seed += 1
        cases.append(Case(label, _call(e, "mc_moment", spec, cc, n_samples, mc_seed),
                          _mc_within(ref), timing=timing, mc_work=n_samples * cc.m))

    # Ginibre N = 8: k = 1, k = 2 and one non-integer charge
    for k in (1, 2):
        z = rng.uniform(0.0, 1.2) * _phase(rng)
        mc(f"gin8_k{k}", Gin(8), CC((z,), (2.0 * k,)), 50_000,
           _call(d, "ginibre_moment_exact", 8, k, z), timing="mc_gin8")
    z = rng.uniform(0.0, 1.2) * _phase(rng)
    mc("gin8_g-0.5", Gin(8), CC((z,), (-0.5,)), 50_000,
       _call(d, "ginibre_moment_toeplitz", 8, -0.5, z))

    # four charges outside the disc, then four inside it (a known defect)
    pts = tuple(rng.uniform(1.6, 2.0) * _phase(rng) for _ in range(4))
    cc4 = CC(pts, (2.0,) * 4)
    mc("gin8_4charges", Gin(8), cc4, 50_000,
       _call(d, "correlator_finiteN", d.GinibreWeight(8), cc4))
    cc4 = CC(HEAVY_TAIL_CHARGES, (2.0,) * 4)
    cases.append(Case(
        "gin8_4charges_interior",
        _call(e, "mc_moment", Gin(8), cc4, 50_000, HEAVY_TAIL_STREAM),
        _mc_within(_call(d, "correlator_finiteN", d.GinibreWeight(8), cc4)),
        known=HEAVY_TAIL_DEFECT, mc_work=50_000 * 4,
    ))

    # a z-grid of 16 single-charge moments sharing one spec and one seed
    grid_seed = seed * 1009 + 500
    for r in _strata(rng, 0.0, 1.3, 16):
        z = r * _phase(rng)
        cc = CC((z,), (2.0,))
        cases.append(Case(
            "gin8_grid",
            _call(e, "mc_moment", Gin(8), cc, 20_000, grid_seed),
            _mc_within(_call(d, "ginibre_moment_exact", 8, 1, z)),
            mc_work=20_000,
        ))

    z = rng.uniform(0.0, 1.2) * _phase(rng)
    mc("gin64_k1", Gin(64), CC((z,), (2.0,)), 4096,
       _call(d, "ginibre_moment_exact", 64, 1, z), timing="mc_gin64")
    r = rng.uniform(0.0, 0.9)
    mc("tcue_8_6", TC(8, 6), CC((r * _phase(rng),), (2.0,)), 50_000,
       _call(d, "tcue_moment_exact", 8, 6, 1, r, r), timing="mc_tcue86")
    r = rng.uniform(0.0, 0.9)
    mc("tcue_64_8", TC(64, 8), CC((r * _phase(rng),), (2.0,)), 2048,
       _call(d, "tcue_moment_exact", 64, 8, 1, r, r), timing="mc_tcue648")

    # HCIZ at k = 3 by Haar Monte Carlo (G(4) = 2)
    u = rng.normal(size=3) * 0.6 + 1j * rng.normal(size=3) * 0.6
    v = rng.normal(size=3) * 0.6 + 1j * rng.normal(size=3) * 0.6

    def hciz_check(res, u=u, v=v):
        mean, err = res
        return abs(cp.dualities.hciz_ratio(u, v) * 2.0 - mean) <= MC_SIGMAS * err

    cases.append(Case("haar_mc_hciz_k3", _call(o, "haar_mc_hciz", u, v, 20_000, seed * 1009 + 900),
                      hciz_check, mc_work=20_000))
    return cases


def mc_speedup_case(cp, seed):
    """The Ginibre N = 8 case timed by the single-worker baseline."""
    e = cp.ensembles
    cc = e.ChargeConfiguration((0.5,), (2.0,))
    return lambda: e.mc_moment(e.Ginibre(8), cc, 200_000, seed)


# ---------------------------------------------------------------------------
# painleve_edge
# ---------------------------------------------------------------------------

def _painleve_edge(cp, rng, seed):
    d, g, p, a, o = cp.dualities, cp.gap, cp.painleve, cp.asymptotics, cp.oracles
    CC = cp.ensembles.ChargeConfiguration
    cases = []

    # PIV connection shooting, k = 1: cold, then warm on an x-grid
    # (verify c04: 1e-6 against the GUE(1) law)
    for i, x in enumerate([rng.uniform(-1.0, 1.0)] + _strata(rng, -3.0, 3.0, 2)):
        cases.append(Case(
            "piv_f_k1",
            _call(p, "piv_f", 1.0, x),
            _near(_call(g, "gap_cdf", g.GUE(1), x), 1e-6),
            timing="piv_f_cold" if i == 0 else "piv_f_warm",
        ))

    # non-integer k: cold, warm grid, then verify's c11 trend of the edge
    # expansion against Toeplitz for N <= 16.  F_k is a distribution
    # function, so the grid values must lie in (0, 1) and increase with x.
    k = round(rng.uniform(1.2, 1.8), 6)
    if k == round(k):
        k += 0.01
    xs = np.array(_strata(rng, -2.5, 2.5, 3))
    seen = {}

    def cdf_check(f, x):
        seen[x] = f
        vals = [seen[t] for t in sorted(seen)]
        return 0.0 < f < 1.0 and all(b > a for a, b in zip(vals, vals[1:]))

    for i, x in enumerate(xs[[1, 0, 2]]):
        cases.append(Case(
            "piv_f_knonint",
            _call(p, "piv_f", k, x),
            lambda f, x=x: cdf_check(f, x),
            timing="piv_f_cold" if i == 0 else "piv_f_warm",
        ))

    def trend(k=k):
        return [
            abs(math.expm1(cp.dualities.ginibre_moment_toeplitz(n, 2.0 * k, 1.0)
                           - cp.asymptotics.ginibre_edge(n, k, 1.0)))
            for n in (4, 8, 16)
        ]

    cases.append(Case("edge_trend_knonint", trend, lambda vals: cp.verify._trend(vals)[0]))

    # many short Painleve V transports (verify c07: 1e-6 against Toeplitz)
    for (n, gamma), r in zip([(n, gm) for n in (4, 6, 8) for gm in (1.3, 2.0)],
                             _strata(rng, 0.3, 0.9, 6)):
        z = r * _phase(rng)
        cases.append(Case(
            f"pv_n{n}_g{gamma}",
            _call(d, "ginibre_moment_pv", n, gamma, z),
            _near(_call(d, "ginibre_moment_toeplitz", n, gamma, z), 1e-6),
        ))

    # Painleve VI transport vs JUE gap probabilities (verify c06: 1e-6)
    for kk, al, be in ((1, 1.0, 2.0), (2, 1.0, 2.0)):
        xq = tuple(_strata(rng, 0.05, 0.95, 3))

        def pvi(kk=kk, al=al, be=be, xq=xq):
            pm = cp.painleve
            fam = pm.pvi_from_jue(float(kk), al, be)
            sol = pm.solve_span(fam, pm.init_from_gap(fam, 0.5), 0.03, 0.97, tol=1e-7)
            return [pm.F_from_sigma(fam, sol, x) for x in xq]

        def pvi_check(vals, kk=kk, al=al, be=be, xq=xq):
            ens = cp.gap.JUE(kk, al, be)
            return max(abs(f - cp.gap.gap_cdf(ens, x)) for f, x in zip(vals, xq)) <= 1e-6

        cases.append(Case(f"pvi_jue{kk}", pvi, pvi_check))

    # error-function kernel vs Karlin-McGregor quadrature (verify c13: 1e-7)
    km = {}

    def km_check(f, u, v):
        km["f"] = f
        return _near_rel(_call(a, "edge_f_det", u, v), 1e-7)(f)

    for kk in (2, 2, 3):
        u = rng.normal(size=kk) * 0.6 + 1j * rng.normal(size=kk) * 0.6
        v = rng.normal(size=kk) * 0.6 + 1j * rng.normal(size=kk) * 0.6
        cases.append(Case(
            f"edge_km_k{kk}",
            _call(a, "edge_f_km", u, v),
            lambda f, u=u, v=v: km_check(f, u, v),
            timing="edge_f_km_k3" if kk == 3 else "",
        ))
    # edge_f_det at k = 3 five more times, now with its _kerf_deriv_poly
    # cache warm, against the edge_f_km value just computed
    for _ in range(5):
        cases.append(Case(
            "edge_det_k3_warm",
            _call(a, "edge_f_det", u, v),
            _near_rel(lambda: km["f"], 1e-7),
            timing="edge_f_det_k3",
        ))

    # quadrature oracles
    for ens, x in (
        (g.GUE(2), rng.uniform(-1.5, 1.5)),
        (g.LUE(3, 1.0), rng.uniform(0.5, 5.0)),
        (g.JUE(3, 1.0, 2.0), rng.uniform(0.1, 0.9)),
    ):
        cases.append(Case(
            f"gap_oracle_{type(ens).__name__.lower()}{ens.k}",
            _call(g, "gap_oracle", ens, x),
            _near(_call(g, "gap_cdf", ens, x), 1e-7),
        ))
    gamma = rng.uniform(0.5, 3.5)
    z = rng.uniform(0.2, 0.8)
    cases.append(Case(
        "planar_ginibre_n2",
        _call(o, "planar_moment_ginibre", 2, CC((z,), (gamma,))),
        _near_expm1(_call(d, "ginibre_moment_toeplitz", 2, gamma, z), 1e-4),
    ))
    t = rng.uniform(0.1, 0.8)
    cases.append(Case(
        "lemniscate_quadrature",
        _call(o, "lemniscate_partition_quadrature", t),
        _near_expm1(_call(d, "lemniscate_partition", 1, 2, t), 1e-5),
    ))
    return cases
