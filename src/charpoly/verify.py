"""Cross-route verification suite: every acceptance-grade identity in one
place, runnable at two levels.

quick: reduced sample counts and grids (target < 5 min)
full:  the complete parameter sets (target < 30 min on 8 cores)

Each check compares independent computational routes (exact duality vs
Gram vs Painleve transport vs Monte Carlo vs brute-force quadrature) and
records the worst observed deviation against its tolerance.
"""

import cmath
import json
import math
import platform
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

from . import asymptotics as asym
from . import dualities as dual
from . import gap as gapmod
from . import oracles
from . import painleve as pain
from .ensembles import (MC_SIGMAS, ChargeConfiguration, Ginibre, TruncatedCUE, _map_chunks,
                        mc_moment, worker_count)
from .specfun import integer

__all__ = ["CheckResult", "RunReport", "run_verification_suite", "CHECKS", "moment_routes",
           "first_route", "mc_versus_route", "mc_detail", "EXPANSIONS", "TRENDS"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    observed: float
    tolerance: float
    detail: str = ""
    wall_s: float | None = None  # the producing check function's wall time in verify


def _git_sha() -> str:
    """The source checkout's commit, read from .git without running git;
    "unknown" for an installed package or an unreadable checkout."""
    git = Path(__file__).resolve().parents[2] / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _provenance() -> dict:
    from . import __version__  # set by the package after it imports this module

    return {
        "charpoly": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "threads": worker_count(),
        "git_sha": _git_sha(),
    }


@dataclass
class RunReport:
    command: str
    inputs: dict
    outputs: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    seed: int = 0
    wall_time: float = 0.0
    provenance: dict = field(default_factory=_provenance)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=_json_default)


def _json_default(x):
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, (np.floating, np.integer)):
        return float(x)
    raise TypeError(f"not JSON serializable: {type(x)}")


def _result(name, observed, tolerance, detail=""):
    ok = bool(observed <= tolerance) and math.isfinite(observed)
    return CheckResult(name, ok, float(observed), float(tolerance), detail)


# ---------------------------------------------------------------------------
# the route table shared by the CLI, the scripts and the convergence trends
# ---------------------------------------------------------------------------

def moment_routes(model, gamma: float, z: complex):
    """(label, thunk) pairs for ln E|det(A - z)|^gamma, most trusted first, A
    of a ``Ginibre`` or ``TruncatedCUE`` model (any other: ValueError).  The
    exact dualities are listed only when gamma/2 is a positive integer; a
    thunk raises ValueError outside its route's domain."""
    k = integer(0.5 * gamma)
    if isinstance(model, Ginibre):
        routes = [("exact", lambda: dual.ginibre_moment_exact(model.n, k, z)),
                  ("gram", lambda: dual.ginibre_moment_toeplitz(model.n, gamma, z))]
    elif isinstance(model, TruncatedCUE):
        m, n = model.m, model.n
        routes = [("exact", lambda: dual.tcue_moment_exact(m, n, k, z, complex(z).conjugate())),
                  ("gram", lambda: dual.tcue_moment_toeplitz(m, n, gamma, z))]
    else:
        raise ValueError(f"no moment routes for {model!r}")
    return routes if k is not None and k >= 1 else routes[1:]


def first_route(routes):
    """(label, value) of the first route that accepts its input, or one
    ValueError with every route's reason when all of them refuse."""
    reasons = []
    for label, fn in routes:
        try:
            return label, fn()
        except ValueError as exc:
            reasons.append(f"{label}: {exc}")
    raise ValueError("every route refused (" + "; ".join(reasons) + ")")


def mc_versus_route(model, gamma: float, z: complex, n_samples: int, seed: int,
                    log_shift: float | None = None):
    """(route, reference, estimate, seconds): ``mc_moment``'s estimate of
    ln E|det(A - z)|^gamma and the first route of ``moment_routes`` that
    accepts the point, timed together.  The charge is built first, so a
    non-integrable gamma is refused as such, and the reference before any
    sample is drawn.  An estimate passes within ``MC_SIGMAS`` standard errors."""
    t0 = time.perf_counter()
    charges = ChargeConfiguration((z,), (gamma,))
    route, ref = first_route(moment_routes(model, gamma, z))
    est = mc_moment(model, charges, n_samples, seed, log_shift=log_shift)
    return route, ref, est, time.perf_counter() - t0


def mc_detail(est, seconds: float) -> str:
    """The "<n> samples, ESS <e>, <s>s" detail of a Monte Carlo check."""
    return f"{est.n_samples} samples, ESS {est.ess:.0f}, {seconds:.1f}s"


def _pair_correlator(p, k1, k2, step=1.0):
    """Charges 2 k1, 2 k2 at z + step u1/sqrt(N), z + step u2/sqrt(N) by the
    finite-N correlator."""
    rn = math.sqrt(p.n)
    return "correlator", dual.correlator_finiteN(
        Ginibre(p.n),
        ChargeConfiguration((p.z + step * p.u1 / rn, p.z + step * p.u2 / rn),
                            (2.0 * k1, 2.0 * k2)),
    )


def _tcue_edge_moment(p):
    """The truncated-CUE moment at M = N + kappa, |z| = 1 - u1/N."""
    kappa = integer(p.kappa)
    if kappa is None:
        raise ValueError("the tcue-edge reference needs an integer kappa = M - N")
    model = TruncatedCUE(p.n + kappa, p.n)
    return first_route(moment_routes(model, 2.0 * p.k, 1.0 - p.u1 / p.n))


# expansion -> (its log, (label, log) of its finite-N reference), each a
# function of a namespace with the `charpoly asym` options n, z, k, k2, gamma,
# kappa, u1 and u2
EXPANSIONS = {
    "interior": (lambda p: asym.bulk_interior(p.n, p.gamma, p.z),
                 lambda p: first_route(moment_routes(Ginibre(p.n), p.gamma, p.z))),
    "edge": (lambda p: asym.ginibre_edge(p.n, p.k, p.z),
             lambda p: first_route(moment_routes(Ginibre(p.n), 2.0 * p.k, p.z))),
    "exterior": (lambda p: asym.ginibre_exterior(p.n, p.k, p.z),
                 lambda p: first_route(moment_routes(Ginibre(p.n), 2.0 * p.k, p.z))),
    "two-charge": (lambda p: asym.bulk_two_charge(p.n, p.k, p.k2, p.z, p.u1, p.u2),
                   lambda p: _pair_correlator(p, p.k, p.k2)),
    "bulk-multi": (
        lambda p: asym.bulk_multi(p.n, p.z, asym.EdgeVectors((p.u1, p.u2), (p.u1, p.u2))),
        lambda p: _pair_correlator(p, 1.0, 1.0)),
    "edge-multi": (
        lambda p: asym.edge_multi(p.n, p.z, asym.EdgeVectors((p.u1, p.u2), (p.u1, p.u2))),
        lambda p: _pair_correlator(p, 1.0, 1.0, -1.0 / complex(p.z).conjugate())),
    "tcue-edge": (lambda p: asym.tcue_edge(p.n, p.kappa, p.k, p.u1), _tcue_edge_moment),
}


# ---------------------------------------------------------------------------
# cross-route checks
# ---------------------------------------------------------------------------

def check_mc_vs_exact_ginibre(level: str, seed: int):
    """Monte Carlo vs the route table's reference (``mc_versus_route``, the
    exact LUE duality at these integer k): N = 8, and at the full level also
    N = 200 at |z| = 1; each point's seconds are also a runtime row."""
    full = level == "full"
    points = (
        [(8, k, z) for k in (1, 2) for z in (0.0, 0.5, 1.0)] + [(200, 1, 1.0)]
        if full
        else [(8, 1, 0.0), (8, 1, 0.5), (8, 2, 0.5)]
    )
    out = []
    for i, (n, k, z) in enumerate(points):
        samples = 200_000 if full and n == 8 else 20_000
        tag = f"k{k}_z{z}" if n == 8 else f"n{n}_k{k}_z{z}"
        _, ref, est, dt = mc_versus_route(Ginibre(n), 2.0 * k, z, samples, seed + i,
                                          log_shift=asym.ginibre_edge(n, float(k), z))
        out.append(_result(f"c01_mc_ginibre_{tag}", est.sigmas(ref), MC_SIGMAS,
                           mc_detail(est, dt)))
        out.append(_result(f"c01_runtime_{tag}", dt, 60.0, "seconds per point"))
    return out


def check_brute_force_oracle(level: str, seed: int):
    """The defining planar integral at N=2 vs the exact route."""
    o = oracles.planar_moment_ginibre(2, ChargeConfiguration((0.5,), (2.0,)))
    e = dual.ginibre_moment_exact(2, 1, 0.5)
    return [_result("c02_planar_oracle_n2", abs(math.expm1(o - e)), 1e-6)]


def check_andreief(level: str, seed: int):
    """gap_cdf (determinant) vs gap_oracle (k-fold quadrature) on grids."""
    npts = 20 if level == "full" else 5
    cases = [
        (gapmod.GUE(2), np.linspace(-2.0, 2.5, npts), "gue2"),
        (gapmod.LUE(2, 0.0), np.linspace(0.3, 9.0, npts), "lue2a0"),
        (gapmod.LUE(2, 3.0), np.linspace(1.0, 14.0, npts), "lue2a3"),
        (gapmod.JUE(2, 1.0, 2.0), np.linspace(0.08, 0.95, npts), "jue212"),
    ]
    out = []
    for ens, grid, tag in cases:
        worst = max(
            abs(gapmod.gap_cdf(ens, float(x)) - gapmod.gap_oracle(ens, float(x)))
            for x in grid
        )
        out.append(_result(f"c03_andreief_{tag}", worst, 1e-7, f"{npts} grid points"))
    return out


def check_painleve_iv(level: str, seed: int):
    """PIV launched from its left asymptote vs GUE gap determinants."""
    out = []
    xs = np.linspace(-3.0, 3.0, 13 if level == "full" else 5)
    for k in (1, 2):
        worst = max(
            abs(pain.piv_f(float(k), float(x)) - gapmod.gap_cdf(gapmod.GUE(k), float(x)))
            for x in xs
        )
        out.append(_result(f"c04_piv_vs_gue{k}", worst, 1e-6))
        if k == 1:
            anchor = abs(pain.piv_f(1.0, 0.0) - 0.5)
            out.append(_result("c04_piv_f1_anchor", anchor, 1e-9, "F_1(0) = 1/2"))
    return out


def check_painleve_v(level: str, seed: int):
    """PV residual of sigma data extracted from log_lue_tail(1, 4)."""
    ts = np.linspace(0.2, 8.0, 25 if level == "full" else 9)
    fam = pain.PV(1.0, 4.0)
    worst = 0.0
    for t in map(float, ts):
        init = pain.sigma_data(
            fam, lambda u: gapmod.log_lue_tail(1, 4.0, u), t, 0.02 * max(1.0, t)
        )
        worst = max(
            worst,
            pain.residual(fam, t, init.sigma0, init.sigma0_prime, init.sigma0_pp_hint),
        )
    return [_result("c05_pv_residual_from_tail", worst, 1e-5, "t in [0.2, 8]")]


def check_painleve_vi(level: str, seed: int):
    """PVI transport vs JUE{1,1,2}, and the t -> 1-t residual
    identity between the h-equation and the sigma-form."""
    fam = pain.pvi_from_jue(1.0, 1.0, 2.0)
    sol = pain.solve_span(fam, pain.init_from_gap(fam, 0.5), 0.03, 0.97, tol=1e-7)
    xs = np.linspace(0.05, 0.95, 13 if level == "full" else 5)
    worst = max(
        abs(
            pain.F_from_sigma(fam, sol, float(x))
            - gapmod.gap_cdf(gapmod.JUE(1, 1.0, 2.0), float(x))
        )
        for x in xs
    )
    out = [_result("c06_pvi_vs_jue", worst, 1e-6)]
    rng = np.random.default_rng(seed)
    worst_id = 0.0
    for _ in range(100 if level == "full" else 20):
        gamma = rng.uniform(0.2, 4.0)
        kappa = rng.uniform(0.2, 4.0)
        nn = rng.uniform(1.0, 8.0)
        s = rng.uniform(0.05, 0.95)
        h, hp, hpp = rng.normal(size=3) * 2.0
        lhs6 = pain.sigma_form_lhs(
            pain.pvi_from_jue(0.5 * gamma, kappa, nn), 1.0 - s, h, -hp, hpp
        )
        lhsh = pain.heqn_lhs(pain.heqn_params(gamma, kappa, nn), s, h, hp, hpp)
        worst_id = max(worst_id, abs(lhs6 + lhsh) / (1.0 + abs(lhs6)))
    out.append(_result("c06_heqn_t_to_1mt_identity", worst_id, 1e-8))
    return out


def check_noninteger_routes(level: str, seed: int):
    """The Gram route vs planar quadrature at gamma = 1.3, vs Painleve V
    transport at N = 4 to 400, and vs the LUE duality where N|z|^2 is large."""
    o = oracles.planar_moment_ginibre(2, ChargeConfiguration((0.6,), (1.3,)))
    t = dual.ginibre_moment_toeplitz(2, 1.3, 0.6)
    out = [_result("c07_toeplitz_vs_oracle_g1.3", abs(math.expm1(o - t)), 1e-4)]
    for g in (1.3, 2.0):
        a = dual.ginibre_moment_pv(4, g, 0.6)
        b = dual.ginibre_moment_toeplitz(4, g, 0.6)
        out.append(_result(f"c07_pv_vs_toeplitz_g{g}", abs(a - b), 1e-6))
    pv = ((64, 4.0, 0.6 * cmath.exp(0.4j)), (64, 1.3, 0.45 * cmath.exp(0.4j)), (400, 2.0, 1.0))
    worst = max(abs(dual.ginibre_moment_pv(*a) - dual.ginibre_moment_toeplitz(*a)) for a in pv)
    out.append(_result("c07_pv_vs_gram_large_n", worst, 1e-8, "N|z|^2 up to 400"))
    worst = max(abs(dual.ginibre_moment_toeplitz(n, 2 * k, z) - dual.ginibre_moment_exact(n, k, z))
                for n, k, z in ((32, 1, 0.8), (32, 2, 1.2), (200, 1, 1.0)))
    out.append(_result("c07_gram_vs_exact", worst, 1e-9, "N|z|^2 up to 200"))
    return out


def check_tcue(level: str, seed: int):
    """Truncated-CUE Monte Carlo vs the route table's reference
    (``mc_versus_route``, the Andreief route at k = 1) and vs the closed form
    C_{2,1,1} = 1/2, the Andreief route vs the polynomial-kernel
    correlator, and the Gram route on |z| = 1 vs the Morris product
    (``log_tcue_r_gamma_one``)."""
    samples = 200_000 if level == "full" else 20_000
    _, ref, est, dt = mc_versus_route(TruncatedCUE(8, 6), 2.0, 0.5, samples, seed)
    out = [_result("c08_mc_tcue", est.sigmas(ref), MC_SIGMAS, mc_detail(est, dt))]
    _, _, est, dt = mc_versus_route(TruncatedCUE(2, 1), 2.0, 0.0, samples, seed + 1)
    out.append(_result("c08_mc_c211", est.sigmas(math.log(0.5)), MC_SIGMAS,
                       f"E|T_11|^2 = 1/2, {mc_detail(est, dt)}"))
    a = dual.tcue_moment_exact(6, 4, 2, 0.5, 0.5)
    b = dual.correlator_finiteN(TruncatedCUE(6, 4),
                                ChargeConfiguration((0.5,), (4.0,)))
    out.append(_result("c08_exact_vs_correlator", abs(a - b), 1e-10))
    worst = max(
        abs(dual.tcue_moment_toeplitz(m, n, g, cmath.exp(0.7j))
            - dual.log_tcue_r_gamma_one(m, n, g))
        for m, n, g in ((5, 3, 1.7), (40, 8, 3.9), (64, 8, -0.5), (20, 12, 2.7))
    )
    out.append(_result("c08_gram_vs_morris", worst, 1e-9, "|z| = 1, gamma in [-0.5, 3.9]"))
    return out


def check_hciz(level: str, seed: int):
    """HCIZ determinant ratio vs Haar Monte Carlo, vs the U(2) closed form
    with nearly merged points, and the block trace identity on sampled
    unitaries."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=3) * 0.6 + 1j * rng.normal(size=3) * 0.6
    v = rng.normal(size=3) * 0.6 + 1j * rng.normal(size=3) * 0.6
    pred = dual.hciz_ratio(u, v) * math.exp(
        sum(math.lgamma(j + 1) for j in range(1, 3))
    )
    mc, err = oracles.haar_mc_hciz(u, v, 100_000 if level == "full" else 20_000, seed)
    dev = abs(pred - mc) / max(err, 1e-300)
    out = [_result("c09_hciz_vs_haar_mc", dev, MC_SIGMAS, "k=3 complex points")]
    # k = 2: e^B (e^{A-B} - 1)/(A - B) with A - B = (u1 - u2)(conj v1 - conj v2)
    worst = 0.0
    for sep in (1e-9, 1e-7, 1e-5):
        uu = (u[0], u[0] + sep * cmath.exp(0.3j))
        vb = np.conj(v[:2])
        d = (uu[0] - uu[1]) * (vb[0] - vb[1])
        want = cmath.exp(uu[0] * vb[1] + uu[1] * vb[0]) * np.expm1(d) / d
        worst = max(worst, abs(dual.hciz_ratio(uu, v[:2]) / want - 1.0))
    out.append(
        _result("c09_hciz_near_coincident", worst, 1e-10, "k=2, separations 1e-9..1e-5")
    )
    from .ensembles import _rng as rng_stream, sample_haar_unitary

    k1, k2 = 2, 1
    u1, u2 = 0.3 + 0.1j, -0.5 + 0.4j
    v1, v2 = 0.2 - 0.3j, 0.7 + 0.2j
    a_mat = np.diag([u1] * k1 + [u2] * k2)
    b_mat = np.diag([np.conj(v1)] * k1 + [np.conj(v2)] * k2)
    worst = 0.0
    for i in range(100):
        uu = sample_haar_unitary(3, rng_stream(seed + 7, i))
        lhs = np.trace(uu @ a_mat @ uu.conj().T @ b_mat)
        c = uu[k1:, :k1]
        rhs = (
            u1 * np.conj(v1) * k1
            + u2 * np.conj(v2) * k2
            - (u2 - u1) * (np.conj(v2) - np.conj(v1)) * np.trace(c @ c.conj().T)
        )
        worst = max(worst, abs(lhs - rhs))
    out.append(_result("c09_explicit_trace", worst, 1e-12, "100 random unitaries"))
    return out


def check_lemniscate(level: str, seed: int):
    """The lemniscate partition function vs 4-dim quadrature,
    and the super-critical exponent kappa_2 = 1/4."""
    lp = dual.lemniscate_partition(1, 2, 0.3)
    lq = oracles.lemniscate_partition_quadrature(0.3)
    out = [_result("c10_lemniscate_vs_quadrature", abs(math.expm1(lp - lq)), 1e-5)]
    out.append(
        _result("c10_kappa2", abs(asym.lemniscate_kappa(2) - 0.25), 0.0, "exact 1/4")
    )
    return out


def _trend(vals, slack=1.10):
    """Decreasing within 10% slack; returns (ok, final)."""
    ok = all(vals[i + 1] <= slack * vals[i] for i in range(len(vals) - 1))
    return ok, vals[-1]


# (expansion, Ns, params): one c11 trend per entry, named after the expansion
TRENDS = (
    ("interior", (50, 200, 800), {"gamma": 2.0, "z": 0.5}),
    ("edge", (50, 200, 800), {"k": 1.0, "z": 1.0}),
    ("two-charge", (8, 32, 128), {"k": 1.0, "k2": 1.0, "z": 0.0, "u1": 0.0, "u2": 1.2}),
    ("tcue-edge", (40, 160, 640), {"k": 1.0, "kappa": 2.0, "u1": 1.0}),
    ("exterior", (50, 200, 800), {"k": 1.0, "z": 1.5}),
    ("bulk-multi", (8, 32, 128), {"z": 0.0, "u1": 0.3, "u2": 1.1}),
    ("edge-multi", (32, 128, 512), {"z": 1.0, "u1": 0.3, "u2": 1.1}),
)


def convergence_rows(level: str):
    """(name, N, exact_log, asym_log) rows for the convergence trends."""
    rows = []
    for name, ns, params in TRENDS:
        expand, reference = EXPANSIONS[name]
        for n in ns:
            p = SimpleNamespace(n=n, **params)
            rows.append((name.replace("-", "_"), n, reference(p)[1], expand(p)))
    return rows


def check_convergence_trends(level: str, seed: int):
    """|exp(exact - asym) - 1| decreasing (10% slack) with final < 0.1."""
    by_name: dict[str, list] = {}
    for name, n, ex, a in convergence_rows(level):
        by_name.setdefault(name, []).append(abs(math.expm1(ex - a)))
    out = []
    for name, vals in by_name.items():
        ok, final = _trend(vals)
        detail = "ratios " + ", ".join(f"{v:.4f}" for v in vals)
        out.append(_result(f"c11_trend_{name}", final if ok else math.inf, 0.1, detail))
    return out


def check_scaling_heuristics(level: str, seed: int):
    """The PV->PIV and PVI->PV rescaling residuals decrease
    along N in {64, 256, 1024} with final value < 1e-2."""
    p5 = [pain.p5_to_p4_residual(2.0, n, 2.0) for n in (64, 256, 1024)]
    p6 = [pain.p6_to_p5_residual(1, 1.0, n, 1.0) for n in (64, 256, 1024)]
    out = []
    for tag, vals in (("p5_to_p4_s2", p5), ("p6_to_p5_t1", p6)):
        ok, final = _trend(vals)
        out.append(
            _result(
                f"c12_{tag}",
                final if ok else math.inf,
                1e-2,
                "residuals " + ", ".join(f"{v:.2e}" for v in vals),
            )
        )
    return out


def check_edge_multicharge(level: str, seed: int):
    """Error-function-kernel determinant vs Karlin-McGregor
    quadrature for k in {2, 3}, and the k=1 erfc reduction."""
    rng = np.random.default_rng(seed)
    out = []
    for k in (2, 3):
        worst = 0.0
        for _ in range(10 if level == "full" else 3):
            u = rng.normal(size=k) * 0.6 + 1j * rng.normal(size=k) * 0.6
            v = rng.normal(size=k) * 0.6 + 1j * rng.normal(size=k) * 0.6
            fd = asym.edge_f_det(u, v)
            fk = asym.edge_f_km(u, v)
            worst = max(worst, abs(fd - fk) / max(abs(fd), 1e-300))
        out.append(_result(f"c13_edge_routes_k{k}", worst, 1e-7))
    worst = max(
        abs(
            complex(asym.edge_f_det([u], [u])).real * math.sqrt(2.0 * math.pi)
            - 0.5 * scipy.special.erfc(-2.0 * u / math.sqrt(2.0))
        )
        for u in (-1.0, -0.3, 0.0, 0.4, 1.2)
    )
    out.append(_result("c13_edge_k1_erfc", worst, 1e-8))
    return out


CHECKS = {
    "c01_mc_ginibre": check_mc_vs_exact_ginibre,
    "c02_brute_force": check_brute_force_oracle,
    "c03_andreief": check_andreief,
    "c04_painleve_iv": check_painleve_iv,
    "c05_painleve_v": check_painleve_v,
    "c06_painleve_vi": check_painleve_vi,
    "c07_noninteger": check_noninteger_routes,
    "c08_tcue": check_tcue,
    "c09_hciz": check_hciz,
    "c10_lemniscate": check_lemniscate,
    "c11_trends": check_convergence_trends,
    "c12_scaling": check_scaling_heuristics,
    "c13_edge_multi": check_edge_multicharge,
}


def run_verification_suite(level: str = "quick", seed: int = 1) -> RunReport:
    """Run every cross-route check; failures are recorded, never raised."""
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    t0 = time.time()
    items = sorted(CHECKS.items())

    def run_one(c: int) -> list[CheckResult]:
        name, fn = items[c]
        t = time.perf_counter()
        try:
            batch = fn(level, seed)
        except Exception as exc:  # a crashed check is a failed check
            batch = [CheckResult(f"{name}_error", False, math.inf, 0.0, repr(exc))]
        wall = time.perf_counter() - t
        for r in batch:
            r.wall_s = wall
        return batch

    results = [r for batch in _map_chunks(run_one, len(items)) for r in batch]
    results.sort(key=lambda r: r.name)
    report = RunReport(
        command=f"verify --level {level}",
        inputs={"level": level},
        outputs=[],
        checks=[asdict(r) for r in results],
        seed=seed,
        wall_time=time.time() - t0,
    )
    if level == "full":
        report.outputs = [
            {"name": f"convergence_{name}_N{n}", "route": "exact|asym", "exact_log": ex,
             "asym_log": a, "ratio": math.exp(ex - a)}
            for name, n, ex, a in convergence_rows(level)
        ]
    return report
