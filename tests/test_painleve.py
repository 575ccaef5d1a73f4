import math
import time

import numpy as np
import pytest

from charpoly import painleve
from charpoly.gap import GUE, JUE, LUE, gap_cdf, log_gap_cdf, log_lue_tail
from charpoly.painleve import (
    PIV,
    PV,
    PVI,
    BranchError,
    F_from_sigma,
    SigmaInit,
    SolveError,
    heqn_lhs,
    heqn_params,
    init_from_gap,
    log_derivatives,
    p5_to_p4_residual,
    p6_to_p5_residual,
    piv_f,
    piv_solution,
    pvi_from_jue,
    residual,
    sigma_data,
    sigma_form_lhs,
    sigma_pp_roots,
    solve_span,
)


def piv_asymptote(k: float, t):
    """Five-term t -> -infinity series of the PIV solution and derivatives:
    sigma = -kt - k^2/t + 2k^3/t^3 - (k^2 + 9k^4)/t^5 + O(t^-7)."""
    c5 = k * k + 9 * k**4
    s = -k * t - k * k / t + 2 * k**3 / t**3 - c5 / t**5
    sp = -k + k * k / t**2 - 6 * k**3 / t**4 + 5 * c5 / t**6
    spp = -2 * k * k / t**3 + 24 * k**3 / t**5 - 30 * c5 / t**7
    return s, sp, spp


def test_residual_zero_solution():
    # sigma = 0 solves PIV for any k and PV with zero parameter products
    assert residual(PIV(1.3), 0.7, 0.0, 0.0, 0.0) == 0.0
    assert residual(PV(0.0, 0.0), 2.0, 0.0, 0.0, 0.0) == 0.0
    fam = PVI(0.0, 0.0, 0.0)  # b = (0, 0, 0, 0)
    assert residual(fam, 0.4, 0.0, 0.0, 0.0) == 0.0


def test_residual_asymptote_triple():
    for k in (0.5, 1.0, 2.0):
        t = -1e6
        s, sp, spp = piv_asymptote(k, t)
        assert residual(PIV(k), t, s, sp, spp) <= 1e-9


def test_residual_singular_points_rejected():
    with pytest.raises(ValueError):
        residual(PV(1.0, 2.0), 0.0, 0.1, 0.1, 0.1)
    with pytest.raises(ValueError):
        residual(PV(1.0, 2.0), -1.0, 0.1, 0.1, 0.1)  # PV lives on t > 0
    with pytest.raises(ValueError):
        residual(PVI(0.5, 0.0, 1.0), 1.0, 0.1, 0.1, 0.1)  # b = (1, 1, 1/2, 1/2)


def test_pv_residual_from_lue_tail_data():
    fam = PV(1.0, 4.0)
    worst = 0.0
    for t in np.linspace(0.2, 8.0, 25):
        h = 0.02 * max(1.0, t)
        _, l1, l2, l3 = log_derivatives(lambda u: log_lue_tail(1, 4.0, u), float(t), h)
        worst = max(worst, residual(fam, float(t), t * l1, l1 + t * l2, 2 * l2 + t * l3))
    assert worst <= 1e-5


def test_piv_solve_reproduces_gue_cdf():
    sol = piv_solution(1.0)
    assert sol.max_residual <= 1e-8
    for x in np.linspace(-3.0, 3.0, 7):
        f = F_from_sigma(PIV(1.0), sol, float(x))
        assert f == pytest.approx(gap_cdf(GUE(1), float(x)), abs=1e-9)
    assert F_from_sigma(PIV(1.0), sol, 0.0) == pytest.approx(0.5, abs=1e-9)


def test_piv_zero_parameter_trivial():
    sol = piv_solution(0.0)
    assert sol.max_residual == 0.0
    assert np.all(sol._segments[0].dense(np.linspace(-16.0, 8.0, 25)) == 0.0)
    for x in (-14.0, -3.0, 1.0, 8.0, 12.0):
        assert F_from_sigma(PIV(0.0), sol, x) == 1.0


def test_piv_branch_continuity():
    sol = piv_solution(2.0)
    # sigma'' sampled densely on the evaluation window varies smoothly
    ts = np.linspace(-5.0, 5.0, 1001)
    spp = sol._segments[0].dense(ts)[2]
    assert np.max(np.abs(np.diff(spp))) < 0.2  # ~ |sigma'''| * dt, no flips


def test_piv_real_order():
    # negative fractional order used by the critical lemniscate factors
    f0 = piv_f(-0.5, 0.0)
    assert 1.0 < f0 < 1.1
    assert piv_f(-0.5, 7.5) == pytest.approx(1.0, abs=1e-4)


def test_piv_f_warm_call_makes_no_solve(ode_calls):
    k = 1.37
    piv_f(k, 0.0)
    ode_calls.clear()
    assert 0.0 < piv_f(k, 0.75) < 1.0
    assert ode_calls == []


def test_cold_piv_solution_is_one_boundary_value_solve(ode_calls):
    sol = piv_solution.__wrapped__(1.0)
    assert ode_calls == ["solve_bvp"]
    assert sol.nfev > 0  # right-hand-side evaluations, one per node and call
    # the tail amplitude is read where sigma(8) ~ 1e-15: 1/sqrt(2 pi) to ~2e-4
    assert sol._piv_tail == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=5e-4)


# ln F_k(x) at x = -2, 0, 2, 4 from the amplitude-shooting construction this
# solver replaced, where its window was good
FROZEN_LOG_F = {
    -0.95: (0.2913736531260156, 0.004962478107245172, 1.728949396812112e-05, 3.991686972986308e-09),
    -0.9: (0.48888480451336136, 0.01012474651241737, 3.754761854671043e-05, 9.048022734526327e-09),
    -0.5: (0.8237941412360215, 0.04441184404305433, 0.0002740724947898341, 9.358180370172352e-08),
    0.3: (-0.8755211453576948, -0.11128513723417657, -0.0018219232556475195, -1.2885254392706464e-06),
    1.37: (-5.75332694730681, -1.2007627282856532, -0.05425275319178264, -0.00010671012925196848),
    1.5: (-6.51166808347994, -1.4132666772985871, -0.07042899626357978, -0.00015703612085365067),
    1.638973: (-7.359297256306654, -1.6602939279115319, -0.09136725165901537, -0.00023286767113002996),
    2.5: (-13.428637838489824, -3.653176238121801, -0.332062991161619, -0.0018969677722950559),
}


@pytest.mark.parametrize("k", sorted(FROZEN_LOG_F))
def test_piv_f_keeps_the_shooting_values_on_its_window(k):
    for x, want in zip((-2.0, 0.0, 2.0, 4.0), FROZEN_LOG_F[k]):
        assert math.log(piv_f(k, x)) == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_piv_f_matches_the_gue_law_into_the_left_tail(k):
    for x in [*np.arange(-14.0, 8.01, 0.25), -20.0]:
        ref = log_gap_cdf(GUE(k), float(x))
        f = piv_f(float(k), float(x))
        if ref < math.log(5e-324):  # k = 4 at x = -20: both underflow
            assert f == 0.0
        else:
            assert abs(math.log(f) - ref) <= 1e-9, x


def test_piv_f_is_a_distribution_function_into_the_left_tail():
    xs = np.linspace(-20.0, 8.0, 113)
    f = np.array([piv_f(1.5, float(x)) for x in xs])
    assert np.all((f > 0.0) & (f <= 1.0))
    assert np.all(np.diff(f) >= 0.0)
    # at negative order sigma < 0, so F >= 1 and non-increasing
    f = np.array([piv_f(-0.5, float(x)) for x in xs])
    assert np.all(f >= 1.0) and np.all(np.isfinite(f))
    assert np.all(np.diff(f) <= 0.0)


def test_piv_left_series_recurrence_gives_the_known_coefficients():
    k, x = 1.7, -40.0
    c = [-k**2, 2 * k**3, -k**2 * (9 * k**2 + 1), 2 * k**3 * (27 * k**2 + 10),
         -k**2 * (378 * k**4 + 307 * k**2 + 21), 2 * k**3 * (1458 * k**4 + 2140 * k**2 + 483),
         -k**2 * (24057 * k**6 + 56914 * k**4 + 27954 * k**2 + 1485),
         2 * k**3 * (104247 * k**6 + 368284 * k**4 + 325038 * k**2 + 56628)]
    sigma, integral, err = painleve._piv_left(k, x)
    assert sigma == pytest.approx(-k * x + sum(cj * x ** -(2 * j + 1) for j, cj in enumerate(c)),
                                  rel=1e-15)
    assert 0.0 < err < 1e-15
    assert painleve._piv_left(k, -16.0)[1:] == (0.0, 0.0)


def test_piv_f_refuses_where_the_left_series_error_exceeds_tol():
    assert 0.0 < piv_f(1.0, -20.0) < 1e-80
    with pytest.raises(SolveError, match="left series"):
        piv_f(1.0, -20.0, tol=1e-20)


def test_piv_solution_refuses_order_at_or_below_minus_one():
    for k in (-1.0, -1.5):
        with pytest.raises(ValueError, match="k > -1"):
            piv_solution(k)
        with pytest.raises(ValueError):
            piv_f(k, 0.0)


def test_piv_solve_that_does_not_converge_raises(monkeypatch):
    # inside the order envelope a failed solve stays a SolveError: here the
    # node cap is cut below the 1,200 or more nodes that k = 1 needs
    monkeypatch.setattr(painleve, "_PIV_MAX_NODES", 600)
    with pytest.raises(SolveError, match="boundary-value solve failed"):
        piv_solution.__wrapped__(1.0)


@pytest.mark.parametrize("k", [-0.99, 8.5, 10.0])
def test_piv_solution_refuses_orders_outside_its_envelope(k):
    # these spent 0.2-1.2 s before the solve gave up at its node cap
    with pytest.raises(ValueError, match="converges only for"):
        piv_solution.__wrapped__(k)


@pytest.mark.parametrize("k", [1.0, -0.5])
def test_piv_f_reads_the_cached_solution(k):
    fresh = piv_solution.__wrapped__(k)
    for x in (-3.0, -0.4, 0.0, 2.5, 8.0, 8.5):
        assert piv_f(k, x) == F_from_sigma(PIV(k), fresh, x)


def test_piv_f_residual_gate_applies_to_a_cached_solution():
    assert piv_f(1.0, 0.0, tol=1e-8) == pytest.approx(0.5, abs=1e-9)
    assert piv_solution(1.0).max_residual > 3e-14
    with pytest.raises(SolveError, match="node residual"):
        piv_f(1.0, 0.0, tol=3e-14)


def test_transport_from_a_seed_off_the_solution_is_refused():
    # a coarse Richardson step puts the seed off the solution; without an
    # evaluation budget this solve ran past 20 s toward t = 0.02
    fam = PV(4, 3)
    init = sigma_data(fam, lambda x: log_gap_cdf(LUE(4, 3), x), 0.01, h=2.2e-3)
    start = time.perf_counter()
    with pytest.raises(SolveError, match="100000 evaluations"):
        solve_span(fam, init, 0.01, 0.02, tol=1e-7)
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("alpha", [0.0, 1.0, 3.0])
def test_pv_round_trip_largest(k, alpha):
    fam = PV(float(k), alpha)
    t0 = k + alpha + 2.0
    sol = solve_span(fam, init_from_gap(fam, t0), 0.4, 18.0, tol=1e-7)
    for x in (0.8, 3.0, 9.0, 15.0):
        assert F_from_sigma(fam, sol, x) == pytest.approx(
            gap_cdf(LUE(k, alpha), x), abs=1e-6
        )


def test_pv_round_trip_smallest_tail():
    fam = PV(1.0, 1.0)
    init = sigma_data(fam, lambda u: log_lue_tail(1, 1.0, u), 2.0, 8e-3)
    sol = solve_span(fam, init, 0.2, 10.0)
    # analytic (1+x)e^{-x} from the k=1 Andreief reduction
    for x in (0.4, 2.0, 6.0):
        want = (1.0 + x) * math.exp(-x)
        assert F_from_sigma(fam, sol, x) == pytest.approx(want, abs=1e-8)
        assert want == pytest.approx(math.exp(log_lue_tail(1, 1.0, x)), rel=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("beta", [1.0, 2.0])
def test_pvi_round_trip(alpha, beta):
    fam = pvi_from_jue(1.0, alpha, beta)
    sol = solve_span(fam, init_from_gap(fam, 0.5), 0.04, 0.96, tol=1e-7)
    for x in (0.06, 0.3, 0.7, 0.94):
        assert F_from_sigma(fam, sol, x) == pytest.approx(
            gap_cdf(JUE(1, alpha, beta), x), abs=1e-6
        )


def test_pvi_uniform_law_constant_sigma():
    # JUE{1,0,0}: P(x) = x gives the constant solution sigma = 1/2
    fam = pvi_from_jue(1.0, 0.0, 0.0)
    init = init_from_gap(fam, 0.4)
    assert init.sigma0 == pytest.approx(0.5, abs=1e-9)
    assert init.sigma0_prime == pytest.approx(0.0, abs=1e-8)
    assert residual(fam, 0.4, 0.5, 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_init_from_gap_errors():
    fam = pvi_from_jue(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        init_from_gap(fam, 1.5)  # beyond the support, P = 1 identically
    with pytest.raises(FloatingPointError):
        init_from_gap(PV(2.0, 0.0), 1e-100)  # gap probability underflows (log P = -923.5)
    with pytest.raises(ValueError, match="piv_solution"):
        init_from_gap(PIV(2.0), 0.0)  # PIV is one boundary-value solve, never seeded
    with pytest.raises(ValueError):
        init_from_gap(PV(1.5, 0.0), 1.0)  # non-integer determinant size


def test_init_residual_gate():
    bad = SigmaInit(1.0, 5.0, 10.0, 0.0, log_f0=-1.0)
    with pytest.raises((SolveError, BranchError)):
        solve_span(PV(1.0, 2.0), bad, 1.0, 4.0, tol=1e-8)


@pytest.mark.parametrize("fam, sp", [(PV(1.0, 0.0), 6.5e50), (PVI(1.0, 1.0, 2.0), 1e47)])
def test_sigma_form_overflow_names_the_family_and_t(fam, sp):
    # (A/t)^2 in PV, (C/P)^2 in PVI: once a bare OverflowError with no route or t
    name = type(fam).__name__
    with pytest.raises(FloatingPointError, match=f"{name} sigma-form overflows the floats at t=5e-61"):
        sigma_pp_roots(fam, 5e-61, 1.0, sp)


def test_sigma_pp_roots_branch_error():
    with pytest.raises(BranchError):
        sigma_pp_roots(PIV(1.0), 0.0, 0.0, 1.0)  # disc = -4 < 0
    with pytest.raises(BranchError):
        sigma_pp_roots(pvi_from_jue(1.0, 1.0, 2.0), 0.4, 0.3, 0.0)  # sigma''^2 drops out


@pytest.mark.parametrize("fam, lo, hi", [
    (PIV(1.3), -5.0, 5.0),
    (PV(1.0, 2.0), 0.1, 10.0),
    (pvi_from_jue(1.0, 1.0, 2.0), 0.05, 0.95),
], ids=["PIV", "PV", "PVI"])
def test_sigma_form_vanishes_at_both_roots(fam, lo, hi):
    rng = np.random.default_rng(19)
    checked = 0
    for _ in range(200):
        t, (s, sp) = rng.uniform(lo, hi), rng.normal(size=2) * 2.0
        try:
            roots = sigma_pp_roots(fam, t, s, sp)
        except BranchError:
            continue
        size = 1.0 + abs(sigma_form_lhs(fam, t, s, sp, 0.0))
        for r in roots:
            assert abs(sigma_form_lhs(fam, t, s, sp, r)) <= 1e-12 * size
        checked += 1
    assert checked >= 40


def test_solve_domain_guards():
    fam = PV(1.0, 1.0)
    init = init_from_gap(fam, 1.0)
    with pytest.raises(ValueError):
        solve_span(fam, init, -1.0, 2.0)
    with pytest.raises(ValueError):  # a PV span wholly on t < 0
        solve_span(fam, SigmaInit(-1.5, 0.1, 0.1, 0.1, log_f0=-1.0), -2.0, -1.0)
    fam6 = pvi_from_jue(1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        solve_span(fam6, init_from_gap(fam6, 0.5), 0.1, 1.2)


def test_f_from_sigma_span_guard():
    fam = PV(1.0, 1.0)
    sol = solve_span(fam, init_from_gap(fam, 2.0), 1.0, 4.0)
    with pytest.raises(ValueError):
        F_from_sigma(fam, sol, 8.0)


def test_pvi_parameter_maps():
    fam = pvi_from_jue(1.0, 1.0, 2.0)
    assert fam.b == (2.5, 2.5, 1.5, 0.5)
    assert fam.ensemble() == JUE(1, 1.0, 2.0)
    # b does not give this JUE back (b3 - b4 reads 0.1 + 9e-17), so the
    # family keeps (k, alpha, beta) itself
    assert pvi_from_jue(1.0, 0.1, 2.0).ensemble() == JUE(1, 0.1, 2.0)
    with pytest.raises(ValueError, match="integer size"):
        pvi_from_jue(1.5, 0.1, 2.0).ensemble()


def test_heqn_change_of_variable_identity():
    rng = np.random.default_rng(0)
    for _ in range(60):
        gamma = rng.uniform(0.2, 4.0)
        kappa = rng.uniform(0.2, 4.0)
        nn = rng.uniform(1.0, 8.0)
        s = rng.uniform(0.05, 0.95)
        h, hp, hpp = rng.normal(size=3) * 2.0
        lhs6 = sigma_form_lhs(pvi_from_jue(0.5 * gamma, kappa, nn), 1.0 - s, h, -hp, hpp)
        lhsh = heqn_lhs(heqn_params(gamma, kappa, nn), s, h, hp, hpp)
        assert abs(lhs6 + lhsh) <= 1e-8 * (1.0 + abs(lhs6))


def test_p5_to_p4_residual_decreases():
    vals = [p5_to_p4_residual(2.0, n, 1.0) for n in (64, 256, 1024)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.05
    assert p5_to_p4_residual(0.0, 64, 1.0) == 0.0


def test_p5_to_p4_limit_curve_matches_piv():
    # v(s) approaches the PIV k=1 trajectory as N grows
    n = 4096
    x = n - math.sqrt(n) * 1.0
    _, l1, _, _ = log_derivatives(
        lambda u: log_lue_tail(1, float(n), u), x, 0.05 * math.sqrt(n)
    )
    v = -x * l1 / math.sqrt(n)
    phi = math.exp(-0.5) / math.sqrt(2 * math.pi)
    Phi = gap_cdf(GUE(1), 1.0)
    assert v == pytest.approx(phi / Phi, abs=2e-2)


def test_p6_to_p5_residual_decreases():
    vals = [p6_to_p5_residual(1, 1.0, n, 1.0) for n in (64, 256, 1024)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-2
    assert p6_to_p5_residual(0, 1.0, 64, 1.0) == 0.0


def test_p6_to_p5_limit_matches_lue_data():
    # the limiting v reproduces the PV sigma built from lue_tail data
    n = 8192
    k, kappa, t = 1, 1.0, 1.0
    x = t / n
    _, l1, _, _ = log_derivatives(
        lambda u: log_gap_cdf(JUE(k, kappa, float(n)), u), x, x / 9.0
    )
    v = x * (1 - x) * l1
    _, m1, _, _ = log_derivatives(
        lambda u: log_gap_cdf(LUE(k, kappa), u), t, 4e-3
    )
    sigma_pv = t * m1
    assert v == pytest.approx(sigma_pv, abs=5e-3)


def test_init_from_gap_pv_alpha2_matches_analytic_derivative():
    # the LUE(1, 2) tail is Q(3, x): sigma = x dlnQ/dx = -x^3 e^{-x}/(2 Q(3,x) Gamma(3))
    t0 = 0.5
    init = sigma_data(PV(1.0, 2.0), lambda u: log_lue_tail(1, 2.0, u), t0, 4e-3)
    q = math.exp(log_lue_tail(1, 2.0, t0))
    rho = t0**2 * math.exp(-t0) / 2.0
    assert init.sigma0 == pytest.approx(-t0 * rho / q, rel=1e-9)
    assert init.log_f0 == pytest.approx(math.log(q), rel=1e-12)


def test_pv_f_vanishes_toward_origin():
    # lambda_max < x is impossible as x -> 0+
    fam = PV(1.0, 1.0)
    sol = solve_span(fam, init_from_gap(fam, 2.0), 0.05, 8.0, tol=1e-7)
    f = F_from_sigma(fam, sol, 0.05)
    assert 0.0 < f < 2e-3
    assert f == pytest.approx(gap_cdf(LUE(1, 1.0), 0.05), rel=1e-4)


def test_two_way_segments_share_the_seed_anchor():
    # both segments of a two-way solve are anchored at t0 = 0.5 with
    # ln F(t0) = init.log_f0, and F is continuous across t0
    fam = pvi_from_jue(1.0, 1.0, 2.0)
    init = init_from_gap(fam, 0.5)
    sol = solve_span(fam, init, 0.03, 0.97, tol=1e-7)
    below, above = sol._segments
    assert below.hi == above.lo == 0.5
    want = math.exp(init.log_f0)
    for seg in (below, above):
        assert math.exp(seg.log_f(0.5)) == pytest.approx(want, rel=1e-15)
    assert F_from_sigma(fam, sol, 0.5) == pytest.approx(want, rel=1e-15)
    left, right = F_from_sigma(fam, sol, 0.5 - 1e-9), F_from_sigma(fam, sol, 0.5 + 1e-9)
    assert left == pytest.approx(want, rel=1e-8) and right == pytest.approx(want, rel=1e-8)
    assert left < want < right  # a distribution function, increasing through t0
