"""Jimbo-Miwa-Okamoto sigma-forms of Painleve IV/V/VI: residuals, solving,
initialization from gap-probability data, and probability reconstruction.

The sigma-forms are quadratic in sigma''.  Differentiating once gives a
smooth third-order system whose flow conserves the sigma-form left-hand
side, so trajectories launched on a root branch stay on it to integrator
accuracy; branch continuity is then automatic and the conserved residual is
asserted at every output node.

Painleve IV with the t -> -infinity asymptote -kt - k^2/t is a connection
problem: that solution is a separatrix, and integration away from it
amplifies errors like exp(O(t^2)).  ``piv_solution`` therefore solves it as
one boundary-value problem on [-16, 8] (``scipy.integrate.solve_bvp``),
with sigma(-16) from the left series and the two decaying-tail conditions
at t = 8; a cold solve takes 0.03-0.1 s (1,200-2,400 nodes) for k >= -0.6
and 0.3-0.55 s down to k = -0.95 with its continuation in k, on a 2-core
host.  Against the GUE(k) law at k = 1-4, ln F is within 3.2e-10 on
[-14, 8] and, through the integrated series, at x = -20 (k = 1-3; F
underflows there at k = 4).  The solution is cached per order, so a warm
``piv_f`` costs one Gauss-Legendre quadrature of one dense call.  Each
solution segment is anchored at the end where ln F is known (the seed, or
t = 8 for PIV) and sums its transport integral outward from there.
"""

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy import integrate as _integrate
from scipy import special as _special

from . import gap as _gap
from .specfun import _log_upper_gamma_cf

__all__ = [
    "PIV",
    "PV",
    "PVI",
    "SigmaFamily",
    "SigmaInit",
    "SigmaSolution",
    "pvi_from_jue",
    "heqn_params",
    "sigma_form_lhs",
    "heqn_lhs",
    "residual",
    "sigma_pp_roots",
    "log_derivatives",
    "sigma_data",
    "init_from_gap",
    "solve_span",
    "F_from_sigma",
    "piv_solution",
    "piv_log_f",
    "piv_f",
    "p5_to_p4_residual",
    "p6_to_p5_residual",
    "BranchError",
    "SolveError",
]


class BranchError(RuntimeError):
    """Discriminant of the sigma'' quadratic went negative beyond tolerance."""


class SolveError(RuntimeError):
    """Residual or step-size control failed during a sigma-form solve."""


@dataclass(frozen=True)
class PIV:
    """sigma''^2 = (t sigma' - sigma)^2 - 4 sigma'^2 (sigma' + k) on the real
    line; (ln F)' = sigma, and F is the GUE(k) largest-eigenvalue law."""
    k: float
    domain = (-math.inf, math.inf)

    def quadratic(self, t, s, sp):
        u = t * sp - s
        return 1.0, u**2 - 4 * sp**2 * (sp + self.k), 1.0 + u**2

    def sigma_ppp(self, t, s, sp, spp):
        return t * (t * sp - s) - 6 * sp**2 - 4 * self.k * sp

    def integrand(self, t, s):
        return s

    def ensemble(self):
        return _gap.GUE(self.k)


@dataclass(frozen=True)
class PV:
    """(t sigma'')^2 = A^2 - 4 sigma'^2 (sigma' + k + alpha)(sigma' + k), with
    A = sigma - t sigma' + 2 sigma'^2 + (2k + alpha) sigma', on t > 0;
    sigma = t (ln F)', and F is the LUE(k, alpha) largest-eigenvalue law."""
    k: float
    alpha: float
    domain = (0.0, math.inf)

    def quadratic(self, t, s, sp):
        k, a = self.k, self.alpha
        A = s - t * sp + 2 * sp**2 + (2 * k + a) * sp
        return t * t, A**2 - 4 * sp**2 * (sp + k + a) * (sp + k), 1.0 + (A / t) ** 2

    def sigma_ppp(self, t, s, sp, spp):
        k, a = self.k, self.alpha
        A = s - t * sp + 2 * sp**2 + (2 * k + a) * sp
        num = (
            A * (4 * sp + 2 * k + a - t)
            - t * spp
            - 4 * sp * (sp + k + a) * (sp + k)
            - 2 * sp**2 * (2 * sp + 2 * k + a)
        )
        return num / (t * t)

    def integrand(self, t, s):
        return s / t

    def ensemble(self):
        return _gap.LUE(self.k, self.alpha)

    def default_step(self, t0):
        return 4e-3 * t0

    def sigma_init(self, t0, L0, L1, L2, L3):
        return SigmaInit(t0, t0 * L1, L1 + t0 * L2, 2 * L2 + t0 * L3, log_f0=L0)


@dataclass(frozen=True)
class PVI:
    """The JUE(k, alpha, beta) largest-eigenvalue law F on (0, 1), through
    b = (k + h, k + h, h, (beta - alpha)/2) with h = (alpha + beta)/2:
    sigma' (t(1-t) sigma'')^2 = C^2 - prod_j (sigma' - b_j^2), with
    C = sigma'(2 sigma + (1 - 2t) sigma') + b1 b2 b3 b4, and
    sigma = t(1-t) (ln F)' + b1 b2 t - (b1 b2 + b3 b4)/2."""
    k: float
    alpha: float
    beta: float
    b: tuple = field(init=False, repr=False, compare=False)
    domain = (0.0, 1.0)

    def __post_init__(self):
        half = 0.5 * (self.alpha + self.beta)
        b = (self.k + half, self.k + half, half, 0.5 * (self.beta - self.alpha))
        object.__setattr__(self, "b", tuple(map(float, b)))

    def quadratic(self, t, s, sp):
        b1, b2, b3, b4 = self.b
        P = t * (1.0 - t)
        C = sp * (2 * s + (1 - 2 * t) * sp) + b1 * b2 * b3 * b4
        prod = (sp - b1**2) * (sp - b2**2) * (sp - b3**2) * (sp - b4**2)
        return sp * P * P, C**2 - prod, 1.0 + abs(C / P) ** 2

    def sigma_ppp(self, t, s, sp, spp):
        b1, b2, b3, b4 = self.b
        P = t * (1.0 - t)
        Pp = 1.0 - 2.0 * t
        C = sp * (2 * s + Pp * sp) + b1 * b2 * b3 * b4
        d1, d2, d3, d4 = sp - b1**2, sp - b2**2, sp - b3**2, sp - b4**2
        s1 = d2 * d3 * d4 + d1 * d3 * d4 + d1 * d2 * d4 + d1 * d2 * d3
        num = 4 * C * (s + Pp * sp) - s1 - (P * spp) ** 2 - 2 * sp * P * Pp * spp
        return num / (2 * sp * P * P)

    def integrand(self, t, s):
        b1, b2, b3, b4 = self.b
        return (s - b1 * b2 * t + 0.5 * (b1 * b2 + b3 * b4)) / (t * (1.0 - t))

    def ensemble(self):
        return _gap.JUE(self.k, self.alpha, self.beta)

    def default_step(self, t0):
        return 4e-3 * min(t0, 1.0 - t0)

    def sigma_init(self, t0, L0, L1, L2, L3):
        b1, b2, b3, b4 = self.b
        P = t0 * (1.0 - t0)
        Pp = 1.0 - 2.0 * t0
        s = P * L1 + b1 * b2 * t0 - 0.5 * (b1 * b2 + b3 * b4)
        sp = Pp * L1 + P * L2 + b1 * b2
        spp = -2 * L1 + 2 * Pp * L2 + P * L3
        return SigmaInit(t0, s, sp, spp, log_f0=L0)


SigmaFamily = PIV | PV | PVI
pvi_from_jue = PVI  # the PVI of the JUE(k, alpha, beta) largest-eigenvalue law


def heqn_params(gamma: float, kappa: float, n: float) -> tuple:
    """Parameters of the h-form of the truncated-CUE finite-N equation."""
    return (
        0.5 * (kappa + n),
        0.5 * (kappa + gamma + n),
        0.5 * (n - kappa),
        -0.5 * (n + gamma + kappa),
    )


# ---------------------------------------------------------------------------
# sigma-form left-hand sides, residuals and sigma'' roots
# ---------------------------------------------------------------------------

def _check_domain(f: SigmaFamily, *ts: float) -> None:
    """ValueError unless every t lies in ``f.domain``, the open interval where
    the family's sigma-form is regular."""
    a, b = f.domain
    if not all(a < t < b for t in ts):
        raise ValueError(f"{type(f).__name__} sigma-form needs t in ({a}, {b}), got {ts}")


def sigma_form_lhs(f: SigmaFamily, t, s, sp, spp):
    """c sigma''^2 - d, the sigma-form of ``f.quadratic(t, s, sp)`` = (c, d, scale)."""
    c, d, _ = f.quadratic(t, s, sp)
    return c * spp**2 - d


def heqn_lhs(btilde: tuple, t, h, hp, hpp):
    """LHS of the companion h-equation (truncated-CUE finite-N form):
    h'(t(1-t)h'')^2 + (h'(2h-(2t-1)h') + prod b~)^2 - prod(h' + b~_j^2)."""
    b1, b2, b3, b4 = btilde
    P = t * (1.0 - t)
    C = hp * (2 * h - (2 * t - 1) * hp) + b1 * b2 * b3 * b4
    prod = (hp + b1**2) * (hp + b2**2) * (hp + b3**2) * (hp + b4**2)
    return hp * (P * hpp) ** 2 + C**2 - prod


def _residual(f: SigmaFamily, t, s, sp, spp):
    return abs(sigma_form_lhs(f, t, s, sp, spp)) / (1.0 + s * s + (t * sp) ** 2)


def residual(f: SigmaFamily, t, s, sp, spp) -> float:
    """Scale-normalized sigma-form residual |LHS| / (1 + |s|^2 + |t s'|^2)."""
    _check_domain(f, t)
    return float(_residual(f, t, s, sp, spp))


def sigma_pp_roots(f: SigmaFamily, t, s, sp):
    """The two sigma'' roots of the sigma-form at (t, s, s').

    A discriminant below -1e-9 (relative), or a vanishing sigma''^2
    coefficient (PVI at sigma' = 0), raises BranchError; small negatives
    clamp to the double root.  A sigma-form that overflows the floats (PV
    and PVI near t = 0) raises FloatingPointError.
    """
    _check_domain(f, t)
    try:
        c, d, scale = f.quadratic(t, s, sp)
    except OverflowError:  # a float ** that leaves the floats, as (A/t)^2 in PV
        raise FloatingPointError(
            f"{type(f).__name__} sigma-form overflows the floats at t={t}") from None
    if c == 0:
        raise BranchError(f"{type(f).__name__} sigma'' undefined at t={t}, sigma'={sp}")
    d = d / c
    if d < -1e-9 * scale:
        raise BranchError(
            f"negative sigma'' discriminant {d:.3e} at t={t} (branch degeneracy)"
        )
    r = math.sqrt(max(d, 0.0))
    return r, -r


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SigmaInit:
    t0: float
    sigma0: float
    sigma0_prime: float
    sigma0_pp_hint: float  # selects the sigma'' root branch
    log_f0: float  # ln of the transported probability at t0


def log_derivatives(fn: Callable[[float], float], t0: float, h: float):
    """(f, f', f'', f''') by Richardson-extrapolated central differences;
    FloatingPointError where h^3 falls below the normal floats."""
    if abs(h) ** 3 < sys.float_info.min:
        raise FloatingPointError(f"difference step h={h} is too small: h^3 underflows")
    f = {j: fn(t0 + j * h) for j in (-4, -2, -1, 0, 1, 2, 4)}
    d1h = (f[-2] - 8 * f[-1] + 8 * f[1] - f[2]) / (12 * h)
    d1h2 = (f[-4] - 8 * f[-2] + 8 * f[2] - f[4]) / (24 * h)
    d1 = (16 * d1h - d1h2) / 15
    d2h = (-f[-2] + 16 * f[-1] - 30 * f[0] + 16 * f[1] - f[2]) / (12 * h * h)
    d2h2 = (-f[-4] + 16 * f[-2] - 30 * f[0] + 16 * f[2] - f[4]) / (48 * h * h)
    d2 = (16 * d2h - d2h2) / 15
    d3h = (-f[-2] + 2 * f[-1] - 2 * f[1] + f[2]) / (2 * h**3)
    d3h2 = (-f[-4] + 2 * f[-2] - 2 * f[2] + f[4]) / (16 * h**3)
    d3 = (4 * d3h - d3h2) / 3
    return f[0], d1, d2, d3


def sigma_data(f: SigmaFamily, logp: Callable[[float], float], t0: float,
               h: Optional[float] = None) -> SigmaInit:
    """Initial data (t0, sigma, sigma', sigma'' hint) from Richardson
    differences of step h on logp = ln F, the probability the family
    transports (``f.integrand`` is d ln F/dt), mapped to sigma by
    ``f.sigma_init``.  The default step ``f.default_step(t0)`` is 4e-3 of
    the distance from t0 to the nearest singular point of the sigma-form,
    where a gap probability's ln F has a log singularity.  The sigma'' hint
    selects the root branch.  Refuses PIV, whose connection solution is one
    boundary-value solve (``piv_solution``) with no seed, t0 outside the
    family's domain and an F that is identically 1 at t0 (ValueError), and
    an F that underflows there (FloatingPointError).
    """
    if isinstance(f, PIV):
        raise ValueError("PIV takes no seed: its connection solution is piv_solution(k)")
    _check_domain(f, t0)
    L0, L1, L2, L3 = log_derivatives(logp, t0, f.default_step(t0) if h is None else h)
    if L0 < math.log(1e-300):
        raise FloatingPointError(f"probability underflows at t0={t0} (log P = {L0:.1f})")
    if L0 == 0.0:
        raise ValueError(f"probability is identically 1 at t0={t0}; no sigma data there")
    return f.sigma_init(t0, L0, L1, L2, L3)


def init_from_gap(f: SigmaFamily, t0: float) -> SigmaInit:
    """``sigma_data`` at t0 from the largest-eigenvalue CDF of ``f.ensemble()``."""
    ens = f.ensemble()
    return sigma_data(f, lambda x: _gap.log_gap_cdf(ens, x), t0)


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


class _Segment:
    """One dense trajectory piece, anchored at the end t_a where ln F is
    known: ln F(t) is ln F(t_a) plus the transport integral from t_a.

    The integral is evaluated after the solve by per-interval Gauss
    quadrature on the dense output, so it never perturbs the ODE flow.  It
    is summed outward from t_a, so that it is exact to round-off of its own
    size near the anchor.  The node residuals are computed on construction.
    """

    def __init__(self, family, dense, nodes, anchor):
        self.family = family
        self.dense = dense
        self.nodes = np.sort(np.asarray(nodes, dtype=float))
        self.lo = float(self.nodes[0])
        self.hi = float(self.nodes[-1])
        t_a, self.log_fa = anchor
        parts = self._gl(self.nodes[:-1], self.nodes[1:])
        self._cum = (-np.cumsum([0.0, *parts[::-1]])[::-1] if t_a == self.hi
                     else np.cumsum([0.0, *parts]))
        self.max_residual = float(np.max(_residual(family, self.nodes, *dense(self.nodes))))

    def _gl(self, a: np.ndarray, b: np.ndarray) -> list:
        """Gauss-Legendre integrals over each [a_i, b_i], from one dense call."""
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        ts = mid[:, None] + half[:, None] * _GL_NODES
        vals = self.family.integrand(ts, self.dense(ts.ravel())[0].reshape(ts.shape))
        # each row as a fresh list: np.dot on row views can round differently
        return [h * float(np.dot(_GL_WEIGHTS, v.tolist())) if h else 0.0
                for h, v in zip(half, vals)]

    def log_f(self, t: float) -> float:
        t = float(np.clip(t, self.lo, self.hi))
        i = min(int(np.searchsorted(self.nodes, t, side="right")) - 1, self.nodes.size - 2)
        return self.log_fa + (self._cum[i] + self._gl(self.nodes[i:i + 1], np.array([t]))[0])


@dataclass
class SigmaSolution:
    """Segments covering the solved span, each carrying its own ln F anchor."""
    family: SigmaFamily
    _segments: list = field(repr=False)
    nfev: int = 0  # ODE right-hand-side evaluations spent building it
    _piv_tail: Optional[float] = field(repr=False, default=None)  # PIV tail amplitude

    @property
    def max_residual(self) -> float:  # the largest node residual of any segment
        return max(seg.max_residual for seg in self._segments)

    def _segment(self, t: float) -> _Segment:
        for seg in self._segments:
            if seg.lo - 1e-12 <= t <= seg.hi + 1e-12:
                return seg
        raise ValueError(f"t={t} outside the solved span [{min(s.lo for s in self._segments)}, "
                         f"{max(s.hi for s in self._segments)}]")

    def log_f(self, t: float) -> float:
        """ln F at t (within the covered span), from its segment's anchor;
        right of t = 8 a PIV solution gives its closed-form tail."""
        if self._piv_tail is not None and t >= _PIV_SPAN[1]:
            return _piv_log_tail(self.family.k, self._piv_tail, t)
        return self._segment(t).log_f(t)


_SEGMENT_NFEV = 100_000  # legitimate segments have spent at most 947


def _integrate_segment(f, t0, y0, t1):
    """One DOP853 solve from t0 to t1, refused with SolveError once it has
    spent _SEGMENT_NFEV right-hand-side evaluations: a seed off the solution
    otherwise creeps toward t1 for minutes while its dense output grows."""
    nfev = 0

    def rhs(t, y):  # (sigma, sigma', sigma'')' on the flow of the sigma-form
        nonlocal nfev
        nfev += 1
        if nfev > _SEGMENT_NFEV:
            raise SolveError(f"integration from {t0} to {t1} spent {_SEGMENT_NFEV} "
                             f"evaluations; the seed is likely off the solution")
        return [y[1], y[2], f.sigma_ppp(t, y[0], y[1], y[2])]

    sol = _integrate.solve_ivp(
        rhs,
        [t0, t1],
        y0,
        method="DOP853",
        rtol=1e-11,
        atol=1e-12,
        dense_output=True,
    )
    if sol.status != 0:
        raise SolveError(
            f"integration from {t0} to {t1} stopped at t={sol.t[-1]} "
            f"(status {sol.status}); likely a pole or stiffness"
        )
    return sol


def _initial_spp(f: SigmaFamily, init: SigmaInit, tol: float) -> float:
    r1, r2 = sigma_pp_roots(f, init.t0, init.sigma0, init.sigma0_prime)
    hint = init.sigma0_pp_hint
    spp = r1 if abs(r1 - hint) <= abs(r2 - hint) else r2
    res = residual(f, init.t0, init.sigma0, init.sigma0_prime, spp)
    if res > 10.0 * tol:
        raise SolveError(
            f"initial data residual {res:.3e} exceeds 10*tol at t0={init.t0}"
        )
    return spp


def solve_span(
    f: SigmaFamily,
    init: SigmaInit,
    lo: float,
    hi: float,
    tol: float = 1e-8,
) -> SigmaSolution:
    """Solve covering [lo, hi] from the seed init.t0 in [lo, hi], integrating
    out to each end that differs from it.  Each piece is a segment anchored
    at t0, where ln F = init.log_f0; a seed inside the span gives two."""
    if lo >= hi:
        raise ValueError("need lo < hi")
    _check_domain(f, lo, hi)
    t0 = init.t0
    if not lo <= t0 <= hi:
        raise ValueError("initial point must lie inside [lo, hi]")
    spp0 = _initial_spp(f, init, tol)
    y0 = [init.sigma0, init.sigma0_prime, spp0]
    segments, nfev = [], 0
    for target in (lo, hi):
        if target != t0:
            seg = _integrate_segment(f, t0, y0, target)
            segments.append(_Segment(f, seg.sol, seg.t, (t0, init.log_f0)))
            nfev += seg.nfev
    return _check_residual(SigmaSolution(f, segments, nfev), tol)


def _check_residual(sol: SigmaSolution, tol: float) -> SigmaSolution:
    if sol.max_residual > tol:
        raise SolveError(f"node residual {sol.max_residual:.3e} exceeds tol={tol}")
    return sol


# ---------------------------------------------------------------------------
# Painleve IV connection problem as one boundary-value solve
# ---------------------------------------------------------------------------

_PIV_SPAN = (-16.0, 8.0)  # the left series holds left of it, the linear tail right
_PIV_TOL, _PIV_BC_TOL, _PIV_NODES, _PIV_MAX_NODES = 1e-9, 1e-13, 500, 10_000
_PIV_CONTINUE = -0.6  # below it the k sigma_1 guess fails; continue in k instead
_PIV_ORDERS = (-0.985, 8.35)  # every order measured in here converges (piv_solution)


def _piv_tail_g(k: float, t: float):
    """(g, g'/g, g''/g) of the right tail g = t^{2k-2} e^{-t^2/2}."""
    m = 2.0 * k - 2.0
    return t**m * math.exp(-0.5 * t * t), m / t - t, m * (m - 1) / (t * t) - (2 * m + 1) + t * t


def _piv_left(k: float, x: float):
    """(sigma(x), int_x^{-16} sigma dt, error of that integral) for x <= -16
    from the left series sigma = -kt + sum_j c_j t^{-(2j+1)}.

    The c_j come from the recurrence the sigma-form gives (c_0 = -k^2,
    c_1 = 2k^3, c_2 = -k^2(9k^2 + 1), ...).  The series is summed up to its
    smallest term at t = -16, or to a term below 1e-17 of kt there; that
    first term not summed, integrated, is the error estimate."""
    L, c, prev = _PIV_SPAN[0], [], math.inf
    while True:
        j = len(c)
        v = -2.0 * k * k if j == 0 else (  # the c[j - 2] factor is zero at j = 1
            (2 * j - 3) * (2 * j - 2) * (2 * j - 1) * c[j - 2] - 8 * k * (2 * j - 1) * c[j - 1]
            - 6 * sum((2 * i + 1) * (2 * j - 3 - 2 * i) * c[i] * c[j - 2 - i] for i in range(j - 1)))
        c.append(v / (2 * j + 2))
        term = abs(c[-1] * L ** -(2 * j + 1))
        if term >= prev:
            c.pop()
            break
        if term <= 1e-17 * abs(k * L):
            break
        prev = term
    *c, c_err = c

    def anti(j, t):  # an antiderivative of t^{-(2j+1)}
        return math.log(-t) if j == 0 else t ** (-2 * j) / (-2 * j)

    sigma = -k * x + sum(cj * x ** -(2 * j + 1) for j, cj in enumerate(c))
    integral = 0.5 * k * (x * x - L * L) + sum(cj * (anti(j, L) - anti(j, x)) for j, cj in enumerate(c))
    return sigma, integral, abs(c_err * (anti(len(c), L) - anti(len(c), x)))


def _piv_guess(k: float, t: np.ndarray) -> np.ndarray:
    """k sigma_1(t - sqrt(max(k, 0)) + 1) and its derivatives, where
    sigma_1 = phi/Phi is the exact k = 1 solution."""
    s = t - math.sqrt(max(k, 0.0)) + 1.0
    s1 = np.exp(-0.5 * s * s - _special.log_ndtr(s)) / math.sqrt(2.0 * math.pi)
    s1p = -s1 * (s + s1)
    return k * np.array([s1, s1p, -s1p * (s + s1) - s1 * (1.0 + s1p)])


@lru_cache(maxsize=64)
def piv_solution(k: float) -> SigmaSolution:
    """The PIV solution matching the left asymptote -kt - k^2/t, for real
    k in [-0.985, 8.35] (the mathematical domain is k > -1), cached per order.

    One ``solve_bvp`` on [-16, 8] (tol 1e-9, bc_tol 1e-13, from 500 uniform
    nodes): sigma(-16) from the left series (``_piv_left``), and at t = 8
    sigma'/sigma and sigma''/sigma of the tail g = t^{2k-2} e^{-t^2/2}.  The
    guess is ``_piv_guess``; below k = -0.6 it is the cached solution at
    order min(2k + 1, -0.6) instead, so the steps halve toward -1.  Right
    of 8, F is the closed-form tail with amplitude a = sigma(8)/g(8).  The
    amplitude is read where sigma(8) is about 1e-15 (k = 1), so it is good
    only to about 2e-4 relative (0.39903 against 1/sqrt(2 pi) = 0.39894 at
    k = 1); it affects F only for x >= 8.

    Envelope: on a k grid fixed in advance (steps 0.005 from -0.999, 0.05
    from -0.95, 0.025 from 8 to 10) the solve converges from k = -0.985 to
    8.35 (node residuals below 1.9e-9) and nowhere outside, where it spends
    0.2-1.2 s before its node cap.  Other orders raise ValueError; a failed
    solve inside raises SolveError.
    """
    k = float(k)
    if not _PIV_ORDERS[0] <= k <= _PIV_ORDERS[1]:
        raise ValueError(f"PIV connection solution needs k > -1, and converges only for "
                         f"{_PIV_ORDERS[0]} <= k <= {_PIV_ORDERS[1]}; got {k}")
    (lo, hi), f = _PIV_SPAN, PIV(k)
    mesh = np.linspace(lo, hi, _PIV_NODES)
    guess = (piv_solution(min(2.0 * k + 1.0, _PIV_CONTINUE))._segments[0].dense(mesh)
             if k < _PIV_CONTINUE else _piv_guess(k, mesh))
    left = _piv_left(k, lo)[0]
    g, d1, d2 = _piv_tail_g(k, hi)
    nfev = 0

    def rhs(t, y):
        nonlocal nfev
        nfev += t.size
        return np.asarray([y[1], y[2], f.sigma_ppp(t, y[0], y[1], y[2])])

    def bc(ya, yb):
        return np.array([ya[0] - left, yb[1] - d1 * yb[0], yb[2] - d2 * yb[0]])

    sol = _integrate.solve_bvp(rhs, bc, mesh, guess, tol=_PIV_TOL, bc_tol=_PIV_BC_TOL,
                               max_nodes=_PIV_MAX_NODES)
    if not sol.success:
        raise SolveError(f"PIV boundary-value solve failed for k={k}: {sol.message}")
    a = float(sol.y[0, -1]) / g
    seg = _Segment(f, sol.sol, sol.x, (hi, _piv_log_tail(k, a, hi)))
    return SigmaSolution(f, [seg], nfev, _piv_tail=a)


def _piv_log_tail(k: float, a: float, x: float) -> float:
    """ln F contribution -int_x^inf sigma dt in the pure-tail regime:
    sigma ~ a t^{2k-2} e^{-t^2/2}; the integral is an upper incomplete gamma,
    int_x^inf t^{2k-2} e^{-t^2/2} dt = 2^{k-3/2} Gamma(k-1/2, x^2/2).

    The continued fraction handles any real order (Gamma(k-1/2) itself may
    sit at a pole for k <= 1/2, but the incomplete integral is fine)."""
    if a == 0.0:
        return 0.0
    val = (k - 1.5) * math.log(2.0) + _log_upper_gamma_cf(k - 0.5, 0.5 * x * x)
    return -a * math.exp(val)


def piv_log_f(k: float, x: float, tol: float = 1e-8) -> float:
    """ln F_k(x) = -int_x^inf sigma_IV for real k in the envelope of
    ``piv_solution``, read from the cached solution; raises SolveError if its
    node residual exceeds tol.  Left of -16, ln F is ln F(-16) minus the left
    series integrated in closed form, and SolveError is raised where that
    series' error estimate exceeds tol.

    At k = 1, 2, 3 and 4, ln F is within 3.2e-10 of the GUE(k) law on
    [-14, 8] and at x = -20, where F underflows at k = 4 and ln F does not.
    The node residual is 2e-13 to 1.1e-12 from k = -0.95 to 4."""
    k, lo = float(k), _PIV_SPAN[0]
    integral, err = _piv_left(k, x)[1:] if x < lo else (0.0, 0.0)
    if err > tol:
        raise SolveError(f"left series error {err:.3e} exceeds tol={tol} at x={x}, k={k}")
    return _check_residual(piv_solution(k), tol).log_f(max(x, lo)) - integral


def piv_f(k: float, x: float, tol: float = 1e-8) -> float:
    """F_k(x) = exp(``piv_log_f(k, x, tol)``)."""
    return math.exp(piv_log_f(k, x, tol))


# ---------------------------------------------------------------------------
# probability reconstruction
# ---------------------------------------------------------------------------

def F_from_sigma(f: SigmaFamily, sol: SigmaSolution, x: float) -> float:
    """The transported probability exp(sol.log_f(x)): ln F at the anchor of
    the segment holding x plus the family integrand integrated from there,
    or right of t = 8 a PIV solution's closed-form tail.  An x outside the
    solved span raises ValueError."""
    return math.exp(sol.log_f(x))


# ---------------------------------------------------------------------------
# scaling-limit residuals
# ---------------------------------------------------------------------------

def p5_to_p4_residual(gamma: float, n: int, s: float) -> float:
    """PIV residual of v(s) = -N^{-1/2} sigma^V_{gamma/2,N}(N - sqrt(N) s).

    The sigma^V data comes from the exact finite-N smallest-eigenvalue tail
    (a Painleve V solution at any N); the residual measures how far the
    rescaled function is from solving the limiting PIV equation.
    """
    if gamma == 0.0:
        return 0.0
    if n < 16:
        raise ValueError("requires N >= 16")
    lue = _gap.LUE(gamma / 2.0, float(n))  # refuses a gamma/2 that is not a positive integer
    init = sigma_data(
        PV(gamma / 2.0, float(n)),
        lambda t: _gap.log_lue_tail(lue.k, lue.alpha, t),
        n - math.sqrt(n) * s,
        0.05 * math.sqrt(n),
    )
    v = -init.sigma0 / math.sqrt(n)
    vp = init.sigma0_prime
    vpp = -math.sqrt(n) * init.sigma0_pp_hint
    return residual(PIV(gamma / 2.0), s, v, vp, vpp)


def p6_to_p5_residual(k: float, kappa: float, n: int, t: float) -> float:
    """PV (alpha=kappa) residual of the rescaled PVI function
    v(t) = sigma^VI(t/N) - b1 b2 t/N + (b1 b2 + b3 b4)/2, where sigma^VI is
    the finite-N JUE largest-eigenvalue solution with (alpha, beta) =
    (kappa, N).  Equals x(1-x) dlogP/dx at x = t/N, so the large parameters
    cancel analytically before differencing.
    """
    if k == 0.0:
        return 0.0
    jue = _gap.JUE(k, kappa, float(n))  # refuses a k that is not a positive integer
    x = t / n
    if not 0.0 < x < 1.0:
        raise ValueError("t/N must lie in (0, 1)")
    h = min(x, 1.0 - x) / 9.0
    L0, L1, L2, L3 = log_derivatives(lambda u: _gap.log_gap_cdf(jue, u), x, h)
    v = x * (1 - x) * L1
    vp = ((1 - 2 * x) * L1 + x * (1 - x) * L2) / n
    vpp = (x * (1 - x) * L3 + 2 * (1 - 2 * x) * L2 - 2 * L1) / (n * n)
    return residual(PV(float(k), float(kappa)), t, v, vp, vpp)
