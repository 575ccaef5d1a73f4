import math

import numpy as np
import pytest
from scipy import integrate

from charpoly.oracles import _charge_factor, _pick_center, _polar_grid


@pytest.fixture
def ode_calls(monkeypatch):
    """Names of every ``scipy.integrate.solve_ivp`` and ``solve_bvp`` call
    made while the test runs, in order."""
    calls = []
    for name in ("solve_ivp", "solve_bvp"):
        orig = getattr(integrate, name)

        def counting(*args, _name=name, _orig=orig, **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(integrate, name, counting)
    return calls


def _planar_moment_tcue(m, charges, n_r=400, n_th=256):
    """ln E prod_i |det(T - z_i)|^{gamma_i} for the N=1 truncation of Haar
    U(M): one eigenvalue on the unit disc with weight (1-|lam|^2)^{M-2},
    by polar quadrature."""
    if m < 2:
        raise ValueError("needs M >= 2 so the truncated block is proper")
    center, idx, mu = _pick_center(charges)
    if idx >= 0 and abs(center) > 0:
        raise ValueError("non-even exponents are supported at z = 0 only here")
    if mu >= 0.0:
        idx, mu = -1, 0.0
    lam, wgt = _polar_grid(0.0 + 0.0j, 1.0, n_r, n_th, mu=mu)
    inside = np.abs(lam) < 1.0
    wfun = np.zeros(lam.shape)
    wfun[inside] = (1.0 - np.abs(lam[inside]) ** 2) ** (m - 2)
    f = wfun * _charge_factor(lam, charges, skip=idx)
    lam0, wgt0 = _polar_grid(0.0 + 0.0j, 1.0, n_r, n_th)
    wfun0 = np.zeros(lam0.shape)
    ins0 = np.abs(lam0) < 1.0
    wfun0[ins0] = (1.0 - np.abs(lam0[ins0]) ** 2) ** (m - 2)
    return math.log(float(np.sum(wgt * f)) / float(np.sum(wgt0 * wfun0)))


@pytest.fixture
def planar_moment_tcue():
    """The N=1 truncated-CUE planar quadrature oracle (see
    ``_planar_moment_tcue``)."""
    return _planar_moment_tcue
