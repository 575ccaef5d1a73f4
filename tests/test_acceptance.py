"""Acceptance checks, run at full level with their target tolerances.

Each test prints one PASS/FAIL line per sub-check so the suite log doubles
as the acceptance report.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import pytest

from charpoly.verify import CHECKS


def _run(criterion_key: str):
    results = CHECKS[criterion_key]("full", 1)
    failed = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{status} {r.name}: observed={r.observed:.3e} tol={r.tolerance:.3e}"
            + (f"  [{r.detail}]" if r.detail else "")
        )
        if not r.passed:
            failed.append(r)
    assert not failed, f"failed sub-checks: {[r.name for r in failed]}"


def test_criterion_01_duality_exactness_mc():
    """MC E|det(G_N - z)|^{2k} at N=8 within 3 stderr of the exact route."""
    _run("c01_mc_ginibre")


def test_criterion_02_brute_force_oracle():
    """4-dim planar quadrature matches the exact route at N=2 to 1e-6."""
    _run("c02_brute_force")


def test_criterion_03_andreief_consistency():
    """gap_cdf vs gap_oracle on 20-point grids, |delta| <= 1e-7."""
    _run("c03_andreief")


def test_criterion_04_painleve_iv():
    """PIV with the -kt - k^2/t asymptote reproduces GUE gap CDFs."""
    _run("c04_painleve_iv")


def test_criterion_05_painleve_v():
    """Normalized PV residual of finite-difference sigma data <= 1e-5."""
    _run("c05_painleve_v")


def test_criterion_06_painleve_vi():
    """PVI transport matches JUE{1,1,2}; h-equation change of variables."""
    _run("c06_painleve_vi")


def test_criterion_07_noninteger_routes():
    """Gram route vs quadrature at gamma=1.3, vs PV transport, and vs the
    LUE duality."""
    _run("c07_noninteger")


def test_criterion_08_truncated_cue():
    """tCUE MC vs Andreief route; C_{2,1,1}; internal route agreement."""
    _run("c08_tcue")


def test_criterion_09_hciz():
    """HCIZ determinant vs Haar MC; block trace identity to 1e-12."""
    _run("c09_hciz")


def test_criterion_10_lemniscate():
    """Lemniscate partition vs 4-dim quadrature; kappa_2 = 1/4."""
    _run("c10_lemniscate")


def test_criterion_11_convergence_trends():
    """Exact/asym ratios decrease along geometric N with final < 0.1."""
    _run("c11_trends")


def test_criterion_12_scaling_heuristics():
    """PV->PIV and PVI->PV residuals decrease with final < 1e-2."""
    _run("c12_scaling")


def test_criterion_13_edge_multicharge():
    """Kernel-determinant and Karlin-McGregor routes agree to 1e-7."""
    _run("c13_edge_multi")
