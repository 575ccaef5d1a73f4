import json
import re

import pytest

from charpoly.asymptotics import ginibre_edge
from charpoly.dualities import ginibre_moment_exact, tcue_moment_exact
from charpoly.ensembles import ChargeConfiguration, Ginibre, InducedGinibre, TruncatedCUE, mc_moment
from charpoly.verify import CHECKS, mc_versus_route, moment_routes, run_verification_suite


def test_individual_checks_quick():
    for name in ("c02_brute_force", "c10_lemniscate", "c13_edge_multi"):
        results = CHECKS[name]("quick", 1)
        assert results and all(r.passed for r in results)


def test_mc_checks_report_ess_and_seconds():
    checks = CHECKS["c01_mc_ginibre"]("quick", 1) + CHECKS["c08_tcue"]("quick", 1)
    mc = [c for c in checks if c.name.startswith(("c01_mc", "c08_mc"))]
    assert len(mc) == 5
    for c in mc:
        assert re.search(r"20000 samples, ESS \d+, \d+\.\ds$", c.detail), c


def test_report_shape_and_determinism():
    rep1 = run_verification_suite("quick", seed=1)
    assert rep1.checks and rep1.passed
    doc = json.loads(rep1.to_json())
    assert doc["inputs"]["level"] == "quick"
    names = [c["name"] for c in doc["checks"]]
    assert names == sorted(names)
    # each check carries its check function's wall time
    assert all(c["wall_s"] > 0.0 for c in doc["checks"])
    runtime = [c for c in doc["checks"] if c["name"].startswith("c01_")]
    assert len({c["wall_s"] for c in runtime}) == 1
    rep2 = run_verification_suite("quick", seed=1)
    # timing detail strings aside, identical seeds give identical results
    strip = lambda cs: [
        (c["name"], c["passed"], c["observed"], c["tolerance"])
        for c in cs
        if not c["name"].startswith("c01_runtime")
    ]
    assert strip(rep1.checks) == strip(rep2.checks)


def test_level_validation():
    with pytest.raises(ValueError):
        run_verification_suite("medium", 1)


@pytest.mark.parametrize("model, gamma, labels", [
    (Ginibre(8), 2.0, ["exact", "gram"]),
    (Ginibre(8), 1.3, ["gram"]),
    (TruncatedCUE(8, 6), 4.0, ["exact", "gram"]),
])
def test_route_table_takes_the_model(model, gamma, labels):
    assert [label for label, _ in moment_routes(model, gamma, 0.5)] == labels


def test_route_table_refuses_a_model_without_routes():
    with pytest.raises(ValueError, match="no moment routes"):
        moment_routes(InducedGinibre(8, 1.0), 2.0, 0.5)


@pytest.mark.parametrize("model, k, z, exact, log_shift", [
    (Ginibre(8), 2, 0.5, lambda: ginibre_moment_exact(8, 2, 0.5), ginibre_edge(8, 2.0, 0.5)),
    (TruncatedCUE(8, 6), 1, 0.5, lambda: tcue_moment_exact(8, 6, 1, 0.5, 0.5), None),
], ids=["ginibre", "tcue"])
def test_mc_versus_route_is_the_route_table_and_mc_moment(model, k, z, exact, log_shift):
    route, ref, est, seconds = mc_versus_route(model, 2.0 * k, z, 3000, 5, log_shift)
    direct = mc_moment(model, ChargeConfiguration((z,), (2.0 * k,)), 3000, 5, log_shift)
    assert route == "exact" and ref.hex() == exact().hex()
    assert est.log_value.hex() == direct.log_value.hex()
    assert est.stderr_shifted.hex() == direct.stderr_shifted.hex()
    assert seconds > 0.0
