import csv
import io
import json
import math

import numpy as np
import pytest
import scipy

import charpoly
from charpoly.cli import main
from charpoly.dualities import ginibre_moment_toeplitz
from charpoly.ensembles import worker_count


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_exact_routes_agree(capsys):
    code, out = run_cli(
        capsys, "exact", "--ensemble", "ginibre", "--n", "4", "--k", "1", "--z", "0.5"
    )
    assert code == 0
    doc = json.loads(out)
    routes = {r["route"]: r["log_value"] for r in doc["outputs"]}
    assert set(routes) == {"exact", "gram", "pv"}
    assert abs(routes["exact"] - routes["gram"]) < 1e-10
    assert doc["checks"][0]["passed"]


def test_exact_complex_z(capsys):
    code, out = run_cli(
        capsys, "exact", "--ensemble", "ginibre", "--n", "3", "--k", "1", "--z", "0.3,0.4"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"][0]["passed"]


def test_mc_reproducible_and_within_bars(capsys):
    args = ["mc", "--ensemble", "ginibre", "--n", "4", "--k", "1", "--z", "0.5",
            "--samples", "5000", "--seed", "7"]
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == 0 and code2 == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("wall_time"), d2.pop("wall_time")
    assert d1 == d2  # bit-identical stochastic outputs for a fixed seed
    mc = next(r for r in d1["outputs"] if r["route"] == "mc")
    assert mc["n_samples"] == 5000


def test_report_provenance(capsys):
    code, out = run_cli(capsys, "exact", "--n", "3", "--k", "1", "--z", "0.5")
    assert code == 0
    prov = json.loads(out)["provenance"]
    assert set(prov) == {"charpoly", "numpy", "scipy", "python", "threads", "git_sha"}
    assert (prov["charpoly"], prov["numpy"], prov["scipy"]) == (
        charpoly.__version__, np.__version__, scipy.__version__,
    )
    assert prov["threads"] == worker_count()
    sha = prov["git_sha"]
    assert sha == "unknown" or (len(sha) == 40 and int(sha, 16) >= 0)


def test_gap_with_oracle(capsys):
    code, out = run_cli(
        capsys, "gap", "--ensemble", "lue", "--k", "2", "--alpha", "1.0",
        "--x", "3.0", "--oracle",
    )
    assert code == 0
    doc = json.loads(out)
    assert any(r["route"] == "oracle" for r in doc["outputs"])
    assert all(c["passed"] for c in doc["checks"])


def test_tcue_exact(capsys):
    code, out = run_cli(
        capsys, "exact", "--ensemble", "tcue", "--n", "3", "--m", "5", "--k", "1",
        "--z", "0.5",
    )
    assert code == 0
    doc = json.loads(out)
    routes = {r["route"] for r in doc["outputs"]}
    assert "exact-jue-factored" in routes and "gram" in routes


def test_asym_report(capsys):
    code, out = run_cli(
        capsys, "asym", "--expansion", "interior", "--n", "100", "--gamma", "2.0",
        "--z", "0.5",
    )
    assert code == 0
    doc = json.loads(out)
    ratio = next(r for r in doc["outputs"] if r["name"] == "ratio")
    assert abs(ratio["ratio"] - 1.0) < 0.05


def test_asym_exterior_non_integer_k_compares_the_same_exponent(capsys):
    # the exterior reference once took ginibre_moment_exact(N, int(k), z),
    # the k = 1 moment, and read ratio 4.3e-8 here
    code, out = run_cli(
        capsys, "asym", "--expansion", "exterior", "--n", "40", "--k", "1.5", "--z", "1.5",
    )
    assert code == 0
    doc = json.loads(out)
    exact = next(r for r in doc["outputs"] if r["route"] == "exact")["log_value"]
    assert exact == pytest.approx(ginibre_moment_toeplitz(40, 3.0, 1.5), abs=1e-12)
    ratio = next(r for r in doc["outputs"] if r["name"] == "ratio")["ratio"]
    assert ratio == pytest.approx(0.9523, abs=1e-3)


def test_lemniscate_critical_flagged(capsys):
    code, out = run_cli(
        capsys, "lemniscate", "--n", "2", "--d", "2", "--t", "0.7071", "--regime",
        "critical",
    )
    assert code == 0
    doc = json.loads(out)
    assert any("conjectural" in r["route"] for r in doc["outputs"] if "route" in r)


def test_csv_output_is_parseable(capsys, tmp_path):
    out_file = tmp_path / "report.csv"
    code, _ = run_cli(
        capsys, "gap", "--ensemble", "gue", "--k", "1", "--x", "0.0",
        "--csv", "--out", str(out_file),
    )
    assert code == 0
    raw = out_file.read_bytes()
    assert b"\r\n" in raw  # RFC 4180 line endings
    rows = list(csv.reader(io.StringIO(raw.decode())))
    assert rows[0][0] == "section"
    assert len(rows) >= 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["exact", "mc"])
@pytest.mark.parametrize("order", [[], ["--k", "1", "--gamma", "3"]], ids=["neither", "both"])
def test_order_flags_required_and_exclusive(capsys, command, order):
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "8", "--z", "0.5", *order])
    assert exc.value.code == 2


def test_domain_error_exit_code(capsys):
    code = main(["exact", "--ensemble", "ginibre", "--n", "3", "--gamma", "-3.0"])
    assert code == 2


@pytest.mark.parametrize(
    "argv, skipped",
    [
        (["--n", "40", "--k", "1", "--z", "0.5"], {"pv"}),
        (["--ensemble", "tcue", "--n", "3", "--m", "5", "--k", "1", "--z", "1.5"],
         {"exact-jue-factored"}),
    ],
    ids=["ginibre-n40", "tcue-outside-disc"],
)
def test_exact_skips_refusing_routes(capsys, argv, skipped):
    code, out = run_cli(capsys, "exact", *argv)
    assert code == 0
    doc = json.loads(out)
    assert {r["route"] for r in doc["outputs"] if "skipped" in r} == skipped
    assert all(r["skipped"] for r in doc["outputs"] if "skipped" in r)
    assert [r["route"] for r in doc["outputs"] if "skipped" not in r] == ["exact", "gram"]
    # the two returned routes are checked against each other
    assert [c["name"] for c in doc["checks"]] == ["route_agreement"]
    assert doc["checks"][0]["passed"]


def test_exact_agreement_over_returned_routes(capsys):
    code, out = run_cli(
        capsys, "exact", "--ensemble", "tcue", "--n", "3", "--m", "5", "--gamma", "1.3",
        "--z", "0.5",
    )
    assert code == 0
    doc = json.loads(out)
    assert [r["route"] for r in doc["outputs"]] == ["gram"]
    assert doc["checks"] == []
    code, out = run_cli(
        capsys, "exact", "--ensemble", "tcue", "--n", "3", "--m", "5", "--k", "1",
        "--z", "0.5",
    )
    doc = json.loads(out)
    assert code == 0 and len(doc["outputs"]) == 3
    assert [c["name"] for c in doc["checks"]] == ["route_agreement"]


@pytest.mark.parametrize(
    "argv",
    [
        ["painleve", "--family", "p4", "--k", "1", "--x", "0", "--tol", "1e-13"],
    ],
    ids=["piv-residual-gate"],
)
def test_numerical_refusal_exits_1_with_one_line(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_asym_two_charge_large_n_small_z_returns_value(capsys):
    # at N = 800 and |z| = 0.1 the kernel's 1/h_j and |z|^j over- and
    # underflow on their own
    code, out = run_cli(
        capsys, "asym", "--expansion", "two-charge", "--n", "800", "--k", "1",
        "--k2", "1", "--z", "0.1", "--u1", "0", "--u2", "1",
    )
    assert code == 0
    doc = json.loads(out)
    exact = [r for r in doc["outputs"] if r["route"] == "exact"][0]["log_value"]
    # det{B_802(x_i, conj x_j)}/|Delta|^2 * prod h in 160-digit mpmath
    assert exact == pytest.approx(-1562.5932628214266, abs=1e-9)
    ratio = [r for r in doc["outputs"] if r["name"] == "ratio"][0]["ratio"]
    assert abs(ratio - 1.0) < 0.01


@pytest.mark.parametrize("command", ["exact", "mc"])
def test_tcue_without_m_is_usage_error(capsys, command):
    code = main([command, "--ensemble", "tcue", "--n", "6", "--k", "1", "--z", "0.5"])
    assert code == 2
    assert "--m is required" in capsys.readouterr().err


def test_painleve_subcommand(capsys):
    code, out = run_cli(
        capsys, "painleve", "--family", "p5", "--k", "1", "--alpha", "2.0",
        "--x", "2.5",
    )
    assert code == 0
    doc = json.loads(out)
    assert all(c["passed"] for c in doc["checks"])
    ode = doc["outputs"][0]
    assert ode["route"] == "pv-ode" and ode["nfev"] > 0


@pytest.mark.parametrize(
    "family, extra, route",
    [
        ("p4", ["--x", "0.4"], "piv-ode"),
        ("p6", ["--alpha", "1.0", "--beta", "2.0", "--x", "0.3"], "pvi-ode"),
    ],
)
def test_painleve_route_is_labelled_by_family(capsys, family, extra, route):
    code, out = run_cli(capsys, "painleve", "--family", family, "--k", "1", *extra)
    assert code == 0
    doc = json.loads(out)
    assert all(c["passed"] for c in doc["checks"])
    ode = doc["outputs"][0]
    assert ode["route"] == route
    assert ode["nfev"] > 0 and ode["max_residual"] <= 1e-7
