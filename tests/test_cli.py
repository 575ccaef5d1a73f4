import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy

import charpoly
from charpoly import verify
from charpoly.cli import main
from charpoly.dualities import ginibre_moment_toeplitz
from charpoly.ensembles import worker_count
from charpoly.verify import EXPANSIONS


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
    assert set(routes) == {"exact", "gram"}
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


@pytest.mark.parametrize(
    "argv, name, want",
    [
        (["--ensemble", "gue", "--k", "3", "--x", "-24"], "gap_cdf", -894.7124833790585),
        (["--ensemble", "lue", "--k", "2", "--alpha", "800", "--x", "2048"], "lue_tail",
         -1005.2197467677856),
    ],
)
def test_gap_records_the_log_of_an_underflowing_probability(capsys, argv, name, want):
    # references: 200-digit mpmath Hankels of exact moments
    code, out = run_cli(capsys, "gap", *argv)
    assert code == 0
    rec = next(r for r in json.loads(out)["outputs"] if r["name"] == name)
    assert rec["value"] == 0.0
    assert rec["log_value"] == pytest.approx(want, abs=1e-9)


def test_tcue_exact(capsys):
    code, out = run_cli(
        capsys, "exact", "--ensemble", "tcue", "--n", "3", "--m", "5", "--k", "1",
        "--z", "0.5",
    )
    assert code == 0
    doc = json.loads(out)
    assert [r["route"] for r in doc["outputs"]] == ["exact", "gram"]
    assert doc["checks"][0]["passed"]


def test_tcue_exact_at_large_n_outside_the_disc(capsys):
    # the scipy-quad Hankel once overflowed here and printed a traceback
    code = main(["exact", "--ensemble", "tcue", "--m", "802", "--n", "800", "--k", "1",
                 "--z", "2.5"])
    out, err = capsys.readouterr()
    assert code == 0 and "Traceback" not in err
    records = json.loads(out)["outputs"]
    assert records[0]["route"] == "exact" and math.isfinite(records[0]["log_value"])


def test_asym_report(capsys):
    code, out = run_cli(
        capsys, "asym", "--expansion", "interior", "--n", "100", "--gamma", "2.0",
        "--z", "0.5",
    )
    assert code == 0
    doc = json.loads(out)
    ratio = next(r for r in doc["outputs"] if r["name"] == "ratio")
    assert abs(ratio["ratio"] - 1.0) < 0.05


# options that put each expansion inside its domain
_ASYM_ARGV = {
    "interior": ["--gamma", "1.3", "--z", "0.4"],
    "edge": ["--k", "1", "--z", "1.0"],
    "exterior": ["--k", "1", "--z", "1.5"],
    "two-charge": ["--k", "2", "--k2", "1", "--z", "0.2"],
    "bulk-multi": ["--z", "0.2", "--u1", "0.3", "--u2", "1.1"],
    "edge-multi": ["--z", "1.0", "--u1", "0.3", "--u2", "1.1"],
    "tcue-edge": ["--kappa", "2", "--u1", "1"],
}


@pytest.mark.parametrize("expansion", sorted(EXPANSIONS))
def test_every_expansion_runs_against_a_named_reference(capsys, expansion):
    assert set(_ASYM_ARGV) == set(EXPANSIONS)
    code, out = run_cli(capsys, "asym", "--expansion", expansion, "--n", "32",
                        *_ASYM_ARGV[expansion])
    assert code == 0
    routes = [r["route"] for r in json.loads(out)["outputs"]]
    assert len(routes) == 3 and routes[0] == "asym"
    assert routes[1] in ("exact", "gram", "correlator") and routes[2] == f"{routes[1]}/asym"


def test_tcue_edge_refuses_a_non_integer_kappa(capsys):
    # M = N + kappa has no truncated CUE at kappa = 2.5; the reference once
    # took M = N + 2 and read ratio 1.25 at N = 640
    code = main(["asym", "--expansion", "tcue-edge", "--n", "640", "--kappa", "2.5", "--u1", "1"])
    assert code == 2
    assert "integer kappa" in capsys.readouterr().err


@pytest.mark.parametrize("argv, asym_log, exact_log", [
    (["edge", "--n", "800", "--k", "1", "--z", "1.6"], 274.1148, 752.5006),
    (["tcue-edge", "--n", "64", "--kappa", "2", "--k", "2", "--u1", "1e-45"], 11.1549, 11.3972),
], ids=["edge", "tcue-edge"])
def test_asym_reads_an_underflowing_gap_factor_in_logs(capsys, argv, asym_log, exact_log):
    # F_1(sqrt(800)(1 - 1.6^2)) = F_1(-44.12) and the LUE(2, 2) law at 2e-45
    # underflow to 0; their logs once stopped the command with "math domain error"
    code, out = run_cli(capsys, "asym", "--expansion", *argv)
    assert code == 0
    logs = {r["route"]: r["log_value"] for r in json.loads(out)["outputs"]}
    assert logs["asym"] == pytest.approx(asym_log, abs=1e-4)
    assert logs["exact"] == pytest.approx(exact_log, abs=1e-4)


def test_asym_exterior_non_integer_k_compares_the_same_exponent(capsys):
    # the exterior reference once took ginibre_moment_exact(N, int(k), z),
    # the k = 1 moment, and read ratio 4.3e-8 here
    code, out = run_cli(
        capsys, "asym", "--expansion", "exterior", "--n", "40", "--k", "1.5", "--z", "1.5",
    )
    assert code == 0
    doc = json.loads(out)
    ref = next(r for r in doc["outputs"] if r["route"] == "gram")["log_value"]
    assert ref == pytest.approx(ginibre_moment_toeplitz(40, 3.0, 1.5), abs=1e-12)
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


def test_piv_far_right_tail_is_valid_json(capsys):
    # the tail integral once squared x to inf and printed "value": NaN
    def refuse(const):
        raise ValueError(f"not JSON: {const}")

    code, out = run_cli(capsys, "painleve", "--family", "p4", "--k", "1", "--x", "1e300")
    assert code == 0
    doc = json.loads(out, parse_constant=refuse)
    assert doc["outputs"][0]["log_value"] == 0.0 and doc["outputs"][0]["value"] == 1.0


@pytest.mark.parametrize("option", [["--csv"], ["--out", "report.json"]], ids=["csv", "out"])
def test_output_options_belong_to_the_subcommand(capsys, option):
    # the top-level copies were parsed and then ignored
    with pytest.raises(SystemExit) as exc:
        main([*option, "exact", "--n", "8", "--k", "1", "--z", "0.5"])
    assert exc.value.code == 2


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


def test_gap_oracle_beyond_k3_is_a_usage_error(capsys):
    code = main(["gap", "--ensemble", "gue", "--k", "4", "--x", "0", "--oracle"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--n", "0", "--k", "1"],
        ["mc", "--n", "0", "--k", "1"],
        ["exact", "--ensemble", "tcue", "--m", "3", "--n", "0", "--k", "1"],
    ],
    ids=["exact-ginibre", "mc-ginibre", "exact-tcue"],
)
def test_empty_matrix_is_a_usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err


_EVERY_ROUTE_REFUSED = "error: every route refused (gram:"


@pytest.mark.parametrize(
    "argv, start",
    [
        (["painleve", "--family", "p4", "--k", "-1", "--x", "0"], "error: "),
        (["painleve", "--family", "p4", "--k", "10", "--x", "0"], "error: "),
        (["exact", "--n", "100", "--gamma", "1.3", "--z", "0.45"], _EVERY_ROUTE_REFUSED),
        # tcue-edge once read k as int(k) or 1 and printed the k = 1 answer
        (["asym", "--expansion", "tcue-edge", "--n", "64", "--kappa", "1", "--u1", "0.7",
          "--k", "1.3"], "error: "),
        (["asym", "--expansion", "tcue-edge", "--n", "64", "--kappa", "1", "--u1", "0.7",
          "--k", "0.5"], "error: "),
        (["mc", "--n", "100", "--gamma", "1.3", "--z", "0.45"], _EVERY_ROUTE_REFUSED),
        (["asym", "--expansion", "interior", "--n", "100", "--gamma", "1.3", "--z", "0.45"],
         _EVERY_ROUTE_REFUSED),
    ],
    ids=["piv-order-minus-one", "piv-order-ten", "exact-every-route-refuses",
         "tcue-edge-k1.3", "tcue-edge-k0.5", "mc-every-route-refuses",
         "asym-every-route-refuses"],
)
def test_out_of_domain_is_a_usage_error_with_one_line(capsys, monkeypatch, argv, start):
    # mc looks its reference up before it would draw a sample
    monkeypatch.setattr(verify, "mc_moment", lambda *a, **kw: pytest.fail("sampled"))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(start)


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--n", "8", "--k", "1", "--z", "inf"],
        ["exact", "--n", "8", "--k", "1", "--z", "nan"],
        ["mc", "--n", "8", "--k", "1", "--z", "0.5,-inf"],
        ["mc", "--ensemble", "tcue", "--m", "8", "--n", "6", "--k", "1", "--z", "nan"],
        ["exact", "--n", "8", "--gamma", "nan"],
        ["mc", "--n", "8", "--gamma", "inf", "--z", "0.5"],
        ["asym", "--expansion", "interior", "--n", "8", "--gamma=-inf"],
    ],
    ids=["exact-z-inf", "exact-z-nan", "mc-z-imag-inf", "mc-tcue-z-nan", "exact-gamma-nan",
         "mc-gamma-inf", "asym-gamma-inf"],
)
def test_non_finite_input_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == "" and "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "finite" in errors[0]


def test_exact_routes_agree_at_n64(capsys):
    # the finite-N Painleve V transport, once listed among these routes, is
    # 6.88 off here and failed the agreement check
    code, out = run_cli(capsys, "exact", "--n", "64", "--k", "2", "--z", "0.6")
    assert code == 0
    doc = json.loads(out)
    assert [r["route"] for r in doc["outputs"]] == ["exact", "gram"]
    assert doc["checks"][0]["passed"] and doc["checks"][0]["observed"] < 1e-11


@pytest.mark.parametrize(
    "argv, route",
    [
        (["mc", "--n", "3", "--k", "1", "--z", "0.5", "--samples", "500"], "exact"),
        (["asym", "--expansion", "interior", "--n", "8", "--z", "0.3"], "exact"),
        (["asym", "--expansion", "two-charge", "--n", "8", "--z", "0.3"], "correlator"),
        (["asym", "--expansion", "tcue-edge", "--n", "8", "--u1", "1"], "exact"),
    ],
    ids=["mc", "asym-interior", "asym-two-charge", "asym-tcue-edge"],
)
def test_reference_records_name_their_route(capsys, argv, route):
    code, out = run_cli(capsys, *argv)
    assert code in (0, 1)
    moments = [r["route"] for r in json.loads(out)["outputs"] if r["name"] == "moment"]
    assert route in moments and "exact" not in set(moments) - {route}


@pytest.mark.parametrize(
    "argv, skipped",
    [
        (["--n", "40", "--k", "1", "--z", "0.5"], set()),
        (["--ensemble", "tcue", "--n", "3", "--m", "5", "--k", "1", "--z", "1.5"], set()),
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


def test_exact_gamma_two_lists_the_exact_route(capsys):
    code, out = run_cli(capsys, "exact", "--n", "8", "--gamma", "2", "--z", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert [r["route"] for r in doc["outputs"]] == ["exact", "gram"]
    assert doc["checks"][0]["passed"]


def test_exact_skips_gram_outside_its_even_gamma_envelope(capsys):
    code, out = run_cli(capsys, "exact", "--n", "200", "--k", "5", "--z", "0.81")
    assert code == 0
    doc = json.loads(out)
    gram = next(r for r in doc["outputs"] if r["route"] == "gram")
    assert "envelope" in gram["skipped"]
    assert all(c["passed"] for c in doc["checks"])


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
    assert code == 0 and len(doc["outputs"]) == 2
    assert [c["name"] for c in doc["checks"]] == ["route_agreement"]


@pytest.mark.parametrize(
    "argv",
    [
        ["painleve", "--family", "p4", "--k", "1", "--x", "0", "--tol", "3e-14"],
        ["painleve", "--family", "p4", "--k", "-0.5", "--x", "-60"],
        # each once raised ZeroDivisionError: a difference step whose cube
        # underflows, or a gap window that rounds to zero width
        ["painleve", "--family", "p5", "--k", "1", "--x", "1e-120"],
        ["painleve", "--family", "p6", "--k", "1", "--alpha", "1", "--beta", "2",
         "--x", "1e-300"],
        ["gap", "--ensemble", "lue", "--k", "2", "--x", "1e50"],
        ["asym", "--expansion", "edge", "--n", "8", "--k", "1", "--z", "1e10"],
        # each once "error: (34, 'Numerical result out of range')", from the sigma-form
        ["painleve", "--family", "p5", "--k", "1", "--x", "1e-60"],
        ["painleve", "--family", "p6", "--k", "1", "--alpha", "1", "--beta", "2",
         "--x", "1e-60"],
    ],
    ids=["piv-residual-gate", "piv-f-overflows", "pv-step-underflows", "pvi-step-underflows",
         "lue-tail-zero-window", "gue-zero-window", "pv-sigma-form-overflows",
         "pvi-sigma-form-overflows"],
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
    ref = [r for r in doc["outputs"] if r["route"] == "correlator"][0]["log_value"]
    # det{B_802(x_i, conj x_j)}/|Delta|^2 * prod h in 160-digit mpmath
    assert ref == pytest.approx(-1562.5932628214266, abs=1e-9)
    ratio = [r for r in doc["outputs"] if r["name"] == "ratio"][0]["ratio"]
    assert abs(ratio - 1.0) < 0.01


@pytest.mark.parametrize("command", ["exact", "mc"])
def test_tcue_without_m_is_usage_error(capsys, command):
    code = main([command, "--ensemble", "tcue", "--n", "6", "--k", "1", "--z", "0.5"])
    assert code == 2
    assert "--m is required" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["exact", "mc"])
def test_m_without_tcue_is_usage_error(capsys, command):
    # exact once ignored --m and reported the Ginibre moment
    code = main([command, "--n", "8", "--m", "20", "--k", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --m applies to the truncated CUE only\n"


@pytest.mark.parametrize(
    "argv",
    [["--n", "8"], ["--ensemble", "tcue", "--m", "8", "--n", "6"]],
    ids=["ginibre", "tcue"],
)
def test_mc_non_integrable_exponent_names_integrability(capsys, argv):
    # each route's refusal once stood in for the reason
    code = main(["mc", *argv, "--gamma", "-2.5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: each exponent must exceed -2 (integrability)\n"


def test_non_integer_thread_count_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CHARPOLY_THREADS", "abc")
    code = main(["mc", "--n", "8", "--k", "1"])
    assert code == 2
    assert capsys.readouterr().err == "error: CHARPOLY_THREADS must be an integer, got 'abc'\n"


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


@pytest.mark.parametrize("args, x", [
    (["--family", "p5", "--k", "2", "--alpha", "1"], 3.0),
    (["--family", "p5", "--k", "3", "--alpha", "3"], 0.05),
    (["--family", "p6", "--k", "1", "--alpha", "1", "--beta", "2"], 0.5),
    (["--family", "p6", "--k", "1", "--alpha", "1", "--beta", "2"], 0.995),
], ids=["p5-x3", "p5-x0.05", "p6-x0.5", "p6-x0.995"])
def test_painleve_p5_transports_f_from_below_x(capsys, args, x):
    # seeded at x itself (p5 at max(1, x), p6 at 0.5), F was the gap
    # determinant and the check observed 0.0; p6 also refused x > 0.99.
    # At x = 0.05 a PV step of 4e-3 (t0/6) put ln F (-79.04) 3.4e-2 off,
    # and the check, then on F itself, passed
    code, out = run_cli(capsys, "painleve", *args, "--x", str(x))
    assert code == 0
    doc = json.loads(out)
    ode, det = doc["outputs"]
    assert ode["t0"] < x and ode["value"] != det["value"]
    assert abs(ode["log_value"] - det["log_value"]) < 1e-6
    assert doc["checks"][0]["name"] == "ode_vs_determinant" and doc["checks"][0]["passed"]


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


def test_closed_stdout_exits_without_a_traceback():
    # the reader is gone before the report is written: no BrokenPipeError
    # traceback, and the report's own exit code
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(charpoly.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "charpoly.cli", "gap", "--ensemble", "gue", "--k", "2", "--x", "0.5"],
        stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
    )
    os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0
