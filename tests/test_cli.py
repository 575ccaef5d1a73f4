import csv
import io
import json
import math

import pytest

from charpoly.cli import main


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
    assert set(routes) == {"exact", "toeplitz", "pv"}
    assert abs(routes["exact"] - routes["toeplitz"]) < 1e-10
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
    assert "exact-jue-factored" in routes and "toeplitz" in routes


def test_asym_report(capsys):
    code, out = run_cli(
        capsys, "asym", "--expansion", "interior", "--n", "100", "--gamma", "2.0",
        "--z", "0.5",
    )
    assert code == 0
    doc = json.loads(out)
    ratio = next(r for r in doc["outputs"] if r["name"] == "ratio")
    assert abs(ratio["ratio"] - 1.0) < 0.05


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
