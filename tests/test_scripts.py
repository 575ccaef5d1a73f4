import csv
import importlib.util
import math
import pathlib

from charpoly.verify import TRENDS

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mc_vs_exact_prints_one_line_per_point(capsys):
    code = _load("mc_vs_exact").main(["--samples", "2000", "--seed", "3"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 8
    assert all("sigma" in line and "ess=" in line for line in lines)
    assert sum(line.startswith("TruncatedCUE(") for line in lines) == 2
    assert code == (1 if any("OUTSIDE 3 SIGMA" in line for line in lines) else 0)


def test_convergence_tables_writes_every_trend_and_the_lemniscate_rows(tmp_path):
    module = _load("convergence_tables")
    out = tmp_path / "tables.csv"
    assert module.main(["--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["name", "N", "exact_log", "asym_log", "ratio"]
    names = [row[0] for row in rows[1:]]
    trend_rows = [name.replace("-", "_") for name, ns, _ in TRENDS for _ in ns]
    assert names[: len(trend_rows)] == trend_rows
    lemniscate = module.lemniscate_rows()
    assert names[len(trend_rows):] == [row[0] for row in lemniscate]
    assert {"lemniscate_sub", "lemniscate_critical", "lemniscate_super"} <= set(names)
    assert all(math.isfinite(float(row[4])) for row in rows[1:])
