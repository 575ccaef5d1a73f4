import importlib.util
import pathlib

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
    assert code == (1 if any("OUTSIDE 3 SIGMA" in line for line in lines) else 0)
