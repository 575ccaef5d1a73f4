import pytest
from scipy import integrate


@pytest.fixture
def ode_calls(monkeypatch):
    """Names of every ``scipy.integrate.solve_ivp`` call and ``DOP853``
    construction made while the test runs, in order."""
    calls = []
    for name in ("solve_ivp", "DOP853"):
        orig = getattr(integrate, name)

        def counting(*args, _name=name, _orig=orig, **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(integrate, name, counting)
    return calls
