import pytest

from nonregdesign import estimator


@pytest.fixture
def envelope_solves(monkeypatch):
    """The envelope LPs handed to the simplex while the test runs."""
    solves = []
    solve = estimator.solve_lp

    def counting(lp):
        solves.append(lp)
        return solve(lp)

    monkeypatch.setattr(estimator, "solve_lp", counting)
    return solves
