import sys

import pytest

from scmr.sat import SolverTimeout


@pytest.fixture
def first_probe_times_out(monkeypatch):
    """The first solver that `sat.solve` builds times out in its search; later
    ones are the real CDCL solver. Yields the timeout each search was given."""
    sat_solve = sys.modules["scmr.sat.solve"]  # attribute scmr.sat.solve is a function
    real = sat_solve.CdclSolver
    timeouts = []

    def build(num_vars, clauses):
        solver = real(num_vars, clauses)
        search, first = solver.solve, not timeouts

        def solve(timeout=None):
            timeouts.append(timeout)
            if first:
                raise SolverTimeout("no verdict from the first solver")
            return search(timeout=timeout)

        solver.solve = solve
        return solver

    monkeypatch.setattr(sat_solve, "CdclSolver", build)
    yield timeouts
