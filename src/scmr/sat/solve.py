"""The exact engine's step loop: encode, then CDCL, then decode.

`solve(cnf, timeout)` runs the built-in CDCL solver and returns a model
(signed literals covering every variable) or None when the formula is
unsatisfiable; a timeout raises SolverTimeout, before the solver is built
when none of it is left. `solve_optimal` probes
t = depth, depth + 1, ... and encodes each probe afresh, so a probe keeps
no formula from the one before it; the depth and every probe's windows and
order clauses read one table, the circuit's `Circuit.dependencies`, built
on first use and then shared. When the first probe finds no model, the
loop asks once whether any probe could: none can when the formula carries a
`diagnostic`, or when `greedy_route` finds that a pinned map leaves some
gate without a legal path even with the grid to itself; the loop then stops
with CapExhausted instead of climbing to the cap. External DIMACS solvers
are reached through files instead: `write_instance`, then the solver, then
`parse_solver_output` and `decode`.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from ..architecture import Architecture
from ..circuit import Circuit, depth as circuit_depth
from ..mapping import QubitMap, qubit_map
from ..routing import GateRoute, UnroutableGateError, greedy_route
from .cdcl import CdclSolver, SolverTimeout
from .encoding import CnfInstance, decode, encode


class CapExhausted(RuntimeError):
    def __init__(self, t_max: int):
        super().__init__(f"no solution within {t_max} steps")
        self.t_max = t_max

    def __reduce__(self):  # rebuilt from t_max when a worker process raises it
        return CapExhausted, (self.t_max,)


def solve(cnf: CnfInstance, timeout: float | None = None) -> list[int] | None:
    """A model of `cnf`, or None when it is unsatisfiable."""
    if timeout is not None and timeout <= 0:
        raise SolverTimeout(f"no verdict within {timeout:.3f}s")
    start = time.monotonic()
    solver = CdclSolver(cnf.num_vars, cnf.clauses)
    if timeout is None:
        return solver.solve()
    # loading the clauses counts against the timeout
    remaining = timeout - (time.monotonic() - start)
    if remaining <= 0:
        raise SolverTimeout(f"no verdict within {timeout:.3f}s")
    return solver.solve(timeout=remaining)


@dataclass(frozen=True)
class OptimalResult:
    qmap: QubitMap
    route: GateRoute
    steps: int
    proven_minimal: bool


def solve_optimal(arch: Architecture, circuit: Circuit, qmap: QubitMap | None = None,
                  t_max: int | None = None, timeout: float | None = None) -> OptimalResult:
    """Smallest-step solution by probing t = depth, depth+1, ... up to t_max
    (default: the larger of the depth and the gate count).

    `timeout` applies per probe; a probe that times out is skipped (the loop
    keeps climbing, and any later solution is reported as not proven
    minimal). Raises CapExhausted when the cap runs out, or SolverTimeout
    when every remaining probe timed out.

    After a first probe without a model, UNSAT or timed out, the loop raises
    CapExhausted at once when no t can have one: the formula carries a
    `diagnostic`, or, under a pinned map, `greedy_route` raises
    UnroutableGateError, which it does exactly when some gate has no legal
    path even with the grid to itself. That is sound: a probe's path for
    such a gate would be a legal path, so every t is UNSAT. Under the
    default cap it is also complete: when every gate has a legal path,
    running the gates one per step in index order is a valid schedule at
    t = #gates (index order is topological, so each gate's step lies in its
    execution window, and a gate alone in its step needs only its own path).
    So a pinned map with such a gate ends in CapExhausted after one probe,
    even one that timed out, and any other pinned map gets a solution.
    """
    d = circuit_depth(circuit)
    if len(circuit.gates) == 0:
        m = qmap if qmap is not None else qubit_map({})
        return OptimalResult(m, GateRoute(0, {}, {}), 0, True)
    t_max = t_max if t_max is not None else max(d, len(circuit.gates))
    if t_max < d:
        raise ValueError(f"cap {t_max} is below the depth lower bound {d}")
    timed_out = False
    for t in range(d, t_max + 1):
        probe_start = time.monotonic()
        cnf = encode(arch, circuit, qmap=qmap, t_s=t)
        try:
            model = solve(cnf, None if timeout is None else timeout - (time.monotonic() - probe_start))
        except SolverTimeout:
            model, timed_out = None, True
        if model is not None:
            got_map, route = decode(model, cnf.table, circuit, arch)
            return OptimalResult(got_map, route, route.steps, not timed_out)
        if t == d and cnf.diagnostic:
            raise CapExhausted(t_max)
        if t == d and qmap is not None:
            try:
                greedy_route(arch, circuit, qmap)
            except UnroutableGateError:
                raise CapExhausted(t_max) from None
    if timed_out:
        raise SolverTimeout(f"probes up to {t_max} steps timed out without a solution")
    raise CapExhausted(t_max)
