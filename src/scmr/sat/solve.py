"""Solver backends and the incremental optimal loop.

A backend's `solve(cnf, timeout)` returns a model (signed literals covering
every variable) or None when the formula is unsatisfiable; timeouts and
process failures raise. Without a backend, `solve` runs the in-process CDCL
solver; `ProcessBackend` shells out to any DIMACS solver that prints the
conventional `s`/`v` lines (kissat, cadical, minisat-style exit codes 10/20).
"""
from __future__ import annotations

import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path as FsPath

from ..architecture import Architecture
from ..circuit import Circuit, depth as circuit_depth
from ..mapping import QubitMap, qubit_map
from ..routing import GateRoute
from .cdcl import CdclSolver, SolverTimeout
from .dimacs import dimacs_text, parse_solver_output
from .encoding import CnfInstance, decode, encode


class BackendError(RuntimeError):
    pass


class CapExhausted(RuntimeError):
    def __init__(self, t_max: int):
        super().__init__(f"no solution within {t_max} steps")
        self.t_max = t_max

    def __reduce__(self):  # rebuilt from t_max when a worker process raises it
        return CapExhausted, (self.t_max,)


class ProcessBackend:
    """External DIMACS solver, e.g. ProcessBackend(["kissat", "-q"])."""

    def __init__(self, command: list[str]):
        self.command = list(command)

    def solve(self, cnf: CnfInstance, timeout: float | None = None) -> list[int] | None:
        with tempfile.NamedTemporaryFile("w", suffix=".cnf", delete=False) as f:
            f.write(dimacs_text(cnf.num_vars, cnf.clauses))
            path = f.name
        try:
            proc = subprocess.run(
                self.command + [path], capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired as e:
            raise SolverTimeout(f"{self.command[0]} exceeded {timeout}s") from e
        except OSError as e:
            raise BackendError(f"cannot run {self.command[0]}: {e}") from e
        finally:
            FsPath(path).unlink(missing_ok=True)
        try:
            model = parse_solver_output(proc.stdout)
        except ValueError:
            if proc.returncode == 10:
                raise BackendError(f"{self.command[0]} said SAT but printed no model")
            if proc.returncode == 20:
                return None
            raise BackendError(
                f"{self.command[0]} exited {proc.returncode} without a verdict: {proc.stderr[:500]}"
            )
        if model is None:
            return None
        by_var = {abs(l): l for l in model}
        return [by_var.get(v, -v) for v in range(1, cnf.num_vars + 1)]


def solve(cnf: CnfInstance, backend=None, timeout: float | None = None) -> list[int] | None:
    """A model of `cnf`, or None when it is unsatisfiable."""
    if backend is not None:
        return backend.solve(cnf, timeout=timeout)
    start = time.monotonic()
    solver = CdclSolver(cnf.num_vars, cnf.clauses)
    if timeout is None:
        return solver.solve()
    # loading the clauses counts against the timeout
    remaining = timeout - (time.monotonic() - start)
    if remaining <= 0:
        raise SolverTimeout(f"no verdict within {timeout:.3f}s")
    return solver.solve(timeout=remaining)


@dataclass
class OptimalResult:
    qmap: QubitMap
    route: GateRoute
    steps: int
    proven_minimal: bool


def solve_optimal(arch: Architecture, circuit: Circuit, qmap: QubitMap | None = None,
                  t_max: int | None = None, backend=None, timeout: float | None = None) -> OptimalResult:
    """Smallest-step solution by probing t = depth, depth+1, ... up to t_max.

    `timeout` applies per probe; a probe that times out is skipped (the loop
    keeps climbing, and any later solution is reported as not proven
    minimal). Raises CapExhausted when the cap runs out, or SolverTimeout
    when every remaining probe timed out.
    """
    d = circuit_depth(circuit)
    if len(circuit.gates) == 0:
        m = qmap if qmap is not None else qubit_map({})
        return OptimalResult(m, GateRoute(0, {}, {}), 0, True)
    t_max = t_max if t_max is not None else max(d, len(circuit.gates))
    if t_max < d:
        raise ValueError(f"cap {t_max} is below the depth lower bound {d}")
    proven = True
    timed_out = False
    for t in range(d, t_max + 1):
        probe_start = time.monotonic()
        cnf = encode(arch, circuit, qmap=qmap, t_s=t)
        remaining = None
        if timeout is not None:
            remaining = timeout - (time.monotonic() - probe_start)
            if remaining <= 0:
                proven = False
                timed_out = True
                continue
        try:
            model = solve(cnf, backend=backend, timeout=remaining)
        except SolverTimeout:
            proven = False
            timed_out = True
            continue
        if model is not None:
            got_map, route = decode(model, cnf.table, circuit, arch)
            return OptimalResult(got_map, route, route.steps, proven)
    if timed_out:
        raise SolverTimeout(f"probes up to {t_max} steps timed out without a solution")
    raise CapExhausted(t_max)
