from .cardinality import encode_amo, encode_eo
from .cdcl import CdclSolver, SolverTimeout
from .dimacs import dimacs_text, parse_solver_output, write_dimacs, write_instance
from .encoding import CnfInstance, DecodeError, VarTable, decode, encode, exec_windows, route_literals
from .solve import CapExhausted, OptimalResult, solve, solve_optimal

__all__ = [
    "encode_amo", "encode_eo",
    "CdclSolver", "SolverTimeout",
    "dimacs_text", "parse_solver_output", "write_dimacs", "write_instance",
    "CnfInstance", "DecodeError", "VarTable", "decode", "encode", "exec_windows", "route_literals",
    "CapExhausted", "OptimalResult", "solve", "solve_optimal",
]
