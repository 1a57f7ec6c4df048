from .cardinality import encode_amo, encode_eo
from .cdcl import CdclSolver, SolverTimeout, solve_clauses
from .dimacs import dimacs_text, parse_dimacs, parse_solver_output, write_dimacs, write_instance
from .encoding import CnfInstance, DecodeError, VarTable, decode, encode, exec_windows
from .solve import (
    BackendError,
    CapExhausted,
    OptimalResult,
    ProcessBackend,
    solve,
    solve_optimal,
)

__all__ = [
    "encode_amo", "encode_eo",
    "CdclSolver", "SolverTimeout", "solve_clauses",
    "dimacs_text", "parse_dimacs", "parse_solver_output", "write_dimacs", "write_instance",
    "CnfInstance", "DecodeError", "VarTable", "decode", "encode", "exec_windows",
    "BackendError", "CapExhausted", "OptimalResult", "ProcessBackend", "solve", "solve_optimal",
]
