"""DIMACS CNF emission and the solver-output format.

Emission is byte-stable: `p cnf <vars> <clauses>` header, one clause per
line, literals space-separated, zero-terminated. The sidecar variable table
maps integer ids back to `map q (a,b)` / `exec g t` / `path (u) (v) g t`
records for debugging. These files are the boundary to external solvers:
run one on the `.cnf` file, read its `s`/`v` lines with
`parse_solver_output` and pass the model to `encoding.decode`.
"""
from __future__ import annotations

import io


def write_dimacs(num_vars: int, clauses, out) -> None:
    out.write(f"p cnf {num_vars} {len(clauses)}\n")
    for clause in clauses:
        out.write(" ".join(map(str, clause)))
        out.write(" 0\n" if clause else "0\n")


def dimacs_text(num_vars: int, clauses) -> str:
    buf = io.StringIO()
    write_dimacs(num_vars, clauses, buf)
    return buf.getvalue()


def write_instance(cnf, base_path) -> tuple[str, str]:
    """Write `<base>.cnf` plus the `<base>.vars` sidecar variable table.

    Returns the two paths. The suffixes are appended to the whole base name,
    so `probe.t1` gives `probe.t1.cnf` and `probe.cnf` gives `probe.cnf.cnf`.
    `cnf` is a CnfInstance; the sidecar maps integer ids to map/exec/path
    records so models can be read by hand. Under a pinned map it lists one
    map record per qubit, its pinned vertex, since the formula has no other
    map variable.
    """
    from pathlib import Path

    cnf_path = Path(f"{base_path}.cnf")
    vars_path = Path(f"{base_path}.vars")
    with cnf_path.open("w") as f:
        write_dimacs(cnf.num_vars, cnf.clauses, f)
    vars_path.write_text(cnf.table.table_text())
    return str(cnf_path), str(vars_path)


def parse_solver_output(text: str) -> list[int] | None:
    """Parse `s SATISFIABLE` + `v` lines, or `s UNSATISFIABLE` (None).

    Raises ValueError when no verdict line is present.
    """
    verdict = None
    lits: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("s "):
            token = line.split(None, 1)[1].strip().upper()
            if token == "SATISFIABLE":
                verdict = True
            elif token == "UNSATISFIABLE":
                verdict = False
        elif line.startswith("v ") or line == "v":
            lits.extend(int(t) for t in line[1:].split())
    if verdict is None:
        raise ValueError("solver output has no 's' verdict line")
    if not verdict:
        return None
    return [l for l in lits if l != 0]
