"""A look inside the exact solver: CNF shape, DIMACS, model decoding.

Encodes a tiny instance, prints the variable families and a few clauses,
emits the DIMACS text plus the sidecar variable table, solves with the
built-in CDCL solver, and decodes the model back into a map and a route.
"""
from scmr import custom_architecture, decode, encode, parse_circuit, solve, validate
from scmr.sat import dimacs_text


def main():
    arch = custom_architecture(3, 4, [(4, 1), (4, 2), (4, 3)])  # right magic column
    circuit = parse_circuit("cnot a b; t b;")
    cnf = encode(arch, circuit, t_s=2)

    table = cnf.table
    print(f"{cnf.num_vars} variables ({table.num_named} named, rest auxiliary), "
          f"{len(cnf.clauses)} clauses")
    print(f"  map vars:  {len(table.map_ids)}")
    print(f"  exec vars: {len(table.exec_ids)}")
    print(f"  path vars: {len(table.path_ids)}")

    print("\nfirst clauses:", cnf.clauses[:3])
    dimacs = dimacs_text(cnf.num_vars, cnf.clauses)
    print("DIMACS header + first lines:")
    print("\n".join(dimacs.splitlines()[:3]))
    print("sidecar table head:")
    print("\n".join(table.table_text().splitlines()[:3]))

    model = solve(cnf)
    print(f"\nverdict: {'SAT' if model is not None else 'UNSAT'}")
    qmap, route = decode(model, table, circuit, arch)
    print("decoded map:", dict(qmap.assignment))
    for i in sorted(route.time):
        print(f"gate {i}: step {route.time[i]}, path {route.space[i]}")
    print("validator:", validate(arch, circuit, qmap, route) or "ok")


if __name__ == "__main__":
    main()
