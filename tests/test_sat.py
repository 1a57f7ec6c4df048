import hashlib
import itertools

import pytest

from scmr.architecture import bordered_architecture, custom_architecture
from scmr.bench import known_optimal, random_circuit
from scmr.circuit import circuit_from_gates, cnot, depth, parse_circuit, tgate
from scmr.mapping import qubit_map, struct_map
from scmr.routing import GateRoute, validate
from scmr.sat import (
    CapExhausted,
    CnfInstance,
    ProcessBackend,
    VarTable,
    decode,
    dimacs_text,
    encode,
    encode_amo,
    encode_eo,
    exec_windows,
    parse_dimacs,
    parse_solver_output,
    solve,
    solve_clauses,
    solve_optimal,
)

from oracles import brute_force_optimum, count_projected_models, dpll_satisfiable


# ---------------------------------------------------------------------------
# Cardinality encodings
# ---------------------------------------------------------------------------

def _fresh_counter(start):
    state = {"n": start}

    def fresh():
        state["n"] += 1
        return state["n"]

    return fresh


def test_amo_single_literal_no_clauses():
    assert encode_amo([1], _fresh_counter(1)) == []


def test_eo_two_literals_models():
    clauses = encode_eo([1, 2], _fresh_counter(2))
    models = [bits for bits in itertools.product([False, True], repeat=2)
              if dpll_satisfiable(clauses + [[v if bits[v - 1] else -v] for v in (1, 2)])]
    assert models == [(False, True), (True, False)]


def test_amo_sequential_counter_projected_count():
    clauses = encode_amo([1, 2, 3, 4, 5, 6], _fresh_counter(6))
    assert any(abs(l) > 6 for c in clauses for l in c)  # really used the counter
    assert count_projected_models(6, clauses) == 7


def test_eo_empty_is_unsat():
    assert encode_eo([], _fresh_counter(0)) == [[]]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_amo_exactness(n):
    clauses = encode_amo(list(range(1, n + 1)), _fresh_counter(n))
    assert count_projected_models(n, clauses) == n + 1


# ---------------------------------------------------------------------------
# CDCL backend
# ---------------------------------------------------------------------------

def test_cdcl_unit_and_contradiction():
    assert solve_clauses(1, [[1]]) == [1]
    assert solve_clauses(1, [[1], [-1]]) is None


def test_cdcl_pigeonhole_unsat():
    # 4 pigeons, 3 holes
    var = lambda p, h: p * 3 + h + 1
    clauses = [[var(p, h) for h in range(3)] for p in range(4)]
    for h in range(3):
        for p1 in range(4):
            for p2 in range(p1 + 1, 4):
                clauses.append([-var(p1, h), -var(p2, h)])
    assert solve_clauses(12, clauses) is None


def test_cdcl_random_3sat_agrees_with_dpll():
    import random
    rng = random.Random(0)
    for trial in range(30):
        n = rng.randint(3, 12)
        clauses = []
        for _ in range(rng.randint(1, 4 * n)):
            vs = rng.sample(range(1, n + 1), min(3, n))
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
        got = solve_clauses(n, clauses)
        want = dpll_satisfiable(clauses)
        assert (got is not None) == want
        if got is not None:
            truth = set(got)
            assert all(any(l in truth for l in c) for c in clauses)


# ---------------------------------------------------------------------------
# DIMACS
# ---------------------------------------------------------------------------

def test_dimacs_exact_bytes():
    text = dimacs_text(3, [[1, -2], [3]])
    assert text == "p cnf 3 2\n1 -2 0\n3 0\n"


def test_dimacs_roundtrip():
    clauses = [[1, -2], [3], [-1, -3, 2]]
    n, again = parse_dimacs(dimacs_text(3, clauses))
    assert n == 3 and again == clauses


def test_solver_output_parsing():
    assert parse_solver_output("c hi\ns SATISFIABLE\nv 1 -2\nv 3 0\n") == [1, -2, 3]
    assert parse_solver_output("s UNSATISFIABLE\n") is None
    with pytest.raises(ValueError):
        parse_solver_output("c nothing\n")


def test_process_backend_against_builtin(tmp_path):
    # stand up a trivial DIMACS solver script and check the adapter contract
    script = tmp_path / "mini.py"
    script.write_text(
        "import sys\n"
        "sys.path.insert(0, %r)\n"
        "from scmr.sat.cdcl import solve_clauses\n"
        "from scmr.sat.dimacs import parse_dimacs\n"
        "n, clauses = parse_dimacs(open(sys.argv[1]).read())\n"
        "m = solve_clauses(n, clauses)\n"
        "if m is None:\n"
        "    print('s UNSATISFIABLE'); sys.exit(20)\n"
        "print('s SATISFIABLE')\n"
        "print('v ' + ' '.join(map(str, m)) + ' 0')\n"
        "sys.exit(10)\n" % str((tmp_path / ".." ).resolve())
    )
    import sys
    backend = ProcessBackend([sys.executable, str(script)])
    arch = custom_architecture(3, 3, [])
    c = circuit_from_gates([cnot("a", "b")])
    cnf = encode(arch, c, t_s=1)
    verdict = backend.solve(cnf)
    assert verdict.satisfiable
    qm, route = decode(verdict.model, cnf.table, c, arch)
    assert validate(arch, c, qm, route) == []


# ---------------------------------------------------------------------------
# Encoding + decoding
# ---------------------------------------------------------------------------

FIG4_CIRCUIT = circuit_from_gates([cnot("q0", "q1"), cnot("q2", "q3")])
FIG4_MAP = qubit_map({"q0": (1, 1), "q1": (3, 3), "q2": (3, 1), "q3": (1, 3)})
GRID3 = custom_architecture(3, 3, [])


def test_fig4_fixed_map_unsat_then_sat():
    assert not solve(encode(GRID3, FIG4_CIRCUIT, qmap=FIG4_MAP, t_s=1)).satisfiable
    assert solve(encode(GRID3, FIG4_CIRCUIT, qmap=FIG4_MAP, t_s=2)).satisfiable


def test_fig4_free_map_sat_at_one():
    assert solve(encode(GRID3, FIG4_CIRCUIT, t_s=1)).satisfiable


def test_encode_too_many_qubits_diagnostic():
    arch = custom_architecture(2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)])
    cnf = encode(arch, FIG4_CIRCUIT, t_s=1)
    assert cnf.diagnostic and not solve(cnf).satisfiable


def test_single_cnot_decode_orientation():
    c = circuit_from_gates([cnot("a", "b")])
    cnf = encode(GRID3, c, t_s=1)
    verdict = solve(cnf)
    assert verdict.satisfiable
    qm, route = decode(verdict.model, cnf.table, c, GRID3)
    path = route.space[0]
    assert abs(path[0][1] - path[1][1]) == 1
    assert abs(path[-1][0] - path[-2][0]) == 1
    assert validate(GRID3, c, qm, route) == []


def test_decode_ignores_spurious_cycle():
    c = circuit_from_gates([cnot("a", "b")])
    cnf = encode(GRID3, c, t_s=2, prune=False)
    verdict = solve(cnf)
    qm, route = decode(verdict.model, cnf.table, c, GRID3)
    # plant a directed 4-cycle of path variables at the unused step
    other_t = 2 if route.time[0] == 1 else 1
    free = [v for v in GRID3.vertices() if v not in qm.vertices()]
    a, b = sorted(free)[0], sorted(free)[1]
    cyc = None
    for v in GRID3.vertices():
        square = [v, (v[0] + 1, v[1]), (v[0] + 1, v[1] + 1), (v[0], v[1] + 1)]
        if all(GRID3.in_bounds(u) and u not in qm.vertices() for u in square):
            cyc = square
            break
    assert cyc is not None
    model = set(verdict.model)
    for u, v in zip(cyc, cyc[1:] + cyc[:1]):
        var = cnf.table.path_ids[(u, v, 0, other_t)]
        model.discard(-var)
        model.add(var)
    qm2, route2 = decode(sorted(model, key=abs), cnf.table, c, GRID3)
    assert route2.space == route.space and route2.time == route.time


def test_exec_window_pruning_shapes():
    c = parse_circuit("cnot a b; cnot b c; cnot c a")
    wins = exec_windows(c, 3)
    assert list(wins[0]) == [1] and list(wins[1]) == [2] and list(wins[2]) == [3]
    wide = exec_windows(c, 3, prune=False)
    assert all(list(w) == [1, 2, 3] for w in wide)


def test_prune_and_no_prune_agree():
    for seed in range(6):
        c = random_circuit(3, 2, 0.4, seed=seed)
        arch = bordered_architecture(3)
        for t in range(depth(c), depth(c) + 2):
            a = solve(encode(arch, c, t_s=t, prune=True)).satisfiable
            b = solve(encode(arch, c, t_s=t, prune=False)).satisfiable
            assert a == b


def test_two_t_gates_share_one_magic_vertex():
    # the at-least-one magic entry is guarded by the gate's exec literal, so
    # two T gates with one magic vertex run at separate steps
    arch = custom_architecture(4, 4, [(4, 4)])
    c = circuit_from_gates([tgate("a"), tgate("b")])
    m = qubit_map({"a": (2, 2), "b": (2, 3)})
    assert solve(encode(arch, c, qmap=m, t_s=2)).satisfiable


def test_var_table_stable_and_described():
    c = parse_circuit("cnot a b")
    cnf1 = encode(GRID3, c, t_s=1)
    cnf2 = encode(GRID3, c, t_s=1)
    assert cnf1.table.map_ids == cnf2.table.map_ids
    assert cnf1.table.path_ids == cnf2.table.path_ids
    some_map = next(iter(cnf1.table.map_ids.values()))
    assert cnf1.table.describe(some_map).startswith("map ")
    text = cnf1.table.table_text()
    assert " exec 0 1" in text and " map a 1 1" in text


def test_cnf_instance_rejects_bad_literals():
    with pytest.raises(ValueError):
        CnfInstance(1, [[2]], VarTable(), 1)
    with pytest.raises(ValueError):
        CnfInstance(1, [[0]], VarTable(), 1)


# ---------------------------------------------------------------------------
# Optimal loop
# ---------------------------------------------------------------------------

def test_solve_optimal_fig4():
    free = solve_optimal(GRID3, FIG4_CIRCUIT)
    assert free.steps == 1 and free.proven_minimal
    assert validate(GRID3, FIG4_CIRCUIT, free.qmap, free.route) == []
    fixed = solve_optimal(GRID3, FIG4_CIRCUIT, qmap=FIG4_MAP)
    assert fixed.steps == 2 and fixed.proven_minimal
    assert fixed.qmap.as_dict == FIG4_MAP.as_dict


def test_solve_optimal_known_optimal_2_2():
    c = known_optimal(2, 2, seed=1)
    arch = custom_architecture(4, 4, [])
    res = solve_optimal(arch, c)
    assert res.steps == 2


def test_solve_optimal_empty_circuit():
    res = solve_optimal(GRID3, parse_circuit(""))
    assert res.steps == 0 and res.proven_minimal


def test_solve_optimal_cap_exhausted():
    arch = custom_architecture(1, 2, [])  # single row: no vertical first edge exists
    c = circuit_from_gates([cnot("a", "b")])
    with pytest.raises(CapExhausted):
        solve_optimal(arch, c, t_max=2)


def test_solve_optimal_monotone_sat():
    # SAT at the optimum stays SAT at larger bounds
    c = known_optimal(2, 2, seed=5)
    arch = custom_architecture(4, 4, [])
    best = solve_optimal(arch, c).steps
    for t in (best, best + 1, best + 2):
        assert solve(encode(arch, c, t_s=t)).satisfiable


def test_encoding_accepts_hand_built_solution():
    # a validator-approved solution can be asserted into the formula
    arch = custom_architecture(5, 5, [])
    c = circuit_from_gates([cnot("a", "b")])
    m = qubit_map({"a": (2, 2), "b": (4, 4)})
    path = ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4))
    route = GateRoute(1, {0: 1}, {0: path})
    assert validate(arch, c, m, route) == []
    cnf = encode(arch, c, qmap=m, t_s=1)
    units = [[cnf.table.exec_ids[(0, 1)]]]
    for u, v in zip(path, path[1:]):
        units.append([cnf.table.path_ids[(u, v, 0, 1)]])
    assert solve(CnfInstance(cnf.num_vars, cnf.clauses + units, cnf.table, 1)).satisfiable


def test_soundness_fuzz_small_instances():
    for seed in range(12):
        c = random_circuit(2 + seed % 3, 1 + seed % 2, (seed % 3) / 4, seed=seed)
        arch = bordered_architecture(c.num_qubits)
        res = solve_optimal(arch, c)
        assert validate(arch, c, res.qmap, res.route) == []
        assert res.steps >= depth(c)


def test_optimal_matches_brute_force_spot():
    arch = custom_architecture(2, 3, [])
    c = circuit_from_gates([cnot("a", "b"), cnot("b", "c")])
    want = brute_force_optimum(arch, c, t_cap=4)[0]
    got = solve_optimal(arch, c).steps
    assert got == want


def test_encode_rejects_map_onto_magic():
    arch = bordered_architecture(1)
    c = parse_circuit("t a")
    pinned = qubit_map({"a": (1, 1)})  # border vertex is magic
    with pytest.raises(ValueError):
        encode(arch, c, qmap=pinned, t_s=1)


def test_encode_rejects_incomplete_map():
    c = parse_circuit("cnot a b")
    partial = qubit_map({"a": (2, 2)})
    with pytest.raises(ValueError):
        encode(GRID3, c, qmap=partial, t_s=1)


def test_process_backend_missing_binary():
    from scmr.sat import BackendError
    backend = ProcessBackend(["definitely-not-a-solver-binary"])
    cnf = encode(GRID3, circuit_from_gates([cnot("a", "b")]), t_s=1)
    with pytest.raises(BackendError):
        backend.solve(cnf)


def test_process_backend_garbage_output(tmp_path):
    import sys
    from scmr.sat import BackendError
    script = tmp_path / "noise.py"
    script.write_text("print('c I have no verdict')\n")
    backend = ProcessBackend([sys.executable, str(script)])
    cnf = encode(GRID3, circuit_from_gates([cnot("a", "b")]), t_s=1)
    with pytest.raises(BackendError):
        backend.solve(cnf)


def test_encoding_bytes_pinned():
    # the DIMACS text of two fixed instances, hashed at the commit before the
    # grid gained its adjacency table: the clause order the CDCL search
    # depends on must not move
    arch = bordered_architecture(4)
    fixed = random_circuit(4, 3, 0.2, seed=3)
    free = random_circuit(4, 2, 0.25, seed=5)
    digests = []
    for circuit, qmap in ((fixed, struct_map(arch, fixed)), (free, None)):
        cnf = encode(arch, circuit, qmap, t_s=depth(circuit))
        digests.append(hashlib.sha256(dimacs_text(cnf.num_vars, cnf.clauses).encode()).hexdigest())
    assert digests == [
        "d9c66a00a8269c2052dfa798c75c03566130b84103309c503ba7280f7142637b",
        "4428ad9e81e41a06db7827b56a64b0e5432d4fbb5ed389f08c606820e5b7a68b",
    ]
