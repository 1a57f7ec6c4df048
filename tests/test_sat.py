import gc
import hashlib
import itertools
from pathlib import Path

import pytest

from scmr.architecture import (
    bordered_architecture,
    center_column_architecture,
    custom_architecture,
    right_column_architecture,
)
from scmr.bench import known_optimal, random_circuit
from scmr.circuit import (GateKind, circuit_from_gates, cnot, depth, parse_circuit,
                          serialize_circuit, tgate)
from scmr.mapping import qubit_map, random_map, struct_map
from scmr.routing import GateRoute, validate
from scmr.sat import (
    CapExhausted,
    CdclSolver,
    CnfInstance,
    SolverTimeout,
    VarTable,
    decode,
    dimacs_text,
    encode,
    encode_amo,
    encode_eo,
    exec_windows,
    parse_solver_output,
    solve,
    solve_optimal,
    write_instance,
)
from scmr.sat.encoding import _grid

import oracles
from oracles import DictWatchCdclSolver
from oracles import brute_force_optimum, count_projected_models, dpll_satisfiable
from oracles import encode as reference_encode
from oracles import exec_windows as reference_exec_windows


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
# CDCL solver
# ---------------------------------------------------------------------------

def test_cdcl_unit_and_contradiction():
    assert CdclSolver(1, [[1]]).solve() == [1]
    assert CdclSolver(1, [[1], [-1]]).solve() is None


def test_cdcl_pigeonhole_unsat():
    # 4 pigeons, 3 holes
    var = lambda p, h: p * 3 + h + 1
    clauses = [[var(p, h) for h in range(3)] for p in range(4)]
    for h in range(3):
        for p1 in range(4):
            for p2 in range(p1 + 1, 4):
                clauses.append([-var(p1, h), -var(p2, h)])
    assert CdclSolver(12, clauses).solve() is None


def test_cdcl_random_3sat_agrees_with_dpll():
    import random
    rng = random.Random(0)
    for trial in range(30):
        n = rng.randint(3, 12)
        clauses = []
        for _ in range(rng.randint(1, 4 * n)):
            vs = rng.sample(range(1, n + 1), min(3, n))
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
        got = CdclSolver(n, clauses).solve()
        want = dpll_satisfiable(clauses)
        assert (got is not None) == want
        if got is not None:
            truth = set(got)
            assert all(any(l in truth for l in c) for c in clauses)


def test_cdcl_add_clause_enumerates_every_model():
    # blocking each model with `add_clause` after it is found lists every
    # model once: as many as brute force counts, each satisfying the formula
    import random
    rng = random.Random(4)
    for trial in range(40):
        n = rng.randint(1, 7)
        clauses = []
        for _ in range(rng.randint(0, 2 * n)):
            vs = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
        solver = CdclSolver(n, clauses)
        models = []
        while (model := solver.solve()) is not None:
            truth = set(model)
            assert all(any(l in truth for l in c) for c in clauses)
            models.append(frozenset(model))
            solver.add_clause([-l for l in model])
        assert len(set(models)) == len(models) == count_projected_models(n, clauses)


# ---------------------------------------------------------------------------
# DIMACS
# ---------------------------------------------------------------------------

def test_dimacs_exact_bytes():
    text = dimacs_text(3, [[1, -2], [3]])
    assert text == "p cnf 3 2\n1 -2 0\n3 0\n"


def test_solver_output_parsing():
    assert parse_solver_output("c hi\ns SATISFIABLE\nv 1 -2\nv 3 0\n") == [1, -2, 3]
    assert parse_solver_output("s UNSATISFIABLE\n") is None
    with pytest.raises(ValueError):
        parse_solver_output("c nothing\n")


def _solver_stand_in(cnf_path) -> str:
    """What an external DIMACS solver prints for the `.cnf` file at
    `cnf_path`: the built-in solver's verdict on the file's clauses, as
    `s` and `v` lines."""
    header, *lines = Path(cnf_path).read_text().splitlines()
    clauses = [[int(x) for x in line.split()[:-1]] for line in lines]
    model = CdclSolver(int(header.split()[2]), clauses).solve()
    if model is None:
        return "s UNSATISFIABLE\n"
    return f"s SATISFIABLE\nv {' '.join(map(str, model))} 0\n"


def test_external_solver_round_trip(tmp_path):
    # write_instance, then a DIMACS solver, then parse_solver_output and decode
    bordered = bordered_architecture(4)
    pinned_circuit = random_circuit(4, 2, 0.25, seed=1)
    pinned = struct_map(bordered, pinned_circuit)
    cases = [(custom_architecture(3, 3, []), circuit_from_gates([cnot("a", "b")]), None),
             (bordered, pinned_circuit, pinned)]  # a pinned map is folded into the file
    for i, (arch, circuit, qmap) in enumerate(cases):
        cnf = encode(arch, circuit, qmap, t_s=depth(circuit))
        # a dotted base keeps its whole name, so the two probes' files differ
        cnf_path, vars_path = write_instance(cnf, tmp_path / f"probe.t{i}")
        assert Path(cnf_path).read_bytes() == dimacs_text(cnf.num_vars, cnf.clauses).encode()
        assert Path(vars_path).read_text() == cnf.table.table_text()
        model = parse_solver_output(_solver_stand_in(cnf_path))
        assert model is not None
        got, route = decode(model, cnf.table, circuit, arch)
        assert validate(arch, circuit, got, route) == []
        if qmap is not None:
            assert got.as_dict == qmap.as_dict
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "probe.t0.cnf", "probe.t0.vars", "probe.t1.cnf", "probe.t1.vars"]
    cnf_path, _ = write_instance(encode(GRID3, FIG4_CIRCUIT, FIG4_MAP, t_s=1), tmp_path / "unsat")
    verdict = _solver_stand_in(cnf_path)
    assert verdict == "s UNSATISFIABLE\n" and parse_solver_output(verdict) is None


# ---------------------------------------------------------------------------
# Encoding + decoding
# ---------------------------------------------------------------------------

FIG4_CIRCUIT = circuit_from_gates([cnot("q0", "q1"), cnot("q2", "q3")])
FIG4_MAP = qubit_map({"q0": (1, 1), "q1": (3, 3), "q2": (3, 1), "q3": (1, 3)})
GRID3 = custom_architecture(3, 3, [])


def test_fig4_fixed_map_unsat_then_sat():
    assert solve(encode(GRID3, FIG4_CIRCUIT, qmap=FIG4_MAP, t_s=1)) is None
    assert solve(encode(GRID3, FIG4_CIRCUIT, qmap=FIG4_MAP, t_s=2)) is not None


def test_fig4_free_map_sat_at_one():
    assert solve(encode(GRID3, FIG4_CIRCUIT, t_s=1)) is not None


def test_encode_too_many_qubits_diagnostic():
    arch = custom_architecture(2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)])
    cnf = encode(arch, FIG4_CIRCUIT, t_s=1)
    assert cnf.diagnostic and solve(cnf) is None


def test_single_cnot_decode_orientation():
    c = circuit_from_gates([cnot("a", "b")])
    cnf = encode(GRID3, c, t_s=1)
    model = solve(cnf)
    assert model is not None
    qm, route = decode(model, cnf.table, c, GRID3)
    path = route.space[0]
    assert abs(path[0][1] - path[1][1]) == 1
    assert abs(path[-1][0] - path[-2][0]) == 1
    assert validate(GRID3, c, qm, route) == []


def test_decode_ignores_spurious_cycle():
    c = circuit_from_gates([cnot("a", "b")])
    cnf = encode(GRID3, c, t_s=2)  # the gate's window spans both steps
    model = solve(cnf)
    qm, route = decode(model, cnf.table, c, GRID3)
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
    model = set(model)
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
    assert wins == reference_exec_windows(c, 3)
    wide = reference_exec_windows(c, 3, prune=False)
    assert all(list(w) == [1, 2, 3] for w in wide)


def test_prune_and_no_prune_agree():
    for seed in range(6):
        c = random_circuit(3, 2, 0.4, seed=seed)
        arch = bordered_architecture(3)
        for t in range(depth(c), depth(c) + 2):
            a = solve(encode(arch, c, t_s=t)) is not None
            b = solve(reference_encode(arch, c, t_s=t, prune=False)) is not None
            assert a == b


@pytest.mark.parametrize("arch", [
    bordered_architecture(4), right_column_architecture(4), center_column_architecture(4),
    custom_architecture(1, 1, []), custom_architecture(1, 5, [(3, 1)]), custom_architecture(4, 1, []),
], ids=["bordered", "right-column", "center-column", "1x1", "one-row", "one-column"])
def test_encoder_adjacency_matches_oracle(arch):
    grid, cells = _grid(arch), arch.cells
    vertex_of = cells.vertex_of
    for v in arch.vertices():
        i = cells.id_of[v]
        assert [vertex_of[grid.head[j]] for j in grid.outs[i]] == oracles.neighbors(arch, v)
        assert [vertex_of[grid.tail[j]] for j in grid.ins[i]] == oracles.neighbors(arch, v)
    assert [(vertex_of[u], vertex_of[w]) for u, w in zip(grid.tail, grid.head)] == \
        list(oracles._directed_edges(arch))
    assert all(grid.tail[j ^ 1] == grid.head[j] for j in range(len(grid.tail)))
    assert all(grid.horizontal[j] == (vertex_of[u][1] == vertex_of[w][1])
               for j, (u, w) in enumerate(zip(grid.tail, grid.head)))
    assert not any(grid.ins[i] or grid.outs[i] for i, v in enumerate(vertex_of) if v is None)


def _edges_at(cnf, gate, t):
    return {(u, v) for (u, v, g, t2) in cnf.table.path_ids if (g, t2) == (gate, t)}


def _path_edges(paths):
    return {e for path in paths for e in zip(path, path[1:])}


@pytest.mark.parametrize("arch", [
    bordered_architecture(4), right_column_architecture(4), center_column_architecture(4),
    custom_architecture(4, 5, [(3, 1), (5, 3), (1, 4)]),
], ids=["bordered", "right-column", "center-column", "custom"])
def test_path_variables_cover_every_legal_path_under_a_pinned_map(arch):
    import random
    rng = random.Random(arch.rows * arch.cols)
    free = [v for v in arch.vertices() if v not in arch.magic]
    locations = free if arch.rows * arch.cols <= 20 else None
    covered = 0
    for seed in range(2):
        circuit = random_circuit(4, 2, 0.4, seed=seed)
        t_s = depth(circuit) + 1
        windows = exec_windows(circuit, t_s)
        for qmap in (oracles.struct_map(arch, circuit, locations),
                     oracles.random_map(arch, circuit, seed, locations),
                     qubit_map(dict(zip(circuit.qubits, rng.sample(free, 4))))):
            cnf = encode(arch, circuit, qmap, t_s=t_s)
            for g in circuit.gates:
                r = oracles.request_for_gate(arch, qmap, g)
                others = set(qmap.vertices()) - {r.source} - r.sinks
                needed = _path_edges(oracles.enumerate_legal_paths(
                    arch, others, r.source, r.sinks))
                for t in windows[g.index]:
                    assert needed <= _edges_at(cnf, g.index, t), (qmap, g)
                covered += len(needed)
    assert covered > 0


@pytest.mark.parametrize("arch", [
    custom_architecture(3, 3, []), custom_architecture(3, 3, [(2, 2)]),
    custom_architecture(3, 3, [(3, 1), (3, 3)]), custom_architecture(3, 2, [(1, 2)]),
], ids=["3x3", "center-magic", "right-magic", "2x3"])
def test_path_variables_cover_every_legal_path_under_a_free_map(arch):
    circuit = parse_circuit("cnot a b; t c")
    cnf = encode(arch, circuit, t_s=2)
    free = [v for v in arch.vertices() if v not in arch.magic]
    cnot_paths = [p for s in free for e in free if e != s
                  for p in oracles.enumerate_legal_paths(arch, set(), s, {e})]
    t_paths = [p for s in free for p in oracles.enumerate_legal_paths(arch, set(), s, arch.magic)]
    for g, paths in ((0, cnot_paths), (1, t_paths)):
        assert paths or (g == 1 and not arch.magic)
        for t in (1, 2):
            assert _path_edges(paths) <= _edges_at(cnf, g, t)


def test_two_t_gates_share_one_magic_vertex():
    # the at-least-one magic entry is guarded by the gate's exec literal, so
    # two T gates with one magic vertex run at separate steps
    arch = custom_architecture(4, 4, [(4, 4)])
    c = circuit_from_gates([tgate("a"), tgate("b")])
    m = qubit_map({"a": (2, 2), "b": (2, 3)})
    assert solve(encode(arch, c, qmap=m, t_s=2)) is not None


def test_var_table_stable_and_described():
    c = parse_circuit("cnot a b")
    cnf1 = encode(GRID3, c, t_s=1)
    cnf2 = encode(GRID3, c, t_s=1)
    assert cnf1.table.map_ids == cnf2.table.map_ids
    assert cnf1.table.path_ids == cnf2.table.path_ids
    text = cnf1.table.table_text()
    assert " exec 0 1" in text and " map a 1 1" in text


def test_cnf_instance_rejects_bad_literals():
    with pytest.raises(ValueError):
        CnfInstance(1, [[2]], VarTable(), 1)
    with pytest.raises(ValueError):
        CnfInstance(1, [[0]], VarTable(), 1)


def test_cnf_instance_names_first_bad_literal_in_clause_order():
    # the largest and the smallest bad literal come later than the first one
    with pytest.raises(ValueError, match=r"^literal 5 out of range 1\.\.3$"):
        CnfInstance(3, [[1, -2], [], [3, 5, 0], [-9], [40]], VarTable(), 1)
    with pytest.raises(ValueError, match=r"^literal 0 out of range 1\.\.3$"):
        CnfInstance(3, [[-3], [0, -4]], VarTable(), 1)
    with pytest.raises(ValueError, match=r"^literal -4 out of range 1\.\.3$"):
        CnfInstance(3, [[2, -4, 4]], VarTable(), 1)
    CnfInstance(3, [[], [3, -3, 1]], VarTable(), 1)
    CnfInstance(0, [[]], VarTable(), 1)


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


def test_optimal_result_is_frozen_and_pickles():
    # the one result the core hands back that could be changed in place;
    # `--jobs` workers return it pickled
    import dataclasses
    import pickle

    res = solve_optimal(GRID3, FIG4_CIRCUIT, qmap=FIG4_MAP)
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.steps = 1
    assert pickle.loads(pickle.dumps(res)) == res


def test_step_counts_below_one_step_or_the_depth_are_refused():
    with pytest.raises(ValueError, match="^cap 0 is below the depth lower bound 1$"):
        solve_optimal(GRID3, FIG4_CIRCUIT, qmap=FIG4_MAP, t_max=depth(FIG4_CIRCUIT) - 1)
    with pytest.raises(ValueError, match="^need at least one time step$"):
        encode(GRID3, FIG4_CIRCUIT, FIG4_MAP, t_s=0)


def test_solve_optimal_known_optimal_2_2():
    c = known_optimal(2, 2, seed=1)
    arch = custom_architecture(4, 4, [])
    res = solve_optimal(arch, c)
    assert res.steps == 2


def test_solve_optimal_empty_circuit():
    res = solve_optimal(GRID3, parse_circuit(""))
    assert res.steps == 0 and res.proven_minimal


def test_solve_optimal_timed_out_probe_is_not_a_proof(first_probe_times_out):
    # the probe at t = 1 times out instead of proving UNSAT, so the loop goes
    # on to t = 2 and cannot call that solution minimal
    res = solve_optimal(GRID3, FIG4_CIRCUIT, qmap=FIG4_MAP, timeout=30)
    assert (res.steps, res.proven_minimal) == (2, False)
    assert res.qmap.as_dict == FIG4_MAP.as_dict
    assert validate(GRID3, FIG4_CIRCUIT, res.qmap, res.route) == []
    assert len(first_probe_times_out) == 2 and all(0 < t <= 30 for t in first_probe_times_out)


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
        assert solve(encode(arch, c, t_s=t)) is not None


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
    assert solve(CnfInstance(cnf.num_vars, cnf.clauses + units, cnf.table, 1)) is not None


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


def test_encoding_bytes_pinned():
    # the DIMACS text of four fixed instances (a bordered fixed map, a free
    # map, and two T-heavy ones with one step of slack and magic columns at
    # the edge and down the middle), hashed after a pinned map's mapping
    # family was folded out and the out-degree bound went per start qubit.
    # The digests guard the bytes external solvers read; that the formula
    # keeps the reference encodings' verdicts and models is checked by
    # test_folded_encoding_matches_reference_solver and
    # test_encoding_keeps_the_reference_models_on_its_named_variables
    bordered = bordered_architecture(4)
    fixed = random_circuit(4, 3, 0.2, seed=3)
    free = random_circuit(4, 2, 0.25, seed=5)
    t_heavy = random_circuit(4, 3, 0.75, seed=0)
    instances = [(bordered, fixed, struct_map(bordered, fixed), depth(fixed)),
                 (bordered, free, None, depth(free))]
    for arch in (right_column_architecture(4), center_column_architecture(4)):
        instances.append((arch, t_heavy, struct_map(arch, t_heavy), depth(t_heavy) + 1))
    digests = []
    for arch, circuit, qmap, t_s in instances:
        cnf = encode(arch, circuit, qmap, t_s=t_s)
        digests.append(hashlib.sha256(dimacs_text(cnf.num_vars, cnf.clauses).encode()).hexdigest())
    assert digests == [
        "0f4431bfb814e11460c93a9f28b639edb6768d8ecb76a1dd53b0318fd874df55",
        "221eaf5cacc255a91ab1d54e820658b74d346853b6debb057c945b79d6f55ad4",
        "722445d22de9a8c415d154f24efd17fa56ecfedfb3dac814c3304b4904ca93fc",
        "427df82e981f12b61d2eb7f528148c65b0c96dc2dc39f8007d3b0b7b90b085e1",
    ]


# ---------------------------------------------------------------------------
# Differential checks against the encoder before the pinned map was folded
# into the encoding, each formula solved by both CDCL solvers
# ---------------------------------------------------------------------------

def _watch_lists(solver):
    """Each literal's non-empty watch list, from a dict keyed by literal or a
    list indexed by literal (negative ones from the end)."""
    watches = solver.watches
    if isinstance(watches, dict):
        return {lit: w for lit, w in watches.items() if w}
    assert len(watches) == 2 * solver.n + 1 and not watches[0]
    return {lit: watches[lit] for lit in range(-solver.n, solver.n + 1) if watches[lit]}


def _differential_maps(arch, circuit, seed):
    struct = struct_map(arch, circuit)
    spare = next(v for v in arch.vertices()
                 if v not in arch.magic and v not in struct.vertices())
    return (
        ("struct", struct),
        ("random", random_map(arch, circuit, seed)),
        ("extra qubit", qubit_map({**struct.as_dict, "spare": spare})),
        ("free", None),
    )


@pytest.mark.parametrize("make_arch,seed,t_fraction", [
    (bordered_architecture, 0, 0.0),
    (bordered_architecture, 1, 0.25),
    (right_column_architecture, 0, 0.75),  # fixed maps: UNSAT at the depth, then SAT
    (right_column_architecture, 2, 0.0),
    (center_column_architecture, 0, 0.0),
    (center_column_architecture, 1, 0.25),  # fixed maps: UNSAT at every probe
])
def test_folded_encoding_matches_reference_solver(make_arch, seed, t_fraction):
    # the encoder allocates path variables only on edges a legal path of the
    # gate can use, so its formula is the reference one with every other
    # path literal false: the same map and exec variables (under a pinned
    # map only the pinned map ones), fewer path variables,
    # the same verdicts, and models that decode to valid routes
    arch = make_arch(4)
    circuit = random_circuit(4, 2, t_fraction, seed=seed)
    for label, qmap in _differential_maps(arch, circuit, seed):
        for t in (depth(circuit), depth(circuit) + 1):
            ref = reference_encode(arch, circuit, qmap, t_s=t)
            cnf = encode(arch, circuit, qmap, t_s=t)
            if qmap is None:
                assert cnf.table.map_ids == ref.table.map_ids, label
            else:
                pins = {(q, qmap[q]) for q in circuit.qubits}
                assert cnf.table.map_ids.keys() == pins <= ref.table.map_ids.keys(), label
            # the map ids come first, so under a pinned map every exec id
            # moves down by the number of map ids left out
            shift = len(ref.table.map_ids) - len(cnf.table.map_ids)
            assert {k: i + shift for k, i in cnf.table.exec_ids.items()} == ref.table.exec_ids, label
            assert cnf.table.path_ids.keys() <= ref.table.path_ids.keys(), label
            if qmap is not None:
                assert len(cnf.clauses) < len(ref.clauses) / 2, label
            model, _ = _assert_matches_dict_watch_solver(cnf.num_vars, lambda: cnf.clauses)
            assert (model is None) == (solve(ref) is None), label
            if model is not None:
                got, route = decode(model, cnf.table, circuit, arch)
                if qmap is not None:
                    # the formula places the circuit's qubits only, so the
                    # spare one of "extra qubit" is not part of the check
                    placed = {q: qmap[q] for q in circuit.qubits}
                    assert got.as_dict == placed, label
                assert validate(arch, circuit, got, route) == [], label
                break


# ---------------------------------------------------------------------------
# Differential checks against the encoder before a pinned map's mapping
# family was folded out and the out-degree bound went per start qubit
# ---------------------------------------------------------------------------

def _names(table):
    """Each named variable's id -> its (family, key) name."""
    names = {i: ("map", k) for k, i in table.map_ids.items()}
    names.update((i, ("exec", k)) for k, i in table.exec_ids.items())
    names.update((i, ("path", k)) for k, i in table.path_ids.items())
    return names


def _named_models(cnf, keep):
    """Every model of `cnf` projected onto the names in `keep`, each as the
    set of names it makes true: the solver runs again after each model with
    a clause that blocks the model's projection."""
    ids = {i: name for i, name in _names(cnf.table).items() if name in keep}
    solver = CdclSolver(cnf.num_vars, cnf.clauses)
    models = set()
    while (model := solver.solve()) is not None:
        models.add(frozenset(ids[lit] for lit in model if lit in ids))
        solver.add_clause([-lit for lit in model if abs(lit) in ids])
    return models


def _tiny_instances(rng, size):
    """Grids of up to 3x4 with 0-2 magic vertices and 1-3 gates on 1-3
    qubits, under a pinned map, and under a free map on up to 6 cells with
    up to 2 qubits; first the shapes where two gates with one start qubit
    share a step of their windows at t = depth + 1."""
    corner = custom_architecture(3, 3, [(3, 3)])
    pairs = [(corner, parse_circuit("t a; t a"), {"a": (2, 2)}),
             (corner, parse_circuit("cnot a b; cnot a c"), {"a": (2, 2), "b": (1, 1), "c": (1, 3)}),
             (custom_architecture(2, 2, [(2, 2)]), parse_circuit("t a; t a"), None),
             (custom_architecture(2, 3, []), parse_circuit("cnot a b; cnot a b"), None)]
    corpus = [(arch, c, m and qubit_map(m)) for arch, c, m in pairs]
    while len(corpus) < size:
        rows, cols = rng.randint(1, 3), rng.randint(2, 4)
        cells = [(a, b) for a in range(1, cols + 1) for b in range(1, rows + 1)]
        arch = custom_architecture(rows, cols, rng.sample(cells, rng.randint(0, min(2, len(cells) - 1))))
        free = [v for v in arch.vertices() if v not in arch.magic]
        qubits = ["a", "b", "c"][:rng.randint(1, min(3, len(free)))]
        gates = [cnot(*rng.sample(qubits, 2)) if len(qubits) > 1 and rng.random() < 0.6
                 else tgate(rng.choice(qubits)) for _ in range(rng.randint(1, 3))]
        circuit = circuit_from_gates(gates)
        if rng.random() < 0.25:
            if len(cells) > 6 or circuit.num_qubits > 2:
                continue
            corpus.append((arch, circuit, None))
        else:
            placed = rng.sample(free, circuit.num_qubits)
            corpus.append((arch, circuit, qubit_map(dict(zip(circuit.qubits, placed)))))
    return corpus


def test_encoding_keeps_the_reference_models_on_its_named_variables():
    # under a pinned map the encoder allocates only the pinned map literals
    # and replaces the out-degree bound across all gates at a vertex by one
    # per start qubit where that qubit may sit and one per gate elsewhere;
    # every other bound is implied, so projected onto the named variables
    # it keeps, the formula has exactly the reference formula's models
    import random
    totals = {"pinned": 0, "free": 0}
    for arch, circuit, qmap in _tiny_instances(random.Random(17), 60):
        for t in (depth(circuit), depth(circuit) + 1):
            cnf = encode(arch, circuit, qmap, t_s=t)
            ref = oracles.usable_edge_encode(arch, circuit, qmap, t_s=t)
            keep = set(_names(cnf.table).values())
            assert keep <= set(_names(ref.table).values())
            got = _named_models(cnf, keep)
            assert got == _named_models(ref, keep), (arch, circuit.gates, qmap, t)
            totals["free" if qmap is None else "pinned"] += len(got)
    assert min(totals.values()) > 0


def test_encoding_matches_the_plain_encoder_byte_for_byte():
    # the encoder's shortcuts (start and end clauses only at a pinned map's
    # own vertices, path ids computed from each gate's first id per edge,
    # usable edges from one predicate per start and ends, a gate's
    # out-degree clauses built once for its window) leave its formula as the
    # plain one. The first inputs are where the predicate's start and end
    # branches meet: a pinned qubit the circuit never uses, CNOT qubits on
    # neighbouring vertices, T operands next to the magic vertex, a free
    # map around an interior magic vertex, and one-row and one-column grids,
    # whose cell ids have no vertical or no horizontal neighbor
    import random
    corner = custom_architecture(3, 3, [(3, 3)])
    one_row, one_column = custom_architecture(1, 5, [(3, 1)]), custom_architecture(4, 1, [])
    corpus = [(corner, parse_circuit("cnot a b; t b"), qubit_map({"a": (1, 1), "b": (1, 3), "c": (2, 2)})),
              (corner, parse_circuit("cnot a b; cnot a c"), qubit_map({"a": (2, 2), "b": (1, 2), "c": (2, 1)})),
              (corner, parse_circuit("t a; t b"), qubit_map({"a": (2, 3), "b": (3, 2)})),
              (custom_architecture(3, 4, [(2, 2)]), parse_circuit("cnot a b; t a"), None),
              (one_row, parse_circuit("cnot a b; t a"), qubit_map({"a": (1, 1), "b": (4, 1)})),
              (one_row, parse_circuit("cnot a b; t b"), None),
              (one_column, parse_circuit("cnot a b; cnot b a"), qubit_map({"a": (1, 1), "b": (1, 3)})),
              (one_column, parse_circuit("cnot a b"), None)]
    corpus += _tiny_instances(random.Random(5), 120)
    for make_arch in (bordered_architecture, right_column_architecture, center_column_architecture):
        for seed in range(5):
            arch, circuit = make_arch(4), random_circuit(4, 3 + seed, 0.15 * seed, seed=seed)
            corpus += [(arch, circuit, struct_map(arch, circuit)),
                       (arch, circuit, random_map(arch, circuit, seed))]
            if seed < 2:
                corpus.append((arch, random_circuit(3, 2, 0.3, seed=seed), None))
    for arch, circuit, qmap in corpus:
        for t in (depth(circuit), depth(circuit) + 1, depth(circuit) + 2):
            cnf = encode(arch, circuit, qmap, t_s=t)
            ref = oracles.plain_encode(arch, circuit, qmap, t_s=t)
            assert (cnf.num_vars, cnf.clauses, cnf.table) == (ref.num_vars, ref.clauses, ref.table)


def _probe_corpus(rng, size):
    """`size` seeded (arch, circuit, qmap) instances: 2-4 qubits, depth 1-3,
    0-70% T gates, on bordered, right-column, center-column and small custom
    grids, under struct, random and arbitrary maps, and free maps for up to
    3 qubits and depth 2 on the small grids."""
    grids = [bordered_architecture(4), right_column_architecture(4),
             center_column_architecture(4), custom_architecture(3, 4, [(4, 1), (4, 3)]),
             custom_architecture(4, 3, [(2, 2)])]
    corpus = []
    while len(corpus) < size:
        arch = rng.choice(grids)
        free = [v for v in arch.vertices() if v not in arch.magic]
        small = arch.rows * arch.cols <= 12  # too small for regular locations
        circuit = random_circuit(rng.randint(2, 4), rng.randint(1, 3), rng.choice((0.0, 0.3, 0.7)),
                                 seed=rng.randrange(2 ** 30))
        kind = rng.choice(("struct", "random", "arbitrary", "free"))
        if kind == "struct":
            qmap = oracles.struct_map(arch, circuit, free if small else None)
        elif kind == "random":
            qmap = oracles.random_map(arch, circuit, rng.randrange(2 ** 30), free if small else None)
        elif kind == "arbitrary":
            qmap = qubit_map(dict(zip(circuit.qubits, rng.sample(free, circuit.num_qubits))))
        elif small and circuit.num_qubits < 4 and depth(circuit) < 3:
            qmap = None  # larger free maps take seconds a probe on the reference
        else:
            continue
        corpus.append((arch, circuit, qmap))
    return corpus


def _optimum(arch, circuit, qmap):
    """(steps, proven_minimal) of `solve_optimal` up to two steps above the
    depth, or "cap" when none of those step counts is feasible."""
    try:
        res = solve_optimal(arch, circuit, qmap=qmap, t_max=depth(circuit) + 2)
    except CapExhausted:
        return "cap"
    assert validate(arch, circuit, res.qmap, res.route) == []
    return res.steps, res.proven_minimal


def test_solve_optimal_matches_reference_encoding_probe_loop(monkeypatch):
    # the step loop over the usable-edge formula against the same loop over
    # the reference formula, which gives every gate every edge; the check
    # for gates without a legal path is off (a greedy router that never
    # raises), so that both encoders walk the whole loop, the UNSAT probes of
    # unroutable instances included
    import importlib
    import random
    solve_module = importlib.import_module("scmr.sat.solve")
    monkeypatch.setattr(solve_module, "greedy_route", lambda arch, circuit, qmap: None)
    probes = []

    def counted(encoder):
        def probe(*args, **kwargs):
            probes.append(encoder.__module__)
            return encoder(*args, **kwargs)
        return probe

    corpus = _probe_corpus(random.Random(13), 170)
    monkeypatch.setattr(solve_module, "encode", counted(encode))
    got = [_optimum(*instance) for instance in corpus]
    monkeypatch.setattr(solve_module, "encode", counted(reference_encode))
    want = [_optimum(*instance) for instance in corpus]
    assert got == want
    assert probes.count("oracles") == probes.count("scmr.sat.encoding") >= 300
    assert "cap" in got and any(r != "cap" and r[0] > depth(c) for r, (_, c, _) in zip(got, corpus))


def test_cdcl_matches_reference_on_random_cnf():
    import random
    rng = random.Random(7)
    satisfiable = 0
    for trial in range(60):
        n = rng.randint(3, 90)
        width = rng.choice((2, 3, 3, 4))
        clauses = [[v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, n + 1), min(width, n))]
                   for _ in range(int(n * rng.uniform(1.0, 5.0)))]
        model, _ = _assert_matches_dict_watch_solver(n, lambda: clauses)
        satisfiable += model is not None
    assert 0 < satisfiable < 60


def _pigeonhole(holes):
    """holes + 1 pigeons in `holes` holes: unsatisfiable."""
    var = lambda p, h: p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(holes + 1)]
    clauses += [[-var(p, h), -var(q, h)] for h in range(holes)
                for p in range(holes + 1) for q in range(p + 1, holes + 1)]
    return (holes + 1) * holes, clauses


def test_cdcl_matches_reference_through_activity_rescale():
    # pigeonhole 7 -> 6 needs a few hundred conflicts; a large starting
    # increment on both solvers drives the activities past the rescale point
    num_vars, clauses = _pigeonhole(6)
    new, ref = CdclSolver(num_vars, clauses), DictWatchCdclSolver(num_vars, clauses)
    new.var_inc = ref.var_inc = 1e95
    assert new.solve() is None and ref.solve() is None
    assert new.var_inc < 1e95  # the rescale ran
    assert new.clauses == ref.clauses and new.activity == ref.activity


class _HeapCheckedSolver(CdclSolver):
    """Checks the decision heap before every decision: each unassigned
    variable has its current entry, and no entry is there twice."""

    def _decide(self):
        assert len(set(self.heap)) == len(self.heap)
        current = {v for act, v in self.heap if -act == self.activity[v]}
        assert all(v in current for v in range(1, self.n + 1) if not self.vals[v])
        return super()._decide()


def test_cdcl_heap_has_no_duplicates_and_misses_no_variable():
    import random
    rng = random.Random(11)
    for trial in range(20):
        n = rng.randint(10, 60)
        clauses = [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]
                   for _ in range(int(n * 4.3))]
        assert _HeapCheckedSolver(n, clauses).solve() == CdclSolver(n, clauses).solve()
    solver = _HeapCheckedSolver(*_pigeonhole(5))
    solver.var_inc = 1e99  # rescale after a few conflicts
    assert solver.solve() is None and solver.var_inc < 1e99


def test_cdcl_rejects_out_of_range_literals():
    # values are indexed by literal, so an id above num_vars must not alias
    # another variable's negation
    with pytest.raises(ValueError, match="literal 2 out of range"):
        CdclSolver(1, [[2]]).solve()
    with pytest.raises(ValueError, match="literal 0 out of range"):
        CdclSolver(2, [[1, 0]]).solve()


@pytest.mark.parametrize("enabled", [True, False])
def test_cdcl_loads_clauses_with_gc_paused_and_restores_its_state(enabled):
    seen = []

    def clauses(bad):
        seen.append(gc.isenabled())   # read while the constructor loads
        yield [1, 2]
        yield [-1, 2]
        if bad:
            yield [3]

    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert CdclSolver(2, clauses(False)).solve() is not None
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError, match="literal 3 out of range"):
            CdclSolver(2, clauses(True))
        assert gc.isenabled() is enabled
        assert seen == [False, False]
    finally:
        gc.enable() if was else gc.disable()


# ---------------------------------------------------------------------------
# Differential checks against the solver before one-pass clause intake and
# literal-indexed watch lists
# ---------------------------------------------------------------------------

def _assert_matches_dict_watch_solver(num_vars, clauses_of):
    """Both solvers raise the same error, or hold the same state after
    construction and then return the same model, learn the same clauses and
    end with the same activities and watch lists. `clauses_of()` builds the
    clauses afresh for each solver, so they may hold generators. Returns the
    model (or None) and the number of learned clauses, or the error text."""
    try:
        ref = DictWatchCdclSolver(num_vars, clauses_of())
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            CdclSolver(num_vars, clauses_of())
        assert str(got.value) == str(e)
        return str(e)
    new = CdclSolver(num_vars, clauses_of())
    assert (new.clauses, new.trail, new.ok) == (ref.clauses, ref.trail, ref.ok)
    assert _watch_lists(new) == _watch_lists(ref)
    kept = len(new.clauses)
    model = new.solve()
    assert model == ref.solve()
    assert new.clauses == ref.clauses
    assert new.activity == ref.activity
    assert (new.trail, _watch_lists(new)) == (ref.trail, _watch_lists(ref))
    return model, len(new.clauses) - kept


def _perfbench_shaped_instances():
    """(label, arch, circuit, qmap, t) for the kinds of probe the `exact`
    benchmark workload solves: fixed struct maps at depth 6 and 10, a T-heavy
    right-column map, a free map and a center-column map with a CNOT across
    the magic column."""
    bordered = bordered_architecture(4)
    for d in (6, 10):
        circuit = random_circuit(4, d, 0.2, seed=d)
        yield f"fixed d{d}", bordered, circuit, struct_map(bordered, circuit), d
    right = right_column_architecture(4)
    t_heavy = random_circuit(4, 3, 0.7, seed=1)
    for t in (3, 4, 5):
        yield f"T-heavy t={t}", right, t_heavy, struct_map(right, t_heavy), t
    free = random_circuit(4, 2, 0.2, seed=2)
    yield "free map", bordered, free, None, 2
    center = center_column_architecture(4, widen=True)
    column = min(v[0] for v in center.magic)
    for seed in itertools.count():
        cross = random_circuit(4, 2, 0.3, seed=seed)
        qmap = struct_map(center, cross)
        if any(g.kind is GateKind.CNOT
               and (qmap[g.control][0] < column) != (qmap[g.target][0] < column)
               for g in cross.gates):
            yield "cross-column", center, cross, qmap, 2
            break


def _perfbench_shaped_probes():
    """(label, cnf) for each of `_perfbench_shaped_instances`."""
    for label, arch, circuit, qmap, t in _perfbench_shaped_instances():
        yield label, encode(arch, circuit, qmap, t_s=t)


def test_cdcl_matches_dict_watch_solver_on_perfbench_shaped_formulas():
    verdicts = {}
    learned = 0
    for label, cnf in _perfbench_shaped_probes():
        model, n_learned = _assert_matches_dict_watch_solver(cnf.num_vars, lambda: cnf.clauses)
        verdicts[label] = model is not None
        learned += n_learned
    assert verdicts["fixed d6"] and verdicts["fixed d10"] and verdicts["free map"]
    assert not verdicts["cross-column"]
    assert learned > 0


_CLAUSE_SHAPES = (list, tuple, lambda lits: (l for l in lits))


def _random_clause_specs(rng):
    """A random formula over 2-60 variables with the cases clause intake
    tells apart: duplicate literals, tautologies, literals fixed by earlier
    units (root-satisfied or root-false clauses), now and then conflicting
    units, the empty clause or a 0 / out-of-range literal; each clause a
    list, tuple or generator."""
    n = rng.randint(2, 60)
    lit = lambda v: v if rng.random() < 0.5 else -v
    specs = [[lit(rng.randint(1, n))] for _ in range(rng.randint(0, 3))]
    for _ in range(int(n * rng.uniform(1.5, 5.0))):
        width = 1 if rng.random() < 0.02 else rng.choice((2, 3, 3, 3, 4))
        lits = [lit(v) for v in rng.sample(range(1, n + 1), min(width, n))]
        r = rng.random()
        if r < 0.05:
            lits.insert(rng.randrange(len(lits) + 1), lits[0])
        elif r < 0.1:
            lits.insert(rng.randrange(len(lits) + 1), -lits[0])
        specs.append(lits)
    r = rng.random()
    if r < 0.05:
        specs.insert(rng.randrange(len(specs) + 1), [])
    elif r < 0.1:
        v, at = rng.randint(1, n), rng.randrange(len(specs) + 1)
        specs[at:at] = [[v], [-v]]
    elif r < 0.2:
        bad = rng.choice((0, n + 1, -(n + 1), 2 * n, -2 * n))
        target = rng.choice(specs)
        target.insert(rng.randrange(len(target) + 1), bad)
    shapes = [rng.choice(_CLAUSE_SHAPES) for _ in specs]
    return n, lambda: [shape(lits) for shape, lits in zip(shapes, specs)]


def test_cdcl_matches_dict_watch_solver_on_random_cnf():
    import random
    rng = random.Random(23)
    outcomes = {"sat": 0, "unsat": 0, "error": 0}
    learned = 0
    for trial in range(400):
        n, clauses_of = _random_clause_specs(rng)
        got = _assert_matches_dict_watch_solver(n, clauses_of)
        if isinstance(got, str):
            outcomes["error"] += 1
            continue
        model, n_learned = got
        outcomes["sat" if model is not None else "unsat"] += 1
        learned += n_learned
    assert all(outcomes.values()) and learned > 0, outcomes


class _CountingClock:
    """Stands in for `time` in `scmr.sat.cdcl`: `monotonic()` reads the
    number of calls made so far, so a deadline stops a search at a fixed
    point of it."""

    def __init__(self):
        self.calls = 0

    def monotonic(self):
        self.calls += 1
        return float(self.calls)


def _satisfies(model, clauses) -> bool:
    truth = set(model)
    return all(any(l in truth for l in c) for c in clauses)


def test_cdcl_searched_again_after_a_timeout_keeps_its_verdict(monkeypatch):
    # a search stopped by its deadline may leave a conflict pending; searched
    # again, the solver must start from the root with the clauses it learned
    # and give a fresh solver's verdict, give it once more, and go on to
    # enumerate models under a blocking clause
    import random
    import sys

    cdcl_module = sys.modules["scmr.sat.cdcl"]
    n, stops = 120, (8, 4, 2, 1)
    seeds = itertools.count()
    verdicts = []
    while len(verdicts) < 30:
        seed = next(seeds)
        rng = random.Random(seed)
        clauses = [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]
                   for _ in range(round(4.2 * n))]
        want = CdclSolver(n, clauses).solve() is not None
        for stop in stops:
            solver = CdclSolver(n, clauses)
            with monkeypatch.context() as m:
                m.setattr(cdcl_module, "time", _CountingClock())
                if stop == stops[0]:
                    # a formula decided before the largest stop is passed over
                    try:
                        early = solver.solve(timeout=stop)
                    except SolverTimeout:
                        pass
                    else:
                        assert (early is not None) == want
                        break
                else:
                    with pytest.raises(SolverTimeout):
                        solver.solve(timeout=stop)
            model = solver.solve()
            assert (model is not None) == want, (seed, stop)
            again = solver.solve()
            assert (again is not None) == want, (seed, stop)
            if want:
                assert _satisfies(model, clauses) and _satisfies(again, clauses)
                solver.add_clause([-l for l in again])
                other = solver.solve()
                assert other is None or (_satisfies(other, clauses) and other != again)
        else:
            verdicts.append(want)
    assert 5 < sum(verdicts) < 25, verdicts


def test_cdcl_deadline_stops_a_hard_search_on_the_real_clock():
    import time

    solver = CdclSolver(*_pigeonhole(9))
    start = time.monotonic()
    with pytest.raises(SolverTimeout, match=r"^no verdict within 0\.200s$"):
        solver.solve(timeout=0.2)
    assert time.monotonic() - start < 2.0


def test_probe_timeout_counts_solver_construction(monkeypatch, tmp_path, capsys):
    import sys
    import time

    from scmr.cli import EXIT_TIMEOUT, run

    timeouts = []

    class SlowBuild:
        def __init__(self, num_vars, clauses):
            time.sleep(0.05)

        def solve(self, timeout=None):
            timeouts.append(timeout)
            return None

    monkeypatch.setattr(sys.modules["scmr.sat.solve"], "CdclSolver", SlowBuild)
    circuit = circuit_from_gates([cnot("a", "b")])
    cnf = encode(GRID3, circuit, t_s=1)
    with pytest.raises(SolverTimeout, match=r"^no verdict within 0\.010s$"):
        solve(cnf, timeout=0.01)
    assert timeouts == []
    assert solve(cnf, timeout=5.0) is None
    assert 0 < timeouts[-1] <= 5.0 - 0.05
    assert solve(cnf) is None and timeouts[-1] is None
    with pytest.raises(SolverTimeout, match="^probes up to 1 steps timed out without a solution$"):
        solve_optimal(GRID3, circuit, timeout=0.01)
    circuit_file = tmp_path / "one.qc"
    circuit_file.write_text(serialize_circuit(circuit))
    capsys.readouterr()
    code = run(["compile", str(circuit_file), "--out", str(tmp_path / "out"), "--mapper",
                "optimal", "--router", "optimal", "--timeout", "0.01"])
    assert code == EXIT_TIMEOUT
    assert capsys.readouterr().err == "timeout: probes up to 1 steps timed out without a solution\n"


# ---------------------------------------------------------------------------
# The step loop against the loop that always climbs to the cap
# ---------------------------------------------------------------------------

def _climb_corpus(rng, size):
    """`size` seeded (arch, circuit, qmap) instances: 2-4 qubits, depth 1-3,
    0-70% T gates, on bordered, right-column and center-column grids (where
    struct maps put CNOTs across the magic column) and on a grid with no
    magic vertex (where every T gate is unroutable), under struct, random,
    arbitrary and spare-qubit maps; and free maps for up to 3 qubits and
    depth 2 on two small grids, or on one with fewer free vertices than
    qubits."""
    small = [custom_architecture(3, 4, []), custom_architecture(3, 4, [(4, 1), (4, 3)])]
    grids = [bordered_architecture(4), right_column_architecture(4),
             center_column_architecture(4), small[0]]
    crowded = custom_architecture(2, 2, [(1, 1), (2, 1)])
    corpus = []
    while len(corpus) < size:
        arch = rng.choice(grids)
        free = [v for v in arch.vertices() if v not in arch.magic]
        circuit = random_circuit(rng.randint(2, 4), rng.randint(1, 3), rng.choice((0.0, 0.3, 0.7)),
                                 seed=rng.randrange(2 ** 30))
        kind = rng.choice(("struct", "random", "arbitrary", "spare", "free", "crowded"))
        locations = free if arch in small else None  # too small for regular locations
        if kind == "struct":
            qmap = oracles.struct_map(arch, circuit, locations)
        elif kind == "random":
            qmap = oracles.random_map(arch, circuit, rng.randrange(2 ** 30), locations)
        elif kind in ("arbitrary", "spare"):
            names = list(circuit.qubits) + (["spare"] if kind == "spare" else [])
            qmap = qubit_map(dict(zip(names, rng.sample(free, len(names)))))
        elif circuit.num_qubits == 4 or depth(circuit) == 3:
            continue
        elif kind == "free":
            arch, qmap = rng.choice(small), None
        elif circuit.num_qubits > 2:
            arch, qmap = crowded, None
        else:
            continue
        corpus.append((arch, circuit, qmap))
    return corpus


@pytest.fixture
def probes(monkeypatch):
    """A counter of the encodes, so the probes, of both step loops."""
    import importlib

    def probe(*args, **kwargs):
        probe.calls += 1
        return encode(*args, **kwargs)

    probe.calls = 0
    monkeypatch.setattr(importlib.import_module("scmr.sat.solve"), "encode", probe)
    return probe


def _outcome(solver, probes, arch, circuit, qmap):
    """(result, probes): steps and proof of `solver`'s answer, or its
    exception type and cap; every route must pass `validate`."""
    before = probes.calls
    try:
        res = solver(arch, circuit, qmap=qmap)
    except CapExhausted as e:
        result = (type(e).__name__, e.t_max)
    else:
        assert validate(arch, circuit, res.qmap if qmap is None else qmap, res.route) == []
        result = (res.steps, res.proven_minimal)
    return result, probes.calls - before


def _solo_unroutable(arch, circuit, qmap):
    blocked = set(qmap.vertices())
    return any(oracles.layered_shortest_length(arch, blocked, r.source, r.sinks) is None
               for r in (oracles.request_for_gate(arch, qmap, g) for g in circuit.gates))


def test_solve_optimal_matches_probe_loop_that_always_climbs(probes):
    import random
    corpus = _climb_corpus(random.Random(29), 220)
    kinds = {"unroutable": 0, "diagnostic": 0, "free": 0, "above depth": 0}
    for arch, circuit, qmap in corpus:
        got, new_probes = _outcome(solve_optimal, probes, arch, circuit, qmap)
        want, old_probes = _outcome(oracles.probe_loop_solve_optimal, probes, arch, circuit, qmap)
        assert got == want, (serialize_circuit(circuit), qmap)
        assert new_probes <= old_probes
        if qmap is None:
            kinds["free"] += 1
            if arch.num_vertices - len(arch.magic) < circuit.num_qubits:
                kinds["diagnostic"] += 1
                assert new_probes == 1 < old_probes
        elif _solo_unroutable(arch, circuit, qmap):
            kinds["unroutable"] += 1
            assert got == ("CapExhausted", len(circuit.gates)) and new_probes == 1
        if got[0] != "CapExhausted" and got[0] > depth(circuit):
            kinds["above depth"] += 1
    assert kinds["unroutable"] >= 40 and all(kinds.values()), kinds


def test_solve_optimal_stops_after_one_probe_when_a_gate_cannot_be_routed(probes):
    # the loop that always climbs runs 13 UNSAT probes, up to the gate count
    arch = center_column_architecture(4, widen=True)
    circuit = random_circuit(4, 8, 0.3, seed=124576495)
    with pytest.raises(CapExhausted) as info:
        solve_optimal(arch, circuit, qmap=struct_map(arch, circuit))
    assert (info.value.t_max, probes.calls) == (20, 1)


def test_solve_optimal_stops_after_one_probe_on_too_many_qubits(probes):
    arch = custom_architecture(2, 2, [(1, 1), (1, 2), (2, 1)])
    circuit = random_circuit(3, 2, 0.3, seed=1)
    with pytest.raises(CapExhausted) as info:
        solve_optimal(arch, circuit)
    assert (info.value.t_max, probes.calls) == (len(circuit.gates), 1)
    assert len(circuit.gates) > 1


def test_solve_optimal_keeps_routes_off_pinned_qubits_the_circuit_does_not_use():
    # the spare qubit s sits on the only vertical neighbor of a's vertex
    from scmr.routing import UnroutableGateError, greedy_route
    arch = custom_architecture(2, 2, [])
    circuit = circuit_from_gates([cnot("a", "b")])
    qmap = qubit_map({"a": (1, 1), "b": (2, 2), "s": (1, 2)})
    with pytest.raises(CapExhausted):
        solve_optimal(arch, circuit, qmap=qmap)
    with pytest.raises(UnroutableGateError):
        greedy_route(arch, circuit, qmap)
