"""Cross-checks pitting independent components against each other:
encoder vs validator (both directions), exact vs brute force on randomized
instances, exact vs greedy dominance, and the disjoint-path reduction on
larger pair grids.
"""
import random
from pathlib import Path

import pytest

from scmr.architecture import bordered_architecture, custom_architecture
from scmr.bench import ndp_to_scr, random_circuit
from scmr.circuit import circuit_from_gates, cnot, depth, tgate
from scmr.mapping import qubit_map, random_map, struct_map
from scmr.routing import GateRoute, UnroutableGateError, greedy_route, validate
from scmr.sat import (
    CapExhausted,
    CdclSolver,
    CnfInstance,
    encode,
    route_literals,
    solve,
    solve_optimal,
    write_instance,
)

import oracles
from oracles import brute_force_optimum, ndp_feasible


def _solution_units(cnf, circuit, qmap, route):
    lits = route_literals(cnf.table, circuit, qmap, route)
    return None if lits is None else [[lit] for lit in lits]


def test_invalid_solutions_are_unsatisfiable():
    # overlapping same-step paths cannot be asserted into the formula
    arch = custom_architecture(3, 3, [])
    circuit = circuit_from_gates([cnot("q0", "q1"), cnot("q2", "q3")])
    crossing = qubit_map({"q0": (1, 1), "q1": (3, 3), "q2": (3, 1), "q3": (1, 3)})
    overlap = GateRoute(1, {0: 1, 1: 1}, {
        0: ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3)),
        1: ((3, 1), (3, 2), (2, 2), (2, 3), (1, 3)),
    })
    assert validate(arch, circuit, crossing, overlap)  # validator rejects it
    cnf = encode(arch, circuit, qmap=crossing, t_s=1)
    units = _solution_units(cnf, circuit, crossing, overlap)
    assert units is not None
    assert solve(CnfInstance(cnf.num_vars, cnf.clauses + units, cnf.table, 1)) is None


def test_valid_greedy_solutions_are_satisfiable():
    # every validator-approved greedy solution is a model of the formula
    for seed in range(8):
        circuit = random_circuit(2 + seed % 3, 1 + seed % 2, (seed % 2) / 2, seed=seed)
        arch = bordered_architecture(circuit.num_qubits)
        qmap = random_map(arch, circuit, seed=seed)
        route = greedy_route(arch, circuit, qmap)
        assert validate(arch, circuit, qmap, route) == []
        cnf = encode(arch, circuit, qmap=qmap, t_s=max(route.steps, 1))
        units = _solution_units(cnf, circuit, qmap, route)
        assert units is not None  # valid schedules always fit the pruned windows
        assert solve(CnfInstance(cnf.num_vars, cnf.clauses + units, cnf.table, cnf.t_s)) is not None


def _extends_to_model(cnf, lits) -> bool:
    """Whether `cnf` has a model that sets `lits` true and every other named
    variable false. The clauses those values satisfy are dropped, the
    literals they make false are cut from the rest, and the solver runs on
    what is left, its variables numbered afresh."""
    n, size = cnf.table.num_named, 2 * cnf.num_vars + 1
    value = [2] * size  # indexed by literal, negative ones from the end
    value[1:n + 1] = [0] * n
    value[size - n:] = [1] * n
    for lit in lits:
        value[lit], value[-lit] = 1, 0
    rest = [[lit for lit in c if value[lit] == 2] for c in cnf.clauses
            if 1 not in map(value.__getitem__, c)]
    ids = {}
    for c in rest:
        for lit in c:
            ids.setdefault(abs(lit), len(ids) + 1)
    renamed = [[ids[lit] if lit > 0 else -ids[-lit] for lit in c] for c in rest]
    return CdclSolver(len(ids), renamed).solve() is not None


def test_valid_greedy_routes_extend_to_models():
    # the usable-edge rule, the pinned-map fold and the out-degree bound per
    # start qubit keep every validator-approved route a model: its literals
    # exist at its own step count and one step more, and with every other
    # named variable false they extend to a model. Checked on the router's
    # differential and crowded-map instances and on the exact benchmark's
    # probe shapes (the free one under the struct map)
    from test_routing import _crowded_instances, _differential_instances
    from test_sat import _perfbench_shaped_instances
    shaped = [(arch, c, m if m is not None else struct_map(arch, c))
              for _, arch, c, m, _ in _perfbench_shaped_instances()]
    checked = 0
    for arch, circuit, qmap in [*_differential_instances(), *_crowded_instances(), *shaped]:
        try:
            route = greedy_route(arch, circuit, qmap)
        except UnroutableGateError:
            continue
        assert validate(arch, circuit, qmap, route) == []
        for t in (route.steps, route.steps + 1):
            cnf = encode(arch, circuit, qmap, t_s=t)
            lits = route_literals(cnf.table, circuit, qmap, route)
            assert lits is not None and _extends_to_model(cnf, lits), (circuit.gates, qmap, t)
        checked += 1
    assert checked > 150


def _random_instance(rng):
    rows = rng.randint(2, 3)
    cols = rng.randint(2, 4)
    cells = [(a, b) for a in range(1, cols + 1) for b in range(1, rows + 1)]
    magic = rng.sample(cells, rng.randint(0, 2))
    arch = custom_architecture(rows, cols, magic)
    qubits = ["a", "b", "c"][: rng.randint(1, 3)]
    gates = []
    for _ in range(rng.randint(1, 3)):
        if len(qubits) >= 2 and rng.random() < 0.7:
            u, v = rng.sample(qubits, 2)
            gates.append(cnot(u, v))
        else:
            gates.append(tgate(rng.choice(qubits)))
    return arch, circuit_from_gates(gates)


def test_randomized_oracle_equivalence():
    rng = random.Random(424242)
    for _ in range(60):
        arch, circuit = _random_instance(rng)
        cap = max(depth(circuit), len(circuit.gates))
        witness = brute_force_optimum(arch, circuit, cap)
        want = witness[0] if witness is not None else None
        try:
            got = solve_optimal(arch, circuit, t_max=cap).steps
        except CapExhausted:
            got = None
        assert got == want, (arch, circuit.gates, want, got)


def test_exact_never_beaten_by_greedy():
    for seed in range(10):
        circuit = random_circuit(2 + seed % 3, 1 + seed % 2, (seed % 3) / 3, seed=seed + 50)
        arch = bordered_architecture(circuit.num_qubits)
        qmap = random_map(arch, circuit, seed=seed)
        greedy = greedy_route(arch, circuit, qmap)
        exact = solve_optimal(arch, circuit, qmap=qmap)
        assert depth(circuit) <= exact.steps <= greedy.steps
        assert validate(arch, circuit, exact.qmap, exact.route) == []


@pytest.mark.parametrize("dims,pair_sets", [
    ((3, 1), [
        [((1, 1), (3, 1))],
        [((1, 1), (2, 1))],
        [((2, 1), (3, 1))],
    ]),
    ((1, 3), [[((1, 1), (1, 3))], [((1, 2), (1, 3))]]),
    ((3, 2), [
        [((1, 1), (3, 2))],
        [((1, 1), (3, 1)), ((1, 2), (3, 2))],
        [((1, 1), (3, 2)), ((1, 2), (3, 1))],
        [((1, 1), (1, 2)), ((2, 1), (3, 2))],
    ]),
])
def test_ndp_reduction_wider_grids(dims, pair_sets):
    for pairs in pair_sets:
        want = ndp_feasible(dims, pairs)
        arch, circuit, qmap = ndp_to_scr(dims, pairs)
        try:
            got = solve_optimal(arch, circuit, qmap=qmap, t_max=1).steps == 1
        except CapExhausted:
            got = False
        assert got == want, (dims, pairs, want, got)


def test_write_instance_sidecar(tmp_path):
    arch = custom_architecture(3, 3, [(3, 3)])
    circuit = circuit_from_gates([tgate("a")])
    cnf = encode(arch, circuit, t_s=1)
    cnf_path, vars_path = write_instance(cnf, tmp_path / "probe")
    text = Path(cnf_path).read_text()
    assert text.startswith(f"p cnf {cnf.num_vars} {len(cnf.clauses)}\n")
    sidecar = Path(vars_path).read_text()
    assert " map a " in sidecar and " exec 0 1" in sidecar and " path " in sidecar
    # every named variable appears exactly once
    ids = [int(line.split()[0]) for line in sidecar.splitlines()]
    assert sorted(ids) == list(range(1, cnf.table.num_named + 1))


def test_unrestricted_mode_fig4_one_step():
    # with all non-magic vertices as candidates, sampling can land a
    # one-step map on the bare 3x3
    arch = custom_architecture(3, 3, [])
    circuit = circuit_from_gates([cnot("q0", "q1"), cnot("q2", "q3")])
    locs = oracles.unrestricted_locations(arch)
    best = None
    for seed in range(200):
        qmap = oracles.random_map(arch, circuit, seed=seed, locations=locs)
        try:
            route = greedy_route(arch, circuit, qmap)
        except Exception:
            continue
        if best is None or route.steps < best:
            best = route.steps
    assert best == 1
