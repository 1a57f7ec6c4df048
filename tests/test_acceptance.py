"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and time budget is asserted in the test body.
"""
import itertools
import random
import time

from scmr.architecture import bordered_architecture, custom_architecture
from scmr.bench import (
    cycle_circuit,
    cycle_time_limit,
    dependency_circuit,
    known_optimal,
    ndp_to_scr,
    random_circuit,
)
from scmr.circuit import (
    GateKind,
    circuit_from_gates,
    cnot,
    depth,
    tgate,
)
from scmr.mapping import best_of_n, qubit_map, random_map, struct_map
from scmr.routing import GateRoute, greedy_route, validate
from scmr.sat import CapExhausted, solve_optimal

from oracles import all_labeled_posets, brute_force_optimum, hasse_edges, horizontal_neighbors, ndp_feasible


def _report(criterion, detail):
    print(f"[acceptance {criterion}] PASS: {detail}")


# ---------------------------------------------------------------------------
# 1. Figure-4 regression
# ---------------------------------------------------------------------------

def test_criterion_1_figure4_regression():
    started = time.perf_counter()
    arch = custom_architecture(3, 3, [])
    circuit = circuit_from_gates([cnot("q0", "q1"), cnot("q2", "q3")])
    crossing_map = qubit_map({"q0": (1, 1), "q1": (3, 3), "q2": (3, 1), "q3": (1, 3)})

    free = solve_optimal(arch, circuit)
    assert free.steps == 1 and free.proven_minimal
    assert validate(arch, circuit, free.qmap, free.route) == []

    fixed = solve_optimal(arch, circuit, qmap=crossing_map)
    assert fixed.steps == 2 and fixed.proven_minimal  # t=1 came back unsatisfiable
    assert validate(arch, circuit, fixed.qmap, fixed.route) == []

    elapsed = time.perf_counter() - started
    assert elapsed < 30
    _report(1, f"free map t=1, crossing map t=2 in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Known-optimal suite: optimum equals the generator's depth
# ---------------------------------------------------------------------------

def test_criterion_2_known_optimal_suite():
    started = time.perf_counter()
    import math
    for d in range(1, 5):
        for k in range(1, 5):
            side = 2 * math.ceil(math.sqrt(k))
            arch = custom_architecture(side, side, [])
            circuit = known_optimal(d, k, 1.0, seed=d * 13 + k)
            res = solve_optimal(arch, circuit)
            assert res.steps == d, (d, k, res.steps)
            assert res.proven_minimal
            assert validate(arch, circuit, res.qmap, res.route) == []
    elapsed = time.perf_counter() - started
    assert elapsed < 600
    _report(2, f"16 (d,k) pairs all optimal at depth in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Oracle equivalence on an enumerated instance family
# ---------------------------------------------------------------------------

def _oracle_family():
    grids = [
        (2, 2, []), (2, 2, [(1, 1)]), (2, 2, [(1, 1), (2, 2)]),
        (2, 3, []), (2, 3, [(3, 1)]), (2, 3, [(1, 1), (3, 2)]),
        (3, 3, []), (3, 3, [(2, 2)]), (3, 3, [(1, 1), (3, 3)]),
        (3, 4, []), (3, 4, [(4, 3)]), (3, 4, [(1, 1), (4, 1)]),
    ]
    circuits = [
        [cnot("a", "b")],
        [tgate("a")],
        [cnot("a", "b"), cnot("b", "c")],
        [cnot("a", "b"), cnot("a", "c")],
        [cnot("a", "b"), tgate("c")],
        [cnot("a", "b"), tgate("a")],
        [tgate("a"), tgate("b")],
        [cnot("a", "b"), cnot("b", "c"), cnot("c", "a")],
        [cnot("a", "b"), cnot("b", "a")],
        [tgate("a"), cnot("a", "b"), cnot("b", "c")],
        [cnot("a", "b"), cnot("c", "b")],
        [tgate("a"), tgate("a")],
        [cnot("a", "b"), cnot("a", "b")],
        [tgate("a"), tgate("b"), tgate("c")],
        [cnot("a", "b"), tgate("b"), cnot("b", "a")],
        [cnot("a", "b"), cnot("b", "c"), cnot("a", "b")],
        [tgate("b"), cnot("a", "b")],
        [cnot("c", "a"), tgate("b"), tgate("c")],
    ]
    for rows, cols, magic in grids:
        for gates in circuits:
            yield custom_architecture(rows, cols, magic), circuit_from_gates(gates)


def test_criterion_3_oracle_equivalence():
    count = 0
    mismatches = []
    for arch, circuit in _oracle_family():
        cap = max(depth(circuit), len(circuit.gates))
        witness = brute_force_optimum(arch, circuit, cap)
        want = witness[0] if witness is not None else None
        try:
            got = solve_optimal(arch, circuit, t_max=cap).steps
        except CapExhausted:
            got = None
        if got != want:
            mismatches.append((arch.rows, arch.cols, sorted(arch.magic),
                               [(g.kind.value, g.qubits) for g in circuit.gates], want, got))
        if witness is not None and circuit.gates:
            # the oracle's own witness is a valid solution, and greedy on the
            # witness map can only be worse than the true optimum
            t, mapping, time_, space = witness
            wmap = qubit_map(mapping)
            wroute = GateRoute(t, time_, space)
            assert validate(arch, circuit, wmap, wroute) == []
            groute = greedy_route(arch, circuit, wmap)
            assert groute.steps >= want
            assert validate(arch, circuit, wmap, groute) == []
        count += 1
    assert count >= 200
    assert not mismatches, mismatches[:3]
    _report(3, f"{count} instances, exact agreement with brute force; witnesses validate")


# ---------------------------------------------------------------------------
# 4. Greedy quality on known-optimal circuits
# ---------------------------------------------------------------------------

def test_criterion_4_struct_greedy_cost_ratio():
    started = time.perf_counter()
    worst = 0.0
    for d in (2, 5, 10, 20):
        for k in (2, 5, 10, 20):
            for rho in (0.25, 0.5, 0.75, 1.0):
                circuit = known_optimal(d, k, rho, seed=d * 100 + k * 10 + int(rho * 4))
                arch = bordered_architecture(circuit.num_qubits)
                qmap = struct_map(arch, circuit)
                route = greedy_route(arch, circuit, qmap)
                assert validate(arch, circuit, qmap, route) == []
                ratio = route.steps / d
                worst = max(worst, ratio)
                assert ratio <= 1.5, (d, k, rho, ratio)
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    _report(4, f"64 instances, worst cost ratio {worst:.3f} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. Validator soundness: clean pipelines pass, mutations fail
# ---------------------------------------------------------------------------

def _random_pipeline(rng):
    q = rng.randint(2, 6)
    d = rng.randint(1, 4)
    circuit = random_circuit(q, d, rng.choice([0.0, 0.2, 0.5]), seed=rng.randrange(2 ** 30))
    arch = bordered_architecture(circuit.num_qubits)
    if rng.random() < 0.5:
        qmap = struct_map(arch, circuit)
    else:
        qmap = random_map(arch, circuit, seed=rng.randrange(2 ** 30))
    route = greedy_route(arch, circuit, qmap)
    return arch, circuit, qmap, route


def _mutate(rng, arch, circuit, qmap, route):
    """Return a solution differing in one field, guaranteed invalid."""
    time_ = dict(route.time)
    space = dict(route.space)
    ops = []
    dependent = list(circuit.dependencies.pairs)
    if dependent:
        ops.append("same-step")
    long_gates = [i for i, p in space.items() if len(p) >= 3]
    if long_gates:
        ops.append("displace")
        ops.append("horizontal-first")
        ops.append("truncate")
    if len(circuit.gates) >= 2:
        ops.append("overlap")
    ops.append("map-magic")
    if circuit.num_qubits >= 2:
        ops.append("map-collide")
    ops.append("step-range")
    op = rng.choice(ops)

    if op == "same-step":
        i, j = rng.choice(dependent)
        time_[j] = time_[i]
        return qmap, GateRoute(route.steps, time_, space)
    if op == "displace":
        g = rng.choice(long_gates)
        path = list(space[g])
        far = max(arch.vertices(), key=lambda v: abs(v[0] - path[0][0]) + abs(v[1] - path[0][1]))
        path[1] = far
        space[g] = tuple(path)
        return qmap, GateRoute(route.steps, time_, space)
    if op == "horizontal-first":
        g = rng.choice(long_gates)
        src = space[g][0]
        h = horizontal_neighbors(arch, src)[0]
        space[g] = (src, h) + space[g][1:]
        return qmap, GateRoute(route.steps, time_, space)
    if op == "truncate":
        g = rng.choice(long_gates)
        space[g] = space[g][:2]
        return qmap, GateRoute(route.steps, time_, space)
    if op == "overlap":
        g1, g2 = rng.sample(range(len(circuit.gates)), 2)
        time_[g2] = time_[g1]
        space[g2] = space[g1]
        return qmap, GateRoute(route.steps, time_, space)
    if op == "map-magic":
        target = rng.choice(sorted(arch.magic))
        q = rng.choice(circuit.qubits)
        broken = dict(qmap.as_dict)
        broken[q] = target
        return qubit_map(broken), route
    if op == "map-collide":
        q1, q2 = rng.sample(circuit.qubits, 2)
        broken = dict(qmap.as_dict)
        broken[q1] = broken[q2]
        items = tuple(broken.items())
        from scmr.mapping import QubitMap
        return QubitMap(items), route
    # step-range
    g = rng.randrange(len(circuit.gates))
    time_[g] = route.steps + 5
    return qmap, GateRoute(route.steps, time_, space)


def test_criterion_5_validator_soundness():
    rng = random.Random(20240811)
    clean = mutated = 0
    for _ in range(1000):
        arch, circuit, qmap, route = _random_pipeline(rng)
        assert validate(arch, circuit, qmap, route) == []
        clean += 1
    rng = random.Random(11)
    while mutated < 1000:
        arch, circuit, qmap, route = _random_pipeline(rng)
        bad_map, bad_route = _mutate(rng, arch, circuit, qmap, route)
        problems = validate(arch, circuit, bad_map, bad_route)
        assert problems, "mutation escaped the validator"
        mutated += 1
    _report(5, f"{clean} clean pipelines valid, {mutated} mutations all caught")


# ---------------------------------------------------------------------------
# 6. Depth lower bound and best-of-N dominance
# ---------------------------------------------------------------------------

def test_criterion_6_depth_bound_and_best_of_n():
    rng = random.Random(6)
    for _ in range(60):
        arch, circuit, qmap, route = _random_pipeline(rng)
        assert route.steps >= depth(circuit)
    wins = 0
    for seed in range(100):
        circuit = known_optimal(2, 4, 1.0, seed=seed)  # dense: map quality matters
        arch = bordered_architecture(circuit.num_qubits)
        _, r1 = best_of_n(arch, circuit, 1, seed=seed, router=greedy_route)
        _, r20 = best_of_n(arch, circuit, 20, seed=seed, router=greedy_route)
        assert r20.steps <= r1.steps
        assert r20.steps >= depth(circuit)
        wins += r20.steps < r1.steps
    assert wins > 0  # the shared seed stream really explores different maps
    _report(6, f"steps >= depth everywhere; best-of-20 <= best-of-1 on 100 seeds ({wins} strict wins)")


# ---------------------------------------------------------------------------
# 7. Reduction fidelity
# ---------------------------------------------------------------------------

def _t_order_pairs(circuit, job_names):
    succ = {i: [] for i in range(len(circuit.gates))}
    for i, j in circuit.dependencies.pairs:
        succ[i].append(j)
    t_of = {}
    for g in circuit.gates:
        if g.kind is GateKind.T:
            job = g.operand[2:-2]
            t_of[job] = g.index
    pairs = set()
    for a, start in t_of.items():
        seen = set()
        stack = [start]
        while stack:
            v = stack.pop()
            for w in succ[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        for b, idx in t_of.items():
            if idx in seen:
                pairs.add((a, b))
    return pairs


def test_criterion_7a_dependency_circuit_order_equivalence():
    checked = 0
    for n in range(1, 6):
        for closure in all_labeled_posets(n):
            jobs = [str(i) for i in range(n)]
            edges = [(str(a), str(b)) for a, b in hasse_edges(closure)]
            circuit = dependency_circuit(jobs, edges)
            got = _t_order_pairs(circuit, jobs)
            want = {(str(a), str(b)) for a, b in closure}
            assert got == want, (edges, got, want)
            checked += 1
    _report("7a", f"T-gate order equals the job order on {checked} posets (1..5 jobs)")


def test_criterion_7b_cycle_circuit_length_formula():
    for d in range(0, 4):
        for k in (1, 2, 3):
            for t_p in (1, 2, 3, 4):
                circuit = cycle_circuit(d, k, t_p)
                t_s = cycle_time_limit(d, k, t_p)
                per_chain = {}
                for g in circuit.gates:
                    q = g.qubits[0]
                    per_chain[q] = per_chain.get(q, 0) + 1
                for c in range(k):
                    assert per_chain[f"cyc{c}_a"] == t_s
                depths, heights, _ = circuit.dependencies
                assert all(depths[i] + heights[i] - 1 == t_s for i in range(len(circuit.gates)))
    _report("7b", "chain lengths match (2d+1)t_p + dk(t_p-1) across the sweep")


def test_criterion_7c_ndp_agreement_2x2():
    verts = [(x, y) for x in (1, 2) for y in (1, 2)]
    singles = list(itertools.combinations(verts, 2))
    instances = [[]] + [[p] for p in singles]
    for p1, p2 in itertools.combinations(singles, 2):
        if not set(p1) & set(p2):
            instances.append([p1, p2])
    agreements = 0
    for pairs in instances:
        want = ndp_feasible((2, 2), pairs)
        arch, circuit, qmap = ndp_to_scr((2, 2), pairs)
        if not circuit.gates:
            got = True
        else:
            try:
                got = solve_optimal(arch, circuit, qmap=qmap, t_max=1).steps == 1
            except CapExhausted:
                got = False
        assert got == want, (pairs, want, got)
        agreements += 1
    _report("7c", f"single-step routability matches the disjoint-paths oracle on {agreements} instances")


# ---------------------------------------------------------------------------
# 8. Scaling smoke
# ---------------------------------------------------------------------------

def test_criterion_8_scaling_smoke():
    circuit = random_circuit(50, 100, 0.0, seed=8)
    assert len(circuit.gates) == 2500
    arch = bordered_architecture(50)
    started = time.perf_counter()
    qmap = struct_map(arch, circuit)
    route = greedy_route(arch, circuit, qmap)
    elapsed = time.perf_counter() - started
    # measured out-of-suite: struct map plus greedy routing here takes 0.25-0.30 s
    # (346 steps) on a 2-vCPU x86 VM with Python 3.11; the bound is loose on
    # purpose, for slow hosts.
    assert elapsed < 60
    assert validate(arch, circuit, qmap, route) == []
    assert route.steps >= 100
    # Not gated: the exact solver stops being practical near depth 100
    # (measured out-of-suite: fixed-map optimal routing at depth 10/30/60
    # proves in 0.6s/5s/24s, gives up at depth 100 with a 30s probe budget).
    print(f"[acceptance 8] note: exact solver impractical beyond depth ~100; "
          f"greedy handled depth 100 / {len(circuit.gates)} gates in {elapsed:.1f}s")
    _report(8, f"struct-greedy compiled 50 qubits x depth 100 in {elapsed:.1f}s, validated")
