import copy
import dataclasses
import itertools
import json
import pickle
import random
import re

import pytest

import oracles
import scmr.routing
from scmr.architecture import (
    bordered_architecture,
    center_column_architecture,
    custom_architecture,
    right_column_architecture,
)
from scmr.bench import known_optimal, random_circuit
from scmr.circuit import (
    GateKind,
    circuit_from_gates,
    cnot,
    parse_circuit,
    serialize_circuit,
    tgate,
)
from scmr.mapping import MappingError, QubitMap, qubit_map, random_map, struct_map
from scmr.routing import (
    GateRoute,
    RoutingError,
    Rule,
    UnroutableGateError,
    free_mask,
    gate_requests,
    greedy_route,
    route_from_json,
    route_to_json,
    shortest_first,
    shortest_legal_path,
    validate,
)
from scmr.sat import solve_optimal

from oracles import enumerate_legal_paths, layered_shortest_length


def _bits(arch, vertices) -> int:
    """The cell bitset of `vertices`, each set once."""
    bits = 0
    for v in vertices:
        bits |= 1 << arch.cells.id_of[v]
    return bits


def test_shortest_path_unobstructed_L():
    arch = custom_architecture(5, 5, [])
    id_of = arch.cells.id_of
    p = shortest_legal_path(arch, free_mask(arch, {(2, 2), (4, 4)}), id_of[2, 2], _bits(arch, {(4, 4)}))[0]
    assert p is not None and len(p) == 5
    assert p[0] == (2, 2) and p[-1] == (4, 4)
    assert abs(p[0][1] - p[1][1]) == 1       # leaves vertically
    assert abs(p[-1][0] - p[-2][0]) == 1     # arrives horizontally


def test_shortest_path_adjacent_target_needs_bend():
    arch = custom_architecture(5, 5, [])
    id_of = arch.cells.id_of
    p = shortest_legal_path(arch, free_mask(arch, {(2, 2), (3, 2)}), id_of[2, 2], _bits(arch, {(3, 2)}))[0]
    assert p is not None and len(p) >= 3


def test_shortest_path_blocked_source():
    arch = custom_architecture(3, 3, [])
    blocked = set(arch.vertices())  # everything unusable as interior
    id_of = arch.cells.id_of
    assert shortest_legal_path(arch, free_mask(arch, blocked), id_of[2, 2], _bits(arch, {(1, 1)})) is None


def test_shortest_path_exit_cell_next_to_the_sink():
    # the source's exit cell is itself horizontally next to the sink, so the
    # sink-side search stops at its first layer: a 3-vertex path
    arch = custom_architecture(5, 5, [])
    id_of = arch.cells.id_of
    path, cells = shortest_legal_path(arch, free_mask(arch, {(2, 2), (3, 3)}), id_of[2, 2],
                                      _bits(arch, {(3, 3)}))
    assert path == ((2, 2), (2, 3), (3, 3))
    assert cells == _bits(arch, path)


def test_shortest_path_t_request_with_every_magic_sink_used():
    arch = bordered_architecture(4)
    source = next(v for v in arch.vertices() if v not in arch.magic)
    free = free_mask(arch, {source})
    s, magic = arch.cells.id_of[source], _bits(arch, arch.magic)
    assert shortest_legal_path(arch, free, s, magic) is not None
    assert shortest_legal_path(arch, free, s, magic, _bits(arch, arch.magic)) is None
    for t in sorted(arch.magic):   # every magic sink used but t
        found = shortest_legal_path(arch, free, s, magic, _bits(arch, arch.magic - {t}))
        assert (found and found[0]) == oracles.shortest_legal_path(arch, {source}, source, {t})


def test_shortest_path_matches_layered_oracle():
    arch = custom_architecture(4, 5, [(3, 3)])
    vertices = list(arch.vertices())
    id_of = arch.cells.id_of
    for source, sink in itertools.permutations(vertices, 2):
        if source in arch.magic or sink in arch.magic:
            continue
        blocked = {source, sink}
        found = shortest_legal_path(arch, free_mask(arch, blocked), id_of[source], _bits(arch, {sink}))
        got = found and found[0]
        want = layered_shortest_length(arch, blocked, source, {sink})
        if want is None:
            assert got is None
        else:
            assert got is not None and len(got) == want
            paths = enumerate_legal_paths(arch, blocked, source, {sink})
            assert len(got) == min(len(q) for q in paths)


def test_shortest_first_empty():
    arch = custom_architecture(3, 3, [])
    assert shortest_first(arch, [], free_mask(arch, set()), {}) == []


def test_shortest_first_two_parallel_cnots():
    # side-by-side pairs on a 5x5: both leave in one step
    arch = custom_architecture(5, 5, [])
    c = circuit_from_gates([cnot("q0", "q1"), cnot("q2", "q3")])
    m = qubit_map({"q0": (1, 1), "q1": (2, 2), "q2": (4, 1), "q3": (5, 2)})
    reqs = gate_requests(arch, c, m)
    routed = shortest_first(arch, reqs, free_mask(arch, m.vertices()), {})
    assert len(routed) == 2
    used = [v for _, path in routed for v in path]
    assert len(used) == len(set(used))


def test_shortest_first_crossing_requests_route_one():
    arch = custom_architecture(3, 3, [])
    c = circuit_from_gates([cnot("q0", "q1"), cnot("q2", "q3")])
    m = qubit_map({"q0": (1, 1), "q1": (3, 3), "q2": (3, 1), "q3": (1, 3)})
    reqs = gate_requests(arch, c, m)
    routed = shortest_first(arch, reqs, free_mask(arch, m.vertices()), {})
    assert len(routed) == 1


def test_shortest_first_is_maximal():
    arch = custom_architecture(4, 4, [])
    c = circuit_from_gates([cnot("a", "b"), cnot("c", "d"), cnot("e", "f")])
    m = qubit_map({"a": (1, 1), "b": (4, 4), "c": (4, 1), "d": (1, 4),
                   "e": (2, 2), "f": (3, 3)})
    reqs = gate_requests(arch, c, m)
    blocked = set(m.vertices())
    routed = shortest_first(arch, reqs, free_mask(arch, blocked), {})
    used = {v for _, path in routed for v in path}
    done = {g.index for g, _ in routed}
    for gate, source, sinks in reqs:
        if gate.index not in done:
            assert shortest_legal_path(arch, free_mask(arch, blocked | used), source,
                                       sinks, _bits(arch, used)) is None


def test_greedy_route_one_step_for_parallel_circuit():
    arch = bordered_architecture(3)
    c = parse_circuit("cnot q0 q1; t q2")
    m = struct_map(arch, c)
    r = greedy_route(arch, c, m)
    assert r.steps == 1
    assert validate(arch, c, m, r) == []


def test_greedy_route_crossing_map_two_steps():
    arch = custom_architecture(3, 3, [])
    c = circuit_from_gates([cnot("q0", "q1"), cnot("q2", "q3")])
    m = qubit_map({"q0": (1, 1), "q1": (3, 3), "q2": (3, 1), "q3": (1, 3)})
    r = greedy_route(arch, c, m)
    assert r.steps == 2
    assert validate(arch, c, m, r) == []


def test_greedy_route_serial_chain_is_depth_steps():
    arch = bordered_architecture(6)
    gates = [cnot(f"q{i}", f"q{i+1}") for i in range(5)]
    c = circuit_from_gates(gates)
    m = struct_map(arch, c)
    r = greedy_route(arch, c, m)
    assert r.steps == 5
    assert validate(arch, c, m, r) == []


def test_greedy_route_unroutable_raises():
    # no magic vertices: a T gate cannot be routed at all
    arch = custom_architecture(5, 5, [])
    c = parse_circuit("t q0")
    m = qubit_map({"q0": (2, 2)})
    with pytest.raises(UnroutableGateError):
        greedy_route(arch, c, m)


def test_greedy_steps_bounds_fuzzed():
    for seed in range(25):
        c = random_circuit(2 + seed % 5, 1 + seed % 5, (seed % 4) / 4, seed=seed)
        arch = bordered_architecture(c.num_qubits)
        m = random_map(arch, c, seed=seed)
        r = greedy_route(arch, c, m)
        from scmr.circuit import depth
        assert depth(c) <= r.steps <= len(c.gates)
        assert validate(arch, c, m, r) == []


def test_validator_accepts_greedy_output():
    arch = bordered_architecture(4)
    c = parse_circuit("cnot a b; t c; cnot b c; t a")
    m = struct_map(arch, c)
    r = greedy_route(arch, c, m)
    assert validate(arch, c, m, r) == []


def test_validator_flags_shared_internal_vertex():
    arch = custom_architecture(5, 5, [])
    c = circuit_from_gates([cnot("a", "b"), cnot("c", "d")])
    m = qubit_map({"a": (1, 1), "b": (2, 2), "c": (4, 1), "d": (5, 2)})
    r = greedy_route(arch, c, m)
    tampered_space = dict(r.space)
    # drag gate 1's path through gate 0's interior vertex
    tampered_space[1] = r.space[0]
    bad = validate(arch, c, m, GateRoute(r.steps, dict(r.time), tampered_space))
    assert any(v.rule is Rule.DISJOINT_PATHS for v in bad)


def test_validator_flags_horizontal_first_edge():
    arch = custom_architecture(5, 5, [])
    c = circuit_from_gates([cnot("a", "b")])
    m = qubit_map({"a": (2, 2), "b": (4, 4)})
    r = greedy_route(arch, c, m)
    # legal-looking path that leaves the control horizontally
    path = ((2, 2), (3, 2), (3, 3), (3, 4), (4, 4))
    bad = validate(arch, c, m, GateRoute(1, {0: 1}, {0: path}))
    assert any(v.rule is Rule.CNOT_ROUTING and "vertical" in v.detail for v in bad)


def test_validator_flags_dependent_gates_same_step():
    arch = bordered_architecture(3)
    c = parse_circuit("cnot a b; cnot b c")
    m = struct_map(arch, c)
    r = greedy_route(arch, c, m)
    squashed = GateRoute(1, {0: 1, 1: 1}, dict(r.space))
    bad = validate(arch, c, m, squashed)
    assert any(v.rule is Rule.LOGICAL_ORDER for v in bad)


def test_validator_flags_map_problems():
    arch = bordered_architecture(2)
    c = parse_circuit("cnot a b")
    bad_map = qubit_map({"a": (1, 1), "b": (3, 3)})  # (1,1) is magic on the border
    r = GateRoute(1, {0: 1}, {0: ((1, 1), (1, 2), (2, 2), (3, 3))})
    bad = validate(arch, c, bad_map, r)
    assert any(v.rule is Rule.MAP_VALIDITY for v in bad)


def test_validator_flags_t_path_not_ending_at_magic():
    arch = bordered_architecture(1)
    c = parse_circuit("t q0")
    m = struct_map(arch, c)
    v0 = m["q0"]
    path = (v0, (v0[0], v0[1] + 1), (v0[0] + 1, v0[1] + 1))  # ends on a free vertex
    bad = validate(arch, c, m, GateRoute(1, {0: 1}, {0: path}))
    assert any(v.rule is Rule.T_ROUTING for v in bad)


def test_validator_flags_gates_not_in_the_circuit():
    arch = bordered_architecture(1)
    c = parse_circuit("t q0")
    m = struct_map(arch, c)
    r = greedy_route(arch, c, m)
    extra = GateRoute(r.steps, {**r.time, 7: 1}, {**r.space, 7: ((99, 99),)})
    bad = validate(arch, c, m, extra)
    assert any(v.rule is Rule.LOGICAL_ORDER and v.gates == (7,) for v in bad)


def test_validator_flags_steps_above_the_last_used_step():
    arch = bordered_architecture(1)
    c = parse_circuit("t q0")
    m = struct_map(arch, c)
    r = greedy_route(arch, c, m)
    padded = GateRoute(9, dict(r.time), dict(r.space))
    bad = validate(arch, c, m, padded)
    assert [str(v) for v in bad] == ["logical-order: steps is 9, last used step is 1"]


def test_validator_flags_negative_steps():
    arch = bordered_architecture(1)
    c = parse_circuit("")
    m = struct_map(arch, c)
    bad = validate(arch, c, m, GateRoute(-5, {}, {}))
    assert [str(v) for v in bad] == ["logical-order: steps is -5, below 0"]
    assert validate(arch, c, m, GateRoute(0, {}, {})) == []


def test_route_from_json_rejects_malformed_routes():
    gate = {"index": 0, "step": 1, "path": [[1, 1], [1, 2], [2, 2]]}
    for data in ({"steps": 1}, [], {"steps": "1", "gates": [gate]},
                 {"steps": 1, "gates": [{"index": 0, "step": 1}]},
                 {"steps": 1, "gates": [{**gate, "path": [[1]]}]},
                 {"steps": 1, "gates": [gate, gate]}):
        with pytest.raises(RoutingError):
            route_from_json(json.dumps(data))


def test_route_json_roundtrip():
    arch = bordered_architecture(2)
    c = parse_circuit("cnot a b")
    m = struct_map(arch, c)
    r = greedy_route(arch, c, m)
    again = route_from_json(route_to_json(r))
    assert again == r and route_to_json(again) == route_to_json(r)


def test_route_to_json_matches_list_serializer():
    # paths go to json.dumps as tuples; the bytes are those of the list form
    routes = [GateRoute(0, {}, {})]
    for arch, c, m in itertools.islice(_differential_instances(), 0, None, 7):
        try:
            routes.append(greedy_route(arch, c, m))
        except UnroutableGateError:
            pass
    for text in ("cnot a b; t a; cnot b c", "t a; t b; cnot a b"):
        c = parse_circuit(text)
        arch = bordered_architecture(c.num_qubits)
        routes.append(solve_optimal(arch, c, struct_map(arch, c)).route)
    assert len(routes) > 15 and sum(bool(r.space) for r in routes) == len(routes) - 1
    for r in routes:
        text = route_to_json(r)
        assert text == oracles.list_route_to_json(r)
        again = route_from_json(text)
        assert again == r and route_to_json(again) == text


def test_gate_route_is_read_only():
    arch = bordered_architecture(2)
    c = parse_circuit("cnot a b")
    r = greedy_route(arch, c, struct_map(arch, c))
    with pytest.raises(TypeError):
        r.time[0] = 2
    with pytest.raises(TypeError):
        r.space[0] = ()
    with pytest.raises(TypeError):
        del r.time[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.steps = 2
    # the route keeps copies: the caller's dicts stay its own
    time, space = dict(r.time), dict(r.space)
    built = GateRoute(r.steps, time, space)
    time[0], space[0] = 5, ()
    assert built == r


def test_gate_route_pickle_and_copy_roundtrip():
    arch = bordered_architecture(4)
    c = parse_circuit("cnot a b; t c; cnot b c; t a")
    r = greedy_route(arch, c, struct_map(arch, c))
    for again in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
        assert again == r and route_to_json(again) == route_to_json(r)
        with pytest.raises(TypeError):
            again.time[0] = 2


def test_shortest_first_routes_one_whenever_possible_systematic():
    # every placement of two CNOT pairs on the 3x3: the greedy step routes at
    # least one request exactly when some request is routable alone
    from oracles import enumerate_legal_paths

    arch = custom_architecture(3, 3, [])
    c = circuit_from_gates([cnot("a", "b"), cnot("c", "d")])
    for placement in itertools.permutations(list(arch.vertices()), 4):
        m = qubit_map(dict(zip(["a", "b", "c", "d"], placement)))
        blocked = set(m.vertices())
        reqs = gate_requests(arch, c, m)
        routed = shortest_first(arch, reqs, free_mask(arch, blocked), {})
        alone = any(
            enumerate_legal_paths(arch, blocked, r.source, r.sinks)
            for r in (oracles.request_for_gate(arch, m, g) for g in c.gates)
        )
        assert bool(routed) == alone


# ---------------------------------------------------------------------------
# Differential: the router against the layered reference router in oracles
# ---------------------------------------------------------------------------

def _outcome(router, arch, circuit, qmap) -> str:
    try:
        return route_to_json(router(arch, circuit, qmap))
    except UnroutableGateError as e:
        return f"unroutable: {e}"


def _matches_reference(arch, circuit, qmap) -> str:
    got = _outcome(greedy_route, arch, circuit, qmap)
    assert got == _outcome(oracles.layered_greedy_route, arch, circuit, qmap)
    return got


_BUILDERS = (bordered_architecture, right_column_architecture,
             lambda n: center_column_architecture(n, widen=True))


def _differential_instances():
    for seed in range(60):
        t_fraction = (0.0, 0.2, 0.4, 0.6, 0.8)[seed % 5]
        c = random_circuit(2 + seed % 9, 2 + seed % 7, t_fraction, seed=seed)
        arch = _BUILDERS[seed % 3](c.num_qubits)
        yield arch, c, struct_map(arch, c)
        yield arch, c, random_map(arch, c, seed=seed)
    for d, k, rho, seed in [(3, 6, 1.0, 0), (5, 10, 0.5, 1), (2, 24, 1.0, 2),
                            (4, 12, 0.7, 3), (6, 4, 1.0, 4), (1, 30, 1.0, 5)]:
        c = known_optimal(d, k, rho, seed=seed)
        arch = bordered_architecture(c.num_qubits)
        yield arch, c, struct_map(arch, c)
        yield arch, c, random_map(arch, c, seed=seed)


def test_greedy_route_matches_reference_router():
    count = 0
    for arch, c, m in _differential_instances():
        _matches_reference(arch, c, m)
        count += 1
    assert count == 132


def _crowded_instances():
    """Maps over every non-magic vertex: qubits wall each other in."""
    for seed in range(90):
        c = random_circuit(3 + seed % 6, 2 + seed % 4, (0.0, 0.3, 0.6)[seed % 3], seed=seed)
        arch = _BUILDERS[seed % 3](c.num_qubits)
        yield arch, c, oracles.random_map(arch, c, seed=seed,
                                          locations=oracles.unrestricted_locations(arch))


def test_greedy_route_matches_reference_router_on_crowded_maps():
    # some instances are unroutable and must fail with the same message
    unroutable = 0
    for arch, c, m in _crowded_instances():
        unroutable += _matches_reference(arch, c, m).startswith("unroutable")
    assert 0 < unroutable < 90


def _count_calls(monkeypatch, module, name, route) -> int:
    calls = 0
    real = getattr(module, name)

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(module, name, counting)
        route()
    return calls


def test_greedy_route_bfs_calls(monkeypatch):
    # the search is reached through the module attribute (span shims rely on
    # that); a request's unobstructed search runs once per route, and a
    # pending request is searched again only when it is popped with a path
    # that an earlier pick took a vertex of, so memo hits leave fewer
    # searches than gates, and the eager copy, which searches again after
    # every such pick, no fewer than the heap
    c = known_optimal(6, 20, 1.0, seed=3)
    arch = bordered_architecture(c.num_qubits)
    counts = []
    for m in (struct_map(arch, c), random_map(arch, c, seed=0)):
        calls = _count_calls(monkeypatch, scmr.routing, "shortest_legal_path",
                             lambda: greedy_route(arch, c, m))
        eager = _count_calls(monkeypatch, scmr.routing, "shortest_legal_path",
                             lambda: oracles.eager_greedy_route(arch, c, m))
        # one search per pending request per pick
        naive = _count_calls(monkeypatch, oracles, "shortest_legal_path",
                             lambda: oracles.layered_greedy_route(arch, c, m))
        assert 1 <= calls <= eager <= naive
        counts.append((calls, naive))
    assert counts == [(20, 1260), (188, 1326)]


# ---------------------------------------------------------------------------
# Differential: the heap shortest-first against the eager copy in oracles
# ---------------------------------------------------------------------------

def _crowded_request_sets():
    """Seeded single-layer request sets on crowded maps: qubits over every
    non-magic vertex, CNOT and T requests (the T ones share the grid's magic
    sinks) listed in shuffled order, so the input order is not gate order.
    Each request comes as a (`gate_requests` tuple, oracle `RouteRequest`)
    pair, so both shapes share one order."""
    for seed in range(240):
        rng = random.Random(seed)
        n = 4 + seed % 11
        arch = _BUILDERS[seed % 3](n)
        qubits = [f"q{i}" for i in range(n)]
        rng.shuffle(qubits)
        specs = []
        while qubits:
            if len(qubits) >= 2 and rng.random() < 0.6:
                specs.append(cnot(qubits.pop(), qubits.pop()))
            else:
                specs.append(tgate(qubits.pop()))
        c = circuit_from_gates(specs)
        m = oracles.random_map(arch, c, seed=seed, locations=oracles.unrestricted_locations(arch))
        requests = list(zip(gate_requests(arch, c, m),
                            [oracles.request_for_gate(arch, m, g) for g in c.gates]))
        rng.shuffle(requests)
        yield arch, m, requests


def test_shortest_first_matches_eager_reference(monkeypatch):
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    real = scmr.routing.shortest_legal_path
    monkeypatch.setattr(scmr.routing, "shortest_legal_path", counting)
    shared_sinks = no_path = taken = rounds = 0
    for arch, m, requests in _crowded_request_sets():
        blocked = set(m.vertices())
        free = free_mask(arch, blocked)
        shared_sinks += sum(len(r.sinks) > 1 for _, r in requests) >= 2
        heap_memo, eager_memo = {}, {}
        pending = requests
        while True:   # the steps of one layer, as greedy_route runs them
            calls = 0
            want = oracles.eager_shortest_first(arch, [r for _, r in pending], blocked, eager_memo)
            eager_calls, calls = calls, 0
            got = shortest_first(arch, [t for t, _ in pending], free, heap_memo)
            assert got == want
            assert calls <= eager_calls
            assert heap_memo == eager_memo
            rounds += 1
            picked = dict(got)
            no_path += any(heap_memo[t[1:]] is None for t, _ in pending)
            taken += any(heap_memo[t[1:]] is not None
                         and heap_memo[t[1:]][0] != picked.get(r.gate)
                         for t, r in pending)
            if not got:
                break
            pending = [(t, r) for t, r in pending if r.gate not in picked]
    assert shared_sinks > 0 and no_path > 0 and taken > 0 and rounds > 240


# ---------------------------------------------------------------------------
# Differential: the one-walk validator against the two-walk copy in oracles
# ---------------------------------------------------------------------------

def _walk(rng, arch, start, length, off_grid=False):
    """A random walk of `length` vertices from `start` that revisits a vertex
    only when boxed in; with `off_grid` it may step off the grid."""
    path = [start]
    while len(path) < length:
        a, b = path[-1]
        steps = [(a + da, b + db) for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1))]
        if not off_grid:
            steps = [v for v in steps if arch.in_bounds(v)]
        fresh = [v for v in steps if v not in path]
        path.append(rng.choice(fresh or steps))
    return tuple(path)


def _corrupt_path(rng, arch, qmap, path, g):
    start = qmap[g.qubits[0]]
    if len(path) < 3:   # an earlier corruption cut it short
        path = _walk(rng, arch, start, 4)
    kind = rng.randrange(11)
    if kind == 0:
        return ()
    if kind == 1:
        return (start,)
    if kind == 2:   # two vertices: adjacent, repeated or apart
        return (start, rng.choice([_walk(rng, arch, start, 2)[1], start, path[-1]]))
    if kind == 3:   # a 2-vertex path that is otherwise well formed
        return _walk(rng, arch, start, 2)
    if kind == 4:   # off-grid vertex
        return path[:1] + ((0, rng.randint(0, arch.rows + 1)),) + path[1:]
    if kind == 5:   # not grid neighbors
        return path[:1] + path[2:] if len(path) > 3 else path + (path[0],)
    if kind == 6:   # revisits a vertex
        return path + (path[-2],)
    if kind == 7:   # wrong orientation at both ends
        return path[::-1]
    if kind == 8:   # shifted vertex
        i = rng.randrange(len(path))
        return path[:i] + ((path[i][0] + 1, path[i][1]),) + path[i + 1:]
    # a walk, often through mapped or magic vertices
    return _walk(rng, arch, start, rng.randint(3, 12), off_grid=kind == 10)


def _corrupt(rng, arch, circuit, qmap, route):
    """A route, and sometimes a map, broken in 1-3 seeded ways."""
    assignment = list(qmap.assignment)
    time, space, steps = dict(route.time), dict(route.space), route.steps
    for _ in range(rng.randint(1, 3)):
        indices = sorted(i for i in space if i < len(circuit.gates))
        if not indices:
            break
        kind = rng.randrange(12)
        i = rng.choice(indices)
        g = circuit.gates[i]
        if kind == 0:   # the map: unmapped, off-grid, magic or shared vertex
            j = rng.randrange(len(assignment))
            q, v = assignment[j]
            how = rng.randrange(4)
            if how == 0:
                del assignment[j]
            else:
                v = ((arch.cols + 1, 1), rng.choice(sorted(arch.magic) or [(0, 0)]),
                     assignment[j - 1][1])[how - 1]
                assignment[j] = (q, v)
        elif kind <= 4:
            space[i] = _corrupt_path(rng, arch, qmap, space[i], g)
        elif kind == 5:   # another gate's path
            space[i] = space[rng.choice(indices)]
        elif kind == 6:   # step out of range, or dependent gates squashed
            time[i] = rng.choice([0, -1, steps + 1, 1])
        elif kind == 7:   # every gate in one step: shared vertices
            time = dict.fromkeys(time, 1)
            steps = 1
        elif kind == 8:   # missing from the schedule
            lose = rng.randrange(3)   # its step, its path or both
            if lose != 1:
                time.pop(i, None)
            if lose != 0:
                space.pop(i, None)
        elif kind == 9:   # a gate the circuit does not have
            time[len(circuit.gates) + 3] = 1
            space[len(circuit.gates) + 3] = ((99, 99),)
        elif kind == 10:   # padded or shortened steps, never below 0
            steps = max(0, steps + rng.choice([-1, 2]))
        else:   # two gates swapped in time
            j = rng.choice(indices)
            if i in time and j in time:
                time[i], time[j] = time[j], time[i]
    return QubitMap(tuple(assignment)), GateRoute(steps, time, space)


def _large_valid_routes():
    """Greedy routes of the benchmark's greedy shapes: known-optimum
    circuits under the struct map and random circuits with 20% T under
    random maps, each on the bordered grid."""
    for d, k in ((2, 200), (12, 80), (50, 30)):
        c = known_optimal(d, k, seed=d)
        arch = bordered_architecture(c.num_qubits)
        m = struct_map(arch, c)
        yield arch, c, m, greedy_route(arch, c, m)
    for q, d in ((12, 64), (16, 40), (24, 12)):
        c = random_circuit(q, d, 0.2, seed=q)
        arch = bordered_architecture(c.num_qubits)
        m = random_map(arch, c, seed=d)
        yield arch, c, m, greedy_route(arch, c, m)


def _single_faults(rng, circuit, qmap, route):
    """Copies of a valid (map, route), each broken at one gate's path: a
    spare qubit mapped onto its interior; a loop back over its first
    interior vertices; or a CNOT's control (target) moved one hop along its
    path and the path cut to start (end) there, so that its first (last)
    edge may take the wrong orientation while its ends still match the map;
    or one of two consecutive gates on a qubit moved to the other's step."""
    assignment = list(qmap.assignment)
    for i in rng.sample(sorted(route.space), 12):
        path = route.space[i]
        yield "interior", QubitMap(tuple(assignment) + (("~spare", path[1]),)), route
        yield "revisit", qmap, GateRoute(route.steps, route.time, {**route.space, i: path[:3] + path[1:]})
    cnots = [g for g in circuit.gates if g.kind is GateKind.CNOT and len(route.space[g.index]) >= 4]
    for g in rng.sample(cnots, min(len(cnots), 12)):
        path = route.space[g.index]
        for name, qubit, cut, end in (("first edge", g.control, path[1:], 0),
                                      ("last edge", g.target, path[:-1], -1)):
            moved = QubitMap(tuple((q, cut[end] if q == qubit else v) for q, v in assignment))
            yield name, moved, GateRoute(route.steps, route.time, {**route.space, g.index: cut})
    for i, j in rng.sample(circuit.dependencies.pairs, 12):
        moved, to = (j, i) if rng.random() < 0.5 else (i, j)
        yield "order", qmap, GateRoute(route.steps, {**route.time, moved: route.time[to]}, route.space)


def _off_grid_faults(rng, arch, qmap, route):
    """Copies of a valid (map, route) with one off-grid vertex: in the
    padding ring of the cell index (a coordinate 0, cols + 1 or rows + 1),
    just past it (-1) or far outside it (10**6). Each vertex goes first, in
    the interior or last on a seeded gate's path, or to a seeded qubit in
    the map."""
    a, b = rng.randint(1, arch.cols), rng.randint(1, arch.rows)
    outside = [(0, b), (a, 0), (-1, b), (a, -1), (arch.cols + 1, b), (a, arch.rows + 1),
               (10**6, b), (a, 10**6), (0, 0), (arch.cols + 1, arch.rows + 1)]
    assignment = list(qmap.assignment)
    for v in outside:
        i = rng.choice(sorted(route.space))
        path = route.space[i]
        k = rng.randrange(1, len(path) - 1)
        for where, cut in (("first", (v,) + path[1:]), ("interior", path[:k] + (v,) + path[k + 1:]),
                           ("last", path[:-1] + (v,))):
            yield where, qmap, GateRoute(route.steps, route.time, {**route.space, i: cut})
        j = rng.randrange(len(assignment))
        yield "map", QubitMap(tuple((q, v if n == j else u) for n, (q, u) in enumerate(assignment))), route


def test_validate_matches_reference():
    seen_rules, seen_details = set(), set()
    marks = ("needs at least 3", "off-grid", "not grid neighbors", "revisits",
             "not vertical", "not horizontal", "shared", "path ends at", "path starts at",
             "protected vertex", "outside", "not in the circuit", "last used step",
             "depends on", "missing", "unmapped", "magic vertex", "share vertex")
    valid, faults, placed = 0, {}, {}
    for arch, c, m, r in _large_valid_routes():
        assert validate(arch, c, m, r) == [] == oracles.validate(arch, c, m, r)
        valid += len(c.gates)
        for fault, bad_map, bad_route in _single_faults(random.Random(valid), c, m, r):
            got = validate(arch, c, bad_map, bad_route)
            assert got == oracles.validate(arch, c, bad_map, bad_route)
            faults[fault] = faults.get(fault, 0) + bool(got)
        for where, bad_map, bad_route in _off_grid_faults(random.Random(valid), arch, m, r):
            got = validate(arch, c, bad_map, bad_route)
            assert got == oracles.validate(arch, c, bad_map, bad_route)
            assert any("off-grid" in v.detail for v in got), (where, got)
            placed[where] = placed.get(where, 0) + 1
    assert valid > 2000
    assert min(faults.values()) >= 20 and len(faults) == 5, faults
    assert placed == dict.fromkeys(("first", "interior", "last", "map"), 60)
    for seed in range(1200):
        rng = random.Random(seed)
        c = random_circuit(2 + seed % 7, 1 + seed % 5, (0.0, 0.3, 0.6)[seed % 3], seed=seed)
        arch = _BUILDERS[seed % 3](c.num_qubits)
        locations = oracles.unrestricted_locations(arch) if seed % 2 else None
        m = oracles.random_map(arch, c, seed=seed, locations=locations)
        try:
            r = greedy_route(arch, c, m)
        except UnroutableGateError:
            continue
        bad_map, bad_route = _corrupt(rng, arch, c, m, r)
        got = validate(arch, c, bad_map, bad_route)
        assert got == oracles.validate(arch, c, bad_map, bad_route)
        seen_rules.update(v.rule for v in got)
        seen_details.update(mark for v in got for mark in marks if mark in v.detail)
    assert seen_rules == set(Rule)
    assert seen_details == set(marks)


# ---------------------------------------------------------------------------
# Differential: the bitset search against the reference BFS in oracles
# ---------------------------------------------------------------------------

def _search_grids(rng):
    """Standard layouts and custom grids: 1xN, Nx1, narrow and square ones,
    with no magic, a magic column 1 or random magic cells."""
    for n in (1, 2, 5, 9, 16, 24):
        yield from (builder(n) for builder in _BUILDERS)
    for rows, cols in [(1, 1), (1, 7), (7, 1), (2, 9), (9, 2), (3, 3), (4, 6), (8, 5), (13, 13)]:
        cells = [(a, b) for a in range(1, cols + 1) for b in range(1, rows + 1)]
        yield custom_architecture(rows, cols, [])
        yield custom_architecture(rows, cols, [(1, b) for b in range(1, rows + 1)])
        yield custom_architecture(rows, cols, rng.sample(cells, rng.randint(1, max(1, len(cells) // 4))))


def _search_calls():
    """Seeded `shortest_legal_path` arguments over `_search_grids`: blocked
    sets from empty to dense; one CNOT sink, the magic cells or a few sinks
    anywhere (border and column 1 included), sometimes the source itself;
    `used` holding none, some or all of the sinks, plus other cells."""
    rng = random.Random(15)
    for arch in _search_grids(rng):
        vertices = list(arch.vertices())
        border = [(a, b) for a, b in vertices if a in (1, arch.cols) or b in (1, arch.rows)]
        for _ in range(200):
            source = rng.choice(vertices)
            kind = rng.randrange(4)
            if kind == 0:
                sinks = frozenset([rng.choice(vertices)])
            elif kind == 1 and arch.magic:
                sinks = arch.magic
            elif kind == 2:
                sinks = frozenset(rng.sample(border, min(len(border), rng.randint(1, 4))))
            else:
                sinks = frozenset(rng.sample(vertices, min(len(vertices), rng.randint(1, 4))))
            if rng.random() < 0.05:
                sinks |= {source}
            blocked = set(rng.sample(vertices, int(len(vertices) * rng.choice((0.0, 0.0, 0.1, 0.2, 0.3, 0.5, 0.8)))))
            blocked.add(source)
            share = rng.choice((0.0, 0.0, 0.0, 0.5, 1.0))
            used = {t for t in sinks if rng.random() < share}
            used.update(rng.sample(vertices, min(len(vertices), rng.randint(0, 3))))
            yield arch, free_mask(arch, blocked | used), source, sinks, used


def test_shortest_legal_path_matches_reference_search():
    seen = dict.fromkeys(("calls", "found", "none", "magic found", "all used",
                          "source is a sink", "source-sink found", "thin grid"), 0)
    for arch, free, source, sinks, used in _search_calls():
        id_of = arch.cells.id_of
        found = shortest_legal_path(arch, free, id_of[source], _bits(arch, sinks), _bits(arch, used))
        got = found and found[0]
        blocked = {v for v in arch.vertices() if not free >> id_of[v] & 1} | used
        assert got == oracles.shortest_legal_path(arch, blocked, source, sinks - used)
        if found is not None:
            assert found[1] == _bits(arch, got)
        for label, hit in (("calls", True), ("found", got is not None), ("none", got is None),
                           ("magic found", got is not None and sinks == arch.magic),
                           ("all used", sinks <= used), ("source is a sink", source in sinks),
                           ("source-sink found", got is not None and source in sinks),
                           ("thin grid", 1 in (arch.rows, arch.cols))):
            seen[label] += hit
    assert seen["calls"] >= 5000
    assert min(seen.values()) >= 200, seen


# ---------------------------------------------------------------------------
# The request table and the unroutable check against the oracles
# ---------------------------------------------------------------------------

def _pinned_instances(rng, size):
    """`size` seeded (arch, circuit, qmap) instances under pinned maps: 2-9
    qubits, depth 1-6, 0-70% T gates, on bordered, right-column and
    center-column grids (where struct maps put CNOTs across the magic
    column) and on a grid with no magic vertex (where every T gate is
    unroutable), under struct, random and spare-qubit maps; the random maps
    draw from every free vertex half of the time, so qubits wall each other
    in."""
    grids = [bordered_architecture(6), right_column_architecture(6),
             center_column_architecture(6), center_column_architecture(4, widen=True),
             custom_architecture(4, 5, [])]
    corpus = []
    while len(corpus) < size:
        arch = rng.choice(grids)
        free = oracles.unrestricted_locations(arch)
        circuit = random_circuit(rng.randint(2, 9), rng.randint(1, 6), rng.choice((0.0, 0.3, 0.7)),
                                 seed=rng.randrange(2 ** 30))
        kind = rng.choice(("struct", "random", "spare"))
        locations = free if not arch.magic or rng.random() < 0.5 else None
        try:
            if kind == "struct":
                qmap = oracles.struct_map(arch, circuit, locations)
            elif kind == "random":
                qmap = oracles.random_map(arch, circuit, rng.randrange(2 ** 30), locations)
            else:
                names = list(circuit.qubits) + ["spare"]
                qmap = qubit_map(dict(zip(names, rng.sample(free, len(names)))))
        except MappingError:
            continue   # too few regular locations for the qubits
        corpus.append((arch, circuit, qmap))
    return corpus


def test_gate_requests_match_the_per_gate_reference():
    corpus = _pinned_instances(random.Random(41), 300)
    t_gates = 0
    for arch, circuit, qmap in corpus:
        table = gate_requests(arch, circuit, qmap)
        assert len(table) == len(circuit.gates)
        id_of = arch.cells.id_of
        for i, g in enumerate(circuit.gates):
            r = oracles.request_for_gate(arch, qmap, g)
            assert table[i] == (r.gate, id_of[r.source], _bits(arch, r.sinks))
            if g.kind is GateKind.T:
                assert table[i][2] is arch.cells.magic
                t_gates += 1
    assert t_gates > 100
    assert {arch.magic == frozenset() for arch, _, _ in corpus} == {True, False}


# Maps that do not place `cnot q0 q1; t q1` on `bordered_architecture(2)`,
# a 7x7 grid ringed by magic vertices; the last one is built directly, since
# `qubit_map` refuses a map that is not injective.
_BAD_MAPS = {
    "unmapped": qubit_map({"q0": (3, 3)}),
    "off-grid": qubit_map({"q0": (3, 3), "q1": (9, 2)}),
    "on-magic": qubit_map({"q0": (3, 3), "q1": (1, 4)}),
    "shared": QubitMap((("q0", (3, 3)), ("q1", (3, 3)))),
}


@pytest.mark.parametrize("kind", list(_BAD_MAPS))
def test_a_bad_map_raises_the_validators_first_map_fault_in_both_engines(kind):
    from scmr.sat import encode

    arch = bordered_architecture(2)
    c = parse_circuit("cnot q0 q1; t q1")
    qmap = _BAD_MAPS[kind]
    faults = [v for v in validate(arch, c, qmap, GateRoute(0, {}, {})) if v.rule is Rule.MAP_VALIDITY]
    assert faults
    for engine in (gate_requests, greedy_route, lambda *a: encode(*a, t_s=2), solve_optimal):
        with pytest.raises(MappingError) as e:
            engine(arch, c, qmap)
        assert str(e.value) == faults[0].detail


def test_an_off_grid_spare_entry_routes_and_encodes():
    # a qubit the circuit does not use is not checked, on the grid or off it
    from scmr.sat import encode

    arch = bordered_architecture(2)
    c = parse_circuit("cnot q0 q1; t q1")
    qmap = qubit_map({"q0": (3, 3), "q1": (5, 5), "spare": (0, 9)})
    route = greedy_route(arch, c, qmap)
    assert validate(arch, c, qmap, route) == []
    pinned = qubit_map({"q0": (3, 3), "q1": (5, 5)})
    for t_s in (2, 3):
        got, want = encode(arch, c, qmap, t_s=t_s), encode(arch, c, pinned, t_s=t_s)
        assert (got.num_vars, got.clauses) == (want.num_vars, want.clauses)
    assert solve_optimal(arch, c, qmap).steps == 2


def test_greedy_route_raises_exactly_when_a_gate_has_no_solo_path():
    # the exact engine's early stop rests on this: greedy_route raises
    # UnroutableGateError exactly when some gate has no legal path even with
    # the grid to itself, and the gate it names is one of those
    corpus = _pinned_instances(random.Random(43), 400)
    unroutable = walled_in = 0
    for arch, circuit, qmap in corpus:
        blocked = set(qmap.vertices())
        pathless = set()
        for g in circuit.gates:
            r = oracles.request_for_gate(arch, qmap, g)
            if layered_shortest_length(arch, blocked, r.source, r.sinks) is None:
                pathless.add(g.index)
        try:
            greedy_route(arch, circuit, qmap)
        except UnroutableGateError as e:
            assert int(re.match(r"gate (\d+) ", str(e)).group(1)) in pathless
        else:
            assert not pathless, (serialize_circuit(circuit), qmap)
        unroutable += bool(pathless)
        walled_in += bool(pathless) and bool(arch.magic)
    assert 100 < unroutable < 300 and walled_in > 50
