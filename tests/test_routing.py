import itertools
import json

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
from scmr.circuit import circuit_from_gates, cnot, parse_circuit
from scmr.mapping import qubit_map, random_map, struct_map, unrestricted_locations
from scmr.routing import (
    GateRoute,
    RoutingError,
    Rule,
    UnroutableGateError,
    greedy_route,
    request_for_gate,
    route_from_json,
    route_to_json,
    shortest_first,
    shortest_legal_path,
    validate,
)

from oracles import enumerate_legal_paths, layered_shortest_length


def test_shortest_path_unobstructed_L():
    arch = custom_architecture(5, 5, [])
    p = shortest_legal_path(arch, {(2, 2), (4, 4)}, (2, 2), {(4, 4)})
    assert p is not None and len(p) == 5
    assert p[0] == (2, 2) and p[-1] == (4, 4)
    assert abs(p[0][1] - p[1][1]) == 1       # leaves vertically
    assert abs(p[-1][0] - p[-2][0]) == 1     # arrives horizontally


def test_shortest_path_adjacent_target_needs_bend():
    arch = custom_architecture(5, 5, [])
    p = shortest_legal_path(arch, {(2, 2), (3, 2)}, (2, 2), {(3, 2)})
    assert p is not None and len(p) >= 3


def test_shortest_path_blocked_source():
    arch = custom_architecture(3, 3, [])
    blocked = set(arch.vertices())  # everything unusable as interior
    assert shortest_legal_path(arch, blocked, (2, 2), {(1, 1)}) is None


def test_shortest_path_matches_layered_oracle():
    arch = custom_architecture(4, 5, [(3, 3)])
    vertices = list(arch.vertices())
    for source, sink in itertools.permutations(vertices, 2):
        if source in arch.magic or sink in arch.magic:
            continue
        blocked = {source, sink}
        got = shortest_legal_path(arch, blocked, source, {sink})
        want = layered_shortest_length(arch, blocked, source, {sink})
        if want is None:
            assert got is None
        else:
            assert got is not None and len(got) == want
            paths = enumerate_legal_paths(arch, blocked, source, {sink})
            assert len(got) == min(len(q) for q in paths)


def test_shortest_first_empty():
    arch = custom_architecture(3, 3, [])
    assert shortest_first(arch, [], set()) == []


def test_shortest_first_two_parallel_cnots():
    # side-by-side pairs on a 5x5: both leave in one step
    arch = custom_architecture(5, 5, [])
    c = circuit_from_gates([cnot("q0", "q1"), cnot("q2", "q3")])
    m = qubit_map({"q0": (1, 1), "q1": (2, 2), "q2": (4, 1), "q3": (5, 2)})
    reqs = [request_for_gate(arch, m, g) for g in c.gates]
    routed = shortest_first(arch, reqs, set(m.vertices()))
    assert len(routed) == 2
    used = [v for _, path in routed for v in path]
    assert len(used) == len(set(used))


def test_shortest_first_crossing_requests_route_one():
    arch = custom_architecture(3, 3, [])
    c = circuit_from_gates([cnot("q0", "q1"), cnot("q2", "q3")])
    m = qubit_map({"q0": (1, 1), "q1": (3, 3), "q2": (3, 1), "q3": (1, 3)})
    reqs = [request_for_gate(arch, m, g) for g in c.gates]
    routed = shortest_first(arch, reqs, set(m.vertices()))
    assert len(routed) == 1


def test_shortest_first_is_maximal():
    arch = custom_architecture(4, 4, [])
    c = circuit_from_gates([cnot("a", "b"), cnot("c", "d"), cnot("e", "f")])
    m = qubit_map({"a": (1, 1), "b": (4, 4), "c": (4, 1), "d": (1, 4),
                   "e": (2, 2), "f": (3, 3)})
    reqs = [request_for_gate(arch, m, g) for g in c.gates]
    blocked = set(m.vertices())
    routed = shortest_first(arch, reqs, blocked)
    used = {v for _, path in routed for v in path}
    done = {g.index for g, _ in routed}
    for req in reqs:
        if req.gate.index not in done:
            assert shortest_legal_path(arch, blocked | used, req.source, req.sinks - used) is None


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
    assert again == r


def test_shortest_first_routes_one_whenever_possible_systematic():
    # every placement of two CNOT pairs on the 3x3: the greedy step routes at
    # least one request exactly when some request is routable alone
    from oracles import enumerate_legal_paths

    arch = custom_architecture(3, 3, [])
    c = circuit_from_gates([cnot("a", "b"), cnot("c", "d")])
    for placement in itertools.permutations(list(arch.vertices()), 4):
        m = qubit_map(dict(zip(["a", "b", "c", "d"], placement)))
        blocked = set(m.vertices())
        reqs = [request_for_gate(arch, m, g) for g in c.gates]
        routed = shortest_first(arch, reqs, blocked)
        alone = any(
            enumerate_legal_paths(arch, blocked, r.source, r.sinks) for r in reqs
        )
        assert bool(routed) == alone


# ---------------------------------------------------------------------------
# Differential: the router against the pre-optimization shortest-first
# ---------------------------------------------------------------------------

def _outcome(arch, circuit, qmap) -> str:
    try:
        return route_to_json(greedy_route(arch, circuit, qmap))
    except UnroutableGateError as e:
        return f"unroutable: {e}"


def _reference_outcome(monkeypatch, arch, circuit, qmap) -> str:
    with monkeypatch.context() as mp:
        mp.setattr(scmr.routing, "shortest_first", oracles.shortest_first)
        return _outcome(arch, circuit, qmap)


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


def test_greedy_route_matches_reference_router(monkeypatch):
    count = 0
    for arch, c, m in _differential_instances():
        assert _outcome(arch, c, m) == _reference_outcome(monkeypatch, arch, c, m)
        count += 1
    assert count == 132


def test_greedy_route_matches_reference_router_on_crowded_maps(monkeypatch):
    # maps over every non-magic vertex: qubits wall each other in, so some
    # instances are unroutable and must fail with the same message
    unroutable = 0
    for seed in range(90):
        c = random_circuit(3 + seed % 6, 2 + seed % 4, (0.0, 0.3, 0.6)[seed % 3], seed=seed)
        arch = _BUILDERS[seed % 3](c.num_qubits)
        m = random_map(arch, c, seed=seed, locations=unrestricted_locations(arch))
        got = _outcome(arch, c, m)
        assert got == _reference_outcome(monkeypatch, arch, c, m)
        unroutable += got.startswith("unroutable")
    assert 0 < unroutable < 90


def _count_bfs_calls(monkeypatch, module, arch, circuit, qmap) -> int:
    calls = 0
    real = module.shortest_legal_path

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(module, "shortest_legal_path", counting)
        if module is oracles:
            mp.setattr(scmr.routing, "shortest_first", oracles.shortest_first)
        greedy_route(arch, circuit, qmap)
    return calls


def test_greedy_route_bfs_calls(monkeypatch):
    # the search is reached through the module attribute, once or more per
    # routed gate (span shims rely on that), and a pending request is searched
    # again only when the last pick took a vertex of its path
    c = known_optimal(6, 20, 1.0, seed=3)
    arch = bordered_architecture(c.num_qubits)
    counts = []
    for m in (struct_map(arch, c), random_map(arch, c, seed=0)):
        calls = _count_bfs_calls(monkeypatch, scmr.routing, arch, c, m)
        reference = _count_bfs_calls(monkeypatch, oracles, arch, c, m)
        assert len(c.gates) <= calls <= reference
        counts.append((calls, reference))
    assert counts == [(120, 1260), (528, 1326)]
