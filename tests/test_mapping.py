import functools
import time
from collections import Counter

import pytest

import oracles
from scmr.architecture import bordered_architecture, custom_architecture, grid_distance, regular_locations
from scmr.bench import random_circuit
from scmr.circuit import parse_circuit
from scmr.mapping import (
    MappingError,
    best_of_n,
    map_from_json,
    map_to_json,
    qubit_map,
    random_map,
    struct_map,
    unrestricted_locations,
)
from scmr.routing import greedy_route, route_to_json
from scmr.sat import solve_optimal


def _check_map_invariants(arch, circuit, qmap, locations=None):
    vs = qmap.vertices()
    assert len(vs) == len(set(vs))
    assert set(qmap.as_dict) == set(circuit.qubits)
    for v in vs:
        assert arch.in_bounds(v) and v not in arch.magic
        if locations is not None:
            assert v in locations


def test_random_map_single_choice():
    arch = bordered_architecture(1)
    c = parse_circuit("t q0")
    m = random_map(arch, c, seed=5)
    assert m["q0"] == regular_locations(arch)[0]


def test_random_map_deterministic():
    arch = bordered_architecture(4)
    c = parse_circuit("cnot a b; t c")
    assert random_map(arch, c, seed=42).assignment == random_map(arch, c, seed=42).assignment


def test_random_map_not_enough_locations():
    arch = bordered_architecture(1)
    with pytest.raises(MappingError):
        random_map(arch, parse_circuit("cnot a b"), seed=0)


def test_random_map_uniform_over_bijections():
    # 2 qubits onto 2 locations: both bijections near 50/50 over many seeds
    arch = custom_architecture(5, 5, [])
    locs = [(2, 2), (4, 4)]
    c = parse_circuit("cnot a b")
    counts = Counter()
    trials = 10_000
    for s in range(trials):
        m = random_map(arch, c, seed=s, locations=locs)
        counts[m["a"]] += 1
    for v in locs:
        assert abs(counts[v] / trials - 0.5) < 0.05


def test_struct_map_places_t_chain_near_magic():
    arch = bordered_architecture(4)
    c = parse_circuit("t q0; cnot q0 q1; cnot q0 q2")
    m = struct_map(arch, c)
    _check_map_invariants(arch, c, m, regular_locations(arch))
    d_magic = min(grid_distance(m["q0"], v) for v in arch.magic)
    assert d_magic == 2
    assert grid_distance(m["q0"], m["q1"]) == 2


def test_struct_map_single_qubit():
    arch = bordered_architecture(1)
    c = parse_circuit("t q0")
    m = struct_map(arch, c)
    assert len(m) == 1


def test_struct_map_total_when_distance2_runs_out():
    # 1-row candidate band: chains longer than any stride-2 run still map fully
    arch = custom_architecture(5, 11, [])
    locs = [(a, 2) for a in (2, 4, 6, 8, 10)]
    c = parse_circuit("cnot a b; cnot b c; cnot c d; cnot d e")
    m = struct_map(arch, c, locations=locs)
    _check_map_invariants(arch, c, m, locs)


def test_struct_map_deterministic():
    arch = bordered_architecture(9)
    c = random_circuit(7, 4, 0.3, seed=9)
    assert struct_map(arch, c).assignment == struct_map(arch, c).assignment


def test_struct_map_unrestricted_mode():
    arch = bordered_architecture(2)
    c = parse_circuit("cnot a b")
    m = struct_map(arch, c, locations=unrestricted_locations(arch))
    _check_map_invariants(arch, c, m)


def test_struct_map_linear_time_smoke():
    # 10x the qubits at fixed depth: gates and architecture grow ~10x
    arch_small = bordered_architecture(10)
    small = random_circuit(10, 10, 0.2, seed=1)
    arch_big = bordered_architecture(100)
    big = random_circuit(100, 10, 0.2, seed=1)

    def best_of_three(arch, circ):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            struct_map(arch, circ)
            times.append(time.perf_counter() - t0)
        return min(times)

    small_t = best_of_three(arch_small, small)
    big_t = best_of_three(arch_big, big)
    assert big_t < 30 * max(small_t, 0.005)


def test_best_of_n_first_trial_matches_n1():
    arch = bordered_architecture(4)
    c = random_circuit(4, 3, 0.0, seed=3)
    m1, r1 = best_of_n(arch, c, 1, seed=7, router=greedy_route)
    m20, r20 = best_of_n(arch, c, 20, seed=7, router=greedy_route)
    assert r20.steps <= r1.steps


def test_best_of_n_finds_a_one_step_map():
    # two parallel CNOTs over four spread locations: enumeration shows some
    # assignments allow single-step execution and some do not; sampling
    # enough random maps finds a one-step one
    import itertools

    arch = custom_architecture(5, 5, [])
    locs = [(1, 1), (1, 3), (3, 1), (3, 3)]
    c = parse_circuit("cnot q0 q1; cnot q2 q3")
    steps_by_map = []
    for perm in itertools.permutations(locs):
        m = qubit_map(dict(zip(c.qubits, perm)))
        steps_by_map.append(greedy_route(arch, c, m).steps)
    p = steps_by_map.count(1) / len(steps_by_map)
    assert 0 < p < 1
    _, best = best_of_n(arch, c, 40, seed=1, router=greedy_route,
                        mapper=functools.partial(random_map, locations=locs))
    assert best.steps == 1


def test_best_of_n_requires_positive_n():
    arch = bordered_architecture(1)
    with pytest.raises(MappingError):
        best_of_n(arch, parse_circuit("t a"), 0, seed=0, router=greedy_route)


def test_best_of_n_matches_reference_cli_loop():
    # byte-identical picks to the loop `scmr compile` ran before it called
    # best_of_n, for both routers, in-process and with a worker pool
    def picks(qmap, route, proven):
        return map_to_json(qmap), route_to_json(route), proven

    for seed in range(4):
        arch = bordered_architecture(5)
        c = random_circuit(5, 3, 0.3, seed=seed)
        for jobs in (1, 2):
            want = oracles._best_random(arch, c, 4, seed, greedy_route, jobs=jobs)
            assert picks(*best_of_n(arch, c, 4, seed, greedy_route, jobs=jobs), False) == picks(*want)
    for seed in range(3):
        arch = bordered_architecture(3)
        c = random_circuit(3, 2, 0.3, seed=seed)
        want = oracles._best_random(arch, c, 3, seed, solve_optimal)
        for jobs in (1, 2):
            qmap, res = best_of_n(arch, c, 3, seed, solve_optimal, jobs=jobs)
            assert picks(qmap, res.route, res.proven_minimal) == picks(*want)


def test_map_from_json_rejects_malformed_maps():
    for text in ('{"a": 5}', '[]', '{"a": [1, 2, 3]}', '{"a": [1, "2"]}'):
        with pytest.raises(MappingError):
            map_from_json(text)


def test_map_json_roundtrip():
    m = qubit_map({"a": (2, 3), "b": (4, 5)})
    assert map_from_json(map_to_json(m)).as_dict == m.as_dict


def test_qubit_map_rejects_collisions():
    with pytest.raises(MappingError):
        qubit_map({"a": (1, 1), "b": (1, 1)})


def test_fuzzed_maps_satisfy_invariants():
    for seed in range(40):
        c = random_circuit(1 + seed % 6, 1 + seed % 4, (seed % 3) / 3, seed=seed)
        arch = bordered_architecture(c.num_qubits)
        _check_map_invariants(arch, c, random_map(arch, c, seed=seed), regular_locations(arch))
        _check_map_invariants(arch, c, struct_map(arch, c), regular_locations(arch))


def test_all_magic_grid_rejects_any_mapping():
    arch = custom_architecture(2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)])
    c = parse_circuit("cnot a b")
    with pytest.raises(MappingError):
        random_map(arch, c, seed=0, locations=unrestricted_locations(arch))
