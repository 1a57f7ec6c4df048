import functools
import hashlib
import math
import os
import random
import sys
import time
from collections import Counter

import pytest

import oracles
from scmr import mapping
from scmr.architecture import (
    bordered_architecture,
    center_column_architecture,
    custom_architecture,
    grid_distance,
    regular_locations,
    right_column_architecture,
)
from scmr.bench import known_optimal, random_circuit
from scmr.circuit import parse_circuit
from scmr.mapping import (
    MappingError,
    best_of_n,
    map_from_json,
    map_to_json,
    qubit_map,
    random_map,
    struct_map,
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
    arch = custom_architecture(3, 5, [])
    locs = regular_locations(arch)
    assert locs == ((2, 2), (4, 2))
    c = parse_circuit("cnot a b")
    counts = Counter()
    trials = 10_000
    for s in range(trials):
        m = random_map(arch, c, seed=s)
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
    arch = custom_architecture(3, 11, [])
    locs = regular_locations(arch)
    assert locs == tuple((a, 2) for a in (2, 4, 6, 8, 10))
    c = parse_circuit("cnot a b; cnot b c; cnot c d; cnot d e")
    m = struct_map(arch, c)
    _check_map_invariants(arch, c, m, locs)


def test_struct_map_deterministic():
    arch = bordered_architecture(9)
    c = random_circuit(7, 4, 0.3, seed=9)
    assert struct_map(arch, c).assignment == struct_map(arch, c).assignment


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


def _map_or_error(mapper, arch, circuit):
    try:
        return map_to_json(mapper(arch, circuit))
    except MappingError as e:
        return f"MappingError: {e}"


def _mapper_corpus():
    """(arch, circuit) over bordered, right-column, center-column, magic-free
    and magic-sprinkled grids (whose regular locations and magic distances
    have no pattern), T fractions up to 0.8, too few locations, and wide
    known-optimum circuits."""
    for seed in range(12):
        for n in range(1 + seed % 3, 34, 3):
            side = 7 + 3 * math.isqrt(n)
            cells = [(a, b) for b in range(1, side + 1) for a in range(1, side + 1)]
            for t_fraction in (0.0, 0.2, 0.5, 0.8):
                c = random_circuit(n, 1 + seed % 4, t_fraction, seed=seed * 1000 + n)
                grids = [custom_architecture(3 + n // 3, 4 + n // 2, [])]
                grids += [build(n) for build in (bordered_architecture, right_column_architecture,
                                                 center_column_architecture)]
                rng = random.Random(seed * 1000 + n + int(10 * t_fraction))
                for density in (0.01, 0.03, 0.06):
                    magic = rng.sample(cells, int(density * len(cells)))
                    grids.append(custom_architecture(side, side, magic))
                grids.append(bordered_architecture(max(1, n // 3)))
                yield from ((arch, c) for arch in grids)
    for d, k in ((1, 1), (2, 15), (3, 40), (2, 200)):
        c = known_optimal(d, k, 0.5, seed=k)
        yield bordered_architecture(c.num_qubits), c


def test_struct_map_matches_reference():
    # byte-identical maps and error texts to the pointer-and-bucket mapper
    cases = 0
    for arch, c in _mapper_corpus():
        want = _map_or_error(oracles.struct_map, arch, c)
        assert _map_or_error(struct_map, arch, c) == want, (arch, c.num_qubits)
        cases += 1
    assert cases > 2000


def test_default_location_maps_pinned():
    # sha256 of struct and random maps over the three built-in layouts, as
    # `scmr compile` builds them, hashed before the mappers dropped their
    # `locations` option: their draws are pinned to bytes no reference shares
    h = hashlib.sha256()
    layouts = (bordered_architecture, right_column_architecture,
               functools.partial(center_column_architecture, widen=True))
    for n in range(1, 31):
        for t_fraction in (0.0, 0.2, 0.4, 0.6, 0.8):
            c = random_circuit(n, 1 + n % 5, t_fraction, seed=100 * n + int(10 * t_fraction))
            for build in layouts:
                arch = build(n)
                h.update(map_to_json(struct_map(arch, c)).encode() + b"\n")
                for seed in range(3):
                    h.update(map_to_json(random_map(arch, c, seed)).encode() + b"\n")
    assert h.hexdigest() == "d2a3c6b1faf6e7441fe1519833c1635a30d19259ab4b1738b8e7fff9e9869a34"


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
                        mapper=functools.partial(oracles.random_map, locations=locs))
    assert best.steps == 1


def test_best_of_n_keeps_only_the_best_route_so_far():
    # a trial's route is dropped once a later trial is no better, so memory
    # stays flat in n instead of holding every trial's route until the end
    import weakref

    class Route:
        def __init__(self, steps):
            self.steps = steps

    live = weakref.WeakSet()
    alive_at_call = []

    def router(arch, circuit, qmap):
        alive_at_call.append(len(live))
        route = Route(len(live) % 3 + 1)
        live.add(route)
        return route

    arch = bordered_architecture(4)
    _, best = best_of_n(arch, parse_circuit("cnot a b"), 20, seed=0, router=router)
    assert len(alive_at_call) == 20 and max(alive_at_call) <= 2
    assert best.steps == 1


def test_best_of_n_draws_each_seed_as_its_trial_starts(monkeypatch):
    # a sentinel from the first trial's router stops the run: only its seed
    # has been drawn, not all n, so `rand:N` holds no O(N) trial list
    draws = 0

    class CountingRandom(random.Random):
        def randrange(self, *args, **kwargs):
            nonlocal draws
            draws += 1
            return super().randrange(*args, **kwargs)

    def router(arch, circuit, qmap):
        raise RuntimeError("sentinel")

    monkeypatch.setattr(mapping.random, "Random", CountingRandom)
    arch = bordered_architecture(4)
    with pytest.raises(RuntimeError, match="sentinel"):
        best_of_n(arch, parse_circuit("cnot a b"), 1000, seed=0, router=router)
    assert draws == 1


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


@pytest.mark.parametrize("jobs", [1, 2])
def test_best_of_n_skips_trials_without_a_route(jobs):
    # seed 2 draws three maps: the first and third put the CNOT across the
    # magic column, so greedy raises UnroutableGateError and the exact engine
    # CapExhausted; the second routes in one step. All three of seed 0 fail.
    from scmr.routing import UnroutableGateError
    from scmr.sat import CapExhausted

    arch = center_column_architecture(4)
    c = parse_circuit("cnot a b; t c; t d")
    master = random.Random(2)
    _, second, _ = (master.randrange(2 ** 62) for _ in range(3))
    for router, error in ((greedy_route, UnroutableGateError), (solve_optimal, CapExhausted)):
        for n in (1, 3):
            with pytest.raises(error):
                best_of_n(arch, c, n, 0, router, jobs=jobs)
        with pytest.raises(error):
            best_of_n(arch, c, 1, 2, router, jobs=jobs)
        qmap, result = best_of_n(arch, c, 3, 2, router, jobs=jobs)
        assert result.steps == 1
        assert qmap == random_map(arch, c, second)


def test_best_of_n_skips_a_trial_whose_probes_all_time_out(monkeypatch):
    # every probe of the second trial times out, so its `solve_optimal`
    # raises SolverTimeout: best_of_n skips it like a trial without a route
    # and keeps the better of the other two
    from scmr.sat import SolverTimeout

    sat_solve = sys.modules["scmr.sat.solve"]  # attribute scmr.sat.solve is a function
    real = sat_solve.solve
    maps = []

    def timed_out(cnf, timeout=None):
        raise SolverTimeout("no verdict")

    def router(arch, circuit, qmap):
        monkeypatch.setattr(sat_solve, "solve", timed_out if len(maps) == 1 else real)
        maps.append(qmap)
        return solve_optimal(arch, circuit, qmap)

    arch = bordered_architecture(4)
    c = random_circuit(4, 3, 0.2, seed=1)
    qmap, result = best_of_n(arch, c, 3, 0, router)
    assert len(maps) == 3
    first, third = (solve_optimal(arch, c, maps[i]).steps for i in (0, 2))
    assert (qmap, result.steps) == ((maps[0], first) if first <= third else (maps[2], third))


@pytest.mark.parametrize("jobs", [1, 2])
def test_best_of_n_draws_seeds_only_for_the_trials_in_flight(jobs, monkeypatch):
    # with no candidate location the mapper raises in every trial, so the
    # first result read ends the run; by then at most `jobs` trials are
    # pending, plus the one submitted as that result is read
    draws = 0

    class Counting(random.Random):
        def randrange(self, *args, **kwargs):
            nonlocal draws
            draws += 1
            return super().randrange(*args, **kwargs)

    monkeypatch.setattr(mapping.random, "Random", Counting)
    arch = bordered_architecture(2)
    c = parse_circuit("cnot a b")
    with pytest.raises(MappingError, match="0 locations for 2 qubits"):
        best_of_n(arch, c, 1000, 0, greedy_route,
                  mapper=functools.partial(oracles.random_map, locations=[]), jobs=jobs)
    assert 1 <= draws <= jobs + 1


def test_best_of_n_caps_workers_at_the_cpu_count(monkeypatch):
    # a spawn pool starts a process for each submit that finds no idle
    # worker, so `--jobs` past the CPU count would start that many at once;
    # on two CPUs, 64 jobs ask for two workers and keep two trials pending,
    # and pick what the in-process run picks
    import concurrent.futures

    asked, pending, most = [], [0], [0]

    class Done:
        def __init__(self, value):
            self.value = value

        def result(self):
            pending[0] -= 1
            return self.value

    class InlinePool:
        def __init__(self, max_workers, mp_context=None):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            pending[0] += 1
            most[0] = max(most[0], pending[0])
            return Done(fn(*args))

    arch = bordered_architecture(4)
    c = random_circuit(4, 3, 0.3, seed=5)
    want = best_of_n(arch, c, 16, 3, greedy_route, jobs=1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    qmap, route = best_of_n(arch, c, 16, 3, greedy_route, jobs=64)
    assert asked == [2] and most[0] == 2
    assert (map_to_json(qmap), route_to_json(route)) == (map_to_json(want[0]), route_to_json(want[1]))


def test_map_from_json_rejects_malformed_maps():
    for text in ('{"a": 5}', '[]', '{"a": [1, 2, 3]}', '{"a": [1, "2"]}'):
        with pytest.raises(MappingError):
            map_from_json(text)


def test_map_json_roundtrip():
    m = qubit_map({"a": (2, 3), "b": (4, 5)})
    assert map_from_json(map_to_json(m)).as_dict == m.as_dict


def test_mappers_count_the_locations_of_a_minimal_grid():
    # the minimal center-column grid for one qubit holds no regular
    # location: the layout builds it, and each mapper raises
    c = parse_circuit("t q0")
    minimal = center_column_architecture(1)
    for mapper in (struct_map, functools.partial(random_map, seed=0)):
        with pytest.raises(MappingError, match="^0 locations for 1 qubits$"):
            mapper(minimal, c)
        assert mapper(center_column_architecture(1, widen=True), c)["q0"] is not None


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
        random_map(arch, c, seed=0)
    with pytest.raises(MappingError):
        oracles.random_map(arch, c, seed=0, locations=oracles.unrestricted_locations(arch))
