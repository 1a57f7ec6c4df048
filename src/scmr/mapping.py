"""Qubit maps: uniform-random placement and structural chain placement.

Both mappers draw from an explicit candidate-location set. The default is
the architecture's regular mapping locations, which keep a private 3x3 ring
around every qubit so any single gate is always routable; pass
``locations=unrestricted_locations(arch)`` for the raw non-magic vertex set.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .architecture import Architecture, Vertex, is_json_vertex, regular_locations
from .circuit import Circuit, T_VERTEX, interaction_chain_set, interaction_graph


class MappingError(ValueError):
    pass


@dataclass(frozen=True)
class QubitMap:
    assignment: tuple[tuple[str, Vertex], ...]  # (qubit, vertex), insertion order

    def __post_init__(self):
        object.__setattr__(self, "_lookup", dict(self.assignment))

    def __getitem__(self, qubit: str) -> Vertex:
        return self._lookup[qubit]

    @property
    def as_dict(self) -> dict[str, Vertex]:
        return dict(self.assignment)

    def vertices(self) -> list[Vertex]:
        return [v for _, v in self.assignment]

    def __len__(self):
        return len(self.assignment)


def qubit_map(assignment: dict[str, Vertex]) -> QubitMap:
    items = tuple(assignment.items())
    if len({v for _, v in items}) != len(items):
        raise MappingError("map is not injective")
    return QubitMap(items)


def unrestricted_locations(arch: Architecture) -> tuple[Vertex, ...]:
    return tuple(v for v in arch.vertices() if v not in arch.magic)


def _candidates(arch: Architecture, locations) -> list[Vertex]:
    locs = list(regular_locations(arch) if locations is None else locations)
    bad = [v for v in locs if v in arch.magic or not arch.in_bounds(v)]
    if bad:
        raise MappingError(f"candidate locations include magic/off-grid vertices: {bad}")
    return locs


def random_map(arch: Architecture, circuit: Circuit, seed: int, locations=None) -> QubitMap:
    """Uniformly random injective assignment of qubits onto candidate locations."""
    locs = _candidates(arch, locations)
    if len(locs) < circuit.num_qubits:
        raise MappingError(f"{len(locs)} locations for {circuit.num_qubits} qubits")
    rng = random.Random(seed)
    picks = rng.sample(locs, circuit.num_qubits)
    return qubit_map(dict(zip(circuit.qubits, picks)))


def _distance_to_set(arch: Architecture, sources) -> dict[Vertex, int]:
    """Full-grid shortest-path distance to the nearest source, by BFS."""
    from collections import deque

    adjacency = arch.adjacency
    dist = {v: 0 for v in sources}
    queue = deque(sources)
    while queue:
        v = queue.popleft()
        for u in adjacency[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


_STRIDE2 = ((-2, 0), (2, 0), (0, -2), (0, 2), (-1, -1), (-1, 1), (1, -1), (1, 1))


def struct_map(arch: Architecture, circuit: Circuit, locations=None) -> QubitMap:
    """Chain placement: lay each interaction chain out at stride-2 locations.

    Chains are placed from the magic end inward: the qubit adjacent to the
    T vertex goes nearest the magic set (distance 2 when possible), and each
    remaining chain qubit goes at grid distance exactly 2 from its already
    placed successor, falling back to the first free candidate in row-major
    order when no distance-2 candidate is free. For chains without the T
    vertex, the end whose qubit appears first in the circuit is placed last,
    anchoring the chain from its far end. Runs in time linear in the
    architecture plus the circuit, up to the candidate-set constant.
    """
    locs = _candidates(arch, locations)
    if len(locs) < circuit.num_qubits:
        raise MappingError(f"{len(locs)} locations for {circuit.num_qubits} qubits")
    row_major = sorted(locs, key=lambda v: (v[1], v[0]))
    available = set(row_major)
    order = {q: i for i, q in enumerate(circuit.qubits)}
    assignment: dict[str, Vertex] = {}
    state = {"pop": 0, "buckets": None, "bucket_pos": None}

    def pop_first_free() -> Vertex:
        while row_major[state["pop"]] not in available:
            state["pop"] += 1
        v = row_major[state["pop"]]
        available.remove(v)
        return v

    def pop_nearest_magic() -> Vertex:
        if not arch.magic:
            return pop_first_free()
        if state["buckets"] is None:
            dist = _distance_to_set(arch, arch.magic)
            grouped: dict[int, list[Vertex]] = {}
            for v in row_major:
                grouped.setdefault(dist[v], []).append(v)
            state["buckets"] = sorted(grouped.items())
            state["bucket_pos"] = [0] * len(state["buckets"])
        for i, (_, vs) in enumerate(state["buckets"]):
            pos = state["bucket_pos"][i]
            while pos < len(vs) and vs[pos] not in available:
                pos += 1
            state["bucket_pos"][i] = pos
            if pos < len(vs):
                v = vs[pos]
                available.remove(v)
                return v
        raise MappingError("no candidate locations left")

    def pop_stride2_from(prev: Vertex) -> Vertex:
        cells = sorted(((prev[0] + da, prev[1] + db) for da, db in _STRIDE2),
                       key=lambda v: (v[1], v[0]))
        for v in cells:
            if v in available:
                available.remove(v)
                return v
        return pop_first_free()

    def place_chain(chain):
        if chain and chain[0] is T_VERTEX:
            chain = tuple(reversed(chain))
        if chain and chain[-1] is not T_VERTEX and order[chain[0]] > order[chain[-1]]:
            chain = tuple(reversed(chain))
        prev: Vertex | None = None
        for q in reversed(chain):
            if q is T_VERTEX:
                continue
            if prev is None and chain[-1] is T_VERTEX:
                assignment[q] = pop_nearest_magic()
            elif prev is None:
                assignment[q] = pop_first_free()
            else:
                assignment[q] = pop_stride2_from(prev)
            prev = assignment[q]

    for chain in interaction_chain_set(interaction_graph(circuit)).chains:
        place_chain(chain)
    return qubit_map(assignment)


def _trial(args):
    arch, circuit, seed, router, mapper = args
    qmap = mapper(arch, circuit, seed)
    return qmap, router(arch, circuit, qmap)


def best_of_n(arch: Architecture, circuit: Circuit, n: int, seed: int, router,
              mapper=random_map, jobs: int = 1):
    """Route `n` seeded maps and keep the (map, result) pair with the fewest steps.

    Trial seeds come from one master stream, so the first trial of any n
    equals the single trial of n=1 with the same seed. Ties break toward the
    earliest trial. `mapper` is any (arch, circuit, seed) -> QubitMap and
    `router` any (arch, circuit, map) -> result with `.steps`, such as a
    GateRoute or an OptimalResult. With `jobs > 1` the trials run in up to
    `jobs` spawned worker processes, so `router` and `mapper` must pickle,
    and the calling script must guard its entry point with
    `if __name__ == "__main__"`.
    """
    if n < 1:
        raise MappingError("need at least one trial")
    master = random.Random(seed)
    trials = [(arch, circuit, master.randrange(2 ** 62), router, mapper) for _ in range(n)]
    if jobs > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, n),
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            results = list(pool.map(_trial, trials))
    else:
        results = [_trial(t) for t in trials]
    return min(results, key=lambda r: r[1].steps)


# ---------------------------------------------------------------------------
# JSON form: {"q0": [a, b], ...}
# ---------------------------------------------------------------------------

def map_to_json(qmap: QubitMap) -> str:
    return json.dumps({q: list(v) for q, v in qmap.assignment})


def map_from_json(text: str) -> QubitMap:
    data = json.loads(text)
    if not (isinstance(data, dict) and all(is_json_vertex(v) for v in data.values())):
        raise MappingError('expected {"qubit": [a, b], ...}')
    return qubit_map({q: tuple(v) for q, v in data.items()})
