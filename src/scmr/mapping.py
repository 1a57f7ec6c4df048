"""Qubit maps: uniform-random placement and structural chain placement.

Both mappers place every qubit on one of the architecture's regular mapping
locations, which keep a private 3x3 ring around every qubit so any single
gate is always routable; too few locations for the qubits is a
`MappingError`.

`struct_map` takes each location from one of three candidate orders: the
row-major order, the by-magic order (row-major, stably sorted by grid
distance to the magic set) and the stride-2 ring around the qubit placed
before it.
"""
from __future__ import annotations

import itertools
import json
import os
import random
from collections import deque
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


def _locations(arch: Architecture, num_qubits: int) -> tuple[Vertex, ...]:
    """The regular locations, row-major; MappingError when too few."""
    locs = regular_locations(arch)
    if len(locs) < num_qubits:
        raise MappingError(f"{len(locs)} locations for {num_qubits} qubits")
    return locs


def random_map(arch: Architecture, circuit: Circuit, seed: int) -> QubitMap:
    """Uniformly random injective assignment of qubits onto regular locations."""
    locs = _locations(arch, circuit.num_qubits)
    picks = random.Random(seed).sample(locs, circuit.num_qubits)
    return qubit_map(dict(zip(circuit.qubits, picks)))


def _distance_to_set(arch: Architecture, sources) -> dict[Vertex, int]:
    """Full-grid shortest-path distance to the nearest source, by BFS."""
    cells = arch.cells
    stride, vertex_of = cells.stride, cells.vertex_of
    dist = {cells.id_of[v]: 0 for v in sources}
    queue = list(dist)   # FIFO: the loop reads it while it grows
    for i in queue:
        d = dist[i] + 1
        for j in (i - stride, i - 1, i + 1, i + stride):
            if j not in dist and vertex_of[j] is not None:
                dist[j] = d
                queue.append(j)
    return {vertex_of[i]: d for i, d in dist.items()}


# The stride-2 ring offsets in row-major order, so the ring around any
# vertex comes out row-major sorted.
_STRIDE2 = ((0, -2), (-1, -1), (1, -1), (-2, 0), (2, 0), (-1, 1), (1, 1), (0, 2))


def struct_map(arch: Architecture, circuit: Circuit) -> QubitMap:
    """Chain placement: lay each interaction chain out at stride-2 locations.

    Chains are placed from the magic end inward: the qubit adjacent to the
    T vertex takes the first free location of the by-magic order (distance 2
    when possible), and each remaining chain qubit the first free location
    of the stride-2 ring around its already placed successor, sorted
    row-major, falling back to the first free location of the row-major
    order. For chains without the T vertex, the end whose qubit appears
    first in the circuit is placed last, anchoring the chain from its far
    end, and the first placed qubit takes the first free row-major location.

    Locations are only ever taken, so each order is one forward iterator
    that never has to look back; the by-magic order is built on first use.
    Runs in time linear in the architecture plus the circuit.
    """
    row_major = _locations(arch, circuit.num_qubits)
    available = set(row_major)

    def take(order) -> Vertex:
        """Remove and return the first still-available vertex of `order`."""
        v = next(v for v in order if v in available)
        available.remove(v)
        return v

    def by_magic():
        dist = _distance_to_set(arch, arch.magic)  # {} on a magic-free grid
        yield from sorted(row_major, key=lambda v: dist.get(v, 0))

    rows, near_magic = iter(row_major), by_magic()
    order = {q: i for i, q in enumerate(circuit.qubits)}
    assignment: dict[str, Vertex] = {}
    for chain in interaction_chain_set(circuit.qubits, interaction_graph(circuit)):
        # placement order: from the T end, else toward the earlier end qubit
        if chain[-1] is T_VERTEX or (chain[0] is not T_VERTEX and order[chain[0]] < order[chain[-1]]):
            chain = chain[::-1]
        first, *rest = [q for q in chain if q is not T_VERTEX]
        prev = assignment[first] = take(near_magic if chain[0] is T_VERTEX else rows)
        for q in rest:
            ring = [(prev[0] + da, prev[1] + db) for da, db in _STRIDE2]
            prev = assignment[q] = take(itertools.chain(ring, rows))
    return qubit_map(assignment)


def _trial(args):
    """One seeded map and its route, or the exception by which the router
    says the map has none."""
    from .routing import UnroutableGateError
    from .sat.solve import CapExhausted

    arch, circuit, seed, router, mapper = args
    qmap = mapper(arch, circuit, seed)
    try:
        return qmap, router(arch, circuit, qmap)
    except (UnroutableGateError, CapExhausted) as e:
        return e


def best_of_n(arch: Architecture, circuit: Circuit, n: int, seed: int, router,
              mapper=random_map, jobs: int = 1):
    """Route `n` seeded maps and keep the (map, result) pair with the fewest steps.

    Trial seeds come from one master stream, so the first trial of any n
    equals the single trial of n=1 with the same seed. Ties break toward the
    earliest trial. A trial whose router raises `UnroutableGateError` or
    `CapExhausted` is skipped; when every trial does, the first trial's
    exception is raised. `mapper` is any (arch, circuit, seed) -> QubitMap and
    `router` any (arch, circuit, map) -> result with `.steps`, such as a
    GateRoute or an OptimalResult. `jobs` is capped at n and at the CPU
    count; above 1, the trials run in that many spawned worker processes, so
    `router` and `mapper` must pickle, and the calling script must guard its
    entry point with `if __name__ == "__main__"`; at most that many trials
    are submitted and unread at a time, and results are read in trial order.
    """
    if n < 1:
        raise MappingError("need at least one trial")
    master = random.Random(seed)
    # in-process, each seed is drawn as its trial starts, so a large n holds
    # no list of n trials
    trials = ((arch, circuit, master.randrange(2 ** 62), router, mapper) for _ in range(n))
    # the pool starts a process per submit that finds no idle worker
    jobs = min(jobs, n, os.cpu_count() or 1)
    if jobs > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            return _fewest_steps(_in_order(pool, trials, jobs))
    return _fewest_steps(map(_trial, trials))


def _in_order(pool, trials, window: int):
    """`_trial` over `trials` on `pool`, in trial order: the first `window`
    trials are submitted at once, and one more each time the earliest
    pending result is read, so no more than `window` wait at a time
    (`Executor.map` submits every trial before it yields)."""
    pending = deque(pool.submit(_trial, t) for t in itertools.islice(trials, window))
    while pending:
        result = pending.popleft().result()
        pending.extend(pool.submit(_trial, t) for t in itertools.islice(trials, 1))
        yield result


def _fewest_steps(results):
    """The earliest pair with the fewest steps, holding only the best so far;
    raises the first exception when no trial routed."""
    best = failure = None
    for r in results:
        if isinstance(r, Exception):
            failure = failure or r
        elif best is None or r[1].steps < best[1].steps:
            best = r
    if best is None:
        raise failure
    return best


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
