"""Benchmark instance generators.

known_optimal builds circuits whose optimal step count equals their depth;
random_circuit gives seeded filler workloads with exact qubit count and
depth; the remaining generators are the constructive halves of the
scheduling and disjoint-path reductions (job gadgets, dependency circuit,
cycle circuit, processor-unit architectures, vertex-gadget tilings). They
reject, with BenchError, a size or seed that is not an int, a density or T
fraction that is not a number, a repeated job or edge, an edge that is not
a pair, a job id unfit for qubit names, an edge to an unknown job, to itself
or on a cycle, a pair that is not two vertices, and a pair vertex that is
not two integers, lies off the pair grid or is in two pairs. Each checks
the size its arguments imply before it allocates: a circuit past MAX_GATES
qubits or gates is a BenchError, and a grid past the architecture's
MAX_CELLS a GridTooLarge.
"""
from __future__ import annotations

import json
import math
import random
import re
from heapq import heappop, heappush

from .architecture import Architecture, Vertex, check_grid_size, is_json_vertex
from .circuit import Circuit, circuit_from_gates, cnot, tgate
from .mapping import QubitMap, qubit_map


# The most qubits, and the most gates, a generated circuit may have: a
# circuit holds a few objects per gate, so a size past this ends in BenchError
# instead of exhausting memory; the largest harness circuit,
# known_optimal(200, 200), has 400 qubits and 40,000 gates.
MAX_GATES = 1_000_000


class BenchError(ValueError):
    pass


def _check_size(qubits: int, gates: int) -> None:
    """BenchError when a circuit would have more than MAX_GATES qubits or gates."""
    if max(qubits, gates) > MAX_GATES:
        raise BenchError(f"a circuit of {qubits} qubits and up to {gates} gates"
                         f" is past the cap of {MAX_GATES}")


def _check_ints(**values) -> None:
    """BenchError naming the first value that is not an int (a bool is not)."""
    for name, value in values.items():
        if type(value) is not int:
            raise BenchError(f"{name} must be an integer, got {value!r}")


def _check_number(name: str, value) -> None:
    """BenchError naming `value` unless it is an int or a float (a bool is not)."""
    if type(value) is bool or not isinstance(value, (int, float)):
        raise BenchError(f"{name} must be a number, got {value!r}")


# ---------------------------------------------------------------------------
# Synthetic circuits
# ---------------------------------------------------------------------------

def known_optimal(d: int, k: int, rho: float = 1.0, seed: int = 0) -> Circuit:
    """d layers of CNOTs between a random even partition Left/Right of 2k
    qubits; density rho keeps ceil(rho*k) pairs per layer, always including
    pair 0 so the depth stays exactly d."""
    _check_ints(d=d, k=k, seed=seed)
    _check_number("rho", rho)
    if d < 1 or k < 1:
        raise BenchError("need d >= 1 and k >= 1")
    if not 0 < rho <= 1:
        raise BenchError("density must be in (0, 1]")
    _check_size(2 * k, d * k)
    rng = random.Random(seed)
    qs = [f"q{i}" for i in range(2 * k)]
    rng.shuffle(qs)
    left, right = qs[:k], qs[k:]
    per_layer = max(1, min(k, math.ceil(rho * k - 1e-12)))
    gates = []
    for _ in range(d):
        included = {0}
        if per_layer > 1:
            included.update(rng.sample(range(1, k), per_layer - 1))
        for i in sorted(included):
            gates.append(cnot(left[i], right[i]))
    return circuit_from_gates(gates)


def random_circuit(num_qubits: int, depth: int, t_fraction: float = 0.0, seed: int = 0) -> Circuit:
    """Layered random circuit with exactly the requested qubit count and depth.

    Each layer is a fresh random disjoint pairing of all qubits; a slot turns
    into a T gate with probability t_fraction, and an odd qubit out always
    gets a T. Full per-layer coverage makes every gate depend on the layer
    above, pinning the depth.
    """
    _check_ints(num_qubits=num_qubits, depth=depth, seed=seed)
    _check_number("t_fraction", t_fraction)
    if num_qubits < 0 or depth < 0:
        raise BenchError(f"need qubits >= 0 and depth >= 0, got {num_qubits} and {depth}")
    if depth > 0 and num_qubits < 1:
        raise BenchError("positive depth needs at least one qubit")
    if not 0 <= t_fraction <= 1:
        raise BenchError("t_fraction must be in [0, 1]")
    _check_size(num_qubits, num_qubits * depth)
    rng = random.Random(seed)
    qs = [f"q{i}" for i in range(num_qubits)]
    gates = []
    for _ in range(depth):
        rng.shuffle(qs)
        i = 0
        while i < len(qs):
            if i == len(qs) - 1:
                gates.append(tgate(qs[i]))
                i += 1
            elif t_fraction and rng.random() < t_fraction:
                gates.append(tgate(qs[i]))
                i += 1
            else:
                gates.append(cnot(qs[i], qs[i + 1]))
                i += 2
    return circuit_from_gates(gates)


# ---------------------------------------------------------------------------
# Scheduling reduction: job gadgets, dependency circuit, cycle circuit
# ---------------------------------------------------------------------------

def _gadget_gates(job, d: int):
    _check_ints(d=d)
    if d < 0:
        raise BenchError("degree bound must be nonnegative")
    _check_size(d + 1, 2 * d + 1)
    ins = [cnot(f"q_{job}_0", f"q_{job}_{i}") for i in range(1, d + 1)]
    return ins + [tgate(f"q_{job}_0")] + ins


def job_gadget(job, d: int) -> Circuit:
    """d+1 qubits; d CNOTs fanning out of the T qubit, the T gate, then the
    same d CNOTs again (2d+1 gates)."""
    return circuit_from_gates(_gadget_gates(job, d))


def _job_graph(jobs: list, edges: list[tuple]) -> tuple[list, dict, dict]:
    """Check a dependency spec once; return (order, preds, succs).

    `order` is the stable topological order: of the ready jobs, the one listed
    first goes first. `preds[j]` and `succs[j]` list j's direct prerequisites
    and dependents in job order. BenchError names the first fault of: a
    repeated job, an edge to an unknown job or to itself, a cycle, then per
    job an id `str(j)` (j owns the qubits `q_<j>_<i>`) that is not letters,
    digits and `_` only or is an earlier job's, or a repeated edge out of j.
    """
    pos = {}
    for j in jobs:
        if j in pos:
            raise BenchError(f"job {j!r} is listed more than once")
        pos[j] = len(pos)
    for e in edges:
        if not (isinstance(e, (tuple, list)) and len(e) == 2):
            raise BenchError(f"edge {e!r} is not a (prerequisite, dependent) pair")
        a, b = e
        if a not in pos or b not in pos:
            raise BenchError(f"edge ({a}, {b}) references unknown job")
        if a == b:
            raise BenchError(f"self-dependency on job {a}")
    preds = {j: [] for j in jobs}
    succs = {j: [] for j in jobs}
    for a, b in sorted(edges, key=lambda e: (pos[e[0]], pos[e[1]])):
        succs[a].append(b)
        preds[b].append(a)
    waiting = {j: len(preds[j]) for j in jobs}
    ready = [pos[j] for j in jobs if not waiting[j]]  # ascending, so already a heap
    order = []
    while ready:
        order.append(jobs[heappop(ready)])
        for b in succs[order[-1]]:
            waiting[b] -= 1
            if not waiting[b]:
                heappush(ready, pos[b])
    if len(order) != len(jobs):
        raise BenchError("dependency edges contain a cycle")
    names = {}
    for j in jobs:
        if not re.fullmatch(r"[A-Za-z0-9_]*", str(j)):
            raise BenchError(f"job {j!r} cannot name qubits: use only letters, digits and _")
        if names.setdefault(str(j), j) is not j:
            raise BenchError(f"jobs {names[str(j)]!r} and {j!r} would share the qubits q_{j}_<i>")
        for b, c in zip(succs[j], succs[j][1:]):  # in job order, so repeats are neighbours
            if b == c:
                raise BenchError(f"edge ({j}, {b}) is listed more than once")
    return order, preds, succs


def _dependency_gates(jobs, edges) -> tuple[list, int]:
    """Gate specs of the dependency circuit, and its degree bound."""
    order, preds, succs = _job_graph(list(jobs), list(edges))
    d = max(map(len, (*preds.values(), *succs.values())), default=0)
    _check_size(len(order) * (d + 1), sum(map(len, preds.values())) + len(order) * (2 * d + 1))
    out_index = {(a, b): i for a in order for i, b in enumerate(succs[a], start=1)}
    gates = []
    for j in order:
        for i, a in enumerate(preds[j], start=1):
            gates.append(cnot(f"q_{a}_{out_index[a, j]}", f"q_{j}_{i}"))
        gates.extend(_gadget_gates(j, d))
    return gates, d


def dependency_circuit(jobs, edges) -> Circuit:
    """Concatenated job gadgets plus one transition CNOT per direct
    dependency, wired so the T gates' dependency order equals the job order.

    `jobs` is an ordered list of hashable ids; `edges` are Hasse-diagram
    pairs (prerequisite, dependent). Edge endpoints get I/O qubit indices by
    partner position in `jobs`. `_job_graph` lists the faults it rejects.
    """
    return circuit_from_gates(_dependency_gates(jobs, edges)[0])


def cycle_time_limit(d: int, k: int, t_p: int) -> int:
    return (2 * d + 1) * t_p + d * k * (t_p - 1)


def _cycle_gates(d: int, k: int, t_p: int) -> list:
    _check_ints(d=d, k=k, t_p=t_p)
    if d < 0 or k < 1 or t_p < 1:
        raise BenchError("need d >= 0, k >= 1, t_p >= 1")
    _check_size(2 * k, k * cycle_time_limit(d, k, t_p))
    gates = []
    for c in range(k):
        a, b = f"cyc{c}_a", f"cyc{c}_b"
        for cycle in range(t_p):
            gap = d * k if cycle < t_p - 1 else 0
            gates += [tgate(a)] * d + [cnot(a, b)] + [tgate(a)] * (d + gap)
    return gates


def cycle_circuit(d: int, k: int, t_p: int) -> Circuit:
    """k independent two-qubit chains that hold the magic vertices busy in a
    repeating pattern, releasing them once per cycle; every gate sits on a
    dependency chain of the full time limit, so nothing can be delayed."""
    return circuit_from_gates(_cycle_gates(d, k, t_p))


def processor_unit_width(num_jobs: int) -> int:
    return 6 * num_jobs + 1


def psp_to_scmr(jobs, edges, k: int, t_p: int) -> tuple[Architecture, Circuit, int]:
    """Scheduling instance -> (architecture, circuit, time limit).

    The architecture chains k processor units (4 rows by 6|J|+1 columns,
    magic vertex in the second row from the bottom, second column from the
    right of each unit); the circuit runs the dependency circuit next to the
    cycle circuit on disjoint qubits.
    """
    jobs = list(jobs)
    _check_ints(k=k, t_p=t_p)
    if k < 1 or t_p < 1:
        raise BenchError("need k >= 1 and t_p >= 1")
    if not jobs:
        raise BenchError("need at least one job")
    gates, d = _dependency_gates(jobs, edges)
    width = processor_unit_width(len(jobs))
    check_grid_size(4, k * width)
    magic = frozenset((u * width - 1, 2) for u in range(1, k + 1))
    arch = Architecture(4, k * width, magic)
    return arch, circuit_from_gates(gates + _cycle_gates(d, k, t_p)), cycle_time_limit(d, k, t_p)


def psp_spec_from_json(text: str) -> tuple[list, list[tuple]]:
    """`{"jobs": [id, ...], "edges": [[a, b], ...]}` -> (jobs, edges), job
    ids being strings or integers, checked as `_job_graph` says."""
    data = json.loads(text)
    is_job = lambda x: type(x) in (int, str)
    edges = data.get("edges", []) if isinstance(data, dict) else None
    if not (isinstance(data, dict) and isinstance(data.get("jobs"), list)
            and all(is_job(j) for j in data["jobs"]) and isinstance(edges, list)
            and all(isinstance(e, list) and len(e) == 2 and all(is_job(x) for x in e)
                    for e in edges)):
        raise BenchError('expected {"jobs": [id, ...], "edges": [[a, b], ...]}')
    edges = [tuple(e) for e in edges]
    _job_graph(data["jobs"], edges)
    return data["jobs"], edges


# ---------------------------------------------------------------------------
# Disjoint-path reduction: vertex gadget tiles
# ---------------------------------------------------------------------------

TILE = 5

# Local cells are (a, b) in 1..5; openings sit mid-side and line up between
# adjacent tiles. An empty tile is a plus: any crossing must use its center.
EMPTY_FREE = frozenset({
    (3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (1, 3), (2, 3), (4, 3), (5, 3),
})

# A full tile maps qubits on the center and the two diagonal internal cells.
# The ring around the center splits into two arcs; pocket cells (1,2) and
# (4,5) give the internal gate a second routing, so the tile's own external
# connection can enter or leave through any side while at most one foreign
# crossing fits alongside the internal gate.
FULL_CENTER = (3, 3)
FULL_BL = (2, 2)
FULL_TR = (4, 4)
FULL_FREE = frozenset({
    (3, 1), (1, 3), (3, 5), (5, 3),          # openings
    (2, 3), (3, 2), (3, 4), (4, 3),          # inner arms
    (2, 4), (4, 2),                          # arc corners
    (1, 2), (4, 5),                          # pockets
})

# Magic cells of each tile kind: the cells a tile neither frees nor maps.
_EMPTY_MAGIC, _FULL_MAGIC = (
    tuple((a, b) for b in range(1, TILE + 1) for a in range(1, TILE + 1) if (a, b) not in keep)
    for keep in (EMPTY_FREE, FULL_FREE | {FULL_CENTER, FULL_BL, FULL_TR}))


def _offset(v: Vertex, cell: Vertex) -> Vertex:
    return ((v[0] - 1) * TILE + cell[0], (v[1] - 1) * TILE + cell[1])


def _pair_vertices(pairs):
    """The pair vertices in order; BenchError at the first that repeats."""
    seen = set()
    for pair in pairs:
        for v in pair:
            if v in seen:
                raise BenchError(f"vertex {v} appears in more than one pair")
            seen.add(v)
            yield v


def ndp_to_scr(dims: tuple[int, int], pairs) -> tuple[Architecture, Circuit, QubitMap]:
    """Node-disjoint-paths instance -> single-step routing instance.

    `dims` is the (cols, rows) of the pair grid; `pairs` are endpoint pairs
    of grid vertices (int, int), each in at most one pair. Solvable in one
    time step exactly when the original instance has node-disjoint paths.
    """
    if not (isinstance(dims, (tuple, list)) and len(dims) == 2):
        raise BenchError(f"dims must be (cols, rows), got {dims!r}")
    gw, gh = dims
    _check_ints(cols=gw, rows=gh)
    if gw < 1 or gh < 1:
        raise BenchError(f"pair grid must be at least 1x1, got {gw}x{gh}")
    pairs = list(pairs)
    for pair in pairs:
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                and all(isinstance(v, (tuple, list)) for v in pair)):
            raise BenchError(f"pair {pair!r} is not two vertices")
    pairs = [(tuple(s), tuple(t)) for s, t in pairs]
    for v in _pair_vertices(pairs):
        if not (len(v) == 2 and all(type(x) is int for x in v)):
            raise BenchError(f"pair vertex {v} is not two integers")
        if not (1 <= v[0] <= gw and 1 <= v[1] <= gh):
            raise BenchError(f"pair vertex {v} outside {gw}x{gh} grid")
    check_grid_size(gh * TILE, gw * TILE)
    used = dict.fromkeys(v for pair in pairs for v in pair)

    magic = frozenset(_offset((x, y), cell) for y in range(1, gh + 1) for x in range(1, gw + 1)
                      for cell in (_FULL_MAGIC if (x, y) in used else _EMPTY_MAGIC))
    assignment: dict[str, Vertex] = {}
    gates = []
    for i, (s, t) in enumerate(pairs):
        assignment[f"src{i}"] = _offset(s, FULL_CENTER)
        assignment[f"tar{i}"] = _offset(t, FULL_CENTER)
        gates.append(cnot(f"src{i}", f"tar{i}"))
    for v in sorted(used):
        name = f"{v[0]}_{v[1]}"
        assignment[f"tr_{name}"] = _offset(v, FULL_TR)
        assignment[f"bl_{name}"] = _offset(v, FULL_BL)
        gates.append(cnot(f"tr_{name}", f"bl_{name}"))

    arch = Architecture(gh * TILE, gw * TILE, magic)
    return arch, circuit_from_gates(gates), qubit_map(assignment)


def ndp_pairs_from_json(text: str) -> list[tuple[Vertex, Vertex]]:
    """`[[[x, y], [x, y]], ...]` -> endpoint pairs, no vertex in two pairs."""
    data = json.loads(text)
    if not (isinstance(data, list)
            and all(isinstance(p, list) and len(p) == 2 and all(is_json_vertex(v) for v in p)
                    for p in data)):
        raise BenchError("expected [[[x, y], [x, y]], ...]")
    pairs = [(tuple(s), tuple(t)) for s, t in data]
    list(_pair_vertices(pairs))  # ends in BenchError at a repeated vertex
    return pairs
