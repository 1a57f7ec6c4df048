"""Gate routing: legal paths, shortest-first disjoint routing, greedy schedule.

A legal route for a gate is a simple grid path that leaves the gate's start
vertex through a vertical edge and arrives at its end vertex through a
horizontal edge. CNOT paths run from the control's vertex to the target's
vertex; T paths run from the operand's vertex to any magic-state vertex.
Mapped and magic vertices may appear only as path endpoints, and paths that
share a time step must be vertex-disjoint, endpoints included.

The greedy router searches over `Architecture.cells` ids, and its hot loops
work on cell bitsets alone: one Python `int` with a bit per id. The free
cells are `CellIndex.free`; `greedy_route` builds one such bitset per route.
`shortest_legal_path` searches it a whole breadth-first layer at a time with
four shifts, from the sink side: layer j holds the open cells at distance j
from the goal cells next to a usable sink, and the search stops at the first
layer that holds one of the source's exit cells. A walk forward from the
source through those layers, toward the sinks, then takes the first
neighbor in sorted order at each hop, which gives the path a FIFO search
from the source with sorted neighbor expansion would give. The search takes
the cells consumed earlier in the step as a bitset, `used`, skips the sinks
among them, and returns the path with the bitset of its cells.
A routing request is a plain tuple `(gate, source, sinks)`: the source's
cell id and the bitset of the sinks' cells, `CellIndex.magic` itself for a
T gate. `gate_requests` builds one per gate, and is the one place where
both engines meet the map: it checks the map first, by the rule `validate`
words its map-validity violations from, and raises `MappingError` with the
first of them. The greedy router, the SAT encoder and decoder all read that
table.
`shortest_first` keeps the pending requests in a heap keyed by path length
and gate index, and the step's consumed cells as one bitset; it searches a
request again only when it is popped with a path whose cells meet that
bitset. Since consuming vertices only lengthens or removes paths, the picks
are those of searching every pending request again after every pick. Every
step of a route starts from the same bitset, so `greedy_route` keeps one
dict per route from (source, sinks) to the result of that first,
unobstructed search, and runs it at most once per pair.
"""
from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from heapq import heapify, heappop, heappush
from itertools import chain
from operator import sub
from types import MappingProxyType

from .architecture import Architecture, Vertex, is_json_vertex
from .circuit import Circuit, Gate, GateKind, topological_layering
from .mapping import MappingError, QubitMap

Path = tuple[Vertex, ...]


class RoutingError(ValueError):
    pass


class UnroutableGateError(RoutingError):
    """Some gate has no legal path even with the whole grid to itself."""


@dataclass(frozen=True)
class GateRoute:
    """A schedule: `time` maps gate index -> step (1-based), `space` maps gate
    index -> path. Both are read-only views of copies of the given dicts."""
    steps: int
    time: Mapping[int, int]
    space: Mapping[int, Path]

    def __post_init__(self):
        object.__setattr__(self, "time", MappingProxyType(dict(self.time)))
        object.__setattr__(self, "space", MappingProxyType(dict(self.space)))

    def __reduce__(self):
        return GateRoute, (self.steps, dict(self.time), dict(self.space))


# ---------------------------------------------------------------------------
# Shortest legal path
# ---------------------------------------------------------------------------

def shortest_legal_path(arch: Architecture, free: int, source: int, sinks: int,
                        used: int = 0) -> tuple[Path, int] | None:
    """Minimum-length legal path from source to some sink and the bitset of
    its cells, or None when there is none.

    `source` is a cell id, as `gate_requests` gives it; `free`, `sinks` and
    `used` are bitsets over `arch.cells` ids (see `CellIndex`). `free` is
    set where a vertex may be a path interior, clear at mapped, magic and
    padding cells and at the vertices consumed earlier in the step. The
    source and the sinks are never interiors. Sinks are endpoint candidates
    and must be entered through a horizontal edge; sinks whose bit is set
    in `used` are skipped. Only the first and last edges are
    orientation-constrained, so the search runs over interior cells alone:
    from the source's exit cells (its open vertical neighbors) to the goal
    cells (the open cells horizontally next to a usable sink).

    The search is layer-synchronous and runs from the sink side: layer 0 is
    the goal cells, and each next layer is the open, unreached neighbors of
    the last, all found by four shifts of one integer. So layer j holds the
    cells at distance j from the goal cells, and the search stops at the
    first layer k that holds an exit cell; k + 1 interior cells is the
    shortest length. The walk then goes forward from the source, taking at
    each hop the first neighbor in the order ``-stride, -1, +1, +stride``
    (``-1, +1`` on the first hop) that lies in the next layer. That is the
    lexicographically least shortest path by direction: a neighbor n of the
    cell at hop i - 1 lies in layer k - i exactly when its distance from the
    exit cells is i (it is at most i as a neighbor, at least i since no
    path is shorter than k), so the walk sees the cells a forward search
    from the exit cells would keep on a shortest path. It is the path of a
    FIFO breadth-first search from the source that expands neighbors in
    that order and keeps each cell's first parent: its tree path to a cell
    is the least one, and the first goal it enqueues ends the least path at
    the least distance. The path ends at the sink ``-stride`` from its last
    cell when that sink is usable, otherwise at the one ``+stride`` from it.
    """
    stride, vertex_of = arch.cells.stride, arch.cells.vertex_of
    ends = sinks & ~used
    open_ = free & ~(sinks | 1 << source)
    exits = (1 << (source - 1) | 1 << (source + 1)) & open_
    if not (ends and exits):
        return None
    front = (ends << stride | ends >> stride) & open_
    layers: list[int] = []
    while front:
        if front & exits:
            break
        layers.append(front)
        open_ ^= front
        front = (front << stride | front >> stride | front << 1 | front >> 1) & open_
    else:
        return None

    cur = source - 1 if front >> (source - 1) & 1 else source + 1
    bits = 1 << source | 1 << cur
    hops = [vertex_of[source], vertex_of[cur]]
    for on in reversed(layers):
        near = on >> (cur - stride)   # bit 0 is cur - stride
        if near & 1:
            cur -= stride
        elif near >> (stride - 1) & 1:
            cur -= 1
        elif near >> (stride + 1) & 1:
            cur += 1
        else:   # a cell in layer j always has a neighbor in layer j - 1
            cur += stride
        bits |= 1 << cur
        hops.append(vertex_of[cur])
    end = cur - stride if ends >> (cur - stride) & 1 else cur + stride
    hops.append(vertex_of[end])
    return tuple(hops), bits | 1 << end


# ---------------------------------------------------------------------------
# Routing requests and shortest-first
# ---------------------------------------------------------------------------

def gate_requests(arch: Architecture, circuit: Circuit,
                  qmap: QubitMap) -> list[tuple[Gate, int, int]]:
    """One `(gate, source, sinks)` per gate of `circuit`, in gate order: a
    CNOT runs from its control's cell id to the bitset of its target's
    cell, a T gate from its operand's cell id to `arch.cells.magic` (that
    bitset itself). The slice `r[1:]` is a request's search key.

    Raises `MappingError` with the first of `validate`'s map-validity
    details when `qmap` leaves a qubit of the circuit unmapped, off the
    grid, on a magic vertex or on another's vertex; entries for qubits the
    circuit does not use are not checked."""
    cell, faults = _placement(arch, circuit, qmap)
    if faults:
        raise MappingError(faults[0])
    magic = arch.cells.magic
    cnot = GateKind.CNOT
    # qubits[0] is the control of a CNOT and the operand of a T gate
    return [(g, cell[g.qubits[0]], 1 << cell[g.qubits[1]] if g.kind is cnot else magic)
            for g in circuit.gates]


def _placement(arch: Architecture, circuit: Circuit, qmap: QubitMap) -> tuple[dict, list[str]]:
    """The cell id of each circuit qubit's vertex under `qmap` (None off the
    grid), and one detail per fault of the map, in qubit order: a qubit
    unmapped, off the grid, on a magic vertex, or on a vertex an earlier
    qubit holds."""
    mapping = qmap.as_dict
    cell_id, magic = arch.cells.id_of.get, arch.magic
    cell: dict[str, int] = {}
    faults: list[str] = []
    seen_vertices: dict[Vertex, str] = {}
    for q in circuit.qubits:
        v = mapping.get(q)
        if v is None:
            faults.append(f"qubit {q!r} is unmapped")
            continue
        cell[q] = i = cell_id(v)
        if i is None:
            faults.append(f"qubit {q!r} mapped off-grid at {v}")
        elif v in magic:
            faults.append(f"qubit {q!r} mapped onto magic vertex {v}")
        if v in seen_vertices:
            faults.append(f"qubits {seen_vertices[v]!r} and {q!r} share vertex {v}")
        seen_vertices[v] = q
    return cell, faults


def free_mask(arch: Architecture, blocked) -> int:
    """The `shortest_legal_path` bitset of `arch` with the `blocked` vertices
    taken out; off-grid vertices in `blocked` are ignored."""
    cells = arch.cells
    cell_id = cells.id_of.get
    gone = 0
    for v in blocked:
        i = cell_id(v)
        if i is not None:
            gone |= 1 << i
    return cells.free & ~gone


def shortest_first(arch: Architecture, requests, free: int,
                   first_paths: dict) -> list[tuple[Gate, Path]]:
    """Route the request with the currently shortest legal path, consume its
    vertices, repeat until nothing is routable. Ties go to the lower gate
    index, then to the earlier request. Returns the routed subset with
    vertex-disjoint paths, in pick order.

    `requests` are `gate_requests` tuples, and `free` is a
    `shortest_legal_path` bitset (see `free_mask`). The step's consumed
    cells are one bitset, `used`. Requests wait in a heap keyed by (path
    length, gate index, position in `requests`) with their search result. A
    popped path whose cells miss `used` is picked, and its cells join
    `used`; one that meets them is searched again under ``free & ~used``
    and pushed back, or dropped when it has no path left. Consuming vertices
    only removes paths, and the search returns the first shortest path in
    its fixed expansion order, so a path that stays clear is the one a fresh
    search would return, and a stale key is a lower bound on its request's
    current key. The pick is therefore the minimum over the current paths,
    as if every pending request were searched again after every pick, while
    a request is searched again at most once per pop.

    `first_paths` maps a request's search key, (source id, sinks bitset),
    to the result of a search under `free` alone; missing entries are
    searched and stored. It is valid only across calls with the same
    bitset.
    """
    heap = []
    for position, r in enumerate(requests):
        key = r[1:]
        if key not in first_paths:
            first_paths[key] = shortest_legal_path(arch, free, *key)
        found = first_paths[key]
        if found is not None:
            heap.append((len(found[0]), r[0].index, position, found, r))
    heapify(heap)
    used = 0
    routed: list[tuple[Gate, Path]] = []
    while heap:
        _, index, position, found, r = heappop(heap)
        if not found[1] & used:
            used |= found[1]
            routed.append((r[0], found[0]))
        else:
            found = shortest_legal_path(arch, free & ~used, r[1], r[2], used)
            if found is not None:
                heappush(heap, (len(found[0]), index, position, found, r))
    return routed


def greedy_route(arch: Architecture, circuit: Circuit, qmap: QubitMap) -> GateRoute:
    """Layer-by-layer routing: repeat shortest-first inside each topological
    layer until the layer drains, never starting a layer before the previous
    one finishes.

    Every step starts from the same bitset, `free_mask(arch, mapped vertices)`
    (magic cells are never free), built once per route; so a request's
    first search in any step gives the same result, one dict per route
    keeps it, and each (source, sinks) pair is searched unobstructed at most
    once per route.

    Raises MappingError, through `gate_requests`, when the map does not
    place the circuit. Otherwise raises UnroutableGateError exactly when
    some gate has no legal path even with the grid to itself: a step picks
    its first path before it consumes a vertex, so it routes nothing, and
    raises naming a pending gate, only when no pending gate has such a
    path; a gate without one is never routed, so its layer ends in such a
    step.
    """
    requests = gate_requests(arch, circuit, qmap)
    free = free_mask(arch, qmap.vertices())
    first_paths: dict = {}
    time: dict[int, int] = {}
    space: dict[int, Path] = {}
    step = 0
    for layer in topological_layering(circuit):
        pending = [requests[i] for i in layer]
        while pending:
            step += 1
            routed = shortest_first(arch, pending, free, first_paths)
            if not routed:
                bad = pending[0][0]
                raise UnroutableGateError(
                    f"gate {bad.index} ({bad.kind.value} {' '.join(bad.qubits)}) has no legal path under this map"
                )
            done = {g.index for g, _ in routed}
            for g, path in routed:
                time[g.index] = step
                space[g.index] = path
            pending = [r for r in pending if r[0].index not in done]
    return GateRoute(step, time, space)


# ---------------------------------------------------------------------------
# Validator: the ground truth for any solution
# ---------------------------------------------------------------------------

class Rule(Enum):
    MAP_VALIDITY = "map-validity"
    DATA_PRESERVATION = "data-preservation"
    CNOT_ROUTING = "cnot-routing"
    T_ROUTING = "t-routing"
    LOGICAL_ORDER = "logical-order"
    DISJOINT_PATHS = "disjoint-paths"


@dataclass(frozen=True)
class Violation:
    rule: Rule
    gates: tuple[int, ...]
    detail: str

    def __str__(self):
        where = f" (gates {', '.join(map(str, self.gates))})" if self.gates else ""
        return f"{self.rule.value}{where}: {self.detail}"


def validate(arch: Architecture, circuit: Circuit, qmap: QubitMap, route: GateRoute) -> list[Violation]:
    """Check every rule of a valid solution; empty list means ok.

    The grid is read through `arch.cells` alone: a vertex is on the grid
    when it has a cell id, and two vertices are grid neighbors when their ids
    differ by ±1 (vertical) or ±stride (horizontal). Each path, and each
    step's paths together, are first checked with set and id operations;
    only a path or a step that fails goes to the code that words its
    violations, which reads the same ids, so the list is the same as if
    every path and step were worded. The logical order is checked, and
    worded, over the pairs of `circuit.dependencies`, the table the engines
    schedule from: gates adjacent on a qubit must run at rising steps.
    """
    out = [Violation(Rule.MAP_VALIDITY, (), d) for d in _placement(arch, circuit, qmap)[1]]
    if out:
        return out
    bad = out.append
    mapping = qmap.as_dict
    cell_id, stride = arch.cells.id_of.get, arch.cells.stride   # None off the grid

    magic = arch.magic
    protected = magic.union(qmap.vertices())
    # id differences of grid neighbors: vertical ±1, horizontal ±stride
    vertical, horizontal = (1, -1), (stride, -stride)
    hops = {*vertical, *horizontal}
    # plain dicts: a lookup through the read-only views is a method call
    time, space = dict(route.time), dict(route.space)
    cnot_kind = GateKind.CNOT

    for g in circuit.gates:
        step = time.get(g.index)
        path = space.get(g.index)
        if step is None or path is None:
            rule = Rule.CNOT_ROUTING if g.kind is cnot_kind else Rule.T_ROUTING
            bad(Violation(rule, (g.index,), "gate missing from the schedule"))
            continue
        if not 1 <= step <= route.steps:
            bad(Violation(Rule.LOGICAL_ORDER, (g.index,), f"step {step} outside 1..{route.steps}"))
        ids = list(map(cell_id, path))
        qs = g.qubits
        if not (len(ids) >= 3 and None not in ids and len(set(ids)) == len(ids)
                and ids[1] - ids[0] in vertical and ids[-1] - ids[-2] in horizontal
                and hops.issuperset(map(sub, ids[1:], ids))
                and path[0] == mapping[qs[0]]
                and (path[-1] == mapping[qs[1]] if g.kind is cnot_kind else path[-1] in magic)
                and protected.isdisjoint(path[1:-1])):
            out.extend(_path_violations(g, path, ids, vertical, horizontal, hops,
                                        mapping, magic, protected))

    indices = {g.index for g in circuit.gates}
    for idx in sorted((time.keys() | space.keys()) - indices):
        bad(Violation(Rule.LOGICAL_ORDER, (idx,), f"gate {idx} is scheduled but not in the circuit"))
    last = max(map(time.__getitem__, indices & time.keys()), default=0)
    if route.steps > last:
        bad(Violation(Rule.LOGICAL_ORDER, (), f"steps is {route.steps}, last used step is {last}"))
    elif route.steps < 0:
        bad(Violation(Rule.LOGICAL_ORDER, (), f"steps is {route.steps}, below 0"))

    for i, j in circuit.dependencies.pairs:
        ti, tj = time.get(i), time.get(j)
        if ti is not None and tj is not None and ti >= tj:
            bad(Violation(Rule.LOGICAL_ORDER, (i, j),
                          f"gate {j} depends on gate {i} but runs at step {tj} <= {ti}"))

    by_step: dict[int, list[int]] = {}
    for idx, step in time.items():
        by_step.setdefault(step, []).append(idx)
    for step, idxs in sorted(by_step.items()):
        paths = [space.get(idx, ()) for idx in idxs]
        if len(set(chain.from_iterable(paths))) != sum(map(len, paths)):
            out.extend(_shared_vertices(space, step, idxs))
    return out


def _path_violations(g: Gate, path: Path, ids: list, vertical, horizontal, hops,
                     mapping: dict, magic, protected) -> list[Violation]:
    """Every violation of one scheduled gate's path, read from its cell `ids`
    and `validate`'s neighbor id differences: its shape, then, when it is
    well formed (two or more distinct on-grid vertices, each a grid neighbor
    of the next), its ends and its interior. A path of fewer than 3 vertices
    reports only its length, but a well-formed 2-vertex path still has its
    ends checked."""
    cnot = g.kind is GateKind.CNOT
    details = []
    distinct = len(set(path)) == len(path)
    if not distinct:
        details.append("path revisits a vertex")
    connected = None not in ids and hops.issuperset(map(sub, ids[1:], ids))
    if None in ids:
        details.append(f"path vertex {path[ids.index(None)]} is off-grid")
    elif not connected:
        k = next(k for k, d in enumerate(map(sub, ids[1:], ids)) if d not in hops)
        details.append(f"{path[k]} and {path[k + 1]} are not grid neighbors")
    if len(path) < 3:
        details = [f"path has {len(path)} vertices, needs at least 3"]
    elif connected:
        if ids[1] - ids[0] not in vertical:
            details.append(f"first edge {path[0]}->{path[1]} is not vertical")
        if ids[-1] - ids[-2] not in horizontal:
            details.append(f"last edge {path[-2]}->{path[-1]} is not horizontal")
    well_formed = len(path) >= 2 and distinct and connected
    if well_formed:
        source = mapping[g.qubits[0]]
        if path[0] != source:
            details.append(f"path starts at {path[0]}, {'control' if cnot else 'operand'} is at {source}")
        if cnot and path[-1] != mapping[g.qubits[1]]:
            details.append(f"path ends at {path[-1]}, target is at {mapping[g.qubits[1]]}")
        if not cnot and path[-1] not in magic:
            details.append(f"path ends at {path[-1]}, not a magic vertex")
    rule = Rule.CNOT_ROUTING if cnot else Rule.T_ROUTING
    out = [Violation(rule, (g.index,), d) for d in details]
    if well_formed:
        out += [Violation(Rule.DATA_PRESERVATION, (g.index,), f"protected vertex {v} used as path interior")
                for v in path[1:-1] if v in protected]
    return out


def _shared_vertices(space, step: int, idxs: list[int]) -> list[Violation]:
    """One violation per repeat of a vertex among the paths of one step,
    naming the gate that claimed it first, in gate index order."""
    out = []
    claimed: dict[Vertex, int] = {}
    for idx in sorted(idxs):
        for v in space.get(idx, ()):
            if v in claimed:
                out.append(Violation(Rule.DISJOINT_PATHS, (claimed[v], idx),
                                     f"vertex {v} shared at step {step}"))
            else:
                claimed[v] = idx
    return out


# ---------------------------------------------------------------------------
# JSON form: {"steps": t, "gates": [{"index": i, "step": s, "path": [[a,b],...]}]}
# ---------------------------------------------------------------------------

def route_to_json(route: GateRoute) -> str:
    # json.dumps writes a tuple as an array, so paths go in as they are;
    # tuples of ints cannot hold a cycle, so the encoder tracks none
    gates = [{"index": i, "step": route.time[i], "path": route.space[i]} for i in sorted(route.time)]
    return json.dumps({"steps": route.steps, "gates": gates}, check_circular=False)


def route_from_json(text: str) -> GateRoute:
    data = json.loads(text)
    if not (isinstance(data, dict) and type(data.get("steps")) is int
            and isinstance(data.get("gates"), list)
            and all(_is_json_gate(g) for g in data["gates"])):
        raise RoutingError('expected {"steps": int, "gates": '
                           '[{"index": int, "step": int, "path": [[a, b], ...]}, ...]}')
    time = {g["index"]: g["step"] for g in data["gates"]}
    if len(time) != len(data["gates"]):
        raise RoutingError("a gate index is listed more than once")
    space = {g["index"]: tuple(tuple(v) for v in g["path"]) for g in data["gates"]}
    return GateRoute(data["steps"], time, space)


def _is_json_gate(entry) -> bool:
    return (isinstance(entry, dict) and type(entry.get("index")) is int
            and type(entry.get("step")) is int and isinstance(entry.get("path"), list)
            and all(is_json_vertex(v) for v in entry["path"]))
