"""Gate routing: legal paths, shortest-first disjoint routing, greedy schedule.

A legal route for a gate is a simple grid path that leaves the gate's start
vertex through a vertical edge and arrives at its end vertex through a
horizontal edge. CNOT paths run from the control's vertex to the target's
vertex; T paths run from the operand's vertex to any magic-state vertex.
Mapped and magic vertices may appear only as path endpoints, and paths that
share a time step must be vertex-disjoint, endpoints included.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from enum import Enum

from .architecture import Architecture, Vertex, is_json_vertex
from .circuit import Circuit, Gate, GateKind, consecutive_qubit_pairs, topological_layering
from .mapping import QubitMap

Path = tuple[Vertex, ...]


class RoutingError(ValueError):
    pass


class UnroutableGateError(RoutingError):
    """Some gate has no legal path even with the whole grid to itself."""


@dataclass(frozen=True)
class GateRoute:
    steps: int
    time: dict[int, int]     # gate index -> step, 1-based
    space: dict[int, Path]   # gate index -> path


# ---------------------------------------------------------------------------
# Shortest legal path
# ---------------------------------------------------------------------------

def shortest_legal_path(arch: Architecture, blocked: set, source: Vertex, sinks,
                        used=frozenset()) -> Path | None:
    """Minimum-length legal path from source to some sink, or None.

    `blocked` and `used` are sets of vertices unusable as path interiors:
    typically the mapped and magic vertices, and the vertices consumed
    earlier in the step. Sinks are endpoint candidates and must be entered
    through a horizontal edge; sinks in `used` are skipped. Only the first
    and last edges are orientation-constrained, so a plain BFS over interior
    vertices suffices; neighbor expansion is in sorted order to make the
    returned path deterministic.
    """
    adjacency = arch.adjacency
    sinks = frozenset(sinks)
    goal_of: dict[Vertex, Vertex] = {}
    for t in sorted(sinks):
        if t not in used:
            for w in adjacency[t]:
                if w[1] == t[1] and w not in goal_of:
                    goal_of[w] = t
    if not goal_of:
        return None

    magic = arch.magic
    parent: dict[Vertex, Vertex | None] = {}
    queue = deque()
    for u in adjacency[source]:
        if (u[0] == source[0] and u not in blocked and u not in used
                and u not in magic and u not in sinks):
            parent[u] = None
            queue.append(u)
    while queue:
        w = queue.popleft()
        if w in goal_of:
            hops = [w]
            while parent[hops[-1]] is not None:
                hops.append(parent[hops[-1]])
            return (source, *reversed(hops), goal_of[w])
        for x in adjacency[w]:
            if (x not in parent and x != source and x not in blocked and x not in used
                    and x not in magic and x not in sinks):
                parent[x] = w
                queue.append(x)
    return None


# ---------------------------------------------------------------------------
# Routing requests and shortest-first
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RouteRequest:
    gate: Gate
    source: Vertex
    sinks: frozenset[Vertex]


def request_for_gate(arch: Architecture, qmap: QubitMap, gate: Gate) -> RouteRequest:
    if gate.kind is GateKind.CNOT:
        return RouteRequest(gate, qmap[gate.control], frozenset([qmap[gate.target]]))
    return RouteRequest(gate, qmap[gate.operand], frozenset(arch.magic))


def shortest_first(arch: Architecture, requests, blocked: set) -> list[tuple[Gate, Path]]:
    """Route the request with the currently shortest legal path, consume its
    vertices, repeat until nothing is routable. Ties go to the lower gate
    index. Returns the routed subset with vertex-disjoint paths.

    Each request's path is searched again only when the last pick consumed
    one of its vertices. Consuming vertices only removes paths, and the
    search returns the first shortest path in its fixed expansion order, so
    a path that stays clear is still the one the search would return, and a
    request without a path never gets one.
    """
    remaining = sorted(requests, key=lambda r: r.gate.index)
    paths = [shortest_legal_path(arch, blocked, r.source, r.sinks) for r in remaining]
    used: set[Vertex] = set()
    routed: list[tuple[Gate, Path]] = []
    while True:
        best = None
        for i, path in enumerate(paths):
            if path is not None and (best is None or len(path) < len(paths[best])):
                best = i
        if best is None:
            break
        req, picked = remaining.pop(best), paths.pop(best)
        used.update(picked)
        routed.append((req.gate, picked))
        for i, path in enumerate(paths):
            if path is not None and not used.isdisjoint(path):
                r = remaining[i]
                paths[i] = shortest_legal_path(arch, blocked, r.source, r.sinks, used)
    return routed


def greedy_route(arch: Architecture, circuit: Circuit, qmap: QubitMap) -> GateRoute:
    """Layer-by-layer routing: repeat shortest-first inside each topological
    layer until the layer drains, never starting a layer before the previous
    one finishes."""
    mapped = set(qmap.vertices())
    base_blocked = mapped | set(arch.magic)
    time: dict[int, int] = {}
    space: dict[int, Path] = {}
    step = 0
    for layer in topological_layering(circuit).layers:
        pending = [request_for_gate(arch, qmap, circuit.gates[i]) for i in layer]
        while pending:
            step += 1
            routed = shortest_first(arch, pending, base_blocked)
            if not routed:
                bad = pending[0].gate
                raise UnroutableGateError(
                    f"gate {bad.index} ({bad.kind.value} {' '.join(bad.qubits)}) has no legal path under this map"
                )
            done = {g.index for g, _ in routed}
            for g, path in routed:
                time[g.index] = step
                space[g.index] = path
            pending = [r for r in pending if r.gate.index not in done]
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
    """Check every rule of a valid solution; empty list means ok."""
    out: list[Violation] = []
    bad = out.append

    seen_vertices: dict[Vertex, str] = {}
    mapping = qmap.as_dict
    for q in circuit.qubits:
        v = mapping.get(q)
        if v is None:
            bad(Violation(Rule.MAP_VALIDITY, (), f"qubit {q!r} is unmapped"))
            continue
        if not arch.in_bounds(v):
            bad(Violation(Rule.MAP_VALIDITY, (), f"qubit {q!r} mapped off-grid at {v}"))
        elif v in arch.magic:
            bad(Violation(Rule.MAP_VALIDITY, (), f"qubit {q!r} mapped onto magic vertex {v}"))
        if v in seen_vertices:
            bad(Violation(Rule.MAP_VALIDITY, (), f"qubits {seen_vertices[v]!r} and {q!r} share vertex {v}"))
        seen_vertices[v] = q
    if out:
        return out

    mapped = set(qmap.vertices())

    for g in circuit.gates:
        rule = Rule.CNOT_ROUTING if g.kind is GateKind.CNOT else Rule.T_ROUTING
        step = route.time.get(g.index)
        path = route.space.get(g.index)
        if step is None or path is None:
            bad(Violation(rule, (g.index,), "gate missing from the schedule"))
            continue
        if not 1 <= step <= route.steps:
            bad(Violation(Rule.LOGICAL_ORDER, (g.index,), f"step {step} outside 1..{route.steps}"))
        out.extend(_check_path_shape(arch, g, path, rule))
        if _path_well_formed(arch, path):
            if g.kind is GateKind.CNOT:
                if path[0] != qmap[g.control]:
                    bad(Violation(rule, (g.index,), f"path starts at {path[0]}, control is at {qmap[g.control]}"))
                if path[-1] != qmap[g.target]:
                    bad(Violation(rule, (g.index,), f"path ends at {path[-1]}, target is at {qmap[g.target]}"))
            else:
                if path[0] != qmap[g.operand]:
                    bad(Violation(rule, (g.index,), f"path starts at {path[0]}, operand is at {qmap[g.operand]}"))
                if path[-1] not in arch.magic:
                    bad(Violation(rule, (g.index,), f"path ends at {path[-1]}, not a magic vertex"))
            for v in path[1:-1]:
                if v in mapped or v in arch.magic:
                    bad(Violation(Rule.DATA_PRESERVATION, (g.index,),
                                  f"protected vertex {v} used as path interior"))

    indices = {g.index for g in circuit.gates}
    for idx in sorted((set(route.time) | set(route.space)) - indices):
        bad(Violation(Rule.LOGICAL_ORDER, (idx,), f"gate {idx} is scheduled but not in the circuit"))
    last = max((route.time[i] for i in indices if i in route.time), default=0)
    if route.steps > last:
        bad(Violation(Rule.LOGICAL_ORDER, (), f"steps is {route.steps}, last used step is {last}"))

    for i, j in consecutive_qubit_pairs(circuit):
        ti, tj = route.time.get(i), route.time.get(j)
        if ti is not None and tj is not None and ti >= tj:
            bad(Violation(Rule.LOGICAL_ORDER, (i, j),
                          f"gate {j} depends on gate {i} but runs at step {tj} <= {ti}"))

    by_step: dict[int, list[int]] = {}
    for idx, step in route.time.items():
        by_step.setdefault(step, []).append(idx)
    for step, idxs in sorted(by_step.items()):
        claimed: dict[Vertex, int] = {}
        for idx in sorted(idxs):
            for v in route.space.get(idx, ()):
                if v in claimed:
                    bad(Violation(Rule.DISJOINT_PATHS, (claimed[v], idx),
                                  f"vertex {v} shared at step {step}"))
                else:
                    claimed[v] = idx
    return out


def _path_well_formed(arch: Architecture, path: Path) -> bool:
    return (
        len(path) >= 2
        and len(set(path)) == len(path)
        and all(arch.in_bounds(v) for v in path)
        and all(abs(u[0] - v[0]) + abs(u[1] - v[1]) == 1 for u, v in zip(path, path[1:]))
    )


def _check_path_shape(arch: Architecture, g: Gate, path: Path, rule: Rule) -> list[Violation]:
    out = []
    if len(path) < 3:
        out.append(Violation(rule, (g.index,), f"path has {len(path)} vertices, needs at least 3"))
        return out
    if len(set(path)) != len(path):
        out.append(Violation(rule, (g.index,), "path revisits a vertex"))
    for v in path:
        if not arch.in_bounds(v):
            out.append(Violation(rule, (g.index,), f"path vertex {v} is off-grid"))
            return out
    for u, v in zip(path, path[1:]):
        if abs(u[0] - v[0]) + abs(u[1] - v[1]) != 1:
            out.append(Violation(rule, (g.index,), f"{u} and {v} are not grid neighbors"))
            return out
    first, second = path[0], path[1]
    if abs(first[1] - second[1]) != 1:
        out.append(Violation(rule, (g.index,), f"first edge {first}->{second} is not vertical"))
    last, before = path[-1], path[-2]
    if abs(last[0] - before[0]) != 1:
        out.append(Violation(rule, (g.index,), f"last edge {before}->{last} is not horizontal"))
    return out


# ---------------------------------------------------------------------------
# JSON form: {"steps": t, "gates": [{"index": i, "step": s, "path": [[a,b],...]}]}
# ---------------------------------------------------------------------------

def route_to_json(route: GateRoute) -> str:
    gates = [
        {"index": i, "step": route.time[i], "path": [list(v) for v in route.space[i]]}
        for i in sorted(route.time)
    ]
    return json.dumps({"steps": route.steps, "gates": gates})


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
