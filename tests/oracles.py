"""Reference implementations and brute-force oracles for the test suite.

There is one reference per algorithm: exhaustive enumeration, plain DFS/BFS
and a toy DPLL, and otherwise the plainest earlier version of the code it
checks, kept verbatim. Most of it shares no code path with the library.
These do, and say why in their section headers:

- `eager_*` reads `scmr.routing.shortest_legal_path` and `free_mask`, so a
  counter patched there counts its searches next to the heap router's;
- `probe_loop_solve_optimal` reads `encode`, `solve` and `decode` through
  `scmr.sat.solve`, so both step loops run the same probes;
- the encoders import `encode_amo` and `encode_eo` (checked on their own
  against projected model counts), and `VarTable` and `CnfInstance`;
- the struct-map reference imports `_distance_to_set`, which its rewrite
  left unchanged, and `_best_random` routes with the library's
  `greedy_route`, since it checks the trial loop, not the router;
- the circuit references build the library's `Gate` and `Circuit` values
  and raise its `ParseError`, so their results compare equal to the
  library's; like the library's, the interaction references return plain
  edge and chain tuples, no longer `InteractionGraph` and
  `InteractionChainSet` values.

None imports the library's dependency code: where a reference orders,
windows or layers gates itself (the encoders, the validator, the layered
routers, the step loop's depth), it reads this module's own walks, never
`Circuit.dependencies`; only the library code named above reads that table.
"""
from __future__ import annotations

import importlib
import itertools
import json
import random
import re
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from concurrent.futures import ProcessPoolExecutor
from heapq import heapify, heappop, heappush
from typing import NamedTuple

from scmr.architecture import Architecture, ArchitectureError, Vertex
from scmr.bench import (BenchError, EMPTY_FREE, FULL_BL, FULL_CENTER, FULL_FREE, FULL_TR, TILE, _offset,
                         cycle_time_limit, processor_unit_width)
from scmr.circuit import Circuit, Gate, GateKind, ParseError, cnot, tgate
from scmr.architecture import regular_locations as _regular_locations
from scmr.circuit import T_VERTEX
from scmr.mapping import MappingError, QubitMap, _distance_to_set, qubit_map
import scmr.routing as _routing
from scmr.routing import GateRoute, Path, Rule, UnroutableGateError, Violation, greedy_route
from scmr.sat.cardinality import encode_amo, encode_eo
from scmr.sat.cdcl import SolverTimeout, _luby
from scmr.sat.encoding import CnfInstance, VarTable


# ---------------------------------------------------------------------------
# The circuit layer as it was before its per-gate loops were made plain:
# the parser with a regex check per argument and `Gate.__init__` per gate,
# the dependency tables with a generator and `max(..., default=0)` per gate
# and the consecutive pairs from a generator of their own, each its own walk
# over the qubit timelines, and the interaction graph keyed by a frozenset
# per gate. Kept verbatim as the references the library must match circuit
# for circuit, and error for error (type, message, line and col), but for
# two changes of type: like the library's, `topological_layering` returns the
# tuple of layers itself, no longer wrapped in a one-field `Layering`, and
# `interaction_graph` the edge tuple, no longer an `InteractionGraph`. The
# library's `Circuit.dependencies` must match `gate_depths`, `gate_heights`
# and `consecutive_qubit_pairs` field for field.
# ---------------------------------------------------------------------------

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def circuit_from_gates(specs) -> Circuit:
    """Build a circuit from (kind, qubits) pairs, assigning source indices."""
    gates = []
    qubits: list[str] = []
    seen: set[str] = set()
    for i, (kind, qs) in enumerate(specs):
        gates.append(Gate(kind, tuple(qs), i))
        for q in qs:
            if q not in seen:
                seen.add(q)
                qubits.append(q)
    return Circuit(tuple(gates), tuple(qubits))


def parse_circuit(text: str, strict: bool = True) -> Circuit:
    """Parse circuit text; in lenient mode unknown one-qubit gates are dropped."""
    specs = []
    for line_no, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.split("#", 1)[0]
        col = 1
        for stmt in line.split(";"):
            tokens = stmt.split()
            if tokens:
                specs_or_none = _parse_statement(tokens, line_no, col + stmt.index(tokens[0]), strict)
                if specs_or_none is not None:
                    specs.append(specs_or_none)
            col += len(stmt) + 1
    return circuit_from_gates(specs)


def _parse_statement(tokens, line, col, strict):
    name = tokens[0].lower()
    args = tokens[1:]
    for a in args:
        if not _ID_RE.match(a):
            raise ParseError(f"bad qubit id {a!r}", line, col)
    if name == "cnot":
        if len(args) != 2:
            raise ParseError(f"cnot takes 2 qubits, got {len(args)}", line, col)
        if args[0] == args[1]:
            raise ParseError(f"cnot operands must be distinct, got {args[0]!r} twice", line, col)
        return (GateKind.CNOT, (args[0], args[1]))
    if name == "t":
        if len(args) != 1:
            raise ParseError(f"t takes 1 qubit, got {len(args)}", line, col)
        return (GateKind.T, (args[0],))
    if not strict and len(args) == 1:
        return None  # unsupported one-qubit gate, dropped in lenient mode
    raise ParseError(f"unknown gate {tokens[0]!r}", line, col)


def gate_depths(circuit: Circuit) -> list[int]:
    """1-based dependency depth per gate: 1 + max depth over earlier gates sharing a qubit."""
    depth_by_qubit: dict[str, int] = {}
    depths = []
    for g in circuit.gates:
        d = 1 + max((depth_by_qubit.get(q, 0) for q in g.qubits), default=0)
        depths.append(d)
        for q in g.qubits:
            depth_by_qubit[q] = d
    return depths


def gate_heights(circuit: Circuit) -> list[int]:
    """1-based height per gate: longest dependency chain starting at the gate."""
    height_by_qubit: dict[str, int] = {}
    heights = [0] * len(circuit.gates)
    for g in reversed(circuit.gates):
        h = 1 + max((height_by_qubit.get(q, 0) for q in g.qubits), default=0)
        heights[g.index] = h
        for q in g.qubits:
            height_by_qubit[q] = h
    return heights


def topological_layering(circuit: Circuit) -> tuple[tuple[int, ...], ...]:
    depths = gate_depths(circuit)
    d = max(depths, default=0)
    layers: list[list[int]] = [[] for _ in range(d)]
    for g in circuit.gates:
        layers[depths[g.index] - 1].append(g.index)
    return tuple(tuple(layer) for layer in layers)


def consecutive_qubit_pairs(circuit: Circuit):
    """Yield (i, j) for gates adjacent in some qubit's timeline, i < j.

    Ordering these pairs orders every pair of gates sharing a qubit.
    """
    last: dict[str, int] = {}
    for g in circuit.gates:
        for q in g.qubits:
            if q in last:
                yield (last[q], g.index)
            last[q] = g.index


def interaction_graph(circuit: Circuit) -> tuple:
    edges = []
    seen: set[frozenset] = set()
    for g in circuit.gates:
        if g.kind is GateKind.CNOT:
            e = (g.control, g.target)
        else:
            e = (T_VERTEX, g.operand)
        key = frozenset(e)
        if key not in seen:
            seen.add(key)
            edges.append(e)
    return tuple(edges)


# ---------------------------------------------------------------------------
# Tiny DPLL + projected model counting (for cardinality encodings)
# ---------------------------------------------------------------------------

def dpll_satisfiable(clauses) -> bool:
    clauses = [list(c) for c in clauses]
    assigned: dict[int, bool] = {}

    def simplify(cls, lit):
        out = []
        for c in cls:
            if lit in c:
                continue
            reduced = [l for l in c if l != -lit]
            if not reduced:
                return None
            out.append(reduced)
        return out

    def rec(cls):
        while True:
            units = [c[0] for c in cls if len(c) == 1]
            if not units:
                break
            cls = simplify(cls, units[0])
            if cls is None:
                return False
        if not cls:
            return True
        lit = cls[0][0]
        for choice in (lit, -lit):
            nxt = simplify(cls, choice)
            if nxt is not None and rec(nxt):
                return True
        return False

    return rec(clauses)


def count_projected_models(num_original: int, clauses) -> int:
    """Count assignments of vars 1..num_original extendable to full models."""
    count = 0
    for bits in itertools.product([False, True], repeat=num_original):
        units = [[v if bits[v - 1] else -v] for v in range(1, num_original + 1)]
        if dpll_satisfiable(list(clauses) + units):
            count += 1
    return count


# ---------------------------------------------------------------------------
# Grid adjacency by coordinate arithmetic, with the order and the off-grid
# error of the tuple methods `Architecture` had before its cell index became
# the grid's one adjacency source. The oracles below that walk the grid
# read these, so none of them shares adjacency code with the library.
# ---------------------------------------------------------------------------

def _check(arch: Architecture, v: Vertex):
    if not arch.in_bounds(v):
        raise ArchitectureError(f"vertex {v} outside {arch.cols}x{arch.rows} grid")


def horizontal_neighbors(arch: Architecture, v: Vertex) -> list[Vertex]:
    """(a - 1, b) then (a + 1, b), those on the grid."""
    _check(arch, v)
    a, b = v
    return [(c, b) for c in (a - 1, a + 1) if 1 <= c <= arch.cols]


def vertical_neighbors(arch: Architecture, v: Vertex) -> list[Vertex]:
    """(a, b - 1) then (a, b + 1), those on the grid."""
    _check(arch, v)
    a, b = v
    return [(a, d) for d in (b - 1, b + 1) if 1 <= d <= arch.rows]


def neighbors(arch: Architecture, v: Vertex) -> list[Vertex]:
    return horizontal_neighbors(arch, v) + vertical_neighbors(arch, v)


def edges(arch: Architecture):
    """Undirected grid edges as ordered pairs (u, v) with u < v."""
    for v in arch.vertices():
        a, b = v
        if a + 1 <= arch.cols:
            yield (v, (a + 1, b))
        if b + 1 <= arch.rows:
            yield (v, (a, b + 1))


def _directed_edges(arch: Architecture):
    for u, v in edges(arch):
        yield (u, v)
        yield (v, u)


# ---------------------------------------------------------------------------
# Legal-path oracles
# ---------------------------------------------------------------------------

def layered_shortest_length(arch: Architecture, blocked, source, sinks) -> int | None:
    """Shortest legal path length (vertex count) by BFS over states
    (vertex, last-edge-orientation)."""
    sinks = set(sinks)
    ok_interior = lambda v: v not in blocked and v not in arch.magic and v != source and v not in sinks
    dist: dict[tuple, int] = {}
    queue = deque()
    for u in vertical_neighbors(arch, source):
        if ok_interior(u):
            dist[(u, "v")] = 1
            queue.append((u, "v"))
    while queue:
        (w, _), d = queue[0], dist[queue[0]]
        queue.popleft()
        for t in sinks:
            if w in horizontal_neighbors(arch, t):
                return d + 2  # source + interior chain + sink
        for x in horizontal_neighbors(arch, w):
            if ok_interior(x) and (x, "h") not in dist:
                dist[(x, "h")] = d + 1
                queue.append((x, "h"))
        for x in vertical_neighbors(arch, w):
            if ok_interior(x) and (x, "v") not in dist:
                dist[(x, "v")] = d + 1
                queue.append((x, "v"))
    return None


def enumerate_legal_paths(arch: Architecture, blocked, source, sinks, cap: int = 10 ** 6):
    """All legal simple paths source->sink (first edge vertical, last edge
    horizontal, interiors clear of blocked/magic/endpoint vertices)."""
    sinks = set(sinks)
    ok_interior = lambda v: v not in blocked and v not in arch.magic and v != source and v not in sinks
    out = []
    stack = [(u, (source, u)) for u in vertical_neighbors(arch, source) if ok_interior(u)]
    while stack:
        v, path = stack.pop()
        for t in sinks:
            if t in horizontal_neighbors(arch, v):
                out.append(path + (t,))
                if len(out) >= cap:
                    return out
        for u in neighbors(arch, v):
            if ok_interior(u) and u not in path:
                stack.append((u, path + (u,)))
    return out


# ---------------------------------------------------------------------------
# Regular locations by the all-pairs check against every kept center
# ---------------------------------------------------------------------------

def regular_locations(arch: Architecture) -> tuple[Vertex, ...]:
    """Row-major greedy selection of 3x3-clear centers at pairwise L-inf >= 2."""
    kept: list[Vertex] = []
    for v in arch.vertices():
        a, b = v
        if a < 2 or a > arch.cols - 1 or b < 2 or b > arch.rows - 1:
            continue
        box = [(a + da, b + db) for da in (-1, 0, 1) for db in (-1, 0, 1)]
        if any(c in arch.magic for c in box):
            continue
        if all(max(abs(a - u[0]), abs(b - u[1])) >= 2 for u in kept):
            kept.append(v)
    return tuple(kept)


# ---------------------------------------------------------------------------
# Routing requests as they were before `routing.gate_requests`: one frozen
# dataclass per gate, built from `QubitMap.__getitem__`. Kept verbatim as the
# request shape the root router, the eager one below and the encoder
# references read, and as the reference the library's table must match once
# its vertices are converted to cell ids.
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


# ---------------------------------------------------------------------------
# Greedy routing as it was before the adjacency table and lazy re-search:
# one BFS per pending request per pick, neighbors rebuilt on every expansion.
# Kept verbatim as the root router reference: the bitset search must match
# `shortest_legal_path` path for path, the router must match
# `layered_greedy_route` byte for byte, and the searches it makes, counted
# through this module's `shortest_legal_path`, are the naive search-count
# baseline. The one edit: `arch.neighbors(v)` and its horizontal/vertical
# forms read `neighbors(arch, v)` and so on, the helpers above, in the same
# order. `layered_greedy_route`, the layer loop of both reference routers,
# is the router's own loop, moved out of it.
# ---------------------------------------------------------------------------

def shortest_legal_path(arch: Architecture, blocked: set, source: Vertex, sinks) -> Path | None:
    """Minimum-length legal path from source to some sink, or None.

    `blocked` is the set of vertices unusable as path interiors (mapped
    vertices, magic vertices, and anything consumed earlier in the step).
    Sinks are endpoint candidates and must be entered through a horizontal
    edge; they are used as given, so callers exclude consumed sinks. Only
    the first and last edges are orientation-constrained, so a plain BFS over
    interior vertices suffices; neighbor expansion is in sorted order to make
    the returned path deterministic.
    """
    sinks = set(sinks)
    if not sinks:
        return None
    goal_of: dict[Vertex, Vertex] = {}
    for t in sorted(sinks):
        for w in horizontal_neighbors(arch, t):
            if w not in goal_of:
                goal_of[w] = t

    usable = lambda v: v not in blocked and v not in arch.magic and v != source and v not in sinks
    parent: dict[Vertex, Vertex | None] = {}
    queue = deque()
    for u in sorted(vertical_neighbors(arch, source)):
        if usable(u):
            parent[u] = None
            queue.append(u)
    while queue:
        w = queue.popleft()
        if w in goal_of:
            hops = [w]
            while parent[hops[-1]] is not None:
                hops.append(parent[hops[-1]])
            return (source, *reversed(hops), goal_of[w])
        for x in sorted(neighbors(arch, w)):
            if x not in parent and usable(x):
                parent[x] = w
                queue.append(x)
    return None


def shortest_first(arch: Architecture, requests, blocked: set) -> list[tuple[Gate, Path]]:
    """Route the request with the currently shortest legal path, consume its
    vertices, repeat until nothing is routable. Ties go to the lower gate
    index. Returns the routed subset with vertex-disjoint paths."""
    remaining = sorted(requests, key=lambda r: r.gate.index)
    used: set[Vertex] = set()
    routed: list[tuple[Gate, Path]] = []
    while remaining:
        best = None
        for req in remaining:
            path = shortest_legal_path(arch, blocked | used, req.source, req.sinks - used)
            if path is not None and (best is None or len(path) < len(best[1])):
                best = (req, path)
        if best is None:
            break
        req, path = best
        used.update(path)
        routed.append((req.gate, path))
        remaining.remove(req)
    return routed


def layered_greedy_route(arch: Architecture, circuit: Circuit, qmap: QubitMap,
                         shortest_first=shortest_first) -> GateRoute:
    """Layer-by-layer routing: repeat `shortest_first` inside each topological
    layer until the layer drains, never starting a layer before the previous
    one finishes. Every pass starts from the mapped and magic vertices
    blocked."""
    mapped = set(qmap.vertices())
    base_blocked = mapped | set(arch.magic)
    time: dict[int, int] = {}
    space: dict[int, Path] = {}
    step = 0
    for layer in topological_layering(circuit):
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
# Shortest-first as it was before the heap: one scan of every pending path
# per pick, and every pending path the pick touched searched again at once.
# Kept verbatim (renamed `eager_*`, with `free_mask` and
# `shortest_legal_path` read through the `scmr.routing` module, so a counter
# patched there sees this copy's searches too) as the reference the heap
# router must match pick for pick, and as its search-count baseline. Four
# later edits: since the free mask became an `int` bitset, the line that takes
# a picked vertex out of it clears its bit instead of zeroing a byte; the
# layer loop is `layered_greedy_route`'s; since the search takes `used`
# as a cell bitset and returns `(path, cells)`, that line also sets the
# vertex's bit in `taken`, the searches get `taken` and their paths are read
# as `[0]` (`first_paths` keeps the whole results, as the library's does);
# and since the search takes the source's cell id and the sinks' bitset,
# each request's pair is converted to those once, and `first_paths` is keyed
# by them, as the library's is.
# ---------------------------------------------------------------------------

def eager_shortest_first(arch: Architecture, requests, blocked: set,
                         first_paths: dict | None = None) -> list[tuple[Gate, Path]]:
    """Route the request with the currently shortest legal path, consume its
    vertices, repeat until nothing is routable. Ties go to the lower gate
    index. Returns the routed subset with vertex-disjoint paths.

    `blocked` (vertices never usable as interiors) becomes one `free` mask
    per call, and each picked path's cells are zeroed in it. Each request's
    path is searched again only when the last pick consumed one of its
    vertices. Consuming vertices only removes paths, and the search returns
    the first shortest path in its fixed expansion order, so a path that
    stays clear is still the one the search would return, and a request
    without a path never gets one.

    `first_paths`, when given, maps (source id, sinks bitset) to the result
    of a search under `blocked` alone; missing entries are searched and
    stored. It is valid only across calls with the same `blocked`.
    """
    free = _routing.free_mask(arch, blocked)
    remaining = sorted(requests, key=lambda r: r.gate.index)
    if first_paths is None:
        first_paths = {}
    id_of = arch.cells.id_of
    keys = [(id_of[r.source], sum(1 << id_of[t] for t in r.sinks)) for r in remaining]
    paths = []
    for key in keys:
        if key not in first_paths:
            first_paths[key] = _routing.shortest_legal_path(arch, free, *key)
        found = first_paths[key]
        paths.append(found and found[0])
    used: set[Vertex] = set()
    taken = 0
    routed: list[tuple[Gate, Path]] = []
    while True:
        best = None
        for i, path in enumerate(paths):
            if path is not None and (best is None or len(path) < len(paths[best])):
                best = i
        if best is None:
            break
        req, picked = remaining.pop(best), paths.pop(best)
        del keys[best]
        used.update(picked)
        for v in picked:
            free &= ~(1 << id_of[v])
            taken |= 1 << id_of[v]
        routed.append((req.gate, picked))
        for i, path in enumerate(paths):
            if path is not None and not used.isdisjoint(path):
                found = _routing.shortest_legal_path(arch, free, *keys[i], taken)
                paths[i] = found and found[0]
    return routed


def eager_greedy_route(arch: Architecture, circuit: Circuit, qmap: QubitMap) -> GateRoute:
    """`layered_greedy_route` over `eager_shortest_first`.

    Every step starts from the same blocking (mapped and magic vertices), so
    a request's first search in any step gives the same path; one dict per
    route keeps it, and each (source, sinks) pair is searched unobstructed
    at most once per route.
    """
    return layered_greedy_route(arch, circuit, qmap,
                                partial(eager_shortest_first, first_paths={}))


# ---------------------------------------------------------------------------
# The route serializer as it was before paths went to `json.dumps` as tuples.
# Kept verbatim (renamed) as the reference for byte-identical output.
# ---------------------------------------------------------------------------

def list_route_to_json(route: GateRoute) -> str:
    gates = [
        {"index": i, "step": route.time[i], "path": [list(v) for v in route.space[i]]}
        for i in sorted(route.time)
    ]
    return json.dumps({"steps": route.steps, "gates": gates})


# ---------------------------------------------------------------------------
# The validator as it was before `_check_path_shape` also told whether a path
# is well formed: every path walked twice, and a negative `steps` accepted
# when no gate is scheduled. Kept verbatim as the reference whose violation
# lists, order included, the one-walk validator must reproduce.
# ---------------------------------------------------------------------------

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
# Best-of-N random maps as `scmr compile` ran it before it called
# mapping.best_of_n: its own seed stream, tie-break and greedy-only pool; its
# maps come from this module's `random_map` reference below, so the library's
# draws are checked against code they do not share
# ---------------------------------------------------------------------------

def _greedy_trial(payload):
    arch, circuit, seed, index = payload
    qmap = random_map(arch, circuit, seed)
    route = greedy_route(arch, circuit, qmap)
    return route.steps, index, qmap, route


def _best_random(arch, circuit, n, seed, router_fn, jobs=1):
    import random as _random
    master = _random.Random(seed)
    trial_seeds = [master.randrange(2 ** 62) for _ in range(n)]
    if jobs > 1 and router_fn is greedy_route:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_greedy_trial,
                                    [(arch, circuit, s, i) for i, s in enumerate(trial_seeds)]))
        best = min(results, key=lambda r: (r[0], r[1]))
        return best[2], best[3], False
    best = None
    proven = True
    for i, s in enumerate(trial_seeds):
        qmap = random_map(arch, circuit, s)
        if router_fn is greedy_route:
            route = greedy_route(arch, circuit, qmap)
            trial_proven = False
        else:
            res = router_fn(arch, circuit, qmap)
            route, trial_proven = res.route, res.proven_minimal
        if best is None or route.steps < best[1].steps:
            best = (qmap, route, trial_proven)
    return best


# ---------------------------------------------------------------------------
# The interaction chain builder as it was before it kept one map from chain
# ends to chains: a qubit-to-chain-index map relabelled on every merge, a
# parallel has-T list and an endpoint-side helper. Kept verbatim as the
# reference the rewrite must match chain for chain, in order and orientation,
# but for one change of type: like the library's, it takes the qubits and the
# edge tuple and returns the chain tuple, no longer an `InteractionGraph` in
# and an `InteractionChainSet` out.
# ---------------------------------------------------------------------------

def interaction_chain_set(qubits, edges) -> tuple:
    """Greedy single pass over edges: add an edge iff the result is still a
    disjoint set of paths with at most one T_VERTEX edge per path."""
    chains: list[list] = []
    chain_of: dict[str, int] = {}  # qubit -> chain idx
    has_t: list[bool] = []

    def endpoint_side(q):
        c = chains[chain_of[q]]
        if c[0] == q:
            return 0
        if c[-1] == q:
            return -1
        return None

    for x, y in edges:
        if x is T_VERTEX or y is T_VERTEX:
            q = y if x is T_VERTEX else x
            if q not in chain_of:
                chains.append([q, T_VERTEX])
                chain_of[q] = len(chains) - 1
                has_t.append(True)
            else:
                ci = chain_of[q]
                side = endpoint_side(q)
                if side is None or has_t[ci]:
                    continue
                if side == 0:
                    chains[ci].insert(0, T_VERTEX)
                else:
                    chains[ci].append(T_VERTEX)
                has_t[ci] = True
            continue

        a, b = x, y
        in_a, in_b = a in chain_of, b in chain_of
        if not in_a and not in_b:
            chains.append([a, b])
            chain_of[a] = chain_of[b] = len(chains) - 1
            has_t.append(False)
        elif in_a != in_b:
            q_old, q_new = (a, b) if in_a else (b, a)
            ci = chain_of[q_old]
            side = endpoint_side(q_old)
            if side is None:
                continue
            if side == 0:
                chains[ci].insert(0, q_new)
            else:
                chains[ci].append(q_new)
            chain_of[q_new] = ci
        else:
            ca, cb = chain_of[a], chain_of[b]
            if ca == cb or has_t[ca] and has_t[cb]:
                continue
            sa, sb = endpoint_side(a), endpoint_side(b)
            if sa is None or sb is None:
                continue
            left = chains[ca] if sa == -1 else list(reversed(chains[ca]))
            right = chains[cb] if sb == 0 else list(reversed(chains[cb]))
            merged = left + right
            chains[ca] = merged
            chains[cb] = []
            has_t[ca] = has_t[ca] or has_t[cb]
            for v in merged:
                if v is not T_VERTEX:
                    chain_of[v] = ca

    out = [tuple(c) for c in chains if c]
    for q in qubits:
        if q is not T_VERTEX and q not in chain_of:
            out.append((q,))
    return tuple(out)


# ---------------------------------------------------------------------------
# The structural mapper as it was before it became one ordered take over
# three candidate orders: a row-major pointer, per-distance buckets with one
# pointer each, and the stride-2 ring. Kept verbatim as the reference the
# rewrite must match map for map and error for error; `_distance_to_set` is
# the library's own, unchanged by it, `_STRIDE2` is its offset order of the
# time, and the chains come from the `interaction_graph` and
# `interaction_chain_set` references in this file, so the whole old mapper
# path is compared with the new one. Two edits: the default locations come from
# the library's `regular_locations`, imported as `_regular_locations`, since
# this module's own `regular_locations` is the all-pairs reference above, and
# the chains are read from the plain tuples the chain references take and give.
# The library's mappers take no `locations` and draw only from the regular
# locations; tests that map onto another set (every non-magic vertex, or a
# handful of cells) call this reference and the random-map one below.
# ---------------------------------------------------------------------------

_STRIDE2 = ((-2, 0), (2, 0), (0, -2), (0, 2), (-1, -1), (-1, 1), (1, -1), (1, 1))


def _candidates(arch: Architecture, locations) -> list[Vertex]:
    locs = list(_regular_locations(arch) if locations is None else locations)
    bad = [v for v in locs if v in arch.magic or not arch.in_bounds(v)]
    if bad:
        raise MappingError(f"candidate locations include magic/off-grid vertices: {bad}")
    return locs


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

    for chain in interaction_chain_set(circuit.qubits, interaction_graph(circuit)):
        place_chain(chain)
    return qubit_map(assignment)


# ---------------------------------------------------------------------------
# The random mapper and the free-cell list as they were while the library's
# mappers took a `locations` set, kept verbatim (the candidate check renamed
# from `_candidates`, which names the struct reference's own above): a seeded
# `random_map` over any caller-supplied set, checked for shape, magic or
# off-grid vertices and repeats, and every non-magic vertex in grid order.
# ---------------------------------------------------------------------------

def unrestricted_locations(arch: Architecture) -> tuple[Vertex, ...]:
    return tuple(v for v in arch.vertices() if v not in arch.magic)


def _random_candidates(arch: Architecture, locations, num_qubits: int) -> list[Vertex]:
    locs = list(_regular_locations(arch) if locations is None else locations)
    if locations is not None:   # the regular locations are well formed by construction
        malformed = [v for v in locs if not (isinstance(v, tuple) and len(v) == 2
                                             and all(type(x) is int for x in v))]
        if malformed:
            raise MappingError(f"candidate locations must be (int, int) tuples: {malformed}")
        bad = [v for v in locs if v in arch.magic or not arch.in_bounds(v)]
        if bad:
            raise MappingError(f"candidate locations include magic/off-grid vertices: {bad}")
        if len(set(locs)) < len(locs):
            repeated = sorted({v for v in locs if locs.count(v) > 1})
            raise MappingError(f"candidate locations repeat vertices: {repeated}")
    if len(locs) < num_qubits:
        raise MappingError(f"{len(locs)} locations for {num_qubits} qubits")
    return locs


def random_map(arch: Architecture, circuit: Circuit, seed: int, locations=None) -> QubitMap:
    """Uniformly random injective assignment of qubits onto candidate locations."""
    locs = _random_candidates(arch, locations, circuit.num_qubits)
    picks = random.Random(seed).sample(locs, circuit.num_qubits)
    return qubit_map(dict(zip(circuit.qubits, picks)))


# ---------------------------------------------------------------------------
# Exhaustive mapping-and-routing optimum
# ---------------------------------------------------------------------------

def _gate_endpoints(arch, gate, mapping):
    if gate.kind is GateKind.CNOT:
        return mapping[gate.control], {mapping[gate.target]}
    return mapping[gate.operand], set(arch.magic)


def _step_routing(arch, gates, paths_by_gate):
    """Backtracking search for pairwise vertex-disjoint path choices;
    returns {gate: path} or None."""
    gates = sorted(gates, key=lambda g: len(paths_by_gate[g]))

    def rec(i, used, chosen):
        if i == len(gates):
            return dict(chosen)
        for path in paths_by_gate[gates[i]]:
            vs = set(path)
            if vs & used:
                continue
            chosen[gates[i]] = path
            got = rec(i + 1, used | vs, chosen)
            if got is not None:
                return got
            del chosen[gates[i]]
        return None

    return rec(0, set(), {})


def brute_force_optimum(arch: Architecture, circuit: Circuit, t_cap: int):
    """Smallest step count in [depth, t_cap] with a witness, by exhausting
    injective maps, order-respecting schedules, and per-step disjoint path
    sets. Returns (t, mapping, time, space) or None."""
    if not circuit.gates:
        return 0, {}, {}, {}
    free = [v for v in arch.vertices() if v not in arch.magic]
    if len(free) < circuit.num_qubits:
        return None
    depths = gate_depths(circuit)
    heights = gate_heights(circuit)
    d = max(depths)
    qubits = list(circuit.qubits)

    prev_on_qubit: dict[int, list[int]] = {g.index: [] for g in circuit.gates}
    last: dict[str, int] = {}
    for g in circuit.gates:
        for q in g.qubits:
            if q in last:
                prev_on_qubit[g.index].append(last[q])
            last[q] = g.index

    for t in range(d, t_cap + 1):
        for placement in itertools.permutations(free, len(qubits)):
            mapping = dict(zip(qubits, placement))
            blocked = set(mapping.values())
            paths_by_gate = {}
            feasible = True
            for g in circuit.gates:
                src, snk = _gate_endpoints(arch, g, mapping)
                paths = enumerate_legal_paths(arch, blocked, src, snk)
                if not paths:
                    feasible = False
                    break
                paths_by_gate[g.index] = paths
            if not feasible:
                continue

            def schedules(i, assign):
                if i == len(circuit.gates):
                    yield dict(assign)
                    return
                lo = max([depths[i]] + [assign[p] + 1 for p in prev_on_qubit[i]])
                hi = t - heights[i] + 1
                for step in range(lo, hi + 1):
                    assign[i] = step
                    yield from schedules(i + 1, assign)
                    del assign[i]

            for sched in schedules(0, {}):
                by_step: dict[int, list[int]] = {}
                for gi, step in sched.items():
                    by_step.setdefault(step, []).append(gi)
                space: dict[int, tuple] = {}
                for gs in by_step.values():
                    routing = _step_routing(arch, gs, paths_by_gate)
                    if routing is None:
                        space = None
                        break
                    space.update(routing)
                if space is not None:
                    return t, mapping, dict(sched), space
    return None


# ---------------------------------------------------------------------------
# Node-disjoint paths on small grids
# ---------------------------------------------------------------------------

def ndp_feasible(dims, pairs) -> bool:
    gw, gh = dims

    def nbrs(v):
        x, y = v
        return [u for u in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1))
                if 1 <= u[0] <= gw and 1 <= u[1] <= gh]

    endpoints = {v for pair in pairs for v in pair}

    def attempt(i, used):
        if i == len(pairs):
            return True
        s, t = pairs[i]
        stack = [(s, frozenset([s]))]
        while stack:
            v, path = stack.pop()
            if v == t:
                if attempt(i + 1, used | path):
                    return True
                continue
            for u in nbrs(v):
                if u in path or u in used or (u != t and u in endpoints):
                    continue
                stack.append((u, path | {u}))
        return False

    return attempt(0, frozenset())


# ---------------------------------------------------------------------------
# Labeled posets (for the dependency-circuit property)
# ---------------------------------------------------------------------------

def transitive_closure(pairs, elems):
    rel = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return frozenset(rel)


def all_labeled_posets(n: int):
    """Every strict partial order on elements 0..n-1, as a closure set."""
    base_pairs = list(itertools.combinations(range(n), 2))
    seen = set()
    for mask in range(1 << len(base_pairs)):
        edges = {base_pairs[i] for i in range(len(base_pairs)) if mask >> i & 1}
        closure = transitive_closure(edges, range(n))
        for perm in itertools.permutations(range(n)):
            rel = frozenset((perm[a], perm[b]) for a, b in closure)
            if rel not in seen:
                seen.add(rel)
                yield rel


def hasse_edges(closure) -> list[tuple]:
    return sorted(
        (a, b) for a, b in closure
        if not any((a, c) in closure and (c, b) in closure for c in {x for p in closure for x in p})
    )


# ---------------------------------------------------------------------------
# The encoder as it was before the pinned map was folded into the encoding:
# every map literal emitted and every gate given a path variable on every
# directed edge. The first of three encoder references, each for a different
# property: the encoder's formula must keep this one's verdicts, and the
# step loop over it its steps and proofs. There are three edits: the
# neighbor calls read the helpers at the top of this module
# (`arch.neighbors(v)` as `neighbors(arch, v)` and so on, same order),
# `_directed_edges` and `exec_windows` are this module's own, and the
# write-only `VarTable.num_total` is no longer set.
# ---------------------------------------------------------------------------

def exec_windows(circuit: Circuit, t_s: int, prune: bool = True) -> list[range]:
    if not prune:
        return [range(1, t_s + 1)] * len(circuit.gates)
    depths = gate_depths(circuit)
    heights = gate_heights(circuit)
    return [range(depths[i], t_s - heights[i] + 2) for i in range(len(circuit.gates))]


def encode(arch: Architecture, circuit: Circuit, qmap: QubitMap | None = None,
           t_s: int = 1, prune: bool = True) -> CnfInstance:
    """Build the decision formula for `t_s` steps; fix the map if one is given."""
    if t_s < 1:
        raise ValueError("need at least one time step")
    table = VarTable()
    free_vertices = [v for v in arch.vertices() if v not in arch.magic]
    if circuit.num_qubits > len(free_vertices):
        return CnfInstance(
            1, [[]], table, t_s,
            diagnostic=f"{circuit.num_qubits} qubits exceed {len(free_vertices)} non-magic vertices",
        )

    windows = exec_windows(circuit, t_s, prune=prune)
    counter = 0

    def fresh() -> int:
        nonlocal counter
        counter += 1
        return counter

    for q in circuit.qubits:
        for v in free_vertices:
            table.map_ids[(q, v)] = fresh()
    for g in circuit.gates:
        for t in windows[g.index]:
            table.exec_ids[(g.index, t)] = fresh()
    for u, v in _directed_edges(arch):
        for g in circuit.gates:
            for t in windows[g.index]:
                table.path_ids[(u, v, g.index, t)] = fresh()
    table.num_named = counter

    mvar = table.map_ids
    evar = table.exec_ids
    pvar = table.path_ids
    clauses: list[list[int]] = []
    add = clauses.append

    # mapping: total injective function avoiding magic vertices
    for q in circuit.qubits:
        clauses.extend(encode_eo([mvar[(q, v)] for v in free_vertices], fresh))
    for v in free_vertices:
        clauses.extend(encode_amo([mvar[(q, v)] for q in circuit.qubits], fresh))
    if qmap is not None:
        pinned = qmap.as_dict
        for q in circuit.qubits:
            if q not in pinned:
                raise ValueError(f"fixed map does not place qubit {q!r}")
            if (q, pinned[q]) not in mvar:
                raise ValueError(f"qubit {q!r} pinned to {pinned[q]}, which is magic or off-grid")
            add([mvar[(q, pinned[q])]])

    # schedule: one step per gate, dependent gates strictly ordered
    for g in circuit.gates:
        clauses.extend(encode_eo([evar[(g.index, t)] for t in windows[g.index]], fresh))
    for i, j in consecutive_qubit_pairs(circuit):
        for t in windows[i]:
            for t2 in windows[j]:
                if t2 <= t:
                    add([-evar[(i, t)], -evar[(j, t2)]])

    # routed edges keep clear of stored data
    neigh = {v: neighbors(arch, v) for v in arch.vertices()}
    for v in arch.vertices():
        pairs = [(u, w) for u in neigh[v] for w in neigh[v]]
        for g in circuit.gates:
            for t in windows[g.index]:
                for u, w in pairs:
                    into = pvar[(u, v, g.index, t)]
                    out_of = pvar[(v, w, g.index, t)]
                    if v in arch.magic:
                        add([-into, -out_of])
                    else:
                        for q in circuit.qubits:
                            add([-mvar[(q, v)], -into, -out_of])

    # vertex-disjointness: in/out degree at most one per vertex and step
    for t in range(1, t_s + 1):
        for u in arch.vertices():
            outgoing = [pvar[(u, w, g.index, t)] for g in circuit.gates if t in windows[g.index]
                        for w in neigh[u]]
            incoming = [pvar[(w, u, g.index, t)] for g in circuit.gates if t in windows[g.index]
                        for w in neigh[u]]
            clauses.extend(encode_amo(outgoing, fresh))
            clauses.extend(encode_amo(incoming, fresh))

    # path construction per gate kind
    for g in circuit.gates:
        if g.kind is GateKind.CNOT:
            start_q, end_q = g.control, g.target
        else:
            start_q, end_q = g.operand, None
        for t in windows[g.index]:
            e = evar[(g.index, t)]
            for v in free_vertices:
                # leave the start vertex through a vertical edge
                vertical = [pvar[(v, u, g.index, t)] for u in vertical_neighbors(arch, v)]
                add([-mvar[(start_q, v)], -e] + vertical)
                if end_q is not None:
                    horizontal = [pvar[(u, v, g.index, t)] for u in horizontal_neighbors(arch, v)]
                    add([-mvar[(end_q, v)], -e] + horizontal)
            # every used edge chains back toward the start vertex
            for u, v in _directed_edges(arch):
                back = [pvar[(w, u, g.index, t)] for w in neigh[u] if w != v]
                head = [mvar[(start_q, u)]] if u not in arch.magic else []
                add([-pvar[(u, v, g.index, t)]] + back + head)
            if end_q is None:
                # T gates end by entering some magic vertex horizontally
                entries = [pvar[(u, v, g.index, t)] for v in sorted(arch.magic)
                           for u in horizontal_neighbors(arch, v)]
                add([-e] + entries)
                clauses.extend(encode_amo(entries, fresh))

    return CnfInstance(counter, clauses, table, t_s)


# ---------------------------------------------------------------------------
# The CDCL solver as it was before one-pass clause intake and literal-indexed
# watch lists: every clause sorted and deduplicated by `_add_clause`, watch
# lists in a dict keyed by literal, the model checked through a set. Kept
# verbatim (renamed from `CdclSolver`) as the one solver reference, which the
# library solver must match state for state: clauses, trail, watch lists,
# learned clauses, activities, models and error texts. Its `_add_clause`
# range-checks literals as the library solver's does.
# ---------------------------------------------------------------------------

class DictWatchCdclSolver:
    def __init__(self, num_vars: int, clauses):
        self.n = num_vars
        # indexed by literal: vals[v] and vals[-v] (from the end) are 1 true,
        # -1 false, 0 unassigned
        self.vals = [0] * (2 * num_vars + 1)
        self.level = [0] * (num_vars + 1)
        self.reason: list = [None] * (num_vars + 1)
        self.saved_phase = bytearray(num_vars + 1)
        self.activity = [0.0] * (num_vars + 1)
        self.var_inc = 1.0
        self.heap: list[tuple[float, int]] = [(0.0, v) for v in range(1, num_vars + 1)]
        # queued[v]: the heap holds the entry with v's current activity
        self.queued = bytearray(b"\x01" * (num_vars + 1))
        self.clauses: list[list[int]] = []
        self.watches: dict[int, list[list[int]]] = {}
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.ok = True
        self._seen = bytearray(num_vars + 1)
        for c in clauses:
            if not self._add_clause(c):
                self.ok = False
                break

    # -- clause management ---------------------------------------------------

    def _add_clause(self, lits) -> bool:
        lits = sorted(set(lits), key=abs)
        if lits and (lits[0] == 0 or abs(lits[-1]) > self.n):
            bad = lits[0] if lits[0] == 0 else lits[-1]
            raise ValueError(f"literal {bad} out of range 1..{self.n}")
        if any(-l in lits for l in lits):
            return True  # tautology
        vals = self.vals
        out = []
        for l in lits:
            val = vals[l]
            if val == 1:
                return True  # satisfied at root
            if val == 0:
                out.append(l)
        if not out:
            return False
        if len(out) == 1:
            return self._enqueue(out[0], None) and self._propagate() is None
        self.clauses.append(out)
        self.watches.setdefault(out[0], []).append(out)
        self.watches.setdefault(out[1], []).append(out)
        return True

    # -- assignment ----------------------------------------------------------

    def _enqueue(self, lit: int, reason) -> bool:
        val = self.vals[lit]
        if val:
            return val == 1
        self.vals[lit] = 1
        self.vals[-lit] = -1
        v = lit if lit > 0 else -lit
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)
        return True

    def _propagate(self):
        """Unit propagation; returns a conflicting clause or None."""
        vals = self.vals
        watches = self.watches
        trail = self.trail
        level = self.level
        reason = self.reason
        cur_level = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            watchers = watches.get(false_lit)
            if not watchers:
                continue
            keep = []
            i = 0
            n_w = len(watchers)
            while i < n_w:
                clause = watchers[i]
                i += 1
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                val = vals[first]
                if val == 1:
                    keep.append(clause)
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if vals[other] != -1:
                        clause[1], clause[k] = other, false_lit
                        watches.setdefault(other, []).append(clause)
                        break
                else:
                    keep.append(clause)
                    if val == -1:
                        keep.extend(watchers[i:])
                        watches[false_lit] = keep
                        self.qhead = qhead
                        return clause
                    vals[first] = 1
                    vals[-first] = -1
                    v = first if first > 0 else -first
                    level[v] = cur_level
                    reason[v] = clause
                    trail.append(first)
            watches[false_lit] = keep
        self.qhead = qhead
        return None

    # -- learning ------------------------------------------------------------

    def _bump(self, v: int):
        act = self.activity[v] + self.var_inc
        self.activity[v] = act
        heappush(self.heap, (-act, v))
        self.queued[v] = 1
        if act > 1e100:
            for u in range(1, self.n + 1):
                self.activity[u] *= 1e-100
            self.var_inc *= 1e-100
            vals = self.vals
            self.heap = [(-self.activity[u], u) for u in range(1, self.n + 1) if not vals[u]]
            heapify(self.heap)
            self.queued = bytearray(0 if vals[u] else 1 for u in range(self.n + 1))

    def _analyze(self, conflict):
        learnt = [0]  # slot for the asserting literal
        seen = self._seen
        counter = 0
        lit = 0
        reason = conflict
        idx = len(self.trail) - 1
        cur_level = len(self.trail_lim)
        touched = []
        while True:
            for q in reason:
                if q == lit:
                    continue
                v = abs(q)
                if not seen[v] and self.level[v] > 0:
                    seen[v] = 1
                    touched.append(v)
                    self._bump(v)
                    if self.level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(self.trail[idx])]:
                idx -= 1
            lit = -self.trail[idx]
            v = abs(lit)
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            reason = self.reason[v]
        learnt[0] = lit
        for v in touched:
            seen[v] = 0
        # slot 1 gets the deepest remaining literal so watches stay coherent
        back = 0
        if len(learnt) > 1:
            deepest = max(range(1, len(learnt)), key=lambda i: self.level[abs(learnt[i])])
            learnt[1], learnt[deepest] = learnt[deepest], learnt[1]
            back = self.level[abs(learnt[1])]
        return learnt, back

    def _cancel_until(self, level: int):
        trail_lim = self.trail_lim
        if len(trail_lim) > level:
            trail = self.trail
            vals = self.vals
            reason = self.reason
            saved_phase = self.saved_phase
            activity = self.activity
            queued = self.queued
            heap = self.heap
            bound = trail_lim[level]
            del trail_lim[level:]
            for lit in reversed(trail[bound:]):
                v = lit if lit > 0 else -lit
                saved_phase[v] = 1 if lit > 0 else 0
                vals[lit] = 0
                vals[-lit] = 0
                reason[v] = None
                if not queued[v]:
                    heappush(heap, (-activity[v], v))
                    queued[v] = 1
            del trail[bound:]
        self.qhead = len(self.trail)

    def _decide(self) -> int:
        heap = self.heap
        vals = self.vals
        activity = self.activity
        queued = self.queued
        while heap:
            act, v = heappop(heap)
            if -act == activity[v]:
                queued[v] = 0
                if not vals[v]:
                    return v if self.saved_phase[v] else -v
        for v in range(1, self.n + 1):
            if not vals[v]:
                return v if self.saved_phase[v] else -v
        return 0

    # -- main loop -----------------------------------------------------------

    def solve(self, timeout: float | None = None) -> list[int] | None:
        """Return a model as a list of signed literals, or None if UNSAT."""
        if not self.ok:
            return None
        if self._propagate() is not None:
            return None
        deadline = None if timeout is None else time.monotonic() + timeout
        if deadline is not None and time.monotonic() > deadline:
            raise SolverTimeout(f"no verdict within {timeout:.3f}s")
        conflicts = 0
        decisions = 0
        restart_idx = 1
        budget = 100 * _luby(restart_idx)
        since_restart = 0
        while True:
            conflict = self._propagate()
            if deadline is not None and (conflicts + decisions) % 64 == 0 \
                    and time.monotonic() > deadline:
                raise SolverTimeout(f"no verdict within {timeout:.3f}s")
            if conflict is not None:
                conflicts += 1
                since_restart += 1
                if len(self.trail_lim) == 0:
                    return None
                learnt, back = self._analyze(conflict)
                self._cancel_until(back)
                if len(learnt) == 1:
                    if not (self._enqueue(learnt[0], None) and self._propagate() is None):
                        return None
                else:
                    self.clauses.append(learnt)
                    self.watches.setdefault(learnt[0], []).append(learnt)
                    self.watches.setdefault(learnt[1], []).append(learnt)
                    self._enqueue(learnt[0], learnt)
                self.var_inc /= 0.95
                continue
            if since_restart >= budget and self.trail_lim:
                since_restart = 0
                restart_idx += 1
                budget = 100 * _luby(restart_idx)
                self._cancel_until(0)
                continue
            lit = self._decide()
            if lit == 0:
                model = [v if self.vals[v] == 1 else -v for v in range(1, self.n + 1)]
                self._verify(model)
                return model
            decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, None)

    def _verify(self, model: list[int]):
        truth = {l for l in model}
        for clause in self.clauses:
            if not any(l in truth for l in clause):
                raise RuntimeError("internal error: model does not satisfy clause set")


# ---------------------------------------------------------------------------
# The reduction generators as they were before one checked job graph and
# precomputed tile magic cells: the degree bound and the topological order
# computed separately, the edge list scanned once per job, the circuit built
# twice, every tile's magic cells found by a 25-cell complement. Kept
# verbatim as the reference the generators must match byte for byte; the
# constants, `_offset`, `cycle_time_limit` and `processor_unit_width` are
# imported from `scmr.bench`, where they are unchanged.
# ---------------------------------------------------------------------------

def _gadget_gates(job, d: int):
    if d < 0:
        raise BenchError("degree bound must be nonnegative")
    io = [f"q_{job}_{i}" for i in range(d + 1)]
    ins = [cnot(io[0], io[i]) for i in range(1, d + 1)]
    return ins + [tgate(io[0])] + list(ins)


def _degree_bound(jobs, edges) -> int:
    out_deg = {j: 0 for j in jobs}
    in_deg = {j: 0 for j in jobs}
    for a, b in edges:
        out_deg[a] += 1
        in_deg[b] += 1
    return max([*out_deg.values(), *in_deg.values()], default=0)


def _job_order(jobs: list, edges: list[tuple]) -> list:
    """The jobs in stable topological order, after checking that each job is
    listed once, every edge joins two distinct listed jobs and the edges
    contain no cycle."""
    seen = set()
    for j in jobs:
        if j in seen:
            raise BenchError(f"job {j!r} is listed more than once")
        seen.add(j)
    for a, b in edges:
        if a not in seen or b not in seen:
            raise BenchError(f"edge ({a}, {b}) references unknown job")
        if a == b:
            raise BenchError(f"self-dependency on job {a}")
    pos = {j: i for i, j in enumerate(jobs)}
    remaining = {j: sum(1 for a, b in edges if b == j) for j in jobs}
    ready = [j for j in jobs if remaining[j] == 0]
    topo = []
    while ready:
        j = ready.pop(0)
        topo.append(j)
        for a, b in edges:
            if a == j:
                remaining[b] -= 1
                if remaining[b] == 0 and b not in ready:
                    ready.append(b)
        ready.sort(key=pos.get)
    if len(topo) != len(jobs):
        raise BenchError("dependency edges contain a cycle")
    return topo


def dependency_circuit(jobs, edges) -> Circuit:
    """Concatenated job gadgets plus one transition CNOT per direct
    dependency, wired so the T gates' dependency order equals the job order.

    `jobs` is an ordered list of hashable ids; `edges` are Hasse-diagram
    pairs (prerequisite, dependent). Edge endpoints get I/O qubit indices by
    partner position in `jobs`.
    """
    jobs = list(jobs)
    edges = list(edges)
    topo = _job_order(jobs, edges)
    pos = {j: i for i, j in enumerate(jobs)}
    d = _degree_bound(jobs, edges)

    out_index: dict[tuple, int] = {}
    in_index: dict[tuple, int] = {}
    for j in jobs:
        outs = sorted((b for a, b in edges if a == j), key=pos.get)
        for i, b in enumerate(outs, start=1):
            out_index[(j, b)] = i
        ins = sorted((a for a, b in edges if b == j), key=pos.get)
        for i, a in enumerate(ins, start=1):
            in_index[(a, j)] = i

    # transitions into a job precede its gadget
    gates = []
    for j in topo:
        for a in sorted((a for a, b in edges if b == j), key=pos.get):
            gates.append(cnot(f"q_{a}_{out_index[(a, j)]}", f"q_{j}_{in_index[(a, j)]}"))
        gates.extend(_gadget_gates(j, d))
    return circuit_from_gates(gates)


def cycle_circuit(d: int, k: int, t_p: int) -> Circuit:
    """k independent two-qubit chains that hold the magic vertices busy in a
    repeating pattern, releasing them once per cycle; every gate sits on a
    dependency chain of the full time limit, so nothing can be delayed."""
    if d < 0 or k < 1 or t_p < 1:
        raise BenchError("need d >= 0, k >= 1, t_p >= 1")
    gates = []
    for c in range(k):
        a, b = f"cyc{c}_a", f"cyc{c}_b"
        for cycle in range(t_p):
            gates.extend(tgate(a) for _ in range(d))
            gates.append(cnot(a, b))
            gates.extend(tgate(a) for _ in range(d))
            if cycle < t_p - 1:
                gates.extend(tgate(a) for _ in range(d * k))
    return circuit_from_gates(gates)


def psp_to_scmr(jobs, edges, k: int, t_p: int) -> tuple[Architecture, Circuit, int]:
    """Scheduling instance -> (architecture, circuit, time limit).

    The architecture chains k processor units (4 rows by 6|J|+1 columns,
    magic vertex in the second row from the bottom, second column from the
    right of each unit); the circuit runs the dependency circuit next to the
    cycle circuit on disjoint qubits.
    """
    jobs = list(jobs)
    if k < 1 or t_p < 1:
        raise BenchError("need k >= 1 and t_p >= 1")
    if not jobs:
        raise BenchError("need at least one job")
    dep = dependency_circuit(jobs, edges)  # rejects repeated jobs, unknown edge ends and cycles
    d = _degree_bound(jobs, edges)
    width = processor_unit_width(len(jobs))
    magic = frozenset((u * width - 1, 2) for u in range(1, k + 1))
    arch = Architecture(4, k * width, magic)
    cyc = cycle_circuit(d, k, t_p)
    circuit = circuit_from_gates(
        [(g.kind, g.qubits) for g in dep.gates] + [(g.kind, g.qubits) for g in cyc.gates]
    )
    return arch, circuit, cycle_time_limit(d, k, t_p)


def _tile_cells(kind: str):
    """(free, mapped) local cell sets for a tile kind."""
    if kind == "empty":
        return EMPTY_FREE, frozenset()
    return FULL_FREE, frozenset({FULL_CENTER, FULL_BL, FULL_TR})


def ndp_to_scr(dims: tuple[int, int], pairs) -> tuple[Architecture, Circuit, QubitMap]:
    """Node-disjoint-paths instance -> single-step routing instance.

    `dims` is the (cols, rows) of the pair grid; `pairs` are endpoint pairs
    of grid vertices, each vertex in at most one pair. Solvable in one time
    step exactly when the original instance has node-disjoint paths.
    """
    gw, gh = dims
    if gw < 1 or gh < 1:
        raise BenchError(f"pair grid must be at least 1x1, got {gw}x{gh}")
    pairs = [((int(s[0]), int(s[1])), (int(t[0]), int(t[1]))) for s, t in pairs]
    used: list[Vertex] = []
    for s, t in pairs:
        for v in (s, t):
            if not (1 <= v[0] <= gw and 1 <= v[1] <= gh):
                raise BenchError(f"pair vertex {v} outside {gw}x{gh} grid")
            if v in used:
                raise BenchError(f"vertex {v} appears in more than one pair")
            used.append(v)

    magic: set[Vertex] = set()
    assignment: dict[str, Vertex] = {}
    gates = []
    for y in range(1, gh + 1):
        for x in range(1, gw + 1):
            kind = "full" if (x, y) in used else "empty"
            free, mapped = _tile_cells(kind)
            for b in range(1, TILE + 1):
                for a in range(1, TILE + 1):
                    if (a, b) not in free and (a, b) not in mapped:
                        magic.add(_offset((x, y), (a, b)))
    for i, (s, t) in enumerate(pairs):
        assignment[f"src{i}"] = _offset(s, FULL_CENTER)
        assignment[f"tar{i}"] = _offset(t, FULL_CENTER)
        gates.append(cnot(f"src{i}", f"tar{i}"))
    for v in sorted(used):
        name = f"{v[0]}_{v[1]}"
        assignment[f"tr_{name}"] = _offset(v, FULL_TR)
        assignment[f"bl_{name}"] = _offset(v, FULL_BL)
        gates.append(cnot(f"tr_{name}", f"bl_{name}"))

    arch = Architecture(gh * TILE, gw * TILE, frozenset(magic))
    return arch, circuit_from_gates(gates), qubit_map(assignment)


# ---------------------------------------------------------------------------
# The exact engine's step loop as it was before it stopped after one probe on
# an instance no step count can solve: it climbs from the depth to the cap
# whatever the first probe says. Kept verbatim as the reference the loop must
# match in steps, proofs and exceptions, with one edit: `encode`, `solve`,
# `decode`, `CapExhausted` and `OptimalResult` are read from
# `scmr.sat.solve` when the loop runs, so both loops run the same probes
# and a counter patched in there sees the probes of both.
# ---------------------------------------------------------------------------

_sat = importlib.import_module("scmr.sat.solve")  # attribute scmr.sat.solve is a function


def probe_loop_solve_optimal(arch: Architecture, circuit: Circuit, qmap: QubitMap | None = None,
                             t_max: int | None = None, timeout: float | None = None):
    """Smallest-step solution by probing t = depth, depth+1, ... up to t_max.

    `timeout` applies per probe; a probe that times out is skipped (the loop
    keeps climbing, and any later solution is reported as not proven
    minimal). Raises CapExhausted when the cap runs out, or SolverTimeout
    when every remaining probe timed out.
    """
    d = max(gate_depths(circuit), default=0)
    if len(circuit.gates) == 0:
        m = qmap if qmap is not None else qubit_map({})
        return _sat.OptimalResult(m, GateRoute(0, {}, {}), 0, True)
    t_max = t_max if t_max is not None else max(d, len(circuit.gates))
    if t_max < d:
        raise ValueError(f"cap {t_max} is below the depth lower bound {d}")
    proven = True
    timed_out = False
    for t in range(d, t_max + 1):
        probe_start = time.monotonic()
        cnf = _sat.encode(arch, circuit, qmap=qmap, t_s=t)
        remaining = None
        if timeout is not None:
            remaining = timeout - (time.monotonic() - probe_start)
            if remaining <= 0:
                proven = False
                timed_out = True
                continue
        try:
            model = _sat.solve(cnf, timeout=remaining)
        except SolverTimeout:
            proven = False
            timed_out = True
            continue
        if model is not None:
            got_map, route = _sat.decode(model, cnf.table, circuit, arch)
            return _sat.OptimalResult(got_map, route, route.steps, proven)
    if timed_out:
        raise SolverTimeout(f"probes up to {t_max} steps timed out without a solution")
    raise _sat.CapExhausted(t_max)


# ---------------------------------------------------------------------------
# The encoder as it was before a pinned map's mapping family was folded out
# of the formula and the out-degree bound went per gate: every map literal
# allocated and constrained by a per-qubit exactly-one and a per-vertex
# at-most-one under a pinned map too, and one out-degree at-most-one per
# vertex and step over every active gate's out-edges. Kept verbatim (renamed
# `usable_edge_encode`, its edge helper `_usable_edges`) as the second
# encoder reference: the encoder must reproduce its models, projected onto
# the named variables the encoder keeps. `_adjacency` is the encoder's former reader of
# `Architecture.cells`, kept verbatim; its orders are those the encoder's
# module docstring fixes. `exec_windows` is this module's, whose pruned
# windows are the library's. One edit: a pinned map's edges are keyed by
# this module's `request_for_gate`, not by the library's request table,
# which now gives cell ids.
# ---------------------------------------------------------------------------

def _adjacency(arch: Architecture):
    """(horizontal, vertical, directed edges) of the grid, in the orders the
    module docstring fixes."""
    cells = arch.cells
    at, s = cells.vertex_of, cells.stride
    horizontal: dict[Vertex, list[Vertex]] = {}
    vertical: dict[Vertex, list[Vertex]] = {}
    edges: list[tuple[Vertex, Vertex]] = []
    for v in arch.vertices():
        i = cells.id_of[v]
        horizontal[v] = [w for w in (at[i - s], at[i + s]) if w is not None]
        vertical[v] = [w for w in (at[i - 1], at[i + 1]) if w is not None]
        edges += [e for w in (at[i + s], at[i + 1]) if w is not None for e in ((v, w), (w, v))]
    return horizontal, vertical, edges


class _UsableEdges(NamedTuple):
    """The directed edges one gate's path may use: in `edges` order, as a
    set, and per vertex the usable neighbors into and out of it, in
    neighbor order."""
    order: list[tuple[Vertex, Vertex]]
    usable: frozenset[tuple[Vertex, Vertex]]
    into: dict[Vertex, list[Vertex]]
    out_of: dict[Vertex, list[Vertex]]


def _usable_edges(neigh, edges, start: Vertex | None, ends, blocked) -> _UsableEdges:
    """The edges some legal path from `start` (None: any vertex outside
    `blocked`) into `ends` can use: it leaves `start` through a vertical
    edge, enters an end through a horizontal one, and passes only through
    vertices outside `blocked`, which holds the ends, the magic vertices and,
    under a pinned map, every mapped vertex."""
    def usable(u, v):
        horizontal = u[1] == v[1]
        leaves = not horizontal if u == start else u not in blocked
        return leaves and (horizontal if v in ends else v not in blocked)

    order = [e for e in edges if usable(*e)]
    kept = frozenset(order)
    into = {v: [u for u in neigh[v] if (u, v) in kept] for v in neigh}
    out_of = {v: [w for w in neigh[v] if (v, w) in kept] for v in neigh}
    return _UsableEdges(order, kept, into, out_of)


def usable_edge_encode(arch: Architecture, circuit: Circuit, qmap: QubitMap | None = None,
                       t_s: int = 1) -> CnfInstance:
    """Build the decision formula for `t_s` steps; pin and fold in the map if
    one is given."""
    if t_s < 1:
        raise ValueError("need at least one time step")
    table = VarTable()
    free_vertices = [v for v in arch.vertices() if v not in arch.magic]
    if circuit.num_qubits > len(free_vertices):
        return CnfInstance(
            1, [[]], table, t_s,
            diagnostic=f"{circuit.num_qubits} qubits exceed {len(free_vertices)} non-magic vertices",
        )
    pinned = None
    if qmap is not None:
        free_set = set(free_vertices)
        pinned = qmap.as_dict
        for q in circuit.qubits:
            if q not in pinned:
                raise ValueError(f"fixed map does not place qubit {q!r}")
            if pinned[q] not in free_set:
                raise ValueError(f"qubit {q!r} pinned to {pinned[q]}, which is magic or off-grid")

    windows = exec_windows(circuit, t_s)
    horizontal, vertical, edges = _adjacency(arch)
    neigh = {v: horizontal[v] + vertical[v] for v in horizontal}
    magic = arch.magic
    blocked = magic if pinned is None else magic | set(pinned.values())
    if pinned is None:
        keys = [(None, magic if g.kind is GateKind.T else frozenset()) for g in circuit.gates]
    else:
        keys = [(r.source, r.sinks) for r in (request_for_gate(arch, qmap, g) for g in circuit.gates)]
    shared: dict[tuple, _UsableEdges] = {}
    gate_edges: list[_UsableEdges] = []
    for key in keys:
        if key not in shared:
            shared[key] = _usable_edges(neigh, edges, *key, blocked)
        gate_edges.append(shared[key])
    counter = 0

    def fresh() -> int:
        nonlocal counter
        counter += 1
        return counter

    for q in circuit.qubits:
        for v in free_vertices:
            table.map_ids[(q, v)] = fresh()
    for g in circuit.gates:
        for t in windows[g.index]:
            table.exec_ids[(g.index, t)] = fresh()
    for e in edges:
        for g in circuit.gates:
            if e in gate_edges[g.index].usable:
                for t in windows[g.index]:
                    table.path_ids[(*e, g.index, t)] = fresh()
    table.num_named = counter

    mvar = table.map_ids
    evar = table.exec_ids
    pvar = table.path_ids
    clauses: list[list[int]] = []
    add = clauses.append

    # mapping: total injective function avoiding magic vertices
    for q in circuit.qubits:
        clauses.extend(encode_eo([mvar[(q, v)] for v in free_vertices], fresh))
    for v in free_vertices:
        clauses.extend(encode_amo([mvar[(q, v)] for q in circuit.qubits], fresh))
    if pinned is not None:
        for q in circuit.qubits:
            add([mvar[(q, pinned[q])]])

    def unless(q: str, v: Vertex) -> list[int] | None:
        """The literal `-map(q, v)` as a clause prefix, folded under a pinned
        map: [] when it is false, None when it satisfies the clause."""
        if pinned is None:
            return [-mvar[(q, v)]]
        return [] if pinned[q] == v else None

    # schedule: one step per gate, dependent gates strictly ordered
    for g in circuit.gates:
        clauses.extend(encode_eo([evar[(g.index, t)] for t in windows[g.index]], fresh))
    for i, j in consecutive_qubit_pairs(circuit):
        for t in windows[i]:
            for t2 in windows[j]:
                if t2 <= t:
                    add([-evar[(i, t)], -evar[(j, t2)]])

    # routed edges keep clear of stored data. No usable edge leaves a magic
    # vertex. Under a pinned map, only the gate that ends at a mapped vertex
    # has an edge into it and only the gate that starts there has one out,
    # and no gate starts and ends at one vertex, so the family is empty.
    if pinned is None:
        for v in free_vertices:
            guards = [[-mvar[(q, v)]] for q in circuit.qubits]
            for g in circuit.gates:
                into, out_of = gate_edges[g.index].into[v], gate_edges[g.index].out_of[v]
                for t in windows[g.index]:
                    for u in into:
                        for w in out_of:
                            pair = [-pvar[(u, v, g.index, t)], -pvar[(v, w, g.index, t)]]
                            for guard in guards:
                                add(guard + pair)

    # vertex-disjointness: in/out degree at most one per vertex and step
    for t in range(1, t_s + 1):
        active = [(g.index, gate_edges[g.index]) for g in circuit.gates if t in windows[g.index]]
        for u in arch.vertices():
            outgoing = [pvar[(u, w, i, t)] for i, ge in active for w in ge.out_of[u]]
            incoming = [pvar[(w, u, i, t)] for i, ge in active for w in ge.into[u]]
            clauses.extend(encode_amo(outgoing, fresh))
            clauses.extend(encode_amo(incoming, fresh))

    # path construction per gate kind
    for g in circuit.gates:
        if g.kind is GateKind.CNOT:
            start_q, end_q = g.control, g.target
        else:
            start_q, end_q = g.operand, None
        ge = gate_edges[g.index]
        for t in windows[g.index]:
            e = evar[(g.index, t)]
            for v in free_vertices:
                # leave the start vertex through a vertical edge
                guard = unless(start_q, v)
                if guard is not None:
                    leave = [pvar[(v, u, g.index, t)] for u in ge.out_of[v] if u in vertical[v]]
                    add(guard + [-e] + leave)
                guard = None if end_q is None else unless(end_q, v)
                if guard is not None:
                    enter = [pvar[(u, v, g.index, t)] for u in ge.into[v] if u in horizontal[v]]
                    add(guard + [-e] + enter)
            # every used edge chains back toward the start vertex
            for u, v in ge.order:
                if pinned is not None and pinned[start_q] == u:
                    continue  # the pinned start vertex satisfies the head
                back = [pvar[(w, u, g.index, t)] for w in ge.into[u] if w != v]
                head = [mvar[(start_q, u)]] if pinned is None else []
                add([-pvar[(u, v, g.index, t)]] + back + head)
            if end_q is None:
                # T gates end by entering some magic vertex horizontally
                entries = [pvar[(u, v, g.index, t)] for v in sorted(magic) for u in ge.into[v]]
                add([-e] + entries)
                clauses.extend(encode_amo(entries, fresh))

    return CnfInstance(counter, clauses, table, t_s)


# ---------------------------------------------------------------------------
# The encoder's formula written plainly: `usable_edge_encode` above with the
# two changes that shrink it and none of the shortcuts that build it faster.
# A pinned map gets one map variable per qubit and its unit clause, and no
# exactly-one or at-most-one family. The out-degree at-most-one goes first
# per gate, step and vertex where the gate's start qubit cannot sit (none
# under a free map, every vertex but the pinned one under a pinned map),
# then per step and vertex across the gates of each start qubit that may
# sit there, next to the in-degree one. Kept as the third encoder
# reference: the encoder must match its formula bytes, that is its variable
# count, clauses, their order and the variable table. Like the one above, it
# keys a pinned map's edges by this module's `request_for_gate`.
# ---------------------------------------------------------------------------

def plain_encode(arch: Architecture, circuit: Circuit, qmap: QubitMap | None = None,
                 t_s: int = 1) -> CnfInstance:
    """Build the decision formula for `t_s` steps; pin and fold in the map if
    one is given."""
    if t_s < 1:
        raise ValueError("need at least one time step")
    table = VarTable()
    free_vertices = [v for v in arch.vertices() if v not in arch.magic]
    if circuit.num_qubits > len(free_vertices):
        return CnfInstance(
            1, [[]], table, t_s,
            diagnostic=f"{circuit.num_qubits} qubits exceed {len(free_vertices)} non-magic vertices",
        )
    pinned = None
    if qmap is not None:
        free_set = set(free_vertices)
        pinned = qmap.as_dict
        for q in circuit.qubits:
            if q not in pinned:
                raise ValueError(f"fixed map does not place qubit {q!r}")
            if pinned[q] not in free_set:
                raise ValueError(f"qubit {q!r} pinned to {pinned[q]}, which is magic or off-grid")

    windows = exec_windows(circuit, t_s)
    horizontal, vertical, edges = _adjacency(arch)
    neigh = {v: horizontal[v] + vertical[v] for v in horizontal}
    magic = arch.magic
    blocked = magic if pinned is None else magic | set(pinned.values())
    if pinned is None:
        keys = [(None, magic if g.kind is GateKind.T else frozenset()) for g in circuit.gates]
    else:
        keys = [(r.source, r.sinks) for r in (request_for_gate(arch, qmap, g) for g in circuit.gates)]
    shared: dict[tuple, _UsableEdges] = {}
    gate_edges: list[_UsableEdges] = []
    for key in keys:
        if key not in shared:
            shared[key] = _usable_edges(neigh, edges, *key, blocked)
        gate_edges.append(shared[key])
    counter = 0

    def fresh() -> int:
        nonlocal counter
        counter += 1
        return counter

    for q in circuit.qubits:
        for v in free_vertices if pinned is None else (pinned[q],):
            table.map_ids[(q, v)] = fresh()
    for g in circuit.gates:
        for t in windows[g.index]:
            table.exec_ids[(g.index, t)] = fresh()
    for e in edges:
        for g in circuit.gates:
            if e in gate_edges[g.index].usable:
                for t in windows[g.index]:
                    table.path_ids[(*e, g.index, t)] = fresh()
    table.num_named = counter

    mvar = table.map_ids
    evar = table.exec_ids
    pvar = table.path_ids
    clauses: list[list[int]] = []
    add = clauses.append

    # mapping: total injective function avoiding magic vertices, or the pins
    if pinned is None:
        for q in circuit.qubits:
            clauses.extend(encode_eo([mvar[(q, v)] for v in free_vertices], fresh))
        for v in free_vertices:
            clauses.extend(encode_amo([mvar[(q, v)] for q in circuit.qubits], fresh))
    else:
        for q in circuit.qubits:
            add([mvar[(q, pinned[q])]])

    def unless(q: str, v: Vertex) -> list[int] | None:
        """The literal `-map(q, v)` as a clause prefix, folded under a pinned
        map: [] when it is false, None when it satisfies the clause."""
        if pinned is None:
            return [-mvar[(q, v)]]
        return [] if pinned[q] == v else None

    # schedule: one step per gate, dependent gates strictly ordered
    for g in circuit.gates:
        clauses.extend(encode_eo([evar[(g.index, t)] for t in windows[g.index]], fresh))
    for i, j in consecutive_qubit_pairs(circuit):
        for t in windows[i]:
            for t2 in windows[j]:
                if t2 <= t:
                    add([-evar[(i, t)], -evar[(j, t2)]])

    # routed edges keep clear of stored data. No usable edge leaves a magic
    # vertex. Under a pinned map, only the gate that ends at a mapped vertex
    # has an edge into it and only the gate that starts there has one out,
    # and no gate starts and ends at one vertex, so the family is empty.
    if pinned is None:
        for v in free_vertices:
            guards = [[-mvar[(q, v)]] for q in circuit.qubits]
            for g in circuit.gates:
                into, out_of = gate_edges[g.index].into[v], gate_edges[g.index].out_of[v]
                for t in windows[g.index]:
                    for u in into:
                        for w in out_of:
                            pair = [-pvar[(u, v, g.index, t)], -pvar[(v, w, g.index, t)]]
                            for guard in guards:
                                add(guard + pair)

    # vertex-disjointness: out-degree at most one per gate, vertex and step
    # where the gate's start qubit cannot sit; then per step and vertex,
    # out-degree at most one per start qubit that may sit there, across its
    # gates, and in-degree at most one across all gates
    for g in circuit.gates:
        start = None if pinned is None else pinned[g.qubits[0]]
        for t in windows[g.index]:
            for u in arch.vertices():
                if pinned is not None and u != start:
                    outgoing = [pvar[(u, w, g.index, t)] for w in gate_edges[g.index].out_of[u]]
                    clauses.extend(encode_amo(outgoing, fresh))
    for t in range(1, t_s + 1):
        active = [(g.index, g.qubits[0], gate_edges[g.index])
                  for g in circuit.gates if t in windows[g.index]]
        for u in arch.vertices():
            groups = {}
            for i, q, ge in active:
                if (pinned is None or pinned[q] == u) and ge.out_of[u]:
                    groups.setdefault(q, []).extend(pvar[(u, w, i, t)] for w in ge.out_of[u])
            incoming = [pvar[(w, u, i, t)] for i, _, ge in active for w in ge.into[u]]
            for outgoing in groups.values():
                clauses.extend(encode_amo(outgoing, fresh))
            clauses.extend(encode_amo(incoming, fresh))

    # path construction per gate kind
    for g in circuit.gates:
        if g.kind is GateKind.CNOT:
            start_q, end_q = g.control, g.target
        else:
            start_q, end_q = g.operand, None
        ge = gate_edges[g.index]
        for t in windows[g.index]:
            e = evar[(g.index, t)]
            for v in free_vertices:
                # leave the start vertex through a vertical edge
                guard = unless(start_q, v)
                if guard is not None:
                    leave = [pvar[(v, u, g.index, t)] for u in ge.out_of[v] if u in vertical[v]]
                    add(guard + [-e] + leave)
                guard = None if end_q is None else unless(end_q, v)
                if guard is not None:
                    enter = [pvar[(u, v, g.index, t)] for u in ge.into[v] if u in horizontal[v]]
                    add(guard + [-e] + enter)
            # every used edge chains back toward the start vertex
            for u, v in ge.order:
                if pinned is not None and pinned[start_q] == u:
                    continue  # the pinned start vertex satisfies the head
                back = [pvar[(w, u, g.index, t)] for w in ge.into[u] if w != v]
                head = [mvar[(start_q, u)]] if pinned is None else []
                add([-pvar[(u, v, g.index, t)]] + back + head)
            if end_q is None:
                # T gates end by entering some magic vertex horizontally
                entries = [pvar[(u, v, g.index, t)] for v in sorted(magic) for u in ge.into[v]]
                add([-e] + entries)
                clauses.extend(encode_amo(entries, fresh))

    return CnfInstance(counter, clauses, table, t_s)
