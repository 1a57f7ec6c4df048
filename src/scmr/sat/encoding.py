"""CNF encoding of mapping-and-routing decision instances.

Variables:
  map(q, v)        qubit q sits at non-magic vertex v
  exec(g, t)       gate g runs at step t
  path(u, v, g, t) directed grid edge (u, v) carries gate g's route at step t,
                   allocated only for the edges gate g can use (below)

Constraint families: injective total mapping; exactly-one execution step per
gate with dependent gates strictly ordered; routed edges never pass through
mapped or magic vertices; per-vertex in/out degree at most one per step
across all gates; inductive path-connectivity from each gate's start vertex
(left through a vertical edge) to its end vertex (entered through a
horizontal edge, the mapped target for CNOT, any magic vertex for T).

Gate execution steps are restricted to the feasible window
[dependency depth, t_s - height + 1]. A T gate enters at most one magic
vertex per step, and at least one at the step it executes.

Neighbor lists and directed edges come from `Architecture.cells`, once per
formula, in orders that fix variable ids and so the DIMACS bytes: horizontal
neighbors (a - 1, a + 1), then vertical ones (b - 1, b + 1); edges in
`vertices()` order, (v, w) then (w, v) for each right and upper neighbor w.

A pinned map is folded into the formula: the unit clauses that pin it stay,
clauses it satisfies are left out and map literals it makes false are
dropped; `write_instance` writes the folded formula.

Usable edges. A gate g gets path variables only on a directed edge (u, v)
that some legal path of g can use: u is not magic and, under a pinned map,
is g's start vertex with (u, v) vertical or an unmapped vertex; v is not g's
start, is magic only for a T gate entered through a horizontal edge and,
under a pinned map, is an unmapped non-magic vertex or g's end vertex
entered horizontally. A vertex the map places any qubit on counts as
mapped, whether the circuit uses that qubit or not, so routes keep clear of
every vertex `routing.validate` protects. Every family reads a missing path
literal as false: clauses it would satisfy are left out, and it is dropped
from the others. The formula is the full one with every other path literal
set to false and, when the map places only the circuit's qubits, the two
are equisatisfiable: in a model of the full formula, each gate's path at
its step is legal (the degree bounds make the chain of true edges back from
the end vertex unique and acyclic), so setting every path literal off those
paths to false, with the counter auxiliaries recomputed, still satisfies
it, and uses usable edges only. Verdicts, and so the steps and proofs of
the step loop, are those of the full formula; which optimal route a model
holds may differ.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

from ..architecture import Architecture, Vertex
from ..circuit import Circuit, GateKind, consecutive_qubit_pairs, gate_depths, gate_heights
from ..mapping import QubitMap
from ..routing import GateRoute, gate_requests
from .cardinality import encode_amo, encode_eo


class DecodeError(ValueError):
    pass


@dataclass
class VarTable:
    """Bijection between semantic variables and DIMACS ids (aux ids above)."""
    map_ids: dict[tuple[str, Vertex], int] = field(default_factory=dict)
    exec_ids: dict[tuple[int, int], int] = field(default_factory=dict)
    path_ids: dict[tuple[Vertex, Vertex, int, int], int] = field(default_factory=dict)
    num_named: int = 0

    def describe(self, var: int) -> str:
        for (q, v), i in self.map_ids.items():
            if i == var:
                return f"map {q} {v[0]} {v[1]}"
        for (g, t), i in self.exec_ids.items():
            if i == var:
                return f"exec {g} {t}"
        for (u, v, g, t), i in self.path_ids.items():
            if i == var:
                return f"path {u[0]} {u[1]} {v[0]} {v[1]} {g} {t}"
        return "aux"

    def table_text(self) -> str:
        lines = []
        for (q, v), i in sorted(self.map_ids.items(), key=lambda kv: kv[1]):
            lines.append(f"{i} map {q} {v[0]} {v[1]}")
        for (g, t), i in sorted(self.exec_ids.items(), key=lambda kv: kv[1]):
            lines.append(f"{i} exec {g} {t}")
        for (u, v, g, t), i in sorted(self.path_ids.items(), key=lambda kv: kv[1]):
            lines.append(f"{i} path {u[0]} {u[1]} {v[0]} {v[1]} {g} {t}")
        return "\n".join(lines) + "\n"


@dataclass
class CnfInstance:
    """The formula for `t_s` steps. A non-empty `diagnostic` says why the
    formula is the empty clause: the instance is unsatisfiable at every t,
    not only at `t_s`."""
    num_vars: int
    clauses: list[list[int]]
    table: VarTable
    t_s: int
    diagnostic: str = ""

    def __post_init__(self):
        # three passes over the literals in C, none of which copies them
        n = self.num_vars
        lits = chain.from_iterable
        if (min(lits(self.clauses), default=0) < -n or max(lits(self.clauses), default=0) > n
                or 0 in lits(self.clauses)):
            lit = next(l for l in lits(self.clauses) if l == 0 or abs(l) > n)
            raise ValueError(f"literal {lit} out of range 1..{n}")


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


def exec_windows(circuit: Circuit, t_s: int) -> list[range]:
    depths = gate_depths(circuit)
    heights = gate_heights(circuit)
    return [range(depths[i], t_s - heights[i] + 2) for i in range(len(circuit.gates))]


class _GateEdges(NamedTuple):
    """The directed edges one gate's path may use: in `edges` order, as a
    set, and per vertex the usable neighbors into and out of it, in
    neighbor order."""
    order: list[tuple[Vertex, Vertex]]
    usable: frozenset[tuple[Vertex, Vertex]]
    into: dict[Vertex, list[Vertex]]
    out_of: dict[Vertex, list[Vertex]]


def _gate_edges(neigh, edges, start: Vertex | None, ends, blocked) -> _GateEdges:
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
    return _GateEdges(order, kept, into, out_of)


def encode(arch: Architecture, circuit: Circuit, qmap: QubitMap | None = None,
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
        keys = [r[1:] for r in gate_requests(arch, circuit, qmap)]
    shared: dict[tuple, _GateEdges] = {}
    gate_edges: list[_GateEdges] = []
    for key in keys:
        if key not in shared:
            shared[key] = _gate_edges(neigh, edges, *key, blocked)
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
# Model decoding
# ---------------------------------------------------------------------------

def decode(model, table: VarTable, circuit: Circuit, arch: Architecture) -> tuple[QubitMap, GateRoute]:
    """Rebuild (map, route) from true variables; spurious path cycles at
    non-execution steps are ignored by construction. Each gate's path starts
    and may end where its `routing.gate_requests` entry says."""
    from ..mapping import qubit_map

    true_vars = {lit for lit in model if lit > 0}
    assignment: dict[str, Vertex] = {}
    for (q, v), i in table.map_ids.items():
        if i in true_vars:
            if q in assignment:
                raise DecodeError(f"qubit {q!r} mapped twice")
            assignment[q] = v
    missing = [q for q in circuit.qubits if q not in assignment]
    if missing:
        raise DecodeError(f"unmapped qubits in model: {missing}")
    qmap = qubit_map(assignment)

    time: dict[int, int] = {}
    for (g, t), i in table.exec_ids.items():
        if i in true_vars:
            if g in time:
                raise DecodeError(f"gate {g} executed twice")
            time[g] = t
    if len(time) != len(circuit.gates):
        raise DecodeError("model misses execution steps")

    succ: dict[tuple[int, int, Vertex], Vertex] = {}
    for (u, v, g, t), i in table.path_ids.items():
        if i in true_vars and time[g] == t:
            succ[(g, t, u)] = v

    space: dict[int, tuple[Vertex, ...]] = {}
    for g, source, sinks in gate_requests(arch, circuit, qmap):
        t = time[g.index]
        path = [source]
        cur = source
        for _ in range(arch.num_vertices):
            if (g.index, t, cur) not in succ:
                break
            cur = succ[(g.index, t, cur)]
            path.append(cur)
            if cur in sinks:
                break
        else:
            raise DecodeError(f"gate {g.index}: path does not terminate")
        if cur not in sinks:
            raise DecodeError(f"gate {g.index}: path ends at {cur}")
        space[g.index] = tuple(path)

    steps = max(time.values(), default=0)
    return qmap, GateRoute(steps, time, space)
