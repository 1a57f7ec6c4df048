"""CNF encoding of mapping-and-routing decision instances.

Variables:
  map(q, v)        qubit q sits at non-magic vertex v; under a pinned map only
                   v = pinned[q]
  exec(g, t)       gate g runs at step t
  path(u, v, g, t) directed grid edge (u, v) carries gate g's route at step t,
                   allocated only for the edges gate g can use (below)

Constraint families: injective total mapping; exactly-one execution step per
gate with dependent gates strictly ordered; routed edges never pass through
mapped or magic vertices; per vertex and step, in-degree at most one across
all gates, and out-degree at most one per start qubit where that qubit may
sit and per gate elsewhere (below); inductive path-connectivity from each
gate's start vertex (left through a vertical edge) to its end vertex
(entered through a horizontal edge, the mapped target for CNOT, any magic
vertex for T).

Gate execution steps are restricted to the feasible window
[dependency depth, t_s - height + 1]; the depths and heights, and the pairs
of dependent gates the order clauses bind, are read from the circuit's one
dependency table, `Circuit.dependencies`. A T gate enters at most one magic
vertex per step, and at least one at the step it executes.

The formula's vertex indices are `Architecture.cells` ids; neighbor lists
and directed edges are read from that index once per formula, in orders that
fix variable ids and so the DIMACS bytes: horizontal neighbors (a - 1,
a + 1), then vertical ones (b - 1, b + 1); edges in `vertices()` order,
(v, w) then (w, v) for each right and upper neighbor w. Per-vertex families,
a pinned gate's own vertices too, run in `vertices()` order. A gate's path
variables on one edge take consecutive ids over its window.

A pinned map is folded into the formula: each qubit gets the one map
variable of its pinned vertex and the unit clause that sets it, so the
exactly-one and at-most-one families over map literals and their auxiliary
variables are left out; clauses the map satisfies are left out and map
literals it makes false are dropped; `write_instance` writes the folded
formula. Projected onto the map literals it keeps, the formula has the
models it had with every map literal and its mapping family.

Usable edges. A gate g gets path variables only on a directed edge (u, v)
that some legal path of g can use. The blocked vertices are the cells
clear in `routing.free_mask(arch, map vertices)`, the bitset the greedy
search starts from: the magic ones and, under a pinned map, every on-grid
vertex the map places a qubit on, whether the circuit uses that qubit or
not, so routes keep clear of every vertex `routing.validate` protects. A
T gate's ends are the magic vertices. A pinned map is checked, and each
gate's start and ends read, by `routing.gate_requests`: a CNOT's one end
is its target's vertex and every gate's start is its first qubit's vertex
(under a free map no vertex is a start, or a CNOT's end, in this rule).
Then (u, v) is usable iff both hold:
  it leaves correctly: vertical if u is g's start, else u is not blocked;
  it enters correctly: horizontal if v is an end of g, else v is not blocked.
Every family reads a missing path literal as false: clauses it would
satisfy are left out, and it is dropped from the others. The formula is
the full one with every other path literal set to false and, when the map
places only the circuit's qubits, the two are equisatisfiable: in a model
of the full formula, each gate's path at its step is legal (the degree
bounds make the chain of true edges back from the end vertex unique and
acyclic), so setting every path literal off those paths to false, with the
counter auxiliaries recomputed, still satisfies it, and uses usable edges
only. Verdicts, and so the steps and proofs of the step loop, are those of
the full formula; which optimal route a model holds may differ.

Out-degree. The back-chain, degree and data-clear clauses hold at every
step of a gate's window; the start, end and magic-entry clauses only at the
step it runs. Let gates A != B both have a true out-edge at u at step t. By
the back-chain clause, each has a true in-edge at u or starts at u (its
start qubit sits there). Both with in-edges break the in-degree bound. If A
starts at u and B passes through, u holds A's start qubit: under a free map
the data-clear clause forbids B's pair of edges at u, and under a pinned
map B has no usable edge out of a mapped vertex but its own start. If both
start at u, the map is injective, so they share their start qubit. Such
gates never run at one step, but their windows may share step t, where one
of them holds a path `decode` ignores; the bound per start qubit covers
them. So the bound across all gates is implied, and the formula without it
has the same models on the named variables. The bound within one gate
stays: it keeps the chain of true edges back from the end vertex acyclic
and `decode`'s forward walk unique. Without it a "lollipop" passes every
clause: the edges into the end vertex chain back into a cycle, not to the
start vertex.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress
from typing import NamedTuple

from ..architecture import Architecture, Vertex
from ..circuit import Circuit, GateKind
from ..mapping import QubitMap, qubit_map
from ..routing import GateRoute, free_mask, gate_requests
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
        # one pass over the literals in C, then checks on the distinct ones
        n = self.num_vars
        lits = set(chain.from_iterable(self.clauses))
        if lits and (min(lits) < -n or max(lits) > n or 0 in lits):
            lit = next(l for l in chain.from_iterable(self.clauses) if l == 0 or abs(l) > n)
            raise ValueError(f"literal {lit} out of range 1..{n}")


def exec_windows(circuit: Circuit, t_s: int) -> list[range]:
    depths, heights, _ = circuit.dependencies
    return [range(d, t_s - h + 2) for d, h in zip(depths, heights)]


class _Grid(NamedTuple):
    """The grid's directed edges and, per `CellIndex` id, the edges into and
    out of it in neighbor order (none at padding ids): each edge's tail and
    head ids and orientation. Edges come in (v, w), (w, v) pairs, so the
    reverse of edge j is j ^ 1."""
    tail: list[int]
    head: list[int]
    horizontal: list[bool]
    ins: list[list[int]]
    outs: list[list[int]]


def _grid(arch: Architecture) -> _Grid:
    cells = arch.cells
    s = cells.stride
    edges: list[tuple[int, int]] = []
    for v in arch.vertices():
        i = cells.id_of[v]
        edges += [e for w in (i + s, i + 1) if cells.vertex_of[w] is not None for e in ((i, w), (w, i))]
    index = {e: j for j, e in enumerate(edges)}
    around = [(i - s, i + s, i - 1, i + 1) for i in range(len(cells.vertex_of))]
    return _Grid([u for u, _ in edges], [w for _, w in edges], [abs(u - w) == s for u, w in edges],
                 [[index[w, i] for w in ns if (w, i) in index] for i, ns in enumerate(around)],
                 [[index[i, w] for w in ns if (i, w) in index] for i, ns in enumerate(around)])


class _GateEdges(NamedTuple):
    """The edges one gate's path may use, shared by the gates with one start
    and set of ends: `usable` per `_Grid` edge, truthy when it is usable,
    and, per cell id, `ins` and `outs` the usable edges into and out of it
    in neighbor order."""
    usable: list[int]
    ins: list[list[int]]
    outs: list[list[int]]


def _gate_edges(grid: _Grid, start: int | None, ends: int, is_open: list[int]) -> _GateEdges:
    """The usable edges (module docstring) of a gate from cell id `start`
    (None under a free map) into the cells of bitset `ends`, the search key
    of the gate's `routing.gate_requests` entry under a pinned map.
    `is_open` is the `routing.free_mask` of the map as a list: per cell id,
    1 unless the cell is blocked, else 0."""
    usable = [(not flat if u == start else is_open[u])
              and (flat if ends >> v & 1 else is_open[v])
              for u, v, flat in zip(grid.tail, grid.head, grid.horizontal)]
    return _GateEdges(usable, [[j for j in js if usable[j]] for js in grid.ins],
                      [[j for j in js if usable[j]] for js in grid.outs])


def encode(arch: Architecture, circuit: Circuit, qmap: QubitMap | None = None,
           t_s: int = 1) -> CnfInstance:
    """Build the decision formula for `t_s` steps; pin and fold in the map if
    one is given. A given map that does not place the circuit raises
    `MappingError` from `routing.gate_requests`."""
    if t_s < 1:
        raise ValueError("need at least one time step")
    # a gate's usable-edge key: its start's cell id and its ends' bitset
    gates = circuit.gates
    pinned = None if qmap is None else qmap.as_dict
    if pinned is None:
        keys = [(None, arch.cells.magic if g.kind is GateKind.T else 0) for g in gates]
    else:
        keys = [r[1:] for r in gate_requests(arch, circuit, qmap)]
    table = VarTable()
    free_vertices = [v for v in arch.vertices() if v not in arch.magic]
    if circuit.num_qubits > len(free_vertices):
        return CnfInstance(
            1, [[]], table, t_s,
            diagnostic=f"{circuit.num_qubits} qubits exceed {len(free_vertices)} non-magic vertices",
        )

    windows = exec_windows(circuit, t_s)
    grid = _grid(arch)
    at, vertex_of = arch.cells.id_of, arch.cells.vertex_of
    rows = [at[v] for v in arch.vertices()]
    magic = arch.magic
    free = free_mask(arch, () if pinned is None else pinned.values())
    is_open = [free >> i & 1 for i in range(len(vertex_of))]   # per cell id: 1 unless blocked
    shared = {key: _gate_edges(grid, *key, is_open) for key in dict.fromkeys(keys)}
    gate_edges = [shared[key] for key in keys]
    counter = 0

    def fresh() -> int:
        nonlocal counter
        counter += 1
        return counter

    for q in circuit.qubits:
        for v in free_vertices if pinned is None else (pinned[q],):
            table.map_ids[(q, v)] = fresh()
    for g in gates:
        for t in windows[g.index]:
            table.exec_ids[(g.index, t)] = fresh()
    # a gate's path variables on one edge take consecutive ids over its
    # window: path(u, v, g, t) is first[g][j] + t, j the edge's index
    everyone = range(len(gates))
    first = [[0] * len(grid.tail) for _ in gates]
    pvar = table.path_ids
    users = zip(*(ge.usable for ge in gate_edges))  # per edge, a flag per gate
    for j, (u, v, usable) in enumerate(zip(grid.tail, grid.head, users)):
        u, v = vertex_of[u], vertex_of[v]
        for i in compress(everyone, usable):
            window = windows[i]
            first[i][j] = counter + 1 - window.start
            for t in window:
                counter += 1
                pvar[(u, v, i, t)] = counter
    table.num_named = counter

    mvar = table.map_ids
    evar = table.exec_ids
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
    for g in gates:
        clauses.extend(encode_eo([evar[(g.index, t)] for t in windows[g.index]], fresh))
    for i, j in circuit.dependencies.pairs:
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
            k = at[v]
            guards = [-mvar[(q, v)] for q in circuit.qubits]
            for i, ge in enumerate(gate_edges):
                f = first[i]
                pairs = [(f[a], f[b]) for a in ge.ins[k] for b in ge.outs[k]]
                for t in windows[i]:
                    for a, b in pairs:
                        for guard in guards:
                            add([guard, -a - t, -b - t])

    # vertex-disjointness. Out-degree is at most one per gate, vertex and
    # step where the gate's start qubit cannot sit: the clauses are built
    # once per gate on its ids at step 0 and shifted to each step of its
    # window (a vertex has at most four out-edges, few enough for
    # `encode_amo` to allocate no auxiliary variable). Then per step and
    # vertex, out-degree is at most one per start qubit that may sit there,
    # across its gates, and in-degree at most one across all gates.
    homes = [start for start, _ in keys]
    if pinned is not None:
        for i, ge in enumerate(gate_edges):
            f = first[i]
            amo = [c for k in rows if k != homes[i]
                   for c in encode_amo([f[j] for j in ge.outs[k]], fresh)]
            for t in windows[i]:
                clauses += [[a - t, b - t] for a, b in amo]
    for t in range(1, t_s + 1):
        active = [(i, gates[i].qubits[0], first[i], gate_edges[i].outs, gate_edges[i].ins)
                  for i in everyone if t in windows[i]]
        shared_at = {homes[i] for i, *_ in active}
        for k in rows:
            if pinned is None or k in shared_at:
                groups: dict[str, list[int]] = {}
                for i, q, f, outs, _ in active:
                    if outs[k] and homes[i] in (None, k):
                        groups.setdefault(q, []).extend([f[j] + t for j in outs[k]])
                for outgoing in groups.values():
                    clauses.extend(encode_amo(outgoing, fresh))
            incoming = [f[j] + t for _, _, f, _, ins in active for j in ins[k]]
            clauses.extend(encode_amo(incoming, fresh))

    # path construction per gate kind. The start and end clauses are
    # guarded by `unless`, so under a pinned map only the gate's own mapped
    # vertices, in `free_vertices` order, get one.
    flat, tail = grid.horizontal, grid.tail
    for g, ge, f in zip(gates, gate_edges, first):
        start_q, end_q = g.qubits[0], (g.qubits[1] if g.kind is GateKind.CNOT else None)
        stops = []
        for v in free_vertices if pinned is None else sorted(
                (pinned[q] for q in g.qubits), key=lambda v: (v[1], v[0])):
            k = at[v]
            # leave the start vertex through a vertical edge
            guard = unless(start_q, v)
            if guard is not None:
                stops.append((guard, [f[j] for j in ge.outs[k] if not flat[j]]))
            # enter the end vertex through a horizontal edge
            guard = None if end_q is None else unless(end_q, v)
            if guard is not None:
                stops.append((guard, [f[j] for j in ge.ins[k] if flat[j]]))
        # every used edge chains back toward the start vertex, or starts
        # there: the pinned start vertex satisfies the head
        home, ins = homes[g.index], ge.ins
        links = [(f[j], [f[x] for x in ins[tail[j]] if x != j ^ 1],
                  [mvar[(start_q, vertex_of[tail[j]])]] if home is None else [])
                 for j in compress(range(len(tail)), ge.usable) if tail[j] != home]
        # T gates end by entering some magic vertex horizontally
        entries = [f[j] for v in sorted(magic) for j in ge.ins[at[v]]] if end_q is None else None
        for t in windows[g.index]:
            e = evar[(g.index, t)]
            for guard, bases in stops:
                add(guard + [-e] + [b + t for b in bases])
            shift = t.__add__
            clauses += [[-b - t, *map(shift, back), *head] for b, back, head in links]
            if entries is not None:
                lits = [b + t for b in entries]
                add([-e] + lits)
                clauses.extend(encode_amo(lits, fresh))

    return CnfInstance(counter, clauses, table, t_s)


def route_literals(table: VarTable, circuit: Circuit, qmap: QubitMap,
                   route: GateRoute) -> list[int] | None:
    """The map, exec and path literals that `qmap` and `route` set true in
    the formula `table` names, in qubit, then gate and path order; under a
    pinned map only the pinned map literals exist. None when the formula has
    no variable for one of them: a gate's step outside its window at the
    formula's step count or, for a route `routing.validate` rejects, an edge
    no legal path of the gate uses or a map other than the pinned one. A
    valid route of at most `t_s` steps always has its literals, and they
    extend to a model of the formula."""
    lits = [table.map_ids.get((q, qmap[q])) for q in circuit.qubits]
    for g in circuit.gates:
        t = route.time[g.index]
        path = route.space[g.index]
        lits.append(table.exec_ids.get((g.index, t)))
        lits += [table.path_ids.get((u, v, g.index, t)) for u, v in zip(path, path[1:])]
    return None if None in lits else lits


# ---------------------------------------------------------------------------
# Model decoding
# ---------------------------------------------------------------------------

def decode(model, table: VarTable, circuit: Circuit, arch: Architecture) -> tuple[QubitMap, GateRoute]:
    """Rebuild (map, route) from true variables; spurious path cycles at
    non-execution steps are ignored by construction. Each gate's path starts
    at the cell id and may end at a cell of the bitset that its
    `routing.gate_requests` entry gives."""
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

    # each gate's true edges at its step, from cell id to cell id
    at, vertex_of = arch.cells.id_of, arch.cells.vertex_of
    succ: dict[tuple[int, int], int] = {}
    for (u, v, g, t), i in table.path_ids.items():
        if i in true_vars and time[g] == t:
            succ[(g, at[u])] = at[v]

    space: dict[int, tuple[Vertex, ...]] = {}
    for g, source, sinks in gate_requests(arch, circuit, qmap):
        path = [vertex_of[source]]
        cur = source
        for _ in range(arch.num_vertices):
            if (g.index, cur) not in succ:
                break
            cur = succ[(g.index, cur)]
            path.append(vertex_of[cur])
            if sinks >> cur & 1:
                break
        else:
            raise DecodeError(f"gate {g.index}: path does not terminate")
        if not sinks >> cur & 1:
            raise DecodeError(f"gate {g.index}: path ends at {vertex_of[cur]}")
        space[g.index] = tuple(path)

    steps = max(time.values(), default=0)
    return qmap, GateRoute(steps, time, space)
