"""CNF encoding of mapping-and-routing decision instances.

Variables:
  map(q, v)        qubit q sits at non-magic vertex v
  exec(g, t)       gate g runs at step t
  path(u, v, g, t) directed grid edge (u, v) carries gate g's route at step t

Constraint families: injective total mapping; exactly-one execution step per
gate with dependent gates strictly ordered; routed edges never pass through
mapped or magic vertices; per-vertex in/out degree at most one per step
across all gates; inductive path-connectivity from each gate's start vertex
(left through a vertical edge) to its end vertex (entered through a
horizontal edge, the mapped target for CNOT, any magic vertex for T).

Gate execution steps are restricted to the feasible window
[dependency depth, t_s - height + 1]; `prune=False` keeps the full range.
A T gate enters at most one magic vertex per step, and at least one at the
step it executes.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ..architecture import Architecture, Vertex
from ..circuit import Circuit, GateKind, consecutive_qubit_pairs, gate_depths, gate_heights
from ..mapping import QubitMap
from ..routing import GateRoute
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
    num_total: int = 0

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
    num_vars: int
    clauses: list[list[int]]
    table: VarTable
    t_s: int
    diagnostic: str = ""

    def __post_init__(self):
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range 1..{self.num_vars}")


def _directed_edges(arch: Architecture):
    for u, v in arch.edges():
        yield (u, v)
        yield (v, u)


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
        table.num_total = 1
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
    neigh = {v: arch.neighbors(v) for v in arch.vertices()}
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
                vertical = [pvar[(v, u, g.index, t)] for u in arch.vertical_neighbors(v)]
                add([-mvar[(start_q, v)], -e] + vertical)
                if end_q is not None:
                    horizontal = [pvar[(u, v, g.index, t)] for u in arch.horizontal_neighbors(v)]
                    add([-mvar[(end_q, v)], -e] + horizontal)
            # every used edge chains back toward the start vertex
            for u, v in _directed_edges(arch):
                back = [pvar[(w, u, g.index, t)] for w in neigh[u] if w != v]
                head = [mvar[(start_q, u)]] if u not in arch.magic else []
                add([-pvar[(u, v, g.index, t)]] + back + head)
            if end_q is None:
                # T gates end by entering some magic vertex horizontally
                entries = [pvar[(u, v, g.index, t)] for v in sorted(arch.magic)
                           for u in arch.horizontal_neighbors(v)]
                add([-e] + entries)
                clauses.extend(encode_amo(entries, fresh))

    table.num_total = counter
    return CnfInstance(counter, clauses, table, t_s)


# ---------------------------------------------------------------------------
# Model decoding
# ---------------------------------------------------------------------------

def decode(model, table: VarTable, circuit: Circuit, arch: Architecture) -> tuple[QubitMap, GateRoute]:
    """Rebuild (map, route) from true variables; spurious path cycles at
    non-execution steps are ignored by construction."""
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
    for g in circuit.gates:
        t = time[g.index]
        if g.kind is GateKind.CNOT:
            start, stop = qmap[g.control], qmap[g.target]
            stop_at_magic = False
        else:
            start, stop = qmap[g.operand], None
            stop_at_magic = True
        path = [start]
        cur = start
        for _ in range(arch.num_vertices):
            if (g.index, t, cur) not in succ:
                break
            cur = succ[(g.index, t, cur)]
            path.append(cur)
            if stop_at_magic and cur in arch.magic:
                break
            if not stop_at_magic and cur == stop:
                break
        else:
            raise DecodeError(f"gate {g.index}: path does not terminate")
        ok_end = (cur in arch.magic) if stop_at_magic else (cur == stop)
        if not ok_end:
            raise DecodeError(f"gate {g.index}: path ends at {cur}")
        space[g.index] = tuple(path)

    steps = max(time.values(), default=0)
    return qmap, GateRoute(steps, time, space)
