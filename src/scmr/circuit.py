"""Circuit IR: CNOT/T gate sequences with dependency analysis.

A circuit is an ordered list of gates over named qubits. Gate j depends on
gate i when i < j and the two act on a shared qubit; everything downstream
(depth, topological layers, interaction structure) derives from that relation.
`Circuit.dependencies` walks the qubit timelines once per circuit, on first
use, for each gate's depth and height and the pairs of gates adjacent on a
qubit; the depth, the greedy layers, the SAT windows and order clauses and
the validator's order check all read that one table.

Text format: one gate per statement, statements split on ';' or newline,
tokens whitespace-separated, `#` comments to end of line, case-insensitive
mnemonics `cnot <id> <id>` and `t <id>`. Qubit ids match
``[A-Za-z_][A-Za-z0-9_]*``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import NamedTuple

# Vertex used in interaction graphs for the magic-state side of T gates.
# None can never collide with a parsed qubit id.
T_VERTEX = None

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


class GateKind(Enum):
    CNOT = "cnot"
    T = "t"


class CircuitError(ValueError):
    pass


class ParseError(CircuitError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    qubits: tuple[str, ...]  # (control, target) for CNOT, (operand,) for T
    index: int

    def __post_init__(self):
        if self.kind is GateKind.CNOT:
            if len(self.qubits) != 2:
                raise CircuitError(f"CNOT takes two qubits, got {self.qubits}")
            if self.qubits[0] == self.qubits[1]:
                raise CircuitError(f"CNOT control and target must differ, got {self.qubits[0]!r} twice")
        else:
            if len(self.qubits) != 1:
                raise CircuitError(f"T takes one qubit, got {self.qubits}")

    @property
    def control(self) -> str:
        if self.kind is not GateKind.CNOT:
            raise CircuitError("control is only defined for CNOT gates")
        return self.qubits[0]

    @property
    def target(self) -> str:
        if self.kind is not GateKind.CNOT:
            raise CircuitError("target is only defined for CNOT gates")
        return self.qubits[1]

    @property
    def operand(self) -> str:
        if self.kind is not GateKind.T:
            raise CircuitError("operand is only defined for T gates")
        return self.qubits[0]

    def shares_qubit(self, other: "Gate") -> bool:
        return bool(set(self.qubits) & set(other.qubits))


@dataclass(frozen=True)
class Circuit:
    gates: tuple[Gate, ...]
    qubits: tuple[str, ...]  # first-appearance order

    def __len__(self) -> int:
        return len(self.gates)

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @cached_property
    def dependencies(self) -> Dependencies:
        """The gate dependency relation, built once per instance on first
        use; every reader of depths, heights or dependent pairs reads it."""
        return _dependencies(self.gates)

    def __getstate__(self):
        # Pickle and copy the fields only; a copy rebuilds its table on use.
        return {"gates": self.gates, "qubits": self.qubits}


def circuit_from_gates(specs) -> Circuit:
    """Build a circuit from (kind, qubits) pairs, assigning source indices.

    A CNOT on two distinct qubits or a T on one is checked here and built
    without `Gate.__init__`, setting the fields in declaration order as
    that would; any other spec goes through `Gate`, which raises its error.
    """
    new, put = object.__new__, object.__setattr__
    cnot_kind, t_kind = GateKind.CNOT, GateKind.T
    gates = []
    operands = []
    for i, (kind, qs) in enumerate(specs):
        qs = tuple(qs)
        if (len(qs) == 2 and qs[0] != qs[1]) if kind is cnot_kind else (kind is t_kind and len(qs) == 1):
            g = new(Gate)
            put(g, "kind", kind)
            put(g, "qubits", qs)
            put(g, "index", i)
        else:
            g = Gate(kind, qs, i)
        gates.append(g)
        operands.append(qs)
    # dict keys keep first-appearance order
    return Circuit(tuple(gates), tuple(dict.fromkeys(chain.from_iterable(operands))))


def cnot(control: str, target: str) -> tuple[GateKind, tuple[str, str]]:
    return (GateKind.CNOT, (control, target))


def tgate(operand: str) -> tuple[GateKind, tuple[str]]:
    return (GateKind.T, (operand,))


def parse_circuit(text: str, strict: bool = True) -> Circuit:
    """Parse circuit text; in lenient mode unknown one-qubit gates are dropped.

    A well-formed `cnot` or `t` statement in ASCII is accepted inline, where
    ``isidentifier()`` is the `_ID_RE` check (on ASCII text they accept the
    same words); every other statement goes to `_parse_statement`, which
    accepts it, drops it or words its error.
    """
    specs = []
    append = specs.append
    cnot_kind, t_kind = GateKind.CNOT, GateKind.T
    for line_no, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.split("#", 1)[0]
        col = 1
        for stmt in line.split(";"):
            tokens = stmt.split()
            if tokens:
                n, name = len(tokens), tokens[0].lower()
                if (n == 3 and name == "cnot" and tokens[1] != tokens[2] and stmt.isascii()
                        and tokens[1].isidentifier() and tokens[2].isidentifier()):
                    append((cnot_kind, (tokens[1], tokens[2])))
                elif n == 2 and name == "t" and stmt.isascii() and tokens[1].isidentifier():
                    append((t_kind, (tokens[1],)))
                else:
                    spec = _parse_statement(tokens, line_no, col + stmt.index(tokens[0]), strict)
                    if spec is not None:
                        append(spec)
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


def serialize_circuit(circuit: Circuit) -> str:
    lines = []
    for g in circuit.gates:
        lines.append(f"{g.kind.value} {' '.join(g.qubits)};")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Dependency structure
# ---------------------------------------------------------------------------

class Dependencies(NamedTuple):
    """A circuit's dependency relation, one entry per gate in gate order.

    `depths[i]` is 1 + the largest depth among earlier gates sharing a qubit
    with gate i; `heights[i]` is the length of the longest dependency chain
    starting at gate i. `pairs` holds (i, j), i < j, for each two gates
    adjacent in some qubit's timeline, in order of j, then of the qubit's
    place in gate j; a gate listed again on the same two qubits gives its
    pair twice. Ordering these pairs orders every two gates sharing a qubit.
    """
    depths: tuple[int, ...]
    heights: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]


def _dependencies(gates) -> Dependencies:
    """One forward pass over the qubit timelines gives each gate's pairs and
    depth (its predecessors' depths are final, and the latest gate on a
    qubit is the deepest there); a pass over the pairs in reverse, where
    each gate's successors come before it, gives the heights."""
    last: dict[str, int] = {}   # qubit -> index of its latest gate so far
    get = last.get
    depths: list[int] = []
    pairs: list[tuple[int, int]] = []
    for j, g in enumerate(gates):   # gate j has index j
        d = 0
        for q in g.qubits:
            i = get(q)
            if i is not None:
                pairs.append((i, j))
                if depths[i] > d:
                    d = depths[i]
            last[q] = j
        depths.append(d + 1)
    heights = [1] * len(depths)
    for i, j in reversed(pairs):
        if heights[j] >= heights[i]:
            heights[i] = heights[j] + 1
    return Dependencies(tuple(depths), tuple(heights), tuple(pairs))


def depth(circuit: Circuit) -> int:
    return max(circuit.dependencies.depths, default=0)


def topological_layering(circuit: Circuit) -> tuple[tuple[int, ...], ...]:
    """Gate indices by depth: layer i holds the gates at depth i + 1, in gate order."""
    depths = circuit.dependencies.depths
    layers: list[list[int]] = [[] for _ in range(max(depths, default=0))]
    for i, d in enumerate(depths):   # gate i has index i
        layers[d - 1].append(i)
    return tuple(map(tuple, layers))


# ---------------------------------------------------------------------------
# Interaction structure (used by the structural mapper)
# ---------------------------------------------------------------------------

def interaction_graph(circuit: Circuit) -> tuple[tuple, ...]:
    """The undirected qubit-interaction edges, deduplicated, in first-appearance
    order: (control, target) per CNOT and (T_VERTEX, qubit) per T gate."""
    edges = []
    seen: set[tuple] = set()   # each kept edge, in both directions
    cnot_kind = GateKind.CNOT
    for g in circuit.gates:
        e = g.qubits if g.kind is cnot_kind else (T_VERTEX, g.qubits[0])
        if e not in seen:
            seen.add(e)
            seen.add(e[::-1])
            edges.append(e)
    return tuple(edges)


def interaction_chain_set(qubits, edges) -> tuple[tuple, ...]:
    """Greedy single pass over `edges`: add an edge iff the result is still a
    disjoint set of paths with at most one T_VERTEX edge per path. Each
    chain is a tuple of vertices, T_VERTEX only at one end.

    ``end_of`` has a key for every qubit already on a chain: its chain while
    the qubit is one of the chain's two ends, None once it is interior. A T
    edge is read as ``(qubit, T_VERTEX)``; T_VERTEX is never a key, so a
    T-capped end takes nothing more, and a chain has its T edge exactly when
    T_VERTEX sits at one of its ends. A merge keeps the joined chain in x's
    slot and empties y's, so chains come out in the order of their first
    edge, followed by the `qubits` that no edge placed, in their order.
    """
    chains: list[list] = []
    end_of: dict = {}

    def capped(chain) -> bool:
        return chain[0] is T_VERTEX or chain[-1] is T_VERTEX

    for x, y in edges:
        if x is T_VERTEX or (x not in end_of and y in end_of):
            x, y = y, x  # x is the placed endpoint when there is one
        if x not in end_of:
            chain = [x, y]
            chains.append(chain)
            end_of[x] = chain
            if y is not T_VERTEX:
                end_of[y] = chain
            continue
        cx = end_of[x]
        if cx is None:
            continue
        if y not in end_of:
            if y is T_VERTEX and capped(cx):
                continue
            if cx[0] == x:
                cx.insert(0, y)
            else:
                cx.append(y)
            end_of[x] = None
            if y is not T_VERTEX:
                end_of[y] = cx
            continue
        cy = end_of[y]
        if cy is None or cy is cx or capped(cx) and capped(cy):
            continue
        if cx[-1] != x:
            cx.reverse()
        if cy[0] != y:
            cy.reverse()
        cx += cy
        cy.clear()
        end_of[x] = end_of[y] = None
        if cx[-1] is not T_VERTEX:
            end_of[cx[-1]] = cx

    out = [tuple(c) for c in chains if c]
    out += [(q,) for q in qubits if q not in end_of]
    return tuple(out)
