"""Grid architectures with magic-state vertices and standard layouts.

Coordinate convention (fixed here once, used everywhere): a vertex is a pair
``(a, b)`` with ``1 <= a <= cols`` and ``1 <= b <= rows``. The first
coordinate is the column index, so *horizontal* neighbors differ by 1 in
``a`` and *vertical* neighbors differ by 1 in ``b``. Routing legality rules
("leave vertically, arrive horizontally") are stated in these terms.

A *regular mapping location* is a vertex centered in a 3x3 in-bounds,
magic-free subgrid; the location set is thinned to pairwise Chebyshev
distance >= 2 so each qubit keeps a private routing ring.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

Vertex = tuple[int, int]


class ArchitectureError(ValueError):
    pass


class _NeighborTable(dict):
    __slots__ = ("grid",)

    def __missing__(self, v):
        raise ArchitectureError(f"vertex {v} outside {self.grid} grid")


@dataclass(frozen=True)
class Architecture:
    rows: int                    # extent of the second coordinate b
    cols: int                    # extent of the first coordinate a
    magic: frozenset[Vertex]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ArchitectureError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")
        for v in self.magic:
            if not self.in_bounds(v):
                raise ArchitectureError(f"magic vertex {v} outside {self.cols}x{self.rows} grid")

    @property
    def num_vertices(self) -> int:
        return self.rows * self.cols

    def in_bounds(self, v: Vertex) -> bool:
        a, b = v
        return 1 <= a <= self.cols and 1 <= b <= self.rows

    def vertices(self):
        for b in range(1, self.rows + 1):
            for a in range(1, self.cols + 1):
                yield (a, b)

    def horizontal_neighbors(self, v: Vertex) -> list[Vertex]:
        self._check(v)
        a, b = v
        return [(c, b) for c in (a - 1, a + 1) if 1 <= c <= self.cols]

    def vertical_neighbors(self, v: Vertex) -> list[Vertex]:
        self._check(v)
        a, b = v
        return [(a, d) for d in (b - 1, b + 1) if 1 <= d <= self.rows]

    def neighbors(self, v: Vertex) -> list[Vertex]:
        return self.horizontal_neighbors(v) + self.vertical_neighbors(v)

    @cached_property
    def adjacency(self) -> MappingProxyType:
        """Read-only table: vertex -> tuple of its grid neighbors, sorted.

        Built once per instance on first use, for searches that expand many
        vertices; horizontal neighbors of v are those sharing v's second
        coordinate, vertical ones those sharing its first. Looking up an
        off-grid vertex raises ArchitectureError, as `neighbors` does.
        """
        table = _NeighborTable((v, tuple(sorted(self.neighbors(v)))) for v in self.vertices())
        table.grid = f"{self.cols}x{self.rows}"
        return MappingProxyType(table)

    def __getstate__(self):
        # Pickle and copy the fields only; a copy rebuilds its tables on use.
        return {"rows": self.rows, "cols": self.cols, "magic": self.magic}

    def edges(self):
        """Undirected grid edges as ordered pairs (u, v) with u < v."""
        for v in self.vertices():
            a, b = v
            if a + 1 <= self.cols:
                yield (v, (a + 1, b))
            if b + 1 <= self.rows:
                yield (v, (a, b + 1))

    def _check(self, v: Vertex):
        if not self.in_bounds(v):
            raise ArchitectureError(f"vertex {v} outside {self.cols}x{self.rows} grid")


def grid_distance(u: Vertex, v: Vertex) -> int:
    """Shortest-path distance on the full grid (L1)."""
    return abs(u[0] - v[0]) + abs(u[1] - v[1])


def custom_architecture(rows: int, cols: int, magic) -> Architecture:
    magic = list(magic)
    magic_set = frozenset(tuple(v) for v in magic)
    if len(magic_set) != len(magic):
        raise ArchitectureError("duplicate magic vertices")
    return Architecture(rows, cols, magic_set)


def regular_locations(arch: Architecture) -> tuple[Vertex, ...]:
    """Row-major greedy selection of 3x3-clear centers at pairwise L-inf >= 2."""
    return _regular_locations(arch.rows, arch.cols, arch.magic)


# Keyed by the grid's fields, not the Architecture, so the cache keeps no
# instance (nor the tables cached on it) alive.
@lru_cache(maxsize=64)
def _regular_locations(rows: int, cols: int, magic: frozenset[Vertex]) -> tuple[Vertex, ...]:
    kept: dict[Vertex, None] = {}          # insertion-ordered set
    for b in range(2, rows):
        for a in range(2, cols):
            box = [(a + da, b + db) for da in (-1, 0, 1) for db in (-1, 0, 1)]
            # A kept center within L-inf 1 of (a, b) lies in its 3x3 box.
            if not any(c in magic or c in kept for c in box):
                kept[(a, b)] = None
    return tuple(kept)


def _interior_side(num_qubits: int) -> int:
    if num_qubits < 1:
        raise ArchitectureError("need at least one qubit")
    r = math.isqrt(num_qubits)
    if r * r < num_qubits:
        r += 1
    return 2 * r + 1


def bordered_architecture(num_qubits: int) -> Architecture:
    """Magic-free interior of side 2*ceil(sqrt(n))+1 ringed by magic vertices."""
    s = _interior_side(num_qubits)
    side = s + 2
    ring = {(a, b) for a in range(1, side + 1) for b in range(1, side + 1)
            if a in (1, side) or b in (1, side)}
    return Architecture(side, side, frozenset(ring))


def right_column_architecture(num_qubits: int) -> Architecture:
    """Same interior sizing; magic vertices only in the rightmost column."""
    s = _interior_side(num_qubits)
    magic = frozenset((s + 1, b) for b in range(1, s + 1))
    arch = Architecture(s, s + 1, magic)
    _require_locations(arch, num_qubits)
    return arch


def center_column_architecture(num_qubits: int, widen: bool = False) -> Architecture:
    """Magic column down the exact center, circuit locations on both sides.

    The minimal sizing can leave too few regular locations (e.g. one qubit);
    widen=True grows the interior until the locations fit, otherwise that
    case raises.
    """
    s = _interior_side(num_qubits)
    while True:
        mid = (s + 3) // 2
        magic = frozenset((mid, b) for b in range(1, s + 1))
        arch = Architecture(s, s + 2, magic)
        if len(regular_locations(arch)) >= num_qubits:
            return arch
        if not widen:
            _require_locations(arch, num_qubits)
        s += 2


def _require_locations(arch: Architecture, num_qubits: int):
    have = len(regular_locations(arch))
    if have < num_qubits:
        raise ArchitectureError(
            f"architecture too small: {have} regular locations for {num_qubits} qubits"
        )


# ---------------------------------------------------------------------------
# JSON form: {"rows": R, "cols": C, "magic": [[a, b], ...]}, 1-based coords
# ---------------------------------------------------------------------------

def architecture_to_json(arch: Architecture) -> str:
    return json.dumps(
        {"rows": arch.rows, "cols": arch.cols, "magic": sorted([a, b] for a, b in arch.magic)},
        indent=None,
    )


def is_json_vertex(value) -> bool:
    """True for the JSON form of a vertex, a list of two integers."""
    return isinstance(value, list) and len(value) == 2 and all(type(x) is int for x in value)


def architecture_from_json(text: str) -> Architecture:
    data = json.loads(text)
    if not (isinstance(data, dict) and type(data.get("rows")) is int
            and type(data.get("cols")) is int and isinstance(data.get("magic"), list)
            and all(is_json_vertex(v) for v in data["magic"])):
        raise ArchitectureError('expected {"rows": int, "cols": int, "magic": [[a, b], ...]}')
    return custom_architecture(data["rows"], data["cols"], [tuple(v) for v in data["magic"]])
