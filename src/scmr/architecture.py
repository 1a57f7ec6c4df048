"""Grid architectures with magic-state vertices and standard layouts.

Coordinate convention (fixed here once, used everywhere): a vertex is a pair
``(a, b)`` with ``1 <= a <= cols`` and ``1 <= b <= rows``. The first
coordinate is the column index, so *horizontal* neighbors differ by 1 in
``a`` and *vertical* neighbors differ by 1 in ``b``. Routing legality rules
("leave vertically, arrive horizontally") are stated in these terms.

A *regular mapping location* is a vertex centered in a 3x3 in-bounds,
magic-free subgrid; the location set is thinned to pairwise Chebyshev
distance >= 2 so each qubit keeps a private routing ring.

`Architecture.cells`, a `CellIndex` built once per instance, is the grid's
one adjacency source: a padded integer id per cell, so neighbors are fixed
id offsets (horizontal ``± stride``, vertical ``± 1``) and a border of
never-free padding ids replaces bounds checks. The routing search (over its
bitset of free cells), the mapper's distance BFS and the SAT encoder's
neighbor lists and edges all read it, and all name a vertex by its cell id:
the encoder's formula vertex indices are cell ids too.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

Vertex = tuple[int, int]

# The most cells (rows * cols) a grid may have. Its cell index holds a few
# objects per cell, so a grid past this ends in GridTooLarge instead of
# exhausting memory; the largest harness grid, 43 x 43, is 1,849 cells.
MAX_CELLS = 1_000_000


class ArchitectureError(ValueError):
    pass


class GridTooLarge(ArchitectureError):
    """A grid of more than MAX_CELLS cells: the command line reports it as
    a usage error (exit 1), whether the grid came from a file, a generator
    or a built-in layout, not as an infeasible instance."""


def check_grid_size(rows: int, cols: int) -> None:
    """GridTooLarge when a rows x cols grid would have more than MAX_CELLS
    cells; the generators call it before they lay out a grid's cells."""
    if rows * cols > MAX_CELLS:
        raise GridTooLarge(f"grid {cols}x{rows} has more than {MAX_CELLS} cells")


class _IdTable(dict):
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
        check_grid_size(self.rows, self.cols)
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

    @cached_property
    def cells(self) -> CellIndex:
        """Padded integer index of the grid, built once per instance on first
        use; the grid's one adjacency source."""
        return CellIndex.of(self)

    def __getstate__(self):
        # Pickle and copy the fields only; a copy rebuilds its index on use.
        return {"rows": self.rows, "cols": self.cols, "magic": self.magic}


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")   # cell flag byte -> base-2 digit


@dataclass(frozen=True)
class CellIndex:
    """Padded integer ids of a grid's cells.

    Cell ``(a, b)`` has id ``a * stride + b`` with ``stride = rows + 2``, for
    ``0 <= a <= cols + 1`` and ``0 <= b <= rows + 1``. Ids with ``a`` or
    ``b`` outside the grid are padding: they ring the grid, so every
    in-bounds cell has four neighbor ids and a search needs no bounds check.
    Id order is vertex tuple order. The neighbors of id ``i`` in sorted
    order are ``i - stride, i - 1, i + 1, i + stride``; the horizontal ones
    (same second coordinate) are ``i ± stride`` and the vertical ones
    ``i ± 1``.

    `free` is a cell bitset: bit ``i`` of the integer is set at the in-bounds
    non-magic cells and clear elsewhere, padding too. Shifting a bitset by
    ``stride`` or 1 moves every cell to a neighbor at once, and the padding
    bits, never set, stop a shift from wrapping across the border. `magic`
    is the bitset of the magic cells, a T gate's routing sinks.
    """
    stride: int
    id_of: MappingProxyType              # in-bounds vertex -> id; off-grid raises ArchitectureError
    vertex_of: tuple[Vertex | None, ...]  # id -> vertex, None at padding
    free: int                            # bit i set at in-bounds non-magic cells
    magic: int                           # bit i set at magic cells

    @classmethod
    def of(cls, arch: Architecture) -> CellIndex:
        stride = arch.rows + 2
        vertex_of: list[Vertex | None] = [None] * ((arch.cols + 2) * stride)
        free = bytearray(len(vertex_of))
        id_of = _IdTable()
        id_of.grid = f"{arch.cols}x{arch.rows}"
        for a in range(1, arch.cols + 1):
            for b in range(1, arch.rows + 1):
                i = a * stride + b
                vertex_of[i] = v = (a, b)
                id_of[v] = i
                free[i] = v not in arch.magic
        # one base-2 digit per cell, highest id first, parsed in C
        bits = int(free[::-1].translate(_DIGITS), 2)
        return cls(stride, MappingProxyType(id_of), tuple(vertex_of), bits,
                   sum(1 << id_of[v] for v in arch.magic))


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
