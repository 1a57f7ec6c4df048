import copy
import dataclasses
import gc
import json
import math
import pickle
import random
import weakref

import pytest

from scmr.architecture import (
    MAX_CELLS,
    ArchitectureError,
    GridTooLarge,
    architecture_from_json,
    architecture_to_json,
    bordered_architecture,
    center_column_architecture,
    custom_architecture,
    grid_distance,
    regular_locations,
    right_column_architecture,
)

import oracles


def _cell_neighbors(arch, v):
    """(horizontal, vertical) neighbors of v read from the cell index: ids
    i - stride, i + stride, then i - 1, i + 1, padding left out."""
    cells = arch.cells
    i, s = cells.id_of[v], cells.stride
    pick = lambda ids: [cells.vertex_of[j] for j in ids if cells.vertex_of[j] is not None]
    return pick((i - s, i + s)), pick((i - 1, i + 1))


def _cell_edges(arch):
    """Undirected edges read from the cell index: each cell to its i + stride
    and i + 1 neighbors."""
    cells = arch.cells
    for v in arch.vertices():
        i = cells.id_of[v]
        for j in (i + cells.stride, i + 1):
            if cells.vertex_of[j] is not None:
                yield (v, cells.vertex_of[j])


def test_neighbors_center_and_corner():
    arch = custom_architecture(3, 3, [])
    horizontal, vertical = _cell_neighbors(arch, (2, 2))
    assert len(horizontal) == 2 and len(vertical) == 2
    assert sorted(sum(_cell_neighbors(arch, (1, 1)), [])) == [(1, 2), (2, 1)]


def test_horizontal_means_first_coordinate():
    arch = custom_architecture(3, 3, [])
    horizontal, vertical = _cell_neighbors(arch, (1, 1))
    assert (2, 1) in horizontal and (1, 2) in vertical
    for v in arch.vertices():
        horizontal, vertical = _cell_neighbors(arch, v)
        assert not set(horizontal) & set(vertical)


def test_neighbors_out_of_bounds():
    arch = custom_architecture(3, 3, [])
    with pytest.raises(ArchitectureError):
        arch.cells.id_of[(0, 1)]
    with pytest.raises(ArchitectureError):
        oracles.neighbors(arch, (0, 1))


@pytest.mark.parametrize("rows,cols", [(m, n) for m in range(1, 11) for n in range(1, 11)])
def test_edge_count_full_grid(rows, cols):
    arch = custom_architecture(rows, cols, [])
    edges = list(_cell_edges(arch))
    assert edges == list(oracles.edges(arch))
    assert len(edges) == rows * (cols - 1) + cols * (rows - 1)
    undirected = {frozenset(e) for e in edges}
    assert len(undirected) == len(edges)  # symmetric relation, no duplicates


def test_custom_architecture():
    arch = custom_architecture(3, 3, [])
    assert arch.num_vertices == 9 and not arch.magic
    fig5 = custom_architecture(3, 4, [(4, 1), (4, 2), (4, 3)])
    assert fig5.magic == frozenset({(4, 1), (4, 2), (4, 3)})
    all_magic = custom_architecture(2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)])
    assert len(all_magic.magic) == 4
    with pytest.raises(ArchitectureError):
        custom_architecture(3, 3, [(1, 1), (1, 1)])
    with pytest.raises(ArchitectureError):
        custom_architecture(3, 3, [(0, 5)])


def test_bordered_architecture_sizing():
    a4 = bordered_architecture(4)
    assert (a4.rows, a4.cols) == (7, 7)  # interior 5x5 plus the magic ring
    assert len(regular_locations(a4)) == 4
    a1 = bordered_architecture(1)
    assert (a1.rows, a1.cols) == (5, 5)
    assert regular_locations(a1) == ((3, 3),)
    a9 = bordered_architecture(9)
    assert (a9.rows, a9.cols) == (9, 9)  # interior 7x7
    with pytest.raises(ArchitectureError, match="^need at least one qubit$"):
        bordered_architecture(0)


def test_bordered_border_is_magic():
    arch = bordered_architecture(4)
    for v in arch.vertices():
        on_border = v[0] in (1, arch.cols) or v[1] in (1, arch.rows)
        assert (v in arch.magic) == on_border


def test_right_column_architecture():
    arch = right_column_architecture(4)
    assert (arch.rows, arch.cols) == (5, 6)
    assert arch.magic == frozenset((6, b) for b in range(1, 6))  # one column, height 5
    assert len(regular_locations(arch)) >= 4


def test_center_column_architecture():
    with pytest.raises(ArchitectureError):
        center_column_architecture(1)
    widened = center_column_architecture(1, widen=True)
    assert len(regular_locations(widened)) >= 1

    arch = center_column_architecture(4)
    mid = (arch.cols + 1) // 2
    assert arch.magic == frozenset((mid, b) for b in range(1, arch.rows + 1))
    locs = regular_locations(arch)
    assert len(locs) >= 4
    assert any(a < mid for a, _ in locs) and any(a > mid for a, _ in locs)


@pytest.mark.parametrize("make", [bordered_architecture, right_column_architecture,
                                  lambda n: center_column_architecture(n, widen=True)])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 9, 16, 25])
def test_regular_location_properties(make, n):
    arch = make(n)
    locs = regular_locations(arch)
    assert len(locs) >= n
    # the mappers take these unchecked: (int, int) tuples, none repeated
    assert all(type(v) is tuple and len(v) == 2 and all(type(x) is int for x in v) for v in locs)
    assert len(set(locs)) == len(locs)
    for a, b in locs:
        box = [(a + da, b + db) for da in (-1, 0, 1) for db in (-1, 0, 1)]
        assert all(arch.in_bounds(c) and c not in arch.magic for c in box)
    for i, u in enumerate(locs):
        for v in locs[i + 1:]:
            assert max(abs(u[0] - v[0]), abs(u[1] - v[1])) >= 2


def test_regular_locations_match_all_pairs_oracle():
    builds = [make(n) for n in range(1, 41)
              for make in (bordered_architecture, right_column_architecture,
                           lambda n: center_column_architecture(n, widen=True))]
    rng = random.Random(5)
    for _ in range(60):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        cells = [(a, b) for a in range(1, cols + 1) for b in range(1, rows + 1)]
        builds.append(custom_architecture(rows, cols, rng.sample(cells, rng.randint(0, len(cells) // 4))))
    for arch in builds:
        assert regular_locations(arch) == oracles.regular_locations(arch), arch


def test_cell_index_matches_neighbors():
    arch = right_column_architecture(5)
    cells = arch.cells
    s = cells.stride
    assert set(cells.id_of) == set(arch.vertices())
    assert sorted(cells.id_of, key=cells.id_of.get) == sorted(arch.vertices())  # id order is tuple order
    for v in arch.vertices():
        i = cells.id_of[v]
        assert cells.vertex_of[i] == v
        row = [cells.vertex_of[j] for j in (i - s, i - 1, i + 1, i + s)]
        assert [u for u in row if u is not None] == sorted(oracles.neighbors(arch, v))
        assert [u for u in (cells.vertex_of[i - s], cells.vertex_of[i + s]) if u] == oracles.horizontal_neighbors(arch, v)
        assert [u for u in (cells.vertex_of[i - 1], cells.vertex_of[i + 1]) if u] == oracles.vertical_neighbors(arch, v)
        assert cells.free >> i & 1 == (v not in arch.magic)
    padding = [i for i, v in enumerate(cells.vertex_of) if v is None]
    assert len(padding) == len(cells.vertex_of) - arch.num_vertices
    assert not any(cells.free >> i & 1 for i in padding)
    assert cells.free >> len(cells.vertex_of) == 0   # no bit past the last id
    assert arch.cells is cells
    with pytest.raises(ArchitectureError):
        cells.id_of[(0, 1)]
    with pytest.raises(ArchitectureError):
        cells.id_of[(arch.cols + 1, 1)]
    with pytest.raises(TypeError):
        cells.id_of[(1, 1)] = 0
    with pytest.raises(TypeError):
        cells.free[0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        cells.stride = 1


def test_architecture_copies_after_index_is_built():
    arch = bordered_architecture(4)
    arch.cells
    for again in (pickle.loads(pickle.dumps(arch)), copy.deepcopy(arch)):
        assert again == arch and hash(again) == hash(arch)
        assert vars(again) == {"rows": arch.rows, "cols": arch.cols, "magic": arch.magic}
        assert again.cells == arch.cells


def test_architecture_freed_after_compile():
    # no module-level cache may keep a built architecture (and the index
    # cached on it) alive
    from scmr.bench import random_circuit
    from scmr.mapping import struct_map
    from scmr.routing import greedy_route

    arch = bordered_architecture(9)
    circuit = random_circuit(9, 4, 0.2, seed=1)
    greedy_route(arch, circuit, struct_map(arch, circuit))
    assert regular_locations(arch) and "cells" in vars(arch)
    ref = weakref.ref(arch)
    del arch
    gc.collect()
    assert ref() is None


def test_grid_distance():
    assert grid_distance((1, 1), (3, 4)) == 5
    assert grid_distance((2, 2), (2, 2)) == 0


def test_json_roundtrip():
    arch = right_column_architecture(4)
    again = architecture_from_json(architecture_to_json(arch))
    assert again == arch
    data = json.loads(architecture_to_json(arch))
    assert set(data) == {"rows", "cols", "magic"}


def test_architecture_from_json_rejects_grids_past_the_cell_cap():
    # rejected before any table is built: the cell index of a 2**70-column
    # grid cannot be sized at all, and a 30,000 x 30,000 one not held
    for rows, cols in ((5, 2 ** 70), (30_000, 30_000), (1, MAX_CELLS + 1)):
        with pytest.raises(GridTooLarge, match=f"more than {MAX_CELLS} cells"):
            architecture_from_json(json.dumps({"rows": rows, "cols": cols, "magic": []}))
    # the cap holds for every way a grid is built, the layouts included
    with pytest.raises(GridTooLarge, match="grid 1001x1001 has more than"):
        bordered_architecture(248_005)
    assert issubclass(GridTooLarge, ArchitectureError)
    side = math.isqrt(MAX_CELLS)
    assert side * side == MAX_CELLS
    assert architecture_from_json(json.dumps({"rows": side, "cols": side, "magic": []})).num_vertices == MAX_CELLS


def test_architecture_from_json_rejects_malformed_architectures():
    for text in ('{"rows": 5}', '[]', '{"rows": "5", "cols": 5, "magic": []}',
                 '{"rows": 5, "cols": 5, "magic": [[1]]}', '{"rows": 5, "cols": 5, "magic": 3}',
                 '{"rows": 0, "cols": 5, "magic": []}'):
        with pytest.raises(ArchitectureError):
            architecture_from_json(text)
