import copy
import gc
import json
import pickle
import random
import weakref

import pytest

from scmr.architecture import (
    ArchitectureError,
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


def test_neighbors_center_and_corner():
    arch = custom_architecture(3, 3, [])
    assert len(arch.neighbors((2, 2))) == 4
    assert len(arch.horizontal_neighbors((2, 2))) == 2
    assert len(arch.vertical_neighbors((2, 2))) == 2
    assert sorted(arch.neighbors((1, 1))) == [(1, 2), (2, 1)]


def test_horizontal_means_first_coordinate():
    arch = custom_architecture(3, 3, [])
    assert (2, 1) in arch.horizontal_neighbors((1, 1))
    assert (1, 2) in arch.vertical_neighbors((1, 1))
    for v in arch.vertices():
        assert not set(arch.horizontal_neighbors(v)) & set(arch.vertical_neighbors(v))


def test_neighbors_out_of_bounds():
    arch = custom_architecture(3, 3, [])
    with pytest.raises(ArchitectureError):
        arch.neighbors((0, 1))


@pytest.mark.parametrize("rows,cols", [(m, n) for m in range(1, 11) for n in range(1, 11)])
def test_edge_count_full_grid(rows, cols):
    arch = custom_architecture(rows, cols, [])
    edges = list(arch.edges())
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


def test_adjacency_table_matches_neighbors():
    arch = right_column_architecture(5)
    assert set(arch.adjacency) == set(arch.vertices())
    for v in arch.vertices():
        row = arch.adjacency[v]
        assert row == tuple(sorted(arch.neighbors(v)))
        assert [u for u in row if u[1] == v[1]] == arch.horizontal_neighbors(v)
        assert [u for u in row if u[0] == v[0]] == arch.vertical_neighbors(v)
    assert arch.adjacency is arch.adjacency
    with pytest.raises(ArchitectureError):
        arch.adjacency[(0, 1)]
    with pytest.raises(TypeError):
        arch.adjacency[(1, 1)] = ()


def test_architecture_copies_after_table_is_built():
    arch = bordered_architecture(4)
    arch.adjacency
    for again in (pickle.loads(pickle.dumps(arch)), copy.deepcopy(arch)):
        assert again == arch and hash(again) == hash(arch)
        assert again.adjacency == arch.adjacency


def test_architecture_freed_after_compile():
    # no module-level cache may keep a built architecture (and the tables
    # cached on it) alive
    from scmr.bench import random_circuit
    from scmr.mapping import struct_map
    from scmr.routing import greedy_route

    arch = bordered_architecture(9)
    circuit = random_circuit(9, 4, 0.2, seed=1)
    greedy_route(arch, circuit, struct_map(arch, circuit))
    assert regular_locations(arch) and arch.adjacency
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


def test_architecture_from_json_rejects_malformed_architectures():
    for text in ('{"rows": 5}', '[]', '{"rows": "5", "cols": 5, "magic": []}',
                 '{"rows": 5, "cols": 5, "magic": [[1]]}', '{"rows": 5, "cols": 5, "magic": 3}'):
        with pytest.raises(ArchitectureError):
            architecture_from_json(text)
