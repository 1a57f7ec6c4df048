import itertools
import random

import pytest

import oracles
import scmr.bench
from scmr.architecture import Architecture, architecture_to_json, custom_architecture
from scmr.bench import (
    BenchError,
    EMPTY_FREE,
    FULL_BL,
    FULL_CENTER,
    FULL_FREE,
    FULL_TR,
    TILE,
    cycle_circuit,
    cycle_time_limit,
    dependency_circuit,
    job_gadget,
    known_optimal,
    ndp_to_scr,
    processor_unit_width,
    psp_to_scmr,
    random_circuit,
)
from scmr.circuit import Circuit, GateKind, depth, parse_circuit, serialize_circuit
from scmr.mapping import map_to_json

from oracles import all_labeled_posets, enumerate_legal_paths, hasse_edges, neighbors


# ---------------------------------------------------------------------------
# known_optimal
# ---------------------------------------------------------------------------

def test_known_optimal_full_density():
    c = known_optimal(2, 3, 1.0, seed=0)
    assert c.num_qubits == 6 and len(c.gates) == 6 and depth(c) == 2


def test_known_optimal_two_thirds_density():
    c = known_optimal(2, 3, 2 / 3, seed=0)
    assert len(c.gates) == 4 and depth(c) == 2  # one pair dropped per layer


def test_known_optimal_minimal():
    c = known_optimal(1, 1, 1.0, seed=3)
    assert len(c.gates) == 1 and c.gates[0].kind is GateKind.CNOT


@pytest.mark.parametrize("d,k,rho", [(3, 4, 0.25), (4, 2, 0.5), (5, 5, 0.75), (2, 7, 1.0)])
def test_known_optimal_depth_pinned(d, k, rho):
    c = known_optimal(d, k, rho, seed=11)
    assert depth(c) == d


def test_known_optimal_deterministic_and_validated():
    assert serialize_circuit(known_optimal(3, 3, 0.5, seed=4)) == \
        serialize_circuit(known_optimal(3, 3, 0.5, seed=4))
    with pytest.raises(BenchError):
        known_optimal(1, 1, 0.0)


# ---------------------------------------------------------------------------
# random_circuit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q,d", [(1, 1), (2, 5), (7, 3), (20, 20)])
def test_random_circuit_exact_shape(q, d):
    c = random_circuit(q, d, 0.3, seed=2)
    assert c.num_qubits == q and depth(c) == d


def test_random_circuit_single_qubit_is_t_chain():
    c = random_circuit(1, 3, 1.0, seed=0)
    assert [g.kind for g in c.gates] == [GateKind.T] * 3


def test_random_circuit_deterministic():
    a = random_circuit(6, 4, 0.4, seed=9)
    b = random_circuit(6, 4, 0.4, seed=9)
    assert serialize_circuit(a) == serialize_circuit(b)


def test_random_circuit_infeasible():
    with pytest.raises(BenchError):
        random_circuit(0, 3, 0.0, seed=0)
    for qubits, depth in ((5, -3), (-2, 0), (-1, 2)):
        with pytest.raises(BenchError, match=">= 0"):
            random_circuit(qubits, depth, 0.0, seed=0)
    assert len(random_circuit(0, 0, 0.0, seed=0).gates) == 0
    assert len(random_circuit(5, 0, 0.0, seed=0).gates) == 0


# ---------------------------------------------------------------------------
# job gadget / dependency circuit
# ---------------------------------------------------------------------------

def test_job_gadget_shapes():
    g3 = job_gadget("A", 3)
    assert len(g3.gates) == 7 and g3.num_qubits == 4
    g0 = job_gadget("A", 0)
    assert len(g0.gates) == 1 and g0.gates[0].kind is GateKind.T
    g1 = job_gadget("A", 1)
    assert [g.kind for g in g1.gates] == [GateKind.CNOT, GateKind.T, GateKind.CNOT]
    with pytest.raises(BenchError, match="^degree bound must be nonnegative$"):
        job_gadget("A", -1)


def _t_gate_order(circuit):
    """Pairs (a, b) with T-on-job-a preceding T-on-job-b in the dependency DAG."""
    n = len(circuit.gates)
    adj = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if circuit.gates[i].shares_qubit(circuit.gates[j]):
                adj[i][j] = True
    for k in range(n):
        for i in range(n):
            if adj[i][k]:
                row_k = adj[k]
                row_i = adj[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    t_of = {}
    for g in circuit.gates:
        if g.kind is GateKind.T and g.operand.startswith("q_") and g.operand.endswith("_0"):
            t_of[g.operand[2:-2]] = g.index
    return {(a, b) for a in t_of for b in t_of if a != b and adj[t_of[a]][t_of[b]]}


def test_dependency_circuit_fig8_shape():
    jobs = ["A", "B", "C", "D"]
    edges = [("A", "B"), ("A", "C"), ("A", "D")]
    c = dependency_circuit(jobs, edges)
    # 4 gadgets with d=3 (7 gates each) plus 3 transition CNOTs
    assert len(c.gates) == 4 * 7 + 3
    assert c.num_qubits == 16
    assert _t_gate_order(c) == {("A", "B"), ("A", "C"), ("A", "D")}


def test_dependency_circuit_single_job():
    c = dependency_circuit(["A"], [])
    assert len(c.gates) == 1


def test_dependency_circuit_chain():
    c = dependency_circuit(["A", "B"], [("A", "B")])
    assert _t_gate_order(c) == {("A", "B")}


def test_dependency_circuit_rejects_cycles_and_unknowns():
    with pytest.raises(BenchError):
        dependency_circuit(["A", "B"], [("A", "B"), ("B", "A")])
    with pytest.raises(BenchError):
        dependency_circuit(["A"], [("A", "Z")])
    with pytest.raises(BenchError):
        psp_to_scmr(["A"], [("A", "Z")], k=1, t_p=1)


def test_dependency_circuit_rejects_repeated_edge():
    # a repeated edge used to raise the degree bound and wire one transition twice
    for make in (lambda: dependency_circuit(["A", "B"], [("A", "B"), ("A", "B")]),
                 lambda: psp_to_scmr(["A", "B", "C"], [("A", "B"), ("B", "C"), ("A", "B")], 1, 1)):
        with pytest.raises(BenchError, match=r"^edge \(A, B\) is listed more than once$"):
            make()


@pytest.mark.parametrize("jobs, message", [
    ([1, "1"], "jobs 1 and '1' would share the qubits q_1_<i>"),
    (["A", "A-B"], "job 'A-B' cannot name qubits: use only letters, digits and _"),
    (["A B"], "job 'A B' cannot name qubits: use only letters, digits and _"),
    ([-1], "job -1 cannot name qubits: use only letters, digits and _"),
])
def test_dependency_circuit_rejects_job_ids_that_cannot_name_qubits(jobs, message):
    for make in (dependency_circuit, lambda jobs, edges: psp_to_scmr(jobs, edges, 1, 1)):
        with pytest.raises(BenchError) as e:
            make(jobs, [])
        assert str(e.value) == message


def test_dependency_circuit_rejects_repeated_jobs():
    # a repeated id would add a second gadget on the same qubits
    with pytest.raises(BenchError, match="more than once"):
        dependency_circuit([1, 1], [])
    with pytest.raises(BenchError, match="more than once"):
        psp_to_scmr(["A", "B", "A"], [("A", "B")], k=2, t_p=2)


# ---------------------------------------------------------------------------
# cycle circuit
# ---------------------------------------------------------------------------

def _chain_lengths(circuit):
    per_qubit = {}
    for g in circuit.gates:
        q = g.qubits[0]
        per_qubit[q] = per_qubit.get(q, 0) + 1
    return per_qubit


def test_cycle_circuit_fig10_example():
    c = cycle_circuit(3, 2, 2)
    assert cycle_time_limit(3, 2, 2) == 20
    lengths = _chain_lengths(c)
    assert lengths["cyc0_a"] == 20 and lengths["cyc1_a"] == 20


def test_cycle_circuit_tp1_has_no_gap_block():
    c = cycle_circuit(2, 3, 1)
    assert _chain_lengths(c)["cyc0_a"] == 5  # 2d+1


def test_cycle_circuit_small_formula():
    assert cycle_time_limit(1, 1, 2) == 7
    c = cycle_circuit(1, 1, 2)
    assert len(c.gates) == 7


@pytest.mark.parametrize("d,k,tp", [(0, 1, 3), (1, 2, 2), (2, 2, 3), (3, 1, 4)])
def test_cycle_circuit_every_gate_slack_zero(d, k, tp):
    c = cycle_circuit(d, k, tp)
    t_s = cycle_time_limit(d, k, tp)
    assert depth(c) == t_s
    depths, heights, _ = c.dependencies
    assert all(depths[i] + heights[i] - 1 == t_s for i in range(len(c.gates)))


def test_cycle_circuit_rejects_bad_params():
    with pytest.raises(BenchError):
        cycle_circuit(1, 0, 1)
    with pytest.raises(BenchError):
        cycle_circuit(1, 1, 0)


# ---------------------------------------------------------------------------
# scheduling reduction
# ---------------------------------------------------------------------------

def test_psp_to_scmr_running_example():
    jobs = ["A", "B", "C", "D"]
    edges = [("A", "B"), ("A", "C"), ("A", "D")]
    arch, circuit, t_s = psp_to_scmr(jobs, edges, k=2, t_p=2)
    assert t_s == 20
    assert len(arch.magic) == 2
    assert arch.rows == 4 and arch.cols == 2 * processor_unit_width(4)
    # magic vertex in the second row from the bottom, second column from the
    # right of each unit
    width = processor_unit_width(4)
    assert arch.magic == frozenset({(width - 1, 2), (2 * width - 1, 2)})


def test_psp_to_scmr_trivial():
    arch, circuit, t_s = psp_to_scmr(["J"], [], k=1, t_p=1)
    assert t_s == 1  # d=0: 2d+1 per step, no transitions
    assert len(arch.magic) == 1


# ---------------------------------------------------------------------------
# vertex gadgets
# ---------------------------------------------------------------------------

OPENINGS = [(3, 1), (1, 3), (3, 5), (5, 3)]


def _tile_arch(kind):
    free, mapped = (EMPTY_FREE, set()) if kind == "empty" else (
        FULL_FREE, {FULL_CENTER, FULL_BL, FULL_TR})
    magic = [
        (a, b) for a in range(1, TILE + 1) for b in range(1, TILE + 1)
        if (a, b) not in free and (a, b) not in mapped
    ]
    return custom_architecture(TILE, TILE, magic)


def _free_paths(arch, blocked, start, stop):
    """Simple paths start->stop avoiding blocked/magic interiors, both
    endpoints included, no orientation constraints."""
    out = []
    stack = [(start, (start,))]
    while stack:
        v, path = stack.pop()
        if v == stop:
            out.append(path)
            continue
        for u in neighbors(arch, v):
            if u in path or u in arch.magic or u in blocked:
                continue
            stack.append((u, path + (u,)))
    return out


def test_empty_gadget_through_paths_use_center():
    arch = _tile_arch("empty")
    for a, b in itertools.combinations(OPENINGS, 2):
        paths = _free_paths(arch, set(), a, b)
        assert paths, (a, b)
        assert all((3, 3) in p for p in paths)


def test_full_gadget_internal_route_exists_each_side_kept_open():
    arch = _tile_arch("full")
    mapped = {FULL_CENTER, FULL_BL, FULL_TR}
    internal = enumerate_legal_paths(arch, mapped, FULL_TR, {FULL_BL})
    assert internal
    # for every opening there is an internal routing that leaves it untouched
    for o in OPENINGS:
        assert any(o not in p for p in internal)


def test_full_gadget_one_through_fits_two_do_not():
    arch = _tile_arch("full")
    mapped = {FULL_CENTER, FULL_BL, FULL_TR}
    internal = enumerate_legal_paths(arch, mapped, FULL_TR, {FULL_BL})
    throughs = {}
    for a, b in itertools.combinations(OPENINGS, 2):
        throughs[(a, b)] = _free_paths(arch, mapped, a, b)

    one_fits = any(
        not set(r) & set(p)
        for r in internal for ps in throughs.values() for p in ps
    )
    assert one_fits

    for (p1key, p2key) in itertools.combinations(throughs, 2):
        if set(p1key) & set(p2key):
            continue  # a through pair must use four distinct openings
        for r in internal:
            for p1 in throughs[p1key]:
                if set(r) & set(p1):
                    continue
                for p2 in throughs[p2key]:
                    assert set(p2) & (set(r) | set(p1)), (p1key, p2key)


def test_ndp_to_scr_example_shape():
    arch, circuit, qmap = ndp_to_scr((2, 2), [((1, 1), (2, 2))])
    assert len(circuit.gates) == 3  # one external + two internals
    qs = [q for g in circuit.gates for q in g.qubits]
    assert len(qs) == len(set(qs))  # three disjoint qubit pairs
    assert arch.rows == 10 and arch.cols == 10
    assert qmap["src0"] == (3, 3) and qmap["tar0"] == (8, 8)


def test_ndp_to_scr_empty_pairs():
    arch, circuit, qmap = ndp_to_scr((2, 2), [])
    assert len(circuit.gates) == 0 and len(qmap) == 0
    free = arch.num_vertices - len(arch.magic)
    assert free == 4 * len(EMPTY_FREE)


def test_ndp_to_scr_rejects_repeated_vertex():
    with pytest.raises(BenchError):
        ndp_to_scr((2, 2), [((1, 1), (2, 2)), ((1, 1), (1, 2))])
    with pytest.raises(BenchError):
        ndp_to_scr((2, 2), [((1, 1), (3, 3))])


@pytest.mark.parametrize("pair", [((1.7, 1), (2, 2)), (("1", "1"), (2, 2)), ((True, 1), (2, 2)),
                                  ((1, 1), (2, 2, 1))])
def test_ndp_to_scr_rejects_non_integer_coordinates(pair):
    # coordinates used to go through int(), so (1.7, 1) became (1, 1)
    with pytest.raises(BenchError, match="is not two integers"):
        ndp_to_scr((2, 2), [pair])


@pytest.mark.parametrize("make, args, name", [
    (known_optimal, (2.0, 2), "d"), (known_optimal, (2, 2.5), "k"), (known_optimal, (True, 1), "d"),
    (random_circuit, (2.5, 2), "num_qubits"), (random_circuit, (2, 2.5), "depth"),
    (job_gadget, ("A", 1.5), "d"),
    (cycle_circuit, (1.5, 1, 1), "d"), (cycle_circuit, (1, 1.5, 1), "k"), (cycle_circuit, (1, 1, 1.5), "t_p"),
    (psp_to_scmr, (["A"], [], 1.5, 1), "k"), (psp_to_scmr, (["A"], [], 1, 2.5), "t_p"),
    (psp_to_scmr, (["A", "B"], [("A",)], 1, 1), "edge"),
    (dependency_circuit, (["A", "B"], [("A", "B", "C")]), "edge"),
    (ndp_to_scr, ((2.5, 2), []), "cols"), (ndp_to_scr, ((2, 2.5), []), "rows"),
    (ndp_to_scr, ((2, 2, 2), []), "dims"),
    (ndp_to_scr, ((2, 2), [((1, 1), (2, 2), (1, 2))]), "pair"), (ndp_to_scr, ((2, 2), [(1, 2)]), "pair"),
])
def test_generators_name_a_malformed_size_or_edge(make, args, name):
    # these ended in a bare TypeError or ValueError from range() or unpacking
    with pytest.raises(BenchError, match=rf"^{name} "):
        make(*args)


@pytest.mark.parametrize("make, args, kwargs, name", [
    (known_optimal, (2, 2, "0.5"), {}, "rho"), (known_optimal, (2, 2, None), {}, "rho"),
    (known_optimal, (2, 2, True), {}, "rho"), (known_optimal, (2, 2), {"seed": [1]}, "seed"),
    (known_optimal, (2, 2), {"seed": 1.0}, "seed"),
    (random_circuit, (2, 2, None), {}, "t_fraction"), (random_circuit, (2, 2, "0.5"), {}, "t_fraction"),
    (random_circuit, (2, 2, False), {}, "t_fraction"),
    (random_circuit, (2, 2, 0.5), {"seed": [1]}, "seed"),
    (random_circuit, (2, 2, 0.5), {"seed": None}, "seed"),
])
def test_generators_name_a_malformed_fraction_or_seed(make, args, kwargs, name):
    # these ended in a bare TypeError from a comparison or from random.Random
    with pytest.raises(BenchError, match=rf"^{name} must be "):
        make(*args, **kwargs)


def test_known_optimal_2_3_layering():
    from scmr.circuit import topological_layering

    c = known_optimal(2, 3, 1.0, seed=1)
    layers = topological_layering(c)
    assert len(layers) == 2 and all(len(l) == 3 for l in layers)


# ---------------------------------------------------------------------------
# differential: the reduction generators against the parent's, kept verbatim
# in tests/oracles.py; inputs that only the current generators reject (a
# repeated edge, a job id that cannot name qubits, a non-integer coordinate)
# are never drawn
# ---------------------------------------------------------------------------

def _outcome(make, *args, roundtrip=False):
    """The generated files' text and the time limit, or the error text. With
    `roundtrip`, a generated circuit must parse back to itself."""
    try:
        made = make(*args)
    except BenchError as e:
        return "error", str(e)
    out = []
    for part in made if isinstance(made, tuple) else (made,):
        if isinstance(part, Architecture):
            out.append(architecture_to_json(part))
        elif isinstance(part, Circuit):
            out.append(serialize_circuit(part))
            assert not roundtrip or parse_circuit(out[-1]) == part
        else:
            out.append(part if isinstance(part, int) else map_to_json(part))
    return tuple(out)


_FAULTS = ("listed more than once", "unknown job", "self-dependency", "cycle", "need k", "at least one job",
           "outside", "more than one pair", "at least 1x1")


def _kind(outcome) -> str:
    """The fault an error outcome names, or "ok"."""
    return "ok" if outcome[0] != "error" else next(f for f in _FAULTS if f in outcome[1])


def _assert_same(name, *args):
    """The generator `name` and its parent copy give the same outcome."""
    new = _outcome(getattr(scmr.bench, name), *args, roundtrip=True)
    assert new == _outcome(getattr(oracles, name), *args), (name, args)
    return new


def test_psp_matches_parent_generators_on_every_poset():
    # each poset's edge lists run with str ids in one job order and int ids
    # in the other, the pairing flipping from one poset to the next
    checked = 0
    for n in range(1, 6):
        for p, closure in enumerate(all_labeled_posets(n)):
            for edges in dict.fromkeys((tuple(hasse_edges(closure)), tuple(sorted(closure)))):
                for order, name in ((1, (str, int)[p % 2]), (-1, (int, str)[p % 2])):
                    jobs = [name(i) for i in range(n)][::order]
                    named = [(name(a), name(b)) for a, b in edges][::order]
                    assert _assert_same("psp_to_scmr", jobs, named, 1, 1)[0] != "error"
                    checked += 1
    assert checked > 16000


def test_psp_matches_parent_generators_on_random_digraphs():
    rng = random.Random(7)
    kinds = {}
    for _ in range(3000):
        n = rng.randint(0, 7)
        jobs = [rng.choice((i, str(i), f"J_{i}")) for i in range(n)]
        rng.shuffle(jobs)
        if jobs and rng.random() < 0.1:
            jobs.insert(rng.randrange(len(jobs) + 1), rng.choice(jobs))
        ends = jobs + ["nope"] * (rng.random() < 0.1)
        rank = {j: rng.random() for j in ends}
        dag = rng.random() < 0.5  # else edges point either way, so cycles are common
        edges = {}  # a dict, not a set, so the order is the same in every process
        for _ in range(rng.randint(0, 2 * n) if len(ends) > 1 else 0):
            a, b = rng.sample(ends, 2)
            edges[(a, b) if not dag or rank[a] < rank[b] else (b, a)] = None
        if ends and rng.random() < 0.05:
            edges[ends[0], ends[0]] = None
        edges = list(edges)
        rng.shuffle(edges)
        _assert_same("dependency_circuit", jobs, edges)
        k, t_p = rng.choice((0, 1, 1, 2, 3)), rng.choice((0, 1, 1, 2, 3))
        kind = _kind(_assert_same("psp_to_scmr", jobs, edges, k, t_p))
        kinds[kind] = kinds.get(kind, 0) + 1
    assert set(kinds) == {"ok", *_FAULTS[:6]} and min(kinds.values()) >= 30, kinds


def test_ndp_matches_parent_generator():
    rng = random.Random(8)
    kinds = {}
    for _ in range(3000):
        gw, gh = rng.choice((0, 1, 2, 2, 3, 3, 4)), rng.randint(1, 4)

        def vertex():
            if rng.random() < 0.05:
                return rng.choice((0, gw + 1)), rng.randint(0, gh + 1)
            v = rng.randint(1, max(gw, 1)), rng.randint(1, gh)
            return list(v) if rng.random() < 0.1 else v

        pairs = [(vertex(), vertex()) for _ in range(rng.randint(0, 4))]
        kind = _kind(_assert_same("ndp_to_scr", (gw, gh), pairs))
        kinds[kind] = kinds.get(kind, 0) + 1
    assert set(kinds) == {"ok", *_FAULTS[6:]} and min(kinds.values()) >= 100, kinds
