import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from scmr.bench import known_optimal, ndp_to_scr, psp_to_scmr, random_circuit
from scmr.circuit import (
    Circuit,
    CircuitError,
    GateKind,
    ParseError,
    T_VERTEX,
    circuit_from_gates,
    cnot,
    depth,
    interaction_chain_set,
    interaction_graph,
    parse_circuit,
    serialize_circuit,
    tgate,
    topological_layering,
)


def test_parse_basic():
    c = parse_circuit("CNOT q0 q1; T q2;")
    assert len(c.gates) == 2
    assert c.qubits == ("q0", "q1", "q2")
    assert c.gates[0].kind is GateKind.CNOT
    assert c.gates[0].control == "q0" and c.gates[0].target == "q1"
    assert c.gates[1].operand == "q2"


def test_parse_empty():
    c = parse_circuit("")
    assert len(c.gates) == 0 and c.qubits == ()
    assert depth(c) == 0


def test_parse_self_loop_rejected():
    with pytest.raises(ParseError):
        parse_circuit("CNOT q0 q0;")


def test_parse_newlines_comments_case():
    c = parse_circuit("# header\n cNoT a b  # trailing\nT c\n\n;;\nt a")
    assert [(g.kind, g.qubits) for g in c.gates] == [
        (GateKind.CNOT, ("a", "b")), (GateKind.T, ("c",)), (GateKind.T, ("a",)),
    ]


def test_parse_unknown_gate_strict_vs_lenient():
    with pytest.raises(ParseError):
        parse_circuit("h q0; cnot q0 q1")
    c = parse_circuit("h q0; cnot q0 q1", strict=False)
    assert len(c.gates) == 1
    with pytest.raises(ParseError):
        parse_circuit("swap q0 q1", strict=False)  # unknown two-qubit gates never dropped


def test_parse_error_position():
    with pytest.raises(ParseError) as e:
        parse_circuit("cnot q0 q1;\ncnot q2")
    assert e.value.line == 2


def test_parse_bad_identifier():
    with pytest.raises(ParseError):
        parse_circuit("t 0q")


def test_gate_arity_checks():
    with pytest.raises(CircuitError):
        circuit_from_gates([(GateKind.T, ("a", "b"))])
    with pytest.raises(CircuitError):
        circuit_from_gates([(GateKind.CNOT, ("a",))])


def test_depth_examples():
    assert depth(parse_circuit("CNOT q0 q1; T q2;")) == 1
    assert depth(parse_circuit("")) == 0
    chain = parse_circuit("cnot q0 q1; cnot q1 q2")
    assert depth(chain) == 2


def test_layering_examples():
    fig1 = parse_circuit("CNOT q0 q1; T q2;")
    assert topological_layering(fig1) == ((0, 1),)
    chain = parse_circuit("cnot q0 q1; cnot q1 q2")
    assert topological_layering(chain) == ((0,), (1,))


def test_layering_matches_depth_and_disjointness():
    c = parse_circuit("cnot a b; t c; cnot b c; t a; cnot a c")
    layers = topological_layering(c)
    assert len(layers) == depth(c)
    for layer in layers:
        qs = [q for i in layer for q in c.gates[i].qubits]
        assert len(qs) == len(set(qs))
    depths = c.dependencies.depths
    for i, layer in enumerate(layers, start=1):
        assert all(depths[g] == i for g in layer)


def _transitive_closure(pairs):
    closure = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for b2, c in list(closure):
                if b == b2 and (a, c) not in closure:
                    closure.add((a, c))
                    changed = True
    return closure


def test_dependency_order_is_strict_partial_order_small():
    # closing the consecutive pairs gives the same order as closing the full
    # shared-qubit relation, and the result is irreflexive/asymmetric
    c = parse_circuit("cnot a b; t b; cnot b c; t a; cnot c a")
    direct = {(i, j) for i in range(len(c.gates)) for j in range(len(c.gates))
              if i < j and c.gates[i].shares_qubit(c.gates[j])}
    closure = _transitive_closure(c.dependencies.pairs)
    assert closure == _transitive_closure(direct)
    assert direct <= closure
    assert all(i < j for i, j in closure)


def test_interaction_graph_fig6():
    c = parse_circuit("t q0; cnot q0 q1; cnot q0 q2")
    edges = interaction_graph(c)
    assert set(map(frozenset, edges)) == {
        frozenset({T_VERTEX, "q0"}), frozenset({"q0", "q1"}), frozenset({"q0", "q2"}),
    }


def test_interaction_graph_no_t_and_dedup():
    edges = interaction_graph(parse_circuit("cnot q0 q1; cnot q0 q1"))
    assert edges == (("q0", "q1"),)


def test_chain_set_fig6():
    c = parse_circuit("t q0; cnot q0 q1; cnot q0 q2")
    chains = interaction_chain_set(c.qubits, interaction_graph(c))
    normalized = {ch if ch[0] is not T_VERTEX else tuple(reversed(ch)) for ch in chains}
    assert normalized == {("q1", "q0", T_VERTEX), ("q2",)}


def test_chain_set_two_disjoint_cnots():
    c = parse_circuit("cnot q0 q1; cnot q2 q3")
    chains = interaction_chain_set(c.qubits, interaction_graph(c))
    assert sorted(chains) == [("q0", "q1"), ("q2", "q3")]


def test_chain_set_empty():
    assert interaction_chain_set((), interaction_graph(parse_circuit(""))) == ()


def _chain_set_invariants(circuit: Circuit):
    edges = interaction_graph(circuit)
    chains = interaction_chain_set(circuit.qubits, edges)
    qubit_hits = [v for ch in chains for v in ch if v is not T_VERTEX]
    assert len(qubit_hits) == len(set(qubit_hits))
    assert set(qubit_hits) == set(circuit.qubits)
    edge_keys = set(map(frozenset, edges))
    for ch in chains:
        t_edges = 0
        for u, v in zip(ch, ch[1:]):
            assert frozenset({u, v}) in edge_keys  # chains are paths in the graph
            if u is T_VERTEX or v is T_VERTEX:
                t_edges += 1
        assert t_edges <= 1


gate_strategy = st.one_of(
    st.tuples(st.just("cnot"), st.integers(0, 5), st.integers(0, 5)).filter(lambda t: t[1] != t[2]),
    st.tuples(st.just("t"), st.integers(0, 5)),
)


@st.composite
def circuits(draw, max_gates=12):
    specs = draw(st.lists(gate_strategy, max_size=max_gates))
    out = []
    for s in specs:
        if s[0] == "cnot":
            out.append(cnot(f"q{s[1]}", f"q{s[2]}"))
        else:
            out.append(tgate(f"q{s[1]}"))
    return circuit_from_gates(out)


@given(circuits())
@settings(max_examples=200, deadline=None)
def test_chain_set_invariants_fuzzed(circuit):
    _chain_set_invariants(circuit)


def _chain_corpus():
    """Circuits whose chain sets exercise every case of the chain builder:
    layered random circuits with T fractions 0-0.8, known-optimum circuits,
    arbitrary gate lists (repeated partners, so chains merge), and the psp
    and ndp reduction circuits."""
    for seed in range(40):
        for t_fraction in (0.0, 0.2, 0.5, 0.8):
            yield random_circuit(1 + seed % 13, 1 + seed % 5, t_fraction, seed=seed)
    for d, k in ((1, 1), (2, 5), (3, 12), (2, 40)):
        yield known_optimal(d, k, 0.5, seed=k)
    rng = random.Random(8)
    for _ in range(3000):
        n = rng.randint(1, 9)
        specs = []
        for _ in range(rng.randint(0, 25)):
            if n == 1 or rng.random() < 0.3:
                specs.append(tgate(f"q{rng.randrange(n)}"))
            else:
                a, b = rng.sample(range(n), 2)
                specs.append(cnot(f"q{a}", f"q{b}"))
        yield circuit_from_gates(specs)
    for n in (1, 2, 3):
        for closure in oracles.all_labeled_posets(n):
            for k, t_p in ((1, 1), (2, 2)):
                yield psp_to_scmr(range(n), oracles.hasse_edges(closure), k, t_p)[1]
    for dims, pairs in (((2, 2), [((1, 1), (2, 2))]),
                        ((2, 2), [((1, 1), (2, 2)), ((1, 2), (2, 1))]),
                        ((3, 3), [((1, 1), (3, 3)), ((1, 3), (3, 1)), ((2, 2), (3, 2))])):
        yield ndp_to_scr(dims, pairs)[1]


def test_chain_set_matches_reference():
    # same chains, in the same order and orientation, as the builder that
    # relabelled a qubit-to-chain-index map on every merge; T edges are read
    # both as interaction_graph writes them and flipped to (q, T_VERTEX)
    cases = 0
    for circuit in _chain_corpus():
        edges = interaction_graph(circuit)
        flipped = tuple((y, x) if x is T_VERTEX else (x, y) for x, y in edges)
        for e in (edges, flipped):
            want = oracles.interaction_chain_set(circuit.qubits, e)
            assert interaction_chain_set(circuit.qubits, e) == want, e
            cases += 1
    assert cases > 6000


@given(circuits())
@settings(max_examples=200, deadline=None)
def test_parse_serialize_roundtrip(circuit):
    again = parse_circuit(serialize_circuit(circuit))
    assert [(g.kind, g.qubits) for g in again.gates] == [
        (g.kind, g.qubits) for g in circuit.gates
    ]


@given(circuits())
@settings(max_examples=100, deadline=None)
def test_depth_equals_layer_count(circuit):
    assert depth(circuit) == len(topological_layering(circuit))


@given(circuits(max_gates=10))
@settings(max_examples=150, deadline=None)
def test_dependency_closure_matches_shared_qubit_relation(circuit):
    n = len(circuit.gates)
    direct = {(i, j) for i in range(n) for j in range(n)
              if i < j and circuit.gates[i].shares_qubit(circuit.gates[j])}
    assert _transitive_closure(circuit.dependencies.pairs) == _transitive_closure(direct)


# ---------------------------------------------------------------------------
# Differential: the parser and the dependency tables against their
# pre-change references in oracles
# ---------------------------------------------------------------------------

def _outcome(build, *args):
    """The circuit `build(*args)` returns, or its error's type, text and place."""
    try:
        return build(*args)
    except CircuitError as e:
        return type(e), str(e), getattr(e, "line", None), getattr(e, "col", None)


def _dressed(rng, text):
    """`text` with its statements rewritten as a person might: mixed-case
    mnemonics, tabs and runs of blanks, comments, empty lines and statements,
    two statements on one line, CRLF line ends."""
    lines = []
    for line in text.splitlines():
        words = line.rstrip(";").split()
        if words and rng.random() < 0.3:
            words[0] = rng.choice((str.upper, str.title, str.lower))(words[0])
        line = rng.choice((" ", "\t", "  ", " \t ")).join(words) + rng.choice((";", ";;", "", " ; "))
        if rng.random() < 0.2:
            line = rng.choice(("", "\t", "  ")) + line
        if rng.random() < 0.2:
            line += rng.choice(("  # note", "#cnot x y; t z", " # ;;", "#"))
        if lines and rng.random() < 0.15:
            lines[-1] += rng.choice((";", ";;", "; ;")) + line
        else:
            lines.append(line)
        if rng.random() < 0.1:
            lines.append(rng.choice(("", "# comment", ";;", "   ", "\t;")))
    return rng.choice(("\n", "\r\n")).join(lines) + rng.choice(("", "\n", "\r\n"))


_BAD_STATEMENTS = (
    "cnot q0 1q", "t q-1", "cnot q0 q.x", "t qé", "cnot é q0", "t ０", "cnot a", "cnot a b c",
    "t", "t a b", "cnot a a", "CNOT b B b", "h a", "h", "swap a b", "x a b c", "rz 0.5 a",
)


def _mutated(rng, text):
    """`text` with one statement replaced by, or joined to, a faulty one."""
    lines = text.split("\n")
    i = rng.randrange(len(lines) + 1)
    bad = rng.choice(_BAD_STATEMENTS)
    if i < len(lines) and rng.random() < 0.5:
        lines[i] = lines[i] + rng.choice((";", "; ", ";;\t")) + bad
    else:
        lines.insert(i, bad)
    return "\n".join(lines)


def _blanked(rng, text):
    """`text` with about half its spaces swapped for non-ASCII blanks, which
    `str.split` splits on too: such statements miss the parser's ASCII fast
    path."""
    return "".join(rng.choice(("\u00a0", "\u2003", "\u3000")) if ch == " " and rng.random() < 0.5
                   else ch for ch in text)


def test_parse_circuit_matches_reference():
    rng = random.Random(22)
    blank_rng = random.Random(23)
    seen = dict.fromkeys(("circuits", "errors", "lenient drops", "non-ascii", "blanked circuits"), 0)
    corpus = list(_chain_corpus())
    for circuit in rng.sample(corpus, 600) + corpus[-40:]:
        text = serialize_circuit(circuit)
        blanked = _blanked(blank_rng, text)
        for variant in (text, _dressed(rng, text), _mutated(rng, _dressed(rng, text)), blanked):
            for strict in (True, False):
                got = _outcome(parse_circuit, variant, strict)
                assert got == _outcome(oracles.parse_circuit, variant, strict), variant
                if isinstance(got, Circuit):
                    seen["circuits"] += 1
                    seen["lenient drops"] += not strict and got != _outcome(parse_circuit, variant, True)
                    seen["blanked circuits"] += variant is blanked and not variant.isascii()
                else:
                    seen["errors"] += 1
                    seen["non-ascii"] += not variant.isascii()
    assert min(seen.values()) >= 20, seen


def test_identifier_check_matches_the_id_pattern():
    # the parser's inline accept reads isascii() and isidentifier() in place
    # of the pattern that words a bad id; they must agree on every token
    alphabet = [chr(c) for c in range(33, 127)] + ["é", "０", "ſ", "K", "_"]
    for a in alphabet:
        for b in [""] + alphabet:
            token = a + b
            assert bool(oracles._ID_RE.match(token)) == (token.isascii() and token.isidentifier()), token


def test_circuit_from_gates_matches_reference_on_bad_specs():
    specs = [
        [cnot("a", "a")], [(GateKind.CNOT, ("a",))], [(GateKind.CNOT, ("a", "b", "c"))],
        [(GateKind.T, ())], [(GateKind.T, ("a", "b"))], [tgate("a"), (GateKind.CNOT, ["b", "a"])],
        [(GateKind.CNOT, ["a", "b"]), (GateKind.T, ["c"])], [],
    ]
    for spec in specs:
        assert _outcome(circuit_from_gates, spec) == _outcome(oracles.circuit_from_gates, spec)


def _dependency_corpus():
    """Empty, one-qubit and T-only circuits, the shapes of the benchmark's
    greedy workloads (known-optimum circuits of 30-200 pairs, random
    circuits of 12-24 qubits with 20% T) and the chain-set corpus."""
    rng = random.Random(5)
    yield circuit_from_gates([])
    yield circuit_from_gates([tgate("a")])
    yield circuit_from_gates([tgate("a")] * 7)
    yield circuit_from_gates([tgate(f"q{rng.randrange(6)}") for _ in range(40)])
    yield random_circuit(1, 6, 1.0, seed=3)
    for d, k, rho in ((2, 200, 0.5), (12, 80, 0.5), (8, 64, 1.0), (30, 50, 0.5), (50, 30, 1.0)):
        yield known_optimal(d, k, rho, seed=d)
    for q, d in ((12, 64), (16, 40), (20, 20), (24, 12)):
        yield random_circuit(q, d, 0.2, seed=q)
    yield from _chain_corpus()
    # a gate listed again on the same two qubits: its pair comes twice
    yield parse_circuit("cnot a b; cnot a b")
    yield parse_circuit("cnot a b; cnot b a; t a")


def test_dependency_tables_match_reference():
    for circuit in _dependency_corpus():
        table = circuit.dependencies
        assert list(table.depths) == oracles.gate_depths(circuit)
        assert list(table.heights) == oracles.gate_heights(circuit)
        assert list(table.pairs) == list(oracles.consecutive_qubit_pairs(circuit))
        assert topological_layering(circuit) == oracles.topological_layering(circuit)
        assert interaction_graph(circuit) == oracles.interaction_graph(circuit)
        assert depth(circuit) == max(oracles.gate_depths(circuit), default=0)


def test_dependency_table_is_built_once_and_not_pickled():
    c = parse_circuit("cnot a b; t b; cnot b c; cnot a b; t c")
    before = pickle.dumps(c)
    table = c.dependencies
    assert c.dependencies is table
    assert all(type(field) is tuple for field in table)
    assert table.pairs == ((0, 1), (1, 2), (0, 3), (2, 3), (2, 4))
    assert pickle.dumps(c) == before
    for again in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c)):
        assert again == c and hash(again) == hash(c)
        assert vars(again) == {"gates": c.gates, "qubits": c.qubits}
        assert again.dependencies == table and again.dependencies is not table
