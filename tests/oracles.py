"""Independent brute-force oracles used by the test suite.

Everything here is deliberately naive: exhaustive enumeration, plain DFS/BFS
and a toy DPLL. None of it shares code paths with the implementations it
checks.
"""
from __future__ import annotations

import itertools
from collections import deque
from concurrent.futures import ProcessPoolExecutor

from scmr.architecture import Architecture, Vertex
from scmr.circuit import Circuit, Gate, GateKind, gate_depths, gate_heights
from scmr.mapping import random_map
from scmr.routing import Path, greedy_route


# ---------------------------------------------------------------------------
# Tiny DPLL + projected model counting (for cardinality encodings)
# ---------------------------------------------------------------------------

def dpll_satisfiable(clauses) -> bool:
    clauses = [list(c) for c in clauses]
    assigned: dict[int, bool] = {}

    def simplify(cls, lit):
        out = []
        for c in cls:
            if lit in c:
                continue
            reduced = [l for l in c if l != -lit]
            if not reduced:
                return None
            out.append(reduced)
        return out

    def rec(cls):
        while True:
            units = [c[0] for c in cls if len(c) == 1]
            if not units:
                break
            cls = simplify(cls, units[0])
            if cls is None:
                return False
        if not cls:
            return True
        lit = cls[0][0]
        for choice in (lit, -lit):
            nxt = simplify(cls, choice)
            if nxt is not None and rec(nxt):
                return True
        return False

    return rec(clauses)


def count_projected_models(num_original: int, clauses) -> int:
    """Count assignments of vars 1..num_original extendable to full models."""
    count = 0
    for bits in itertools.product([False, True], repeat=num_original):
        units = [[v if bits[v - 1] else -v] for v in range(1, num_original + 1)]
        if dpll_satisfiable(list(clauses) + units):
            count += 1
    return count


# ---------------------------------------------------------------------------
# Legal-path oracles
# ---------------------------------------------------------------------------

def layered_shortest_length(arch: Architecture, blocked, source, sinks) -> int | None:
    """Shortest legal path length (vertex count) by BFS over states
    (vertex, last-edge-orientation)."""
    sinks = set(sinks)
    ok_interior = lambda v: v not in blocked and v not in arch.magic and v != source and v not in sinks
    dist: dict[tuple, int] = {}
    queue = deque()
    for u in arch.vertical_neighbors(source):
        if ok_interior(u):
            dist[(u, "v")] = 1
            queue.append((u, "v"))
    while queue:
        (w, _), d = queue[0], dist[queue[0]]
        queue.popleft()
        for t in sinks:
            if w in arch.horizontal_neighbors(t):
                return d + 2  # source + interior chain + sink
        for x in arch.horizontal_neighbors(w):
            if ok_interior(x) and (x, "h") not in dist:
                dist[(x, "h")] = d + 1
                queue.append((x, "h"))
        for x in arch.vertical_neighbors(w):
            if ok_interior(x) and (x, "v") not in dist:
                dist[(x, "v")] = d + 1
                queue.append((x, "v"))
    return None


def enumerate_legal_paths(arch: Architecture, blocked, source, sinks, cap: int = 10 ** 6):
    """All legal simple paths source->sink (first edge vertical, last edge
    horizontal, interiors clear of blocked/magic/endpoint vertices)."""
    sinks = set(sinks)
    ok_interior = lambda v: v not in blocked and v not in arch.magic and v != source and v not in sinks
    out = []
    stack = [(u, (source, u)) for u in arch.vertical_neighbors(source) if ok_interior(u)]
    while stack:
        v, path = stack.pop()
        for t in sinks:
            if t in arch.horizontal_neighbors(v):
                out.append(path + (t,))
                if len(out) >= cap:
                    return out
        for u in arch.neighbors(v):
            if ok_interior(u) and u not in path:
                stack.append((u, path + (u,)))
    return out


# ---------------------------------------------------------------------------
# Regular locations by the all-pairs check against every kept center
# ---------------------------------------------------------------------------

def regular_locations(arch: Architecture) -> tuple[Vertex, ...]:
    """Row-major greedy selection of 3x3-clear centers at pairwise L-inf >= 2."""
    kept: list[Vertex] = []
    for v in arch.vertices():
        a, b = v
        if a < 2 or a > arch.cols - 1 or b < 2 or b > arch.rows - 1:
            continue
        box = [(a + da, b + db) for da in (-1, 0, 1) for db in (-1, 0, 1)]
        if any(c in arch.magic for c in box):
            continue
        if all(max(abs(a - u[0]), abs(b - u[1])) >= 2 for u in kept):
            kept.append(v)
    return tuple(kept)


# ---------------------------------------------------------------------------
# Greedy routing as it was before the adjacency table and lazy re-search:
# one BFS per pending request per pick, neighbors rebuilt on every expansion.
# Kept verbatim as the reference the optimized router must match byte for
# byte; shortest_first here calls the shortest_legal_path above it.
# ---------------------------------------------------------------------------

def shortest_legal_path(arch: Architecture, blocked: set, source: Vertex, sinks) -> Path | None:
    """Minimum-length legal path from source to some sink, or None.

    `blocked` is the set of vertices unusable as path interiors (mapped
    vertices, magic vertices, and anything consumed earlier in the step).
    Sinks are endpoint candidates and must be entered through a horizontal
    edge; they are used as given, so callers exclude consumed sinks. Only
    the first and last edges are orientation-constrained, so a plain BFS over
    interior vertices suffices; neighbor expansion is in sorted order to make
    the returned path deterministic.
    """
    sinks = set(sinks)
    if not sinks:
        return None
    goal_of: dict[Vertex, Vertex] = {}
    for t in sorted(sinks):
        for w in arch.horizontal_neighbors(t):
            if w not in goal_of:
                goal_of[w] = t

    usable = lambda v: v not in blocked and v not in arch.magic and v != source and v not in sinks
    parent: dict[Vertex, Vertex | None] = {}
    queue = deque()
    for u in sorted(arch.vertical_neighbors(source)):
        if usable(u):
            parent[u] = None
            queue.append(u)
    while queue:
        w = queue.popleft()
        if w in goal_of:
            hops = [w]
            while parent[hops[-1]] is not None:
                hops.append(parent[hops[-1]])
            return (source, *reversed(hops), goal_of[w])
        for x in sorted(arch.neighbors(w)):
            if x not in parent and usable(x):
                parent[x] = w
                queue.append(x)
    return None


def shortest_first(arch: Architecture, requests, blocked: set) -> list[tuple[Gate, Path]]:
    """Route the request with the currently shortest legal path, consume its
    vertices, repeat until nothing is routable. Ties go to the lower gate
    index. Returns the routed subset with vertex-disjoint paths."""
    remaining = sorted(requests, key=lambda r: r.gate.index)
    used: set[Vertex] = set()
    routed: list[tuple[Gate, Path]] = []
    while remaining:
        best = None
        for req in remaining:
            path = shortest_legal_path(arch, blocked | used, req.source, req.sinks - used)
            if path is not None and (best is None or len(path) < len(best[1])):
                best = (req, path)
        if best is None:
            break
        req, path = best
        used.update(path)
        routed.append((req.gate, path))
        remaining.remove(req)
    return routed


# ---------------------------------------------------------------------------
# Best-of-N random maps as `scmr compile` ran it before it called
# mapping.best_of_n: its own seed stream, tie-break and greedy-only pool
# ---------------------------------------------------------------------------

def _greedy_trial(payload):
    arch, circuit, seed, index = payload
    qmap = random_map(arch, circuit, seed)
    route = greedy_route(arch, circuit, qmap)
    return route.steps, index, qmap, route


def _best_random(arch, circuit, n, seed, router_fn, jobs=1):
    import random as _random
    master = _random.Random(seed)
    trial_seeds = [master.randrange(2 ** 62) for _ in range(n)]
    if jobs > 1 and router_fn is greedy_route:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_greedy_trial,
                                    [(arch, circuit, s, i) for i, s in enumerate(trial_seeds)]))
        best = min(results, key=lambda r: (r[0], r[1]))
        return best[2], best[3], False
    best = None
    proven = True
    for i, s in enumerate(trial_seeds):
        qmap = random_map(arch, circuit, s)
        if router_fn is greedy_route:
            route = greedy_route(arch, circuit, qmap)
            trial_proven = False
        else:
            res = router_fn(arch, circuit, qmap)
            route, trial_proven = res.route, res.proven_minimal
        if best is None or route.steps < best[1].steps:
            best = (qmap, route, trial_proven)
    return best


# ---------------------------------------------------------------------------
# Exhaustive mapping-and-routing optimum
# ---------------------------------------------------------------------------

def _gate_endpoints(arch, gate, mapping):
    if gate.kind is GateKind.CNOT:
        return mapping[gate.control], {mapping[gate.target]}
    return mapping[gate.operand], set(arch.magic)


def _step_routing(arch, gates, paths_by_gate):
    """Backtracking search for pairwise vertex-disjoint path choices;
    returns {gate: path} or None."""
    gates = sorted(gates, key=lambda g: len(paths_by_gate[g]))

    def rec(i, used, chosen):
        if i == len(gates):
            return dict(chosen)
        for path in paths_by_gate[gates[i]]:
            vs = set(path)
            if vs & used:
                continue
            chosen[gates[i]] = path
            got = rec(i + 1, used | vs, chosen)
            if got is not None:
                return got
            del chosen[gates[i]]
        return None

    return rec(0, set(), {})


def brute_force_optimum(arch: Architecture, circuit: Circuit, t_cap: int):
    """Smallest step count in [depth, t_cap] with a witness, by exhausting
    injective maps, order-respecting schedules, and per-step disjoint path
    sets. Returns (t, mapping, time, space) or None."""
    if not circuit.gates:
        return 0, {}, {}, {}
    free = [v for v in arch.vertices() if v not in arch.magic]
    if len(free) < circuit.num_qubits:
        return None
    depths = gate_depths(circuit)
    heights = gate_heights(circuit)
    d = max(depths)
    qubits = list(circuit.qubits)

    prev_on_qubit: dict[int, list[int]] = {g.index: [] for g in circuit.gates}
    last: dict[str, int] = {}
    for g in circuit.gates:
        for q in g.qubits:
            if q in last:
                prev_on_qubit[g.index].append(last[q])
            last[q] = g.index

    for t in range(d, t_cap + 1):
        for placement in itertools.permutations(free, len(qubits)):
            mapping = dict(zip(qubits, placement))
            blocked = set(mapping.values())
            paths_by_gate = {}
            feasible = True
            for g in circuit.gates:
                src, snk = _gate_endpoints(arch, g, mapping)
                paths = enumerate_legal_paths(arch, blocked, src, snk)
                if not paths:
                    feasible = False
                    break
                paths_by_gate[g.index] = paths
            if not feasible:
                continue

            def schedules(i, assign):
                if i == len(circuit.gates):
                    yield dict(assign)
                    return
                lo = max([depths[i]] + [assign[p] + 1 for p in prev_on_qubit[i]])
                hi = t - heights[i] + 1
                for step in range(lo, hi + 1):
                    assign[i] = step
                    yield from schedules(i + 1, assign)
                    del assign[i]

            for sched in schedules(0, {}):
                by_step: dict[int, list[int]] = {}
                for gi, step in sched.items():
                    by_step.setdefault(step, []).append(gi)
                space: dict[int, tuple] = {}
                for gs in by_step.values():
                    routing = _step_routing(arch, gs, paths_by_gate)
                    if routing is None:
                        space = None
                        break
                    space.update(routing)
                if space is not None:
                    return t, mapping, dict(sched), space
    return None


# ---------------------------------------------------------------------------
# Node-disjoint paths on small grids
# ---------------------------------------------------------------------------

def ndp_feasible(dims, pairs) -> bool:
    gw, gh = dims

    def nbrs(v):
        x, y = v
        return [u for u in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1))
                if 1 <= u[0] <= gw and 1 <= u[1] <= gh]

    endpoints = {v for pair in pairs for v in pair}

    def attempt(i, used):
        if i == len(pairs):
            return True
        s, t = pairs[i]
        stack = [(s, frozenset([s]))]
        while stack:
            v, path = stack.pop()
            if v == t:
                if attempt(i + 1, used | path):
                    return True
                continue
            for u in nbrs(v):
                if u in path or u in used or (u != t and u in endpoints):
                    continue
                stack.append((u, path | {u}))
        return False

    return attempt(0, frozenset())


# ---------------------------------------------------------------------------
# Labeled posets (for the dependency-circuit property)
# ---------------------------------------------------------------------------

def transitive_closure(pairs, elems):
    rel = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return frozenset(rel)


def all_labeled_posets(n: int):
    """Every strict partial order on elements 0..n-1, as a closure set."""
    base_pairs = list(itertools.combinations(range(n), 2))
    seen = set()
    for mask in range(1 << len(base_pairs)):
        edges = {base_pairs[i] for i in range(len(base_pairs)) if mask >> i & 1}
        closure = transitive_closure(edges, range(n))
        for perm in itertools.permutations(range(n)):
            rel = frozenset((perm[a], perm[b]) for a, b in closure)
            if rel not in seen:
                seen.add(rel)
                yield rel


def hasse_edges(closure) -> list[tuple]:
    return sorted(
        (a, b) for a, b in closure
        if not any((a, c) in closure and (c, b) in closure for c in {x for p in closure for x in p})
    )
