"""Span recording around the calls the compile pipeline makes into each layer.

`Tracer.install()` replaces the module attributes through which `scmr
compile` reaches each layer with timing shims, and `remove()` puts the
originals back. Nothing under `src/` changes. Spans stay in memory (in flat
arrays, so a run with hundreds of thousands of BFS calls stays small) until
the run ends, when `layer_metrics` folds them into per-layer numbers.

A span's self time is its duration minus the time its child spans cover.
Every compile is one root span named "cli", so the self times of a compile's
spans add up to the compile's traced wall time by construction. What can go
wrong is a layer that records no span because the pipeline reached it some
other way; `missing_calls` checks every compile against the calls its
instance must make.
"""
from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# Metric name -> unit, in report order.
LAYER_METRICS = {
    "routing.bfs_calls": "count",
    "routing.bfs_s": "s",
    "routing.bfs_per_routed_gate": "ratio",
    "routing.route_self_s": "s",
    "routing.rounds": "count",
    "routing.validate_s": "s",
    "mapping.map_s": "s",
    "mapping.trials": "count",
    "sat.encoding.encode_s": "s",
    "sat.encoding.vars": "count",
    "sat.encoding.clauses": "count",
    "sat.encoding.decode_s": "s",
    "sat.cdcl.build_s": "s",
    "sat.cdcl.search_s": "s",
    "sat.cdcl.kept_clauses": "count",
    "sat.cdcl.root_satisfied_frac": "fraction",
    "sat.cdcl.learned_clauses": "count",
    "sat.solve.probes": "count",
    "sat.solve.unsat_probes": "count",
    "sat.solve.self_s": "s",
    "circuit.parse_s": "s",
    "circuit.gates": "count",
    "architecture.build_s": "s",
    "architecture.vertices": "count",
    "cli.self_s": "s",
    "trace_overhead": "ratio",
}

ROOT = "cli"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.instance = array("i")
        self.fields: dict[int, dict] = {}   # span index -> counts taken at its boundary
        self._open: list[int] = []
        self._instance = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str, instance: int | None = None) -> int:
        if instance is not None:
            self._instance = instance
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.instance.append(self._instance)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter()
        popped = self._open.pop()
        if popped != i:
            raise RuntimeError(f"span {self.names[self.name[i]]} closed out of order")

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]

    def _shim(self, name, fn, fields=None):
        def shim(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if fields is not None:
                self.fields[i] = fields(args, result)
            return result
        return shim

    def _cdcl_shim(self, real):
        """CdclSolver stand-in: times construction and search separately."""
        def build(num_vars, clauses):
            i = self.open("sat.cdcl.build")
            try:
                solver = real(num_vars, clauses)
            finally:
                self.close(i)
            self.fields[i] = {"emitted": len(clauses), "kept": len(solver.clauses)}
            search = solver.solve

            def solve(timeout=None):
                j = self.open("sat.cdcl.search")
                before = len(solver.clauses)
                try:
                    model = search(timeout=timeout)
                finally:
                    self.close(j)
                self.fields[j] = {"learned": len(solver.clauses) - before,
                                  "unsat": int(model is None)}
                return model

            solver.solve = solve
            return solver
        return build

    # -- installing ----------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        import scmr.cli as cli
        import scmr.routing as routing
        sat_solve = sys.modules["scmr.sat.solve"]  # attribute scmr.sat.solve is a function

        gates = lambda args, result: {"gates": len(result.gates)}
        vertices = lambda args, result: {"vertices": result.rows * result.cols}
        routed = lambda args, result: {"routed": len(result)}
        cnf_size = lambda args, result: {"vars": result.num_vars, "clauses": len(result.clauses)}

        self._patch(cli, "parse_circuit", self._shim("circuit.parse", cli.parse_circuit, gates))
        for builder in ("bordered_architecture", "right_column_architecture",
                        "center_column_architecture"):
            self._patch(cli, builder,
                        self._shim("architecture.build", getattr(cli, builder), vertices))
        self._patch(cli, "struct_map", self._shim("mapping.map", cli.struct_map))
        self._patch(cli, "random_map", self._shim("mapping.map", cli.random_map))
        self._patch(cli, "greedy_route", self._shim("routing.greedy_route", cli.greedy_route))
        self._patch(cli, "validate", self._shim("routing.validate", cli.validate))
        self._patch(cli, "solve_optimal", self._shim("sat.solve", cli.solve_optimal))
        self._patch(routing, "shortest_first",
                    self._shim("routing.shortest_first", routing.shortest_first, routed))
        self._patch(routing, "shortest_legal_path",
                    self._shim("routing.bfs", routing.shortest_legal_path))
        self._patch(sat_solve, "encode",
                    self._shim("sat.encoding.encode", sat_solve.encode, cnf_size))
        self._patch(sat_solve, "decode", self._shim("sat.encoding.decode", sat_solve.decode))
        self._patch(sat_solve, "CdclSolver", self._cdcl_shim(sat_solve.CdclSolver))

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- folding -------------------------------------------------------------

    def compiles(self):
        """Yield (root span, instance id, {span name: [self s, total s, calls]},
        {field: summed count}, problems) for every recorded compile."""
        n = len(self.name)
        self_time = [self.duration(i) for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_time[p] -= self.duration(i)
        root = None
        for i in range(n + 1):
            if i == n or self.parent[i] < 0:
                if root is not None:
                    yield self._fold(root, i, self_time)
                root = i

    def _fold(self, root, stop, self_time):
        per_name: dict[str, list[float]] = {}
        counts: dict[str, int] = {}
        problems = []
        for i in range(root, stop):
            name = self.names[self.name[i]]
            row = per_name.setdefault(name, [0.0, 0.0, 0])
            row[0] += self_time[i]
            row[1] += self.duration(i)
            row[2] += 1
            p = self.parent[i]
            if p >= 0 and not (self.start[p] <= self.start[i] <= self.end[i] <= self.end[p]):
                problems.append(f"span {name} escapes its parent")
            for key, value in self.fields.get(i, {}).items():
                counts[key] = counts.get(key, 0) + value
        return root, self.instance[root], per_name, counts, problems


def expected_calls(instance) -> dict[str, int | None]:
    """Span name -> calls every compile of `instance` must record (None: at
    least one). A layer reached without passing its shim, say after a
    refactor that imports a function by name, records nothing and would
    otherwise silently read 0 while its time lands in its caller's self time."""
    mapper = instance.flags[instance.flags.index("--mapper") + 1]
    trials = int(mapper.split(":")[1]) if mapper.startswith("rand:") else int(mapper == "struct")
    calls = {"circuit.parse": 1, "architecture.build": 1, "mapping.map": trials}
    if instance.engine == "greedy":
        calls.update({"routing.greedy_route": trials, "routing.shortest_first": None,
                      "routing.bfs": None})
    else:
        calls.update({"sat.solve": 1, "sat.encoding.encode": None, "sat.cdcl.build": None,
                      "sat.cdcl.search": None})
    if instance.expect_exit == 0:
        calls["routing.validate"] = 1
        if instance.engine == "exact":
            calls["sat.encoding.decode"] = 1
    return calls


def missing_calls(instance, per_name) -> list[str]:
    """How one traced compile of `instance` misses `expected_calls`."""
    problems = []
    for name, want in expected_calls(instance).items():
        got = per_name.get(name, (0.0, 0.0, 0))[2]
        if (got < 1) if want is None else (got != want):
            problems.append(f"{name} recorded {got} calls, expected "
                            f"{'at least 1' if want is None else want}")
    return problems


def layer_metrics(folded) -> dict[str, float]:
    """Per-layer numbers for one pass over the workload.

    `folded` holds (instance id, per-name rows, counts) for every traced
    compile; each instance's compiles are averaged, then instances summed,
    so an instance compiled more often than another does not weigh more.
    `trace_overhead` is left to the caller.
    """
    by_inst: dict[int, list] = {}
    for inst, per_name, cnt in folded:
        by_inst.setdefault(inst, []).append((per_name, cnt))
    total: dict[str, list[float]] = {}
    counts: Counter = Counter()
    for compiles in by_inst.values():
        rows: dict[str, list[float]] = {}
        inst_counts: Counter = Counter()
        for per_name, cnt in compiles:
            inst_counts.update(cnt)
            for name, row in per_name.items():
                rows[name] = [a + b for a, b in zip(rows.get(name, (0.0, 0.0, 0)), row)]
        for name, row in rows.items():
            total[name] = [a + b / len(compiles)
                           for a, b in zip(total.get(name, (0.0, 0.0, 0.0)), row)]
        for key, value in inst_counts.items():
            counts[key] += value / len(compiles)

    def own(name):
        return total.get(name, [0.0, 0.0, 0.0])[0]

    def whole(name):
        return total.get(name, [0.0, 0.0, 0.0])[1]

    def calls(name):
        return total.get(name, [0.0, 0.0, 0.0])[2]

    def count(key):
        return counts[key]

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "routing.bfs_calls": calls("routing.bfs"),
        "routing.bfs_s": whole("routing.bfs"),
        "routing.bfs_per_routed_gate": ratio(calls("routing.bfs"), count("routed")),
        "routing.route_self_s": own("routing.greedy_route") + own("routing.shortest_first"),
        "routing.rounds": calls("routing.shortest_first"),
        "routing.validate_s": whole("routing.validate"),
        "mapping.map_s": whole("mapping.map"),
        "mapping.trials": calls("mapping.map"),
        "sat.encoding.encode_s": whole("sat.encoding.encode"),
        "sat.encoding.vars": count("vars"),
        "sat.encoding.clauses": count("clauses"),
        "sat.encoding.decode_s": whole("sat.encoding.decode"),
        "sat.cdcl.build_s": whole("sat.cdcl.build"),
        "sat.cdcl.search_s": whole("sat.cdcl.search"),
        "sat.cdcl.kept_clauses": count("kept"),
        "sat.cdcl.root_satisfied_frac": 1.0 - ratio(count("kept"), count("emitted"))
        if count("emitted") else 0.0,
        "sat.cdcl.learned_clauses": count("learned"),
        "sat.solve.probes": calls("sat.encoding.encode"),
        "sat.solve.unsat_probes": count("unsat"),
        "sat.solve.self_s": own("sat.solve"),
        "circuit.parse_s": whole("circuit.parse"),
        "circuit.gates": count("gates"),
        "architecture.build_s": whole("architecture.build"),
        "architecture.vertices": count("vertices"),
        "cli.self_s": own(ROOT),
    }
