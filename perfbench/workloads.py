"""Seeded workload generators.

A workload is a fixed list of instance shapes; the seed given on the command
line draws each instance's content (pairings, T positions, best-of-N trial
seeds). Fixed shapes keep the run-to-run spread of the timing metrics small
while the content still changes with every seed.

Every instance carries the expectations the correctness gate checks: the exit
code of `scmr compile`, a known optimum where one exists, and for the exact
engine the greedy step count under the same map (or the fact that greedy
finds the instance unroutable), which `add_bounds` fills in after set-up.

`scmr` is imported inside the functions, because set-up times a cold import
of it followed by generation.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("greedy-wide", "greedy-congested", "exact")

EXIT_OK = 0
EXIT_INFEASIBLE = 2

# Per-probe solver timeout for the exact engine, far above any instance's
# time, so every exact verdict is a proof.
EXACT_TIMEOUT_S = 60

# Exact instances are drawn until one has the wanted gate count and
# property; a shape that cannot have them fails set-up instead of hanging.
DRAW_ATTEMPTS = 20_000

# Shapes keep compiles short (0.1-1.5 s on a 2-CPU x86 box) and alike within
# a workload: a 40 s run then compiles every instance at least once (the
# greedy ones about three times), and the median over instances does not
# jump between clusters of fast and slow instances.

# greedy-wide: known_optimal(d, k, rho) on bordered grids, struct map.
# k pending requests per layer make shortest_first's re-search dominate;
# the optimum is d.
WIDE_SHAPES = [
    (2, 200, 0.5), (4, 150, 0.5), (6, 100, 0.5), (12, 80, 0.5), (8, 64, 1.0),
    (10, 50, 1.0), (30, 50, 0.5), (20, 40, 1.0), (40, 40, 0.5), (50, 30, 1.0),
]
WIDE_SHAPES_TINY = [(3, 6, 1.0), (4, 8, 0.5)]

# greedy-congested: random_circuit(q, depth, t=0.2) on bordered grids with
# rand:3 (best of three random maps). Magic-vertex sinks make long searches.
# Each shape appears twice with different content: compile times vary with
# content by about a tenth, so more instances steady the workload's totals.
CONGESTED_SHAPES = [
    (12, 64), (14, 48), (16, 40), (16, 44), (18, 24), (20, 20), (22, 16), (24, 12),
] * 2
CONGESTED_SHAPES_TINY = [(6, 6)]
CONGESTED_T_FRACTION = 0.2
CONGESTED_TRIALS = 3

# exact: four uses of the SAT step loop on 4 qubits, each
# (kind, count, depth, gates). Fixing the gate count as well as the depth keeps
# formula sizes alike across seeds. Solve times still hang on each seed's
# content: over ten seeds the summed time of a workload's instances of one
# kind varied between seeds by 0.06 (fixed), 0.08 (cross), 0.27 (tight) and
# 0.32 (free) of its median, interquartile. The tight and free kinds are
# therefore left out of the timing metrics (UNTIMED_KINDS) and kept few; they
# are compiled, gated, fingerprinted and traced like the rest, and their
# times are in the run record. The one depth-10 fixed instance has the
# largest formula, so it sets peak memory, which then varies little between
# seeds.
#   fixed  - bordered struct map: one SAT probe, search dominates
#   tight  - right-column, 70% T, struct map where greedy misses the depth
#            bound by two or more steps, so the first probe is usually UNSAT
#   free   - --mapper optimal, no map literal pinned
#   cross  - center-column struct map with a CNOT across the magic column:
#            every probe is UNSAT and the verdict is exit 2
EXACT_SHAPES = [
    ("fixed", 1, 10, 24), ("fixed", 24, 6, 14), ("tight", 4, 3, 11), ("free", 4, 2, 4),
    ("cross", 16, 2, 4),
]
UNTIMED_KINDS = ("tight", "free")
EXACT_SHAPES_TINY = [("fixed", 1, 3, 7), ("tight", 1, 2, 8), ("free", 1, 1, 3), ("cross", 1, 1, 3)]


@dataclass
class Instance:
    name: str
    kind: str
    text: str               # circuit file contents
    gates: int
    depth: int
    flags: list             # `scmr compile` flags besides the circuit and --out
    expect_exit: int
    optimum: int | None = None        # known optimal step count
    greedy_steps: int | None = None   # greedy under the same map, None if unroutable
    bounded: bool = False             # greedy_steps computed (exact only)
    timed: bool = True                # counts in the timing metrics

    @property
    def engine(self) -> str:
        return "exact" if "optimal" in self.flags else "greedy"

    def write(self, directory: Path) -> Path:
        path = directory / f"{self.name}.qc"
        path.write_text(self.text)
        return path


def generate(workload: str, seed: int, tiny: bool = False) -> list[Instance]:
    """Instances of `workload` drawn from `seed`; same seed, same instances."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "greedy-wide":
        return _wide(rng, WIDE_SHAPES_TINY if tiny else WIDE_SHAPES)
    if workload == "greedy-congested":
        return _congested(rng, CONGESTED_SHAPES_TINY if tiny else CONGESTED_SHAPES)
    if workload == "exact":
        return _exact(rng, EXACT_SHAPES_TINY if tiny else EXACT_SHAPES)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _instance(name, kind, circuit, flags, expect_exit=EXIT_OK, **extra) -> Instance:
    from scmr.circuit import depth, serialize_circuit

    return Instance(name, kind, serialize_circuit(circuit), len(circuit.gates), depth(circuit),
                    flags, expect_exit, **extra)


def _wide(rng, shapes):
    from scmr.bench import known_optimal

    out = []
    for i, (d, k, rho) in enumerate(shapes):
        circuit = known_optimal(d, k, rho, seed=rng.randrange(2 ** 31))
        out.append(_instance(f"wide{i:02d}_d{d}_k{k}", "known-optimal", circuit,
                             ["--mapper", "struct", "--router", "greedy"], optimum=d))
    return out


def _congested(rng, shapes):
    from scmr.bench import random_circuit

    out = []
    for i, (q, d) in enumerate(shapes):
        circuit = random_circuit(q, d, CONGESTED_T_FRACTION, seed=rng.randrange(2 ** 31))
        flags = ["--mapper", f"rand:{CONGESTED_TRIALS}", "--router", "greedy",
                 "--seed", str(rng.randrange(2 ** 31))]
        out.append(_instance(f"cong{i:02d}_q{q}_d{d}", "random", circuit, flags))
    return out


def _exact(rng, shapes):
    out = []
    for kind, count, depth, gates in shapes:
        for j in range(count):
            inst = _EXACT_KINDS[kind](rng, f"{kind}{j:02d}_d{depth}_g{gates}", depth, gates)
            inst.timed = kind not in UNTIMED_KINDS
            out.append(inst)
    return out


def _draw(rng, depth, gates, t_fraction, accept=None):
    """A 4-qubit random circuit of exactly this depth and gate count that
    `accept` (if given) accepts."""
    from scmr.bench import random_circuit

    for _ in range(DRAW_ATTEMPTS):
        circuit = random_circuit(4, depth, t_fraction, seed=rng.randrange(2 ** 31))
        if len(circuit.gates) == gates and (accept is None or accept(circuit)):
            return circuit
    raise ValueError(f"no circuit of depth {depth} with {gates} gates passed the filter "
                     f"in {DRAW_ATTEMPTS} draws")


def _greedy_steps(arch, circuit, qmap):
    from scmr.routing import UnroutableGateError, greedy_route

    try:
        return greedy_route(arch, circuit, qmap).steps
    except UnroutableGateError:
        return None


def _architecture(name, circuit):
    from scmr import architecture

    if name == "bordered":
        return architecture.bordered_architecture(circuit.num_qubits)
    if name == "right-column":
        return architecture.right_column_architecture(circuit.num_qubits)
    return architecture.center_column_architecture(circuit.num_qubits, widen=True)


def _struct_greedy(arch_name, circuit):
    """Greedy steps under the struct map, or None when greedy cannot route."""
    from scmr.mapping import struct_map

    arch = _architecture(arch_name, circuit)
    return _greedy_steps(arch, circuit, struct_map(arch, circuit))


def add_bounds(instances):
    """Set `greedy_steps` on every exact instance: greedy under the struct map
    on the same architecture, the bound the gate holds exact results to (for
    free-map instances too, since the free optimum can only be lower).
    Kept out of `generate` so that set-up time does not include it."""
    from scmr.circuit import parse_circuit

    for inst in instances:
        if inst.engine == "exact":
            arch_name = inst.flags[inst.flags.index("--arch") + 1]
            inst.greedy_steps = _struct_greedy(arch_name, parse_circuit(inst.text))
            inst.bounded = True


def _exact_flags(mapper: str, arch: str) -> list:
    return ["--mapper", mapper, "--router", "optimal", "--arch", arch,
            "--timeout", str(EXACT_TIMEOUT_S)]


def _exact_bordered(rng, name, depth, gates, kind):
    """fixed (struct map) and free (--mapper optimal) instances."""
    circuit = _draw(rng, depth, gates, 0.2)
    mapper = "optimal" if kind == "free" else "struct"
    return _instance(name, kind, circuit, _exact_flags(mapper, "bordered"))


def _exact_tight(rng, name, depth, gates):
    """Drawn until greedy misses the depth bound by two or more steps, so
    this filter runs the greedy router inside generation."""
    circuit = _draw(rng, depth, gates, 0.7,
                    lambda c: (_struct_greedy("right-column", c) or 0) >= depth + 2)
    return _instance(name, "tight", circuit, _exact_flags("struct", "right-column"))


def _exact_cross(rng, name, depth, gates):
    """Magic vertices are never path interiors, so a CNOT whose qubits the
    struct map puts on both sides of the magic column has no route at any
    step count."""
    from scmr.circuit import GateKind
    from scmr.mapping import struct_map

    def crosses(circuit):
        arch = _architecture("center-column", circuit)
        qmap = struct_map(arch, circuit)
        column = min(v[0] for v in arch.magic)
        return any(g.kind is GateKind.CNOT
                   and (qmap[g.control][0] < column) != (qmap[g.target][0] < column)
                   for g in circuit.gates)

    circuit = _draw(rng, depth, gates, 0.3, crosses)
    return _instance(name, "cross", circuit, _exact_flags("struct", "center-column"),
                     expect_exit=EXIT_INFEASIBLE)


_EXACT_KINDS = {
    "fixed": lambda *a: _exact_bordered(*a, "fixed"),
    "tight": _exact_tight,
    "free": lambda *a: _exact_bordered(*a, "free"),
    "cross": _exact_cross,
}
