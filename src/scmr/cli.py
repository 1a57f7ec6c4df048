"""Command-line front end: compile, generate, validate.

Exit codes: 0 ok, 1 usage or unreadable input, 2 infeasible instance,
3 solver timeout, 4 validation failure.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from pathlib import Path

from .architecture import (
    Architecture,
    ArchitectureError,
    architecture_from_json,
    architecture_to_json,
    bordered_architecture,
    center_column_architecture,
    right_column_architecture,
)
from .bench import (
    BenchError,
    known_optimal,
    ndp_to_scr,
    psp_to_scmr,
    random_circuit,
)
from .circuit import Circuit, CircuitError, depth, parse_circuit, serialize_circuit
from .mapping import MappingError, best_of_n, map_from_json, map_to_json, random_map, struct_map
from .routing import (
    RoutingError,
    UnroutableGateError,
    greedy_route,
    route_from_json,
    route_to_json,
    validate,
)
from .sat import CapExhausted, SolverTimeout, solve_optimal

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_TIMEOUT = 3
EXIT_INVALID = 4

METRIC_FIELDS = [
    "circuit", "mapper", "router", "arch", "steps", "depth", "cost_ratio",
    "wall_time_s", "proven_optimal", "seed", "validated",
]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read(path: str, loader):
    """Parse one input file; any fault in it ends the command with exit 1."""
    try:
        return loader(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, CircuitError,
            ArchitectureError, MappingError, RoutingError) as e:
        raise CliUsage(f"{path}: {e}") from e


def _load_architecture(spec: str, circuit: Circuit) -> Architecture:
    if spec == "bordered":
        return bordered_architecture(max(1, circuit.num_qubits))
    if spec == "right-column":
        return right_column_architecture(max(1, circuit.num_qubits))
    if spec == "center-column":
        return center_column_architecture(max(1, circuit.num_qubits), widen=True)
    return _read(spec, architecture_from_json)


def _parse_mapper(name: str) -> tuple[str, int]:
    if name in ("optimal", "struct"):
        return name, 0
    digits = name[len("rand:"):]
    if name.startswith("rand:") and digits.isdigit() and int(digits) >= 1:
        return "rand", int(digits)
    raise CliUsage(f"bad mapper {name!r}: expected optimal, struct, or rand:<N>")


def cmd_compile(args) -> int:
    circuit = _read(args.circuit, functools.partial(parse_circuit, strict=not args.lenient))
    arch = _load_architecture(args.arch, circuit)
    mapper, n_trials = _parse_mapper(args.mapper)
    if mapper == "optimal" and args.router != "optimal":
        raise CliUsage("--mapper optimal requires --router optimal")

    started = time.perf_counter()
    if args.router == "optimal":
        router = functools.partial(solve_optimal, timeout=args.timeout)
    else:
        router = greedy_route
    if mapper == "optimal":
        result = router(arch, circuit, None)
        qmap = result.qmap
    elif mapper == "struct":
        qmap = struct_map(arch, circuit)
        result = router(arch, circuit, qmap)
    else:
        # this module's own random_map, so a patched scmr.cli.random_map is what runs
        qmap, result = best_of_n(arch, circuit, n_trials, args.seed, router,
                                 mapper=random_map, jobs=args.jobs)
    if args.router == "optimal":
        route, proven = result.route, result.proven_minimal
    else:
        route, proven = result, False
    wall = time.perf_counter() - started

    problems = validate(arch, circuit, qmap, route)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.circuit).stem
    (out_dir / f"{stem}.map.json").write_text(map_to_json(qmap) + "\n")
    (out_dir / f"{stem}.route.json").write_text(route_to_json(route) + "\n")
    (out_dir / f"{stem}.arch.json").write_text(architecture_to_json(arch) + "\n")

    d = depth(circuit)
    record = {
        "circuit": args.circuit,
        "mapper": args.mapper,
        "router": args.router,
        "arch": args.arch,
        "steps": route.steps,
        "depth": d,
        "cost_ratio": round(route.steps / d, 6) if d else "",
        "wall_time_s": round(wall, 4),
        "proven_optimal": proven,
        "seed": args.seed,
        "validated": not problems,
    }
    print(json.dumps(record))
    if args.metrics:
        path = Path(args.metrics)
        new = not path.exists()
        with path.open("a", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=METRIC_FIELDS)
            if new:
                writer.writeheader()
            writer.writerow(record)
    if problems:
        for v in problems:
            print(str(v), file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


def cmd_validate(args) -> int:
    circuit = _read(args.circuit, functools.partial(parse_circuit, strict=not args.lenient))
    arch = _read(args.arch, architecture_from_json)
    qmap = _read(args.map, map_from_json)
    route = _read(args.route, route_from_json)
    problems = validate(arch, circuit, qmap, route)
    for v in problems:
        print(str(v))
    if problems:
        return EXIT_INVALID
    print("ok")
    return EXIT_OK


def _write(path: Path, content: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content)
    print(path)


def cmd_generate(args) -> int:
    out = Path(args.out)
    if args.generator == "known-optimal":
        circuit = known_optimal(args.depth, args.pairs, args.rho, seed=args.seed)
        _write(out.with_suffix(".qc"), serialize_circuit(circuit))
    elif args.generator == "random":
        circuit = random_circuit(args.qubits, args.depth, args.t_fraction, seed=args.seed)
        _write(out.with_suffix(".qc"), serialize_circuit(circuit))
    elif args.generator == "psp":
        spec = _read(args.jobs, json.loads)
        arch, circuit, t_s = psp_to_scmr(
            spec["jobs"], [tuple(e) for e in spec.get("edges", [])], args.k, args.t_p)
        _write(out.with_suffix(".qc"), serialize_circuit(circuit))
        _write(out.with_suffix(".arch.json"), architecture_to_json(arch) + "\n")
        print(f"t_s={t_s}")
    elif args.generator == "ndp":
        spec = _read(args.pairs_file, json.loads)
        arch, circuit, qmap = ndp_to_scr((args.cols, args.rows),
                                         [tuple(map(tuple, p)) for p in spec])
        _write(out.with_suffix(".qc"), serialize_circuit(circuit))
        _write(out.with_suffix(".arch.json"), architecture_to_json(arch) + "\n")
        _write(out.with_suffix(".map.json"), map_to_json(qmap) + "\n")
    return EXIT_OK


class CliUsage(Exception):
    pass


def build_parser() -> _Parser:
    p = _Parser(prog="scmr", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="map and route a circuit onto an architecture")
    c.add_argument("circuit")
    c.add_argument("--mapper", default="struct",
                   help="optimal | struct | rand:<N> (default struct)")
    c.add_argument("--router", default="greedy", choices=["optimal", "greedy"])
    c.add_argument("--arch", default="bordered",
                   help="bordered | right-column | center-column | path to arch JSON")
    c.add_argument("--timeout", type=float, default=None, help="per-solve timeout in seconds")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", default="out")
    c.add_argument("--metrics", default=None, help="append one CSV row here")
    c.add_argument("--jobs", type=int, default=1,
                   help="worker processes for rand:<N> trials (default 1)")
    strictness = c.add_mutually_exclusive_group()
    strictness.add_argument("--strict", dest="lenient", action="store_false", default=False)
    strictness.add_argument("--lenient", dest="lenient", action="store_true")
    c.set_defaults(func=cmd_compile)

    v = sub.add_parser("validate", help="check a (circuit, arch, map, route) solution")
    v.add_argument("circuit")
    v.add_argument("arch")
    v.add_argument("map")
    v.add_argument("route")
    v.add_argument("--lenient", action="store_true", default=False)
    v.set_defaults(func=cmd_validate)

    g = sub.add_parser("gen", help="generate benchmark circuits and architectures")
    gsub = g.add_subparsers(dest="generator", required=True)

    ko = gsub.add_parser("known-optimal")
    ko.add_argument("-d", "--depth", type=int, required=True)
    ko.add_argument("-k", "--pairs", type=int, required=True)
    ko.add_argument("--rho", type=float, default=1.0)
    ko.add_argument("--seed", type=int, default=0)
    ko.add_argument("-o", "--out", default="known_optimal")
    ko.set_defaults(func=cmd_generate)

    rnd = gsub.add_parser("random")
    rnd.add_argument("-q", "--qubits", type=int, required=True)
    rnd.add_argument("-d", "--depth", type=int, required=True)
    rnd.add_argument("--t-fraction", type=float, default=0.0)
    rnd.add_argument("--seed", type=int, default=0)
    rnd.add_argument("-o", "--out", default="random")
    rnd.set_defaults(func=cmd_generate)

    psp = gsub.add_parser("psp")
    psp.add_argument("--jobs", required=True, help='JSON {"jobs": [...], "edges": [[a,b],...]}')
    psp.add_argument("-k", type=int, required=True, help="processor count")
    psp.add_argument("-t", "--t-p", type=int, required=True, help="schedule time limit")
    psp.add_argument("-o", "--out", default="psp")
    psp.set_defaults(func=cmd_generate)

    ndp = gsub.add_parser("ndp")
    ndp.add_argument("--cols", type=int, required=True)
    ndp.add_argument("--rows", type=int, required=True)
    ndp.add_argument("--pairs-file", required=True, help="JSON [[[x,y],[x,y]], ...]")
    ndp.add_argument("-o", "--out", default="ndp")
    ndp.set_defaults(func=cmd_generate)

    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (UnroutableGateError, CapExhausted, MappingError, ArchitectureError) as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SolverTimeout as e:
        print(f"timeout: {e}", file=sys.stderr)
        return EXIT_TIMEOUT
    except (CliUsage, CircuitError, BenchError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
