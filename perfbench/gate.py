"""Correctness gate for one compile, and the bytes that fingerprint it.

The gate never trusts the compiler's own report: it reloads the files the
compile wrote through the public loaders, runs the validator on them, and
checks the step count against bounds that come from outside the compiler
(the circuit depth, a known optimum, the greedy engine under the same map).
"""
from __future__ import annotations

from pathlib import Path


def check(instance, exit_code, record, out_dir: Path):
    """Return (problems, steps, proven, fingerprint) for one compile.

    `record` is the JSON line `scmr compile` printed, or None. `steps` is
    None when no schedule was expected. For the greedy engine the
    fingerprint is the exact map and route bytes; for the exact engine it is
    (steps, proven, exit code), because a solver change may legally return a
    different optimal route.
    """
    from scmr.architecture import architecture_from_json
    from scmr.circuit import parse_circuit
    from scmr.mapping import map_from_json
    from scmr.routing import route_from_json, validate

    if instance.engine == "exact" and not instance.bounded:
        raise ValueError(f"{instance.name} has no greedy bound; call workloads.add_bounds")
    problems = []
    if exit_code != instance.expect_exit:
        problems.append(f"exit code {exit_code}, expected {instance.expect_exit}")
    if instance.expect_exit != 0:
        # The verdict is "infeasible": greedy must agree it cannot route.
        if instance.greedy_steps is not None:
            problems.append(f"greedy routes it in {instance.greedy_steps} steps")
        proven = exit_code == instance.expect_exit
        return problems, None, proven, f"exit={exit_code}".encode()
    if exit_code != 0:
        return problems, None, False, f"exit={exit_code}".encode()

    stem = instance.name
    try:
        raw = {kind: (out_dir / f"{stem}.{kind}.json").read_bytes()
               for kind in ("arch", "map", "route")}
        arch = architecture_from_json(raw["arch"].decode())
        qmap = map_from_json(raw["map"].decode())
        route = route_from_json(raw["route"].decode())
    except (OSError, ValueError, KeyError, TypeError) as e:
        problems.append(f"cannot reload outputs: {e!r}")
        return problems, None, False, b"unreadable"
    violations = validate(arch, parse_circuit(instance.text), qmap, route)
    problems.extend(f"validator: {v}" for v in violations)

    steps = route.steps
    if record is None or record.get("steps") != steps:
        problems.append(f"printed record {record!r} disagrees with route steps {steps}")
    if steps < instance.depth:
        problems.append(f"{steps} steps is below the depth bound {instance.depth}")
    if instance.optimum is not None and steps < instance.optimum:
        problems.append(f"{steps} steps beats the known optimum {instance.optimum}")

    proven = bool(record and record.get("proven_optimal"))
    if instance.engine == "exact":
        if not proven:
            problems.append("exact result not proven optimal (a probe timed out)")
        if instance.greedy_steps is None or steps > instance.greedy_steps:
            problems.append(f"exact {steps} steps is worse than greedy {instance.greedy_steps}")
        fingerprint = f"steps={steps} proven={proven} exit={exit_code}".encode()
    else:
        fingerprint = raw["map"] + raw["route"]
    return problems, steps, proven, fingerprint
