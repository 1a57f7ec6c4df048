"""Tests of the benchmark itself: every workload at tiny scale prints every
metric with its unit, and the correctness gate rejects bad outputs.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 99  # outside the baseline seeds, so test run records do not overwrite theirs


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", str(SEED), "--seconds", "0",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    units = spans.LAYER_METRICS if trace else run.END_TO_END
    table = {line.split()[0]: line.split() for line in lines if line.startswith("  ")}
    for name, unit in units.items():
        assert name in table, f"{name} not printed"
        assert table[name][2] == unit
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    reported = units if trace else [m for m in units if m not in run.PRINT_ONLY]
    assert list(result["metrics"]) == list(reported)
    for name in reported:
        assert result["metrics"][name]["unit"] == units[name]
    if not trace:
        assert result["metrics"]["valid_frac"]["value"] == 1.0
        assert "failed_frac" in table and float(table["failed_frac"][1]) == 0
    else:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        for name in LAYERS_USED[workload]:
            assert values[name] > 0, f"{name} reads {values[name]} on {workload}"
        if workload == "greedy-congested":
            n = len(workloads.generate(workload, SEED, tiny=True))
            assert values["mapping.trials"] == workloads.CONGESTED_TRIALS * n


# Layer metrics that must read above 0 in a traced run of each workload.
_ALWAYS = ["circuit.parse_s", "circuit.gates", "architecture.build_s",
           "architecture.vertices", "routing.validate_s", "mapping.map_s", "mapping.trials"]
_GREEDY = ["routing.bfs_calls", "routing.bfs_s", "routing.bfs_per_routed_gate",
           "routing.route_self_s", "routing.rounds"]
LAYERS_USED = {
    "greedy-wide": _ALWAYS + _GREEDY,
    "greedy-congested": _ALWAYS + _GREEDY,
    "exact": _ALWAYS + [
        "sat.encoding.encode_s", "sat.encoding.vars", "sat.encoding.clauses",
        "sat.encoding.decode_s", "sat.cdcl.build_s", "sat.cdcl.search_s",
        "sat.cdcl.kept_clauses", "sat.cdcl.root_satisfied_frac", "sat.cdcl.learned_clauses",
        "sat.solve.probes", "sat.solve.unsat_probes", "sat.solve.self_s"],
}


def test_trace_catches_a_layer_that_bypasses_its_shim(tmp_path, capsys):
    import scmr.cli as cli
    import scmr.routing as routing

    inst = workloads.generate("greedy-wide", SEED, tiny=True)[0]
    path = inst.write(tmp_path)
    real_bfs = routing.shortest_legal_path
    tracer = spans.Tracer()
    tracer.install()
    try:
        for bypass in (False, True):
            if bypass:  # as if the router had imported the BFS by name
                routing.shortest_legal_path = real_bfs
            root = tracer.open(spans.ROOT, 0)
            assert cli.run(["compile", str(path), "--out", str(tmp_path / "out"),
                            *inst.flags]) == 0
            tracer.close(root)
    finally:
        tracer.remove()
    capsys.readouterr()
    (_, _, traced, _, _), (_, _, bypassed, _, _) = tracer.compiles()
    assert spans.missing_calls(inst, traced) == []
    assert spans.missing_calls(inst, bypassed) == [
        "routing.bfs recorded 0 calls, expected at least 1"]
    assert routing.shortest_legal_path is real_bfs


def test_gate_needs_the_greedy_bound():
    fixed = workloads.generate("exact", SEED, tiny=True)[0]
    with pytest.raises(ValueError, match="add_bounds"):
        gate.check(fixed, 0, None, Path("."))


def test_same_seed_same_instances():
    for workload in workloads.WORKLOADS:
        a = workloads.generate(workload, 5, tiny=True)
        b = workloads.generate(workload, 5, tiny=True)
        c = workloads.generate(workload, 6, tiny=True)
        assert [i.text for i in a] == [i.text for i in b]
        assert [i.text for i in a] != [i.text for i in c]


def _compile(inst, tmp_path):
    import scmr.cli as cli

    path = inst.write(tmp_path)
    out = tmp_path / "out"
    code = cli.run(["compile", str(path), "--out", str(out), *inst.flags])
    return code, out


def test_gate_catches_a_displaced_path_vertex(tmp_path, capsys):
    inst = workloads.generate("greedy-wide", SEED, tiny=True)[0]
    code, out = _compile(inst, tmp_path)
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    problems, steps, _, good = gate.check(inst, code, record, out)
    assert problems == [] and steps == inst.optimum

    route_file = out / f"{inst.name}.route.json"
    route = json.loads(route_file.read_text())
    path = route["gates"][0]["path"]
    path[1] = [path[1][0] + 1, path[1][1]]   # shift one vertex a column right
    route_file.write_text(json.dumps(route))
    problems, _, _, bad = gate.check(inst, code, record, out)
    assert any(p.startswith("validator:") for p in problems)
    assert bad != good


def test_gate_catches_a_wrong_verdict(tmp_path, capsys):
    exact = workloads.generate("exact", SEED, tiny=True)
    workloads.add_bounds(exact)
    cross = next(i for i in exact if i.kind == "cross")
    fixed = next(i for i in exact if i.kind == "fixed")

    code, out = _compile(cross, tmp_path)
    assert code == workloads.EXIT_INFEASIBLE
    assert gate.check(cross, code, None, out)[0] == []
    # Claimed routable although the instance is not.
    assert gate.check(cross, 0, {"steps": 1, "proven_optimal": True}, out)[0]
    # Greedy routing an instance the gate expects to be infeasible.
    cross.greedy_steps = 3
    assert gate.check(cross, code, None, out)[0]

    code, out = _compile(fixed, tmp_path)
    capsys.readouterr()
    assert code == 0
    # Declared infeasible although it is routable.
    assert gate.check(fixed, workloads.EXIT_INFEASIBLE, None, out)[0]


def test_fails_without_the_compiler(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "exact", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
