import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from scmr.cli import (
    EXIT_INFEASIBLE,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_TIMEOUT,
    EXIT_USAGE,
    build_parser,
    run,
)

FIG1 = "cnot q0 q1;\nt q2;\n"


@pytest.fixture
def fig1(tmp_path):
    f = tmp_path / "fig1.qc"
    f.write_text(FIG1)
    return f


def _compile(tmp_path, circuit_file, *extra):
    out = tmp_path / "out"
    code = run(["compile", str(circuit_file), "--out", str(out), *extra])
    return code, out


def test_compile_struct_greedy(tmp_path, fig1, capsys):
    code, out = _compile(tmp_path, fig1)
    assert code == EXIT_OK
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["steps"] >= 1
    assert record["validated"] is True
    assert record["cost_ratio"] == record["steps"] / record["depth"]
    assert (out / "fig1.map.json").exists()
    assert (out / "fig1.route.json").exists()
    assert (out / "fig1.arch.json").exists()


def test_compile_optimal_fig4(tmp_path, capsys):
    circ = tmp_path / "fig4.qc"
    circ.write_text("cnot q0 q1;\ncnot q2 q3;\n")
    arch = tmp_path / "grid3.arch.json"
    arch.write_text(json.dumps({"rows": 3, "cols": 3, "magic": []}))
    code, _ = _compile(tmp_path, circ, "--mapper", "optimal", "--router", "optimal",
                       "--arch", str(arch))
    assert code == EXIT_OK
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["steps"] == 1
    assert record["proven_optimal"] is True


def test_compile_optimal_timed_out_probe(tmp_path, capsys, first_probe_times_out):
    # the first probe (t = 1) times out, so the compile succeeds at t = 2
    # without a proof of optimality
    circ = tmp_path / "fig4.qc"
    circ.write_text("cnot q0 q1;\ncnot q2 q3;\n")
    arch = tmp_path / "grid3.arch.json"
    arch.write_text(json.dumps({"rows": 3, "cols": 3, "magic": []}))
    code, _ = _compile(tmp_path, circ, "--mapper", "optimal", "--router", "optimal",
                       "--arch", str(arch), "--timeout", "30")
    assert code == EXIT_OK
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (record["steps"], record["proven_optimal"], record["validated"]) == (2, False, True)
    assert len(first_probe_times_out) == 2


def test_compile_optimal_timed_out_probe_of_unroutable_instance(tmp_path, capsys,
                                                                first_probe_times_out):
    # the first probe (t = 2) times out, but a T gate on a grid without a
    # magic vertex has no legal path at any step count, so no probe follows
    circ = tmp_path / "t.qc"
    circ.write_text("t q0;\nt q0;\n")
    arch = tmp_path / "grid3.arch.json"
    arch.write_text(json.dumps({"rows": 3, "cols": 3, "magic": []}))
    code, _ = _compile(tmp_path, circ, "--router", "optimal", "--arch", str(arch),
                       "--timeout", "30")
    assert code == EXIT_INFEASIBLE
    assert capsys.readouterr().err == "infeasible: no solution within 2 steps\n"
    assert len(first_probe_times_out) == 1


def test_cli_import_loads_no_process_machinery():
    # process pools are imported only when --jobs asks for workers, and the
    # exact engine runs no external program; the package, the solver and
    # the generators included, loads nothing from outside the standard
    # library
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys; sys.path.insert(0, %r); import scmr.cli, scmr.sat, scmr.bench; "
            "print(sorted(m for m in ('subprocess', 'multiprocessing', 'concurrent.futures') "
            "if m in sys.modules)); print(sorted({m.split('.')[0] for m in sys.modules} "
            "- {'scmr', '__main__'} - sys.stdlib_module_names))" % src)
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n[]\n"), done.stderr


def test_compile_rand_mapper(tmp_path, fig1, capsys):
    code, _ = _compile(tmp_path, fig1, "--mapper", "rand:3", "--seed", "5")
    assert code == EXIT_OK
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["seed"] == 5


def test_compile_metrics_csv_stable(tmp_path, fig1, capsys):
    metrics = tmp_path / "metrics.csv"
    for _ in range(2):
        code, _ = _compile(tmp_path, fig1, "--metrics", str(metrics))
        assert code == EXIT_OK
    lines = metrics.read_text().strip().splitlines()
    assert lines[0] == "circuit,mapper,router,arch,steps,depth,cost_ratio,wall_time_s,proven_optimal,seed,validated"
    assert len(lines) == 3 and lines[1].split(",")[4] == lines[2].split(",")[4]


def test_compile_usage_errors(tmp_path, fig1):
    assert run(["compile", str(fig1), "--mapper", "bogus"]) == EXIT_USAGE
    assert run(["compile", str(fig1), "--mapper", "optimal", "--router", "greedy"]) == EXIT_USAGE
    assert run(["compile", str(tmp_path / "missing.qc")]) == EXIT_USAGE
    assert run(["bogus-subcommand"]) == EXIT_USAGE


def test_compile_parse_error_is_usage(tmp_path):
    bad = tmp_path / "bad.qc"
    bad.write_text("cnot q0 q0;")
    code, _ = _compile(tmp_path, bad)
    assert code == EXIT_USAGE


def test_compile_lenient_flag(tmp_path, capsys):
    circ = tmp_path / "mixed.qc"
    circ.write_text("h q0;\ncnot q0 q1;\n")
    code, _ = _compile(tmp_path, circ)
    assert code == EXIT_USAGE
    code, _ = _compile(tmp_path, circ, "--lenient")
    assert code == EXIT_OK


def test_compile_option_strings_pinned():
    # every `scmr compile` knob is listed here, so a new one shows up in review
    sub = next(a for a in build_parser()._actions if a.choices and "compile" in a.choices)
    options = {s for a in sub.choices["compile"]._actions for s in a.option_strings}
    assert options == {"-h", "--help", "--mapper", "--router", "--arch", "--timeout",
                       "--seed", "--out", "--metrics", "--jobs", "--lenient"}


@pytest.mark.parametrize("flag, value", [
    ("--jobs", "-3"), ("--jobs", "0"), ("--timeout", "-1"), ("--timeout", "0"), ("--timeout", "nan"),
])
def test_compile_rejects_non_positive_jobs_and_timeout(tmp_path, fig1, capsys, flag, value):
    code, out = _compile(tmp_path, fig1, "--mapper", "rand:2", flag, value)
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {flag} must be ")
    assert not out.exists()


def test_compile_infeasible_t_gate_without_magic(tmp_path):
    circ = tmp_path / "t.qc"
    circ.write_text("t q0;")
    arch = tmp_path / "nomagic.arch.json"
    arch.write_text(json.dumps({"rows": 3, "cols": 3, "magic": []}))
    code, _ = _compile(tmp_path, circ, "--arch", str(arch))
    assert code == EXIT_INFEASIBLE


def test_compile_infeasible_in_worker_processes(tmp_path, capsys):
    # the exact router's CapExhausted crosses the process boundary intact
    circ = tmp_path / "t.qc"
    circ.write_text("t q0;")
    arch = tmp_path / "nomagic.arch.json"
    arch.write_text(json.dumps({"rows": 3, "cols": 3, "magic": []}))
    code, _ = _compile(tmp_path, circ, "--arch", str(arch), "--mapper", "rand:2",
                       "--router", "optimal", "--jobs", "2")
    assert code == EXIT_INFEASIBLE
    assert capsys.readouterr().err == "infeasible: no solution within 1 steps\n"


def test_compile_timeout_exit_code(tmp_path):
    circ = tmp_path / "hard.qc"
    from scmr.bench import known_optimal
    from scmr.circuit import serialize_circuit
    circ.write_text(serialize_circuit(known_optimal(3, 3, 1.0, seed=0)))
    arch = tmp_path / "grid4.arch.json"
    arch.write_text(json.dumps({"rows": 4, "cols": 4, "magic": []}))
    code, _ = _compile(tmp_path, circ, "--mapper", "optimal", "--router", "optimal",
                       "--arch", str(arch), "--timeout", "0.001")
    assert code == EXIT_TIMEOUT


def test_validate_roundtrip_and_tamper(tmp_path, fig1, capsys):
    code, out = _compile(tmp_path, fig1)
    assert code == EXIT_OK
    argv = ["validate", str(fig1), str(out / "fig1.arch.json"),
            str(out / "fig1.map.json"), str(out / "fig1.route.json")]
    assert run(argv) == EXIT_OK

    route = json.loads((out / "fig1.route.json").read_text())
    route["gates"][0]["path"][1][0] += 1  # shift one path vertex
    (out / "fig1.route.json").write_text(json.dumps(route))
    capsys.readouterr()
    assert run(argv) == EXIT_INVALID
    report = capsys.readouterr().out
    assert "routing" in report or "disjoint" in report


def test_compile_invalid_route_exits_4_and_still_writes_its_files(tmp_path, fig1, capsys,
                                                                   monkeypatch):
    # a router whose route fails validation: the compile reports every
    # violation, marks the record and the metrics row unvalidated, and
    # still writes the solution so that `scmr validate` can show it again
    import scmr.cli
    from scmr.routing import GateRoute

    real = scmr.cli.greedy_route

    def corrupted(arch, circuit, qmap):
        route = real(arch, circuit, qmap)
        return GateRoute(route.steps, route.time, {**route.space, 0: route.space[0][::-1]})

    monkeypatch.setattr(scmr.cli, "greedy_route", corrupted)
    metrics = tmp_path / "metrics.csv"
    code, out = _compile(tmp_path, fig1, "--metrics", str(metrics))
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert json.loads(captured.out.strip().splitlines()[-1])["validated"] is False
    violations = captured.err.splitlines()
    assert violations and all(v.startswith("cnot-routing (gates 0): ") for v in violations)
    header, row = metrics.read_text().strip().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["validated"] == "False"
    files = [out / f"fig1.{kind}.json" for kind in ("arch", "map", "route")]
    assert all(f.exists() for f in files)
    assert run(["validate", str(fig1), *map(str, files)]) == EXIT_INVALID
    assert capsys.readouterr().out.splitlines() == violations


@pytest.mark.parametrize("spec, builder", [("right-column", "right_column_architecture"),
                                           ("center-column", "center_column_architecture")])
def test_compile_named_magic_column_grids(tmp_path, fig1, capsys, spec, builder):
    import scmr.architecture as architecture

    code, out = _compile(tmp_path, fig1, "--arch", spec)
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["validated"] is True
    build = getattr(architecture, builder)
    want = build(3, widen=True) if spec == "center-column" else build(3)
    assert (out / "fig1.arch.json").read_text() == architecture.architecture_to_json(want) + "\n"


def test_validate_dependent_same_step(tmp_path, capsys):
    circ = tmp_path / "chain.qc"
    circ.write_text("cnot a b;\ncnot b c;\n")
    code, out = _compile(tmp_path, circ)
    assert code == EXIT_OK
    route = json.loads((out / "chain.route.json").read_text())
    for g in route["gates"]:
        g["step"] = 1
    route["steps"] = 1
    (out / "chain.route.json").write_text(json.dumps(route))
    capsys.readouterr()
    assert run(["validate", str(circ), str(out / "chain.arch.json"),
                str(out / "chain.map.json"), str(out / "chain.route.json")]) == EXIT_INVALID
    assert "logical-order" in capsys.readouterr().out


def test_gen_known_optimal(tmp_path, capsys):
    out = tmp_path / "ko"
    assert run(["gen", "known-optimal", "-d", "2", "-k", "3", "--rho", "1",
                "-o", str(out)]) == EXIT_OK
    text = (tmp_path / "ko.qc").read_text()
    assert text.count("cnot") == 6


def test_gen_random_byte_identical(tmp_path):
    # `-o` is a base name: a dotted base keeps its suffix
    for a, b in (("a", "b"), ("rnd.v1", "rnd.v2")):
        for base in (a, b):
            assert run(["gen", "random", "-q", "50", "-d", "100", "--seed", "7",
                        "-o", str(tmp_path / base)]) == EXIT_OK
        assert (tmp_path / f"{a}.qc").read_bytes() == (tmp_path / f"{b}.qc").read_bytes()


def test_gen_psp(tmp_path, capsys):
    jobs = tmp_path / "jobs.json"
    jobs.write_text(json.dumps({"jobs": ["A", "B", "C", "D"],
                                "edges": [["A", "B"], ["A", "C"], ["A", "D"]]}))
    for base in ("psp", "psp.v1"):
        assert run(["gen", "psp", "--jobs", str(jobs), "-k", "2", "-t", "2",
                    "-o", str(tmp_path / base)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "t_s=20" in printed
        assert (tmp_path / f"{base}.qc").exists() and (tmp_path / f"{base}.arch.json").exists()


def test_gen_ndp(tmp_path):
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([[[1, 1], [2, 2]]]))
    for base in ("ndp", "ndp.v1"):
        assert run(["gen", "ndp", "--cols", "2", "--rows", "2",
                    "--pairs-file", str(pairs), "-o", str(tmp_path / base)]) == EXIT_OK
        arch = json.loads((tmp_path / f"{base}.arch.json").read_text())
        assert arch["rows"] == 10 and arch["cols"] == 10
        assert (tmp_path / f"{base}.qc").exists() and (tmp_path / f"{base}.map.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["random", "-q", "5", "-d", "-3"], "need qubits >= 0 and depth >= 0, got 5 and -3"),
    (["random", "-q", "-2", "-d", "0"], "need qubits >= 0 and depth >= 0, got -2 and 0"),
    (["ndp", "--cols", "0", "--rows", "2"], "pair grid must be at least 1x1, got 0x2"),
    (["ndp", "--cols", "2", "--rows", "-1"], "pair grid must be at least 1x1, got 2x-1"),
    # 201 x 201 pair tiles make a 1005 x 1005 grid, past the cell cap
    (["ndp", "--cols", "201", "--rows", "201"], "grid 1005x1005 has more than 1000000 cells"),
    (["known-optimal", "-d", "0", "-k", "1"], "need d >= 1 and k >= 1"),
    (["random", "-q", "2", "-d", "2", "--t-fraction", "1.5"], "t_fraction must be in [0, 1]"),
])
def test_gen_out_of_range_sizes_exit_1(tmp_path, capsys, argv, message):
    pairs = tmp_path / "pairs.json"
    pairs.write_text("[]")
    if argv[0] == "ndp":
        argv = argv + ["--pairs-file", str(pairs)]
    assert run(["gen", *argv, "-o", str(tmp_path / "g")]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "g.qc").exists()


_STAR = {"jobs": list(range(3000)), "edges": [[0, j] for j in range(1, 3000)]}


@pytest.mark.parametrize("argv, message", [
    (["random", "-q", "100000000", "-d", "2"],
     "a circuit of 100000000 qubits and up to 200000000 gates is past the cap of 1000000"),
    (["known-optimal", "-d", "2", "-k", "100000000"],
     "a circuit of 200000000 qubits and up to 200000000 gates is past the cap of 1000000"),
    (["ndp", "--cols", "1000000", "--rows", "1000000", "--pairs-file", "{pairs}"],
     "grid 5000000x5000000 has more than 1000000 cells"),
    (["psp", "--jobs", "{chain}", "-k", "1000000000", "-t", "1"],
     "grid 13000000000x4 has more than 1000000 cells"),
    # the cycle circuit of one processor over 10**9 time steps
    (["psp", "--jobs", "{chain}", "-k", "1", "-t", "1000000000"],
     "a circuit of 2 qubits and up to 3999999999 gates is past the cap of 1000000"),
    # a hub job with 2,999 dependents gives every job 2 * 2999 + 1 gadget gates
    (["psp", "--jobs", "{star}", "-k", "1", "-t", "1"],
     "a circuit of 9000000 qubits and up to 17999999 gates is past the cap of 1000000"),
], ids=["random", "known-optimal", "ndp", "psp-grid", "psp-cycle", "psp-dependency"])
def test_gen_past_the_size_caps_exits_1_before_allocating(tmp_path, capsys, argv, message):
    # each of these sizes asks for gigabytes: the generator refuses it from
    # its arguments, before it builds a qubit list, a gate list or a grid
    files = {"pairs": [[[1, 1], [2, 2]]], "chain": {"jobs": ["a", "b"], "edges": [["a", "b"]]},
             "star": _STAR}
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = [arg.format(**{name: tmp_path / f"{name}.json" for name in files}) for arg in argv]
    assert run(["gen", *argv, "-o", str(tmp_path / "g")]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "g.qc").exists()


@pytest.mark.parametrize("spec", [
    {},                                   # no "jobs"
    {"jobs": 3},                          # "jobs" not a list
    {"jobs": [["A"]]},                    # job id not a string or integer
    {"jobs": ["A", "B"], "edges": 5},     # "edges" not a list
    {"jobs": ["A", "B"], "edges": [["A"]]},
    {"jobs": [1, 1]},                     # a repeated job id
    {"jobs": ["A", "B"], "edges": [["A", "C"]]},  # an edge naming no job
    {"jobs": ["A", "B"], "edges": [["A", "B"], ["B", "A"]]},  # a cycle
    {"jobs": ["A", "B"], "edges": [["A", "B"], ["A", "B"]]},  # a repeated edge
    {"jobs": [1, "1"]},                   # two ids naming the same qubits
    {"jobs": ["A-B"]},                    # ids that cannot name qubits
    {"jobs": ["A B"]},
    {"jobs": [-1]},
])
def test_gen_psp_bad_spec_exits_1_naming_the_file(tmp_path, capsys, spec):
    jobs = tmp_path / "jobs.json"
    jobs.write_text(json.dumps(spec))
    assert run(["gen", "psp", "--jobs", str(jobs), "-k", "1", "-t", "2",
                "-o", str(tmp_path / "psp")]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {jobs}: ")
    assert not (tmp_path / "psp.qc").exists()


@pytest.mark.parametrize("spec", [
    [[1, 2]],                 # a pair of numbers, not of vertices
    {"pairs": []},            # not a list
    [[[1, 1], [2, 2, 2]]],    # a vertex of three coordinates
    [[[1, 1]]],               # a pair of one vertex
    [[[1, 1], [2, 2]], [[1, 1], [2, 1]]],  # a vertex in two pairs
])
def test_gen_ndp_bad_pairs_exit_1_naming_the_file(tmp_path, capsys, spec):
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps(spec))
    assert run(["gen", "ndp", "--cols", "2", "--rows", "2", "--pairs-file", str(pairs),
                "-o", str(tmp_path / "ndp")]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {pairs}: ")
    assert not (tmp_path / "ndp.qc").exists()


def test_compile_solution_files_revalidate(tmp_path, capsys):
    # compile -> validate round trip across several pipelines
    circ = tmp_path / "mix.qc"
    circ.write_text("cnot a b; t c; cnot b c;\nt a;\n")
    for mapper, router in [("struct", "greedy"), ("rand:2", "greedy"), ("struct", "optimal")]:
        out = tmp_path / f"out-{mapper.replace(':', '')}-{router}"
        assert run(["compile", str(circ), "--mapper", mapper, "--router", router,
                    "--out", str(out)]) == EXIT_OK
        assert run(["validate", str(circ), str(out / "mix.arch.json"),
                    str(out / "mix.map.json"), str(out / "mix.route.json")]) == EXIT_OK


def test_compile_revalidate_fuzzed(tmp_path):
    from scmr.bench import random_circuit
    from scmr.circuit import serialize_circuit

    for seed in range(8):
        circuit = random_circuit(2 + seed % 5, 1 + seed % 3, (seed % 3) / 3, seed=seed)
        circ = tmp_path / f"fuzz{seed}.qc"
        circ.write_text(serialize_circuit(circuit))
        out = tmp_path / f"fuzz{seed}"
        mapper = "struct" if seed % 2 else "rand:3"
        assert run(["compile", str(circ), "--mapper", mapper, "--seed", str(seed),
                    "--out", str(out)]) == EXIT_OK
        assert run(["validate", str(circ), str(out / f"fuzz{seed}.arch.json"),
                    str(out / f"fuzz{seed}.map.json"),
                    str(out / f"fuzz{seed}.route.json")]) == EXIT_OK


def test_compile_parallel_jobs(tmp_path, fig1, capsys):
    code, _ = _compile(tmp_path, fig1, "--mapper", "rand:4", "--jobs", "2")
    assert code == EXIT_OK
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["validated"] is True


def test_compile_rand_optimal_pipeline(tmp_path, capsys):
    circ = tmp_path / "pair.qc"
    circ.write_text("cnot a b;\n")
    arch = tmp_path / "grid5.arch.json"
    arch.write_text(json.dumps({"rows": 5, "cols": 5, "magic": []}))
    code, out = _compile(tmp_path, circ, "--mapper", "rand:2", "--router", "optimal",
                         "--arch", str(arch), "--seed", "2")
    assert code == EXIT_OK
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["steps"] == 1 and record["proven_optimal"] is True


def test_compile_empty_circuit(tmp_path, capsys):
    circ = tmp_path / "empty.qc"
    circ.write_text("# nothing here\n")
    code, out = _compile(tmp_path, circ)
    assert code == EXIT_OK
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["steps"] == 0 and record["depth"] == 0 and record["cost_ratio"] == ""
    assert run(["validate", str(circ), str(out / "empty.arch.json"),
                str(out / "empty.map.json"), str(out / "empty.route.json")]) == EXIT_OK


def test_validate_rejects_negative_steps(tmp_path, capsys):
    circ = tmp_path / "empty.qc"
    circ.write_text("# nothing here\n")
    code, out = _compile(tmp_path, circ)
    assert code == EXIT_OK
    route = out / "empty.route.json"
    route.write_text(json.dumps({"steps": -5, "gates": []}))
    capsys.readouterr()
    assert run(["validate", str(circ), str(out / "empty.arch.json"),
                str(out / "empty.map.json"), str(route)]) == EXIT_INVALID
    assert capsys.readouterr().out == "logical-order: steps is -5, below 0\n"


def test_parallel_best_of_n_not_marked_proven(tmp_path, fig1, capsys):
    code, _ = _compile(tmp_path, fig1, "--mapper", "rand:3", "--jobs", "2")
    assert code == EXIT_OK
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["proven_optimal"] is False


def test_rand_mapper_skips_maps_without_a_route(tmp_path, capsys):
    # of seed 2's three maps only the second routes: the other two put the
    # CNOT across the magic column
    circ = tmp_path / "c.qc"
    circ.write_text("cnot a b; t c; t d\n")
    code, out = _compile(tmp_path, circ, "--arch", "center-column", "--mapper", "rand:3", "--seed", "2")
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["steps"] == 1
    assert run(["validate", str(circ), str(out / "c.arch.json"), str(out / "c.map.json"),
                str(out / "c.route.json")]) == EXIT_OK
    assert capsys.readouterr().out == "ok\n"


def test_compile_struct_optimal_writes_the_pinned_map(tmp_path, capsys):
    # the decoded map lists qubits in circuit order, the struct map in chain
    # order; the written map must be the struct map the solve was pinned to
    from scmr.architecture import bordered_architecture
    from scmr.bench import random_circuit
    from scmr.circuit import serialize_circuit
    from scmr.mapping import map_to_json, struct_map
    from scmr.sat import solve_optimal

    circuit = random_circuit(4, 2, 0.25, seed=0)
    arch = bordered_architecture(4)
    pinned = struct_map(arch, circuit)
    assert map_to_json(solve_optimal(arch, circuit, qmap=pinned).qmap) != map_to_json(pinned)
    circ = tmp_path / "r.qc"
    circ.write_text(serialize_circuit(circuit))
    code, out = _compile(tmp_path, circ, "--mapper", "struct", "--router", "optimal")
    assert code == EXIT_OK
    assert (out / "r.map.json").read_text() == map_to_json(pinned) + "\n"


@pytest.mark.parametrize("mapper, router, calls", [
    ("struct", "greedy", {"struct_map": 1, "greedy_route": 1}),
    ("rand:3", "greedy", {"random_map": 3, "greedy_route": 3}),
    ("struct", "optimal", {"struct_map": 1, "solve_optimal": 1}),
    ("rand:2", "optimal", {"random_map": 2, "solve_optimal": 2}),
    ("optimal", "optimal", {"solve_optimal": 1}),
])
def test_compile_calls_layers_through_cli_globals(tmp_path, monkeypatch, mapper, router, calls):
    # the benchmark's trace shims replace these module attributes; every
    # map and route the compile makes must go through them
    import scmr.cli

    counts = dict.fromkeys(["random_map", "struct_map", "greedy_route", "solve_optimal"], 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(scmr.cli, name, counting(name, getattr(scmr.cli, name)))
    circ = tmp_path / "pair.qc"
    circ.write_text("cnot a b;\n")
    arch = tmp_path / "grid5.arch.json"
    arch.write_text(json.dumps({"rows": 5, "cols": 5, "magic": []}))
    code, _ = _compile(tmp_path, circ, "--mapper", mapper, "--router", router,
                       "--arch", str(arch))
    assert code == EXIT_OK
    assert counts == {**dict.fromkeys(counts, 0), **calls}


def test_malformed_inputs_exit_1_naming_the_file(tmp_path, fig1, capsys):
    code, out = _compile(tmp_path, fig1)
    assert code == EXIT_OK
    good = {"arch": out / "fig1.arch.json", "map": out / "fig1.map.json",
            "route": out / "fig1.route.json"}
    malformed = {"arch": '{"rows": 5}', "map": '{"a": 5}', "route": '{"steps": 1}'}
    for role, text in [*malformed.items(), ("route", "{not json")]:
        bad = tmp_path / f"bad.{role}.json"
        bad.write_text(text)
        files = {**good, role: bad}
        capsys.readouterr()
        assert run(["validate", str(fig1), str(files["arch"]), str(files["map"]),
                    str(files["route"])]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")


@pytest.mark.parametrize("text", [
    "[" + "1" * 5000 + "]",             # past Python's 4,300-digit integer-string limit
    "[" * 200_000 + "]" * 200_000,      # past the recursion limit
], ids=["long-integer", "deep-nesting"])
@pytest.mark.parametrize("argv", [
    "validate {fig1} {bad} {out}/fig1.map.json {out}/fig1.route.json",
    "validate {fig1} {out}/fig1.arch.json {bad} {out}/fig1.route.json",
    "validate {fig1} {out}/fig1.arch.json {out}/fig1.map.json {bad}",
    "compile {fig1} --arch {bad} --out {tmp}/arch-out",
    "gen psp --jobs {bad} -k 1 -t 2 -o {tmp}/psp",
], ids=["validate-arch", "validate-map", "validate-route", "compile-arch", "gen-psp-jobs"])
def test_json_past_the_parser_limits_exits_1_naming_the_file(tmp_path, fig1, capsys, argv, text):
    code, out = _compile(tmp_path, fig1)
    assert code == EXIT_OK
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    paths = {"fig1": fig1, "bad": bad, "out": out, "tmp": tmp_path}
    capsys.readouterr()
    assert run([arg.format(**paths) for arg in argv.split()]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


def test_unreadable_input_path_exits_1(tmp_path, capsys):
    assert run(["compile", str(tmp_path), "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {tmp_path}: ")


def test_mapper_spelling_and_internal_errors(tmp_path, fig1, monkeypatch):
    import scmr.cli

    assert run(["compile", str(fig1), "--mapper", "rand5"]) == EXIT_USAGE

    def broken(*args):
        raise ValueError("internal fault")

    monkeypatch.setattr(scmr.cli, "struct_map", broken)
    with pytest.raises(ValueError, match="internal fault"):
        _compile(tmp_path, fig1)


HUGE_ARCH = json.dumps({"rows": 5, "cols": 2 ** 70, "magic": []})


@pytest.mark.parametrize("argv", [
    "validate {fig1} {bad} {out}/fig1.map.json {out}/fig1.route.json",
    "compile {fig1} --arch {bad} --out {tmp}/arch-out",
], ids=["validate", "compile"])
def test_huge_architecture_exits_1_naming_the_file(tmp_path, fig1, capsys, argv):
    # a grid past the cell cap is rejected as the file is read, before its
    # cell index (an entry per cell) or its mapping locations are built; so
    # is a grid with no cells
    code, out = _compile(tmp_path, fig1)
    assert code == EXIT_OK
    bad = tmp_path / "huge.arch.json"
    paths = {"fig1": fig1, "bad": bad, "out": out, "tmp": tmp_path}
    for text, message in [(HUGE_ARCH, "grid 1180591620717411303424x5 has more than 1000000 cells"),
                          ('{"rows": 0, "cols": 5, "magic": []}', "grid must be at least 1x1, got 0x5")]:
        bad.write_text(text)
        capsys.readouterr()
        assert run([arg.format(**paths) for arg in argv.split()]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"


def test_built_in_layout_past_the_cell_cap_exits_1(tmp_path, capsys):
    # 248,005 qubits need a bordered grid of side 2 * 499 + 3 = 1001, the
    # fewest qubits whose built-in layout passes the cell cap
    big = tmp_path / "big.qc"
    big.write_text("".join(f"t q{i}\n" for i in range(248_005)))
    code, out = _compile(tmp_path, big)
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: grid 1001x1001 has more than 1000000 cells\n"
    assert not out.exists()


# JSON values a mutation puts in place of one field of a valid file
_FUZZ_VALUES = [None, True, False, 0, -1, 1, 2, 3, 6, 1.5, "7", "", 2 ** 70, -(2 ** 70),
                [], [1], [1, 2], [[1, 2]], {}, {"a": [1, 2]}]


def _fuzz_slots(node, slots):
    """Every (container, key) of a parsed JSON document, depth first."""
    keys = node.keys() if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for k in keys:
        slots.append((node, k))
        _fuzz_slots(node[k], slots)
    return slots


def _fuzz_mutate(rng, doc):
    """`doc` with one structure-aware change: a value swapped for another
    JSON type or size, a dict key dropped or a key added."""
    doc = json.loads(json.dumps(doc))
    slots = _fuzz_slots(doc, [(None, None)])
    container, key = rng.choice(slots)
    if container is None:   # the whole document
        return rng.choice(_FUZZ_VALUES)
    op = rng.randrange(3) if isinstance(container, dict) else 0
    if op == 0:
        container[key] = rng.choice(_FUZZ_VALUES)
    elif op == 1:
        del container[key]
    else:
        container[rng.choice(["extra", "q0", "steps", "rows", "path"])] = rng.choice(_FUZZ_VALUES)
    return doc


def test_validate_fuzz_exits_with_a_documented_code(tmp_path, capsys):
    # seeded structure-aware mutations of a valid 5-qubit solution's arch,
    # map and route files: every run ends in 0 (still valid), 1 (the file
    # is rejected) or 4 (the solution is not valid), and raises nothing
    from scmr.bench import random_circuit
    from scmr.circuit import serialize_circuit

    circ = tmp_path / "five.qc"
    circ.write_text(serialize_circuit(random_circuit(5, 4, 0.3, seed=2)))
    code, out = _compile(tmp_path, circ)
    assert code == EXIT_OK
    good = {role: json.loads((out / f"five.{role}.json").read_text()) for role in ("arch", "map", "route")}
    cases = [("arch", json.loads(HUGE_ARCH)), ("arch", {**good["arch"], "rows": 2 ** 70})]
    rng = random.Random(11)
    for _ in range(300):
        role = rng.choice(sorted(good))
        cases.append((role, _fuzz_mutate(rng, good[role])))
    codes = {}
    for n, (role, doc) in enumerate(cases):
        files = {r: out / f"five.{r}.json" for r in good}
        files[role] = tmp_path / f"fuzz{n}.{role}.json"
        files[role].write_text(json.dumps(doc))
        code = run(["validate", str(circ), str(files["arch"]), str(files["map"]), str(files["route"])])
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_INVALID), (role, doc)
        codes[code] = codes.get(code, 0) + 1
    capsys.readouterr()
    assert len(codes) == 3, codes


# words a mutation puts in place of one token of a valid circuit text
_FUZZ_WORDS = ["cnot", "CNOT", "t", "T", "h", "q0", "q4", "q9", "_", "0q", "q-1", "é", "",
               ";", "#", str(2 ** 70), "\x00", "q" * 300, "cnot q0 q0", "t q0 q1"]


def _fuzz_text(rng, text):
    """`text` with one change: a token swapped for another word, a character
    dropped or doubled, or a line repeated or dropped."""
    op = rng.randrange(4)
    if op == 0:
        tokens = text.replace(";", " ; ").split(" ")
        tokens[rng.randrange(len(tokens))] = rng.choice(_FUZZ_WORDS)
        return " ".join(tokens)
    if op == 1:
        i = rng.randrange(len(text))
        return text[:i] + text[i] * rng.choice((0, 2)) + text[i + 1:]
    lines = text.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    return "".join(lines[:i] + lines[i:i + 1] * (0 if op == 2 else 2) + lines[i + 1:])


def test_compile_fuzz_exits_with_a_documented_code(tmp_path, capsys):
    # seeded mutations of a valid 5-qubit circuit text and of its arch file,
    # each compiled with `--arch`: every run ends in 0 (compiled), 1 (an input
    # is rejected), 2 (infeasible) or 4 (not valid), and raises nothing
    from scmr.architecture import MAX_CELLS
    from scmr.bench import random_circuit
    from scmr.circuit import serialize_circuit

    text = serialize_circuit(random_circuit(5, 4, 0.3, seed=2))
    circ = tmp_path / "five.qc"
    circ.write_text(text)
    code, out = _compile(tmp_path, circ)
    assert code == EXIT_OK
    arch = json.loads((out / "five.arch.json").read_text())
    cases = [("arch", {**arch, "rows": 2 ** 70}), ("arch", {**arch, "cols": 2 ** 70}),
             ("arch", {**arch, "rows": 1000, "cols": MAX_CELLS // 1000 + 1}),
             ("arch", {**arch, "rows": 1, "cols": MAX_CELLS + 1}),
             ("arch", {**arch, "magic": []})]   # no magic vertex: T gates cannot route
    rng = random.Random(5)
    for _ in range(300):
        if rng.random() < 0.5:
            cases.append(("circuit", _fuzz_text(rng, text)))
        else:
            cases.append(("arch", _fuzz_mutate(rng, arch)))
    codes = {}
    for n, (role, doc) in enumerate(cases):
        files = {"circuit": circ, "arch": out / "five.arch.json"}
        if role == "circuit":
            files[role] = tmp_path / f"fuzz{n}.qc"
            files[role].write_text(doc)
        else:
            files[role] = tmp_path / f"fuzz{n}.arch.json"
            files[role].write_text(json.dumps(doc))
        code = run(["compile", str(files["circuit"]), "--arch", str(files["arch"]),
                    "--out", str(tmp_path / "fuzz-out")])
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_INFEASIBLE, EXIT_INVALID), (role, doc)
        codes[code] = codes.get(code, 0) + 1
    capsys.readouterr()
    assert {EXIT_OK, EXIT_USAGE, EXIT_INFEASIBLE} <= set(codes), codes
