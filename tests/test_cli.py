import json

import pytest

from scmr.cli import (
    EXIT_INFEASIBLE,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_TIMEOUT,
    EXIT_USAGE,
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
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["gen", "random", "-q", "50", "-d", "100", "--seed", "7", "-o", str(a)]) == EXIT_OK
    assert run(["gen", "random", "-q", "50", "-d", "100", "--seed", "7", "-o", str(b)]) == EXIT_OK
    assert (tmp_path / "a.qc").read_bytes() == (tmp_path / "b.qc").read_bytes()


def test_gen_psp(tmp_path, capsys):
    jobs = tmp_path / "jobs.json"
    jobs.write_text(json.dumps({"jobs": ["A", "B", "C", "D"],
                                "edges": [["A", "B"], ["A", "C"], ["A", "D"]]}))
    out = tmp_path / "psp"
    assert run(["gen", "psp", "--jobs", str(jobs), "-k", "2", "-t", "2",
                "-o", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "t_s=20" in printed
    assert (tmp_path / "psp.qc").exists() and (tmp_path / "psp.arch.json").exists()


def test_gen_ndp(tmp_path):
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([[[1, 1], [2, 2]]]))
    out = tmp_path / "ndp"
    assert run(["gen", "ndp", "--cols", "2", "--rows", "2",
                "--pairs-file", str(pairs), "-o", str(out)]) == EXIT_OK
    arch = json.loads((tmp_path / "ndp.arch.json").read_text())
    assert arch["rows"] == 10 and arch["cols"] == 10


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


def test_parallel_best_of_n_not_marked_proven(tmp_path, fig1, capsys):
    code, _ = _compile(tmp_path, fig1, "--mapper", "rand:3", "--jobs", "2")
    assert code == EXIT_OK
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["proven_optimal"] is False


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
