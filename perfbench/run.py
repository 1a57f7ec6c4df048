"""Seeded compile benchmark for scmr.

    python3 perfbench/run.py --workload greedy-wide --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the compiler is imported from
`src/`. One process generates the workload from `--seed`, then compiles
its instances round-robin in a closed loop with one client, each compile
going through `scmr.cli.run(["compile", ...])` in-process, until `--seconds`
have passed and every instance has run at least once. Every compile passes
the correctness gate (`gate.py`) or counts as failed. Timings are scaled to
a reference host speed measured around every compile (`hostspeed.py`), so
that the machine's drift does not read as a change of the code.

`--trace 0` prints the end-to-end metrics; `--trace 1` spends half the time
untraced and half under the layer shims of `spans.py`, and prints the
per-layer metrics plus `trace_overhead`. The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; a run record with one
row per instance goes to `perfbench/out/`. Exit code 0 when every compile
passed the gate, 1 when one did not, 2 when the checkout has no compiler.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Metric name -> unit, in report order. Times are scaled to the reference
# host of hostspeed.py. All are printed; the ones that read 0 on a correct
# run of some workload (proven_frac has no exact instance to count on the
# greedy workloads, failed_frac is 0 whenever the gate passes) stay out of the
# JSON result, whose metrics must never be 0, and so do the unscaled
# throughput and the host's speed, which move with the machine, not the code.
END_TO_END = {
    "gates_per_s": "gates/s",
    "compile_s.p50": "s",
    "gates_per_s.wall": "gates/s",
    "host_scale": "ratio",
    "steps_total": "steps",
    "cost_ratio.gmean": "ratio",
    "proven_frac": "fraction",
    "valid_frac": "fraction",
    "failed_frac": "fraction",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PRINT_ONLY = ("proven_frac", "failed_frac", "gates_per_s.wall", "host_scale")

# Set-up (import, generation, circuit files) runs SETUP_REPS times before
# the measurement and SETUP_REPS times after it, and setup_s is the median of
# all of them, so one slow stretch of the machine does not move it.
SETUP_REPS = 4


@dataclass
class Sample:
    index: int              # instance position in the workload
    seconds: float          # wall time of the compile
    scale: float            # hostspeed.REFERENCE_S / kernel time around the compile
    exit: int | None
    steps: int | None
    proven: bool
    fingerprint: str
    problems: list = field(default_factory=list)

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def _set_up(workload, seed, tiny, circuits: Path):
    """Import the compiler from cold, generate the workload and write its
    circuit files, SETUP_REPS times; return the times and the last instances,
    with the gate's greedy bounds added outside the timed part."""
    times = []
    for _ in range(SETUP_REPS):
        for name in [m for m in sys.modules if m == "scmr" or m.startswith("scmr.")]:
            del sys.modules[name]
        shutil.rmtree(circuits, ignore_errors=True)
        before = hostspeed.kernel_seconds()
        started = time.perf_counter()
        importlib.import_module("scmr.cli")
        circuits.mkdir(parents=True)
        instances = workloads.generate(workload, seed, tiny)
        paths = [inst.write(circuits) for inst in instances]
        elapsed = time.perf_counter() - started
        times.append((elapsed, hostspeed.scale(before, hostspeed.kernel_seconds())))
    workloads.add_bounds(instances)
    return times, instances, paths


def compile_once(cli, inst, index, path, out_dir: Path, kernel_before: float,
                 tracer=None) -> tuple[Sample, float]:
    """One `scmr compile` through the CLI entry point, then the gate. Takes
    the reference kernel's time measured right before the compile and
    returns, with the sample, its time measured right after it."""
    for kind in ("arch", "map", "route"):
        (out_dir / f"{inst.name}.{kind}.json").unlink(missing_ok=True)
    argv = ["compile", str(path), "--out", str(out_dir), *inst.flags]
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with redirect_stdout(out), redirect_stderr(err):
        root = tracer.open(spans.ROOT, index) if tracer else None
        started = time.perf_counter()
        try:
            code = cli.run(argv)
        except Exception:  # a crash is a failed compile; keep measuring
            code, crash = None, traceback.format_exc(limit=3)
        finally:
            elapsed = time.perf_counter() - started
            if tracer:
                tracer.close(root)
        kernel_after = hostspeed.kernel_seconds()
    record = None
    if code == 0:
        try:
            record = json.loads(out.getvalue().strip().splitlines()[-1])
        except (ValueError, IndexError):
            record = None
    try:
        problems, steps, proven, fingerprint = gate.check(inst, code, record, out_dir)
    except Exception:  # outputs the checks themselves trip over are wrong outputs
        problems, steps, proven, fingerprint = (
            [f"gate raised: {traceback.format_exc(limit=3)}"], None, False, b"")
    if crash:
        problems.insert(0, f"exception: {crash}")
    sample = Sample(index, elapsed, hostspeed.scale(kernel_before, kernel_after), code, steps,
                    proven, hashlib.sha256(fingerprint).hexdigest(), problems)
    return sample, kernel_after


def measure(cli, instances, paths, out_dir: Path, seconds: float, tracer=None) -> list[Sample]:
    """Closed loop, one client: round-robin until `seconds` have passed and
    every instance has compiled at least once."""
    samples = []
    kernel = hostspeed.kernel_seconds()
    started = time.perf_counter()
    k = 0
    while k < len(instances) or time.perf_counter() - started < seconds:
        i = k % len(instances)
        sample, kernel = compile_once(cli, instances[i], i, paths[i], out_dir, kernel, tracer)
        samples.append(sample)
        k += 1
    return samples


def _check_repeats(instances, samples):
    """Repeated compiles of one instance must write the same outputs."""
    firsts = _firsts(instances, samples)
    for s in samples:
        if s.fingerprint != firsts[s.index].fingerprint:
            s.problems.append("output differs from this instance's first compile")


def _typical(instances, samples, key=lambda s: s.scaled) -> list[float]:
    """Each instance's median compile time over its repeats in the run,
    scaled to the reference host unless `key` says otherwise."""
    times: dict[int, list[float]] = {}
    for s in samples:
        times.setdefault(s.index, []).append(key(s))
    return [statistics.median(times[i]) for i in range(len(instances))]


def _firsts(instances, samples) -> list[Sample]:
    first: dict[int, Sample] = {}
    for s in samples:
        first.setdefault(s.index, s)
    return [first[i] for i in range(len(instances))]


def end_to_end(instances, samples, setup_s) -> dict[str, float | None]:
    timed = [inst.timed for inst in instances]
    typical = [t for t, keep in zip(_typical(instances, samples), timed) if keep]
    wall = [t for t, keep in zip(_typical(instances, samples, lambda s: s.seconds), timed) if keep]
    gates = sum(inst.gates for inst in instances if inst.timed)
    firsts = _firsts(instances, samples)
    scheduled = [(s.steps, inst.depth) for s, inst in zip(firsts, instances) if s.steps]
    exact = [s for s, inst in zip(firsts, instances) if inst.engine == "exact"]
    failed = sum(1 for s in samples if s.problems)
    return {
        "gates_per_s": gates / sum(typical),
        "compile_s.p50": statistics.median(typical),
        "gates_per_s.wall": gates / sum(wall),
        "host_scale": statistics.median(s.scale for s in samples),
        "steps_total": sum(steps for steps, _ in scheduled),
        "cost_ratio.gmean": math.exp(statistics.fmean(math.log(s / d) for s, d in scheduled))
        if scheduled else None,
        "proven_frac": sum(s.proven for s in exact) / len(exact) if exact else None,
        "valid_frac": (len(samples) - failed) / len(samples),
        "failed_frac": failed / len(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def _git_commit(root: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _run_record(args, instances, samples, metrics, setup_times, fingerprint) -> dict:
    typical = _typical(instances, samples)
    firsts = _firsts(instances, samples)
    rows = [{
        "instance": inst.name, "kind": inst.kind, "engine": inst.engine, "timed": inst.timed,
        "gates": inst.gates, "depth": inst.depth, "steps": first.steps, "exit": first.exit,
        "proven": first.proven, "compile_s": compile_s,
        "wall_s_samples": [s.seconds for s in samples if s.index == i],
        "scale_samples": [s.scale for s in samples if s.index == i],
        "optimum": inst.optimum, "greedy_steps": inst.greedy_steps,
        "fingerprint": first.fingerprint,
    } for i, (inst, first, compile_s) in enumerate(zip(instances, firsts, typical))]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "platform": platform.platform(), "commit": _git_commit(ROOT),
        "instances": len(instances), "compiles": len(samples),
        "setup_wall_s_and_scale_samples": setup_times, "fingerprint": fingerprint,
        "metrics": metrics, "rows": rows,
    }


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def run(args) -> int:
    src = ROOT / "src"
    if not (src / "scmr" / "cli.py").is_file():
        print(f"error: no compiler source at {src}/scmr", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = HERE / "out" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = work / "compiled"
    try:
        setup_times, instances, paths = _set_up(
            args.workload, args.seed, args.tiny, work / "circuits")
        import scmr
        import scmr.cli as cli
        if not Path(scmr.__file__).resolve().is_relative_to(src.resolve()):
            print(f"error: imported scmr from {scmr.__file__}, not {src}", file=sys.stderr)
            return 2
        out_dir.mkdir(parents=True)
        if args.trace:
            untraced = measure(cli, instances, paths, out_dir, args.seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = measure(cli, instances, paths, out_dir, args.seconds / 2, tracer)
            finally:
                tracer.remove()
            samples = untraced + traced
        else:
            samples = measure(cli, instances, paths, out_dir, args.seconds)
        again, regenerated, _ = _set_up(args.workload, args.seed, args.tiny, work / "again")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    _check_repeats(instances, samples)
    run_problems = []
    if [i.text for i in regenerated] != [i.text for i in instances]:
        run_problems.append("the seed gave different instances on a second generation")
    setup_times += again
    setup_s = statistics.median(wall * scale for wall, scale in setup_times)
    e2e = end_to_end(instances, untraced if args.trace else samples, setup_s)
    if args.trace:
        folded = []
        for _, inst, per_name, counts, problems in tracer.compiles():
            folded.append((inst, per_name, counts))
            problems += spans.missing_calls(instances[inst], per_name)
            run_problems.extend(f"trace: {instances[inst].name}: {p}" for p in problems)
        metrics = spans.layer_metrics(folded)
        metrics["trace_overhead"] = (sum(_typical(instances, traced))
                                     / sum(_typical(instances, untraced)))
        units = spans.LAYER_METRICS
        reported = units
    else:
        metrics = e2e
        units = END_TO_END
        reported = [m for m in END_TO_END if m not in PRINT_ONLY]

    firsts = _firsts(instances, samples)
    fingerprint = hashlib.sha256(
        "".join(s.fingerprint for s in firsts).encode()).hexdigest()
    failed = [s for s in samples if s.problems]
    for s in failed[:10]:
        print(f"FAILED {instances[s.index].name}: {'; '.join(s.problems)}", file=sys.stderr)
    for p in run_problems[:10]:
        print(f"FAILED {p}", file=sys.stderr)

    record = _run_record(args, instances, samples, {**e2e, **metrics}, setup_times, fingerprint)
    records = HERE / "out"
    records.mkdir(exist_ok=True)
    record_path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    gates = sum(inst.gates for inst in instances)
    print(f"workload {args.workload}  seed {args.seed}  instances {len(instances)}  "
          f"gates {gates}  compiles {len(samples)}  trace {args.trace}")
    for name, unit in units.items():
        note = (f"  (n={sum(inst.timed for inst in instances)})"
                if name == "compile_s.p50" else "")
        print(f"  {name:<30} {_fmt(metrics[name]):>14} {unit}{note}")
    print(f"fingerprint sha256:{fingerprint}")
    print(f"record {record_path.relative_to(ROOT)}")
    correct = not failed and not run_problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": min(len(samples), len(failed) + len(run_problems)),
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in reported},
    }))
    return 0 if correct else 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny instances, for the benchmark's own tests")
    return p.parse_args(argv)


if __name__ == "__main__":
    sys.exit(run(parse_args()))
