"""Every demo script runs to completion against the source tree and prints
the pinned bytes."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; every demo is seeded, so a change here means
# a map, a route, a formula or a printed figure changed
STDOUT_SHA256 = {
    "01_compile_a_circuit": "78e76ea2777a62a625b023735d2e639be177a64d035e20acfaacf58e0a3c546c",
    "02_exact_vs_heuristic": "693d3673791f22ec241a4200e513a3782a0d03b0394acd7511f327eed1ddaf02",
    "03_mapper_quality_sweep": "f2854dc0a58ae0e07b8b6230d378f1804c7db97613fab1c9618c547b90a1b19a",
    "04_reduction_instances": "8ca912f8ae54871a997799be019b83b0b42c0123a1d421a9b56cc58eae978aa9",
    "05_sat_encoding_tour": "75c7bc90518ee75c9937e9e29469a88a93f103ee8a682378527df6af8291094f",
}


def test_demos_are_found():
    assert len(DEMOS) >= 5
    assert sorted(STDOUT_SHA256) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[demo.stem], done.stdout.decode()
