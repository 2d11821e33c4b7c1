import ast
import json
import os
import subprocess
import sys

import pytest

import locallemma
from locallemma.canonical import DEFAULT_SIZE_CAP

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(locallemma.__file__))


@pytest.mark.parametrize("script, args", [
    ("run_det_pipeline.py", ["--sizes", "16"]),
    ("run_rand_pipeline.py", ["--sizes", "6", "--m", "6"]),
    ("run_lll_suite.py", ["--count", "1"]),
])
def test_pipeline_scripts_run(tmp_path, script, args):
    # the LLL suite prints its outcome and writes no report files
    writes_reports = script != "run_lll_suite.py"
    outdir = ["--outdir", str(tmp_path)] if writes_reports else []
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args, *outdir],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    if writes_reports:
        assert list(tmp_path.glob("*.json"))
    else:
        assert "failures=0" in result.stdout


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", ["local_det", "local_sym", "rand_compile", "lll_solve"])
def test_benchmark_round_zero_matches_reference_digest(workload, seed):
    # round 0 of each workload hashes its outputs; the benchmark exits 0
    # only if every op passed and the hash matches perfbench/reference.json
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "(match)" in result.stdout, result.stdout


def test_traced_benchmark_finds_every_traced_name():
    # the tracer looks its spans up by module and name, so a moved or
    # renamed library function fails the traced run, not the untraced one;
    # lll_solve also runs the cover walk under the traced cover_family span,
    # and local_sym the bijection search under the canonical_type span
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for workload in ("rand_compile", "lll_solve", "local_sym"):
        result = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
             "--seed", "0", "--seconds", "0", "--trace", "1"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
        assert result.returncode == 0, result.stdout + result.stderr
        assert json.loads(result.stdout.splitlines()[-1])["correct"] is True, result.stdout


def test_scaling_probe_hash_is_stable():
    # the probe's hash covers assignments and step reports, not times
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "probe_scaling.py"),
         "--sizes", "60"],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "hash b249eb69ec668e23" in result.stdout, result.stdout


def test_benchmark_cap_is_the_library_default():
    # perfbench pins its cap rather than reading it, so that a lower library
    # cap shows as cap-outs; the pin is still the cap every command uses
    with open(os.path.join(ROOT, "perfbench", "workloads.py")) as fh:
        tree = ast.parse(fh.read())
    pins = [ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["CANON_CAP"]]
    assert pins == [DEFAULT_SIZE_CAP]
