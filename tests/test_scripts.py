import os
import subprocess
import sys

import pytest

import locallemma

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(locallemma.__file__))


@pytest.mark.parametrize("script, args", [
    ("run_det_pipeline.py", ["--sizes", "16"]),
    ("run_rand_pipeline.py", ["--sizes", "6", "--m", "6"]),
])
def test_pipeline_scripts_run(tmp_path, script, args):
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args,
         "--outdir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    assert list(tmp_path.glob("*.json"))
