"""Smoke test of the benchmark worker: one traced run per workload must succeed.

The tracer in ``perfbench/spans.py`` rebinds the package's layer functions
by name, so renaming or re-signaturing one of them shows up here.  The
exp2 workload runs the goal-oriented route through the CLI.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["exp1-energy", "exp2-goa-cli"])
def test_traced_worker_run(tmp_path, workload):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
           "--seed", "0", "--trace", "1", "--workdir", str(tmp_path), "--run-id", "smoke",
           "--src", str(ROOT / "src")]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["ok"], result.get("error", "") + proc.stderr
    assert result["layers"]["trace.coverage"] >= 0.9
