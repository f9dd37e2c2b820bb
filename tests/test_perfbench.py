"""Smoke test of the benchmark worker: one traced run per workload must succeed.

The tracer in ``perfbench/spans.py`` rebinds the package's layer functions
by name, so renaming or re-signaturing one of them shows up here.  The
exp2 workload runs the goal-oriented route through the CLI.  The factor
fill the tracer reads off ``SaddleFactorization`` is checked against the
same run replayed in this process, so a change to the factorization
cannot silently zero the benchmark's fill metric.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _replayed_fill(workload, outdir, monkeypatch):
    """Sum of L.nnz + U.nnz over the saddle factors of the workload's seed-0 run."""
    import bubblefem.adapt
    import bubblefem.cli

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    fill = []

    class CountedFactorization(bubblefem.adapt.SaddleFactorization):
        def __init__(self, G, B):
            super().__init__(G, B)
            fill.append(self._lu.L.nnz + self._lu.U.nnz)

    monkeypatch.setattr(bubblefem.adapt, "SaddleFactorization", CountedFactorization)
    # the exp2 set-up rebinds the CLI's loop; restored after the test
    monkeypatch.setattr(bubblefem.cli, "adaptive_loop", bubblefem.cli.adaptive_loop)
    outdir.mkdir()
    workloads.setup(workload, workloads.inputs(workload, 0))(outdir)
    return sum(fill)


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["exp1-energy", "exp2-goa-cli"])
def test_traced_worker_run(tmp_path, workload, monkeypatch):
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
    layers = result["layers"]
    assert layers["trace.coverage"] >= 0.9
    assert layers["solvers.lu_fill"] > 0
    assert layers["solvers.lu_fill"] == _replayed_fill(workload, tmp_path / "replay", monkeypatch)
