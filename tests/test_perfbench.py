"""Smoke test of the benchmark worker: one traced run per workload must succeed.

The tracer in ``perfbench/spans.py`` rebinds the package's layer functions
by name, so renaming or re-signaturing one of them shows up here.  The
exp2 workload runs the goal-oriented route through the CLI.  The factor
fill the tracer reads off ``SaddleFactorization`` is checked against the
same run replayed in this process, so a change to the factorization
cannot silently zero the benchmark's fill metric.  The uniform workload
runs the largest saturation solves, whose factors of B_full must not be
counted as saddle fill.
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


def test_tracer_bindings_resolve(monkeypatch):
    """Every function the tracer rebinds exists and is callable, and the saddle
    factor exposes the LU factors whose fill it reads.  The traced worker
    run is slow, so this keeps the bindings checked in the fast subset."""
    import importlib

    import numpy as np
    import scipy.sparse as sp

    from bubblefem.solvers import SaddleFactorization

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans

    for layer, names in spans.TRACED.items():
        module = importlib.import_module(f"bubblefem.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"bubblefem.{layer}.{name}"
    G = sp.identity(3, format="csr")
    B = sp.csr_matrix(np.array([[1.0], [0.0], [2.0]]))
    lu = SaddleFactorization(G, B)._lu
    assert lu.L.nnz > 0 and lu.U.nnz > 0


def test_traced_factorization_counts_fill(monkeypatch):
    """The tracer's SaddleFactorization subclass records one factor span and
    reads the LU fill L.nnz + U.nnz; otherwise only the slow traced worker
    run builds it."""
    import numpy as np
    import scipy.sparse as sp

    from bubblefem.solvers import SaddleFactorization

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans

    tracer = spans.Tracer("t")
    G = sp.identity(3, format="csr")
    B = sp.csr_matrix(np.array([[1.0], [0.0], [2.0]]))
    factor = spans._traced_factorization(tracer, SaddleFactorization)(G, B)
    assert [span[0] for span in tracer.spans].count("solvers.factor") == 1
    assert tracer.counts["solvers.lu_fill"] == factor._lu.L.nnz + factor._lu.U.nnz
    # the traced factor still solves K x = rhs
    _, _, r = factor.solve(np.ones(3), np.zeros(1))
    assert np.abs(r).max() <= 1e-15


def test_exp2_grids_conform_to_the_region(monkeypatch):
    """The jittered exp2 grid of every seed keeps the QoI box's edges as grid
    lines, so the QoI assembly accepts it; otherwise only a benchmark run
    would find out."""
    from bubblefem import build_structured_mesh, experiment2
    from bubblefem.forms import classify_qoi_cells

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    bench = experiment2()
    for seed in range(10):
        params = workloads.inputs("exp2-goa-cli", seed)
        if params["grid_x"] is None:
            mesh = bench.initial_mesh()
        else:
            mesh = build_structured_mesh(grid_lines_x=params["grid_x"],
                                         grid_lines_y=params["grid_y"])
        classify_qoi_cells(mesh, bench.qoi_region)


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["exp1-energy", "exp2-goa-cli", "uniform-p2k4"])
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
