"""What ``import bubblefem`` and a run load: scipy.special and scipy.io
stay out of the process, and ``write_matrix_market`` loads scipy.io on use.
The import itself builds no basis and computes no rule or tabulation: the
cold start pays for none of them."""

import json
import os
import pathlib
import subprocess
import sys

import scipy.io
import scipy.sparse as sp

SCRIPT = """
import json, pathlib, sys

import numpy as np
import scipy.sparse as sp

import bubblefem
from bubblefem import LoopConfig, adaptive_loop, experiment1, experiment2, write_matrix_market
from bubblefem.cli import main


def loaded():
    return sorted(m for m in sys.modules if m.split(".")[:2] in (["scipy", "special"], ["scipy", "io"]))


def cached():
    return {f.__name__: f.cache_info().currsize for f in (
        bubblefem.spaces._local_basis, bubblefem.reference.tabulate,
        bubblefem.reference.triangle_rule, bubblefem.reference.edge_rule)}


out = pathlib.Path(sys.argv[1])
after_import = loaded()
cached_after_import = cached()
adaptive_loop(experiment1(0.5), LoopConfig(p=1, k=3, mode="energy", saturation=True, max_iters=1))
adaptive_loop(experiment2(), LoopConfig(p=1, k=3, mode="goa", max_iters=1))
code = main(["run", "--benchmark", "exp2", "--mode", "goa", "--p", "1", "--k", "3",
             "--max-iters", "1", "--vtk", "--outdir", str(out / "run")])
after_runs = loaded()
cached_after_runs = cached()
write_matrix_market(out / "eye.mtx", sp.identity(3, format="csr") * 2.0)
print(json.dumps({"code": code, "after_import": after_import, "after_runs": after_runs,
                  "io_after_dump": "scipy.io" in sys.modules,
                  "cached_after_import": cached_after_import,
                  "cached_after_runs": cached_after_runs}))
"""


def test_runs_load_neither_scipy_special_nor_scipy_io(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert result["after_import"] == []
    assert result["after_runs"] == []
    assert result["io_after_dump"]
    assert set(result["cached_after_import"].values()) == {0}
    # the runs fill every cache the import left empty
    assert min(result["cached_after_runs"].values()) > 0
    assert list((tmp_path / "run").glob("mesh_*.vtk"))
    back = sp.csr_matrix(scipy.io.mmread(tmp_path / "eye.mtx"))
    assert abs(back - 2.0 * sp.identity(3)).max() == 0.0
