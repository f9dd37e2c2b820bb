"""One run of one workload in a fresh process; prints one JSON line.

Started by ``run.py`` with PYTHONPATH pointing at the checkout's ``src``
and the BLAS thread cap in the environment.  ``setup_s`` covers the
interpreter's imports of numpy and bubblefem plus building the problem
and its initial mesh; ``run_s`` covers one complete adaptive run.
``cal_s`` holds six times of a fixed kernel, three run right before and
three right after the run, from which ``run.py`` estimates the machine's
momentary speed.  With ``--trace 1`` the layer functions are wrapped (see
``spans.py``) after set-up, and the per-layer metrics are added to the
output.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402


def calibrate():
    """Three timings of the calibration kernel, in seconds."""
    return [_kernel() for _ in range(3)]


def _kernel():
    """Seconds for a fixed amount of work that does not touch the package.

    The mix resembles the pipeline's: sparse matrix construction and LU, a
    batched small-matrix einsum, and dict-heavy Python.
    """
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    start = time.perf_counter()
    n = 90
    lap = sp.diags([-1.0, 2.1, -1.0], [-1, 0, 1], shape=(n, n))
    x = splu((sp.kron(lap, sp.eye(n)) + sp.kron(sp.eye(n), lap)).tocsc()).solve(np.ones(n * n))
    a = np.linspace(0.0, 1.0, 20000 * 36).reshape(20000, 6, 6)
    y = np.einsum("cij,cjk->cik", a, a).sum()
    table = {}
    for i in range(150000):
        table[(i % 997, i % 13)] = i
    elapsed = time.perf_counter() - start
    if not (math.isfinite(x.sum() + y) and len(table) == 997 * 13):
        raise RuntimeError("calibration kernel produced a wrong result")
    return elapsed


def check_records(workload, records):
    """Raise ValueError unless every iteration is sound and the accuracy is on target."""
    if not records:
        raise ValueError("the run produced no iterations")
    for rec in records:
        for field in ("kkt_residual", "orthogonality"):
            value = getattr(rec, field)
            if not (math.isfinite(value) and value <= workloads.RESIDUAL_BOUND):
                raise ValueError(f"iteration {rec.iteration}: {field} = {value!r} "
                                 f"exceeds {workloads.RESIDUAL_BOUND:g}")
        if not math.isfinite(rec.est_energy):
            raise ValueError(f"iteration {rec.iteration}: est_energy = {rec.est_energy!r}")
    last = records[-1]
    for field in ("err_l2_rel", "err_triple", workload.error_field):
        if not math.isfinite(getattr(last, field)):
            raise ValueError(f"final {field} is not finite")
    final_err = getattr(last, workload.error_field)
    if not 0.0 < final_err <= workload.reference * (1.0 + workload.rtol):
        raise ValueError(f"final {workload.error_field} = {final_err:.6g} exceeds the "
                         f"reference {workload.reference:.6g} by more than {workload.rtol:g}")
    return final_err


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--src", required=True, help="the package source the run must import")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    workdir = pathlib.Path(args.workdir)
    outdir = workdir / f"out-{args.run_id}"
    result = {"ok": False, "run_id": args.run_id}
    try:
        run = workloads.setup(workload.name, workloads.inputs(workload.name, args.seed))
        result["setup_s"] = time.perf_counter() - _T0

        import bubblefem

        src = pathlib.Path(args.src).resolve()
        if src not in pathlib.Path(bubblefem.__file__).resolve().parents:
            raise RuntimeError(f"imported {bubblefem.__file__}, not the package under {src}")

        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer(args.run_id)
            spans.install(tracer)
        outdir.mkdir(parents=True)
        cal_before = calibrate()
        start = time.perf_counter()
        records, cli = run(outdir)
        run_s = time.perf_counter() - start
        result["cal_s"] = cal_before + calibrate()
        if cli is not None:
            workloads.check_cli_outputs(outdir, records, cli)
        result["final_err"] = check_records(workload, records)
        result["run_s"] = run_s
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["iterations"] = len(records)
        result["final_dofs"] = records[-1].dofs_total
        if tracer is not None:
            layers = tracer.summary(run_s)
            layers["adapt.iterations"] = len(records)
            layers["adapt.final_dofs"] = records[-1].dofs_total
            layers["solvers.kkt_residual_max"] = max(r.kkt_residual for r in records)
            layers["solvers.orthogonality_max"] = max(r.orthogonality for r in records)
            result["layers"] = layers
            tracer.dump(workdir / f"spans-{workload.name}.json")
        result["ok"] = True
    except Exception as exc:  # reported to the parent as a failed run
        traceback.print_exc(file=sys.stderr)
        result["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
