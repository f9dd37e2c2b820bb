"""Spans around the calls into the package's layers, installed from outside.

``install`` replaces each traced function by a wrapper in *every* loaded
``bubblefem`` module that binds it, because ``adapt`` and ``cli`` import
the layer functions by name at import time and ``adapt`` imports ``vtkio``
lazily.  A wrapper records one span (name, start, end, parent, run id)
and returns the wrapped result unchanged.  Spans stay in memory until
``dump`` writes them out at the end of the run.
"""

import functools
import json
import os
import sys
import time
from collections import defaultdict

# module -> {function: span name}; a span's metrics are "<span>_s" (inclusive
# seconds) and "<span>_calls"
TRACED = {
    "mesh": {"refine": "mesh.refine", "classify_boundary": "mesh.classify",
             "build_structured_mesh": "mesh.build_structured"},
    "spaces": {"build_space": "spaces.build_space", "inject_trial": "spaces.inject_trial"},
    "forms": {name: f"forms.{name}" for name in (
        "assemble_gram", "assemble_stabilized", "assemble_load", "assemble_qoi",
        "cell_quadrature")},
    "solvers": {name: f"solvers.{name}" for name in (
        "solve_saddle", "solve_adjoint", "solve_cip_enriched", "orthogonality_residual")},
    "analysis": {name: f"analysis.{name}" for name in (
        "error_norms", "local_energy_products", "qoi_error", "qoi_reference")},
    "adapt": {name: f"adapt.{name}" for name in (
        "adaptive_loop", "energy_indicators", "goa_indicators", "dorfler_mark",
        "write_records_csv")},
    "vtkio": {"write_vtk": "vtkio.write", "write_mesh_txt": "vtkio.write"},
    "cli": {"main": "cli.main"},
    "reference": {"triangle_rule": "reference.rules", "edge_rule": "reference.rules"},
}
# SaddleFactorization construction (the LU) is the span "solvers.factor"

# spans whose self time is loop or CLI bookkeeping rather than layer work
OUTER_SPANS = ("adapt.adaptive_loop", "cli.main")
# the tracer's own counting (reading factor fill, file sizes) runs in these
HOOK = "trace.hook"


class Tracer:
    """Span recorder with a parent stack and counters for one run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self._stack = []

    def call(self, name, fn, args, kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if after is not None:
                self.call(HOOK, after, (self.counts, result, args), {})
            return result

        return traced

    def summary(self, run_s):
        """Per-layer metrics: inclusive seconds per span name, self time of
        the outer spans, coverage and the counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name + "_s"] += end - start
            calls[name] += 1
            if name in OUTER_SPANS:
                out[name.split(".")[0] + ".self_s"] += end - start - child_time[i]
        for name, n in calls.items():
            out[name + "_calls"] = n
        c = self.counts
        out["mesh.closure_ratio"] = c["cells_added"] / c["cells_marked"] if c["cells_marked"] else 0.0
        out["adapt.marked_fraction"] = c["marked"] / c["marked_of"] if c["marked_of"] else 0.0
        for key in ("forms.nnz_G", "forms.nnz_B", "forms.nnz_B_full", "solvers.lu_fill",
                    "mesh.cells_final", "vtkio.bytes_written"):
            out[key] = c[key]
        uncovered = out["adapt.self_s"] + out["cli.self_s"]
        out["trace.run_s"] = run_s
        out["trace.coverage"] = 1.0 - uncovered / (run_s - out[HOOK + "_s"])
        out["trace.spans"] = len(self.spans)
        return dict(out)

    def dump(self, path):
        """Write every span of the run as JSON (times relative to the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        spans = [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p, "run": self.run_id}
            for n, s, e, p in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "spans": spans}, fh)


def _after_refine(counts, mesh, args):
    parent, marked = args[0], args[1]
    counts["cells_added"] += len(mesh.cells) - len(parent.cells)
    counts["cells_marked"] += len(set(int(c) for c in marked))


def _after_build_space(counts, space, args):
    counts["mesh.cells_final"] = len(args[0].cells)


def _after_gram(counts, G, args):
    counts["forms.nnz_G"] += G.nnz


def _after_stabilized(counts, B, args):
    rows, cols = B.shape
    counts["forms.nnz_B_full" if rows == cols else "forms.nnz_B"] += B.nnz


def _after_mark(counts, marked, args):
    counts["marked"] += len(marked)
    counts["marked_of"] += len(getattr(args[0], "eta", args[0]))


def _after_write(counts, result, args):
    # computed from the sizes of the files written, not measured I/O
    counts["vtkio.bytes_written"] += os.path.getsize(args[0])


# (module, function) -> counting hook run after each call
AFTER = {
    ("mesh", "refine"): _after_refine,
    ("spaces", "build_space"): _after_build_space,
    ("forms", "assemble_gram"): _after_gram,
    ("forms", "assemble_stabilized"): _after_stabilized,
    ("adapt", "dorfler_mark"): _after_mark,
    ("vtkio", "write_vtk"): _after_write,
    ("vtkio", "write_mesh_txt"): _after_write,
}


def _rebind(original, replacement):
    """Point every bubblefem module attribute bound to ``original`` at ``replacement``."""
    for modname, module in list(sys.modules.items()):
        if modname == "bubblefem" or modname.startswith("bubblefem."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _traced_factorization(tracer, base):
    class TracedSaddleFactorization(base):
        """Times the LU and reads its fill L.nnz + U.nnz from the factor object."""

        def __init__(self, G, B):
            tracer.call("solvers.factor", super().__init__, (G, B), {})
            tracer.call(HOOK, self._count_fill, (), {})

        def _count_fill(self):
            tracer.counts["solvers.lu_fill"] += self._lu.L.nnz + self._lu.U.nnz

    return TracedSaddleFactorization


def install(tracer):
    """Wrap every function in TRACED, and SaddleFactorization, for this process."""
    import importlib

    for layer, spans in TRACED.items():
        module = importlib.import_module(f"bubblefem.{layer}")
        for fname, span in spans.items():
            original = getattr(module, fname)
            _rebind(original, tracer.wrap(span, original, AFTER.get((layer, fname))))
    solvers = importlib.import_module("bubblefem.solvers")
    base = solvers.SaddleFactorization
    _rebind(base, _traced_factorization(tracer, base))
