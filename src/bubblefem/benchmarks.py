"""Benchmark problems with closed-form solutions.

Both problems live on the unit square and drive the verification and
acceptance suites:

* ``curved-layer`` -- a unit advection field tangent to circles centred
  at (0, -1) transporting an arctan interior layer across the domain,
  with constant reaction 0.1.  Along each characteristic the angular
  exponential factor of the exact solution decays exactly like the
  reaction damps it, so the manufactured source vanishes identically.
* ``goal-tanh`` -- constant advection (3, 1), zero reaction, a pair of
  tanh shear layers constant along characteristics (again zero source),
  and a mean-value quantity of interest over a small subrectangle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .forms import ProblemData, Rectangle
from .mesh import build_structured_mesh


@dataclass
class Benchmark:
    """Problem data plus exact solution, QoI region and initial mesh."""

    name: str
    data: ProblemData
    exact: object
    exact_grad: object
    qoi_region: Rectangle | None
    initial_mesh: object  # () -> Mesh


def experiment1(delta=0.01):
    """Curved advection of an arctan interior layer (reaction 0.1).

    ``delta`` controls the layer stiffness; the layer sits on the circle
    of radius 1.5 around (0, -1).
    """
    if not 0.0 < delta < math.inf:
        raise ValueError("layer parameter delta must be finite and positive")
    mu = 0.1

    def _split(points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        x = points[:, 0]
        yp = points[:, 1] + 1.0
        r = np.sqrt(x**2 + yp**2)
        return x, yp, r

    def velocity(points):
        x, yp, r = _split(points)
        return np.column_stack([yp / r, -x / r])

    def exact(points):
        x, yp, r = _split(points)
        theta = np.arcsin(np.clip(yp / r, -1.0, 1.0))
        return np.exp(mu * r * theta) * np.arctan((r - 1.5) / delta)

    def exact_grad(points):
        x, yp, r = _split(points)
        theta = np.arcsin(np.clip(yp / r, -1.0, 1.0))
        expf = np.exp(mu * r * theta)
        layer = np.arctan((r - 1.5) / delta)
        dlayer = (1.0 / delta) / (1.0 + ((r - 1.5) / delta) ** 2)
        grad_r = np.column_stack([x / r, yp / r])
        grad_theta = np.column_stack([-yp / r**2, x / r**2])
        radial = expf * (mu * theta * layer + dlayer)
        angular = expf * mu * r * layer
        return radial[:, None] * grad_r + angular[:, None] * grad_theta

    def source(points):
        # advection along circles cancels the reaction term exactly
        return np.zeros(len(np.atleast_2d(points)))

    data = ProblemData(
        velocity=velocity,
        reaction=lambda points: np.full(len(np.atleast_2d(points)), mu),
        source=source,
        inflow_data=exact,
        reaction_floor=mu,
    )
    return Benchmark(
        name="curved-layer",
        data=data,
        exact=exact,
        exact_grad=exact_grad,
        qoi_region=None,
        initial_mesh=lambda: build_structured_mesh(8),
    )


def experiment2():
    """Constant advection (3, 1) of two tanh layers with a mean-value QoI.

    Pure advection (reaction 0), source 0; the inflow trace defines the
    exact solution.  The initial mesh conforms to the QoI rectangle
    (0.7, 0.8) x (0.3, 0.5).
    """

    def velocity(points):
        points = np.atleast_2d(points)
        return np.tile([3.0, 1.0], (len(points), 1))

    def _layers(points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        s = points[:, 1] - points[:, 0] / 3.0
        return np.tanh(10.0 * (s - 0.25)), np.tanh(1000.0 * (s - 0.75))

    def exact(points):
        t1, t2 = _layers(points)
        return 2.0 + t1 + t2

    def exact_grad(points):
        t1, t2 = _layers(points)
        ds = 10.0 * (1.0 - t1**2) + 1000.0 * (1.0 - t2**2)
        return np.column_stack([-ds / 3.0, ds])

    zero = lambda points: np.zeros(len(np.atleast_2d(points)))
    data = ProblemData(
        velocity=velocity,
        reaction=zero,
        source=zero,
        inflow_data=exact,
        reaction_floor=0.0,
    )
    return Benchmark(
        name="goal-tanh",
        data=data,
        exact=exact,
        exact_grad=exact_grad,
        qoi_region=Rectangle(0.7, 0.8, 0.3, 0.5),
        initial_mesh=lambda: build_structured_mesh(10),
    )


BENCHMARKS = {"exp1": experiment1, "exp2": experiment2}


def get_benchmark(name, delta=None):
    """Benchmark registry lookup; ``delta`` applies to exp1 only."""
    if name not in BENCHMARKS:
        raise KeyError(f"unknown benchmark {name!r}; choose from {sorted(BENCHMARKS)}")
    if name == "exp1":
        return experiment1(delta if delta is not None else 0.01)
    return BENCHMARKS[name]()
