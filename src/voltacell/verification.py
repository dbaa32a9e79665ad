"""Convergence-order verification drivers.

Temporal: the two-stage scheme (with its predictors) runs on a fixed
-coefficient linear system M d' + K d = b whose exact solution is a sum of
decaying exponentials, computed independently from the generalized symmetric
eigenproblem.  Spatial: manufactured Poisson/reaction problems on the unit
square, measuring H1-seminorm rates under uniform refinement for several
polynomial degrees.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import assemble as asm
from . import spaces as sps
from .geometry import CC_MINUS, CC_PLUS, TOP, BOTTOM
from .mesh import rectangle_mesh
from .solve import solve_spd
from .stepping import LinearSurrogate, TimeGrid, integrate_linear


@dataclass
class OrderStudy:
    label: str
    resolutions: list
    errors: list
    rates: list = field(default_factory=list)
    runtime_s: float = 0.0

    def __post_init__(self):
        self.rates = [float(np.log2(self.errors[k] / self.errors[k + 1]))
                      for k in range(len(self.errors) - 1)]

    @property
    def observed_order(self) -> float:
        return self.rates[-1]

    def summary(self) -> str:
        pairs = ", ".join(f"{r:g}: {e:.3e}" for r, e in
                          zip(self.resolutions, self.errors))
        return (f"{self.label}: errors {{{pairs}}}, rates "
                f"{[f'{r:.3f}' for r in self.rates]}, "
                f"runtime {self.runtime_s:.2f}s")


def _surrogate_system(n: int = 12, seed: int = 7):
    """A small SPD pair (M, K) with load and start vector.

    M is a finite element mass matrix (so it is not a multiple of the
    identity); K adds a stiffness part scaled so that all decay rates stay
    resolved by the largest step of the study (lambda * dt <= ~1.4), keeping
    every grid point of the refinement inside the asymptotic dt^2 regime.
    """
    mesh = rectangle_mesh(1.0, 1.0, 3, 2, degree=1)
    space = sps.build_field_space(mesh, sps.OMEGA, name="surrogate")
    mass = asm.assemble_mass(space, 1.0)
    stiff = asm.assemble_stiffness(space, 8e-4) + 0.04 * mass
    rng = np.random.default_rng(seed)
    load = rng.normal(size=space.ndof)
    d0 = rng.normal(size=space.ndof)
    return mass, stiff, load, d0


def surrogate_exact(mass, stiff, load, d0, t: float) -> np.ndarray:
    """Exact solution of M d' + K d = b via the generalized eigenproblem."""
    m = mass.toarray()
    k = stiff.toarray()
    lam, vecs = scipy.linalg.eigh(k, m)    # K v = lam M v, vecs M-orthonormal
    d_inf = np.linalg.solve(k, load)
    y0 = vecs.T @ (m @ (d0 - d_inf))
    return d_inf + vecs @ (np.exp(-lam * t) * y0)


def temporal_order_study(dts=(8.0, 4.0, 2.0, 1.0), t_end: float = 32.0,
                         extra_iters: int = 0) -> OrderStudy:
    """Observed order of the two-stage scheme on the linear surrogate."""
    t0 = time.time()
    mass, stiff, load, d0 = _surrogate_system()
    exact = surrogate_exact(mass, stiff, load, d0, t_end)
    errors = []
    for dt in dts:
        surrogate = LinearSurrogate(mass, stiff, load, d0)
        grid = TimeGrid.from_duration(t_end, dt)
        final = integrate_linear(surrogate, grid, extra_iters=extra_iters)
        errors.append(float(np.linalg.norm(final["d"] - exact)
                            / np.linalg.norm(exact)))
    study = OrderStudy(label="temporal (linear surrogate)",
                       resolutions=list(dts), errors=errors)
    study.runtime_s = time.time() - t0
    return study


def poisson_h1_error(n: int, degree: int, reaction: float = 0.0) -> float:
    """H1-seminorm error of the manufactured problem
    -lap(u) + reaction*u = f with u = sin(pi x) cos(pi y) on the unit square."""
    mesh = rectangle_mesh(1.0, 1.0, n, n, degree=degree)
    u_exact = lambda x, y: np.sin(np.pi * x) * np.cos(np.pi * y)
    f_rhs = lambda x, y: (2.0 * np.pi ** 2 + reaction) * u_exact(x, y)
    bcs = [sps.EssentialBC(part, 0, u_exact)
           for part in (CC_MINUS, CC_PLUS, TOP, BOTTOM)]
    space = sps.build_field_space(mesh, sps.OMEGA, 1, bcs, name="mms")
    mat = asm.assemble_stiffness(space, 1.0)
    if reaction:
        mat = mat + asm.assemble_mass(space, reaction)
    rhs = asm.assemble_load(space, f_rhs)
    a_red, b_red = asm.constrain(space, mat, rhs)
    u = asm.expand(space, solve_spd(a_red, b_red))

    grad = asm.eval_grad_qp(space, u)
    qx, qy = space.qp.x, space.qp.y
    ex = grad[:, 0] - np.pi * np.cos(np.pi * qx) * np.cos(np.pi * qy)
    ey = grad[:, 1] + np.pi * np.sin(np.pi * qx) * np.sin(np.pi * qy)
    return np.sqrt(asm.integrate(space, ex ** 2 + ey ** 2))


def spatial_order_study(degrees=(1, 2, 3), reaction: float = 0.0) -> dict:
    """H1 convergence rates under uniform refinement, one study per degree."""
    out = {}
    for p in degrees:
        t0 = time.time()
        ns = [8, 16, 32, 64] if p == 1 else [4, 8, 16, 32]
        errors = [poisson_h1_error(n, p, reaction) for n in ns]
        study = OrderStudy(label=f"spatial p={p}", resolutions=ns,
                           errors=errors)
        study.runtime_s = time.time() - t0
        out[p] = study
    return out
