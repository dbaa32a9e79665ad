"""Two-stage staggered semi-implicit midpoint time integration.

``driver.march`` is the one time loop: it prepares the backend for the step
size, then calls ``step`` once per step of the grid.  Each step first
predicts the new-time solution (explicit Euler from the prepared start on the
very first step, two-point linear extrapolation afterwards), then:

  stage 1: advances the parabolic fields with the midpoint rule, nonlinear
           coefficients frozen at the predicted midpoint;
  stage 2: solves the quasi-static fields at the new time against the
           predicted (or latest) values of their peers.

Step 1, the step across the load switch-on at t = 0, advances the heat
equation with two backward-Euler half-steps instead (Rannacher start-up; the
half-steps share the midpoint matrix M + dt/2 K).  The uniform initial
temperature does not fit the loaded heat source, so the jump excites thermal
modes that relax in under 0.1 s, far faster than a step of seconds; the
midpoint factor (1 - lambda dt/2)/(1 + lambda dt/2) tends to -1 on them, so
they would ring undamped through the run and cost the temperature its second
order.  The concentrations are not stiff against dt and keep the midpoint
rule in every step.

The pair of stages is then re-swept (the fresh iterate replacing the predictor
midpoint) until the relative update is below ``fp_tol``; after ``MAX_SWEEPS``
sweeps a step raises ``SolveError`` naming the step, the sweeps, the update
and the field with the largest one.

Backends describe their parabolic fields as data: ``parabolic(state)``
returns the ``physics.InterfaceState`` of ``state`` (None without an
interface; a step reports the one of its accepted sweep) and ``{field: (M,
K, b)}``, the system M d' + K d = b with coefficients frozen at ``state``,
which ``stage1`` and the Euler predictor read.  Backends also provide
``prepare(state0, dt)`` (sets ``dt``, factorizes the midpoint matrices it
holds in ``mid_ops``, returns the start), ``stage2``, ``initial_state``, the
field name tuples ``D_FIELDS``, ``S_FIELDS`` and ``STARTUP_FIELDS`` (those
taking the backward-Euler start-up), the ``field_scales`` of the update norm
and ``solvers`` (one ``solve.Solver`` per linear system); the battery problem
and the linear verification surrogate both implement it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import assemble as asm
from .solve import Solver, SolveError, jacobi_solve
from .state import History, SimState, extrapolate

log = logging.getLogger(__name__)

MAX_SWEEPS = 20     # benchmark steps meet the default fp_tol within 6 sweeps


@dataclass(frozen=True)
class TimeGrid:
    """Uniform step partition of [0, t_end]: t_n = n * dt."""

    dt: float
    n_steps: int

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("time step must be positive")
        if self.n_steps < 1:
            raise ValueError("need at least one time step")

    @property
    def t_end(self) -> float:
        return self.n_steps * self.dt

    @classmethod
    def from_duration(cls, t_end: float, dt: float) -> "TimeGrid":
        n = round(t_end / dt)
        if n < 1 or abs(n * dt - t_end) > 1e-9 * max(t_end, dt):
            raise ValueError(
                f"t_end = {t_end:g} is not an integer number of steps of "
                f"dt = {dt:g}")
        return cls(dt=dt, n_steps=n)


@dataclass
class StepReport:
    n: int
    t: float
    sweeps: int
    update_history: list = field(default_factory=list)  # the last < fp_tol
    clamp_events: int = 0        # always 0: the guard raises, never clamps
    ibv_integral: float = 0.0
    eta_ibv_min: float = 0.0
    eta_max: float = 0.0
    refactorizations: int = 0    # summed over the backend's solvers
    cg_iterations: int = 0       # preconditioned CG, summed likewise


def predict(backend, history: History, dt: float) -> SimState:
    """Predictor for the new-time state.

    With two history levels both field groups extrapolate linearly; on the
    first step the dynamic fields take an Euler step, d + dt M^-1 (b - K d)
    on the systems of ``backend.parabolic``, and the quasi-static fields
    re-solve against that prediction.  A run takes this Euler step once, so
    Jacobi-CG solves the well-conditioned mass matrices, faster than a
    factorization and without its memory.
    """
    prev = history.prev
    t_new = prev.t + dt
    if history.depth >= 2:
        return extrapolate(prev, history.prev2, t_new)
    _, systems = backend.parabolic(prev)
    fields = {f: prev[f].copy() for f in backend.D_FIELDS if f not in systems}
    for name, (m, k, b) in systems.items():
        fields[name] = prev[name] + dt * jacobi_solve(
            m, b - k @ prev[name], f"{name} mass")
    return SimState(t_new, {**fields,
                            **backend.stage2(t_new, fields, prev)})


def stage1(backend, prev: SimState, mid: SimState, heat_start: bool):
    """Advance the parabolic fields over the prepared dt with coefficients
    frozen at ``mid``; returns the new d-fields and the InterfaceState of
    ``mid``.

    Each midpoint system (M + dt/2 K) d_n = (M - dt/2 K) d_prev + dt b is
    solved in increment form, (M + dt/2 K) delta = dt (b - K d_prev), which
    avoids the cancellation of the large constant background in the explicit
    operator.  The matrix is the one ``prepare`` put in ``backend.mid_ops``
    for a fixed K, else it is formed from this sweep's K (c_s, whose solid
    diffusivity changes with the midpoint; its solver's held factor
    preconditions CG on it).

    With ``heat_start`` (the step across the load switch-on) the fields in
    ``backend.STARTUP_FIELDS`` instead take two backward-Euler half-steps,
    (M + dt/2 K) delta_k = dt/2 (b - K d_k), which reuse the midpoint matrix;
    b stays evaluated at the midpoint.  A dynamic field without a system
    keeps its previous values.
    """
    iface, systems = backend.parabolic(mid)
    dt = backend.dt
    new = {f: prev[f].copy() for f in backend.D_FIELDS if f not in systems}
    for name, (m, k, b) in systems.items():
        mat = backend.mid_ops.get(name)
        if mat is None:
            mat = asm.midpoint_matrix(m, k, dt)
        n_sub = 2 if heat_start and name in backend.STARTUP_FIELDS else 1
        h = dt / n_sub
        d = prev[name]
        for _ in range(n_sub):
            d = d + backend.solvers[name].solve(mat, h * (b - k @ d))
        new[name] = d
    return new, iface


def step(backend, history: History, grid: TimeGrid, n: int,
         fp_tol: float = 1e-8) -> tuple[SimState, StepReport]:
    """Advance one step: predict, then sweep until the update meets fp_tol.

    Step ``n = 1`` starts the heat equation with backward Euler (see the
    module docstring); every other step is midpoint.
    """
    prev = history.prev
    dt = grid.dt
    t_new = prev.t + dt
    solvers = backend.solvers.values()
    refac0 = sum(s.refactorizations for s in solvers)
    cg0 = sum(s.cg_iterations for s in solvers)

    iterate = predict(backend, history, dt)
    updates = []
    for _ in range(MAX_SWEEPS):
        mid = prev.midpoint(iterate)
        d_new, iface = stage1(backend, prev, mid, n == 1)
        new_state = SimState(t_new, {**d_new,
                                     **backend.stage2(t_new, d_new, iterate)})
        diffs = new_state.rel_diffs(iterate, backend.field_scales)
        worst = max(diffs, key=diffs.get)
        updates.append(diffs[worst])
        iterate = new_state
        if updates[-1] < fp_tol:
            break
    else:
        raise SolveError(
            f"step {n} (t = {t_new:g} s): fixed-point update "
            f"{updates[-1]:.3e} (largest in {worst}) still at or above "
            f"fp_tol = {fp_tol:g} after {MAX_SWEEPS} sweeps")
    report = StepReport(
        n=n, t=t_new, sweeps=len(updates), update_history=updates,
        refactorizations=sum(s.refactorizations for s in solvers) - refac0,
        cg_iterations=sum(s.cg_iterations for s in solvers) - cg0,
    )
    if iface is not None:       # the interface of the accepted sweep
        report.ibv_integral = iface.ibv_integral()
        report.eta_ibv_min = iface.eta_ibv_min()
        report.eta_max = iface.eta_max_abs()
    log.info("step %5d  t=%-10.4g sweeps=%d  max_update=%.3e  "
             "refactorizations=%d  cg_iterations=%d",
             n, t_new, report.sweeps, updates[-1],
             report.refactorizations, report.cg_iterations)
    return iterate, report


class LinearSurrogate:
    """Fixed-coefficient linear system M d' + K d = b for scheme verification.

    Runs through the identical predictor and ``stage1`` code as the coupled
    problem, with no quasi-static stage and no start-up field.
    """

    D_FIELDS = ("d",)
    S_FIELDS = ()
    STARTUP_FIELDS = ()
    field_scales = {}           # d is measured against its own size

    def __init__(self, mass, stiffness, load, d0):
        self.mass = mass
        self.stiffness = stiffness
        self.load = np.asarray(load, dtype=float)
        self.d0 = np.asarray(d0, dtype=float)
        self.solvers = {"d": Solver("d")}
        self.dt, self.mid_ops = None, {}    # set by prepare

    def initial_state(self) -> SimState:
        return SimState(0.0, {"d": self.d0.copy()})

    def prepare(self, state0: SimState, dt: float) -> SimState:
        """Factorize the midpoint matrix M + dt/2 K; state0 is the start."""
        self.dt = dt
        self.mid_ops = {"d": asm.midpoint_matrix(self.mass, self.stiffness,
                                                 dt)}
        self.solvers["d"].factorize(self.mid_ops["d"])
        return state0

    def parabolic(self, state: SimState):
        return None, {"d": (self.mass, self.stiffness, self.load)}

    def stage2(self, t, d_new, s_guess):
        return {}
