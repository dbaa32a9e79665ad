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
and the field with the largest one.  Backends provide ``prepare(state0,
dt)`` (factorizes what the steps of dt reuse, returns their start),
``stage1(prev, mid, heat_start)`` over the prepared dt, ``stage2``,
``d_rate``, ``initial_state``, field name tuples and ``solvers`` (one
``solve.Solver`` per linear system); the battery problem and the linear
verification surrogate both implement it.  ``stage1`` also returns the
``physics.InterfaceState`` of its midpoint (None without an interface), whose
diagnostics the step reports for its accepted sweep.
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
    first step the dynamic fields take an Euler step and the quasi-static
    fields re-solve against that prediction.
    """
    prev = history.prev
    t_new = prev.t + dt
    if history.depth >= 2:
        return extrapolate(prev, history.prev2, t_new)
    rates = backend.d_rate(prev)
    fields = {k: prev[k] + dt * rates[k] for k in backend.D_FIELDS}
    pred = SimState(t_new, {**{k: prev[k].copy() for k in backend.S_FIELDS},
                            **fields})
    if backend.S_FIELDS:
        s_new = backend.stage2(t_new, fields, prev)
        pred.fields.update(s_new)
    return pred


def step(backend, history: History, grid: TimeGrid, n: int,
         fp_tol: float = 1e-8) -> tuple[SimState, StepReport]:
    """Advance one step: predict, then sweep until the update meets fp_tol.

    Step ``n = 1`` starts the heat equation with backward Euler (see the
    module docstring); every other step is midpoint.
    """
    prev = history.prev
    dt = grid.dt
    t_new = prev.t + dt
    scales = getattr(backend, "field_scales", None)
    solvers = backend.solvers.values()
    refac0 = sum(s.refactorizations for s in solvers)
    cg0 = sum(s.cg_iterations for s in solvers)

    iterate = predict(backend, history, dt)
    updates = []
    for _ in range(MAX_SWEEPS):
        mid = prev.midpoint(iterate)
        d_new, iface = backend.stage1(prev, mid, heat_start=n == 1)
        s_new = backend.stage2(t_new, d_new, iterate) if backend.S_FIELDS else {}
        new_state = SimState(t_new, {**d_new, **s_new})
        diffs = new_state.rel_diffs(iterate, scales)
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

    Runs through the identical predictor/midpoint code path as the coupled
    problem, with no quasi-static stage.
    """

    D_FIELDS = ("d",)
    S_FIELDS = ()

    def __init__(self, mass, stiffness, load, d0):
        self.mass = mass
        self.stiffness = stiffness
        self.load = np.asarray(load, dtype=float)
        self.d0 = np.asarray(d0, dtype=float)
        self.solvers = {"d": Solver("d")}
        self.dt = self.mid_matrix = None      # set by prepare

    def initial_state(self) -> SimState:
        return SimState(0.0, {"d": self.d0.copy()})

    def prepare(self, state0: SimState, dt: float) -> SimState:
        """Factorize the midpoint matrix M + dt/2 K; state0 is the start."""
        self.dt = dt
        self.mid_matrix = asm.midpoint_matrix(self.mass, self.stiffness, dt)
        self.solvers["d"].factorize(self.mid_matrix)
        return state0

    def d_rate(self, state: SimState) -> dict:
        return {"d": jacobi_solve(self.mass, self.load
                                  - self.stiffness @ state["d"], "d mass")}

    def stage1(self, prev: SimState, mid: SimState, heat_start: bool = False):
        # CellProblem.stage1's signature and increment form; with no heat
        # equation, the field takes the midpoint rule in every step.
        rhs = self.dt * (self.load - self.stiffness @ prev["d"])
        delta = self.solvers["d"].solve(self.mid_matrix, rhs)
        return {"d": prev["d"] + delta}, None

    def stage2(self, t, d_new, s_guess):
        return {}
