"""Discrete operators of the coupled cell model.

Builds the six weak equations on the staggered layout: the parabolic fields
(theta, c_s, c_e) are advanced with the semi-implicit midpoint rule (the
heat equation with two backward-Euler half-steps on the load switch-on
step), where nonlinear coefficients (solid diffusivity, exchange current,
open-circuit potential, overpotential, Ohmic sources) are frozen at a
predicted midpoint and the unknown enters linearly as the old/new average.
The quasi-static fields (phi_s, phi_e, u) solve elliptic systems; the
Butler-Volmer interface current is linearized in the potential equations,
turning into an interface mass term with coefficient I_c*F/(R*theta) plus
load terms, while the full nonlinear sinh expression feeds the concentration
and heat loads.

Sign conventions: the interface normal points from the electrode into the
electrolyte; the reaction current I_BV is positive when lithium leaves the
electrode.  Under the default 'physical' heat convention the bulk Ohmic
source is -i.grad(phi) (nonnegative in each conductor) and the interface
polarization heat enters as +eta*I_BV (nonnegative); the 'reversed'
convention flips both signs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import assemble as asm
from . import spaces as sps
from .geometry import ANODE, CATHODE, ELYTE, CC_PLUS, TAG_NAMES
from .materials import MaterialSet, hooke_plane_strain, hydrostatic_pressure, \
    stress_diffusivity, von_mises, StressState
from .mesh import Mesh
from .solve import HeldFactor, SpdFactor
from .state import Guard, SimState

log = logging.getLogger(__name__)

SINH_ARG_LIMIT = 500.0


class DivergenceError(RuntimeError):
    """Raised when the Butler-Volmer argument leaves the representable range."""


def exchange_current(c_s, c_e, electrode, mats: MaterialSet):
    """I_c = k_BV * F * sqrt(c_e) * sqrt(c_max - c_s) * sqrt(c_s)."""
    c_s = np.asarray(c_s, dtype=float)
    c_e = np.asarray(c_e, dtype=float)
    if np.any(c_e < 0.0) or np.any(c_s < 0.0) or np.any(c_s > electrode.c_max):
        raise ValueError("exchange current needs c_e >= 0 and 0 <= c_s <= c_max "
                         "(bound guarding should have prevented this)")
    out = (mats.k_bv * mats.faraday * np.sqrt(c_e)
           * np.sqrt(electrode.c_max - c_s) * np.sqrt(c_s))
    return out if out.ndim else float(out)


def butler_volmer_current(i_c, eta, theta, mats: MaterialSet):
    """I_BV = 2 I_c sinh(F eta / (2 R theta)); odd and monotone in eta."""
    arg = mats.faraday * np.asarray(eta, dtype=float) \
        / (2.0 * mats.gas_constant * np.asarray(theta, dtype=float))
    if np.any(np.abs(arg) > SINH_ARG_LIMIT):
        raise DivergenceError(
            f"Butler-Volmer argument |F*eta/(2*R*theta)| exceeded "
            f"{SINH_ARG_LIMIT:g}; the iteration is diverging")
    out = 2.0 * np.asarray(i_c, dtype=float) * np.sinh(arg)
    return out if out.ndim else float(out)


def current_density(medium: str, grad_phi, mats: MaterialSet, c_e=None,
                    grad_c_e=None, theta=None, kappa_d_factor: float = 1.0):
    """Constitutive current density: Ohmic in the solid, with the
    concentration-driven term in the electrolyte."""
    grad_phi = np.asarray(grad_phi, dtype=float)
    if medium in ("sa", "sc"):
        return -mats.electrode(medium).conductivity * grad_phi
    if medium != "e":
        raise KeyError(f"unknown medium {medium!r}")
    c_e = np.asarray(c_e, dtype=float)
    if np.any(c_e <= 0.0):
        raise ValueError("electrolyte current density needs c_e > 0")
    from .materials import diffusional_conductivity
    kd = diffusional_conductivity(theta, mats) * kappa_d_factor
    return (-mats.electrolyte.conductivity * grad_phi
            - kd * np.asarray(grad_c_e, dtype=float) / c_e)


def ohmic_heat(i, grad_phi, convention: str = "physical"):
    """Volumetric Ohmic source from a current density and potential gradient."""
    dot = (np.asarray(i, dtype=float) * np.asarray(grad_phi, dtype=float)).sum(axis=-1)
    return -dot if convention == "physical" else dot


@dataclass
class InterfaceState:
    """Traces and derived kinetics at every interface quadrature point.

    Each array holds one value per point of the problem's interface trace
    operators; ``tags`` gives the electrode (ANODE or CATHODE) of each point.
    """

    tags: np.ndarray
    theta: np.ndarray
    c_s: np.ndarray
    c_e: np.ndarray
    phi_s: np.ndarray
    phi_e: np.ndarray
    c_hat: np.ndarray
    ocp: np.ndarray
    eta: np.ndarray
    i_c: np.ndarray
    i_bv: np.ndarray
    coeff: np.ndarray     # I_c F / (R theta), the linearized-BV coefficient

    def ibv_integral(self, weights: np.ndarray) -> float:
        return float(weights @ self.i_bv)

    def eta_ibv_min(self) -> float:
        return float((self.eta * self.i_bv).min())

    def eta_max_abs(self) -> float:
        return float(np.abs(self.eta).max())


@dataclass
class StageAudit:
    """Per-sweep diagnostics recorded alongside the assembled systems."""

    ibv_integral: float = 0.0
    eta_ibv_min: float = 0.0
    eta_max: float = 0.0
    clamp_events: int = 0


class CellProblem:
    """Spaces, cached operators and system builders for one configured cell.

    All inputs (mesh, materials) must already be expressed in the internal
    unit system.  ``mode`` selects the full thermo-electro-chemo-mechanical
    model or the isothermal strain-free electrochemical reduction.
    """

    D_FIELDS = ("theta", "c_s", "c_e")
    S_FIELDS = ("phi_s", "phi_e", "u")

    def __init__(self, mesh: Mesh, mats: MaterialSet, guard: Guard,
                 mode: str = "full", heat_convention: str = "physical",
                 kappa_d_factor: float = 1.0,
                 soc_init: tuple[float, float] = (0.5, 0.5)):
        if mode not in ("full", "electrochemical"):
            raise ValueError(f"unknown model mode {mode!r}")
        if heat_convention not in ("physical", "reversed"):
            raise ValueError(f"unknown heat convention {heat_convention!r}")
        self.mesh = mesh
        self.mats = mats
        self.guard = guard
        self.mode = mode
        self.heat_convention = heat_convention
        self.kappa_d_factor = kappa_d_factor
        self.soc_init = soc_init
        self.i_app = 0.0

        grid = sps.NodeGrid.build(mesh)
        master = sps.build_master_groups(mesh, grid)
        self.grid, self.master = grid, master

        def space(name, sel, arity=1, bcs=()):
            return sps.build_field_space(mesh, sel, arity, bcs, name=name,
                                         grid=grid, master=master)

        self.s_th = space("theta", sps.OMEGA)
        self.s_cs = space("c_s", sps.OMEGA_S)
        self.s_ce = space("c_e", sps.OMEGA_E)
        self.s_ps = space("phi_s", sps.OMEGA_S,
                          bcs=[sps.EssentialBC("cc_minus", 0, 0.0)])
        self.s_pe = space("phi_e", sps.OMEGA_E)
        self.s_u = space("u", sps.OMEGA_S, arity=2, bcs=[
            sps.EssentialBC("cc_minus", 0, 0.0),
            sps.EssentialBC("cc_plus", 0, 0.0),
            sps.EssentialBC("top", 1, 0.0),
            sps.EssentialBC("bottom", 1, 0.0),
        ])
        self.spaces = {"theta": self.s_th, "c_s": self.s_cs, "c_e": self.s_ce,
                       "phi_s": self.s_ps, "phi_e": self.s_pe, "u": self.s_u}

        a, c, e = mats.anode, mats.cathode, mats.electrolyte
        rho_cv = {ANODE: a.rho_cv, CATHODE: c.rho_cv, ELYTE: e.rho_cv}
        lam = {ANODE: a.thermal_k, CATHODE: c.thermal_k, ELYTE: e.thermal_k}
        gam = {ANODE: a.conductivity, CATHODE: c.conductivity}
        # One scatter per support serves every field on it; the c_s matrices
        # are re-assembled every sweep on M_cs's pattern.
        th_scatter = asm.ElementScatter(self.s_th)
        self.m_th = th_scatter.mass(rho_cv)
        self.k_th = th_scatter.stiffness(lam, "thermal conductivity")
        self.cs_scatter = asm.ElementScatter(self.s_cs)   # c_s, phi_s, u
        self.m_cs = self.cs_scatter.mass(1.0)
        ce_scatter = asm.ElementScatter(self.s_ce)        # c_e, phi_e
        self.m_ce = ce_scatter.mass(1.0)
        self.k_ce = ce_scatter.stiffness(e.diffusivity,
                                         "electrolyte diffusivity")
        ga, ka = a.lame
        gc, kc = c.lame
        self.k_u = self.cs_scatter.elasticity(
            {ANODE: ga, CATHODE: gc}, {ANODE: ka, CATHODE: kc})
        self.k_u_red = asm.constrain(self.s_u, self.k_u)
        self._u_factor = SpdFactor(self.k_u_red, name="u")

        # Interface traces: the points of the anode interface edges, then
        # those of the cathode, with one trace operator per field.
        edges = mesh.interface_edges()
        if not edges:
            raise ValueError("mesh carries no interface edges")
        by_tag = {ANODE: [], CATHODE: []}
        for edge in edges:
            tag = int(mesh.cell_tag[edge.solid_cell(mesh.cell_tag)])
            by_tag[tag].append(edge)
        parts = [asm.trace_operator(grid, by_tag[t]) for t in (ANODE, CATHODE)]
        t_iface = sp.vstack([t for t, _ in parts], format="csr")
        self.iface_w = np.concatenate([w for _, w in parts])
        self.iface_tags = np.repeat([ANODE, CATHODE],
                                    [len(w) for _, w in parts])
        self.iface_tr = {k: asm.restrict_trace(self.spaces[k], t_iface)
                         for k in ("theta", "c_s", "c_e", "phi_s", "phi_e")}
        self.iface_tr_t = {k: t.T for k, t in self.iface_tr.items()}

        # The linearized potential pair on [phi_s free DOFs, phi_e]: bulk
        # stiffness blocks and the interface jump operator D = [T_s, -T_e].
        free_s = self.s_ps.free
        k_ps = self.cs_scatter.stiffness(gam, "electronic conductivity")
        k_pe = ce_scatter.stiffness(e.conductivity, "ionic conductivity")
        self.iface_jump = sp.hstack([self.iface_tr["phi_s"][:, free_s],
                                     -self.iface_tr["phi_e"]], format="csr")
        self.iface_jump_t = self.iface_jump.T
        # blockdiag(K_s, K_e) + D^T diag(w c) D on one pattern for every c
        self.pot_mass = asm.TraceMass(
            self.iface_jump, self.iface_w,
            base=sp.block_diag((asm.constrain(self.s_ps, k_ps), k_pe)))
        # The positive collector face: w_cc . (T_ps phi_s) integrates phi_s
        # over it, so T_ps^T w_cc is both its weight vector (V_out) and the
        # unit current load.
        t_cc, w_cc = asm.trace_operator(grid, mesh.boundary_edges(CC_PLUS))
        self.cc_plus_w = asm.restrict_trace(self.s_ps, t_cc).T @ w_cc
        self.cc_plus_len = float(w_cc.sum())
        self.cc_plus_load = self.cc_plus_w[free_s]

        # Strain-free reference concentrations (initial state of charge).
        self.c_s_ref = {ANODE: soc_init[0] * a.c_max,
                        CATHODE: soc_init[1] * c.c_max}
        self._dt_ops = None
        # The c_s and potential-pair matrices change between sweeps and steps
        # only through slowly varying coefficients: one held factor each
        # preconditions them for the whole run.
        self.cs_solver = HeldFactor(name="c_s")
        self.pot_solver = HeldFactor(name="potential pair")
        self.held_factors = (self.cs_solver, self.pot_solver)

        # Characteristic magnitudes for relative-update norms; the
        # displacement (zero at rest) is measured against the cell height.
        cell_height = float(mesh.y[-1] - mesh.y[0])
        volt_scale = abs(c.ocp(soc_init[1]) - a.ocp(soc_init[0]))
        self.field_scales = {
            "theta": mats.theta_ref,
            "c_s": max(a.c_max, c.c_max),
            "c_e": mats.c_e_init,
            "phi_s": volt_scale,
            "phi_e": volt_scale,
            "u": cell_height,
        }

    # ------------------------------------------------------------------
    # State handling
    # ------------------------------------------------------------------

    def nodes_of_tag(self, space: sps.FieldSpace, tag: int) -> np.ndarray:
        picks = []
        for g, rows, dofs in zip(space.master, space.member_rows,
                                 space.cell_node_dofs):
            if len(rows) == 0:
                continue
            sel = g.tag[rows] == tag
            if np.any(sel):
                picks.append(np.unique(dofs[sel]))
        return np.unique(np.concatenate(picks)) if picks else np.array([], int)

    def initial_state(self) -> SimState:
        """Uniform equilibrium start: zero strain, reference temperature,
        potentials matching the open-circuit values at the initial SoC."""
        soc_a, soc_c = self.soc_init
        mats = self.mats
        ocp_a = mats.anode.ocp(soc_a)
        ocp_c = mats.cathode.ocp(soc_c)

        c_s = self.s_cs.zeros()
        c_s[self.nodes_of_tag(self.s_cs, ANODE)] = soc_a * mats.anode.c_max
        c_s[self.nodes_of_tag(self.s_cs, CATHODE)] = soc_c * mats.cathode.c_max
        phi_s = self.s_ps.zeros()
        phi_s[self.nodes_of_tag(self.s_ps, CATHODE)] = ocp_c - ocp_a
        fields = {
            "theta": self.s_th.constant(mats.theta_ref),
            "c_s": c_s,
            "c_e": self.s_ce.constant(mats.c_e_init),
            "phi_s": self.s_ps.apply_constraints(phi_s),
            "phi_e": self.s_pe.constant(-ocp_a),
            "u": self.s_u.zeros(),
        }
        return SimState(0.0, fields)

    def set_load(self, i_app: float):
        self.i_app = float(i_app)

    # ------------------------------------------------------------------
    # Interface kinetics
    # ------------------------------------------------------------------

    def _interface_kinetics(self, theta_v, cs_v, ce_v) -> dict:
        """Guarded traces, open-circuit potential, exchange current and the
        linearized-BV coefficient at the interface points."""
        mats, tr = self.mats, self.iface_tr
        th = tr["theta"] @ theta_v
        cs = tr["c_s"] @ cs_v
        ce = self.guard.c_e(tr["c_e"] @ ce_v, "c_e trace (interface)")
        c_hat, ocp, i_c = (np.empty_like(cs) for _ in range(3))
        for tag in (ANODE, CATHODE):
            sel = self.iface_tags == tag
            electrode = mats.electrode(TAG_NAMES[tag])
            cs[sel] = self.guard.c_s(cs[sel], electrode.c_max,
                                     f"c_s trace ({TAG_NAMES[tag]} interface)")
            c_hat[sel] = cs[sel] / electrode.c_max
            ocp[sel] = electrode.ocp(c_hat[sel], clamp=True)
            i_c[sel] = exchange_current(cs[sel], ce[sel], electrode, mats)
        return {"theta": th, "c_s": cs, "c_e": ce, "c_hat": c_hat, "ocp": ocp,
                "i_c": i_c,
                "coeff": i_c * mats.faraday / (mats.gas_constant * th)}

    def interface_state(self, theta_v, cs_v, ce_v, ps_v, pe_v) -> InterfaceState:
        kin = self._interface_kinetics(theta_v, cs_v, ce_v)
        ps = self.iface_tr["phi_s"] @ ps_v
        pe = self.iface_tr["phi_e"] @ pe_v
        eta = ps - pe - kin["ocp"]
        i_bv = butler_volmer_current(kin["i_c"], eta, kin["theta"], self.mats)
        return InterfaceState(tags=self.iface_tags, phi_s=ps, phi_e=pe,
                              eta=eta, i_bv=i_bv, **kin)

    def interface_state_of(self, state: SimState) -> InterfaceState:
        return self.interface_state(state["theta"], state["c_s"], state["c_e"],
                                    state["phi_s"], state["phi_e"])

    # ------------------------------------------------------------------
    # Pointwise evaluations on the volume
    # ------------------------------------------------------------------

    def _guarded_cs_qp(self, cs_v) -> list:
        arrays = asm.eval_qp(self.s_cs, cs_v)
        out = []
        for g, arr in zip(self.master, arrays):
            a = arr.copy()
            for tag in (ANODE, CATHODE):
                rows = np.nonzero(g.tag == tag)[0]
                if len(rows):
                    cmax = self.mats.electrode(TAG_NAMES[tag]).c_max
                    a[rows] = self.guard.c_s(a[rows], cmax,
                                             f"c_s volume ({TAG_NAMES[tag]})")
            out.append(a)
        return out

    def solid_pressure_qp(self, u_v, theta_v, cs_qp) -> list:
        """Hydrostatic pressure at solid quadrature points (zeros elsewhere)."""
        if self.mode == "electrochemical":
            return [np.zeros((g.n_elems, len(g.ref.qw))) for g in self.master]
        strains = asm.eval_strain_qp(self.s_u, u_v)
        th_qp = asm.eval_qp(self.s_th, theta_v)
        out = []
        for g, eps, th, cs in zip(self.master, strains, th_qp, cs_qp):
            pi = np.zeros((g.n_elems, len(g.ref.qw)))
            for tag in (ANODE, CATHODE):
                rows = np.nonzero(g.tag == tag)[0]
                if len(rows) == 0:
                    continue
                electrode = self.mats.electrode(TAG_NAMES[tag])
                stress = hooke_plane_strain(
                    eps[rows, :, 0], eps[rows, :, 1], eps[rows, :, 2],
                    th[rows], cs[rows], electrode, self.mats,
                    self.c_s_ref[tag])
                pi[rows] = hydrostatic_pressure(stress)
            out.append(pi)
        return out

    def solid_diffusivity_qp(self, mid: SimState) -> list:
        cs_qp = self._guarded_cs_qp(mid["c_s"])
        pi_qp = self.solid_pressure_qp(mid["u"], mid["theta"], cs_qp)
        out = []
        for g, cs, pi in zip(self.master, cs_qp, pi_qp):
            d = np.ones((g.n_elems, len(g.ref.qw)))
            for tag in (ANODE, CATHODE):
                rows = np.nonzero(g.tag == tag)[0]
                if len(rows):
                    electrode = self.mats.electrode(TAG_NAMES[tag])
                    d[rows] = stress_diffusivity(cs[rows], pi[rows],
                                                 electrode, self.mats)
            out.append(d)
        return out

    def heat_source_qp(self, mid: SimState) -> list:
        """Ohmic volumetric source at quadrature points (master-aligned)."""
        from .materials import diffusional_conductivity
        mats = self.mats
        gps = asm.eval_grad_qp(self.s_ps, mid["phi_s"])
        gpe = asm.eval_grad_qp(self.s_pe, mid["phi_e"])
        gce = asm.eval_grad_qp(self.s_ce, mid["c_e"])
        ce_qp = asm.eval_qp(self.s_ce, mid["c_e"])
        th_qp = asm.eval_qp(self.s_th, mid["theta"])
        sign = 1.0 if self.heat_convention == "physical" else -1.0
        out = []
        for g, gs, ge, gc, ce, th in zip(self.master, gps, gpe, gce,
                                         ce_qp, th_qp):
            q = np.zeros((g.n_elems, len(g.ref.qw)))
            for tag in (ANODE, CATHODE):
                rows = np.nonzero(g.tag == tag)[0]
                if len(rows):
                    gamma = mats.electrode(TAG_NAMES[tag]).conductivity
                    q[rows] = gamma * (gs[rows] ** 2).sum(axis=-1)
            rows = np.nonzero(g.tag == ELYTE)[0]
            if len(rows):
                ce_r = self.guard.c_e(ce[rows], "c_e volume (heat source)")
                kd = diffusional_conductivity(th[rows], mats) \
                    * self.kappa_d_factor
                cross = (gc[rows] * ge[rows]).sum(axis=-1) / ce_r
                q[rows] = mats.electrolyte.conductivity \
                    * (ge[rows] ** 2).sum(axis=-1) + kd * cross
            out.append(sign * q)
        return out

    # ------------------------------------------------------------------
    # Stage 1: parabolic systems at the midpoint
    # ------------------------------------------------------------------

    def prepare(self, state: SimState, dt: float):
        """Factorize, before step 1, the matrices the steps reuse: the fixed
        c_e and theta midpoint matrices, and the c_s midpoint matrix at
        ``state``.  Held from the equilibrium start, the c_s factor
        preconditions the later c_s matrices better than a factor of step
        1's Euler-predicted midpoint would (on the production presets 25 CG
        iterations per later step instead of 40)."""
        self._prepare_dt(dt)
        self.cs_solver.hold(self.cs_matrices(state, dt)[1])

    def cs_matrices(self, state: SimState, dt: float):
        """K_cs at the solid diffusivity of ``state`` and the midpoint matrix
        M_cs + dt/2 K_cs, both on M_cs's pattern."""
        k = self.cs_scatter.stiffness(self.solid_diffusivity_qp(state),
                                      "solid diffusivity")
        return k, self.cs_scatter.with_data(self.m_cs.data + 0.5 * dt * k.data)

    def _prepare_dt(self, dt: float):
        if self._dt_ops is not None and self._dt_ops[0] == dt:
            return self._dt_ops[1]
        ops = {}
        a_ce = self.m_ce + 0.5 * dt * self.k_ce
        ops["ce_factor"] = SpdFactor(a_ce, name="c_e")
        if self.mode == "full":     # the heat equation is solved only here
            a_th = self.m_th + 0.5 * dt * self.k_th
            ops["th_factor"] = SpdFactor(a_th, name="theta")
        self._dt_ops = (dt, ops)
        return ops

    def iface_loads(self, ist: InterfaceState) -> dict:
        mats = self.mats
        inv_f = 1.0 / mats.faraday
        t_plus = mats.electrolyte.t_plus
        sign = 1.0 if self.heat_convention == "physical" else -1.0
        tr_t, w = self.iface_tr_t, self.iface_w
        return {"c_s": tr_t["c_s"] @ (w * -ist.i_bv * inv_f),
                "c_e": tr_t["c_e"] @ (w * (1.0 - t_plus) * inv_f * ist.i_bv),
                "theta": tr_t["theta"] @ (w * sign * ist.eta * ist.i_bv)}

    def stage1(self, prev: SimState, mid: SimState, dt: float,
               heat_start: bool = False):
        """Solve the three parabolic updates; returns (new d-fields, audit).

        Each midpoint system (M + dt/2 K) d_n = (M - dt/2 K) d_prev + dt b is
        solved in increment form, (M + dt/2 K) delta = dt (b - K d_prev),
        which avoids the cancellation of the large constant background in the
        explicit operator.  The c_s matrix carries the solid diffusivity at the
        midpoint, so it changes with every sweep; its held factor
        (``cs_solver``) preconditions CG on it.  c_e and theta have fixed
        matrices, factorized once per dt.

        With ``heat_start`` (the step across the load switch-on) the heat
        equation instead takes two backward-Euler half-steps,
        (M + dt/2 K) delta_k = dt/2 (b - K theta_k), which reuse the cached
        midpoint matrix.  Switching the load on excites thermal modes far
        stiffer than dt; the midpoint factor tends to -1 on them and leaves
        them ringing, while backward Euler damps them.  The heat source b
        stays evaluated at the midpoint, and c_s, c_e keep the midpoint rule.
        """
        ops = self._prepare_dt(dt)
        clamps_before = self.guard.log.events
        ist = self.interface_state_of(mid)
        loads = self.iface_loads(ist)

        k_cs, a_cs = self.cs_matrices(mid, dt)
        b_cs = dt * (loads["c_s"] - k_cs @ prev["c_s"])
        b_ce = dt * (loads["c_e"] - self.k_ce @ prev["c_e"])

        new = {"c_s": prev["c_s"] + self.cs_solver.solve(a_cs, b_cs),
               "c_e": prev["c_e"] + ops["ce_factor"].solve(b_ce)}
        if self.mode == "full":
            q_load = asm.assemble_load(self.s_th, self.heat_source_qp(mid))
            source = q_load + loads["theta"]
            h, n_sub = (0.5 * dt, 2) if heat_start else (dt, 1)
            theta = prev["theta"]
            for _ in range(n_sub):
                theta = theta + ops["th_factor"].solve(
                    h * (source - self.k_th @ theta))
            new["theta"] = theta
        else:
            new["theta"] = prev["theta"].copy()

        audit = StageAudit(
            ibv_integral=ist.ibv_integral(self.iface_w),
            eta_ibv_min=ist.eta_ibv_min(),
            eta_max=ist.eta_max_abs(),
            clamp_events=self.guard.log.events - clamps_before,
        )
        return new, audit

    def d_rate(self, state: SimState) -> dict:
        """f_d = M^-1 (-K d + b) at the given state (Euler predictor).

        A run needs this once, for its first step.  Jacobi-CG solves the
        well-conditioned mass matrices in a few dozen iterations, faster than
        a factorization and without its memory.
        """
        def solve_mass(mass, rhs, field):
            return SpdFactor(mass, method="cg",
                             name=f"{field} mass").solve(rhs)

        ist = self.interface_state_of(state)
        loads = self.iface_loads(ist)
        rates = {}
        k_cs, _ = self.cs_matrices(state, 0.0)
        rates["c_s"] = solve_mass(self.m_cs,
                                  -(k_cs @ state["c_s"]) + loads["c_s"], "c_s")
        rates["c_e"] = solve_mass(self.m_ce,
                                  -(self.k_ce @ state["c_e"]) + loads["c_e"],
                                  "c_e")
        if self.mode == "full":
            q_load = asm.assemble_load(self.s_th, self.heat_source_qp(state))
            rates["theta"] = solve_mass(
                self.m_th,
                -(self.k_th @ state["theta"]) + q_load + loads["theta"],
                "theta")
        else:
            rates["theta"] = np.zeros_like(state["theta"])
        return rates

    # ------------------------------------------------------------------
    # Stage 2: quasi-static potentials and displacement
    # ------------------------------------------------------------------

    def _kappa_d_grad_load(self, theta_v, ce_v) -> np.ndarray:
        """(grad psi_e, kappa_D grad ln c_e) load vector (full DOFs)."""
        from .materials import diffusional_conductivity
        th_qp = asm.eval_qp(self.s_th, theta_v)
        ce_qp = asm.eval_qp(self.s_ce, ce_v)
        gce = asm.eval_grad_qp(self.s_ce, ce_v)
        kd_vec = []
        for g, th, ce, gc in zip(self.master, th_qp, ce_qp, gce):
            vec = np.zeros_like(gc)
            rows = np.nonzero(g.tag == ELYTE)[0]
            if len(rows):
                ce_r = self.guard.c_e(ce[rows], "c_e volume (kappa_D load)")
                kd = diffusional_conductivity(th[rows], self.mats) \
                    * self.kappa_d_factor
                vec[rows] = kd[:, :, None] * gc[rows] / ce_r[:, :, None]
            kd_vec.append(vec)
        return asm.assemble_grad_load(self.s_pe, kd_vec)

    def potential_system(self, theta_v, cs_v, ce_v):
        """The linearized phi_s/phi_e pair as one reduced block system.

        Unknowns are phi_s on its free DOFs followed by phi_e.  With the
        interface jump operator D = [T_s, -T_e] and W_c = diag(w I_c F/(R
        theta)), the matrix is blockdiag(K_s, K_e) + D^T W_c D and the load
        carries the cc_plus current, the kappa_D term and D^T W_c U_ocp.  Its
        energy x^T K_s x + y^T K_e y + int c (x - y)^2 makes it symmetric
        positive definite, given the grounded collector.
        """
        kin = self._interface_kinetics(theta_v, cs_v, ce_v)
        coeff = kin["coeff"]
        if float(np.max(coeff)) <= 0.0:
            raise ValueError(
                "interface coefficient I_c*F/(R*theta) vanishes everywhere: "
                "the phi_e system is singular")
        a = self.pot_mass.matrix(coeff)
        b = np.concatenate([-self.i_app * self.cc_plus_load,
                            -self._kappa_d_grad_load(theta_v, ce_v)])
        b += self.iface_jump_t @ (self.iface_w * coeff * kin["ocp"])
        return a, b

    def elasticity_load(self, theta_v, cs_v) -> np.ndarray:
        """(div v, 3K(alpha dtheta + omega dc)) load on the solid."""
        th_qp = asm.eval_qp(self.s_th, theta_v)
        cs_qp = asm.eval_qp(self.s_cs, cs_v)
        arrays = []
        for g, th, cs in zip(self.master, th_qp, cs_qp):
            arr = np.zeros((g.n_elems, len(g.ref.qw)))
            for tag in (ANODE, CATHODE):
                rows = np.nonzero(g.tag == tag)[0]
                if len(rows) == 0:
                    continue
                electrode = self.mats.electrode(TAG_NAMES[tag])
                _, bulk = electrode.lame
                arr[rows] = 3.0 * bulk * (
                    electrode.alpha * (th[rows] - self.mats.theta_ref)
                    + electrode.omega * (cs[rows] - self.c_s_ref[tag]))
            arrays.append(arr)
        return asm.assemble_div_load(self.s_u, arrays)

    def stage2(self, t: float, d_new: dict, s_guess: SimState) -> dict:
        """Solve the quasi-static fields at the new time, then u.

        The linearized interface terms couple phi_s and phi_e, so the pair is
        solved at once as the block system of ``potential_system``; its
        matrix depends only on the dynamic fields and changes slowly, so the
        held factor ``pot_solver`` preconditions CG on it.  The elasticity
        matrix is fixed and factorized once per problem.

        Both systems are solved for the correction against the guess: the
        right-hand side is then the actual out-of-balance force, which keeps
        the solver's relative residual meaningful for solutions riding a
        large offset.
        """
        theta_v, cs_v, ce_v = d_new["theta"], d_new["c_s"], d_new["c_e"]
        a, b = self.potential_system(theta_v, cs_v, ce_v)
        n_s = self.s_ps.n_free
        guess = np.concatenate([s_guess["phi_s"][self.s_ps.free],
                                s_guess["phi_e"]])
        x = guess + self.pot_solver.solve(a, b - a @ guess)
        ps, pe = asm.expand(self.s_ps, x[:n_s]), x[n_s:]

        if self.mode == "full":
            # The displacement constraints are homogeneous, so reducing the
            # load is a plain row selection (no lifting term).
            free = self.s_u.free
            b_u = self.elasticity_load(theta_v, cs_v)[free]
            u_guess = s_guess["u"][free]
            u = asm.expand(self.s_u, u_guess + self._u_factor.solve(
                b_u - self.k_u_red @ u_guess))
        else:
            u = np.zeros(self.s_u.ndof)
        return {"phi_s": ps, "phi_e": pe, "u": u}

    # ------------------------------------------------------------------
    # Derived fields and summaries
    # ------------------------------------------------------------------

    def stress_qp(self, state: SimState) -> list:
        """StressState per master group at quadrature points (solid rows)."""
        strains = asm.eval_strain_qp(self.s_u, state["u"])
        th_qp = asm.eval_qp(self.s_th, state["theta"])
        cs_qp = asm.eval_qp(self.s_cs, state["c_s"])
        out = []
        for g, eps, th, cs in zip(self.master, strains, th_qp, cs_qp):
            shape = (g.n_elems, len(g.ref.qw))
            comp = {k: np.zeros(shape) for k in ("s11", "s22", "s12", "s33")}
            for tag in (ANODE, CATHODE):
                rows = np.nonzero(g.tag == tag)[0]
                if len(rows) == 0:
                    continue
                electrode = self.mats.electrode(TAG_NAMES[tag])
                st = hooke_plane_strain(
                    eps[rows, :, 0], eps[rows, :, 1], eps[rows, :, 2],
                    th[rows], cs[rows], electrode, self.mats,
                    self.c_s_ref[tag])
                for k in comp:
                    comp[k][rows] = getattr(st, k)
            out.append(StressState(**comp))
        return out

    def von_mises_qp(self, state: SimState):
        """Von Mises stress at solid quadrature points; returns
        (master-aligned arrays, max value, location of the max)."""
        stresses = self.stress_qp(state)
        arrays, vmax, loc = [], 0.0, (np.nan, np.nan)
        for g, st in zip(self.master, stresses):
            vm = von_mises(st)
            solid = np.isin(g.tag, (ANODE, CATHODE))
            vm[~solid] = 0.0
            arrays.append(vm)
            if vm.size and vm.max() > vmax:
                e, q = np.unravel_index(int(np.argmax(vm)), vm.shape)
                qx, qy = g.qp_coords()
                vmax, loc = float(vm[e, q]), (float(qx[e, q]), float(qy[e, q]))
        return arrays, vmax, loc
