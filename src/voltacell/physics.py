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
and heat loads through one record of the interface (``InterfaceState``).
Each support (theta; c_s, phi_s, u; c_e, phi_e) has one scatter and trace.
``CellProblem.parabolic`` gives each parabolic field's semi-discrete system
M d' + K d = b, which ``stepping.stage1`` advances; ``CellProblem.prepare``
makes the start of a run's steps and the midpoint matrices of its dt.

Sign conventions: the interface normal points from the electrode into the
electrolyte; the reaction current I_BV is positive when lithium leaves the
electrode.  The bulk Ohmic source is -i.grad(phi) (nonnegative in each
conductor) and the interface polarization heat enters as +eta*I_BV
(nonnegative).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import assemble as asm
from . import spaces as sps
from .geometry import ANODE, CATHODE, ELYTE, CC_PLUS, SOLID, TAG_NAMES
from .materials import ElectrodeConstants, MaterialSet, \
    diffusional_conductivity, hooke_plane_strain, hydrostatic_pressure, \
    stress_diffusivity, von_mises, StressState
from .mesh import Mesh
from .solve import Solver
from .state import Guard, SimState

log = logging.getLogger(__name__)

SINH_ARG_LIMIT = 500.0

# Guard contexts of the solid concentration, indexed by electrode tag
_CS_VOLUME = tuple(f"c_s volume ({TAG_NAMES[t]})" for t in SOLID)
_CS_TRACE = tuple(f"c_s trace ({TAG_NAMES[t]} interface)" for t in SOLID)


class DivergenceError(RuntimeError):
    """Raised when the Butler-Volmer argument leaves the representable range."""


def exchange_current(c_s, c_e, electrode, mats: MaterialSet):
    """I_c = k_BV * F * sqrt(c_e) * sqrt(c_max - c_s) * sqrt(c_s), with
    c_max from an ElectrodeMaterial or per-point ElectrodeConstants."""
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


@dataclass
class InterfaceState:
    """Traces and derived kinetics at every interface quadrature point.

    Each array holds one value per point of the problem's interface trace
    operators; ``tags`` gives the electrode (ANODE or CATHODE) of each point
    and ``weights`` its quadrature weight.
    """

    tags: np.ndarray
    weights: np.ndarray
    theta: np.ndarray
    c_s: np.ndarray
    c_e: np.ndarray
    phi_s: np.ndarray
    phi_e: np.ndarray
    ocp: np.ndarray
    eta: np.ndarray
    i_c: np.ndarray
    i_bv: np.ndarray
    coeff: np.ndarray     # I_c F / (R theta), the linearized-BV coefficient

    def ibv_integral(self) -> float:
        return float(self.weights @ self.i_bv)

    def eta_ibv_min(self) -> float:
        return float((self.eta * self.i_bv).min())

    def eta_max_abs(self) -> float:
        return float(np.abs(self.eta).max())


class CellProblem:
    """Spaces, cached operators and system builders for one configured cell.

    The mesh and the materials are in SI units, and so is every operator and
    state built from them.  ``mode`` selects the full
    thermo-electro-chemo-mechanical model or the isothermal strain-free
    electrochemical reduction, which builds no elasticity system.  The
    concentration guard takes the margins of ``Guard.defaults(mats)``.
    """

    D_FIELDS = ("theta", "c_s", "c_e")
    S_FIELDS = ("phi_s", "phi_e", "u")
    STARTUP_FIELDS = ("theta",)     # backward Euler across the load switch-on

    def __init__(self, mesh: Mesh, mats: MaterialSet, mode: str = "full",
                 soc_init: tuple[float, float] = (0.5, 0.5)):
        if mode not in ("full", "electrochemical"):
            raise ValueError(f"unknown model mode {mode!r}")
        self.mesh = mesh
        self.mats = mats
        self.guard = Guard.defaults(mats)
        self.mode = mode
        self.soc_init = soc_init
        self.i_app = 0.0

        supports = sps.MeshSupports(mesh)
        self.grid, self.master, self.qp = (supports.grid, supports.master,
                                           supports.qp)
        omega, solid, elyte = (supports[s] for s in
                               (sps.OMEGA, sps.OMEGA_S, sps.OMEGA_E))
        self.s_th = sps.build_field_space(omega, name="theta")
        self.s_cs = sps.build_field_space(solid, name="c_s")
        self.s_ce = sps.build_field_space(elyte, name="c_e")
        self.s_ps = sps.build_field_space(
            solid, constraints=[sps.EssentialBC("cc_minus", 0)], name="phi_s")
        self.s_pe = sps.build_field_space(elyte, name="phi_e")
        self.s_u = sps.build_field_space(solid, arity=2, constraints=[
            sps.EssentialBC("cc_minus", 0),
            sps.EssentialBC("cc_plus", 0),
            sps.EssentialBC("top", 1),
            sps.EssentialBC("bottom", 1),
        ], name="u")
        self.spaces = {"theta": self.s_th, "c_s": self.s_cs, "c_e": self.s_ce,
                       "phi_s": self.s_ps, "phi_e": self.s_pe, "u": self.s_u}

        a, c, e = mats.anode, mats.cathode, mats.electrolyte
        rho_cv = {ANODE: a.rho_cv, CATHODE: c.rho_cv, ELYTE: e.rho_cv}
        lam = {ANODE: a.thermal_k, CATHODE: c.thermal_k, ELYTE: e.thermal_k}
        gam = {ANODE: a.conductivity, CATHODE: c.conductivity}
        # One element scatter and one interface trace per support, shared by
        # the fields on it; the interface points are those of the anode
        # edges, then those of the cathode.  K_cs alone is assembled again,
        # every sweep on M_cs's pattern (the solid scatter is kept for it;
        # the others' slots take 3 MB on the production mesh), and the c_e
        # and theta midpoint matrices of the prepared dt sit on M_ce's and
        # M_th's.
        edges = mesh.interface_edges()
        if not len(edges):
            raise ValueError("mesh carries no interface edges")
        side = edges.solid_tag(mesh.cell_tag)
        order = np.argsort(side, kind="stable")       # ANODE < CATHODE
        edges, side = edges[order], side[order]
        t_iface, self.iface_w = asm.trace_operator(self.grid, edges)
        self.iface_tags = np.repeat(side, edges.degree + asm.EDGE_QUAD_EXTRA)
        scatters, self.iface_tr, self.iface_tr_t = {}, {}, {}
        for sup in (omega, solid, elyte):
            scatters[sup] = asm.ElementScatter(sup)
            self.iface_tr[sup] = asm.restrict_trace(sup, t_iface)
            self.iface_tr_t[sup] = self.iface_tr[sup].T
        self.cs_scatter = scatters[solid]
        self.m_th = scatters[omega].mass(rho_cv)
        self.k_th = scatters[omega].stiffness(lam, "thermal conductivity")
        self.m_cs = scatters[solid].mass(1.0)
        self.m_ce = scatters[elyte].mass(1.0)
        self.k_ce = scatters[elyte].stiffness(e.diffusivity,
                                              "electrolyte diffusivity")
        # One solver per system.  The c_s and potential-pair matrices change
        # between sweeps and steps only through slowly varying coefficients,
        # so one held factor each preconditions them for the whole run; the
        # c_e and theta matrices are fixed once ``prepare`` sets dt, the
        # elasticity matrix for the problem (only its free-DOF block is held,
        # never the full-DOF matrix).  The electrochemical model never solves
        # theta or u.
        names = ("c_s", "c_e", "potential pair") \
            + (("theta", "u") if mode == "full" else ())
        self.solvers = {name: Solver(name) for name in names}
        self.k_u_red = None
        if mode == "full":
            ga, ka = a.lame
            gc, kc = c.lame
            self.k_u_red = asm.constrain(self.s_u, scatters[solid].elasticity(
                {ANODE: ga, CATHODE: gc}, {ANODE: ka, CATHODE: kc}))
            self.solvers["u"].factorize(self.k_u_red)

        # The linearized potential pair on [phi_s free DOFs, phi_e]: bulk
        # stiffness blocks and the interface jump operator D = [T_s, -T_e].
        free_s = self.s_ps.free
        k_ps = scatters[solid].stiffness(gam, "electronic conductivity")
        k_pe = scatters[elyte].stiffness(e.conductivity, "ionic conductivity")
        self.iface_jump = sp.hstack([self.iface_tr[solid][:, free_s],
                                     -self.iface_tr[elyte]], format="csr")
        self.iface_jump_t = self.iface_jump.T
        # blockdiag(K_s, K_e) + D^T diag(w c) D on one pattern for every c
        self.pot_mass = asm.TraceMass(
            self.iface_jump, self.iface_w,
            base=asm.block_diag(asm.constrain(self.s_ps, k_ps), k_pe))
        # The positive collector face: w_cc . (T_ps phi_s) integrates phi_s
        # over it, so T_ps^T w_cc is both its weight vector (V_out) and the
        # unit current load.
        t_cc, w_cc = asm.trace_operator(self.grid,
                                        mesh.boundary_edges(CC_PLUS))
        self.cc_plus_w = asm.restrict_trace(solid, t_cc).T @ w_cc
        self.cc_plus_len = float(w_cc.sum())
        self.cc_plus_load = self.cc_plus_w[free_s]
        # Every other recorded summary is likewise one dot product, w . v:
        # a mean over a region (the load of the region's indicator, over its
        # area), the rho*C_v-weighted mean temperature (the adiabatic heat
        # invariant) or a lithium integral 1 . (M v).
        def mean_w(space, region=None):
            w = asm.assemble_load(space, 1.0 if region is None
                                  else {region: 1.0})
            return w / w.sum()

        rho_cv_w = self.m_th @ np.ones(self.s_th.ndof)
        self.readouts = {
            "phi_e_avg": ("phi_e", mean_w(self.s_pe)),
            "soc_anode": ("c_s", mean_w(self.s_cs, ANODE) / a.c_max),
            "soc_cathode": ("c_s", mean_w(self.s_cs, CATHODE) / c.c_max),
            "theta_avg": ("theta", mean_w(self.s_th)),
            "theta_weighted": ("theta", rho_cv_w / rho_cv_w.sum()),
            "int_cs": ("c_s", np.ones(self.s_cs.ndof) @ self.m_cs),
            "int_ce": ("c_e", np.ones(self.s_ce.ndof) @ self.m_ce),
        }

        # Strain-free reference concentrations (initial state of charge).
        self.c_s_ref = {ANODE: soc_init[0] * a.c_max,
                        CATHODE: soc_init[1] * c.c_max}
        # The pointwise laws run once over the points of the solid support
        # (c_s, phi_s and u) or of the electrolyte support (c_e, phi_e), each
        # solid point with its electrode's constants.
        self.solid_tags = self.qp.tag[solid.points]
        self.solid = self.electrode_constants(self.solid_tags)
        self.iface_el = self.electrode_constants(self.iface_tags)
        self.dt, self.mid_ops = None, {}    # set by ``prepare``

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

    def electrode_constants(self, tags: np.ndarray) -> ElectrodeConstants:
        """Electrode constants at points with the given solid tags."""
        # SOLID = (ANODE, CATHODE) = (0, 1), so a tag indexes these tuples
        return ElectrodeConstants.at(
            tags, tuple(self.mats.electrode(TAG_NAMES[t]) for t in SOLID),
            tuple(self.c_s_ref[t] for t in SOLID))

    def initial_state(self) -> SimState:
        """Uniform equilibrium start: zero strain, reference temperature,
        potentials matching the open-circuit values at the initial SoC."""
        soc_a, soc_c = self.soc_init
        mats = self.mats
        ocp_a = mats.anode.ocp(soc_a)
        ocp_c = mats.cathode.ocp(soc_c)

        solid = self.s_cs.support
        c_s = self.s_cs.zeros()
        c_s[solid.nodes_of_tag(ANODE)] = soc_a * mats.anode.c_max
        c_s[solid.nodes_of_tag(CATHODE)] = soc_c * mats.cathode.c_max
        phi_s = self.s_ps.zeros()
        phi_s[solid.nodes_of_tag(CATHODE)] = ocp_c - ocp_a
        fields = {
            "theta": self.s_th.constant(mats.theta_ref),
            "c_s": c_s,
            "c_e": self.s_ce.constant(mats.c_e_init),
            "phi_s": phi_s,
            "phi_e": self.s_pe.constant(-ocp_a),
            "u": self.s_u.zeros(),
        }
        return SimState(0.0, fields)

    def set_load(self, i_app: float):
        self.i_app = float(i_app)

    def readout(self, state: SimState, name: str) -> float:
        """One recorded summary of ``state`` (see ``readouts``)."""
        field, w = self.readouts[name]
        return float(w @ state[field])

    # ------------------------------------------------------------------
    # Interface kinetics
    # ------------------------------------------------------------------

    def _interface_kinetics(self, theta_v, cs_v, ce_v) -> dict:
        """Guarded traces, open-circuit potential, exchange current and the
        linearized-BV coefficient at the interface points.  Inside the
        guard's bounds c_hat lies inside both open-circuit fits' domains."""
        mats, tr, el = self.mats, self.iface_tr, self.iface_el
        th = tr[self.s_th.support] @ theta_v
        ce = self.guard.c_e(tr[self.s_ce.support] @ ce_v,
                            "c_e trace (interface)")
        cs = self.guard.c_s(tr[self.s_cs.support] @ cs_v, el.c_max, _CS_TRACE,
                            self.iface_tags)
        c_hat = cs / el.c_max
        anode = self.iface_tags == ANODE
        ocp = np.empty_like(cs)
        ocp[anode] = mats.anode.ocp(c_hat[anode])
        ocp[~anode] = mats.cathode.ocp(c_hat[~anode])
        i_c = exchange_current(cs, ce, el, mats)
        return {"theta": th, "c_s": cs, "c_e": ce, "ocp": ocp, "i_c": i_c,
                "coeff": i_c * mats.faraday / (mats.gas_constant * th)}

    def interface_state(self, state: SimState) -> InterfaceState:
        """The traces and kinetics of ``state`` at the interface points."""
        kin = self._interface_kinetics(state["theta"], state["c_s"],
                                       state["c_e"])
        ps = self.iface_tr[self.s_ps.support] @ state["phi_s"]
        pe = self.iface_tr[self.s_pe.support] @ state["phi_e"]
        eta = ps - pe - kin["ocp"]
        i_bv = butler_volmer_current(kin["i_c"], eta, kin["theta"], self.mats)
        return InterfaceState(tags=self.iface_tags, weights=self.iface_w,
                              phi_s=ps, phi_e=pe, eta=eta, i_bv=i_bv, **kin)

    # ------------------------------------------------------------------
    # Pointwise evaluations on the volume
    # ------------------------------------------------------------------

    def _guarded_cs_qp(self, cs_v) -> np.ndarray:
        """c_s at the solid quadrature points, guarded."""
        return self.guard.c_s(asm.eval_qp(self.s_cs, cs_v), self.solid.c_max,
                              _CS_VOLUME, self.solid_tags)

    def solid_stress(self, strain, theta, c_s,
                     el: ElectrodeConstants) -> StressState:
        """Hooke's law at solid points: strains (3, n), theta and c_s (n,),
        and the electrode constants ``el`` of the points."""
        return hooke_plane_strain(strain[0], strain[1], strain[2],
                                  theta, c_s, el, self.mats, el.c_s_ref)

    def solid_pressure_qp(self, u_v, theta_qp, cs_solid) -> np.ndarray:
        """Hydrostatic pressure at the solid quadrature points, from theta at
        the quadrature points (on theta's support, the whole domain) and c_s
        at the solid points; zero in the electrochemical model, which reads
        neither (``theta_qp`` may be None there)."""
        if self.mode == "electrochemical":
            return np.zeros(len(self.solid_tags))
        stress = self.solid_stress(asm.eval_strain_qp(self.s_u, u_v),
                                   theta_qp[self.s_cs.support.points],
                                   cs_solid,
                                   self.solid)
        return hydrostatic_pressure(stress)

    def theta_points(self, theta_v) -> np.ndarray | None:
        """theta at the quadrature points for the laws of the full model, or
        None in the electrochemical model, whose stage 1 reads no volume
        temperature."""
        if self.mode == "electrochemical":
            return None
        return asm.eval_qp(self.s_th, theta_v)

    def solid_diffusivity_qp(self, mid: SimState, theta_qp) -> np.ndarray:
        """D_s at the solid quadrature points, with theta at the quadrature
        points given (see ``solid_pressure_qp``)."""
        cs = self._guarded_cs_qp(mid["c_s"])
        pi = self.solid_pressure_qp(mid["u"], theta_qp, cs)
        return stress_diffusivity(cs, pi, self.solid, self.mats)

    def heat_source_qp(self, mid: SimState, theta_qp) -> np.ndarray:
        """Ohmic volumetric source at the quadrature points (on theta's
        support, the whole domain): gamma |grad phi_s|^2 in the solid,
        kappa |grad phi_e|^2 + kappa_D grad c_e . grad phi_e / c_e in the
        electrolyte, with theta at the quadrature points given."""
        mats, e = self.mats, self.s_ce.support.points
        q = np.empty(self.qp.n)
        gs = asm.eval_grad_qp(self.s_ps, mid["phi_s"])
        q[self.s_cs.support.points] = self.solid.conductivity \
            * (gs[0] ** 2 + gs[1] ** 2)
        ge = asm.eval_grad_qp(self.s_pe, mid["phi_e"])
        gc = asm.eval_grad_qp(self.s_ce, mid["c_e"])
        ce = self.guard.c_e(asm.eval_qp(self.s_ce, mid["c_e"]),
                            "c_e volume (heat source)")
        kd = diffusional_conductivity(theta_qp[e], mats)
        cross = (gc[0] * ge[0] + gc[1] * ge[1]) / ce
        q[e] = mats.electrolyte.conductivity * (ge[0] ** 2 + ge[1] ** 2) \
            + kd * cross
        return q

    # ------------------------------------------------------------------
    # Stage 1: the parabolic systems
    # ------------------------------------------------------------------

    def prepare(self, state0: SimState, dt: float) -> SimState:
        """Return the start of the steps of ``dt`` from ``state0``, having
        factorized the matrices that they reuse.

        Under a load the quasi-static fields are re-solved against state0
        (consistent initialization): they jump when the current switches on,
        and averaging step 1 across that jump would cost one order of
        accuracy.  At zero load state0 is the start.  The fixed c_e and theta
        midpoint matrices M + dt/2 K, which ``stepping.stage1`` reads from
        ``mid_ops``, come from ``assemble.midpoint_matrix``, as the c_s one of
        each sweep does.  Held from the start, the c_s factor preconditions
        the later c_s matrices better than a factor of step 1's
        Euler-predicted midpoint would (on the production presets 25 CG
        iterations per later step instead of 40)."""
        start = state0
        if self.i_app != 0.0:
            d0 = {k: state0[k] for k in self.D_FIELDS}
            start = SimState(state0.t,
                             {**d0, **self.stage2(state0.t, d0, state0)})

        self.dt = dt
        self.mid_ops = {"c_e": asm.midpoint_matrix(self.m_ce, self.k_ce, dt)}
        if self.mode == "full":     # the heat equation is solved only here
            self.mid_ops["theta"] = asm.midpoint_matrix(self.m_th, self.k_th,
                                                        dt)
        for name, mat in self.mid_ops.items():
            self.solvers[name].factorize(mat)
        k_cs = self.cs_stiffness(start, self.theta_points(start["theta"]))
        self.solvers["c_s"].factorize(asm.midpoint_matrix(self.m_cs, k_cs, dt))
        return start

    def cs_stiffness(self, state: SimState, theta_qp) -> sp.csr_matrix:
        """K_cs at the solid diffusivity of ``state`` (with theta at the
        quadrature points given), on M_cs's pattern."""
        return self.cs_scatter.stiffness(
            self.solid_diffusivity_qp(state, theta_qp), "solid diffusivity")

    def iface_loads(self, ist: InterfaceState) -> dict:
        mats = self.mats
        inv_f = 1.0 / mats.faraday
        t_plus = mats.electrolyte.t_plus
        tr_t, w = self.iface_tr_t, self.iface_w
        return {"c_s": tr_t[self.s_cs.support] @ (w * -ist.i_bv * inv_f),
                "c_e": tr_t[self.s_ce.support]
                @ (w * (1.0 - t_plus) * inv_f * ist.i_bv),
                "theta": tr_t[self.s_th.support] @ (w * ist.eta * ist.i_bv)}

    def parabolic(self, state: SimState):
        """The semi-discrete parabolic systems M d' + K d = b with their
        coefficients frozen at ``state``: returns the InterfaceState of
        ``state``, whose current loads them, and ``{field: (M, K, b)}``.

        c_s carries the solid diffusivity of ``state``, so its K changes with
        every sweep; c_e and theta have fixed M and K.  The heat load is the
        Ohmic source plus the interface polarization heat.  The
        electrochemical model has no heat system, so its theta stays put.
        """
        ist = self.interface_state(state)
        loads = self.iface_loads(ist)
        # one evaluation serves the c_s diffusivity and the heat source
        theta_qp = self.theta_points(state["theta"])
        systems = {
            "c_s": (self.m_cs, self.cs_stiffness(state, theta_qp),
                    loads["c_s"]),
            "c_e": (self.m_ce, self.k_ce, loads["c_e"]),
        }
        if self.mode == "full":
            q_load = asm.assemble_load(self.s_th,
                                       self.heat_source_qp(state, theta_qp))
            systems["theta"] = (self.m_th, self.k_th, q_load + loads["theta"])
        return ist, systems

    # ------------------------------------------------------------------
    # Stage 2: quasi-static potentials and displacement
    # ------------------------------------------------------------------

    def _kappa_d_grad_load(self, theta_qp, ce_v) -> np.ndarray:
        """(grad psi_e, kappa_D grad ln c_e) load vector (full DOFs), with
        theta at the quadrature points given."""
        ce = self.guard.c_e(asm.eval_qp(self.s_ce, ce_v),
                            "c_e volume (kappa_D load)")
        kd = diffusional_conductivity(theta_qp[self.s_ce.support.points],
                                      self.mats)
        return asm.assemble_grad_load(
            self.s_pe, kd * asm.eval_grad_qp(self.s_ce, ce_v) / ce)

    def potential_system(self, theta_v, cs_v, ce_v, theta_qp):
        """The linearized phi_s/phi_e pair as one reduced block system, with
        theta given as a vector and at the quadrature points.

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
                            -self._kappa_d_grad_load(theta_qp, ce_v)])
        b += self.iface_jump_t @ (self.iface_w * coeff * kin["ocp"])
        return a, b

    def elasticity_load(self, theta_qp, cs_v) -> np.ndarray:
        """(div v, 3K(alpha dtheta + omega dc)) load on the solid, with theta
        at the quadrature points given."""
        el = self.solid
        th = theta_qp[self.s_cs.support.points]
        cs = asm.eval_qp(self.s_cs, cs_v)
        return asm.assemble_div_load(self.s_u, 3.0 * el.bulk * (
            el.alpha * (th - self.mats.theta_ref)
            + el.omega * (cs - el.c_s_ref)))

    def stage2(self, t: float, d_new: dict, s_guess: SimState) -> dict:
        """Solve the quasi-static fields at the new time, then u.

        The linearized interface terms couple phi_s and phi_e, so the pair is
        solved at once as the block system of ``potential_system``; its
        matrix depends only on the dynamic fields and changes slowly, so the
        held factor of its solver preconditions CG on it.  The elasticity
        matrix is fixed and factorized once per problem.

        Both systems are solved for the correction against the guess: the
        right-hand side is then the actual out-of-balance force, which keeps
        the solver's relative residual meaningful for solutions riding a
        large offset.
        """
        theta_v, cs_v, ce_v = d_new["theta"], d_new["c_s"], d_new["c_e"]
        # one evaluation serves the kappa_D load and the elasticity load
        theta_qp = asm.eval_qp(self.s_th, theta_v)
        a, b = self.potential_system(theta_v, cs_v, ce_v, theta_qp)
        n_s = self.s_ps.n_free
        guess = np.concatenate([s_guess["phi_s"][self.s_ps.free],
                                s_guess["phi_e"]])
        x = guess + self.solvers["potential pair"].solve(a, b - a @ guess)
        ps, pe = asm.expand(self.s_ps, x[:n_s]), x[n_s:]

        if self.mode == "full":
            # The displacement constraints are homogeneous, so reducing the
            # load is a plain row selection (no lifting term).
            free = self.s_u.free
            b_u = self.elasticity_load(theta_qp, cs_v)[free]
            u_guess = s_guess["u"][free]
            u = asm.expand(self.s_u, u_guess + self.solvers["u"].solve(
                self.k_u_red, b_u - self.k_u_red @ u_guess))
        else:
            u = np.zeros(self.s_u.ndof)
        return {"phi_s": ps, "phi_e": pe, "u": u}

    # ------------------------------------------------------------------
    # Derived fields and summaries
    # ------------------------------------------------------------------

    def stress_qp(self, state: SimState) -> StressState:
        """Stress at the solid quadrature points."""
        return self.solid_stress(
            asm.eval_strain_qp(self.s_u, state["u"]),
            asm.eval_qp(self.s_th, state["theta"])[self.s_cs.support.points],
            asm.eval_qp(self.s_cs, state["c_s"]), self.solid)

    def von_mises_qp(self, state: SimState):
        """Von Mises stress at the solid quadrature points; returns (the
        array, max value, location of the max)."""
        vm = von_mises(self.stress_qp(state))
        j = int(np.argmax(vm))
        if vm[j] > 0.0:
            i = self.s_cs.support.points[j]
            return vm, float(vm[j]), (float(self.qp.x[i]), float(self.qp.y[i]))
        return vm, 0.0, (np.nan, np.nan)
