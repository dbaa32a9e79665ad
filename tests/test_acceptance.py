"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Desk-scale scenario runs (coarse mesh, dt = 6 s, 10 simulated minutes) are
shared through the session-scoped ``desk_runs`` fixture.
"""

import time

import numpy as np
import scipy.sparse as sp

from voltacell import assemble as asm
from voltacell import geometry as geo
from voltacell import materials as mat
from voltacell.config import preset
from voltacell.driver import run_scenario
from voltacell.mesh import MeshSpec, generate_layered_mesh
from voltacell.physics import CellProblem
from voltacell.driver import march
from voltacell.stepping import TimeGrid

import conftest
import oracles


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# 1. temporal order on the linear surrogate
# ---------------------------------------------------------------------------

def test_criterion_01_temporal_order():
    from voltacell.verification import temporal_order_study
    t0 = time.time()
    study = temporal_order_study()
    wall = time.time() - t0
    ok = all(r >= 1.9 for r in study.rates) and wall < 10.0
    _report(1, ok, f"temporal order {study.observed_order:.3f} (every rate "
                   f">= 1.9) across dt {{8,4,2,1}} s, runtime {wall:.2f}s "
                   f"(< 10s); rates {[f'{r:.3f}' for r in study.rates]}")


# ---------------------------------------------------------------------------
# 2. spatial order via manufactured solutions
# ---------------------------------------------------------------------------

def test_criterion_02_spatial_order():
    from voltacell.verification import spatial_order_study
    t0 = time.time()
    studies = spatial_order_study()
    wall = time.time() - t0
    details = []
    ok = wall < 60.0
    for p, study in studies.items():
        rate = study.observed_order
        ok = ok and abs(rate - p) <= 0.15
        details.append(f"p={p}: {rate:.3f}")
    _report(2, ok, "H1 rates within 0.15 of p on the unit square "
                   f"({', '.join(details)}), runtime {wall:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 3. equilibrium preservation
# ---------------------------------------------------------------------------

def test_criterion_03_equilibrium_preservation(coarse_mesh, mats):
    t0 = time.time()
    prob = conftest.make_problem(coarse_mesh, mats)
    prob.set_load(0.0)
    s0 = prob.initial_state()
    *_, (final, _) = march(prob, s0, TimeGrid(dt=6.0, n_steps=10))
    change = max(final.rel_diffs(s0, prob.field_scales).values())
    wall = time.time() - t0
    ok = change < 1e-7 and wall < 60.0
    _report(3, ok, f"zero-load equilibrium held over 10 steps: max relative "
                   f"change {change:.2e} (< 1e-7), runtime {wall:.1f}s")


# ---------------------------------------------------------------------------
# 4. discrete interface mass bookkeeping
# ---------------------------------------------------------------------------

def test_criterion_04_mass_bookkeeping(mats):
    cfg = preset("high_discharge").replace(mesh=MeshSpec.coarse(), dt=6.0,
                                           t_end=120.0)
    result = run_scenario(cfg)
    prob = result.problem
    faraday = mats.faraday
    t_plus = mats.electrolyte.t_plus
    dt = result.grid.dt
    ones_s = np.ones(prob.s_cs.ndof)
    ones_e = np.ones(prob.s_ce.ndof)
    state0 = result.snapshots[0][1]
    int_cs = [float(ones_s @ (prob.m_cs @ state0["c_s"]))]
    int_ce = [float(ones_e @ (prob.m_ce @ state0["c_e"]))]
    int_cs += [e.int_cs for e in result.extras]
    int_ce += [e.int_ce for e in result.extras]
    worst = 0.0
    for k, extra in enumerate(result.extras):
        d_cs = int_cs[k + 1] - int_cs[k]
        d_ce = int_ce[k + 1] - int_ce[k]
        flux = extra.ibv_mid
        lhs_s, rhs_s = d_cs, -dt / faraday * flux
        lhs_e, rhs_e = d_ce, dt * (1.0 - t_plus) / faraday * flux
        worst = max(worst,
                    abs(lhs_s - rhs_s) / max(abs(rhs_s), 1e-30),
                    abs(lhs_e - rhs_e) / max(abs(rhs_e), 1e-30))
    ok = len(result.extras) == 20 and worst < 1e-8
    _report(4, ok, f"20-step discharge lithium bookkeeping: worst relative "
                   f"imbalance {worst:.2e} (< 1e-8)")


# ---------------------------------------------------------------------------
# 5. heat-source sign
# ---------------------------------------------------------------------------

def test_criterion_05_heat_source_sign(desk_runs, monkeypatch):
    worst = min(rep.eta_ibv_min
                for result in desk_runs.values()
                for rep in result.reports)
    cfg = preset("high_discharge").replace(mesh=MeshSpec.coarse(), dt=6.0,
                                           t_end=600.0)
    with monkeypatch.context() as patch:
        conftest.switch_off_kappa_d(patch)
        adiabatic = run_scenario(cfg)
    weighted = [e.theta_weighted for e in adiabatic.extras]
    diffs = np.diff(weighted)
    nondecreasing = bool(np.all(diffs >= -1e-12 * weighted[0]))
    ok = worst >= 0.0 and nondecreasing
    _report(5, ok, f"eta*I_BV >= 0 in every step of every preset run "
                   f"(min {worst:.2e}); kappa_D = 0 adiabatic run: weighted "
                   f"mean temperature nondecreasing ({nondecreasing}, "
                   f"total rise {weighted[-1] - weighted[0]:.3e} K)")


# ---------------------------------------------------------------------------
# 6. material-law golden values
# ---------------------------------------------------------------------------

def test_criterion_06_material_golden_values(mats):
    kd = mat.diffusional_conductivity(298.15, mats)
    ocp_a = mat.ocp_anode(0.5)
    ocp_c = mat.ocp_cathode(0.5)
    from voltacell.physics import exchange_current
    i_c = exchange_current(0.5 * mats.anode.c_max, 2000.0, mats.anode, mats)
    checks = [
        ("kappa_D(298.15)", kd, -6.546e-3, 1e-6),
        ("OCP_anode(0.5)", ocp_a, 0.13453, 1e-5),
        ("OCP_cathode(0.5)", ocp_c, 4.1225, 1e-3),
        ("I_c(anode, 2000, c_max/2)", i_c, 0.7478, 1e-3),
    ]
    ok = all(abs(got - want) <= tol for _, got, want, tol in checks)
    detail = "; ".join(f"{name} = {got:.6g} (want {want:g} +/- {tol:g})"
                       for name, got, want, tol in checks)
    _report(6, ok, detail)


# ---------------------------------------------------------------------------
# 7. initial cell voltage
# ---------------------------------------------------------------------------

def test_criterion_07_initial_cell_voltage(desk_runs):
    v0s = [result.records[0].v_out_v for result in desk_runs.values()]
    ok = all(abs(v - 3.988) <= 0.01 for v in v0s)
    _report(7, ok, f"V_out(0) at 50% SoC = {v0s[0]:.5f} V "
                   f"(want 3.988 +/- 0.01) across all runs")


# ---------------------------------------------------------------------------
# 8. scenario qualitative behavior at desk scale
# ---------------------------------------------------------------------------

def _trend(values):
    d = np.diff(values)
    return bool(np.all(d < 0)), bool(np.all(d > 0))


def test_criterion_08_scenario_trends(desk_runs):
    issues = []
    for name, mode in ((n, m) for n in ("high_discharge", "low_discharge",
                                        "high_charge", "low_charge")
                       for m in ("full", "electrochemical")):
        recs = desk_runs[(name, mode)].records
        soc_a = [r.soc_anode for r in recs]
        soc_c = [r.soc_cathode for r in recs]
        v = np.array([r.v_out_v for r in recs])
        t = np.array([r.t_s for r in recs])
        temps = [r.temp_k for r in recs]
        a_dec, a_inc = _trend(soc_a)
        c_dec, c_inc = _trend(soc_c)
        after = t > 60.0
        if "discharge" in name:
            if not a_dec:
                issues.append(f"{name}/{mode}: anode SoC not decreasing")
            if not c_inc:
                issues.append(f"{name}/{mode}: cathode SoC not increasing")
            if not np.all(v[after] < v[0]):
                issues.append(f"{name}/{mode}: V_out not below start")
        else:
            if not a_inc:
                issues.append(f"{name}/{mode}: anode SoC not increasing")
            if not c_dec:
                issues.append(f"{name}/{mode}: cathode SoC not decreasing")
            if not np.all(v[after] > v[0]):
                issues.append(f"{name}/{mode}: V_out not above start")
        if mode == "full":
            if not np.all(np.diff(temps) > 0):
                issues.append(f"{name}/full: mean temperature not "
                              "strictly increasing")
        else:
            if not np.allclose(temps, 298.15, atol=1e-9):
                issues.append(f"{name}/electrochemical: temperature moved")
    _report(8, not issues,
            "SoC/V_out/temperature trends correct in all desk runs"
            + ("" if not issues else "; PROBLEMS: " + "; ".join(issues)))


# ---------------------------------------------------------------------------
# 9. model-comparison pattern
# ---------------------------------------------------------------------------

def test_criterion_09_model_comparison_pattern(desk_runs):
    rel = {}
    for name in ("low_discharge", "high_discharge"):
        p_full = desk_runs[(name, "full")].power_density_w_per_m3()
        p_ec = desk_runs[(name, "electrochemical")].power_density_w_per_m3()
        rel[name] = (p_ec - p_full) / abs(p_full)
    ok = abs(rel["high_discharge"]) > abs(rel["low_discharge"])
    charge_ps = [desk_runs[(n, m)].power_density_w_per_m3()
                 for n in ("low_charge", "high_charge")
                 for m in ("full", "electrochemical")]
    ok = ok and all(p < 0 for p in charge_ps)
    _report(9, ok, "power-density relative difference grows with current: "
                   f"|{rel['high_discharge']:.3e}| (high) > "
                   f"|{rel['low_discharge']:.3e}| (low); charge P all "
                   "negative")


# ---------------------------------------------------------------------------
# 10. matrix structure: symmetry and positive definiteness
# ---------------------------------------------------------------------------

def _system_matrices(problem, dt):
    """The systems a run solves, as the prepared problem holds them."""
    s0 = problem.prepare(problem.initial_state(), dt)
    mats = {}
    mats["theta system"] = problem.mid_ops["theta"]
    th_qp = asm.eval_qp(problem.s_th, s0["theta"])
    m_cs, k_cs, _ = problem.parabolic(s0)[1]["c_s"]
    mats["c_s system"] = asm.midpoint_matrix(m_cs, k_cs, dt)
    mats["c_e system"] = problem.mid_ops["c_e"]
    mats["potential block system"], _ = problem.potential_system(
        s0["theta"], s0["c_s"], s0["c_e"], th_qp)
    mats["elasticity"] = problem.k_u_red
    return mats


def test_criterion_10_matrix_structure(coarse_mesh, geom, mats):
    # symmetry on the working desk-scale systems
    prob = conftest.make_problem(coarse_mesh, mats)
    worst_asym = max(oracles.relative_asymmetry(m)
                     for m in _system_matrices(prob, 6.0).values())

    # dense positive definiteness on a mesh small enough to eigensolve
    tiny_mesh = generate_layered_mesh(geom, MeshSpec(
        nx_blocks=(1, 1, 2, 1), ny_blocks=(1, 2, 1), n_layers=0,
        degree=1, normal_degree=1))
    tiny = CellProblem(tiny_mesh, mats)
    min_eigs = {}
    sizes = {}
    for name, m in _system_matrices(tiny, 6.0).items():
        dense = m.toarray()
        sizes[name] = dense.shape[0]
        min_eigs[name] = float(np.linalg.eigvalsh(dense).min())
    ok = worst_asym <= 1e-12 and all(v > 0 for v in min_eigs.values()) \
        and all(n <= 500 for n in sizes.values())
    detail = (f"max relative asymmetry {worst_asym:.2e} (<= 1e-12); dense "
              "min eigenvalues "
              + ", ".join(f"{k}: {v:.3e} (n={sizes[k]})"
                          for k, v in min_eigs.items()))
    _report(10, ok, detail)


# ---------------------------------------------------------------------------
# 11. sparse assembly equals the dense brute-force oracle
# ---------------------------------------------------------------------------

def test_criterion_11_oracle_equivalence():
    import oracles
    from voltacell import spaces as sps
    from voltacell.mesh import Mesh, rectangle_mesh

    def rel(a, d):
        return np.abs(a.toarray() - d).max() / np.abs(d).max()

    worst = {}
    # mass and stiffness on a 2x2 quadratic mesh (4 elements)
    m = rectangle_mesh(1.3, 0.8, 2, 2, degree=2)
    s = sps.build_field_space(m, sps.OMEGA, name="t")
    coeff = lambda x, y: 1.5 + x + 0.25 * y
    scatter = asm.ElementScatter(s)
    worst["mass"] = rel(scatter.mass(coeff),
                        oracles.dense_mass(s, lambda x, y, t: coeff(x, y)))
    worst["stiffness"] = rel(
        scatter.stiffness(coeff),
        oracles.dense_stiffness(s, lambda x, y, t: coeff(x, y)))

    # interface mass on a 2-element solid/electrolyte pair
    m2 = Mesh.from_grid(
        np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0]),
        np.array([3, 3]), np.array([3]),
        np.array([[geo.ANODE, geo.ELYTE]], dtype=np.int8),
        lambda side, c: {"left": "cc_minus", "right": "cc_plus",
                         "top": "top", "bottom": "bottom"}[side])
    s2 = sps.build_field_space(m2, sps.OMEGA_E, name="phi_e")
    edges = m2.interface_edges()
    t_grid, w = asm.trace_operator(s2.grid, edges)
    t = asm.restrict_trace(s2, t_grid)
    y = t @ s2.node_xy()[:, 1]   # exact: y is in the space
    zero = sp.csr_matrix((s2.ndof, s2.ndof))
    worst["interface mass"] = rel(
        asm.TraceMass(t, w, zero).matrix(2.0 + y),
        oracles.dense_edge_mass(s2, edges, lambda x, y: 2.0 + y))

    # elasticity on a 2x2 mixed-degree solid mesh
    m3 = rectangle_mesh(0.9, 1.1, 2, 2, degree=2, tag=geo.CATHODE)
    s3 = sps.build_field_space(m3, sps.OMEGA_S, arity=2, name="u")
    shear, bulk = mat.lame_from_e_nu(2.5e9, 0.3)
    worst["elasticity"] = rel(
        asm.ElementScatter(s3).elasticity({geo.CATHODE: shear},
                                          {geo.CATHODE: bulk}),
        oracles.dense_elasticity(s3, lambda t: shear, lambda t: bulk))

    # the per-sweep systems of a cell problem, on their fixed patterns, at
    # the uniform start state (the diffusivity and the interface
    # coefficient are constant per electrode): anode | electrolyte |
    # cathode quadratic cells, in SI units
    m4 = Mesh.from_grid(
        np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0]),
        np.array([2, 2, 2]), np.array([2]),
        np.array([[geo.ANODE, geo.ELYTE, geo.CATHODE]], dtype=np.int8),
        lambda side, c: {"left": "cc_minus", "right": "cc_plus",
                         "top": "top", "bottom": "bottom"}[side])
    mats_si = mat.default_materials()
    prob = CellProblem(m4, mats_si)
    s0 = prob.initial_state()
    electrode = {t: mats_si.electrode(geo.TAG_NAMES[t])
                 for t in (geo.ANODE, geo.CATHODE)}
    d_s = {t: mat.stress_diffusivity(prob.c_s_ref[t], 0.0, e, mats_si)
           for t, e in electrode.items()}
    m_dense = oracles.dense_mass(prob.s_cs, lambda x, y, t: 1.0)
    k_dense = oracles.dense_stiffness(prob.s_cs, lambda x, y, t: d_s[t])
    dt = 2.0 * np.abs(m_dense).max() / np.abs(k_dense).max()  # both count
    worst["c_s system (fixed pattern)"] = rel(
        asm.midpoint_matrix(prob.m_cs, prob.cs_stiffness(
            s0, asm.eval_qp(prob.s_th, s0["theta"])), dt),
        m_dense + 0.5 * dt * k_dense)

    from voltacell.physics import exchange_current
    cf = {t: exchange_current(prob.c_s_ref[t], mats_si.c_e_init, e, mats_si)
          * mats_si.faraday / (mats_si.gas_constant * mats_si.theta_ref)
          for t, e in electrode.items()}
    iface = m4.interface_edges()
    coeff = lambda x, y: cf[geo.ANODE] if x < 1.5 else cf[geo.CATHODE]
    s_ps, s_pe = prob.s_ps, prob.s_pe
    k_s = oracles.dense_stiffness(s_ps,
                                  lambda x, y, t: electrode[t].conductivity)
    k_e = oracles.dense_stiffness(
        s_pe, lambda x, y, t: mats_si.electrolyte.conductivity)
    e_ss, e_se, e_ee = (oracles.dense_edge_coupling(a, b, iface, coeff)
                        for a, b in ((s_ps, s_ps), (s_ps, s_pe),
                                     (s_pe, s_pe)))
    free = np.nonzero(s_ps.free)[0]
    pair = np.block([[(k_s + e_ss)[np.ix_(free, free)], -e_se[free]],
                     [-e_se[free].T, k_e + e_ee]])
    worst["potential pair (fixed pattern)"] = rel(
        prob.potential_system(s0["theta"], s0["c_s"], s0["c_e"],
                              asm.eval_qp(prob.s_th, s0["theta"]))[0], pair)

    ok = all(v < 1e-12 for v in worst.values())
    _report(11, ok, "sparse vs dense-oracle max relative deviation: "
            + ", ".join(f"{k}: {v:.2e}" for k, v in worst.items())
            + " (all < 1e-12)")
