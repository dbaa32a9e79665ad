import numpy as np
import pytest

from voltacell import assemble as asm
from voltacell import geometry as geo
from voltacell import materials as mat
from voltacell import physics as phys
from voltacell.mesh import Mesh
from voltacell.solve import DEFAULT_RTOL
from voltacell.state import Guard, GuardPolicy

import conftest


@pytest.fixture(scope="module")
def mats():
    return mat.default_materials()


def toy_strip_problem(mats, **kw):
    """anode | electrolyte | cathode unit cells in a row (SI units)."""
    mesh = Mesh.from_grid(
        np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0]),
        np.array([1, 1, 1]), np.array([1]),
        np.array([[geo.ANODE, geo.ELYTE, geo.CATHODE]], dtype=np.int8),
        lambda side, c: {"left": "cc_minus", "right": "cc_plus",
                         "top": "top", "bottom": "bottom"}[side])
    guard = Guard(GuardPolicy.defaults(mats))
    return phys.CellProblem(mesh, mats, guard, **kw)


# classic bilinear element matrices on the unit square, in this package's
# node ordering (x fastest): v0=(0,0) v1=(1,0) v2=(0,1) v3=(1,1)
_PERM = [0, 1, 3, 2]
_M_CCW = np.array([[4, 2, 1, 2], [2, 4, 2, 1], [1, 2, 4, 2],
                   [2, 1, 2, 4]]) / 36.0
_K_CCW = np.array([[4, -1, -2, -1], [-1, 4, -1, -2], [-2, -1, 4, -1],
                   [-1, -2, -1, 4]]) / 6.0
M1 = _M_CCW[np.ix_(_PERM, _PERM)]
K1 = _K_CCW[np.ix_(_PERM, _PERM)]


# ---------------------------------------------------------------------------
# kinetics
# ---------------------------------------------------------------------------

def test_exchange_current_vanishes_at_extremes(mats):
    el = mats.anode
    assert phys.exchange_current(el.c_max, 2000.0, el, mats) == 0.0
    assert phys.exchange_current(0.0, 2000.0, el, mats) == 0.0
    assert phys.exchange_current(0.5 * el.c_max, 0.0, el, mats) == 0.0


def test_exchange_current_reference_value(mats):
    el = mats.anode
    c_s = 0.5 * el.c_max
    expected = (mats.k_bv * mats.faraday * np.sqrt(2000.0)
                * np.sqrt(el.c_max - c_s) * np.sqrt(c_s))
    got = phys.exchange_current(c_s, 2000.0, el, mats)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(0.7478, abs=1e-3)


def test_exchange_current_rejects_negative_inputs(mats):
    with pytest.raises(ValueError):
        phys.exchange_current(-1.0, 2000.0, mats.anode, mats)
    with pytest.raises(ValueError):
        phys.exchange_current(100.0, -1.0, mats.anode, mats)


def test_butler_volmer_zero_and_odd(mats):
    assert phys.butler_volmer_current(0.7478, 0.0, 298.15, mats) == 0.0
    etas = np.array([1e-4, 1e-3, 0.01, 0.05, 0.1])
    pos = phys.butler_volmer_current(0.7478, etas, 298.15, mats)
    neg = phys.butler_volmer_current(0.7478, -etas, 298.15, mats)
    assert np.allclose(pos, -neg, rtol=1e-14)
    assert np.all(np.diff(pos) > 0.0)


def test_butler_volmer_reference_value(mats):
    arg = mats.faraday * 0.05 / (2 * mats.gas_constant * 298.15)
    expected = 2 * 0.7478 * np.sinh(arg)
    got = phys.butler_volmer_current(0.7478, 0.05, 298.15, mats)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(1.693, abs=5e-3)


def test_butler_volmer_small_eta_linearization(mats):
    # leading-order current I_c F eta / (R theta), within 1% for |arg| < 0.17
    theta = 298.15
    eta = 0.17 * 2 * mats.gas_constant * theta / mats.faraday
    i_c = 0.7478
    full = phys.butler_volmer_current(i_c, eta, theta, mats)
    linear = i_c * mats.faraday * eta / (mats.gas_constant * theta)
    assert abs(full - linear) / abs(full) < 0.01


def test_butler_volmer_overflow_guard(mats):
    with pytest.raises(phys.DivergenceError):
        phys.butler_volmer_current(1.0, 30.0, 298.15, mats)


def test_interface_mass_coefficient_value(mats):
    coeff = 0.7478 * mats.faraday / (mats.gas_constant * 298.15)
    assert coeff == pytest.approx(29.11, abs=0.01)


# ---------------------------------------------------------------------------
# Ohmic heat source at the quadrature points
# ---------------------------------------------------------------------------

def _hand_set_state(prob, grad_phi_s, grad_phi_e, c_e):
    """The initial state with linear potentials of the given gradients and
    the electrolyte concentration c_e(x, y)."""
    state = prob.initial_state()
    for name, (gx, gy) in (("phi_s", grad_phi_s), ("phi_e", grad_phi_e)):
        state[name] = prob.spaces[name].interpolate(
            lambda x, y, gx=gx, gy=gy: gx * x + gy * y)
    state["c_e"] = prob.s_ce.interpolate(c_e)
    return state


def test_current_density_solid(mats):
    """In each electrode the source is gamma |grad phi_s|^2 (the Ohmic heat
    -i.grad phi_s of i = -gamma grad phi_s)."""
    prob = toy_strip_problem(mats)
    state = _hand_set_state(prob, (1.0, -0.5), (0.0, 0.0),
                            lambda x, y: 2000.0 + 0.0 * x)
    q = prob.heat_source_qp(state)
    tag = prob.qp.tag
    assert q[tag == geo.ANODE] == pytest.approx(100.0 * 1.25, rel=1e-12)
    assert q[tag == geo.CATHODE] == pytest.approx(3.8 * 1.25, rel=1e-12)


def test_current_density_electrolyte_uniform_concentration(mats):
    """With uniform c_e the electrolyte source is kappa |grad phi_e|^2."""
    prob = toy_strip_problem(mats)
    gp = (0.5, -0.25)
    state = _hand_set_state(prob, (0.0, 0.0), gp,
                            lambda x, y: 2000.0 + 0.0 * x)
    q = prob.heat_source_qp(state)
    assert q[prob.qp.tag == geo.ELYTE] == pytest.approx(
        mats.electrolyte.conductivity * (0.5 ** 2 + 0.25 ** 2), rel=1e-12)
    assert np.all(q[prob.qp.tag != geo.ELYTE] == 0.0)


def test_current_density_diffusional_term(mats):
    """A c_e gradient adds kappa_D grad c_e . grad phi_e / c_e."""
    prob = toy_strip_problem(mats)
    state = _hand_set_state(prob, (0.0, 0.0), (0.3, 0.1),
                            lambda x, y: 1500.0 + 200.0 * x)
    e = prob.qp.tag == geo.ELYTE
    c_e = 1500.0 + 200.0 * prob.qp.x[e]
    kd = mat.diffusional_conductivity(mats.theta_ref, mats)
    assert kd == pytest.approx(-6.546e-3, abs=1e-5)
    expected = mats.electrolyte.conductivity * (0.3 ** 2 + 0.1 ** 2) \
        + kd * 200.0 * 0.3 / c_e
    assert prob.heat_source_qp(state)[e] == pytest.approx(expected,
                                                          rel=1e-12)


def test_ohmic_heat_conventions(mats):
    """The source is nonnegative in each conductor, flips sign under the
    'reversed' convention and vanishes without gradients."""
    probs = {c: toy_strip_problem(mats, heat_convention=c)
             for c in ("physical", "reversed")}
    state = _hand_set_state(probs["physical"], (2.0, -1.0), (0.5, 0.2),
                            lambda x, y: 2000.0 + 0.0 * x)
    q = probs["physical"].heat_source_qp(state)
    assert np.all(q > 0.0)
    assert probs["reversed"].heat_source_qp(state) == pytest.approx(-q,
                                                                    rel=1e-14)
    rest = probs["physical"].initial_state()
    assert np.abs(probs["physical"].heat_source_qp(rest)).max() <= 1e-20


# ---------------------------------------------------------------------------
# toy-strip hand oracles
# ---------------------------------------------------------------------------

def test_stage1_concentration_system_hand_oracle(mats):
    """Single solid elements with constant diffusivity: the c_s system is the
    hand-assembled midpoint discretization M + dt/2 D K per element."""
    prob = toy_strip_problem(mats)
    s0 = prob.initial_state()
    dt = 25.0
    systems_prev = s0.copy()
    new, _ = prob.stage1(systems_prev, s0.copy(), dt)

    # reconstruct the element matrices by hand: c_s space is two disconnected
    # bilinear cells, block order follows the node numbering
    d_a = mat.stress_diffusivity(0.5 * mats.anode.c_max, 0.0,
                                 mats.anode, mats)
    d_c = mat.stress_diffusivity(0.5 * mats.cathode.c_max, 0.0,
                                 mats.cathode, mats)
    cs_space = prob.s_cs
    a_hand = np.zeros((8, 8))
    for g, rows, dofs in zip(cs_space.master, cs_space.member_rows,
                             cs_space.cell_node_dofs):
        for k, row in enumerate(rows):
            d = d_a if g.tag[row] == geo.ANODE else d_c
            idx = dofs[k]
            a_hand[np.ix_(idx, idx)] += M1 + 0.5 * dt * d * K1
    # at equilibrium the interface load vanishes, so A c_new = M c_prev
    b_hand = np.zeros(8)
    for g, rows, dofs in zip(cs_space.master, cs_space.member_rows,
                             cs_space.cell_node_dofs):
        for k, row in enumerate(rows):
            idx = dofs[k]
            b_hand[np.ix_(idx)] += M1 @ s0["c_s"][idx] \
                - 0.5 * dt * (d_a if g.tag[row] == geo.ANODE else d_c) \
                * (K1 @ s0["c_s"][idx])
    c_new = np.linalg.solve(a_hand, b_hand)
    assert np.allclose(new["c_s"], c_new, rtol=1e-9)
    assert np.allclose(new["c_s"], s0["c_s"], rtol=1e-9)


def test_potential_system_hand_oracle(mats):
    """Toy strip: hand-assembled bulk stiffness, interface mass and coupling
    blocks, and loads of the reduced phi_s/phi_e block system."""
    prob = toy_strip_problem(mats)
    i_app = 3.0
    prob.set_load(i_app)
    s0 = prob.initial_state()
    a, b = prob.potential_system(s0["theta"], s0["c_s"], s0["c_e"])

    theta0 = mats.theta_ref
    ocp_a = mats.anode.ocp(0.5)
    ocp_c = mats.cathode.ocp(0.5)
    i_c_a = phys.exchange_current(0.5 * mats.anode.c_max, mats.c_e_init,
                                  mats.anode, mats)
    i_c_c = phys.exchange_current(0.5 * mats.cathode.c_max, mats.c_e_init,
                                  mats.cathode, mats)
    cf_a = i_c_a * mats.faraday / (mats.gas_constant * theta0)
    cf_c = i_c_c * mats.faraday / (mats.gas_constant * theta0)

    def edge_m(y_i, y_j):
        """Unit vertical edge mass between nodes at heights y_i and y_j."""
        same = np.isclose(y_i[:, None], y_j[None, :])
        return np.where(same, 2.0, 1.0) / 6.0

    # phi_s space: nodes of the anode cell then the cathode cell; phi_e
    # space: the electrolyte cell, its left edge facing the anode
    ps, pe = prob.s_ps, prob.s_pe
    xy, xe = ps.node_xy(), pe.node_xy()
    dofs_e = pe.cell_node_dofs[0][0]
    left = dofs_e[np.isclose(xe[dofs_e, 0], 1.0)]
    right = dofs_e[np.isclose(xe[dofs_e, 0], 2.0)]
    a_ss = np.zeros((8, 8))
    a_se = np.zeros((8, 4))
    b_s = np.zeros(8)
    a_ee = np.zeros((4, 4))
    b_e = np.zeros(4)
    a_ee[np.ix_(dofs_e, dofs_e)] += mats.electrolyte.conductivity * K1
    for g, rows, dofs in zip(ps.master, ps.member_rows, ps.cell_node_dofs):
        for k, row in enumerate(rows):
            idx = dofs[k]
            tag = int(g.tag[row])
            gamma = mats.electrode(geo.TAG_NAMES[tag]).conductivity
            a_ss[np.ix_(idx, idx)] += gamma * K1
            if tag == geo.ANODE:
                x_face, e_idx, cf, ocp = 1.0, left, cf_a, ocp_a
            else:
                x_face, e_idx, cf, ocp = 2.0, right, cf_c, ocp_c
                cc_idx = idx[np.isclose(xy[idx, 0], 3.0)]
                b_s[cc_idx] += -i_app * 0.5
            s_idx = idx[np.isclose(xy[idx, 0], x_face)]
            y_s, y_e = xy[s_idx, 1], xe[e_idx, 1]
            a_ss[np.ix_(s_idx, s_idx)] += cf * edge_m(y_s, y_s)
            a_ee[np.ix_(e_idx, e_idx)] += cf * edge_m(y_e, y_e)
            a_se[np.ix_(s_idx, e_idx)] -= cf * edge_m(y_s, y_e)
            b_s[s_idx] += cf * ocp * 0.5
            b_e[e_idx] -= cf * ocp * 0.5
    free = np.nonzero(ps.free)[0]
    a_hand = np.block([[a_ss[np.ix_(free, free)], a_se[free]],
                       [a_se[free].T, a_ee]])
    b_hand = np.concatenate([b_s[free], b_e])
    assert np.allclose(a.toarray(), a_hand, rtol=1e-12,
                       atol=1e-12 * np.abs(a_hand).max())
    assert np.allclose(b, b_hand, rtol=1e-12,
                       atol=1e-12 * np.abs(b_hand).max())


def test_potential_solve_preserves_equilibrium(mats):
    prob = toy_strip_problem(mats)
    prob.set_load(0.0)
    s0 = prob.initial_state()
    new_s = prob.stage2(0.0, {k: s0[k] for k in ("theta", "c_s", "c_e")}, s0)
    assert np.allclose(new_s["phi_s"], s0["phi_s"], atol=1e-12)
    assert np.allclose(new_s["phi_e"], s0["phi_e"], atol=1e-12)
    assert np.allclose(new_s["u"], 0.0, atol=1e-12)


def test_kappa_d_load_vanishes_for_uniform_concentration(mats):
    prob = toy_strip_problem(mats)
    prob.set_load(0.0)
    s0 = prob.initial_state()
    _, b = prob.potential_system(s0["theta"], s0["c_s"], s0["c_e"])
    prob2 = toy_strip_problem(mats, kappa_d_factor=0.0)
    prob2.set_load(0.0)
    _, b_no_kd = prob2.potential_system(s0["theta"], s0["c_s"], s0["c_e"])
    assert np.allclose(b, b_no_kd,
                       atol=1e-12 * max(np.abs(b_no_kd).max(), 1e-30))


def test_stage2_solves_potential_pair_exactly(coarse_mesh, mats_scaled,
                                              scales):
    """Under load, stage 2's phi_s and phi_e satisfy both linearized
    potential equations at once: each field's residual, with the other
    field's trace in its interface term, is at solver tolerance."""
    from voltacell import units
    prob = conftest.make_problem(coarse_mesh, mats_scaled)
    prob.set_load(scales.to_internal(20.0, units.CURRENT_DENSITY))
    s0 = prob.initial_state()
    new = prob.stage2(0.0, {k: s0[k] for k in prob.D_FIELDS}, s0)
    ist = prob.interface_state(s0["theta"], s0["c_s"], s0["c_e"],
                               new["phi_s"], new["phi_e"])
    assert np.abs(ist.eta).max() > 1e-3        # the pair is really loaded
    wc = prob.iface_w * ist.coeff
    t_s, t_e = prob.iface_tr["phi_s"], prob.iface_tr["phi_e"]
    k_s = asm.assemble_stiffness(prob.s_ps, {
        geo.ANODE: mats_scaled.anode.conductivity,
        geo.CATHODE: mats_scaled.cathode.conductivity})
    k_e = asm.assemble_stiffness(prob.s_pe,
                                 mats_scaled.electrolyte.conductivity)
    free = prob.s_ps.free
    cc = np.zeros(prob.s_ps.ndof)
    cc[free] = -prob.i_app * prob.cc_plus_load
    # (K_s + T_s^T W T_s) phi_s = cc + T_s^T W (T_e phi_e + U), and
    # (K_e + T_e^T W T_e) phi_e = T_e^T W (T_s phi_s - U); the kappa_D load
    # vanishes for the uniform c_e.
    load_s = cc + t_s.T @ (wc * (ist.phi_e + ist.ocp))
    load_e = t_e.T @ (wc * (ist.phi_s - ist.ocp))
    res_s = k_s @ new["phi_s"] + t_s.T @ (wc * ist.phi_s) - load_s
    res_e = k_e @ new["phi_e"] + t_e.T @ (wc * ist.phi_e) - load_e
    assert np.linalg.norm(res_s[free]) <= DEFAULT_RTOL * np.linalg.norm(
        load_s[free])
    assert np.linalg.norm(res_e) <= DEFAULT_RTOL * np.linalg.norm(load_e)


# ---------------------------------------------------------------------------
# per-sweep matrices on fixed patterns
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module", params=["coarse", "mixed degrees"])
def pattern_problem(request, coarse_mesh, mats_scaled, geom_scaled):
    """A cell problem on the coarse mesh (one degree group) and on a mesh
    with four degree groups, like the production mesh."""
    from voltacell.mesh import MeshSpec, generate_layered_mesh
    mesh = coarse_mesh if request.param == "coarse" else \
        generate_layered_mesh(geom_scaled, MeshSpec(
            nx_blocks=(1, 3, 2, 1), ny_blocks=(1, 2, 1), n_layers=1,
            degree=1, normal_degree=2))
    return conftest.make_problem(mesh, mats_scaled)


def _sweep_states(prob, n=2):
    """The initial state and perturbed copies of it, as sweeps see them."""
    s0 = prob.initial_state()
    states = [s0]
    for k in range(1, n):
        st = s0.copy()
        wave = np.sin(np.arange(prob.s_cs.ndof) * (0.3 + k))
        st["c_s"] = s0["c_s"] * (1.0 + 0.05 * k * wave)
        st["c_e"] = s0["c_e"] * (1.0 + 0.1 * k * np.cos(
            np.arange(prob.s_ce.ndof)))
        st["theta"] = s0["theta"] + 3.0 * k
        states.append(st)
    return states


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def test_cs_matrices_keep_the_c_s_pattern(pattern_problem):
    """K_cs and M_cs + dt/2 K_cs of each sweep equal the stand-alone
    assembly and share M_cs's pattern arrays."""
    prob = pattern_problem
    dt = 0.1
    pattern = (prob.m_cs.indptr, prob.m_cs.indices)
    for state in _sweep_states(prob):
        k, a = prob.cs_matrices(state, dt)
        k_ref = asm.assemble_stiffness(prob.s_cs,
                                       prob.solid_diffusivity_qp(state))
        assert _rel(k.toarray(), k_ref.toarray()) <= 1e-13
        assert _rel(a.toarray(),
                    (prob.m_cs + 0.5 * dt * k_ref).toarray()) <= 1e-13
        for mat_ in (k, a):
            assert mat_.indptr is pattern[0] and mat_.indices is pattern[1]


def test_potential_matrix_keeps_one_pattern(pattern_problem, mats_scaled):
    """The potential-pair matrix equals blockdiag(K_s, K_e) + D^T diag(w c) D
    formed densely, sweep after sweep, on one pattern."""
    prob = pattern_problem
    free = np.nonzero(prob.s_ps.free)[0]
    k_s = asm.assemble_stiffness(prob.s_ps, {
        geo.ANODE: mats_scaled.anode.conductivity,
        geo.CATHODE: mats_scaled.cathode.conductivity}).toarray()
    k_e = asm.assemble_stiffness(
        prob.s_pe, mats_scaled.electrolyte.conductivity).toarray()
    k_pot = np.block([
        [k_s[np.ix_(free, free)], np.zeros((len(free), len(k_e)))],
        [np.zeros((len(k_e), len(free))), k_e]])
    d = prob.iface_jump.toarray()
    patterns = []
    for state in _sweep_states(prob):
        a, _ = prob.potential_system(state["theta"], state["c_s"],
                                     state["c_e"])
        coeff = prob.interface_state_of(state).coeff
        dense = k_pot + d.T @ ((prob.iface_w * coeff)[:, None] * d)
        assert _rel(a.toarray(), dense) <= 1e-13
        patterns.append((a.indptr, a.indices))
    assert patterns[0][0] is patterns[1][0]
    assert patterns[0][1] is patterns[1][1]


# ---------------------------------------------------------------------------
# the flat quadrature-point layout
# ---------------------------------------------------------------------------

def _layout_state(prob):
    """A state with every field varying in space (u small but nonzero)."""
    rng = np.random.default_rng(5)
    state = _sweep_states(prob)[1]
    state["u"] = 1e-4 * rng.standard_normal(prob.s_u.ndof)
    state["theta"] = state["theta"] + rng.uniform(0.0, 2.0,
                                                  prob.s_th.ndof)
    return state


def test_layout_constants_follow_the_point_tags(pattern_problem,
                                                mats_scaled):
    """Each solid quadrature point carries its own electrode's constants;
    the solid and electrolyte points split the layout."""
    prob = pattern_problem
    qp = prob.qp
    assert np.array_equal(np.sort(np.concatenate(
        [prob.solid_qp, prob.elyte_qp])), np.arange(qp.n))
    assert np.all(qp.tag[prob.elyte_qp] == geo.ELYTE)
    el = prob.solid
    for k, tag in zip(prob.solid_qp, prob.solid_tags):
        assert qp.tag[k] == tag
    for tag in (geo.ANODE, geo.CATHODE):
        ref = mats_scaled.electrode(geo.TAG_NAMES[tag])
        at = prob.solid_tags == tag
        assert np.any(at)
        shear, bulk = ref.lame
        for name, value in (("c_max", ref.c_max),
                            ("diffusivity0", ref.diffusivity0),
                            ("conductivity", ref.conductivity),
                            ("shear", shear), ("bulk", bulk),
                            ("alpha", ref.alpha), ("omega", ref.omega),
                            ("c_s_ref", prob.c_s_ref[tag])):
            assert np.all(getattr(el, name)[at] == value), (tag, name)


def test_layout_matches_per_element_evaluation(pattern_problem):
    """Flat eval_qp, eval_grad_qp, assemble_load and integrate agree with a
    cell-by-cell evaluation through the oracle's Lagrange polynomials."""
    import oracles
    prob = pattern_problem
    qp, space = prob.qp, prob.s_cs
    vec = _layout_state(prob)["c_s"]
    vals = asm.eval_qp(space, vec)
    grads = asm.eval_grad_qp(space, vec)
    f = np.cos(qp.x) + qp.y ** 2                # a flat load density
    load = asm.assemble_load(space, f)
    ref_vals = np.zeros(qp.n)
    ref_grads = np.zeros((qp.n, 2))
    ref_load = np.zeros(space.ndof)
    total = 0.0
    for k, (g, rows, dofs) in enumerate(zip(
            space.master, space.member_rows, space.cell_node_dofs)):
        ref = g.ref
        nq = len(ref.qw)
        lx, ly = oracles.lagrange_polys(g.px), oracles.lagrange_polys(g.py)
        dlx, dly = [p.deriv() for p in lx], [p.deriv() for p in ly]
        for e, row in enumerate(rows):
            pts = qp.offsets[k] + row * nq + np.arange(nq)
            xi = ref.qp[:, 0]
            eta = ref.qp[:, 1]
            assert np.allclose(qp.x[pts], g.x0[row] + (xi + 1) * 0.5
                               * g.hx[row], rtol=1e-14)
            assert np.allclose(qp.y[pts], g.y0[row] + (eta + 1) * 0.5
                               * g.hy[row], rtol=1e-14)
            assert np.allclose(qp.weight[pts], 0.25 * g.hx[row] * g.hy[row]
                               * ref.qw, rtol=1e-14)
            phi = np.array([ly[b](eta) * lx[a](xi) for b in range(g.py + 1)
                            for a in range(g.px + 1)])       # (nbf, nq)
            dx = np.array([ly[b](eta) * dlx[a](xi) for b in range(g.py + 1)
                           for a in range(g.px + 1)]) * 2.0 / g.hx[row]
            dy = np.array([dly[b](eta) * lx[a](xi) for b in range(g.py + 1)
                           for a in range(g.px + 1)]) * 2.0 / g.hy[row]
            c = vec[dofs[e]]
            ref_vals[pts] = c @ phi
            ref_grads[pts] = np.column_stack([c @ dx, c @ dy])
            np.add.at(ref_load, dofs[e], phi @ (qp.weight[pts] * f[pts]))
            total += (qp.weight[pts] * vals[pts]).sum()
    assert np.allclose(vals, ref_vals, rtol=1e-12, atol=1e-12 * np.abs(
        ref_vals).max())
    assert np.allclose(grads, ref_grads, rtol=1e-10, atol=1e-10 * np.abs(
        ref_grads).max())
    assert np.allclose(load, ref_load, rtol=1e-12, atol=1e-12 * np.abs(
        ref_load).max())
    assert asm.integrate(space, vals) == pytest.approx(total, rel=1e-12)
    assert np.all(vals[prob.elyte_qp] == 0.0)


def test_layout_stress_laws_match_hooke_per_electrode(pattern_problem,
                                                      mats_scaled):
    """solid_pressure_qp and von_mises_qp equal Hooke's law with each
    electrode's own material at sampled solid points."""
    prob = pattern_problem
    state = _layout_state(prob)
    s = prob.solid_qp
    strain = asm.eval_strain_qp(prob.s_u, state["u"])
    theta = asm.eval_qp(prob.s_th, state["theta"])
    c_s = asm.eval_qp(prob.s_cs, state["c_s"])
    pi = prob.solid_pressure_qp(state["u"], state["theta"], c_s[s])
    vm, vmax, _ = prob.von_mises_qp(state)
    assert vmax == vm.max() > 0.0
    assert np.all(vm[prob.elyte_qp] == 0.0)
    for j in range(0, len(s), 7):
        k, tag = s[j], prob.solid_tags[j]
        stress = mat.hooke_plane_strain(
            *strain[k], theta[k], c_s[k],
            mats_scaled.electrode(geo.TAG_NAMES[tag]), mats_scaled,
            prob.c_s_ref[tag])
        assert pi[j] == pytest.approx(mat.hydrostatic_pressure(stress),
                                      rel=1e-12, abs=1e-12 * np.abs(pi).max())
        assert vm[k] == pytest.approx(mat.von_mises(stress), rel=1e-12)


def test_nonpositive_solid_diffusivity_located_per_sweep(coarse_problem):
    prob = coarse_problem
    s0 = prob.initial_state()
    d_qp = prob.solid_diffusivity_qp(s0)
    nq = len(prob.master[0].ref.qw)
    i = int(prob.s_cs.member_rows[0][5]) * nq + 2    # a point of group 0
    d_qp[i] = -1.0
    prob.solid_diffusivity_qp = lambda state: d_qp
    with pytest.raises(asm.AssemblyError) as err:
        prob.cs_matrices(s0, 0.1)
    assert str(err.value) == (
        f"nonpositive solid diffusivity sample -1 at quadrature point "
        f"({prob.qp.x[i]:.6g}, {prob.qp.y[i]:.6g})")


def test_negative_interface_coefficient_raises(coarse_problem):
    """A negative I_c F/(R theta) at some interface points (here from a
    negative temperature trace on the anode interface) is rejected by the
    potential pair's interface mass."""
    prob = coarse_problem
    s0 = prob.initial_state()
    tr = prob.iface_tr["theta"]
    anode_nodes = np.unique(tr[prob.iface_tags == geo.ANODE].indices)
    theta = s0["theta"].copy()
    theta[anode_nodes] *= -1.0
    with pytest.raises(asm.AssemblyError, match="nonnegative"):
        prob.potential_system(theta, s0["c_s"], s0["c_e"])


# ---------------------------------------------------------------------------
# interface loads and their balance
# ---------------------------------------------------------------------------

def test_interface_load_balance(coarse_mesh, mats_scaled):
    """Summing each interface load over the constant test function equals the
    corresponding multiple of the interface I_BV integral."""
    prob = conftest.make_problem(coarse_mesh, mats_scaled)
    s0 = prob.initial_state()
    rng = np.random.default_rng(8)
    state = s0.copy()
    state["phi_s"] = prob.s_ps.apply_constraints(
        s0["phi_s"] + 0.01 * rng.normal(size=prob.s_ps.ndof))
    state["phi_e"] = s0["phi_e"] + 0.01 * rng.normal(size=prob.s_pe.ndof)
    ist = prob.interface_state_of(state)
    loads = prob.iface_loads(ist)
    total_ibv = ist.ibv_integral(prob.iface_w)
    faraday = mats_scaled.faraday
    t_plus = mats_scaled.electrolyte.t_plus
    assert loads["c_s"].sum() == pytest.approx(-total_ibv / faraday,
                                               rel=1e-12)
    assert loads["c_e"].sum() == pytest.approx(
        (1 - t_plus) * total_ibv / faraday, rel=1e-12)
    # eta * I_BV is pointwise nonnegative (odd sinh), hence the heat load too
    assert ist.eta_ibv_min() >= 0.0


def test_linearized_bv_matches_nonlinear_at_small_eta(coarse_mesh,
                                                      mats_scaled):
    prob = conftest.make_problem(coarse_mesh, mats_scaled)
    s0 = prob.initial_state()
    for eta0 in (-0.005, -0.002, 0.002, 0.005):   # volts; scale is 1 V
        state = s0.copy()
        state["phi_s"] = prob.s_ps.apply_constraints(s0["phi_s"] + eta0)
        ist = prob.interface_state_of(state)
        for tag in (geo.ANODE, geo.CATHODE):
            sel = ist.tags == tag
            assert np.any(sel)
            linear = ist.coeff[sel] * ist.eta[sel]
            assert np.all(np.abs(linear - ist.i_bv[sel])
                          <= 0.01 * np.abs(ist.i_bv[sel]))


def test_stage1_uniform_state_is_stationary(coarse_problem):
    prob = coarse_problem
    prob.set_load(0.0)
    s0 = prob.initial_state()
    new, audit = prob.stage1(s0, s0.copy(), dt=0.1)
    for name in ("theta", "c_s", "c_e"):
        scale = np.abs(s0[name]).max()
        assert np.abs(new[name] - s0[name]).max() < 1e-9 * scale
    assert audit.ibv_integral == pytest.approx(0.0, abs=1e-12)


def test_stage1_heat_start_is_two_backward_euler_half_steps(coarse_problem,
                                                            scales):
    """The start-up step keeps c_s, c_e on the midpoint rule and takes the
    heat equation as two backward-Euler half-steps with the midpoint
    source b: with h = dt/2 and A = M + h K, the increments solve
    A d1 = h (b - K theta_0) and A d2 = h (b - K (theta_0 + d1))."""
    import scipy.sparse.linalg as spla
    from voltacell import units
    from voltacell.state import SimState
    prob = coarse_problem
    prob.set_load(scales.to_internal(20.0, units.CURRENT_DENSITY))
    s0 = prob.initial_state()
    d0 = {k: s0[k] for k in prob.D_FIELDS}
    mid = SimState(0.0, {**d0, **prob.stage2(0.0, d0, s0)})
    dt = 0.1
    plain, _ = prob.stage1(s0, mid, dt)
    start, _ = prob.stage1(s0, mid, dt, heat_start=True)
    for name in ("c_s", "c_e"):
        assert np.array_equal(start[name], plain[name])
    assert not np.array_equal(start["theta"], plain["theta"])

    m, k = prob.m_th, prob.k_th
    b = (asm.assemble_load(prob.s_th, prob.heat_source_qp(mid))
         + prob.iface_loads(prob.interface_state_of(mid))["theta"])
    h = 0.5 * dt
    a = (m + h * k).tocsc()
    d1 = spla.spsolve(a, h * (b - k @ s0["theta"]))
    d2 = spla.spsolve(a, h * (b - k @ (s0["theta"] + d1)))
    delta = start["theta"] - s0["theta"]
    assert np.abs(delta - (d1 + d2)).max() < 1e-6 * np.abs(delta).max()


def test_equilibrium_fixed_point_full_step(coarse_problem):
    from voltacell.state import History
    from voltacell.stepping import TimeGrid, step
    prob = coarse_problem
    prob.set_load(0.0)
    s0 = prob.initial_state()
    grid = TimeGrid(dt=0.1, n_steps=1)
    state, rep = step(prob, History(prev=s0), grid, 1)
    assert state.max_rel_diff(s0, prob.field_scales) < 1e-8


# ---------------------------------------------------------------------------
# elasticity stage
# ---------------------------------------------------------------------------

def test_elasticity_zero_load_at_reference(coarse_problem):
    prob = coarse_problem
    s0 = prob.initial_state()
    b = prob.elasticity_load(s0["theta"], s0["c_s"])
    assert np.abs(b).max() < 1e-12


def test_elasticity_load_scales_linearly(coarse_problem, mats_scaled):
    prob = coarse_problem
    s0 = prob.initial_state()
    th1 = s0["theta"] + 10.0
    th2 = s0["theta"] + 20.0
    b1 = prob.elasticity_load(th1, s0["c_s"])
    b2 = prob.elasticity_load(th2, s0["c_s"])
    assert np.allclose(b2, 2.0 * b1, rtol=1e-12,
                       atol=1e-12 * np.abs(b1).max())
    u1 = prob.stage2(0.0, {"theta": th1, "c_s": s0["c_s"],
                           "c_e": s0["c_e"]}, s0)["u"]
    u2 = prob.stage2(0.0, {"theta": th2, "c_s": s0["c_s"],
                           "c_e": s0["c_e"]}, s0)["u"]
    assert np.allclose(u2, 2.0 * u1, rtol=1e-8,
                       atol=1e-10 * np.abs(u1).max())


def test_constrained_thermal_expansion_hand_solution(mats):
    """Single square element, sides and bottom slipping, top free: uniform
    heating expands uniaxially with u_y = 3K/(lambda+2G) alpha dT y."""
    from voltacell import spaces as sps
    from voltacell.mesh import rectangle_mesh
    from voltacell.solve import solve_spd
    mesh = rectangle_mesh(1.0, 1.0, 1, 1, degree=2, tag=geo.CATHODE)
    space = sps.build_field_space(mesh, sps.OMEGA_S, arity=2, constraints=[
        sps.EssentialBC("cc_minus", 0), sps.EssentialBC("cc_plus", 0),
        sps.EssentialBC("bottom", 1)], name="u")
    el = mats.cathode
    shear, bulk = el.lame
    k_u = asm.assemble_elasticity(space, {geo.CATHODE: shear},
                                  {geo.CATHODE: bulk})
    d_theta = 40.0
    g_load = 3.0 * bulk * el.alpha * d_theta
    b = asm.assemble_div_load(space, g_load)
    a_red, b_red = asm.constrain(space, k_u, b)
    u = asm.expand(space, solve_spd(a_red, b_red))
    lam = bulk - 2.0 * shear / 3.0
    slope = 3.0 * bulk / (lam + 2.0 * shear) * el.alpha * d_theta
    xy = space.node_xy()
    assert np.allclose(u[0::2], 0.0, atol=1e-12)
    assert np.allclose(u[1::2], slope * xy[:, 1], rtol=1e-9, atol=1e-14)


# ---------------------------------------------------------------------------
# interface sample bookkeeping
# ---------------------------------------------------------------------------

def test_interface_sample_fields(coarse_problem):
    prob = coarse_problem
    s0 = prob.initial_state()
    ist = prob.interface_state_of(s0)
    assert set(ist.tags) == {geo.ANODE, geo.CATHODE}
    assert np.abs(ist.eta).max() < 1e-10
    assert np.abs(ist.i_bv).max() < 1e-8
    assert np.all(ist.coeff > 0.0)


def test_reversed_heat_terms_are_negated(coarse_mesh, mats_scaled,
                                              scales):
    """The heat-sign switch flips both the bulk source and the interface
    term, nothing else."""
    from voltacell import units
    probs = {c: conftest.make_problem(coarse_mesh, mats_scaled,
                                      heat_convention=c)
             for c in ("physical", "reversed")}
    state = probs["physical"].initial_state()
    state["phi_e"] = state["phi_e"] + 0.02   # force a nonzero eta and source
    for prob in probs.values():
        prob.set_load(scales.to_internal(20.0, units.CURRENT_DENSITY))
    q_phys = probs["physical"].heat_source_qp(state)
    q_lit = probs["reversed"].heat_source_qp(state)
    assert np.allclose(q_phys, -q_lit, atol=1e-30)
    ist = probs["physical"].interface_state_of(state)
    h_phys = probs["physical"].iface_loads(ist)["theta"]
    h_lit = probs["reversed"].iface_loads(ist)["theta"]
    assert np.allclose(h_phys, -h_lit, atol=1e-30)


def test_electrochemical_mode_freezes_theta_and_u(coarse_mesh, mats_scaled,
                                                  scales):
    from voltacell import units
    from voltacell.state import History
    from voltacell.stepping import TimeGrid, step
    prob = conftest.make_problem(coarse_mesh, mats_scaled,
                                 mode="electrochemical")
    prob.set_load(scales.to_internal(20.0, units.CURRENT_DENSITY))
    hist = History(prev=prob.initial_state())
    grid = TimeGrid(dt=0.1, n_steps=2)
    for n in (1, 2):
        state, _ = step(prob, hist, grid, n)
        hist.push(state)
    assert np.all(hist.prev["u"] == 0.0)
    assert np.allclose(hist.prev["theta"], mats_scaled.theta_ref, atol=1e-12)
    # concentrations still move (the electrochemistry stays live)
    assert not np.allclose(hist.prev["c_s"], prob.initial_state()["c_s"])


def test_electrochemical_mode_holds_no_thermal_factor(coarse_mesh,
                                                      mats_scaled):
    """The isothermal model never solves the heat equation, so stage 1 must
    not factorize (and hold) its matrix; the full model does."""
    from voltacell.state import SimState
    for mode, has_heat in (("electrochemical", False), ("full", True)):
        prob = conftest.make_problem(coarse_mesh, mats_scaled, mode=mode)
        s0 = prob.initial_state()
        d0 = {k: s0[k] for k in prob.D_FIELDS}
        mid = SimState(0.0, {**d0, **prob.stage2(0.0, d0, s0)})
        prob.stage1(s0, mid, 0.1)
        _, ops = prob._dt_ops
        assert ("th_factor" in ops) == has_heat
        assert "ce_factor" in ops


class _PassGuard(Guard):
    """Disabled bound guarding (the production guard makes I_c > 0 by
    construction, so the singularity below is only reachable without it)."""

    def clamp(self, values, lo, hi, context, labels=None):
        return values


def test_singular_phi_e_reported(mats):
    """A depleted electrolyte (c_e identically zero, no guarding) zeroes the
    exchange current, so the phi_e system loses its interface term and must
    be reported singular."""
    prob = toy_strip_problem(mats)
    prob.guard = _PassGuard(GuardPolicy.defaults(mats))
    s0 = prob.initial_state()
    dead_ce = np.zeros(prob.s_ce.ndof)
    with pytest.raises(ValueError, match="singular"):
        prob.potential_system(s0["theta"], s0["c_s"], dead_ce)
