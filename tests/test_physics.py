import numpy as np
import pytest

from voltacell import assemble as asm
from voltacell import geometry as geo
from voltacell import materials as mat
from voltacell import physics as phys
from voltacell import spaces as sps
from voltacell import stepping
from voltacell.mesh import Mesh
from voltacell.solve import DEFAULT_RTOL
from voltacell.state import Guard, SimState

import conftest


def toy_strip_problem(mats):
    """anode | electrolyte | cathode unit cells in a row (SI units)."""
    mesh = Mesh.from_grid(
        np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0]),
        np.array([1, 1, 1]), np.array([1]),
        np.array([[geo.ANODE, geo.ELYTE, geo.CATHODE]], dtype=np.int8),
        lambda side, c: {"left": "cc_minus", "right": "cc_plus",
                         "top": "top", "bottom": "bottom"}[side])
    return phys.CellProblem(mesh, mats)


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
        x, y = prob.spaces[name].node_xy().T
        state[name] = gx * x + gy * y
    state["c_e"] = c_e(*prob.s_ce.node_xy().T)
    return state


def _heat_source(prob, state):
    return prob.heat_source_qp(state, asm.eval_qp(prob.s_th, state["theta"]))


def test_current_density_solid(mats):
    """In each electrode the source is gamma |grad phi_s|^2 (the Ohmic heat
    -i.grad phi_s of i = -gamma grad phi_s)."""
    prob = toy_strip_problem(mats)
    state = _hand_set_state(prob, (1.0, -0.5), (0.0, 0.0),
                            lambda x, y: 2000.0 + 0.0 * x)
    q = _heat_source(prob, state)
    tag = prob.qp.tag
    assert q[tag == geo.ANODE] == pytest.approx(100.0 * 1.25, rel=1e-12)
    assert q[tag == geo.CATHODE] == pytest.approx(3.8 * 1.25, rel=1e-12)


def test_current_density_electrolyte_uniform_concentration(mats):
    """With uniform c_e the electrolyte source is kappa |grad phi_e|^2."""
    prob = toy_strip_problem(mats)
    gp = (0.5, -0.25)
    state = _hand_set_state(prob, (0.0, 0.0), gp,
                            lambda x, y: 2000.0 + 0.0 * x)
    q = _heat_source(prob, state)
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
    assert _heat_source(prob, state)[e] == pytest.approx(expected, rel=1e-12)


def test_ohmic_heat_conventions(mats):
    """The source is nonnegative in each conductor and vanishes without
    gradients."""
    prob = toy_strip_problem(mats)
    state = _hand_set_state(prob, (2.0, -1.0), (0.5, 0.2),
                            lambda x, y: 2000.0 + 0.0 * x)
    assert np.all(_heat_source(prob, state) > 0.0)
    rest = prob.initial_state()
    assert np.abs(_heat_source(prob, rest)).max() <= 1e-20


# ---------------------------------------------------------------------------
# toy-strip hand oracles
# ---------------------------------------------------------------------------

def test_stage1_concentration_system_hand_oracle(mats):
    """Single solid elements with constant diffusivity: the c_s system is the
    hand-assembled midpoint discretization M + dt/2 D K per element."""
    prob = toy_strip_problem(mats)
    s0 = prob.initial_state()
    dt = 25.0
    systems_prev = prob.prepare(s0.copy(), dt)
    new, _ = stepping.stage1(prob, systems_prev, s0.copy(), False)

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
    a, b = prob.potential_system(s0["theta"], s0["c_s"], s0["c_e"],
                                 asm.eval_qp(prob.s_th, s0["theta"]))

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


def test_kappa_d_load_vanishes_for_uniform_concentration(mats, monkeypatch):
    prob = toy_strip_problem(mats)
    prob.set_load(0.0)
    s0 = prob.initial_state()
    th_qp = asm.eval_qp(prob.s_th, s0["theta"])
    _, b = prob.potential_system(s0["theta"], s0["c_s"], s0["c_e"], th_qp)
    conftest.switch_off_kappa_d(monkeypatch)
    _, b_no_kd = prob.potential_system(s0["theta"], s0["c_s"], s0["c_e"],
                                       th_qp)
    assert np.allclose(b, b_no_kd, rtol=0.0,
                       atol=1e-12 * max(np.abs(b_no_kd).max(), 1e-30))


def test_stage2_solves_potential_pair_exactly(coarse_mesh, mats):
    """Under load, stage 2's phi_s and phi_e satisfy both linearized
    potential equations at once: each field's residual, with the other
    field's trace in its interface term, is at solver tolerance."""
    prob = conftest.make_problem(coarse_mesh, mats)
    prob.set_load(20.0)
    s0 = prob.initial_state()
    new = prob.stage2(0.0, {k: s0[k] for k in prob.D_FIELDS}, s0)
    ist = prob.interface_state(SimState(0.0, {**s0.fields, **new}))
    assert np.abs(ist.eta).max() > 1e-3        # the pair is really loaded
    wc = prob.iface_w * ist.coeff
    t_s, t_e = prob.iface_tr["phi_s"], prob.iface_tr["phi_e"]
    k_s = asm.ElementScatter(prob.s_ps).stiffness({
        geo.ANODE: mats.anode.conductivity,
        geo.CATHODE: mats.cathode.conductivity})
    k_e = asm.ElementScatter(prob.s_pe).stiffness(
        mats.electrolyte.conductivity)
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
def pattern_problem(request, coarse_mesh, mats, geom):
    """A cell problem on the coarse mesh (one degree group) and on a mesh
    with four degree groups, like the production mesh."""
    from voltacell.mesh import MeshSpec, generate_layered_mesh
    mesh = coarse_mesh if request.param == "coarse" else \
        generate_layered_mesh(geom, MeshSpec(
            nx_blocks=(1, 3, 2, 1), ny_blocks=(1, 2, 1), n_layers=1,
            degree=1, normal_degree=2))
    return conftest.make_problem(mesh, mats)


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
    dt = 6.0
    pattern = (prob.m_cs.indptr, prob.m_cs.indices)
    for state in _sweep_states(prob):
        th_qp = asm.eval_qp(prob.s_th, state["theta"])
        k = prob.cs_stiffness(state, th_qp)
        a = asm.midpoint_matrix(prob.m_cs, k, dt)
        k_ref = asm.ElementScatter(prob.s_cs).stiffness(
            prob.solid_diffusivity_qp(state, th_qp))
        assert _rel(k.toarray(), k_ref.toarray()) <= 1e-13
        assert _rel(a.toarray(),
                    (prob.m_cs + 0.5 * dt * k_ref).toarray()) <= 1e-13
        for mat_ in (k, a):
            assert mat_.indptr is pattern[0] and mat_.indices is pattern[1]


def test_potential_matrix_keeps_one_pattern(pattern_problem, mats):
    """The potential-pair matrix equals blockdiag(K_s, K_e) + D^T diag(w c) D
    formed densely, sweep after sweep, on one pattern."""
    prob = pattern_problem
    free = np.nonzero(prob.s_ps.free)[0]
    k_s = asm.ElementScatter(prob.s_ps).stiffness({
        geo.ANODE: mats.anode.conductivity,
        geo.CATHODE: mats.cathode.conductivity}).toarray()
    k_e = asm.ElementScatter(prob.s_pe).stiffness(
        mats.electrolyte.conductivity).toarray()
    k_pot = np.block([
        [k_s[np.ix_(free, free)], np.zeros((len(free), len(k_e)))],
        [np.zeros((len(k_e), len(free))), k_e]])
    d = prob.iface_jump.toarray()
    patterns = []
    for state in _sweep_states(prob):
        a, _ = prob.potential_system(state["theta"], state["c_s"],
                                     state["c_e"],
                                     asm.eval_qp(prob.s_th, state["theta"]))
        coeff = prob.interface_state(state).coeff
        dense = k_pot + d.T @ ((prob.iface_w * coeff)[:, None] * d)
        assert _rel(a.toarray(), dense) <= 1e-13
        patterns.append((a.indptr, a.indices))
    assert patterns[0][0] is patterns[1][0]
    assert patterns[0][1] is patterns[1][1]


# ---------------------------------------------------------------------------
# the flat quadrature-point layout
# ---------------------------------------------------------------------------

# The length [m] over which the smooth test functions of the layout tests vary
LENGTH_UNIT = 1e-4


def _layout_state(prob):
    """A state with every field varying in space (u small but nonzero)."""
    rng = np.random.default_rng(5)
    state = _sweep_states(prob)[1]
    state["u"] = 1e-8 * rng.standard_normal(prob.s_u.ndof)
    state["theta"] = state["theta"] + rng.uniform(0.0, 2.0,
                                                  prob.s_th.ndof)
    return state


def test_layout_constants_follow_the_point_tags(pattern_problem, mats):
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
        ref = mats.electrode(geo.TAG_NAMES[tag])
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


def _cell_oracles(space):
    """Per member cell of ``space``: its quadrature points in the flat
    layout, its field node indices, and its basis values and physical x, y
    derivatives at those points (each (nbf, nq)), built cell by cell from
    the oracle's Lagrange polynomials."""
    import oracles
    qp = space.qp
    for k, (g, rows, dofs) in enumerate(zip(
            space.master, space.member_rows, space.cell_node_dofs)):
        ref = g.ref
        nq = len(ref.qw)
        lx, ly = oracles.lagrange_polys(g.px), oracles.lagrange_polys(g.py)
        dlx, dly = [p.deriv() for p in lx], [p.deriv() for p in ly]
        xi, eta = ref.qp[:, 0], ref.qp[:, 1]
        for e, row in enumerate(rows):
            pts = qp.offsets[k] + row * nq + np.arange(nq)
            assert np.allclose(qp.x[pts], g.x0[row] + (xi + 1) * 0.5
                               * g.hx[row], rtol=1e-14, atol=1e-12)
            assert np.allclose(qp.y[pts], g.y0[row] + (eta + 1) * 0.5
                               * g.hy[row], rtol=1e-14, atol=1e-12)
            assert np.allclose(qp.weight[pts], 0.25 * g.hx[row] * g.hy[row]
                               * ref.qw, rtol=1e-14, atol=1e-16)
            phi = np.array([ly[b](eta) * lx[a](xi) for b in range(g.py + 1)
                            for a in range(g.px + 1)])
            dx = np.array([ly[b](eta) * dlx[a](xi) for b in range(g.py + 1)
                           for a in range(g.px + 1)]) * 2.0 / g.hx[row]
            dy = np.array([dly[b](eta) * lx[a](xi) for b in range(g.py + 1)
                           for a in range(g.px + 1)]) * 2.0 / g.hy[row]
            yield pts, dofs[e], phi, dx, dy


def _assert_close(got, ref, tol):
    assert np.allclose(got, ref, rtol=tol, atol=tol * np.abs(ref).max())


def test_layout_matches_per_element_evaluation(pattern_problem):
    """Flat eval_qp, eval_grad_qp, assemble_load, assemble_grad_load and
    integrate agree with a cell-by-cell evaluation through the oracle's
    Lagrange polynomials."""
    prob = pattern_problem
    qp, space = prob.qp, prob.s_cs
    vec = _layout_state(prob)["c_s"]
    vals = asm.eval_qp(space, vec)
    grads = asm.eval_grad_qp(space, vec)
    x, y = qp.x / LENGTH_UNIT, qp.y / LENGTH_UNIT
    f = np.cos(x) + y ** 2                      # a flat load density
    v = np.column_stack([np.sin(y), x * y])     # a flat vector field
    load = asm.assemble_load(space, f)
    grad_load = asm.assemble_grad_load(space, v)
    ref_vals = np.zeros(qp.n)
    ref_grads = np.zeros((qp.n, 2))
    ref_load = np.zeros(space.ndof)
    ref_grad_load = np.zeros(space.ndof)
    total = 0.0
    for pts, dofs, phi, dx, dy in _cell_oracles(space):
        w = qp.weight[pts]
        c = vec[dofs]
        ref_vals[pts] = c @ phi
        ref_grads[pts] = np.column_stack([c @ dx, c @ dy])
        np.add.at(ref_load, dofs, phi @ (w * f[pts]))
        np.add.at(ref_grad_load, dofs,
                  dx @ (w * v[pts, 0]) + dy @ (w * v[pts, 1]))
        total += (w * vals[pts]).sum()
    _assert_close(vals, ref_vals, 1e-12)
    _assert_close(grads, ref_grads, 1e-10)
    _assert_close(load, ref_load, 1e-12)
    _assert_close(grad_load, ref_grad_load, 1e-12)
    assert asm.integrate(space, vals) == pytest.approx(total, rel=1e-12,
                                                       abs=0.0)
    assert np.all(vals[prob.elyte_qp] == 0.0)


def test_vector_kernels_match_per_element_evaluation(pattern_problem):
    """Flat eval_strain_qp and assemble_div_load on the displacement space
    agree with a cell-by-cell evaluation: eps = (du_x/dx, du_y/dy,
    (du_x/dy + du_y/dx) / 2) and (div v_i, f) = (d w/dx, f) on the x DOF,
    (d w/dy, f) on the y DOF of each node."""
    prob = pattern_problem
    qp, space = prob.qp, prob.s_u
    u = _layout_state(prob)["u"]
    f = np.cos(qp.x / LENGTH_UNIT) + (qp.y / LENGTH_UNIT) ** 2
    strain = asm.eval_strain_qp(space, u)
    div_load = asm.assemble_div_load(space, f)
    ref_strain = np.zeros((qp.n, 3))
    ref_div_load = np.zeros(space.ndof)
    for pts, nodes, _, dx, dy in _cell_oracles(space):
        ux, uy = u[2 * nodes], u[2 * nodes + 1]
        ref_strain[pts] = np.column_stack([
            ux @ dx, uy @ dy, 0.5 * (ux @ dy + uy @ dx)])
        wf = qp.weight[pts] * f[pts]
        np.add.at(ref_div_load, 2 * nodes, dx @ wf)
        np.add.at(ref_div_load, 2 * nodes + 1, dy @ wf)
    _assert_close(strain, ref_strain, 1e-10)
    _assert_close(div_load, ref_div_load, 1e-12)
    assert np.all(strain[prob.elyte_qp] == 0.0)


def test_readouts_match_quadrature_averages(pattern_problem):
    """Each recorded summary, one dot product with a stored weight vector,
    is the quadrature integral of its field over its region, divided by the
    region's quadrature area for the means and by the integral of rho*C_v
    for the weighted temperature."""
    prob = pattern_problem
    qp, mats = prob.qp, prob.mats
    state = _layout_state(prob)
    state["phi_e"] = state["phi_e"] * (1.0 + 0.01 * np.sin(
        np.arange(prob.s_pe.ndof)))
    everywhere = (geo.ANODE, geo.CATHODE, geo.ELYTE)

    def integral(space, field, tags, weight=1.0):
        vals = asm.eval_qp(space, state[field]) * weight
        return asm.integrate(space, vals * np.isin(qp.tag, tags))

    def mean(space, field, tags):
        return integral(space, field, tags) \
            / asm.integrate(space, np.isin(qp.tag, tags).astype(float))

    rho_cv = sps.tag_values({geo.ANODE: mats.anode.rho_cv,
                             geo.CATHODE: mats.cathode.rho_cv,
                             geo.ELYTE: mats.electrolyte.rho_cv}, qp.tag)
    expected = {
        "phi_e_avg": mean(prob.s_pe, "phi_e", [geo.ELYTE]),
        "soc_anode": mean(prob.s_cs, "c_s", [geo.ANODE]) / mats.anode.c_max,
        "soc_cathode": mean(prob.s_cs, "c_s", [geo.CATHODE])
        / mats.cathode.c_max,
        "theta_avg": mean(prob.s_th, "theta", everywhere),
        "theta_weighted": integral(prob.s_th, "theta", everywhere, rho_cv)
        / asm.integrate(prob.s_th, rho_cv),
        "int_cs": integral(prob.s_cs, "c_s", [geo.ANODE, geo.CATHODE]),
        "int_ce": integral(prob.s_ce, "c_e", [geo.ELYTE]),
    }
    assert set(expected) == set(prob.readouts)
    for name, value in expected.items():
        assert prob.readout(state, name) == pytest.approx(value, rel=1e-13,
                                                          abs=0.0), \
            name


def test_layout_stress_laws_match_hooke_per_electrode(pattern_problem,
                                                      mats):
    """solid_pressure_qp and von_mises_qp equal Hooke's law with each
    electrode's own material at sampled solid points."""
    prob = pattern_problem
    state = _layout_state(prob)
    s = prob.solid_qp
    strain = asm.eval_strain_qp(prob.s_u, state["u"])
    theta = asm.eval_qp(prob.s_th, state["theta"])
    c_s = asm.eval_qp(prob.s_cs, state["c_s"])
    pi = prob.solid_pressure_qp(state["u"], theta, c_s[s])
    vm, vmax, _ = prob.von_mises_qp(state)
    assert vmax == vm.max() > 0.0
    assert np.all(vm[prob.elyte_qp] == 0.0)
    for j in range(0, len(s), 7):
        k, tag = s[j], prob.solid_tags[j]
        stress = mat.hooke_plane_strain(
            *strain[k], theta[k], c_s[k],
            mats.electrode(geo.TAG_NAMES[tag]), mats,
            prob.c_s_ref[tag])
        assert pi[j] == pytest.approx(mat.hydrostatic_pressure(stress),
                                      rel=1e-12, abs=1e-12 * np.abs(pi).max())
        assert vm[k] == pytest.approx(mat.von_mises(stress), rel=1e-12)


def test_nonpositive_solid_diffusivity_located_per_sweep(coarse_problem):
    prob = coarse_problem
    s0 = prob.initial_state()
    th_qp = asm.eval_qp(prob.s_th, s0["theta"])
    d_qp = prob.solid_diffusivity_qp(s0, th_qp)
    nq = len(prob.master[0].ref.qw)
    i = int(prob.s_cs.member_rows[0][5]) * nq + 2    # a point of group 0
    d_qp[i] = -1.0
    prob.solid_diffusivity_qp = lambda state, theta_qp: d_qp
    with pytest.raises(asm.AssemblyError) as err:
        prob.cs_stiffness(s0, th_qp)
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
        prob.potential_system(theta, s0["c_s"], s0["c_e"],
                              asm.eval_qp(prob.s_th, theta))


def test_one_trace_operator_per_support(coarse_problem):
    """The fields on one support share one interface trace operator and its
    transpose: c_s with phi_s, c_e with phi_e (their DOF maps agree)."""
    prob = coarse_problem
    for a, b in (("c_s", "phi_s"), ("c_e", "phi_e")):
        assert np.array_equal(prob.spaces[a].node_index,
                              prob.spaces[b].node_index)
        assert prob.iface_tr[a] is prob.iface_tr[b]
        assert prob.iface_tr_t[a] is prob.iface_tr_t[b]
    assert len({id(t) for t in prob.iface_tr.values()}) == 3


# ---------------------------------------------------------------------------
# interface loads and their balance
# ---------------------------------------------------------------------------

def test_interface_load_balance(coarse_mesh, mats):
    """Summing each interface load over the constant test function equals the
    corresponding multiple of the interface I_BV integral."""
    prob = conftest.make_problem(coarse_mesh, mats)
    s0 = prob.initial_state()
    rng = np.random.default_rng(8)
    state = s0.copy()
    phi_s = s0["phi_s"] + 0.01 * rng.normal(size=prob.s_ps.ndof)
    state["phi_s"] = asm.expand(prob.s_ps, phi_s[prob.s_ps.free])
    state["phi_e"] = s0["phi_e"] + 0.01 * rng.normal(size=prob.s_pe.ndof)
    ist = prob.interface_state(state)
    loads = prob.iface_loads(ist)
    total_ibv = ist.ibv_integral()
    faraday = mats.faraday
    t_plus = mats.electrolyte.t_plus
    # lithium fluxes per unit depth [mol/(m s)]
    assert loads["c_s"].sum() == pytest.approx(-total_ibv / faraday,
                                               rel=1e-12, abs=1.6e-19)
    assert loads["c_e"].sum() == pytest.approx(
        (1 - t_plus) * total_ibv / faraday, rel=1e-12, abs=1.6e-19)
    # eta * I_BV is pointwise nonnegative (odd sinh), hence the heat load too
    assert ist.eta_ibv_min() >= 0.0


def test_linearized_bv_matches_nonlinear_at_small_eta(coarse_mesh, mats):
    prob = conftest.make_problem(coarse_mesh, mats)
    s0 = prob.initial_state()
    for eta0 in (-0.005, -0.002, 0.002, 0.005):   # volts
        state = s0.copy()
        phi_s = s0["phi_s"] + eta0
        state["phi_s"] = asm.expand(prob.s_ps, phi_s[prob.s_ps.free])
        ist = prob.interface_state(state)
        for tag in (geo.ANODE, geo.CATHODE):
            sel = ist.tags == tag
            assert np.any(sel)
            linear = ist.coeff[sel] * ist.eta[sel]
            assert np.all(np.abs(linear - ist.i_bv[sel])
                          <= 0.01 * np.abs(ist.i_bv[sel]))


def test_stage1_uniform_state_is_stationary(coarse_problem):
    prob = coarse_problem
    prob.set_load(0.0)
    s0 = prob.prepare(prob.initial_state(), 6.0)
    new, iface = stepping.stage1(prob, s0, s0.copy(), False)
    for name in ("theta", "c_s", "c_e"):
        scale = np.abs(s0[name]).max()
        assert np.abs(new[name] - s0[name]).max() < 1e-9 * scale
    assert iface.ibv_integral() == pytest.approx(0.0, abs=1.6e-16)   # A/m


def test_stage1_heat_start_is_two_backward_euler_half_steps(coarse_problem):
    """The start-up step keeps c_s, c_e on the midpoint rule and takes the
    heat equation as two backward-Euler half-steps with the midpoint
    source b: with h = dt/2 and A = M + h K, the increments solve
    A d1 = h (b - K theta_0) and A d2 = h (b - K (theta_0 + d1))."""
    import scipy.sparse.linalg as spla
    prob = coarse_problem
    prob.set_load(20.0)
    dt = 6.0
    s0 = mid = prob.prepare(prob.initial_state(), dt)   # the loaded start
    plain, _ = stepping.stage1(prob, s0, mid, False)
    start, _ = stepping.stage1(prob, s0, mid, True)
    for name in ("c_s", "c_e"):
        assert np.array_equal(start[name], plain[name])
    assert not np.array_equal(start["theta"], plain["theta"])

    m, k = prob.m_th, prob.k_th
    b = (asm.assemble_load(prob.s_th, prob.heat_source_qp(
        mid, asm.eval_qp(prob.s_th, mid["theta"])))
         + prob.iface_loads(prob.interface_state(mid))["theta"])
    h = 0.5 * dt
    a = (m + h * k).tocsc()
    d1 = spla.spsolve(a, h * (b - k @ s0["theta"]))
    d2 = spla.spsolve(a, h * (b - k @ (s0["theta"] + d1)))
    delta = start["theta"] - s0["theta"]
    assert np.abs(delta - (d1 + d2)).max() < 1e-6 * np.abs(delta).max()


def test_prepare_under_load_resolves_the_quasi_static_fields(coarse_mesh,
                                                             mats):
    """Under a load the start of the steps keeps state0's dynamic fields and
    takes the quasi-static fields that stage 2 solves against them, bit for
    bit; ``prepare`` leaves every solver with exactly one factor (c_s, c_e and
    theta its own, the potential pair that of the re-solve, u the problem's)
    and holds the midpoint matrices of its dt."""
    prob, ref = (conftest.make_problem(coarse_mesh, mats) for _ in range(2))
    for p in (prob, ref):
        p.set_load(20.0)
    s0 = prob.initial_state()
    d0 = {k: s0[k] for k in prob.D_FIELDS}
    quasi_static = ref.stage2(0.0, d0, s0)

    start = prob.prepare(s0, 6.0)
    assert start.t == 0.0
    assert set(start.fields) == set(s0.fields)
    for name in prob.D_FIELDS:
        assert np.array_equal(start[name], s0[name]), name
    for name in prob.S_FIELDS:
        assert np.array_equal(start[name], quasi_static[name]), name
    for name in ("phi_s", "phi_e"):        # the load moved the potentials
        assert not np.array_equal(start[name], s0[name]), name
    assert {k: s.refactorizations for k, s in prob.solvers.items()} \
        == dict.fromkeys(prob.solvers, 1)
    assert prob.dt == 6.0 and set(prob.mid_ops) == {"c_e", "theta"}


def test_prepare_at_zero_load_starts_from_state0(coarse_problem):
    """At zero load ``prepare`` returns state0 itself and factorizes the
    c_s, c_e and theta matrices once each (the potential pair is never
    solved, u was factorized with the problem)."""
    prob = coarse_problem
    s0 = prob.initial_state()
    assert prob.prepare(s0, 6.0) is s0
    assert {k: s.refactorizations for k, s in prob.solvers.items()} == {
        "c_s": 1, "c_e": 1, "theta": 1, "u": 1, "potential pair": 0}


def test_equilibrium_fixed_point_full_step(coarse_problem):
    from voltacell.driver import march
    from voltacell.stepping import TimeGrid
    prob = coarse_problem
    prob.set_load(0.0)
    s0 = prob.initial_state()
    [(state, rep)] = march(prob, s0, TimeGrid(dt=6.0, n_steps=1))
    assert max(state.rel_diffs(s0, prob.field_scales).values()) < 1e-8


# ---------------------------------------------------------------------------
# elasticity stage
# ---------------------------------------------------------------------------

def test_elasticity_zero_load_at_reference(coarse_problem):
    prob = coarse_problem
    s0 = prob.initial_state()
    b = prob.elasticity_load(asm.eval_qp(prob.s_th, s0["theta"]), s0["c_s"])
    assert np.abs(b).max() < 1e-10     # N/m


def test_elasticity_load_scales_linearly(coarse_problem):
    prob = coarse_problem
    s0 = prob.initial_state()
    th1 = s0["theta"] + 10.0
    th2 = s0["theta"] + 20.0
    b1 = prob.elasticity_load(asm.eval_qp(prob.s_th, th1), s0["c_s"])
    b2 = prob.elasticity_load(asm.eval_qp(prob.s_th, th2), s0["c_s"])
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
    from voltacell.solve import Solver
    mesh = rectangle_mesh(1.0, 1.0, 1, 1, degree=2, tag=geo.CATHODE)
    space = sps.build_field_space(mesh, sps.OMEGA_S, arity=2, constraints=[
        sps.EssentialBC("cc_minus", 0), sps.EssentialBC("cc_plus", 0),
        sps.EssentialBC("bottom", 1)], name="u")
    el = mats.cathode
    shear, bulk = el.lame
    k_el = asm.ElementScatter(space).elasticity({geo.CATHODE: shear},
                                                {geo.CATHODE: bulk})
    d_theta = 40.0
    g_load = 3.0 * bulk * el.alpha * d_theta
    b = asm.assemble_div_load(space, g_load)
    u = asm.expand(space, Solver().solve(asm.constrain(space, k_el),
                                         b[space.free]))
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
    ist = prob.interface_state(s0)
    assert set(ist.tags) == {geo.ANODE, geo.CATHODE}
    assert np.abs(ist.eta).max() < 1e-10
    assert np.abs(ist.i_bv).max() < 1.6e-8     # A/m^2
    assert np.all(ist.coeff > 0.0)


def test_electrochemical_mode_freezes_theta_and_u(coarse_mesh, mats):
    from voltacell.driver import march
    from voltacell.stepping import TimeGrid
    prob = conftest.make_problem(coarse_mesh, mats, mode="electrochemical")
    prob.set_load(20.0)
    *_, (state, _) = march(prob, prob.initial_state(),
                           TimeGrid(dt=6.0, n_steps=2))
    assert np.all(state["u"] == 0.0)
    assert np.allclose(state["theta"], mats.theta_ref, atol=1e-12)
    # concentrations still move (the electrochemistry stays live)
    assert not np.allclose(state["c_s"], prob.initial_state()["c_s"])


def test_electrochemical_mode_holds_no_thermal_factor(coarse_mesh, mats):
    """The isothermal model never solves the heat equation, so ``prepare``
    must not build or factorize (and hold) its matrix; the full model does.
    Likewise the strain-free model never solves u and holds no elasticity
    factor."""
    for mode, full in (("electrochemical", False), ("full", True)):
        prob = conftest.make_problem(coarse_mesh, mats, mode=mode)
        prob.prepare(prob.initial_state(), 6.0)
        assert ("theta" in prob.mid_ops) == full
        assert "c_e" in prob.mid_ops
        assert ("u" in prob.solvers) == full
        if full:
            assert prob.solvers["theta"].refactorizations == 1
            assert prob.solvers["u"].refactorizations == 1


@pytest.mark.parametrize("mode", ["full", "electrochemical"])
def test_one_solver_per_system(coarse_mesh, mats, monkeypatch, mode):
    """The full model solves five systems and the electrochemical model
    three, each with one solver, and a solve that fails names its system:
    with a tolerance no solve can meet on one solver at a time, a loaded run
    fails with a SolveError naming that solver (the potential pair and u
    already in the loaded start, the others in step 1)."""
    from voltacell import solve
    from voltacell.driver import march
    from voltacell.solve import SolveError
    from voltacell.stepping import TimeGrid
    names = sorted(conftest.make_problem(coarse_mesh, mats,
                                         mode=mode).solvers)
    five = ["c_e", "c_s", "potential pair", "theta", "u"]
    assert names == (five if mode == "full" else five[:3])
    monkeypatch.setattr(solve, "APPLY_NOISE", 0.0)
    for name in names:
        prob = conftest.make_problem(coarse_mesh, mats, mode=mode)
        prob.set_load(20.0)

        def strict(mat, rhs, solve_=prob.solvers[name].solve):
            with monkeypatch.context() as patch:
                patch.setattr(solve, "DEFAULT_RTOL", 1e-30)
                return solve_(mat, rhs)

        prob.solvers[name].solve = strict
        with pytest.raises(SolveError) as err:
            next(march(prob, prob.initial_state(),
                       TimeGrid(dt=6.0, n_steps=1)))
        assert str(err.value).startswith(f"{name}: ")


class _PassGuard(Guard):
    """Disabled bound guarding (the production guard makes I_c > 0 by
    construction, so the singularity below is only reachable without it)."""

    def check(self, values, lo, hi, context, labels=None):
        return values


def test_singular_phi_e_reported(mats):
    """A depleted electrolyte (c_e identically zero, no guarding) zeroes the
    exchange current, so the phi_e system loses its interface term and must
    be reported singular."""
    prob = toy_strip_problem(mats)
    prob.guard = _PassGuard.defaults(mats)
    s0 = prob.initial_state()
    dead_ce = np.zeros(prob.s_ce.ndof)
    with pytest.raises(ValueError, match="singular"):
        prob.potential_system(s0["theta"], s0["c_s"], dead_ce,
                              asm.eval_qp(prob.s_th, s0["theta"]))
