import numpy as np
import pytest
import scipy.sparse as sp

from voltacell import geometry as geo
from voltacell import state as vstate
from voltacell import stepping
from voltacell.state import Guard, GuardPolicy, History, SimState
from voltacell.stepping import LinearSurrogate, TimeGrid, integrate_linear, \
    predict, step

import conftest


# ---------------------------------------------------------------------------
# grid and history plumbing
# ---------------------------------------------------------------------------

def test_time_grid_validation():
    grid = TimeGrid.from_duration(60.0, 6.0)
    assert grid.n_steps == 10 and grid.t_end == pytest.approx(60.0)
    with pytest.raises(ValueError):
        TimeGrid.from_duration(10.0, 3.0)
    with pytest.raises(ValueError):
        TimeGrid(dt=-1.0, n_steps=5)
    with pytest.raises(ValueError):
        TimeGrid(dt=1.0, n_steps=0)


def test_history_two_levels():
    s = lambda t: SimState(t, {"d": np.array([t])})
    h = History(prev=s(0.0))
    assert h.depth == 1
    h.push(s(1.0))
    h.push(s(2.0))
    assert h.depth == 2
    assert h.prev.t == 2.0 and h.prev2.t == 1.0   # older levels dropped


# ---------------------------------------------------------------------------
# predictors
# ---------------------------------------------------------------------------

def _scalar_surrogate(lam=1.0, load=0.0, d0=1.0):
    eye = sp.eye(1, format="csr")
    return LinearSurrogate(eye, lam * eye, np.array([load]),
                           np.array([d0]))


def test_predictor_constant_history():
    sur = _scalar_surrogate()
    a = SimState(1.0, {"d": np.array([3.0])})
    b = SimState(2.0, {"d": np.array([3.0])})
    hist = History(prev=b, prev2=a)
    pred = predict(sur, hist, dt=1.0)
    assert np.allclose(pred["d"], 3.0)


def test_predictor_linear_history_exact():
    sur = _scalar_surrogate()
    line = lambda t: SimState(t, {"d": np.array([2.0 + 5.0 * t])})
    hist = History(prev=line(2.0), prev2=line(1.0))
    pred = predict(sur, hist, dt=1.0)
    assert pred["d"][0] == pytest.approx(2.0 + 5.0 * 3.0, rel=1e-14)


def test_predictor_first_step_euler():
    sur = _scalar_surrogate(lam=0.5, load=0.2, d0=2.0)
    hist = History(prev=sur.initial_state())
    pred = predict(sur, hist, dt=0.1)
    # d0 + dt * (b - K d0) with M = I
    assert pred["d"][0] == pytest.approx(2.0 + 0.1 * (0.2 - 0.5 * 2.0),
                                         rel=1e-14)


def test_predictor_zero_rate_at_equilibrium():
    sur = _scalar_surrogate(lam=1.0, load=1.0, d0=1.0)   # K d = b exactly
    hist = History(prev=sur.initial_state())
    pred = predict(sur, hist, dt=0.7)
    assert pred["d"][0] == pytest.approx(1.0, rel=1e-14)


# ---------------------------------------------------------------------------
# guard
# ---------------------------------------------------------------------------

def test_guard_in_bounds_untouched():
    g = Guard(GuardPolicy(eps_e=2.0, eps_s=2.286))
    vals = np.array([100.0, 2000.0])
    out = g.c_e(vals)
    assert np.array_equal(out, vals)
    assert g.log.events == 0


def test_guard_clamps_and_logs():
    g = Guard(GuardPolicy(eps_e=2.0, eps_s=2.286))
    out = g.c_e(np.array([-1.0, 1500.0]))
    assert out[0] == pytest.approx(2.0)
    assert out[1] == 1500.0
    assert g.log.events == 1
    assert g.log.max_violation == pytest.approx(3.0)


def test_guard_saturation_keeps_exchange_current_positive():
    from voltacell import materials as mat
    from voltacell import physics as phys
    mats = mat.default_materials()
    g = Guard(GuardPolicy(eps_e=2.0, eps_s=2.286))
    c = g.c_s(np.array([mats.anode.c_max]), mats.anode.c_max)
    assert c[0] == pytest.approx(mats.anode.c_max - 2.286)
    i_c = phys.exchange_current(c, 2000.0, mats.anode, mats)
    assert i_c[0] > 0.0


def test_guard_labels_count_per_context():
    """One clamp over points of two electrodes, with a bound per point,
    counts its events under each point's own context name."""
    g = Guard(GuardPolicy(eps_e=2.0, eps_s=1.0))
    names = ("c_s (sa)", "c_s (sc)")
    labels = np.array([0, 1, 1, 0, 1])
    c_max = np.array([10.0, 20.0, 20.0, 10.0, 20.0])
    out = g.c_s(np.array([9.5, 19.5, 25.0, -3.0, 0.5]), c_max, names, labels)
    assert np.array_equal(out, [9.0, 19.0, 19.0, 1.0, 1.0])
    assert g.log.contexts == {"c_s (sa)": 2, "c_s (sc)": 3}
    assert g.log.events == 5
    assert g.log.max_violation == pytest.approx(6.0)
    abort = Guard(GuardPolicy(eps_e=2.0, eps_s=1.0, action="abort"))
    with pytest.raises(vstate.GuardViolation,
                       match=r"c_s \(sc\): 1 value\(s\) out of \[1, 19\]"):
        abort.c_s(np.array([5.0, 25.0]), np.array([10.0, 20.0]), names,
                  np.array([0, 1]))


def test_guard_abort_action():
    g = Guard(GuardPolicy(eps_e=2.0, eps_s=2.0, action="abort"))
    with pytest.raises(vstate.GuardViolation):
        g.c_e(np.array([-1.0]))


def test_guard_policy_validation():
    with pytest.raises(ValueError):
        GuardPolicy(eps_e=0.0, eps_s=1.0)
    with pytest.raises(ValueError):
        GuardPolicy(eps_e=1.0, eps_s=1.0, action="explode")


# ---------------------------------------------------------------------------
# scheme order on the linear surrogate
# ---------------------------------------------------------------------------

def test_scalar_surrogate_halving_error_ratio():
    """d' = -d from d0=1: halving dt divides the error by ~4 (order 2)."""
    exact = np.exp(-1.0)
    errs = []
    for dt in (0.5, 0.25):
        sur = _scalar_surrogate(lam=1.0, load=0.0, d0=1.0)
        final = integrate_linear(sur, TimeGrid.from_duration(1.0, dt))
        errs.append(abs(final["d"][0] - exact))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


def test_temporal_order_study():
    from voltacell.verification import temporal_order_study
    study = temporal_order_study()
    assert 1.9 <= study.observed_order <= 2.1
    assert study.runtime_s < 10.0


def test_extra_sweeps_are_idempotent_on_linear_problem():
    sur = _scalar_surrogate(lam=0.8, load=0.3, d0=2.0)
    g = TimeGrid.from_duration(2.0, 0.5)
    a = integrate_linear(sur, g, extra_iters=0)
    sur2 = _scalar_surrogate(lam=0.8, load=0.3, d0=2.0)
    b = integrate_linear(sur2, g, extra_iters=4)
    assert np.allclose(a["d"], b["d"], rtol=1e-14)


def test_heat_start_only_on_step_one():
    """The stepper asks for the heat start-up in every sweep of step 1, the
    step from t = 0, and in no other step."""
    class Recording(LinearSurrogate):
        def stage1(self, prev, mid, dt, heat_start=False):
            self.calls.append((prev.t, heat_start))
            return super().stage1(prev, mid, dt, heat_start=heat_start)

    sur = Recording(sp.eye(1, format="csr"), sp.eye(1, format="csr"),
                    np.array([0.0]), np.array([1.0]))
    sur.calls = []
    grid = TimeGrid(dt=0.5, n_steps=3)
    hist = History(prev=sur.initial_state())
    for n in range(1, 4):
        state, _ = step(sur, hist, grid, n, extra_iters=1, fp_tol=0.0)
        hist.push(state)
    starts = [t for t, flag in sur.calls if flag]
    assert starts == [0.0, 0.0]
    assert len(sur.calls) == 6


# ---------------------------------------------------------------------------
# coupled problem stepping
# ---------------------------------------------------------------------------

def test_equilibrium_preserved_over_steps(coarse_mesh, mats_scaled):
    prob = conftest.make_problem(coarse_mesh, mats_scaled)
    prob.set_load(0.0)
    s0 = prob.initial_state()
    grid = TimeGrid(dt=0.1, n_steps=10)
    hist = History(prev=s0)
    for n in range(1, 11):
        state, _ = step(prob, hist, grid, n)
        hist.push(state)
    assert hist.prev.max_rel_diff(s0, prob.field_scales) < 1e-7


def test_discharge_step_sign_audit(coarse_mesh, mats_scaled, scales):
    """Positive applied current drains the anode: I_BV > 0 on its interface."""
    from voltacell import units
    prob = conftest.make_problem(coarse_mesh, mats_scaled)
    prob.set_load(scales.to_internal(20.0, units.CURRENT_DENSITY))
    s0 = prob.initial_state()
    grid = TimeGrid(dt=0.1, n_steps=1)
    state, rep = step(prob, History(prev=s0), grid, 1)
    ist = prob.interface_state_of(state)
    anode = ist.tags == geo.ANODE
    assert np.all(ist.i_bv[anode] > 0.0)
    assert np.all(ist.i_bv[~anode] < 0.0)
    assert rep.eta_ibv_min >= 0.0


def test_fixed_point_contraction_on_load_step(coarse_mesh, mats_scaled,
                                              scales):
    from voltacell import units
    prob = conftest.make_problem(coarse_mesh, mats_scaled)
    prob.set_load(scales.to_internal(20.0, units.CURRENT_DENSITY))
    s0 = prob.initial_state()
    grid = TimeGrid(dt=0.1, n_steps=2)
    hist = History(prev=s0)
    for n in (1, 2):
        state, rep = step(prob, hist, grid, n, extra_iters=4)
        hist.push(state)
        ups = rep.update_history
        assert all(b <= a * 1.001 + 1e-12 for a, b in zip(ups, ups[1:])), ups


def test_mass_bookkeeping_over_discharge(coarse_mesh, mats_scaled, scales):
    """Per step, the change of total lithium balances the interface current."""
    from voltacell import units
    prob = conftest.make_problem(coarse_mesh, mats_scaled)
    prob.set_load(scales.to_internal(20.0, units.CURRENT_DENSITY))
    s0 = prob.initial_state()
    dt = 0.1
    grid = TimeGrid(dt=dt, n_steps=5)
    hist = History(prev=s0)
    ones_s = np.ones(prob.s_cs.ndof)
    ones_e = np.ones(prob.s_ce.ndof)
    faraday = mats_scaled.faraday
    t_plus = mats_scaled.electrolyte.t_plus
    for n in range(1, 6):
        int_cs_prev = float(ones_s @ (prob.m_cs @ hist.prev["c_s"]))
        int_ce_prev = float(ones_e @ (prob.m_ce @ hist.prev["c_e"]))
        state, rep = step(prob, hist, grid, n)
        hist.push(state)
        d_cs = float(ones_s @ (prob.m_cs @ state["c_s"])) - int_cs_prev
        d_ce = float(ones_e @ (prob.m_ce @ state["c_e"])) - int_ce_prev
        flux_s = -dt / faraday * rep.ibv_integral
        flux_e = dt * (1 - t_plus) / faraday * rep.ibv_integral
        assert d_cs == pytest.approx(flux_s, rel=1e-8)
        assert d_ce == pytest.approx(flux_e, rel=1e-8)


def test_coupled_functional_temporal_order():
    """Smooth summaries of the coupled run converge at second order in dt
    (with the driver's consistent quasi-static initialization)."""
    import numpy as np
    from voltacell.config import preset
    from voltacell.driver import run_scenario
    from voltacell.mesh import MeshSpec

    def functionals(dt):
        cfg = preset("high_discharge").replace(
            mesh=MeshSpec.coarse(), dt=dt, t_end=30.0, snapshot_every=30.0,
            extra_fp_iters=8, fp_tol=1e-13)
        last = run_scenario(cfg).records[-1]
        return np.array([last.soc_anode, last.soc_cathode, last.temp_k])

    ref = functionals(30.0 / 64)
    errs = [np.abs(functionals(dt) - ref).max() for dt in (15.0, 7.5, 3.75)]
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert all(r > 1.7 for r in orders), (errs, orders)
