import numpy as np
import pytest
import scipy.sparse as sp

from voltacell import geometry as geo
from voltacell import state as vstate
from voltacell import stepping
from voltacell.driver import march
from voltacell.state import Guard, History, SimState
from voltacell.stepping import LinearSurrogate, TimeGrid, predict

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
    g = Guard(eps_e=2.0, eps_s=2.286)
    vals = np.array([2.0, 100.0, 2000.0])
    assert g.c_e(vals) is vals
    cs = np.array([2.286, 500.0, 24997.714])
    assert g.c_s(cs, 25000.0) is cs


def test_guard_out_of_bounds_raises():
    """A value below the floor raises, naming the context, the count, the
    bounds and the worst excess; so does a NaN."""
    g = Guard(eps_e=2.0, eps_s=2.286)
    with pytest.raises(vstate.GuardViolation,
                       match=r"^c_e trace: 2 value\(s\) out of \[2, inf\], "
                             r"worst excess 3\.000e\+00$"):
        g.c_e(np.array([-1.0, 1500.0, 0.5]), "c_e trace")
    with pytest.raises(vstate.GuardViolation, match=r"c_s: 1 value\(s\) "
                       r"out of \[2\.286, 24997\.7\], worst excess 2\.286e\+00"):
        g.c_s(np.array([500.0, 25000.0]), 25000.0)
    with pytest.raises(vstate.GuardViolation, match="c_e: 1 value"):
        g.c_e(np.array([np.nan, 100.0]))


def test_guard_labels_count_per_context():
    """With a bound and a label per point, the message names the offending
    label's context and counts only its values."""
    g = Guard(eps_e=2.0, eps_s=1.0)
    names = ("c_s (sa)", "c_s (sc)")
    c_max = np.array([10.0, 20.0, 20.0, 10.0])
    labels = np.array([0, 1, 1, 0])
    with pytest.raises(vstate.GuardViolation,
                       match=r"^c_s \(sc\): 2 value\(s\) out of \[1, 19\], "
                             r"worst excess 6\.000e\+00$"):
        g.c_s(np.array([5.0, 25.0, 0.5, 9.0]), c_max, names, labels)
    ok = np.array([9.0, 19.0, 1.0, 1.0])
    assert g.c_s(ok, c_max, names, labels) is ok


def test_guard_validation():
    with pytest.raises(ValueError):
        Guard(eps_e=0.0, eps_s=1.0)
    with pytest.raises(ValueError):
        Guard(eps_e=1.0, eps_s=-1.0)
    with pytest.raises(ValueError):
        Guard(eps_e=float("nan"), eps_s=1.0)


# ---------------------------------------------------------------------------
# scheme order on the linear surrogate
# ---------------------------------------------------------------------------

def test_scalar_surrogate_halving_error_ratio():
    """d' = -d from d0=1: halving dt divides the error by ~4 (order 2)."""
    exact = np.exp(-1.0)
    errs = []
    for dt in (0.5, 0.25):
        sur = _scalar_surrogate(lam=1.0, load=0.0, d0=1.0)
        *_, (final, _) = march(sur, sur.initial_state(),
                               TimeGrid.from_duration(1.0, dt))
        errs.append(abs(final["d"][0] - exact))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


def test_temporal_order_study():
    from voltacell.verification import temporal_order_study
    study = temporal_order_study()
    assert 1.9 <= study.observed_order <= 2.1
    assert study.runtime_s < 10.0


def test_extra_sweeps_are_idempotent_on_linear_problem():
    """On the linear surrogate the second sweep repeats the first exactly,
    so every step stops after 2 sweeps with a second update of 0."""
    sur = _scalar_surrogate(lam=0.8, load=0.3, d0=2.0)
    grid = TimeGrid.from_duration(2.0, 0.5)
    for _, rep in march(sur, sur.initial_state(), grid):
        assert rep.sweeps == 2
        assert rep.update_history[0] > 0.0
        assert rep.update_history[1] == 0.0


def test_heat_start_only_on_step_one(monkeypatch):
    """The stepper asks for the heat start-up in every sweep of step 1, the
    step from t = 0, and in no other step."""
    calls = []
    real_stage1 = stepping.stage1

    def stage1(backend, prev, mid, heat_start):
        calls.append((prev.t, heat_start))
        return real_stage1(backend, prev, mid, heat_start)

    monkeypatch.setattr(stepping, "stage1", stage1)
    sur = LinearSurrogate(sp.eye(1, format="csr"), sp.eye(1, format="csr"),
                          np.array([0.0]), np.array([1.0]))
    list(march(sur, sur.initial_state(), TimeGrid(dt=0.5, n_steps=3)))
    starts = [t for t, flag in calls if flag]
    assert starts == [0.0, 0.0]
    assert len(calls) == 6


def test_one_stage1_steps_the_surrogate_and_the_cell(coarse_mesh, mats,
                                                     monkeypatch):
    """The temporal order study and a loaded coupled step both advance
    their parabolic fields through ``stepping.stage1``."""
    backends = []
    real_stage1 = stepping.stage1

    def stage1(backend, prev, mid, heat_start):
        backends.append(type(backend).__name__)
        return real_stage1(backend, prev, mid, heat_start)

    monkeypatch.setattr(stepping, "stage1", stage1)
    from voltacell.verification import temporal_order_study
    temporal_order_study()
    assert backends and set(backends) == {"LinearSurrogate"}
    prob = conftest.make_problem(coarse_mesh, mats)
    prob.set_load(20.0)
    [(_, rep)] = march(prob, prob.initial_state(),
                       TimeGrid(dt=6.0, n_steps=1))
    assert backends.count("CellProblem") == rep.sweeps > 1


# ---------------------------------------------------------------------------
# coupled problem stepping
# ---------------------------------------------------------------------------

def test_discharge_step_sign_audit(coarse_mesh, mats):
    """Positive applied current drains the anode: I_BV > 0 on its interface."""
    prob = conftest.make_problem(coarse_mesh, mats)
    prob.set_load(20.0)
    [(state, rep)] = march(prob, prob.initial_state(),
                           TimeGrid(dt=6.0, n_steps=1))
    ist = prob.interface_state(state)
    anode = ist.tags == geo.ANODE
    assert np.all(ist.i_bv[anode] > 0.0)
    assert np.all(ist.i_bv[~anode] < 0.0)
    assert rep.eta_ibv_min >= 0.0


def test_fixed_point_contraction_on_load_step(coarse_mesh, mats):
    prob = conftest.make_problem(coarse_mesh, mats)
    prob.set_load(20.0)
    for _, rep in march(prob, prob.initial_state(),
                        TimeGrid(dt=6.0, n_steps=2)):
        ups = rep.update_history
        assert all(b <= a * 1.001 + 1e-12 for a, b in zip(ups, ups[1:])), ups


def test_step_reports_the_interface_of_its_accepted_sweep(coarse_mesh, mats,
                                                         monkeypatch):
    """A step's interface diagnostics are those of the InterfaceState that
    stage 1 returned in its last sweep."""
    prob = conftest.make_problem(coarse_mesh, mats)
    prob.set_load(20.0)
    returned = []
    real_stage1 = stepping.stage1

    def stage1(*args):
        out = real_stage1(*args)
        returned.append(out[1])
        return out

    monkeypatch.setattr(stepping, "stage1", stage1)
    [(_, rep)] = march(prob, prob.initial_state(),
                       TimeGrid(dt=6.0, n_steps=1))
    assert len(returned) == rep.sweeps > 1
    iface = returned[-1]
    assert rep.ibv_integral == iface.ibv_integral() \
        == float(prob.iface_w @ iface.i_bv)
    assert rep.eta_ibv_min == iface.eta_ibv_min()
    assert rep.eta_max == iface.eta_max_abs() > 0.0


def test_mass_bookkeeping_over_discharge(coarse_mesh, mats):
    """Per step, the change of total lithium balances the interface current."""
    prob = conftest.make_problem(coarse_mesh, mats)
    prob.set_load(20.0)
    prev = prob.initial_state()
    dt = 6.0
    ones_s = np.ones(prob.s_cs.ndof)
    ones_e = np.ones(prob.s_ce.ndof)
    faraday = mats.faraday
    t_plus = mats.electrolyte.t_plus
    for state, rep in march(prob, prev, TimeGrid(dt=dt, n_steps=5)):
        int_cs_prev = float(ones_s @ (prob.m_cs @ prev["c_s"]))
        int_ce_prev = float(ones_e @ (prob.m_ce @ prev["c_e"]))
        prev = state
        d_cs = float(ones_s @ (prob.m_cs @ state["c_s"])) - int_cs_prev
        d_ce = float(ones_e @ (prob.m_ce @ state["c_e"])) - int_ce_prev
        flux_s = -dt / faraday * rep.ibv_integral
        flux_e = dt * (1 - t_plus) / faraday * rep.ibv_integral
        # lithium per unit depth [mol/m]
        assert d_cs == pytest.approx(flux_s, rel=1e-8, abs=1e-17)
        assert d_ce == pytest.approx(flux_e, rel=1e-8, abs=1e-17)


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
            fp_tol=1e-10)
        last = run_scenario(cfg).records[-1]
        return np.array([last.soc_anode, last.soc_cathode, last.temp_k])

    ref = functionals(30.0 / 64)
    errs = [np.abs(functionals(dt) - ref).max() for dt in (15.0, 7.5, 3.75)]
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert all(r > 1.7 for r in orders), (errs, orders)
