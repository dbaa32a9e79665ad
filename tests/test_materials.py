import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voltacell import materials as mat


@pytest.fixture(scope="module")
def mats():
    return mat.default_materials()


# ---------------------------------------------------------------------------
# diffusional conductivity
# ---------------------------------------------------------------------------

def test_kappa_d_reference_value(mats):
    # independent evaluation of -(2 R theta kappa_e / F)(1 - t_plus)
    expected = -(2.0 * 8.314462618 * 298.15 * 0.2 / 96485.33212) * (1 - 0.363)
    got = mat.diffusional_conductivity(298.15, mats)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(-6.546e-3, abs=1e-6)
    assert got < 0.0


def test_kappa_d_limits(mats):
    import dataclasses
    e1 = dataclasses.replace(mats.electrolyte, t_plus=1.0 - 1e-15)
    m1 = dataclasses.replace(mats, electrolyte=e1)
    assert mat.diffusional_conductivity(298.15, m1) == pytest.approx(0.0, abs=1e-16)
    assert mat.diffusional_conductivity(2 * 298.15, mats) \
        == pytest.approx(2 * mat.diffusional_conductivity(298.15, mats), rel=1e-14)


# ---------------------------------------------------------------------------
# open-circuit potentials
# ---------------------------------------------------------------------------

def test_ocp_anode_values():
    assert mat.ocp_anode(0.5) == pytest.approx(
        -0.16 + 1.32 * np.exp(-1.5) + 10 * np.exp(-1000.0), rel=1e-14)
    assert mat.ocp_anode(0.5) == pytest.approx(0.13453, abs=1e-5)
    assert mat.ocp_anode(1.0) == pytest.approx(-0.09428, abs=1e-5)
    assert mat.ocp_anode(0.0) == pytest.approx(-0.16 + 1.32 + 10.0, rel=1e-14)


def test_ocp_anode_decreasing():
    c = np.linspace(0.01, 1.0, 10_000)
    v = mat.ocp_anode(c)
    assert np.all(np.diff(v) < 0.0)


def test_ocp_cathode_value_and_pole():
    assert mat.ocp_cathode(0.5) == pytest.approx(4.1225, abs=1e-3)
    with pytest.raises(ValueError):
        mat.ocp_cathode(1.00167)
    with pytest.raises(ValueError):
        mat.ocp_cathode(1.2)


def test_guard_bounds_lie_inside_ocp_domains(mats):
    """Both ends of the guard's c_s bounds map to a c_hat strictly inside
    (0, CATHODE_OCP_POLE), where each electrode's fit is finite; so the
    interface needs no clamp ahead of the open-circuit potential."""
    from voltacell.state import Guard
    eps_s = Guard.defaults(mats).eps_s
    for el in (mats.anode, mats.cathode):
        c_hat = np.array([eps_s, el.c_max - eps_s]) / el.c_max
        assert np.all((c_hat > 0.0) & (c_hat < mat.CATHODE_OCP_POLE))
        assert np.all(np.isfinite(el.ocp(c_hat)))


def test_ocp_cathode_decreasing_mid_range():
    c = np.linspace(0.2, 0.99, 10_000)
    v = mat.ocp_cathode(c)
    assert np.all(np.isfinite(v))
    assert np.all(np.diff(v) < 0.0)


def test_both_ocps_finite_decreasing_operating_range():
    c = np.linspace(0.05, 0.95, 10_000)
    for fn in (mat.ocp_anode, mat.ocp_cathode):
        v = fn(c)
        assert np.all(np.isfinite(v))
        assert np.all(np.diff(v) < 0.0)


# ---------------------------------------------------------------------------
# stress-assisted diffusivity
# ---------------------------------------------------------------------------

def test_diffusivity_branch_values(mats):
    el = mats.anode
    d0 = el.diffusivity0
    assert mat.stress_diffusivity(0.0, -5e8, el, mats) == pytest.approx(d0)
    assert mat.stress_diffusivity(0.0, 0.0, el, mats) == pytest.approx(d0)
    top = mat.stress_diffusivity(el.c_max, 2e9, el, mats)
    assert top == pytest.approx(d0 * np.exp(6.0 - 1.5), rel=1e-12)
    assert top == pytest.approx(90.017 * d0, rel=1e-4)


def test_diffusivity_branch_continuity(mats):
    el = mats.cathode
    c = 0.4 * el.c_max
    for seam in (0.0, mats.pi_max):
        lo = mat.stress_diffusivity(c, seam - 1e-3, el, mats)
        hi = mat.stress_diffusivity(c, seam + 1e-3, el, mats)
        at = mat.stress_diffusivity(c, seam, el, mats)
        assert lo == pytest.approx(at, rel=1e-10)
        assert hi == pytest.approx(at, rel=1e-10)


def test_diffusivity_bounds_random_sampling(mats):
    rng = np.random.default_rng(11)
    n = 1_000_000
    for el in (mats.anode, mats.cathode):
        c_s = rng.uniform(0.0, el.c_max, n)
        pi = rng.uniform(-2 * mats.pi_max, 3 * mats.pi_max, n)
        d = mat.stress_diffusivity(c_s, pi, el, mats)
        lo = el.diffusivity0 * np.exp(-mats.beta_d) * (1 - 1e-12)
        hi = el.diffusivity0 * np.exp(mats.alpha_d) * (1 + 1e-12)
        assert d.min() >= lo and d.max() <= hi


# ---------------------------------------------------------------------------
# elasticity laws
# ---------------------------------------------------------------------------

def test_lame_values():
    g, k = mat.lame_from_e_nu(2.5e9, 0.3)
    assert g == pytest.approx(9.6154e8, rel=1e-4)
    assert k == pytest.approx(2.0833e9, rel=1e-4)
    g, k = mat.lame_from_e_nu(1.0, 0.0)
    assert (g, k) == (pytest.approx(0.5), pytest.approx(1.0 / 3.0))


def test_lame_incompressible_limit():
    ks = [mat.lame_from_e_nu(1.0, nu)[1] for nu in (0.4, 0.45, 0.49, 0.499)]
    assert all(a < b for a, b in zip(ks, ks[1:]))
    with pytest.raises(ValueError):
        mat.lame_from_e_nu(1.0, 0.5)


def test_hooke_zero_state(mats):
    st = mat.hooke_plane_strain(0.0, 0.0, 0.0, mats.theta_ref,
                                0.5 * mats.cathode.c_max, mats.cathode,
                                mats, c_s_ref=0.5 * mats.cathode.c_max)
    for comp in (st.s11, st.s22, st.s12, st.s33):
        assert comp == pytest.approx(0.0, abs=1e-9)


def test_hooke_constrained_thermal_expansion(mats):
    # zero total strain with a temperature rise: sigma = -3 K alpha dT * I
    el = mats.cathode
    _, bulk = el.lame
    dt = 25.0
    st = mat.hooke_plane_strain(0.0, 0.0, 0.0, mats.theta_ref + dt,
                                0.3 * el.c_max, el, mats,
                                c_s_ref=0.3 * el.c_max)
    expected = -3.0 * bulk * el.alpha * dt
    assert st.s11 == pytest.approx(expected, rel=1e-12)
    assert st.s22 == pytest.approx(expected, rel=1e-12)
    assert st.s33 == pytest.approx(expected, rel=1e-12)
    assert st.s12 == pytest.approx(0.0, abs=1e-9)


def test_hooke_uniaxial_strain(mats):
    el = mats.cathode
    shear, bulk = el.lame
    e = 1e-3
    st = mat.hooke_plane_strain(e, 0.0, 0.0, mats.theta_ref, el.c_max * 0.5,
                                el, mats, c_s_ref=el.c_max * 0.5)
    assert st.s11 == pytest.approx((bulk + 4 * shear / 3) * e, rel=1e-12)
    assert st.s22 == pytest.approx((bulk - 2 * shear / 3) * e, rel=1e-12)
    assert st.s33 == pytest.approx((bulk - 2 * shear / 3) * e, rel=1e-12)
    # hydrostatic pressure of this state
    assert mat.hydrostatic_pressure(st) == pytest.approx(-bulk * e, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(e1=st.floats(-1e-2, 1e-2), e2=st.floats(-1e-2, 1e-2),
       e12=st.floats(-1e-2, 1e-2), dt1=st.floats(-40, 40),
       dt2=st.floats(-40, 40), dc=st.floats(-5e3, 5e3))
def test_hooke_superposition(e1, e2, e12, dt1, dt2, dc):
    mats = mat.default_materials()
    el = mats.anode
    ref = 0.5 * el.c_max

    def stress(eps1, eps2, eps12, dth, dcs):
        return mat.hooke_plane_strain(eps1, eps2, eps12,
                                      mats.theta_ref + dth, ref + dcs,
                                      el, mats, c_s_ref=ref)

    a = stress(e1, e2, e12, dt1, 0.0)
    b = stress(0.0, 0.0, 0.0, dt2, dc)
    ab = stress(e1, e2, e12, dt1 + dt2, dc)
    for comp in ("s11", "s22", "s12", "s33"):
        assert getattr(a, comp) + getattr(b, comp) == pytest.approx(
            getattr(ab, comp), rel=1e-9, abs=1e-3)


# ---------------------------------------------------------------------------
# pressure and von Mises
# ---------------------------------------------------------------------------

def test_pressure_conventions():
    iso = mat.StressState(s11=-3.0, s22=-3.0, s12=0.0, s33=-3.0)
    assert mat.hydrostatic_pressure(iso) == pytest.approx(3.0)
    shear = mat.StressState(s11=0.0, s22=0.0, s12=5.0, s33=0.0)
    assert mat.hydrostatic_pressure(shear) == pytest.approx(0.0)


def test_von_mises_reference_states():
    uni = mat.StressState(s11=7.0, s22=0.0, s12=0.0, s33=0.0)
    assert mat.von_mises(uni) == pytest.approx(7.0, rel=1e-14)
    hydro = mat.StressState(s11=-2.0, s22=-2.0, s12=0.0, s33=-2.0)
    assert mat.von_mises(hydro) == pytest.approx(0.0, abs=1e-14)
    shear = mat.StressState(s11=0.0, s22=0.0, s12=3.0, s33=0.0)
    assert mat.von_mises(shear) == pytest.approx(np.sqrt(3.0) * 3.0, rel=1e-14)


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e8, 1e8), st.floats(-1e8, 1e8), st.floats(-1e8, 1e8),
       st.floats(-1e8, 1e8), st.floats(-1e8, 1e8))
def test_von_mises_deviatoric_invariance(s11, s22, s12, s33, lam):
    base = mat.StressState(s11=s11, s22=s22, s12=s12, s33=s33)
    shifted = mat.StressState(s11=s11 + lam, s22=s22 + lam, s12=s12,
                              s33=s33 + lam)
    assert mat.von_mises(shifted) == pytest.approx(
        mat.von_mises(base), rel=1e-9, abs=1e-3)


def test_table_defaults_validated(mats):
    assert mats.anode.c_max == 3.1507e4
    assert mats.cathode.c_max == 2.286e4
    assert mats.electrolyte.t_plus == 0.363
    assert mats.k_bv == 1.1e-11
    assert mats.theta_ref == 298.15
    with pytest.raises(ValueError):
        mat.ElectrodeMaterial(rho_cv=-1, conductivity=1, thermal_k=1,
                              diffusivity0=1, c_max=1, youngs=1, poisson=0.3,
                              alpha=1, omega=1)
