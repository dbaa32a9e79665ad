import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from voltacell import assemble as asm
from voltacell import spaces as sps
from voltacell.mesh import rectangle_mesh
from voltacell import solve
from voltacell.solve import HeldFactor, SolveError, SpdFactor, solve_spd


def test_identity_returns_rhs():
    a = sp.eye(5, format="csr")
    b = np.arange(5.0)
    assert np.allclose(solve_spd(a, b), b)


def test_hand_2x2():
    a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x = solve_spd(a, np.array([3.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)


def test_zero_rhs_shortcut():
    a = sp.eye(4, format="csr") * 3.0
    assert np.array_equal(solve_spd(a, np.zeros(4)), np.zeros(4))


@pytest.mark.parametrize("method", ["direct", "cg"])
def test_assembled_system_matches_dense_factorization(method):
    m = rectangle_mesh(1.0, 1.0, 4, 4, degree=2)
    s = sps.build_field_space(m, sps.OMEGA, name="t")
    a = asm.assemble_stiffness(s, 2.0) + asm.assemble_mass(s, 1.0)
    rng = np.random.default_rng(5)
    b = rng.normal(size=s.ndof)
    x = solve_spd(a, b, method=method)
    x_dense = np.linalg.solve(a.toarray(), b)
    assert np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense) < 1e-8


def test_factor_reuse():
    a = sp.csr_matrix(np.diag([1.0, 2.0, 4.0]))
    f = SpdFactor(a)
    for k in range(3):
        b = np.full(3, float(k + 1))
        assert np.allclose(f.solve(b), b / np.array([1.0, 2.0, 4.0]))


def test_non_convergence_reports_residual():
    # an indefinite matrix defeats CG; the failure carries the residual
    a = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(SolveError):
        solve_spd(a, np.array([1.0, 1.0]), method="cg")


def test_rtol_enforced():
    a = sp.eye(3, format="csr")
    f = SpdFactor(a, rtol=1e-10)
    x = f.solve(np.ones(3))
    assert np.allclose(x, 1.0)


def _spd_pair(scale):
    """An assembled SPD matrix and a copy with its coefficients perturbed by
    a relative ``scale`` (as between two sweeps of a coupled step)."""
    m = rectangle_mesh(1.0, 1.0, 6, 6, degree=2)
    s = sps.build_field_space(m, sps.OMEGA, name="t")
    mass = asm.assemble_mass(s, 1.0)
    a = mass + 0.5 * asm.assemble_stiffness(s, 2.0)
    rng = np.random.default_rng(11)
    coeff = 2.0 * (1.0 + scale * rng.uniform(size=s.qp.n))
    b_mat = mass + 0.5 * asm.assemble_stiffness(s, coeff)
    return a.tocsr(), b_mat.tocsr(), rng.normal(size=s.ndof)


def test_held_factor_cg_matches_fresh_factor():
    a, a_near, b = _spd_pair(0.05)
    held = HeldFactor()
    held.solve(a, b)
    assert (held.refactorizations, held.cg_iterations) == (1, 0)
    x = held.solve(a_near, b)
    assert held.refactorizations == 1          # no new factor
    assert 0 < held.cg_iterations <= solve.HELD_CG_MAXITER
    x_ref = SpdFactor(a_near).solve(b)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def test_held_factor_refactorizes_far_matrix():
    a, a_far, b = _spd_pair(50.0)
    held = HeldFactor()
    held.solve(a, b)
    x = held.solve(a_far, b)
    assert held.refactorizations == 2
    assert np.allclose(x, SpdFactor(a_far).solve(b), rtol=0, atol=1e-10
                       * np.abs(x).max())
    # the new factor is now the held one: the same matrix needs no CG
    iters = held.cg_iterations
    held.solve(a_far, 2.0 * b)
    assert (held.refactorizations, held.cg_iterations) == (2, iters)


@pytest.mark.parametrize("where", ["matrix", "rhs"])
def test_held_factor_nan_raises(where):
    a, a_near, b = _spd_pair(0.05)
    held = HeldFactor()
    held.solve(a, b)
    if where == "matrix":
        a_near = a_near.copy()
        a_near.data[0] = np.nan
    else:
        b = b.copy()
        b[3] = np.nan
    with pytest.raises(SolveError):
        held.solve(a_near, b)
    with pytest.raises(SolveError):
        SpdFactor(a_near).solve(b)


def test_held_factor_uses_the_residual_check(monkeypatch):
    """A held-factor solution passes SpdFactor's residual bound, and a bound
    that no solver meets fails both the same way."""
    a, a_near, b = _spd_pair(0.05)
    held = HeldFactor(rtol=1e-10)
    held.solve(a, b)
    x = held.solve(a_near, b)
    allowed = 1e-10 * np.linalg.norm(b) \
        + SpdFactor.APPLY_NOISE * np.abs(a_near.data).max() * np.linalg.norm(x)
    assert np.linalg.norm(a_near @ x - b) <= allowed

    monkeypatch.setattr(SpdFactor, "APPLY_NOISE", 0.0)
    messages = []
    for solver in (lambda: HeldFactor(rtol=1e-30).solve(a_near, b),
                   lambda: SpdFactor(a_near, rtol=1e-30).solve(b)):
        with pytest.raises(SolveError, match="exceeds tolerance") as err:
            solver()
        messages.append(str(err.value).split(" (relative)")[1])
    assert messages[0] == messages[1]


@pytest.mark.parametrize("held", [False, True])
def test_overflowing_rhs_names_the_system(held):
    """A right-hand side whose norm overflows float64 fails as a SolveError
    that names the system and the cause, before any numpy warning."""
    a, a_near, b = _spd_pair(0.05)
    big = 1e200 * b
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if held:
            solver = HeldFactor(name="potential pair")
            solver.solve(a, b)
            call = lambda: solver.solve(a_near, big)
        else:
            call = lambda: SpdFactor(a, name="potential pair").solve(big)
        with pytest.raises(SolveError, match=r"^potential pair: .*overflows"):
            call()
