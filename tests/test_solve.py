import itertools
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from voltacell import assemble as asm
from voltacell import spaces as sps
from voltacell.mesh import rectangle_mesh
from voltacell import solve
from voltacell.solve import DEFAULT_RTOL, SolveError, Solver, jacobi_solve


def test_identity_returns_rhs():
    a = sp.eye(5, format="csr")
    b = np.arange(5.0)
    assert np.allclose(Solver().solve(a, b), b)


def test_hand_2x2():
    a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x = Solver().solve(a, np.array([3.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)


def test_zero_rhs_shortcut():
    a = sp.eye(4, format="csr") * 3.0
    assert np.array_equal(Solver().solve(a, np.zeros(4)), np.zeros(4))


@pytest.mark.parametrize("method", ["direct", "cg"])
def test_assembled_system_matches_dense_factorization(method):
    m = rectangle_mesh(1.0, 1.0, 4, 4, degree=2)
    s = sps.MeshSupports(m)[sps.OMEGA]
    scatter = asm.ElementScatter(s)
    a = scatter.stiffness(2.0) + scatter.mass(1.0)
    rng = np.random.default_rng(5)
    b = rng.normal(size=s.n_nodes)
    x = Solver().solve(a, b) if method == "direct" \
        else jacobi_solve(a, b, "t")
    x_dense = np.linalg.solve(a.toarray(), b)
    assert np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense) < 1e-8


def test_factor_reuse():
    a = sp.csr_matrix(np.diag([1.0, 2.0, 4.0]))
    f = Solver()
    f.factorize(a)
    for k in range(3):
        b = np.full(3, float(k + 1))
        assert np.allclose(f.solve(a, b), b / np.array([1.0, 2.0, 4.0]))
    assert (f.refactorizations, f.cg_iterations, f.backsolves) == (1, 0, 3)


def test_non_convergence_reports_residual():
    # an indefinite matrix defeats CG; the failure carries the residual
    a = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(SolveError, match="did not converge") as err:
        jacobi_solve(a, np.array([1.0, 0.0]), "indefinite")
    assert err.value.achieved > DEFAULT_RTOL


def test_rtol_enforced(monkeypatch):
    monkeypatch.setattr(solve, "DEFAULT_RTOL", 1e-10)
    a = sp.eye(3, format="csr")
    x = Solver().solve(a, np.ones(3))
    assert np.allclose(x, 1.0)


def _spd_pair(scale):
    """An assembled SPD matrix and a copy with its coefficients perturbed by
    a relative ``scale`` (as between two sweeps of a coupled step)."""
    m = rectangle_mesh(1.0, 1.0, 6, 6, degree=2)
    s = sps.MeshSupports(m)[sps.OMEGA]
    scatter = asm.ElementScatter(s)
    mass = scatter.mass(1.0)
    a = mass + 0.5 * scatter.stiffness(2.0)
    rng = np.random.default_rng(11)
    coeff = 2.0 * (1.0 + scale * rng.uniform(size=s.qp.n))
    b_mat = mass + 0.5 * scatter.stiffness(coeff)
    return a.tocsr(), b_mat.tocsr(), rng.normal(size=s.n_nodes)


def test_held_factor_cg_matches_fresh_factor():
    a, a_near, b = _spd_pair(0.05)
    held = Solver()
    held.solve(a, b)
    assert (held.refactorizations, held.cg_iterations) == (1, 0)
    x = held.solve(a_near, b)
    assert held.refactorizations == 1          # no new factor
    assert 0 < held.cg_iterations <= solve.HELD_CG_MAXITER
    x_ref = Solver().solve(a_near, b)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def _reference_cg(a, a_lu, b):
    """The iterates of a textbook CG on ``a`` preconditioned by ``a_lu`` and
    started from its solve of b."""
    x = a_lu.solve(b)
    r = b - a @ x
    z = a_lu.solve(r)
    p = z.copy()
    while True:
        yield x
        ap = a @ p
        alpha = (r @ z) / (p @ ap)
        x = x + alpha * p
        r_new = r - alpha * ap
        z_new = a_lu.solve(r_new)
        p = z_new + (r_new @ z_new) / (r @ z) * p
        r, z = r_new, z_new


def _reference_cg_iterations(a, a_lu, b, rtol, target_factor=1.0):
    """Iterations of ``_reference_cg`` to the first iterate whose true
    residual meets target_factor * rtol ||b|| + APPLY_NOISE max|A| ||x||."""
    norm_b, a_max = np.linalg.norm(b), np.abs(a.data).max()
    for k, x in zip(range(100), _reference_cg(a, a_lu, b)):
        allowed = target_factor * rtol * norm_b \
            + solve.APPLY_NOISE * a_max * np.linalg.norm(x)
        if np.linalg.norm(b - a @ x) <= allowed:
            return k
    raise AssertionError("reference CG did not converge")


def test_held_solve_stops_at_first_iterate_meeting_the_check():
    """CG on a held factor stops at the first iterate whose residual meets
    the residual check's bound, not at a stricter target (a hundredth of it
    costs iterations here)."""
    a, a_near, b = _spd_pair(0.05)
    lu = spla.splu(a.tocsc(), permc_spec=solve.PERMC_SPEC)
    first = _reference_cg_iterations(a_near, lu, b, DEFAULT_RTOL)
    assert first < _reference_cg_iterations(a_near, lu, b, DEFAULT_RTOL,
                                            target_factor=0.01)
    held = Solver()
    held.factorize(a)
    held.solve(a_near, b)
    assert held.cg_iterations == first


def test_held_factor_refactorizes_far_matrix():
    a, a_far, b = _spd_pair(50.0)
    held = Solver()
    held.solve(a, b)
    x = held.solve(a_far, b)
    assert held.refactorizations == 2
    assert np.allclose(x, Solver().solve(a_far, b), rtol=0, atol=1e-10
                       * np.abs(x).max())
    # the new factor is now the held one: the same matrix needs no CG
    iters = held.cg_iterations
    held.solve(a_far, 2.0 * b)
    assert (held.refactorizations, held.cg_iterations) == (2, iters)


@pytest.mark.parametrize("where", ["matrix", "rhs"])
def test_held_factor_nan_raises(where):
    a, a_near, b = _spd_pair(0.05)
    held = Solver()
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
        Solver().solve(a_near, b)


def test_held_factor_uses_the_residual_check(monkeypatch):
    """A held-factor solution passes the residual check, and a bound that no
    solver meets fails CG on the held factor and a fresh factor's solve the
    same way."""
    a, a_near, b = _spd_pair(0.05)
    held = Solver()
    held.solve(a, b)
    x = held.solve(a_near, b)
    allowed = 1e-10 * np.linalg.norm(b) \
        + solve.APPLY_NOISE * np.abs(a_near.data).max() * np.linalg.norm(x)
    assert np.linalg.norm(a_near @ x - b) <= allowed

    monkeypatch.setattr(solve, "APPLY_NOISE", 0.0)
    monkeypatch.setattr(solve, "DEFAULT_RTOL", 1e-30)
    messages = []
    held = Solver()
    held.factorize(a)
    for solver in (lambda: held.solve(a_near, b),
                   lambda: Solver().solve(a_near, b)):
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
    solver = Solver(name="potential pair")
    if held:
        solver.solve(a, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolveError, match=r"^potential pair: .*overflows"):
            solver.solve(a_near if held else a, big)


class _CountingLU:
    """A factor's LU that counts its backsolves."""

    def __init__(self, lu):
        self.lu = lu
        self.backsolves = 0

    def solve(self, rhs):
        self.backsolves += 1
        return self.lu.solve(rhs)


def _factor_with_lu_of(mat, lu_mat):
    """A solver holding ``mat`` whose LU is that of ``lu_mat``, with its
    backsolves counted."""
    factor = Solver()
    factor.factorize(mat)
    factor._lu = _CountingLU(spla.splu(lu_mat.tocsc(),
                                       permc_spec=solve.PERMC_SPEC))
    return factor


def test_passing_first_backsolve_is_not_refined(monkeypatch):
    """A solve whose first backsolve passes the residual check returns it:
    one backsolve, and the same x as the bare LU solve.  At DEFAULT_RTOL
    1e-15 the first residual passes only through the check's float64 noise
    term, as in the heat equation's solves."""
    monkeypatch.setattr(solve, "DEFAULT_RTOL", 1e-15)
    a, _, b = _spd_pair(0.05)
    factor = _factor_with_lu_of(a, a)
    x0 = factor._lu.lu.solve(b)
    assert np.linalg.norm(a @ x0 - b) > 1e-15 * np.linalg.norm(b)
    x = factor.solve(a, b)
    assert factor._lu.backsolves == 1
    assert np.array_equal(x, x0)


def test_held_cg_recovers_a_slightly_wrong_factor():
    """With the LU of a slightly perturbed matrix the first backsolve fails
    the check, and CG on the factorized matrix meets it within
    HELD_CG_MAXITER iterations, one backsolve each, counted in
    ``cg_iterations``."""
    a, _, b = _spd_pair(0.05)
    factor = _factor_with_lu_of(a, a * (1.0 + 1e-7))
    x0 = factor._lu.lu.solve(b)
    assert np.linalg.norm(a @ x0 - b) > DEFAULT_RTOL * np.linalg.norm(b)
    x = factor.solve(a, b)
    assert 1 <= factor.cg_iterations <= solve.HELD_CG_MAXITER
    assert factor._lu.backsolves == 1 + factor.cg_iterations
    assert factor.backsolves == 1 + factor.cg_iterations
    assert factor.refactorizations == 1
    assert np.linalg.norm(a @ x - b) <= DEFAULT_RTOL * np.linalg.norm(b)


def test_unresolved_factor_raises_after_held_cg():
    """The LU of A + I spreads the preconditioned eigenvalues lambda /
    (lambda + 1) of this 169-DOF system over (0.006, 0.9), which
    HELD_CG_MAXITER iterations cannot resolve: the solve raises after 1 +
    HELD_CG_MAXITER backsolves, carrying the residual CG reached."""
    a, _, b = _spd_pair(0.05)
    shifted = a + sp.eye(a.shape[0], format="csr")
    factor = _factor_with_lu_of(a, shifted)
    with pytest.raises(SolveError, match="exceeds tolerance") as err:
        factor.solve(a, b)
    assert factor._lu.backsolves == 1 + solve.HELD_CG_MAXITER
    assert factor.backsolves == factor._lu.backsolves
    assert factor.refactorizations == 1
    x_ref = next(itertools.islice(_reference_cg(a, factor._lu.lu, b),
                                  solve.HELD_CG_MAXITER, None))
    assert err.value.achieved == pytest.approx(
        np.linalg.norm(a @ x_ref - b) / np.linalg.norm(b), rel=1e-6)
    assert err.value.achieved > DEFAULT_RTOL


def test_solve_with_the_factorized_matrix_scans_no_entries(monkeypatch):
    """The residual check of a solve with the factorized matrix takes max |A|
    from the factorization; only a solve with another matrix scans it."""
    a, a_near, b = _spd_pair(0.05)
    factor = Solver()
    factor.factorize(a)
    scanned = []
    abs_max = solve._abs_max
    monkeypatch.setattr(solve, "_abs_max",
                        lambda mat: scanned.append(mat) or abs_max(mat))
    for k in range(3):
        factor.solve(a, (k + 1.0) * b)
    assert scanned == []
    factor.solve(a_near, b)
    assert len(scanned) == 1 and scanned[0] is a_near
