"""Sparse SPD solves with a verified residual: one ``Solver`` per system.

Each SPD system of the scheme (theta, c_s, c_e, the phi_s/phi_e pair, u) has
one ``Solver``, which holds the LU factor of one matrix of its system.  Every
solve is conjugate gradients preconditioned by that factor and started from
its backsolve, so with the factorized matrix it is one backsolve whenever
that meets the residual check.  The c_s and potential-pair matrices change
with every sweep through slowly varying coefficients; when CG on one of them
misses within ``HELD_CG_MAXITER`` iterations, the solver factorizes it and
runs the loop again.  The loop, ``_pcg``, also serves the Euler predictor's
Jacobi-CG mass solves (``jacobi_solve``), and the residual check of
``_meets_check`` ends every solve; one that cannot meet it raises a
``SolveError`` naming the system and the relative residual it reached.
"""

from __future__ import annotations

import ctypes
import weakref

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DEFAULT_RTOL = 1e-10
# Minimum-degree ordering on A^T + A: the systems are symmetric, and this
# symmetric fill-reducing ordering keeps the LU factors (and memory) far
# smaller than SuperLU's default column ordering.
PERMC_SPEC = "MMD_AT_PLUS_A"

# SuperLU reserves room for about twenty times nnz(A) factor entries and fills
# only part of it.  Once glibc has freed one such block it raises its mmap
# threshold, later reservations come from the heap, and their unfilled pages
# pass to other allocations: a process that runs scenario after scenario grows
# in resident size with every run.  Pinning the threshold keeps blocks of 1 MiB
# and more in their own mappings, which are returned on release.
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 1 << 20
try:
    _MALLOPT = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):    # not a glibc process
    _MALLOPT = None

# The residual check's allowance for the float64 noise of applying A to the
# solution, relative to max |A| ||x||.
APPLY_NOISE = 1e-13

# Preconditioned CG iterations a solve spends on the held factor before it
# gives up: on a new matrix it then factorizes that matrix, on the factorized
# one it raises.
HELD_CG_MAXITER = 10


class SolveError(RuntimeError):
    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


def _rhs_norm(rhs, name) -> float:
    """||b||, or SolveError when b has a non-finite entry or its norm
    overflows (a diverged state upstream of the solve)."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm_b = np.linalg.norm(rhs)
    if np.isfinite(norm_b):
        return float(norm_b)
    b_max = np.abs(rhs).max()
    cause = "norm overflows" if np.isfinite(b_max) else "is not finite"
    raise SolveError(f"{name}: right-hand side {cause} (max |b| = {b_max:.1e})")


def _meets_check(norm_r, norm_b, a_max, x) -> bool:
    """Whether a residual norm ||A x - b|| is finite and meets the residual
    check ||A x - b|| <= DEFAULT_RTOL ||b|| + APPLY_NOISE max|A| ||x||.

    The second term is the irreducible float64 noise of applying A to the
    solution, which matters when b is a near-converged correction many orders
    below A's scale (it sits ~6 orders under any genuine solver failure)."""
    allowed = DEFAULT_RTOL * norm_b + APPLY_NOISE * a_max * np.linalg.norm(x)
    return bool(np.isfinite(norm_r) and norm_r <= allowed)


def _abs_max(mat) -> float:
    """max |A| over the stored entries, without allocating |A|."""
    return float(max(mat.data.max(), -mat.data.min())) if mat.nnz else 0.0


def _pcg(mat, rhs, norm_b, a_max, precond, maxiter):
    """Conjugate gradients on ``mat``, whose max |A| is ``a_max``,
    preconditioned by ``precond`` and started from ``precond(rhs)``.

    It stops at the first iterate whose recurrence residual meets the
    residual check's bound, confirmed on the true residual; when the true
    residual fails, it iterates on.  Returns (x, iterations, achieved), where
    ``achieved`` is None at convergence and otherwise the relative true
    residual of x: after ``maxiter`` iterations, on a non-finite residual, or
    where ``mat`` is not positive definite along a search direction.
    """
    x = precond(rhs)
    r = rhs - mat @ x
    p = rz = None
    for it in range(maxiter + 1):
        norm_r = np.linalg.norm(r)
        if not np.isfinite(norm_r):
            break
        # at it == 0, r = rhs - A x is the true residual already
        if _meets_check(norm_r, norm_b, a_max, x) and (
                it == 0 or _meets_check(np.linalg.norm(mat @ x - rhs),
                                        norm_b, a_max, x)):
            return x, it, None
        if it == maxiter:
            break
        z = precond(r)
        rz_new = r @ z
        p = z if p is None else z + (rz_new / rz) * p
        rz = rz_new
        ap = mat @ p
        p_ap = p @ ap
        if not p_ap > 0.0:      # not SPD along p, or non-finite
            break
        alpha = rz / p_ap
        x = x + alpha * p
        r = r - alpha * ap
    with np.errstate(over="ignore", invalid="ignore"):
        achieved = np.linalg.norm(mat @ x - rhs) / norm_b
    return x, it, float(achieved)


class Solver:
    """The solver of one SPD system, holding the LU factor of one matrix (see
    the module docstring); its first solve factorizes the matrix it is given.
    ``name`` labels the system in the messages of ``SolveError``, and
    ``refactorizations``, ``cg_iterations`` and ``backsolves`` (of the held
    factor) count the work done so far.
    """

    def __init__(self, name: str = "SPD system"):
        self.name = name
        self.refactorizations = 0
        self.cg_iterations = 0
        self.backsolves = 0
        # The factorized matrix, held weakly: the solver only recognises it,
        # and the held c_s and pair matrices are 4 MB on the production mesh.
        self._held = self._lu = None
        self._a_max = 0.0

    def factorize(self, mat: sp.spmatrix):
        """Factorize ``mat`` and hold its factor for the solves that follow."""
        if mat.shape[0] != mat.shape[1]:
            raise ValueError("matrix must be square")
        self._lu = None     # release the old factor first
        if _MALLOPT is not None:
            _MALLOPT(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
        try:
            lu = spla.splu(mat.tocsc(), permc_spec=PERMC_SPEC)
        except RuntimeError as exc:
            raise SolveError(f"{self.name}: factorization failed: {exc}") \
                from exc
        self._held, self._lu = weakref.ref(mat), lu
        self._a_max = _abs_max(mat)
        self.refactorizations += 1

    def _backsolve(self, v: np.ndarray) -> np.ndarray:
        self.backsolves += 1
        return self._lu.solve(v)

    def solve(self, mat: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        norm_b = _rhs_norm(rhs, self.name)
        if norm_b == 0.0:
            return np.zeros(mat.shape[0])
        if self._lu is None:
            self.factorize(mat)
        # at most two passes: a miss on another matrix factorizes it
        while True:
            own = mat is self._held()
            x, iters, achieved = _pcg(
                mat.tocsr(), rhs, norm_b,
                self._a_max if own else _abs_max(mat), self._backsolve,
                HELD_CG_MAXITER)
            self.cg_iterations += iters
            if achieved is None:
                return x
            if own:
                raise SolveError(
                    f"{self.name}: solve residual {achieved:.3e} "
                    f"(relative) exceeds tolerance {DEFAULT_RTOL:.1e}",
                    achieved=achieved)
            self.factorize(mat)


def jacobi_solve(mat: sp.spmatrix, rhs: np.ndarray, name: str) -> np.ndarray:
    """One solve by Jacobi-preconditioned CG, within 20 n iterations, for a
    well-conditioned matrix solved once (the mass matrices of the Euler
    predictor): faster than a factorization and without its memory."""
    rhs = np.asarray(rhs, dtype=float)
    norm_b = _rhs_norm(rhs, name)
    if norm_b == 0.0:
        return np.zeros(mat.shape[0])
    mat = mat.tocsr()
    diag = mat.diagonal()
    if np.any(diag <= 0.0):
        raise SolveError(f"{name}: CG preconditioner needs positive diagonal")
    x, iters, achieved = _pcg(mat, rhs, norm_b, _abs_max(mat),
                              lambda v: v / diag, 20 * mat.shape[0])
    if achieved is not None:
        raise SolveError(
            f"{name}: CG did not converge in {iters} iterations; "
            f"achieved relative residual {achieved:.3e}", achieved=achieved)
    return x
