"""Sparse SPD solves with a verified residual.

``SpdFactor`` factorizes a matrix once and reuses the factor across
right-hand sides; with ``method="cg"`` it runs Jacobi-preconditioned
conjugate gradients instead, for well-conditioned matrices solved once (the
mass matrices of the Euler predictor).  ``HeldFactor`` serves a sequence of
nearby matrices (one per fixed-point sweep and step): it keeps the factor of
one of them and solves the others by conjugate gradients preconditioned with
it, refactorizing only when that falls short.  Every solve checks the
relative residual against the tolerance and fails loudly otherwise, with a
``SolveError`` that names the system and the cause.  A direct solve does one
backsolve and checks it; only a solve that fails the check is refined (at
most ``REFINEMENTS`` more backsolves, each checked again), so a well-scaled
system costs one backsolve and one matrix-vector product.
"""

from __future__ import annotations

import ctypes

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

# Rounds of iterative refinement a direct solve may add after its first
# backsolve while the residual check fails.
REFINEMENTS = 2

# Preconditioned CG iterations a held factor spends on a new matrix before it
# gives up and factorizes that matrix instead.
HELD_CG_MAXITER = 10


class SolveError(RuntimeError):
    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class SpdFactor:
    """Factorization of an SPD matrix, reusable over many right-hand sides.

    Every solve verifies ||A x - b|| <= rtol * ||b|| + c_eps * ||A|| * ||x||;
    the second term is the irreducible float64 noise of applying A to the
    solution, which matters when b is a near-converged correction many orders
    below A's scale (it sits ~6 orders under any genuine solver failure).
    A direct solve refines its first backsolve only while this check fails.
    ``name`` labels the system in the messages of ``SolveError``.
    """

    APPLY_NOISE = 1e-13

    def __init__(self, mat: sp.spmatrix, method: str = "direct",
                 rtol: float = DEFAULT_RTOL, name: str = "SPD system"):
        if mat.shape[0] != mat.shape[1]:
            raise ValueError("matrix must be square")
        self.n = mat.shape[0]
        self.method = method
        self.rtol = rtol
        self.name = name
        self._mat = mat.tocsr()
        self._a_max = np.abs(self._mat.data).max() if self._mat.nnz else 0.0
        if method == "direct":
            if _MALLOPT is not None:
                _MALLOPT(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
            try:
                self._lu = spla.splu(mat.tocsc(), permc_spec=PERMC_SPEC)
            except RuntimeError as exc:
                raise SolveError(f"{name}: factorization failed: {exc}") \
                    from exc
        elif method == "cg":
            diag = self._mat.diagonal()
            if np.any(diag <= 0.0):
                raise SolveError(
                    f"{name}: CG preconditioner needs positive diagonal")
            self._precond = spla.LinearOperator(
                mat.shape, matvec=lambda v: v / diag)
        else:
            raise ValueError(f"unknown solve method {method!r}")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        norm_b = _rhs_norm(rhs, self.name)
        if norm_b == 0.0:
            return np.zeros(self.n)
        if self.method == "direct":
            # Refine only while the residual check fails: on poorly scaled
            # systems up to REFINEMENTS rounds recover the tolerance.
            x = self._lu.solve(rhs)
            for refinement in range(REFINEMENTS + 1):
                res = rhs - self._mat @ x
                excess = _residual_excess(np.linalg.norm(res), norm_b,
                                          self._a_max, x, self.rtol)
                if excess is None or refinement == REFINEMENTS:
                    break
                x = x + self._lu.solve(res)
        else:
            x, info = spla.cg(self._mat, rhs, rtol=min(self.rtol, 1e-12),
                              maxiter=20 * self.n, M=self._precond)
            res = np.linalg.norm(self._mat @ x - rhs)
            if info != 0:
                raise SolveError(
                    f"{self.name}: CG did not converge (info={info}); "
                    f"achieved relative residual {res / norm_b:.3e}",
                    achieved=res / norm_b)
            excess = _residual_excess(res, norm_b, self._a_max, x, self.rtol)
        if excess is not None:
            raise SolveError(
                f"{self.name}: solve residual {excess / norm_b:.3e} "
                f"(relative) exceeds tolerance {self.rtol:.1e}",
                achieved=excess / norm_b)
        return x


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


def _residual_excess(norm_r, norm_b, a_max, x, rtol) -> float | None:
    """The residual norm ||A x - b|| when it fails SpdFactor's residual
    check, else None."""
    allowed = rtol * norm_b + SpdFactor.APPLY_NOISE * a_max * np.linalg.norm(x)
    if not np.isfinite(norm_r) or norm_r > allowed:
        return float(norm_r)
    return None


class HeldFactor:
    """Solver for a sequence of nearby SPD systems, holding one factor.

    ``solve(mat, rhs)`` runs conjugate gradients on ``mat``, preconditioned by
    the factor of an earlier matrix and started from its solve of ``rhs``,
    until ||A x - b|| <= 0.01 rtol ||b|| and x passes SpdFactor's residual
    check.  The target sits below the check's bound because the factor is of
    another matrix: CG corrects that mismatch, where a direct solve's first
    backsolve usually passes the check as it is.  When CG misses that
    within ``HELD_CG_MAXITER`` iterations or meets a non-finite value, the
    old factor is dropped and ``mat`` is factorized and solved directly, so a
    system that no factor can solve still raises SolveError.

    ``refactorizations`` and ``cg_iterations`` count the work done so far.
    """

    def __init__(self, rtol: float = DEFAULT_RTOL, name: str = "SPD system"):
        self.rtol = rtol
        self.name = name
        self.refactorizations = 0
        self.cg_iterations = 0
        self._lu = None

    def solve(self, mat: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        norm_b = _rhs_norm(rhs, self.name)
        if self._lu is not None:
            x = self._preconditioned_cg(mat.tocsr(), rhs, norm_b)
            if x is not None:
                return x
        return self.hold(mat).solve(rhs)

    def hold(self, mat: sp.spmatrix) -> SpdFactor:
        """Factorize ``mat`` and hold its factor for the solves that follow."""
        self._lu = None     # release the old factor before the new one
        factor = SpdFactor(mat, rtol=self.rtol, name=self.name)
        self._lu = factor._lu
        self.refactorizations += 1
        return factor

    def _preconditioned_cg(self, mat, rhs, norm_b) -> np.ndarray | None:
        """The CG solution, or None when it misses the target."""
        precond = self._lu.solve
        target = 0.01 * self.rtol * norm_b
        x = precond(rhs)
        r = rhs - mat @ x
        p = rz = None
        for it in range(HELD_CG_MAXITER + 1):
            norm_r = np.linalg.norm(r)
            if not np.isfinite(norm_r):
                break
            if norm_r <= target:
                a_max = np.abs(mat.data).max() if mat.nnz else 0.0
                norm_res = np.linalg.norm(mat @ x - rhs)    # not CG's r
                if _residual_excess(norm_res, norm_b, a_max, x,
                                    self.rtol) is None:
                    return x
                break
            if it == HELD_CG_MAXITER:
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
            self.cg_iterations += 1
        return None


def solve_spd(mat: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
    """One-shot direct SPD solve with residual verification."""
    return SpdFactor(mat).solve(rhs)
