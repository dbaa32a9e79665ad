"""Sparse SPD solves with a verified residual.

Default method is a direct sparse factorization (reused across repeated
solves with the same matrix); conjugate gradients with Jacobi preconditioning
is available as a fallback.  Every solve checks the relative residual against
the requested tolerance and fails loudly otherwise.
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
    """

    APPLY_NOISE = 1e-13

    def __init__(self, mat: sp.spmatrix, method: str = "direct",
                 rtol: float = DEFAULT_RTOL):
        if mat.shape[0] != mat.shape[1]:
            raise ValueError("matrix must be square")
        self.n = mat.shape[0]
        self.method = method
        self.rtol = rtol
        self._mat = mat.tocsr()
        self._a_max = np.abs(self._mat.data).max() if self._mat.nnz else 0.0
        if method == "direct":
            if _MALLOPT is not None:
                _MALLOPT(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
            try:
                self._lu = spla.splu(mat.tocsc(), permc_spec=PERMC_SPEC)
            except RuntimeError as exc:
                raise SolveError(f"factorization failed: {exc}") from exc
        elif method == "cg":
            diag = self._mat.diagonal()
            if np.any(diag <= 0.0):
                raise SolveError("CG preconditioner needs positive diagonal")
            self._precond = spla.LinearOperator(
                mat.shape, matvec=lambda v: v / diag)
        else:
            raise ValueError(f"unknown solve method {method!r}")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        norm_b = np.linalg.norm(rhs)
        if norm_b == 0.0:
            return np.zeros(self.n)
        if self.method == "direct":
            x = self._lu.solve(rhs)
            # one or two rounds of iterative refinement recover the residual
            # tolerance on poorly scaled systems
            for _ in range(2):
                res = rhs - self._mat @ x
                if np.linalg.norm(res) <= 0.01 * self.rtol * norm_b:
                    break
                x = x + self._lu.solve(res)
        else:
            x, info = spla.cg(self._mat, rhs, rtol=min(self.rtol, 1e-12),
                              maxiter=20 * self.n, M=self._precond)
            if info != 0:
                res = np.linalg.norm(self._mat @ x - rhs) / norm_b
                raise SolveError(
                    f"CG did not converge (info={info}); achieved relative "
                    f"residual {res:.3e}", achieved=res)
        res = np.linalg.norm(self._mat @ x - rhs)
        allowed = self.rtol * norm_b \
            + self.APPLY_NOISE * self._a_max * np.linalg.norm(x)
        if not np.isfinite(res) or res > allowed:
            raise SolveError(
                f"solve residual {res / norm_b:.3e} (relative) exceeds "
                f"tolerance {self.rtol:.1e}", achieved=res / norm_b)
        return x


def solve_spd(mat: sp.spmatrix, rhs: np.ndarray, method: str = "direct",
              rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """One-shot SPD solve with residual verification."""
    return SpdFactor(mat, method=method, rtol=rtol).solve(rhs)
