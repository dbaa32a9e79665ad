"""Sparse assembly of mass/stiffness/elasticity matrices and load vectors.

All elements are axis-aligned rectangles, so jacobians are constant per
element and assembly vectorizes into einsum contractions per degree group.
Matrices are returned on the full DOF set of the field space; ``constrain``
reduces a system to the free DOFs (essential constraints are eliminated by
reduction, never by penalties, so SPD structure survives).

Coefficients may be given as a scalar, a per-subdomain-tag dict, a callable
``f(x, y)`` evaluated at quadrature points, or a master-aligned list of
per-group (n_elems, nq) arrays as produced by ``eval_qp``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from . import basis
from .mesh import EdgeRef
from .spaces import FieldSpace, MasterGroup, NodeGrid

EDGE_QUAD_EXTRA = 2


class AssemblyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Coefficient resolution
# ---------------------------------------------------------------------------

def coeff_arrays(space: FieldSpace, coeff, *, member_only: bool = True) -> list:
    """Resolve a coefficient spec into per-group (n, nq) arrays.

    With ``member_only`` the rows correspond to the space's member cells of
    each master group; otherwise to all cells of the group.
    """
    out = []
    for g, rows in zip(space.master, space.member_rows):
        nq = len(g.ref.qw)
        if member_only:
            hx = g.hx[rows]
            n = len(rows)
        else:
            n = g.n_elems
        if callable(coeff):
            qx, qy = g.qp_coords()
            if member_only:
                qx, qy = qx[rows], qy[rows]
            arr = np.broadcast_to(np.asarray(coeff(qx, qy), dtype=float),
                                  (n, nq)).copy()
        elif isinstance(coeff, dict):
            tags = g.tag[rows] if member_only else g.tag
            vals = np.array([coeff[int(t)] for t in tags])
            arr = np.repeat(vals[:, None], nq, axis=1)
        elif isinstance(coeff, (list, tuple)):
            arr = np.asarray(coeff[len(out)], dtype=float)
            if member_only:
                arr = arr[rows]
        else:
            arr = np.full((n, nq), float(coeff))
        out.append(arr)
    return out


def _scatter(space: FieldSpace, blocks: list, dofs_list: list) -> sp.csr_matrix:
    """Sum per-element dense blocks into a global sparse matrix."""
    rows, cols, vals = [], [], []
    for ke, dofs in zip(blocks, dofs_list):
        if ke.size == 0:
            continue
        n = dofs.shape[1]
        rows.append(np.repeat(dofs, n, axis=1).ravel())
        cols.append(np.tile(dofs, (1, n)).ravel())
        vals.append(ke.ravel())
    if not rows:
        return sp.csr_matrix((space.ndof, space.ndof))
    mat = sp.coo_matrix(
        (np.concatenate(vals),
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(space.ndof, space.ndof))
    return mat.tocsr()


def _member_geometry(g: MasterGroup, rows: np.ndarray):
    return g.hx[rows], g.hy[rows]


# ---------------------------------------------------------------------------
# Volume matrices
# ---------------------------------------------------------------------------

def assemble_mass(space: FieldSpace, coeff=1.0) -> sp.csr_matrix:
    """Weighted L2 mass matrix (w_i, c w_j) over the field support."""
    if space.arity != 1:
        raise AssemblyError("mass assembly implemented for scalar fields")
    carr = coeff_arrays(space, coeff)
    blocks, dofs_list = [], []
    for g, rows, dofs, c in zip(space.master, space.member_rows,
                                space.cell_node_dofs, carr):
        if len(rows) == 0:
            continue
        if np.any(c <= 0.0):
            raise AssemblyError("mass coefficient must be strictly positive")
        ref = g.ref
        hx, hy = _member_geometry(g, rows)
        ceff = c * (0.25 * hx * hy)[:, None]
        blocks.append(np.einsum("q,eq,qi,qj->eij", ref.qw, ceff,
                                ref.values, ref.values, optimize=True))
        dofs_list.append(dofs)
    return _scatter(space, blocks, dofs_list)


def assemble_stiffness(space: FieldSpace, coeff=1.0,
                       coeff_name: str = "diffusivity") -> sp.csr_matrix:
    """Scalar diffusion matrix (grad w_i, c grad w_j); c must stay positive."""
    if space.arity != 1:
        raise AssemblyError("use assemble_elasticity for vector fields")
    carr = coeff_arrays(space, coeff)
    blocks, dofs_list = [], []
    for g, rows, dofs, c in zip(space.master, space.member_rows,
                                space.cell_node_dofs, carr):
        if len(rows) == 0:
            continue
        if np.any(c <= 0.0):
            e, q = np.unravel_index(int(np.argmin(c)), c.shape)
            qx, qy = g.qp_coords()
            xq, yq = qx[rows][e, q], qy[rows][e, q]
            raise AssemblyError(
                f"nonpositive {coeff_name} sample {c[e, q]:.6g} at quadrature "
                f"point ({xq:.6g}, {yq:.6g})")
        ref = g.ref
        hx, hy = _member_geometry(g, rows)
        kxx = np.einsum("q,eq,qi,qj->eij", ref.qw, c,
                        ref.grad_x, ref.grad_x, optimize=True)
        kyy = np.einsum("q,eq,qi,qj->eij", ref.qw, c,
                        ref.grad_y, ref.grad_y, optimize=True)
        ke = (hy / hx)[:, None, None] * kxx + (hx / hy)[:, None, None] * kyy
        blocks.append(ke)
        dofs_list.append(dofs)
    return _scatter(space, blocks, dofs_list)


def assemble_elasticity(space: FieldSpace, shear, bulk) -> sp.csr_matrix:
    """Plane-strain elasticity matrix (sym grad v : C : sym grad u).

    ``shear``/``bulk`` are per-tag dicts (or scalars) of the moduli G, K;
    the 3D isotropic tensor with lambda = K - 2G/3 is used in its plane-strain
    restriction.
    """
    if space.arity != 2:
        raise AssemblyError("elasticity needs a 2-vector space")

    def per_elem(g, rows, spec):
        if isinstance(spec, dict):
            return np.array([spec[int(t)] for t in g.tag[rows]])
        return np.full(len(rows), float(spec))

    blocks, dofs_list = [], []
    for g, rows, node_dofs in zip(space.master, space.member_rows,
                                  space.cell_node_dofs):
        if len(rows) == 0:
            continue
        ref = g.ref
        hx, hy = _member_geometry(g, rows)
        g_e = per_elem(g, rows, shear)
        k_e = per_elem(g, rows, bulk)
        if np.any(g_e <= 0.0) or np.any(k_e <= 0.0):
            raise AssemblyError("elastic moduli must be positive")
        lam_e = k_e - 2.0 * g_e / 3.0

        kxx = np.einsum("q,qi,qj->ij", ref.qw, ref.grad_x, ref.grad_x)
        kyy = np.einsum("q,qi,qj->ij", ref.qw, ref.grad_y, ref.grad_y)
        kxy = np.einsum("q,qi,qj->ij", ref.qw, ref.grad_x, ref.grad_y)

        rx = (hy / hx)
        ry = (hx / hy)
        nbf = ref.nbf
        ke = np.zeros((len(rows), nbf, 2, nbf, 2))
        # (x,x): (lam+2G) dxdx + G dydy ; (y,y): (lam+2G) dydy + G dxdx
        ke[:, :, 0, :, 0] = ((lam_e + 2 * g_e) * rx)[:, None, None] * kxx \
            + (g_e * ry)[:, None, None] * kyy
        ke[:, :, 1, :, 1] = ((lam_e + 2 * g_e) * ry)[:, None, None] * kyy \
            + (g_e * rx)[:, None, None] * kxx
        # (x,y): lam dx_i dy_j + G dy_i dx_j  (unit jacobian factor)
        ke[:, :, 0, :, 1] = lam_e[:, None, None] * kxy \
            + g_e[:, None, None] * kxy.T
        ke[:, :, 1, :, 0] = np.swapaxes(ke[:, :, 0, :, 1], 1, 2)

        dofs = (node_dofs[:, :, None] * 2
                + np.arange(2)[None, None, :]).reshape(len(rows), -1)
        blocks.append(ke.reshape(len(rows), 2 * nbf, 2 * nbf))
        dofs_list.append(dofs)
    return _scatter(space, blocks, dofs_list)


# ---------------------------------------------------------------------------
# Volume loads and field evaluation
# ---------------------------------------------------------------------------

def assemble_load(space: FieldSpace, f) -> np.ndarray:
    """(w_i, f) load vector for a scalar field."""
    farr = coeff_arrays(space, f)
    b = np.zeros(space.ndof)
    for g, rows, dofs, fa in zip(space.master, space.member_rows,
                                 space.cell_node_dofs, farr):
        if len(rows) == 0:
            continue
        ref = g.ref
        hx, hy = _member_geometry(g, rows)
        feff = fa * (0.25 * hx * hy)[:, None]
        be = np.einsum("q,eq,qi->ei", ref.qw, feff, ref.values, optimize=True)
        np.add.at(b, dofs, be)
    return b


def assemble_grad_load(space: FieldSpace, vec_arrays: list) -> np.ndarray:
    """(grad w_i, v) with a master-aligned vector field v of shape (ne, nq, 2)."""
    b = np.zeros(space.ndof)
    for g, rows, dofs, va in zip(space.master, space.member_rows,
                                 space.cell_node_dofs, vec_arrays):
        if len(rows) == 0:
            continue
        ref = g.ref
        hx, hy = _member_geometry(g, rows)
        v = va[rows]
        # (2/hx) * detJ = hy/2 ; (2/hy) * detJ = hx/2
        bx = np.einsum("q,eq,qi->ei", ref.qw, v[:, :, 0] * (0.5 * hy)[:, None],
                       ref.grad_x, optimize=True)
        by = np.einsum("q,eq,qi->ei", ref.qw, v[:, :, 1] * (0.5 * hx)[:, None],
                       ref.grad_y, optimize=True)
        np.add.at(b, dofs, bx + by)
    return b


def assemble_div_load(space: FieldSpace, f) -> np.ndarray:
    """(div v_i, f) load for a 2-vector space."""
    if space.arity != 2:
        raise AssemblyError("div load needs a 2-vector space")
    farr = coeff_arrays(space, f)
    b = np.zeros(space.ndof)
    for g, rows, node_dofs, fa in zip(space.master, space.member_rows,
                                      space.cell_node_dofs, farr):
        if len(rows) == 0:
            continue
        ref = g.ref
        hx, hy = _member_geometry(g, rows)
        bx = np.einsum("q,eq,qi->ei", ref.qw, fa * (0.5 * hy)[:, None],
                       ref.grad_x, optimize=True)
        by = np.einsum("q,eq,qi->ei", ref.qw, fa * (0.5 * hx)[:, None],
                       ref.grad_y, optimize=True)
        np.add.at(b, node_dofs * 2, bx)
        np.add.at(b, node_dofs * 2 + 1, by)
    return b


def eval_qp(space: FieldSpace, vec: np.ndarray) -> list:
    """Scalar field values at master quadrature points (zeros off-support)."""
    out = []
    for g, rows, dofs in zip(space.master, space.member_rows,
                             space.cell_node_dofs):
        arr = np.zeros((g.n_elems, len(g.ref.qw)))
        if len(rows):
            arr[rows] = np.einsum("ei,qi->eq", vec[dofs], g.ref.values)
        out.append(arr)
    return out


def eval_grad_qp(space: FieldSpace, vec: np.ndarray) -> list:
    """Scalar field gradients at master quadrature points, (ne, nq, 2)."""
    out = []
    for g, rows, dofs in zip(space.master, space.member_rows,
                             space.cell_node_dofs):
        arr = np.zeros((g.n_elems, len(g.ref.qw), 2))
        if len(rows):
            hx, hy = _member_geometry(g, rows)
            c = vec[dofs]
            arr[rows, :, 0] = np.einsum("ei,qi->eq", c, g.ref.grad_x) \
                * (2.0 / hx)[:, None]
            arr[rows, :, 1] = np.einsum("ei,qi->eq", c, g.ref.grad_y) \
                * (2.0 / hy)[:, None]
        out.append(arr)
    return out


def eval_strain_qp(space: FieldSpace, vec: np.ndarray) -> list:
    """(eps11, eps22, eps12) of a displacement field at quadrature points."""
    if space.arity != 2:
        raise AssemblyError("strain evaluation needs a 2-vector space")
    out = []
    for g, rows, node_dofs in zip(space.master, space.member_rows,
                                  space.cell_node_dofs):
        arr = np.zeros((g.n_elems, len(g.ref.qw), 3))
        if len(rows):
            hx, hy = _member_geometry(g, rows)
            ux = vec[node_dofs * 2]
            uy = vec[node_dofs * 2 + 1]
            dux_dx = np.einsum("ei,qi->eq", ux, g.ref.grad_x) * (2.0 / hx)[:, None]
            duy_dy = np.einsum("ei,qi->eq", uy, g.ref.grad_y) * (2.0 / hy)[:, None]
            dux_dy = np.einsum("ei,qi->eq", ux, g.ref.grad_y) * (2.0 / hy)[:, None]
            duy_dx = np.einsum("ei,qi->eq", uy, g.ref.grad_x) * (2.0 / hx)[:, None]
            arr[rows, :, 0] = dux_dx
            arr[rows, :, 1] = duy_dy
            arr[rows, :, 2] = 0.5 * (dux_dy + duy_dx)
        out.append(arr)
    return out


def integrate(space: FieldSpace, arrays: list, region: frozenset | None = None) -> float:
    """Integral of a master-aligned qp array over the support (or a region)."""
    total = 0.0
    for g, rows, arr in zip(space.master, space.member_rows, arrays):
        if len(rows) == 0:
            continue
        jw = g.jac_weights()[rows]
        vals = arr[rows]
        if region is not None:
            keep = np.isin(g.tag[rows], list(region))
            jw, vals = jw[keep], vals[keep]
        total += float((jw * vals).sum())
    return total


def region_area(space: FieldSpace, region: frozenset | None = None) -> float:
    ones = [np.ones((g.n_elems, len(g.ref.qw))) for g in space.master]
    return integrate(space, ones, region)


# ---------------------------------------------------------------------------
# Edge (boundary / interface) terms
# ---------------------------------------------------------------------------

def trace_operator(grid: NodeGrid, edges: Sequence[EdgeRef]):
    """Trace operator ``T`` and quadrature weights ``w`` over a list of edges.

    Rows of ``T`` are the edge quadrature points (``degree +
    EDGE_QUAD_EXTRA`` Gauss points per edge, edges in list order), columns
    the grid nodes; ``restrict_trace`` selects one field's columns.  With a
    field vector ``v`` and point values ``g``, ``T @ v`` is the trace of
    ``v``, ``T.T @ (w * g)`` the load <w_i, g>, ``w @ g`` the integral of
    ``g`` over the edges and ``trace_mass(T, w, c)`` the edge mass.
    """
    if not edges:
        return sp.csr_matrix((0, grid.n_nodes)), np.zeros(0)
    rows, cols, vals, weights = [], [], [], []
    n_pts = 0
    for edge in edges:
        r = basis.ref1d(edge.degree, edge.degree + EDGE_QUAD_EXTRA)
        nq, nb = r.values.shape
        rows.append(np.repeat(np.arange(n_pts, n_pts + nq), nb))
        cols.append(np.tile(grid.edge_nodes(edge), nq))
        vals.append(r.values.ravel())
        weights.append(r.rule.weights * 0.5 * edge.length)
        n_pts += nq
    t = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n_pts, grid.n_nodes))
    return t, np.concatenate(weights)


def restrict_trace(space: FieldSpace, t: sp.csr_matrix) -> sp.csr_matrix:
    """Restrict a grid-node trace operator to the DOFs of a scalar field."""
    if space.arity != 1:
        raise AssemblyError("traces are implemented for scalar fields")
    cols = space.node_index[t.indices]
    if np.any(cols < 0):
        raise ValueError(f"trace operator reaches outside the support of "
                         f"field '{space.name}'")
    return sp.csr_matrix((t.data, cols, t.indptr),
                         shape=(t.shape[0], space.ndof))


def trace_mass(t: sp.spmatrix, w: np.ndarray, coeff) -> sp.csr_matrix:
    """Edge mass T^T diag(w c) T, i.e. <w_i, c w_j> over the edges of ``t``.

    ``coeff`` is a scalar or one value per quadrature point; it must be
    nonnegative (the matrix is positive semidefinite by construction).
    """
    c = np.broadcast_to(np.asarray(coeff, dtype=float), w.shape)
    if np.any(c < 0.0):
        raise AssemblyError("edge mass coefficient must be nonnegative")
    return (t.T @ sp.diags(w * c) @ t).tocsr()


# ---------------------------------------------------------------------------
# Constraint handling
# ---------------------------------------------------------------------------

def constrain(space: FieldSpace, mat: sp.spmatrix,
              rhs: np.ndarray | None = None):
    """Reduce a full-DOF system to the free DOFs (with Dirichlet lifting)."""
    free = np.nonzero(space.free)[0]
    a_csr = mat.tocsr()
    a_ff = a_csr[free][:, free]
    if rhs is None:
        return a_ff
    cons = np.nonzero(space.constrained)[0]
    b_f = rhs[free].copy()
    if len(cons) and np.any(space.constraint_values[cons] != 0.0):
        b_f -= a_csr[free][:, cons] @ space.constraint_values[cons]
    return a_ff, b_f


def expand(space: FieldSpace, x_free: np.ndarray) -> np.ndarray:
    """Scatter a free-DOF solution back to the full vector."""
    out = space.constraint_values.copy()
    out[space.free] = x_free
    return out


def relative_asymmetry(mat: sp.spmatrix) -> float:
    """max |A - A^T| / max |A| (0 for an empty matrix)."""
    a = mat.tocsr()
    scale = np.abs(a.data).max() if a.nnz else 0.0
    if scale == 0.0:
        return 0.0
    diff = (a - a.T).tocoo()
    err = np.abs(diff.data).max() if diff.nnz else 0.0
    return float(err / scale)
