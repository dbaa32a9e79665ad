"""Sparse assembly of mass/stiffness/elasticity matrices and load vectors.

All elements are axis-aligned rectangles, so jacobians are constant per
element.  Per degree group, element matrices are a BLAS matmul of the
quadrature-point coefficients against reference tables (``ref_tables``).
Each matrix lives on a fixed CSR pattern (``FixedPattern``) that knows the
data slot of every element-matrix or edge-pair entry, so assembling it is one
``np.bincount`` into the data array: a matrix re-assembled with new
coefficients (the c_s matrix every sweep, through ``ElementScatter``; the
potential pair's interface mass, through ``TraceMass``) keeps its pattern and
allocates no index arrays.  Matrices are returned on the full DOF set of the
field space; ``constrain`` reduces a system to the free DOFs (essential
constraints are eliminated by reduction, never by penalties, so SPD structure
survives).

Coefficients may be given as a scalar, a per-subdomain-tag dict, a callable
``f(x, y)`` evaluated at quadrature points, or a flat array over the mesh's
quadrature points (``spaces.QuadPoints``) as produced by ``eval_qp``.  The
assemblers and evaluators slice flat arrays per degree group for their
matmuls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from . import basis
from .mesh import EdgeRef
from .spaces import FieldSpace, NodeGrid, tag_values

EDGE_QUAD_EXTRA = 2


class AssemblyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Coefficient resolution
# ---------------------------------------------------------------------------

def coeff_arrays(space: FieldSpace, coeff) -> list:
    """Resolve a coefficient spec into (n_member, nq) arrays, one per group
    the space occupies (see ``FieldSpace.occupied``)."""
    qp = space.qp
    if callable(coeff):
        coeff = coeff(qp.x, qp.y)
    elif isinstance(coeff, dict):
        coeff = tag_values(coeff, qp.tag)
    flat = np.broadcast_to(np.asarray(coeff, dtype=float), (qp.n,))
    return [flat[block].reshape(g.n_elems, -1)[rows]
            for g, rows, _, block in space.occupied()]


# ---------------------------------------------------------------------------
# Fixed sparsity patterns
# ---------------------------------------------------------------------------

class FixedPattern:
    """A sorted CSR sparsity pattern and the data slot of each of its entries.

    ``slots`` (set by subclasses) is the position in the CSR data array of
    each entry of a list of (row, col) entries, duplicates allowed, so that
    summing values given per entry is one ``np.bincount``.  Every matrix made
    by ``with_data`` shares the two pattern arrays ``indptr`` and
    ``indices``.
    """

    def __init__(self, pattern: sp.csr_matrix):
        pattern.sum_duplicates()        # sorted rows, no duplicates
        self.shape = pattern.shape
        self.indptr, self.indices = pattern.indptr, pattern.indices
        self.nnz = pattern.nnz
        self.slots = None

    def locate(self, rows, cols) -> np.ndarray:
        """Data slots of (row, col) entries of the pattern."""
        # scipy's element lookup: a binary search within each sorted row
        ids = sp.csr_array((np.arange(self.nnz, dtype=float), self.indices,
                            self.indptr), shape=self.shape)
        return ids[rows, cols].astype(np.intp)

    def sum(self, entries: np.ndarray) -> np.ndarray:
        """CSR data array of the entries' values summed into their slots."""
        return np.bincount(self.slots, weights=entries, minlength=self.nnz)

    def with_data(self, data: np.ndarray) -> sp.csr_matrix:
        """The matrix with this pattern and data array."""
        mat = sp.csr_matrix((data, self.indices, self.indptr),
                            shape=self.shape)
        # the constructor takes views; keep the pattern arrays themselves
        mat.indptr, mat.indices = self.indptr, self.indices
        mat.has_canonical_format = True
        return mat


@dataclass(frozen=True)
class RefTables:
    """Reference integrals of one degree group, one row per quadrature point.

    A (n, nq) coefficient array times ``mass`` gives n element mass matrices
    flattened row-major, times ``load`` n element load vectors; the
    gradient tables stack the xi rows over the eta rows and take (n, 2 nq)
    coefficients.  The reference weights are folded in.
    """

    mass: np.ndarray        # (nq, nbf^2): qw v_i v_j
    stiffness: np.ndarray   # (2 nq, nbf^2): qw dxi_i dxi_j; qw deta_i deta_j
    load: np.ndarray        # (nq, nbf): qw v_i
    grad_load: np.ndarray   # (2 nq, nbf): qw dxi_i; qw deta_i


@lru_cache(maxsize=None)
def ref_tables(px: int, py: int) -> RefTables:
    ref = basis.ref_element(px, py)
    qw = ref.qw[:, None]

    def outer(a, b):
        return (qw[:, :, None] * a[:, :, None] * b[:, None, :]) \
            .reshape(len(qw), -1)

    return RefTables(
        mass=outer(ref.values, ref.values),
        stiffness=np.vstack([outer(ref.grad_x, ref.grad_x),
                             outer(ref.grad_y, ref.grad_y)]),
        load=qw * ref.values,
        grad_load=np.vstack([qw * ref.grad_x, qw * ref.grad_y]))


class ElementScatter(FixedPattern):
    """The pattern of the node couplings of a field space's elements.

    Its entries are those of every element matrix, degree group after degree
    group, each flattened row-major; ``groups`` holds (master group, member
    rows, slice of its entries, block of the quadrature layout) for the
    groups the space occupies.  The
    pattern depends only on the support, so one scatter serves every field
    on it, and a matrix assembled again with new coefficients keeps it.
    """

    def __init__(self, space: FieldSpace):
        self.space = space
        self.groups = []
        rows, cols = [], []
        start = 0
        for g, row_idx, dofs, block in space.occupied():
            n = dofs.shape[1]
            rows.append(np.repeat(dofs, n, axis=1).ravel())
            cols.append(np.tile(dofs, (1, n)).ravel())
            stop = start + dofs.size * n
            self.groups.append((g, row_idx, slice(start, stop), block))
            start = stop
        self.n_entries = start
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        super().__init__(sp.csr_matrix(
            (np.ones(len(rows)), (rows, cols)),
            shape=(space.n_nodes, space.n_nodes)))
        self.slots = self.locate(rows, cols)

    def _assemble(self, products) -> sp.csr_matrix:
        """The matrix whose element matrices are, group by group, the
        products (coefficient rows) @ (reference table)."""
        entries = np.empty(self.n_entries)
        for (_, rows, sl, _), (c, table) in zip(self.groups, products):
            np.matmul(c, table, out=entries[sl].reshape(len(rows), -1))
        return self.with_data(self.sum(entries))

    def mass(self, coeff=1.0) -> sp.csr_matrix:
        """Weighted L2 mass matrix (w_i, c w_j) over the support."""
        products = []
        for (g, rows, _, _), c in zip(self.groups,
                                      coeff_arrays(self.space, coeff)):
            if np.any(c <= 0.0):
                raise AssemblyError("mass coefficient must be strictly "
                                    "positive")
            hx, hy = g.hx[rows], g.hy[rows]
            products.append((c * (0.25 * hx * hy)[:, None],
                             ref_tables(g.px, g.py).mass))
        return self._assemble(products)

    def stiffness(self, coeff=1.0,
                  coeff_name: str = "diffusivity") -> sp.csr_matrix:
        """Scalar diffusion matrix (grad w_i, c grad w_j); c must stay
        positive."""
        products = []
        qp = self.space.qp
        for (g, rows, _, block), c in zip(self.groups,
                                          coeff_arrays(self.space, coeff)):
            if np.any(c <= 0.0):
                e, q = np.unravel_index(int(np.argmin(c)), c.shape)
                i = block.start + rows[e] * c.shape[1] + q
                raise AssemblyError(
                    f"nonpositive {coeff_name} sample {c[e, q]:.6g} at "
                    f"quadrature point ({qp.x[i]:.6g}, {qp.y[i]:.6g})")
            hx, hy = g.hx[rows], g.hy[rows]
            products.append((np.hstack([c * (hy / hx)[:, None],
                                        c * (hx / hy)[:, None]]),
                             ref_tables(g.px, g.py).stiffness))
        return self._assemble(products)

    def elasticity(self, shear, bulk) -> sp.csr_matrix:
        """Plane-strain elasticity matrix (sym grad v : C : sym grad u) on
        the 2-vector DOFs of the nodes (x and y of a node side by side).

        ``shear``/``bulk`` are per-tag dicts (or scalars) of the moduli G, K;
        the 3D isotropic tensor with lambda = K - 2G/3 is used in its
        plane-strain restriction.  Each node coupling is a 2x2 block, so the
        matrix is assembled as one block-sparse matrix on this pattern.
        """
        def per_elem(tags, spec):
            if isinstance(spec, dict):
                return tag_values(spec, tags)
            return np.full(len(tags), float(spec))

        comps = np.empty((2, 2, self.n_entries))
        for g, rows, sl, _ in self.groups:
            ref = g.ref
            hx, hy = g.hx[rows], g.hy[rows]
            g_e = per_elem(g.tag[rows], shear)
            k_e = per_elem(g.tag[rows], bulk)
            if np.any(g_e <= 0.0) or np.any(k_e <= 0.0):
                raise AssemblyError("elastic moduli must be positive")
            lam_e = k_e - 2.0 * g_e / 3.0

            kxx = np.einsum("q,qi,qj->ij", ref.qw, ref.grad_x, ref.grad_x)
            kyy = np.einsum("q,qi,qj->ij", ref.qw, ref.grad_y, ref.grad_y)
            kxy = np.einsum("q,qi,qj->ij", ref.qw, ref.grad_x, ref.grad_y)

            rx = (hy / hx)[:, None, None]
            ry = (hx / hy)[:, None, None]
            lam, shr = lam_e[:, None, None], g_e[:, None, None]
            # (x,x): (lam+2G) dxdx + G dydy ; (y,y): (lam+2G) dydy + G dxdx
            comps[0, 0, sl] = ((lam + 2 * shr) * rx * kxx
                               + shr * ry * kyy).ravel()
            comps[1, 1, sl] = ((lam + 2 * shr) * ry * kyy
                               + shr * rx * kxx).ravel()
            # (x,y): lam dx_i dy_j + G dy_i dx_j  (unit jacobian factor)
            kxy_e = lam * kxy + shr * kxy.T
            comps[0, 1, sl] = kxy_e.ravel()
            comps[1, 0, sl] = np.swapaxes(kxy_e, 1, 2).ravel()
        blocks = np.stack([self.sum(comps[a, b])
                           for a in (0, 1) for b in (0, 1)], axis=-1)
        n = 2 * self.shape[0]
        return sp.bsr_matrix((blocks.reshape(-1, 2, 2), self.indices,
                              self.indptr), shape=(n, n)).tocsr()


# ---------------------------------------------------------------------------
# Volume matrices
# ---------------------------------------------------------------------------

def assemble_mass(space: FieldSpace, coeff=1.0) -> sp.csr_matrix:
    """Weighted L2 mass matrix (w_i, c w_j) over the field support."""
    if space.arity != 1:
        raise AssemblyError("mass assembly implemented for scalar fields")
    return ElementScatter(space).mass(coeff)


def assemble_stiffness(space: FieldSpace, coeff=1.0,
                       coeff_name: str = "diffusivity") -> sp.csr_matrix:
    """Scalar diffusion matrix (grad w_i, c grad w_j); c must stay positive."""
    if space.arity != 1:
        raise AssemblyError("use assemble_elasticity for vector fields")
    return ElementScatter(space).stiffness(coeff, coeff_name)


def assemble_elasticity(space: FieldSpace, shear, bulk) -> sp.csr_matrix:
    """Plane-strain elasticity matrix of a 2-vector space (see
    ``ElementScatter.elasticity``)."""
    if space.arity != 2:
        raise AssemblyError("elasticity needs a 2-vector space")
    return ElementScatter(space).elasticity(shear, bulk)


# ---------------------------------------------------------------------------
# Volume loads and field evaluation
# ---------------------------------------------------------------------------

def assemble_load(space: FieldSpace, f) -> np.ndarray:
    """(w_i, f) load vector for a scalar field."""
    b = np.zeros(space.ndof)
    for (g, rows, dofs, _), fa in zip(space.occupied(),
                                      coeff_arrays(space, f)):
        be = (fa * (0.25 * g.hx[rows] * g.hy[rows])[:, None]) \
            @ ref_tables(g.px, g.py).load
        np.add.at(b, dofs, be)
    return b


def assemble_grad_load(space: FieldSpace, vec: np.ndarray) -> np.ndarray:
    """(grad w_i, v) with a vector field v given as a flat (n_qp, 2) array."""
    b = np.zeros(space.ndof)
    for g, rows, dofs, block in space.occupied():
        hx, hy = g.hx[rows], g.hy[rows]
        v = vec[block].reshape(g.n_elems, -1, 2)[rows]
        # (2/hx) * detJ = hy/2 ; (2/hy) * detJ = hx/2
        c = np.hstack([v[:, :, 0] * (0.5 * hy)[:, None],
                       v[:, :, 1] * (0.5 * hx)[:, None]])
        np.add.at(b, dofs, c @ ref_tables(g.px, g.py).grad_load)
    return b


def assemble_div_load(space: FieldSpace, f) -> np.ndarray:
    """(div v_i, f) load for a 2-vector space."""
    if space.arity != 2:
        raise AssemblyError("div load needs a 2-vector space")
    b = np.zeros(space.ndof)
    for (g, rows, node_dofs, _), fa in zip(space.occupied(),
                                           coeff_arrays(space, f)):
        hx, hy = g.hx[rows], g.hy[rows]
        nq = fa.shape[1]
        table = ref_tables(g.px, g.py).grad_load
        np.add.at(b, node_dofs * 2, (fa * (0.5 * hy)[:, None]) @ table[:nq])
        np.add.at(b, node_dofs * 2 + 1,
                  (fa * (0.5 * hx)[:, None]) @ table[nq:])
    return b


def eval_qp(space: FieldSpace, vec: np.ndarray) -> np.ndarray:
    """Scalar field values at the quadrature points, (n_qp,) (zeros
    off-support)."""
    out = np.zeros(space.qp.n)
    for g, rows, dofs, block in space.occupied():
        out[block].reshape(g.n_elems, -1)[rows] = np.einsum(
            "ei,qi->eq", vec[dofs], g.ref.values)
    return out


def eval_grad_qp(space: FieldSpace, vec: np.ndarray) -> np.ndarray:
    """Scalar field gradients at the quadrature points, (n_qp, 2)."""
    out = np.zeros((space.qp.n, 2))
    for g, rows, dofs, block in space.occupied():
        arr = out[block].reshape(g.n_elems, -1, 2)
        c = vec[dofs]
        arr[rows, :, 0] = np.einsum("ei,qi->eq", c, g.ref.grad_x) \
            * (2.0 / g.hx[rows])[:, None]
        arr[rows, :, 1] = np.einsum("ei,qi->eq", c, g.ref.grad_y) \
            * (2.0 / g.hy[rows])[:, None]
    return out


def eval_strain_qp(space: FieldSpace, vec: np.ndarray) -> np.ndarray:
    """(eps11, eps22, eps12) of a displacement field at the quadrature
    points, (n_qp, 3)."""
    return _eval_strain(space, vec, [(g.ref.grad_x, g.ref.grad_y)
                                     for g in space.master])


def eval_strain_nodes(space: FieldSpace, vec: np.ndarray) -> np.ndarray:
    """(eps11, eps22, eps12) of a displacement field at the nodes of every
    cell, (n, 3): the cells in the order of the quadrature layout, each
    cell's nodes in the order of ``MasterGroup.nodes``."""
    tables = []
    for g in space.master:
        _, grads = basis.shape_eval((g.px, g.py), g.ref.node_grid())
        tables.append((grads[:, :, 0], grads[:, :, 1]))
    return _eval_strain(space, vec, tables)


def _eval_strain(space: FieldSpace, vec: np.ndarray, tables: list):
    """Strains at the points whose basis gradients ``tables`` holds, one
    (grad_x, grad_y) pair per master group (zeros off-support)."""
    if space.arity != 2:
        raise AssemblyError("strain evaluation needs a 2-vector space")
    sizes = [g.n_elems * len(gx) for g, (gx, _) in zip(space.master, tables)]
    offsets = np.cumsum([0] + sizes)
    out = np.zeros((offsets[-1], 3))
    for k, (g, rows, node_dofs) in enumerate(zip(
            space.master, space.member_rows, space.cell_node_dofs)):
        if len(rows) == 0:
            continue
        grad_x, grad_y = tables[k]
        sx, sy = (2.0 / g.hx[rows])[:, None], (2.0 / g.hy[rows])[:, None]
        ux = vec[node_dofs * 2]
        uy = vec[node_dofs * 2 + 1]
        arr = out[offsets[k]:offsets[k + 1]].reshape(g.n_elems, -1, 3)
        arr[rows, :, 0] = np.einsum("ei,qi->eq", ux, grad_x) * sx
        arr[rows, :, 1] = np.einsum("ei,qi->eq", uy, grad_y) * sy
        arr[rows, :, 2] = 0.5 * (np.einsum("ei,qi->eq", ux, grad_y) * sy
                                 + np.einsum("ei,qi->eq", uy, grad_x) * sx)
    return out


def integrate(space: FieldSpace, values: np.ndarray,
              region: frozenset | None = None) -> float:
    """Integral of a flat quadrature-point array over the support (or the
    part of it in a region)."""
    qp = space.qp
    tags = space.selector if region is None else space.selector & region
    keep = np.isin(qp.tag, list(tags))
    return float((qp.weight[keep] * values[keep]).sum())


def region_area(space: FieldSpace, region: frozenset | None = None) -> float:
    return integrate(space, np.ones(space.qp.n), region)


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


class TraceMass(FixedPattern):
    """Edge masses T^T diag(w c) T of one trace operator, plus a fixed matrix.

    Quadrature point q of ``t`` adds T[q, a] T[q, b] w_q c_q to entry (a, b)
    for every pair (a, b) of its columns.  The pairs, their values without
    c_q and their points are found once, on the union of ``base``'s pattern
    and T^T T's; ``matrix(c)`` is then ``base`` plus one bincount.
    """

    def __init__(self, t: sp.spmatrix, w: np.ndarray,
                 base: sp.spmatrix | None = None):
        t = t.tocsr()
        n = t.shape[1]
        lens = np.diff(t.indptr)
        point = np.repeat(np.arange(t.shape[0]), lens)  # of each entry of t
        per = lens[point]           # pairs that each entry of t starts
        first = np.repeat(np.arange(t.nnz), per)
        second = np.repeat(t.indptr[point] - np.cumsum(per) + per, per) \
            + np.arange(len(first))
        self.w = w
        self.pair_point = point[first]
        self.pair_value = t.data[first] * t.data[second] * w[self.pair_point]
        rows, cols = t.indices[first], t.indices[second]

        base = sp.csr_matrix((n, n)) if base is None else sp.csr_matrix(base)
        base.sum_duplicates()
        pairs = sp.csr_matrix((np.ones(len(rows)), (rows, cols)),
                              shape=(n, n))
        pairs.data[:] = 2.0
        # The union pattern marks base entries 1 (or 3) and the others 2;
        # both lists are row-major sorted, so the marked entries are the
        # base's in order.
        union = sp.csr_matrix((np.ones(base.nnz), base.indices, base.indptr),
                              shape=(n, n)) + pairs
        super().__init__(union)
        self.base_data = np.zeros(self.nnz)
        self.base_data[union.data != 2.0] = base.data
        self.slots = self.locate(rows, cols)

    def matrix(self, coeff) -> sp.csr_matrix:
        """``base`` + T^T diag(w c) T; ``coeff`` is a scalar or one value per
        quadrature point, and must be nonnegative."""
        c = np.broadcast_to(np.asarray(coeff, dtype=float), self.w.shape)
        if np.any(c < 0.0):
            raise AssemblyError("edge mass coefficient must be nonnegative")
        return self.with_data(self.base_data
                              + self.sum(self.pair_value * c[self.pair_point]))


def trace_mass(t: sp.spmatrix, w: np.ndarray, coeff) -> sp.csr_matrix:
    """Edge mass T^T diag(w c) T, i.e. <w_i, c w_j> over the edges of ``t``.

    ``coeff`` is a scalar or one value per quadrature point; it must be
    nonnegative (the matrix is positive semidefinite by construction).
    """
    return TraceMass(t, w).matrix(coeff)


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

