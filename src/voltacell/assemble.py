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
field space; ``constrain`` reduces one to its free-DOF block (the essential
constraints are homogeneous and eliminated by reduction, never by penalties,
so SPD structure survives).

Pointwise data lives on the field space's support: an array over the
support's quadrature points in their global order (``Support.points``),
as ``eval_qp`` returns it, with vector quantities component-major (a
gradient is (2, n), a strain (3, n)), so each component is contiguous.
Each degree group's points are one contiguous block of such an array
(``Support.occupied``), which reshapes without a copy to the group's
(n_member, nq) rows.  Coefficients may be given as a scalar, a
per-subdomain-tag dict, a callable ``f(x, y)`` evaluated at the support's
points, or a support array.  The per-sweep kernels follow one idiom:
evaluating a field at the points is the gather ``vec[dofs]`` times a
transposed reference table, one BLAS matmul per degree group written into
its block, and a volume load is one matmul per group whose element vectors
are summed into the DOFs by a single ``np.bincount`` over all groups
(``FieldSpace.cell_dofs``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from . import basis
from .mesh import EdgeSet
from .spaces import FieldSpace, NodeGrid, Support, tag_values

EDGE_QUAD_EXTRA = 2


class AssemblyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Coefficient resolution
# ---------------------------------------------------------------------------

def coeff_arrays(support: Support, coeff) -> list:
    """Resolve a coefficient spec into (n_member, nq) views of a support
    array, one per group the support occupies (see ``Support.occupied``)."""
    qp, pts = support.qp, support.points
    if callable(coeff):
        coeff = coeff(qp.x[pts], qp.y[pts])
    elif isinstance(coeff, dict):
        coeff = tag_values(coeff, qp.tag[pts])
    flat = np.asarray(coeff, dtype=float)
    if flat.shape != pts.shape:
        flat = np.broadcast_to(flat, pts.shape)
    return [flat[sl].reshape(len(rows), -1)
            for _, rows, _, sl in support.occupied]


# ---------------------------------------------------------------------------
# Fixed sparsity patterns
# ---------------------------------------------------------------------------

class FixedPattern:
    """A sorted CSR sparsity pattern and the data slot of each of its entries.

    ``slots`` (set by subclasses) is the position in the CSR data array of
    each entry of a list of (row, col) entries, duplicates allowed, so that
    summing values given per entry is one ``np.bincount``.  Every matrix made
    by ``with_data`` shares the two pattern arrays ``indptr`` and
    ``indices``.  ``ElementScatter`` builds its pattern and slots from runs
    of consecutive columns on the tensor grid, one sort over (row, level)
    keys; ``TraceMass`` takes the union of two scipy patterns and finds its
    slots with ``locate``.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, shape):
        """The pattern of canonical CSR arrays: sorted rows, no
        duplicates."""
        # scipy's index type, so that ``with_data`` converts nothing
        index = np.int32 if max(len(indices), *shape) < 2 ** 31 else np.int64
        self.shape = shape
        self.indptr = indptr.astype(index, copy=False)
        self.indices = indices.astype(index, copy=False)
        self.nnz = len(indices)

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


def midpoint_matrix(m: sp.csr_matrix, k: sp.csr_matrix,
                    dt: float) -> sp.csr_matrix:
    """M + dt/2 K, one sum of data arrays on M's pattern arrays, which K
    must share (one ``ElementScatter`` made both)."""
    if k.shape != m.shape or not all(a is b or np.array_equal(a, b) for a, b
                                     in ((k.indptr, m.indptr),
                                         (k.indices, m.indices))):
        raise AssemblyError("midpoint matrix: K does not share M's pattern")
    return FixedPattern(m.indptr, m.indices, m.shape).with_data(
        m.data + 0.5 * dt * k.data)


@dataclass(frozen=True)
class RefTables:
    """Reference integrals of one degree group, one row per quadrature point.

    A (n, nq) coefficient array times ``mass`` gives n element mass matrices
    flattened row-major, times ``load`` n element load vectors; the
    gradient tables stack two tables (xi rows over eta rows, or for
    ``cross`` the mixed xi-eta over eta-xi rows) and take (n, 2 nq)
    coefficients.  The reference weights are folded in.
    """

    mass: np.ndarray        # (nq, nbf^2): qw v_i v_j
    stiffness: np.ndarray   # (2 nq, nbf^2): qw dxi_i dxi_j; qw deta_i deta_j
    cross: np.ndarray       # (2 nq, nbf^2): qw dxi_i deta_j; qw deta_i dxi_j
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
        cross=np.vstack([outer(ref.grad_x, ref.grad_y),
                         outer(ref.grad_y, ref.grad_x)]),
        load=qw * ref.values,
        grad_load=np.vstack([qw * ref.grad_x, qw * ref.grad_y]))


class ElementScatter(FixedPattern):
    """The pattern of the node couplings of a support's elements.

    Its entries are those of every element matrix, degree group after degree
    group, each flattened row-major; ``groups`` holds (master group, member
    rows, slice of its entries, block of the support's points) for the
    groups the support occupies.  One scatter serves every field on the
    support, and a matrix assembled again with new coefficients keeps its
    pattern.
    """

    def __init__(self, support: Support):
        self.support = support
        self.groups = []
        # On the tensor grid, the columns of one pattern row on one y-node
        # level are consecutive support nodes, so an element's nbx nodes on a
        # level take consecutive slots.  One record per (element, row node,
        # level) holds its (row, level) key and its first column node.
        nny, nnx = support.grid.nny, support.grid.nnx
        keys, firsts, widths, start = [], [], [], 0
        for g, rows, dofs, block in support.occupied:
            m, n = dofs.shape
            nbx = g.px + 1
            level = g.nodes[rows, ::nbx] // nnx              # (m, nby)
            keys.append((dofs[:, :, None] * nny + level[:, None, :]).ravel())
            firsts.append(np.broadcast_to(dofs[:, None, ::nbx],
                                          (m, n, n // nbx)).ravel())
            widths.append(nbx)
            stop = start + dofs.size * n
            self.groups.append((g, rows, slice(start, stop), block))
            start = stop
        self.n_entries = start
        sizes = [len(k) for k in keys]
        keys, firsts = np.concatenate(keys), np.concatenate(firsts)
        ends = firsts + np.repeat(widths, sizes)
        # The records of one (row, level) key cover one run of columns
        # [lo, lo + width), whose first slot is run_slot.
        order = np.argsort(keys, kind="stable")      # timsort: fastest here
        new = np.r_[True, keys[order[1:]] != keys[order[:-1]]]
        heads = np.flatnonzero(new)
        lo = np.minimum.reduceat(firsts[order], heads)
        width = np.maximum.reduceat(ends[order], heads) - lo
        run_slot = np.cumsum(width) - width
        n, nnz = support.n_nodes, int(width.sum())
        row_len = np.bincount(keys[order[heads]] // nny, width, n)
        super().__init__(np.r_[0, np.cumsum(row_len)].astype(int),
                         np.repeat(lo - run_slot, width) + np.arange(nnz),
                         (n, n))
        run = np.empty(len(keys), dtype=np.intp)
        run[order] = np.cumsum(new) - 1
        first_slot = run_slot[run] + firsts - lo[run]
        self.slots = np.concatenate([
            (f[:, None] + np.arange(nbx)).ravel() for f, nbx in
            zip(np.split(first_slot, np.cumsum(sizes)[:-1]), widths)])

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
                                      coeff_arrays(self.support, coeff)):
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
        qp = self.support.qp
        for (g, rows, _, block), c in zip(self.groups,
                                          coeff_arrays(self.support, coeff)):
            if np.any(c <= 0.0):
                j = int(np.argmin(c))
                i = self.support.points[block.start + j]
                raise AssemblyError(
                    f"nonpositive {coeff_name} sample {c.flat[j]:.6g} at "
                    f"quadrature point ({qp.x[i]:.6g}, {qp.y[i]:.6g})")
            hx, hy = g.hx[rows], g.hy[rows]
            products.append((np.hstack([c * (hy / hx)[:, None],
                                        c * (hx / hy)[:, None]]),
                             ref_tables(g.px, g.py).stiffness))
        return self._assemble(products)

    def elasticity(self, shear, bulk) -> sp.csr_matrix:
        """Plane-strain elasticity matrix (sym grad v : C : sym grad u) on
        the 2-vector DOFs of the nodes (x and y of a node side by side).

        ``shear``/``bulk`` are coefficients of the moduli G, K; the 3D
        isotropic tensor with lambda = K - 2G/3 is used in its plane-strain
        restriction.  Each node coupling is a 2x2 block, so the matrix is
        assembled as one block-sparse matrix on this pattern.
        """
        xx, xy, yx, yy = products = ([], [], [], [])
        for (g, rows, _, _), shr, bulk_c in zip(
                self.groups, coeff_arrays(self.support, shear),
                coeff_arrays(self.support, bulk)):
            if np.any(shr <= 0.0) or np.any(bulk_c <= 0.0):
                raise AssemblyError("elastic moduli must be positive")
            lam = bulk_c - 2.0 * shr / 3.0
            lam2, tables = lam + 2 * shr, ref_tables(g.px, g.py)
            rx = (g.hy[rows] / g.hx[rows])[:, None]
            ry = (g.hx[rows] / g.hy[rows])[:, None]
            # (x,x): (lam+2G) dxdx + G dydy ; (y,y): (lam+2G) dydy + G dxdx
            xx.append((np.hstack([lam2 * rx, shr * ry]), tables.stiffness))
            yy.append((np.hstack([shr * rx, lam2 * ry]), tables.stiffness))
            # (x,y): lam dx_i dy_j + G dy_i dx_j, (y,x) its transpose
            # (unit jacobian factor)
            xy.append((np.hstack([lam, shr]), tables.cross))
            yx.append((np.hstack([shr, lam]), tables.cross))
        blocks = np.stack([self._assemble(p).data for p in products], axis=-1)
        n = 2 * self.shape[0]
        return sp.bsr_matrix((blocks.reshape(-1, 2, 2), self.indices,
                              self.indptr), shape=(n, n)).tocsr()


# ---------------------------------------------------------------------------
# Volume loads and field evaluation
# ---------------------------------------------------------------------------

def _sum_cells(space: FieldSpace, blocks: list) -> np.ndarray:
    """The global vector of element vectors summed into their DOFs: one
    block per occupied group, laid out as ``space.cell_dofs``."""
    return np.bincount(space.cell_dofs,
                       weights=np.concatenate([b.ravel() for b in blocks]),
                       minlength=space.ndof)


def assemble_load(space: FieldSpace, f) -> np.ndarray:
    """(w_i, f) load vector for a scalar field."""
    return _sum_cells(space, [
        (fa * (0.25 * g.hx[rows] * g.hy[rows])[:, None])
        @ ref_tables(g.px, g.py).load
        for (g, rows, _, _), fa in zip(space.support.occupied,
                                       coeff_arrays(space.support, f))])


def assemble_grad_load(space: FieldSpace, vec: np.ndarray) -> np.ndarray:
    """(grad w_i, v) with a vector field v given as a (2, n) support
    array."""
    blocks = []
    for g, rows, _, block in space.support.occupied:
        hx, hy = g.hx[rows], g.hy[rows]
        vx = vec[0, block].reshape(len(rows), -1)
        vy = vec[1, block].reshape(len(rows), -1)
        # (2/hx) * detJ = hy/2 ; (2/hy) * detJ = hx/2
        c = np.hstack([vx * (0.5 * hy)[:, None], vy * (0.5 * hx)[:, None]])
        blocks.append(c @ ref_tables(g.px, g.py).grad_load)
    return _sum_cells(space, blocks)


def assemble_div_load(space: FieldSpace, f) -> np.ndarray:
    """(div v_i, f) load for a 2-vector space."""
    if space.arity != 2:
        raise AssemblyError("div load needs a 2-vector space")
    blocks = []
    for (g, rows, _, _), fa in zip(space.support.occupied,
                                   coeff_arrays(space.support, f)):
        hx, hy = g.hx[rows], g.hy[rows]
        nq = fa.shape[1]
        table = ref_tables(g.px, g.py).grad_load
        # the x and y components of each node side by side
        blocks.append(np.stack([(fa * (0.5 * hy)[:, None]) @ table[:nq],
                                (fa * (0.5 * hx)[:, None]) @ table[nq:]],
                               axis=-1))
    return _sum_cells(space, blocks)


def eval_qp(space: FieldSpace, vec: np.ndarray) -> np.ndarray:
    """Scalar field values at the support's quadrature points, (n,)."""
    out = np.empty(len(space.support.points))
    for g, rows, dofs, block in space.support.occupied:
        np.matmul(vec[dofs], g.ref.values.T,
                  out=out[block].reshape(len(rows), -1))
    return out


def eval_grad_qp(space: FieldSpace, vec: np.ndarray) -> np.ndarray:
    """Scalar field gradients at the support's quadrature points, (2, n)."""
    out = np.empty((2, len(space.support.points)))
    for g, rows, dofs, block in space.support.occupied:
        m, c = len(rows), vec[dofs]
        np.multiply(c @ g.ref.grad_x.T, (2.0 / g.hx[rows])[:, None],
                    out=out[0, block].reshape(m, -1))
        np.multiply(c @ g.ref.grad_y.T, (2.0 / g.hy[rows])[:, None],
                    out=out[1, block].reshape(m, -1))
    return out


def eval_strain_qp(space: FieldSpace, vec: np.ndarray) -> np.ndarray:
    """(eps11, eps22, eps12) of a displacement field at the support's
    quadrature points, (3, n)."""
    return _eval_strain(space, vec, [(g.ref.grad_x, g.ref.grad_y)
                                     for g, *_ in space.support.occupied])


def eval_strain_nodes(space: FieldSpace, vec: np.ndarray) -> np.ndarray:
    """(eps11, eps22, eps12) of a displacement field at the nodes of every
    support cell, (3, n): the cells in the order of the support's points,
    each cell's nodes in the order of ``MasterGroup.nodes``."""
    tables = []
    for g, *_ in space.support.occupied:
        _, grads = basis.shape_eval((g.px, g.py), g.ref.node_grid())
        tables.append((grads[:, :, 0], grads[:, :, 1]))
    return _eval_strain(space, vec, tables)


def _eval_strain(space: FieldSpace, vec: np.ndarray, tables: list):
    """Strains at the points whose basis gradients ``tables`` holds, one
    (grad_x, grad_y) pair per occupied group, cell after cell."""
    if space.arity != 2:
        raise AssemblyError("strain evaluation needs a 2-vector space")
    sizes = [len(rows) * len(gx)
             for (_, rows, _, _), (gx, _) in zip(space.support.occupied,
                                                 tables)]
    offsets = np.cumsum([0] + sizes)
    out = np.empty((3, offsets[-1]))
    for k, ((g, rows, node_dofs, _), (gx, gy)) in enumerate(
            zip(space.support.occupied, tables)):
        m, block = len(rows), slice(offsets[k], offsets[k + 1])
        dx, dy = gx.T, gy.T
        sx, sy = (2.0 / g.hx[rows])[:, None], (2.0 / g.hy[rows])[:, None]
        ux, uy = vec[0::2][node_dofs], vec[1::2][node_dofs]
        e11, e22, e12 = (out[c, block].reshape(m, -1) for c in range(3))
        np.multiply(ux @ dx, sx, out=e11)
        np.multiply(uy @ dy, sy, out=e22)
        np.multiply(0.5, (ux @ dy) * sy + (uy @ dx) * sx, out=e12)
    return out


def integrate(support: Support, values: np.ndarray) -> float:
    """Integral over the support of a support array."""
    return float(support.qp.weight[support.points] @ values)


# ---------------------------------------------------------------------------
# Edge (boundary / interface) terms
# ---------------------------------------------------------------------------

def trace_operator(grid: NodeGrid, edges: EdgeSet):
    """Trace operator ``T`` and quadrature weights ``w`` over ``edges``.

    Rows of ``T`` are the edge quadrature points (``degree +
    EDGE_QUAD_EXTRA`` Gauss points per edge, edges in order), columns
    the grid nodes; ``restrict_trace`` selects one support's columns.  With a
    field vector ``v`` and point values ``g``, ``T @ v`` is the trace of
    ``v``, ``T.T @ (w * g)`` the load <w_i, g>, ``w @ g`` the integral of
    ``g`` over the edges and ``TraceMass(T, w, B).matrix(c)`` the edge mass
    T^T diag(w c) T added to a matrix ``B``.
    ``T`` is filled in CSR form directly, one pass per edge degree; each
    row holds the p + 1 nodes of its edge in axis order.
    """
    if not len(edges):
        return sp.csr_matrix((0, grid.n_nodes)), np.zeros(0)
    nb = edges.degree + 1
    nq = edges.degree + EDGE_QUAD_EXTRA
    point0 = np.cumsum(nq) - nq               # first point of each edge
    entry0 = np.cumsum(nq * nb) - nq * nb     # its first entry of T
    node0 = np.cumsum(nb) - nb                # its first node in ``nodes``
    nodes = grid.edge_nodes(edges)
    n_pts = int(nq.sum())
    indices = np.empty(int((nq * nb).sum()), dtype=nodes.dtype)
    data = np.empty(len(indices))
    weights = np.empty(n_pts)
    for p in np.unique(edges.degree):
        sel = np.flatnonzero(edges.degree == p)
        r = basis.ref1d(int(p), int(p) + EDGE_QUAD_EXTRA)
        n_q, n_b = r.values.shape
        at = entry0[sel][:, None] + np.arange(n_q * n_b)
        edge_nodes = nodes[node0[sel][:, None] + np.arange(n_b)]
        indices[at] = np.tile(edge_nodes, (1, n_q))
        data[at] = r.values.ravel()
        weights[point0[sel][:, None] + np.arange(n_q)] = \
            (r.rule.weights * 0.5)[None, :] * edges.length[sel][:, None]
    indptr = np.concatenate([[0], np.cumsum(np.repeat(nb, nq))])
    return sp.csr_matrix((data, indices, indptr),
                         shape=(n_pts, grid.n_nodes)), weights


def restrict_trace(support: Support, t: sp.csr_matrix) -> sp.csr_matrix:
    """Restrict a grid-node trace operator to the nodes of a support, which
    are the DOFs of every scalar field on it."""
    cols = support.node_index[t.indices]
    if np.any(cols < 0):
        raise ValueError(f"trace operator reaches outside the support of "
                         f"tags {set(support.selector)}")
    return sp.csr_matrix((t.data, cols, t.indptr),
                         shape=(t.shape[0], support.n_nodes))


class TraceMass(FixedPattern):
    """Edge masses T^T diag(w c) T of one trace operator, plus a fixed matrix.

    Quadrature point q of ``t`` adds T[q, a] T[q, b] w_q c_q to entry (a, b)
    for every pair (a, b) of its columns.  The pairs, their values without
    c_q and their points are found once, on the union of ``base``'s pattern
    and T^T T's; ``matrix(c)`` is then ``base`` plus one bincount over the
    slots that the pairs touch.
    """

    def __init__(self, t: sp.spmatrix, w: np.ndarray, base: sp.spmatrix):
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

        base = sp.csr_matrix(base)
        base.sum_duplicates()
        pairs = sp.csr_matrix((np.ones(len(rows)), (rows, cols)),
                              shape=(n, n))
        pairs.data[:] = 2.0
        # The union pattern marks base entries 1 (or 3) and the others 2;
        # both lists are row-major sorted, so the marked entries are the
        # base's in order.
        union = sp.csr_matrix((np.ones(base.nnz), base.indices, base.indptr),
                              shape=(n, n)) + pairs
        super().__init__(union.indptr, union.indices, union.shape)
        self.base_data = np.zeros(self.nnz)
        self.base_data[union.data != 2.0] = base.data
        self.slots = self.locate(rows, cols)
        # the slots the pairs touch, and the index of each pair's among them
        self.touched, self.pair_touched = np.unique(self.slots,
                                                    return_inverse=True)

    def matrix(self, coeff) -> sp.csr_matrix:
        """``base`` + T^T diag(w c) T; ``coeff`` is a scalar or one value per
        quadrature point, and must be nonnegative."""
        c = np.broadcast_to(np.asarray(coeff, dtype=float), self.w.shape)
        if np.any(c < 0.0):
            raise AssemblyError("edge mass coefficient must be nonnegative")
        data = self.base_data.copy()
        data[self.touched] += np.bincount(
            self.pair_touched, weights=self.pair_value * c[self.pair_point],
            minlength=len(self.touched))
        return self.with_data(data)


# ---------------------------------------------------------------------------
# Constraint handling
# ---------------------------------------------------------------------------

def block_diag(a: sp.csr_matrix, b: sp.csr_matrix) -> sp.csr_matrix:
    """The block-diagonal matrix [[a, 0], [0, b]] of two CSR matrices, their
    arrays concatenated."""
    return sp.csr_matrix(
        (np.concatenate([a.data, b.data]),
         np.concatenate([a.indices, b.indices + a.shape[1]]),
         np.concatenate([a.indptr, b.indptr[1:] + a.nnz])),
        shape=(a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]))


def constrain(space: FieldSpace, mat: sp.spmatrix) -> sp.csr_matrix:
    """The free-DOF block of a full-DOF matrix.  The essential constraints
    are homogeneous, so they need no lifting: the reduced load of a full
    load vector ``b`` is ``b[space.free]``."""
    free = np.nonzero(space.free)[0]
    return mat.tocsr()[free][:, free]


def expand(space: FieldSpace, x_free: np.ndarray) -> np.ndarray:
    """Scatter a free-DOF solution back to the full vector, with 0 on every
    constrained DOF."""
    out = np.zeros(space.ndof)
    out[space.free] = x_free
    return out

