"""Independent dense assembly oracles.

Brute-force reference implementations used to validate the sparse assemblers:
Lagrange bases are built as explicit poly1d coefficient polynomials (not the
barycentric form the production code uses) and integrals use a fresh, denser
tensor Gauss rule.  Everything is plain nested loops over dense matrices.
"""

import numpy as np

from voltacell.basis import gauss_lobatto_nodes


def lagrange_polys(p):
    nodes = gauss_lobatto_nodes(p)
    polys = []
    for j in range(p + 1):
        others = np.delete(nodes, j)
        poly = np.poly1d(others, r=True)
        polys.append(poly / poly(nodes[j]))
    return polys


def _cells_of(space):
    """Flatten a FieldSpace into per-cell records the oracle iterates over."""
    cells = []
    for g, rows, dofs in zip(space.master, space.member_rows,
                             space.cell_node_dofs):
        for k, row in enumerate(rows):
            cells.append(dict(
                x0=g.x0[row], y0=g.y0[row], hx=g.hx[row], hy=g.hy[row],
                px=g.px, py=g.py, tag=int(g.tag[row]), dofs=dofs[k]))
    return cells


def _tensor_rule(n):
    pts, wts = np.polynomial.legendre.leggauss(n)
    return pts, wts


def dense_mass(space, coeff_fn, n_quad=12):
    """Dense Gram matrix with coefficient coeff_fn(x, y, tag)."""
    n = space.ndof
    out = np.zeros((n, n))
    pts, wts = _tensor_rule(n_quad)
    for cell in _cells_of(space):
        lx = lagrange_polys(cell["px"])
        ly = lagrange_polys(cell["py"])
        nbx, nby = cell["px"] + 1, cell["py"] + 1
        dofs = cell["dofs"]
        jac = 0.25 * cell["hx"] * cell["hy"]
        for qx, wx in zip(pts, wts):
            x = cell["x0"] + (qx + 1) * 0.5 * cell["hx"]
            for qy, wy in zip(pts, wts):
                y = cell["y0"] + (qy + 1) * 0.5 * cell["hy"]
                c = coeff_fn(x, y, cell["tag"]) * wx * wy * jac
                vals = np.array([ly[b](qy) * lx[a](qx)
                                 for b in range(nby) for a in range(nbx)])
                out[np.ix_(dofs, dofs)] += c * np.outer(vals, vals)
    return out


def dense_stiffness(space, coeff_fn, n_quad=12):
    n = space.ndof
    out = np.zeros((n, n))
    pts, wts = _tensor_rule(n_quad)
    for cell in _cells_of(space):
        lx = lagrange_polys(cell["px"])
        ly = lagrange_polys(cell["py"])
        dlx = [p.deriv() for p in lx]
        dly = [p.deriv() for p in ly]
        nbx, nby = cell["px"] + 1, cell["py"] + 1
        dofs = cell["dofs"]
        jac = 0.25 * cell["hx"] * cell["hy"]
        sx, sy = 2.0 / cell["hx"], 2.0 / cell["hy"]
        for qx, wx in zip(pts, wts):
            x = cell["x0"] + (qx + 1) * 0.5 * cell["hx"]
            for qy, wy in zip(pts, wts):
                y = cell["y0"] + (qy + 1) * 0.5 * cell["hy"]
                c = coeff_fn(x, y, cell["tag"]) * wx * wy * jac
                gx = np.array([ly[b](qy) * dlx[a](qx) * sx
                               for b in range(nby) for a in range(nbx)])
                gy = np.array([dly[b](qy) * lx[a](qx) * sy
                               for b in range(nby) for a in range(nbx)])
                out[np.ix_(dofs, dofs)] += c * (np.outer(gx, gx)
                                                + np.outer(gy, gy))
    return out


def dense_elasticity(space, shear_of_tag, bulk_of_tag, n_quad=12):
    """Plane-strain elasticity via explicit B^T D B integration."""
    n = space.ndof
    out = np.zeros((n, n))
    pts, wts = _tensor_rule(n_quad)
    for cell in _cells_of(space):
        g_mod = shear_of_tag(cell["tag"])
        k_mod = bulk_of_tag(cell["tag"])
        lam = k_mod - 2.0 * g_mod / 3.0
        d_mat = np.array([[lam + 2 * g_mod, lam, 0.0],
                          [lam, lam + 2 * g_mod, 0.0],
                          [0.0, 0.0, g_mod]])
        lx = lagrange_polys(cell["px"])
        ly = lagrange_polys(cell["py"])
        dlx = [p.deriv() for p in lx]
        dly = [p.deriv() for p in ly]
        nbx, nby = cell["px"] + 1, cell["py"] + 1
        nbf = nbx * nby
        dofs = np.empty(2 * nbf, dtype=int)
        dofs[0::2] = cell["dofs"] * 2
        dofs[1::2] = cell["dofs"] * 2 + 1
        jac = 0.25 * cell["hx"] * cell["hy"]
        sx, sy = 2.0 / cell["hx"], 2.0 / cell["hy"]
        for qx, wx in zip(pts, wts):
            for qy, wy in zip(pts, wts):
                gx = np.array([ly[b](qy) * dlx[a](qx) * sx
                               for b in range(nby) for a in range(nbx)])
                gy = np.array([dly[b](qy) * lx[a](qx) * sy
                               for b in range(nby) for a in range(nbx)])
                b_mat = np.zeros((3, 2 * nbf))
                b_mat[0, 0::2] = gx
                b_mat[1, 1::2] = gy
                b_mat[2, 0::2] = gy
                b_mat[2, 1::2] = gx
                out[np.ix_(dofs, dofs)] += (wx * wy * jac) \
                    * (b_mat.T @ d_mat @ b_mat)
    return out


def dense_edge_mass(space, edges, coeff_fn, n_quad=12):
    """Boundary mass over edges with coefficient coeff_fn(x, y)."""
    return dense_edge_coupling(space, space, edges, coeff_fn, n_quad)


def dense_edge_coupling(space_a, space_b, edges, coeff_fn, n_quad=12):
    """<w^a_i, c w^b_j> over edges that both spaces reach: the edge mass
    between two fields' bases (the interface terms of a field pair)."""
    out = np.zeros((space_a.ndof, space_b.ndof))
    pts, wts = _tensor_rule(n_quad)
    for edge in edges:
        polys = lagrange_polys(edge.degree)
        dofs_a = space_a.dofs_of_nodes(space_a.edge_field_nodes(edge))
        dofs_b = space_b.dofs_of_nodes(space_b.edge_field_nodes(edge))
        p0 = np.asarray(edge.p0)
        p1 = np.asarray(edge.p1)
        for q, w in zip(pts, wts):
            xy = p0 + (q + 1) * 0.5 * (p1 - p0)
            c = coeff_fn(xy[0], xy[1]) * w * 0.5 * edge.length
            vals = np.array([p(q) for p in polys])
            out[np.ix_(dofs_a, dofs_b)] += c * np.outer(vals, vals)
    return out


def relative_asymmetry(mat):
    """max |A - A^T| / max |A| (0 for an empty matrix)."""
    a = mat.tocsr()
    scale = np.abs(a.data).max() if a.nnz else 0.0
    if scale == 0.0:
        return 0.0
    diff = (a - a.T).tocoo()
    err = np.abs(diff.data).max() if diff.nnz else 0.0
    return float(err / scale)


def vtk_counts(mesh):
    """(points, cells) the subcell decomposition of a VTK snapshot emits for
    a mesh: (px + 1)(py + 1) points and px py cells per mesh cell."""
    n_pts = n_cells = 0
    for j in range(mesh.ncy):
        for i in range(mesh.ncx):
            px, py = int(mesh.px[i]), int(mesh.py[j])
            n_pts += (px + 1) * (py + 1)
            n_cells += px * py
    return n_pts, n_cells
