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
    for g, rows, dofs, _ in space.support.occupied:
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
    x, y = space_a.support.mesh.x, space_a.support.mesh.y
    for k in range(len(edges)):
        polys = lagrange_polys(int(edges.degree[k]))
        dofs_a = space_a.support.edge_nodes(edges[k]) * space_a.arity
        dofs_b = space_b.support.edge_nodes(edges[k]) * space_b.arity
        i, j = edges.i[k], edges.j[k]
        p0 = np.array([x[i], y[j]])
        p1 = np.array([x[i], y[j + 1]]) if edges.vertical[k] \
            else np.array([x[i + 1], y[j]])
        for q, w in zip(pts, wts):
            xy = p0 + (q + 1) * 0.5 * (p1 - p0)
            c = coeff_fn(xy[0], xy[1]) * w * 0.5 * edges.length[k]
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


# ---------------------------------------------------------------------------
# Problem construction, cell by cell and edge by edge
# ---------------------------------------------------------------------------

def layered_cell_tags(geom, mesh):
    """The subdomain of each cell: the geometry block whose cuts bracket the
    cell's midpoint, found by comparing with every cut."""
    def block(cuts, mid):
        return min(max(sum(c < mid for c in cuts) - 1, 0), len(cuts) - 2)

    tags = np.empty((mesh.ncy, mesh.ncx), dtype=int)
    for j in range(mesh.ncy):
        bj = block(geom.y_cuts, 0.5 * (mesh.y[j] + mesh.y[j + 1]))
        for i in range(mesh.ncx):
            bi = block(geom.x_cuts, 0.5 * (mesh.x[i] + mesh.x[i + 1]))
            tags[j, i] = geom.block_tag[bj][bi]
    return tags


def layered_edge_tags(geom, mesh):
    """(vertical, horizontal) edge tags of the layered mesh, cell pair by
    cell pair, with the layered layout's boundary parts."""
    from voltacell import mesh as vm
    from voltacell.geometry import ELYTE

    def classify(lo, hi):
        if lo == hi:
            return vm.INTERIOR
        if lo == ELYTE:
            return vm.IFACE_SOLID_HI
        if hi == ELYTE:
            return vm.IFACE_SOLID_LO
        raise ValueError("electrode subdomains touch directly")

    ncy, ncx = mesh.cell_tag.shape
    v = np.empty((ncy, ncx + 1), dtype=int)
    h = np.empty((ncy + 1, ncx), dtype=int)
    for j in range(ncy):
        ymid = 0.5 * (mesh.y[j] + mesh.y[j + 1])
        v[j, 0] = vm.PART_CODE["cc_minus" if ymid < geom.dims.h_s else "wall"]
        v[j, ncx] = vm.PART_CODE["cc_plus"]
        for i in range(1, ncx):
            v[j, i] = classify(mesh.cell_tag[j, i - 1], mesh.cell_tag[j, i])
    for i in range(ncx):
        h[0, i] = vm.PART_CODE["bottom"]
        h[ncy, i] = vm.PART_CODE["top"]
        for j in range(1, ncy):
            h[j, i] = classify(mesh.cell_tag[j - 1, i], mesh.cell_tag[j, i])
    return v, h


def master_node_tables(mesh, grid):
    """{(px, py): (cells, nodes)} with each cell's global node ids in flat
    local order (x fastest), cells in row order."""
    out = {}
    for j in range(mesh.ncy):
        for i in range(mesh.ncx):
            px, py = int(mesh.px[i]), int(mesh.py[j])
            nodes = [(grid.row_start[j] + b) * grid.nnx + grid.col_start[i] + a
                     for b in range(py + 1) for a in range(px + 1)]
            cells, tables = out.setdefault((px, py), ([], []))
            cells.append((j, i))
            tables.append(nodes)
    return {k: (np.array(c), np.array(t)) for k, (c, t) in out.items()}


def edge_records(mesh, codes):
    """The edges tagged with one of ``codes`` as (vertical, j, i, adjacent
    cells) records: the vertical ones row by row, then the horizontal ones."""
    out = []
    for j in range(mesh.ncy):
        for i in range(mesh.ncx + 1):
            if mesh.v_edge_tag[j, i] in codes:
                cells = [(j, k) for k in (i - 1, i) if 0 <= k < mesh.ncx]
                out.append((True, j, i, cells))
    for j in range(mesh.ncy + 1):
        for i in range(mesh.ncx):
            if mesh.h_edge_tag[j, i] in codes:
                cells = [(k, i) for k in (j - 1, j) if 0 <= k < mesh.ncy]
                out.append((False, j, i, cells))
    return out


def record_nodes(mesh, grid, record):
    """Global node ids along one edge record, in axis order."""
    vertical, j, i, _ = record
    if vertical:
        return [(grid.row_start[j] + k) * grid.nnx + grid.line_x[i]
                for k in range(mesh.py[j] + 1)]
    return [grid.line_y[j] * grid.nnx + grid.col_start[i] + k
            for k in range(mesh.px[i] + 1)]


def constrained_dofs(space, bcs):
    """The mask of a field space's constrained DOFs, edge by edge."""
    from voltacell.mesh import PART_CODE
    sup = space.support
    mesh, grid = sup.mesh, sup.grid
    mask = np.zeros(space.ndof, dtype=bool)
    for bc in bcs:
        for record in edge_records(mesh, (PART_CODE[bc.part],)):
            if not any(mesh.cell_tag[c] in sup.selector for c in record[3]):
                continue
            for node in record_nodes(mesh, grid, record):
                mask[sup.node_index[node] * space.arity + bc.comp] = True
    return mask


def trace_rows(mesh, grid, records, extra):
    """Trace operator (points x grid nodes) and weights over edge records,
    point by point."""
    import scipy.sparse as sp
    from voltacell.basis import ref1d
    entries, weights = [], []
    for record in records:
        vertical, j, i, _ = record
        p = int(mesh.py[j] if vertical else mesh.px[i])
        length = (mesh.y[j + 1] - mesh.y[j]) if vertical \
            else (mesh.x[i + 1] - mesh.x[i])
        r = ref1d(p, p + extra)
        nodes = record_nodes(mesh, grid, record)
        for q in range(len(r.rule.weights)):
            entries += [(len(weights), node, v)
                        for node, v in zip(nodes, r.values[q])]
            weights.append(r.rule.weights[q] * 0.5 * length)
    rows, cols, vals = zip(*entries)
    t = sp.csr_matrix((vals, (rows, cols)), shape=(len(weights), grid.n_nodes))
    return t, np.array(weights)


def interface_records(mesh):
    """The interface edge records, those of anode edges first, each with the
    tag of its electrode."""
    from voltacell import mesh as vm
    from voltacell.geometry import ANODE, CATHODE, ELYTE
    by_tag = {ANODE: [], CATHODE: []}
    for record in edge_records(mesh, (vm.IFACE_SOLID_LO, vm.IFACE_SOLID_HI)):
        solid = [mesh.cell_tag[c] for c in record[3]
                 if mesh.cell_tag[c] != ELYTE]
        by_tag[int(solid[0])].append(record)
    return [(t, r) for t in (ANODE, CATHODE) for r in by_tag[t]]
