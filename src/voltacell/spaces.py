"""Global H1-conforming spaces on the tensor mesh.

Global nodes form a tensor grid themselves: along each axis, the Gauss-Lobatto
nodes of every cell interval, with shared interval endpoints.  Conformity of
the variable-degree basis is automatic because degrees are assigned per
column/row.  The six fields live on three subdomain supports: Omega (theta),
Omega_s (c_s, phi_s, u) and Omega_e (c_e, phi_e).  A ``Support`` restricts the
global nodes to the cells of its subdomains; ``MeshSupports`` builds each one
once, over the mesh's one grid, one grouping of the cells by degree pair (the
"master" groups) and one quadrature layout.  A ``FieldSpace`` is a support
plus a name, the number of components per node and the DOFs that its
homogeneous essential constraints hold at zero.

The quadrature points have one global order (``QuadPoints``: group after
group).  Pointwise data lives on a support's points only, in that order
(``Support.points``), so each occupied group's points are one contiguous
block of a support array and a pointwise law runs once over exactly the
points it applies to.  Theta's support is the whole domain, so its layout is
the global one, and a law on a smaller support reads theta through
``points``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import basis
from .geometry import ANODE, CATHODE, ELYTE, TAG_NAMES
from .mesh import EdgeSet, Mesh

# Support selectors
OMEGA = frozenset({ANODE, CATHODE, ELYTE})
OMEGA_S = frozenset({ANODE, CATHODE})
OMEGA_E = frozenset({ELYTE})


@dataclass(frozen=True)
class NodeGrid:
    """Tensor grid of all H1 nodes of the mesh."""

    xn: np.ndarray          # x node coordinates (nnx,)
    yn: np.ndarray          # y node coordinates (nny,)
    col_start: np.ndarray   # first x-node of column i (column spans px[i]+1 nodes)
    row_start: np.ndarray   # first y-node of row j
    line_x: np.ndarray      # x-node index of grid line i (ncx+1,)
    line_y: np.ndarray      # y-node index of grid line j

    @property
    def nnx(self) -> int:
        return len(self.xn)

    @property
    def nny(self) -> int:
        return len(self.yn)

    @property
    def n_nodes(self) -> int:
        return self.nnx * self.nny

    def node_xy(self, node_ids: np.ndarray) -> np.ndarray:
        node_ids = np.asarray(node_ids)
        return np.column_stack([self.xn[node_ids % self.nnx],
                                self.yn[node_ids // self.nnx]])

    @classmethod
    def build(cls, mesh: Mesh) -> "NodeGrid":
        def axis_nodes(lines: np.ndarray, degrees: np.ndarray):
            coords = [lines[0]]
            start = np.empty(len(degrees), dtype=int)
            for k, p in enumerate(degrees):
                start[k] = len(coords) - 1
                ref = basis.gauss_lobatto_nodes(int(p))
                lo, hi = lines[k], lines[k + 1]
                mapped = lo + (ref[1:] + 1.0) * 0.5 * (hi - lo)
                coords.extend(mapped.tolist())
            line_idx = np.concatenate([start, [len(coords) - 1]])
            return np.asarray(coords), start, line_idx

        xn, col_start, line_x = axis_nodes(mesh.x, mesh.px)
        yn, row_start, line_y = axis_nodes(mesh.y, mesh.py)
        return cls(xn=xn, yn=yn, col_start=col_start, row_start=row_start,
                   line_x=line_x, line_y=line_y)

    def cell_nodes(self, mesh: Mesh, jj, ii) -> np.ndarray:
        """Global node ids of the cells (jj[k], ii[k]), which share one
        degree pair: (n, nbf), each row in flat local ordering (x fastest)."""
        jj, ii = np.atleast_1d(jj), np.atleast_1d(ii)
        px, py = np.unique(mesh.px[ii]), np.unique(mesh.py[jj])
        if len(px) != 1 or len(py) != 1:
            raise ValueError("cell_nodes takes cells of one degree pair")
        ix = self.col_start[ii][:, None] + np.arange(px[0] + 1)
        iy = self.row_start[jj][:, None] + np.arange(py[0] + 1)
        return (iy[:, :, None] * self.nnx + ix[:, None, :]).reshape(len(ii), -1)

    def edge_nodes(self, edges: EdgeSet) -> np.ndarray:
        """Global node ids along the edges, edge after edge, each edge's
        p + 1 nodes in axis order."""
        n = edges.degree + 1
        which = np.repeat(np.arange(len(edges)), n)
        along = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        v = edges.vertical[which]
        i, j = edges.i[which], edges.j[which]
        ix, iy = np.empty_like(along), np.empty_like(along)
        ix[v] = self.line_x[i[v]]
        iy[v] = self.row_start[j[v]] + along[v]
        ix[~v] = self.col_start[i[~v]] + along[~v]
        iy[~v] = self.line_y[j[~v]]
        return iy * self.nnx + ix


@dataclass
class MasterGroup:
    """All mesh cells sharing one degree pair."""

    px: int
    py: int
    cells: np.ndarray      # (ne, 2) of (j, i)
    hx: np.ndarray         # (ne,)
    hy: np.ndarray
    x0: np.ndarray
    y0: np.ndarray
    tag: np.ndarray        # (ne,)
    nodes: np.ndarray      # (ne, nbf) global node ids

    @property
    def ref(self) -> basis.RefElement:
        return basis.ref_element(self.px, self.py)


def build_master_groups(mesh: Mesh, grid: NodeGrid) -> list[MasterGroup]:
    """The cells grouped by degree pair, groups in (px, py) order and each
    group's cells in row order."""
    degrees = mesh.cell_degrees()
    groups = []
    for px, py in np.unique(degrees.reshape(-1, 2), axis=0):
        jj, ii = np.nonzero((degrees[:, :, 0] == px) & (degrees[:, :, 1] == py))
        groups.append(MasterGroup(
            px=int(px), py=int(py), cells=np.column_stack([jj, ii]),
            hx=mesh.hx[ii], hy=mesh.hy[jj],
            x0=mesh.x[ii], y0=mesh.y[jj],
            tag=mesh.cell_tag[jj, ii].astype(int),
            nodes=grid.cell_nodes(mesh, jj, ii),
        ))
    return groups


@dataclass(frozen=True)
class QuadPoints:
    """The quadrature points of every mesh cell in one flat layout.

    Points run master group after master group, each group's cells in row
    order and each cell's points in reference order: group k owns the points
    ``offsets[k]`` up to ``offsets[k + 1]``.  A field's support keeps this
    order on its own points (``Support.points``).
    """

    offsets: np.ndarray     # (n_groups + 1,) first point of each group
    tag: np.ndarray         # (n,) subdomain tag of the point's cell
    x: np.ndarray           # (n,) physical coordinates
    y: np.ndarray
    weight: np.ndarray      # (n,) detJ * reference weight

    @property
    def n(self) -> int:
        return len(self.tag)

    @classmethod
    def build(cls, master: list) -> "QuadPoints":
        tag, x, y, weight = [], [], [], []
        for g in master:
            ref = g.ref
            tag.append(np.repeat(g.tag, len(ref.qw)))
            x.append(g.x0[:, None]
                     + (ref.qp[None, :, 0] + 1.0) * 0.5 * g.hx[:, None])
            y.append(g.y0[:, None]
                     + (ref.qp[None, :, 1] + 1.0) * 0.5 * g.hy[:, None])
            weight.append(0.25 * (g.hx * g.hy)[:, None] * ref.qw[None, :])
        offsets = np.cumsum([0] + [len(t) for t in tag])
        return cls(offsets, *(np.concatenate([a.ravel() for a in arrays])
                              for arrays in (tag, x, y, weight)))


def tag_values(values: dict, tags: np.ndarray) -> np.ndarray:
    """Per-point values from a per-tag dict, looked up by each point's tag
    (0 at tags the dict lacks)."""
    table = np.zeros(len(TAG_NAMES))
    table[list(values)] = list(values.values())
    return table[tags]


@dataclass(frozen=True)
class EssentialBC:
    """Hold component ``comp`` of a field at zero on a named boundary part.

    Every essential condition of the model is homogeneous (the grounded
    phi_s on cc_minus, the roller conditions on u), so a constrained DOF
    carries no value: ``assemble.constrain`` drops it and ``assemble.expand``
    writes 0 there.
    """

    part: str
    comp: int = 0


@dataclass(frozen=True, eq=False)
class Support:
    """The layout of one subdomain selector: its node maps, the master groups
    it occupies and its quadrature points, over the grid, master groups and
    quadrature layout that every support of the mesh shares.  Compared and
    hashed by identity."""

    mesh: Mesh
    grid: NodeGrid
    master: list
    qp: QuadPoints
    selector: frozenset
    node_ids: np.ndarray        # sorted global node ids in the support
    node_index: np.ndarray      # global node id -> support node (-1 outside)
    # (master group, member rows, their support node indices, their block of
    # the support's points) of each group the support occupies
    occupied: tuple
    points: np.ndarray          # global quadrature point of each support point

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    def node_xy(self) -> np.ndarray:
        return self.grid.node_xy(self.node_ids)

    def edge_nodes(self, edges: EdgeSet) -> np.ndarray:
        """Support node indices along the edges (laid out as
        ``NodeGrid.edge_nodes``); every edge must lie in the support."""
        ids = self.node_index[self.grid.edge_nodes(edges)]
        if np.any(ids < 0):
            k = np.repeat(np.arange(len(edges)), edges.degree + 1)[
                np.argmax(ids < 0)]
            raise ValueError(f"edge {edges.label(k)} is outside the support "
                             f"of tags {set(self.selector)}")
        return ids

    def nodes_of_tag(self, tag: int) -> np.ndarray:
        """Support nodes of the support's cells with the given tag."""
        return np.unique(np.concatenate(
            [nodes[g.tag[rows] == tag].ravel()
             for g, rows, nodes, _ in self.occupied]))


class MeshSupports:
    """The supports of one mesh: the node grid, the master groups and the
    quadrature layout, built once, and each selector's ``Support``, built on
    its first request (a single-subdomain mesh never builds the others)."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.grid = NodeGrid.build(mesh)
        self.master = build_master_groups(mesh, self.grid)
        self.qp = QuadPoints.build(self.master)
        self._built = {}

    def __getitem__(self, selector: frozenset) -> Support:
        if selector in self._built:
            return self._built[selector]
        grid, master = self.grid, self.master
        in_support = np.isin(list(TAG_NAMES), list(selector))     # per tag
        member = [np.flatnonzero(in_support[g.tag]) for g in master]
        if not any(len(rows) for rows in member):
            raise ValueError(f"no elements carry tags {set(selector)}")
        used = np.zeros(grid.n_nodes, dtype=bool)
        for g, rows in zip(master, member):
            used[g.nodes[rows].ravel()] = True
        node_ids = np.nonzero(used)[0]
        node_index = np.full(grid.n_nodes, -1, dtype=int)
        node_index[node_ids] = np.arange(len(node_ids))

        occupied, points, start = [], [], 0
        for k, (g, rows) in enumerate(zip(master, member)):
            if len(rows):
                nq = len(g.ref.qw)
                occupied.append((g, rows, node_index[g.nodes[rows]],
                                 slice(start, start + len(rows) * nq)))
                points.append((self.qp.offsets[k] + rows[:, None] * nq
                               + np.arange(nq)).ravel())
                start += len(rows) * nq
        support = self._built[selector] = Support(
            self.mesh, grid, master, self.qp, selector, node_ids, node_index,
            tuple(occupied), np.concatenate(points))
        return support


@dataclass(frozen=True)
class FieldSpace:
    """One unknown field's discrete space: a support, the number of
    components at each of its nodes, and its constrained DOFs."""

    name: str
    support: Support
    arity: int
    constrained: np.ndarray

    @property
    def ndof(self) -> int:
        return self.support.n_nodes * self.arity

    @property
    def n_free(self) -> int:
        return int(self.ndof - np.count_nonzero(self.constrained))

    @property
    def free(self) -> np.ndarray:
        return ~self.constrained

    @cached_property
    def cell_dofs(self) -> np.ndarray:
        """The DOFs of the nodes of every occupied cell, flat: groups in the
        order of ``Support.occupied``, member cells in order, each cell's
        nodes in local order with their components side by side.  Element
        vectors laid out alike sum into a global vector with one
        ``np.bincount``."""
        return np.concatenate([
            (nodes[..., None] * self.arity + np.arange(self.arity)).ravel()
            for _, _, nodes, _ in self.support.occupied])

    def zeros(self) -> np.ndarray:
        return np.zeros(self.ndof)

    def constant(self, value) -> np.ndarray:
        if self.arity != 1:
            raise ValueError("constant() only makes sense for scalar fields")
        return np.full(self.ndof, float(value))


def build_field_space(support: Support, arity: int = 1,
                      constraints: Sequence[EssentialBC] = (),
                      name: str = "field") -> FieldSpace:
    """The space of a field with ``arity`` components on ``support``, with
    the DOFs of its essential constraints marked."""
    member = np.isin(support.mesh.cell_tag, list(support.selector)).ravel()
    constrained = np.zeros(support.n_nodes * arity, dtype=bool)
    for bc in constraints:
        if not 0 <= bc.comp < arity:
            raise ValueError(f"constraint component {bc.comp} out of range")
        # the part's edges with an adjacent cell in the support
        edges = support.mesh.boundary_edges(bc.part)
        edges = edges[np.any((edges.cells >= 0) & member[edges.cells], axis=1)]
        constrained[support.edge_nodes(edges) * arity + bc.comp] = True
    return FieldSpace(name, support, arity, constrained)
