"""Global H1-conforming spaces on the tensor mesh.

Global nodes form a tensor grid themselves: along each axis, the Gauss-Lobatto
nodes of every cell interval, with shared interval endpoints.  Conformity of
the variable-degree basis is automatic because degrees are assigned per
column/row.  A FieldSpace restricts the global node set to the cells of its
supporting subdomain(s) and applies essential constraints.

Element bookkeeping is organized around the mesh-wide "master" grouping of
cells by degree pair; field spaces store, per master group, which rows they
occupy.  Pointwise data lives in one flat layout of the mesh's quadrature
points (``QuadPoints``: group after group), shared by every field, so fields
exchange pointwise data (sources, couplings) without re-indexing and a
pointwise law runs once over all the points it applies to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import basis
from .geometry import ANODE, CATHODE, ELYTE, TAG_NAMES
from .mesh import Mesh, EdgeRef

# Support selectors
OMEGA = frozenset({ANODE, CATHODE, ELYTE})
OMEGA_S = frozenset({ANODE, CATHODE})
OMEGA_E = frozenset({ELYTE})
OMEGA_SA = frozenset({ANODE})
OMEGA_SC = frozenset({CATHODE})


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

    def cell_nodes(self, mesh: Mesh, j: int, i: int) -> np.ndarray:
        """Global node ids of cell (j, i), flat local ordering (x fastest)."""
        px, py = int(mesh.px[i]), int(mesh.py[j])
        ix = self.col_start[i] + np.arange(px + 1)
        iy = self.row_start[j] + np.arange(py + 1)
        return (iy[:, None] * self.nnx + ix[None, :]).ravel()

    def edge_nodes(self, edge: EdgeRef) -> np.ndarray:
        """Global node ids along an edge (p+1 of them, in axis order)."""
        if edge.orient == "h":
            ix = self.col_start[edge.i] + np.arange(edge.degree + 1)
            iy = self.line_y[edge.j]
            return iy * self.nnx + ix
        iy = self.row_start[edge.j] + np.arange(edge.degree + 1)
        ix = self.line_x[edge.i]
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
    def n_elems(self) -> int:
        return len(self.cells)

    @property
    def ref(self) -> basis.RefElement:
        return basis.ref_element(self.px, self.py)


def build_master_groups(mesh: Mesh, grid: NodeGrid) -> list[MasterGroup]:
    by_deg: dict[tuple[int, int], list] = {}
    for j in range(mesh.ncy):
        for i in range(mesh.ncx):
            by_deg.setdefault((int(mesh.px[i]), int(mesh.py[j])), []).append((j, i))
    groups = []
    for (px, py), cells in sorted(by_deg.items()):
        cells_arr = np.asarray(cells, dtype=int)
        jj, ii = cells_arr[:, 0], cells_arr[:, 1]
        nodes = np.stack([grid.cell_nodes(mesh, j, i) for j, i in cells], axis=0)
        groups.append(MasterGroup(
            px=px, py=py, cells=cells_arr,
            hx=mesh.hx[ii], hy=mesh.hy[jj],
            x0=mesh.x[ii], y0=mesh.y[jj],
            tag=mesh.cell_tag[jj, ii].astype(int),
            nodes=nodes,
        ))
    return groups


@dataclass(frozen=True)
class QuadPoints:
    """The quadrature points of every mesh cell in one flat layout.

    Points run master group after master group, each group's cells in row
    order and each cell's points in reference order: group k owns the block
    ``block(k)``, and that block of a flat array reshapes to (n_elems, nq).
    """

    offsets: np.ndarray     # (n_groups + 1,) first point of each group
    tag: np.ndarray         # (n,) subdomain tag of the point's cell
    x: np.ndarray           # (n,) physical coordinates
    y: np.ndarray
    weight: np.ndarray      # (n,) detJ * reference weight

    @property
    def n(self) -> int:
        return len(self.tag)

    def block(self, k: int) -> slice:
        return slice(int(self.offsets[k]), int(self.offsets[k + 1]))

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
    """Zero one displacement/scalar component on a named boundary part."""

    part: str
    comp: int = 0
    value: float | Callable = 0.0


@dataclass
class FieldSpace:
    """One unknown field's discrete space: support, DOF map, constraints."""

    name: str
    mesh: Mesh
    grid: NodeGrid
    master: list
    qp: QuadPoints
    selector: frozenset
    arity: int
    node_ids: np.ndarray        # sorted global node ids in the support
    node_index: np.ndarray      # global node id -> field node index (-1 outside)
    member_rows: list           # per master group: row indices in the support
    cell_node_dofs: list        # per master group: (n_member, nbf) field node idx
    constrained: np.ndarray = None
    constraint_values: np.ndarray = None

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def ndof(self) -> int:
        return self.n_nodes * self.arity

    @property
    def n_free(self) -> int:
        return int(self.ndof - np.count_nonzero(self.constrained))

    @property
    def free(self) -> np.ndarray:
        return ~self.constrained

    def node_xy(self) -> np.ndarray:
        return self.grid.node_xy(self.node_ids)

    def occupied(self) -> list:
        """(master group, member rows, their field node indices, the group's
        block of the quadrature layout) of each group the space occupies."""
        return [(g, rows, dofs, self.qp.block(k)) for k, (g, rows, dofs)
                in enumerate(zip(self.master, self.member_rows,
                                 self.cell_node_dofs)) if len(rows)]

    def dofs_of_nodes(self, field_nodes: np.ndarray, comp: int = 0) -> np.ndarray:
        return np.asarray(field_nodes) * self.arity + comp

    def edge_field_nodes(self, edge: EdgeRef) -> np.ndarray:
        ids = self.node_index[self.grid.edge_nodes(edge)]
        if np.any(ids < 0):
            raise ValueError(f"edge {edge.orient}({edge.j},{edge.i}) is outside "
                             f"the support of field '{self.name}'")
        return ids

    def zeros(self) -> np.ndarray:
        return np.zeros(self.ndof)

    def constant(self, value) -> np.ndarray:
        if self.arity != 1:
            raise ValueError("constant() only makes sense for scalar fields")
        return np.full(self.ndof, float(value))

    def interpolate(self, fn: Callable) -> np.ndarray:
        """Nodal interpolation of fn(x, y) (scalar fields)."""
        if self.arity != 1:
            raise ValueError("interpolate() only supports scalar fields")
        xy = self.node_xy()
        return np.asarray(fn(xy[:, 0], xy[:, 1]), dtype=float)

    def apply_constraints(self, vec: np.ndarray) -> np.ndarray:
        out = vec.copy()
        out[self.constrained] = self.constraint_values[self.constrained]
        return out


def build_field_space(mesh: Mesh, selector: frozenset, arity: int = 1,
                      constraints: Sequence[EssentialBC] = (),
                      name: str = "field",
                      grid: NodeGrid | None = None,
                      master: list | None = None,
                      qp: QuadPoints | None = None) -> FieldSpace:
    """Build the DOF map of a field supported on ``selector`` subdomains.

    Fields that exchange pointwise data share ``grid``, ``master`` and
    ``qp``; each is built here when not given.
    """
    grid = grid or NodeGrid.build(mesh)
    master = master if master is not None else build_master_groups(mesh, grid)
    qp = qp or QuadPoints.build(master)

    member_rows = []
    used = np.zeros(grid.n_nodes, dtype=bool)
    member_cells = set()
    for g in master:
        rows = np.nonzero(np.isin(g.tag, list(selector)))[0]
        member_rows.append(rows)
        if len(rows):
            used[g.nodes[rows].ravel()] = True
            member_cells.update(map(tuple, g.cells[rows]))
    if not member_cells:
        raise ValueError(f"field '{name}': no elements carry tags {set(selector)}")

    node_ids = np.nonzero(used)[0]
    node_index = np.full(grid.n_nodes, -1, dtype=int)
    node_index[node_ids] = np.arange(len(node_ids))

    cell_node_dofs = []
    for g, rows in zip(master, member_rows):
        cell_node_dofs.append(node_index[g.nodes[rows]] if len(rows)
                              else np.empty((0, (g.px + 1) * (g.py + 1)), dtype=int))

    space = FieldSpace(
        name=name, mesh=mesh, grid=grid, master=master, qp=qp,
        selector=selector,
        arity=arity, node_ids=node_ids, node_index=node_index,
        member_rows=member_rows, cell_node_dofs=cell_node_dofs,
    )
    space.constrained = np.zeros(space.ndof, dtype=bool)
    space.constraint_values = np.zeros(space.ndof)

    for bc in constraints:
        if not 0 <= bc.comp < arity:
            raise ValueError(f"constraint component {bc.comp} out of range")
        for edge in mesh.boundary_edges(bc.part):
            if not any(tuple(c) in member_cells for c in edge.cells):
                continue
            fnodes = space.edge_field_nodes(edge)
            dofs = space.dofs_of_nodes(fnodes, bc.comp)
            space.constrained[dofs] = True
            if callable(bc.value):
                xy = grid.node_xy(grid.edge_nodes(edge))
                space.constraint_values[dofs] = bc.value(xy[:, 0], xy[:, 1])
            else:
                space.constraint_values[dofs] = bc.value
    return space
