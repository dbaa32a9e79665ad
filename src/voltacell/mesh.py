"""Layered anisotropic quadrilateral meshes on block-structured domains.

The mesh is a global tensor grid: a sorted array of x grid lines and y grid
lines whose cells carry a subdomain tag, with polynomial degree assigned per
column (x direction) and per row (y direction).  Keeping the degrees
row/column-wise makes variable-degree spaces exactly H1-conforming: two cells
sharing an edge always agree on the trace degree along it.

Refinement toward the electrode-electrolyte interface inserts geometrically
graded layers: the base cell adjacent to an interface grid line is split into
``n_layers + 1`` cells whose widths decrease geometrically toward the line.
Degrees are boosted to ``normal_degree`` only in the direction normal to the
interface and only in the innermost layer.

Tags are computed for the whole grid at once: the cell tags by one lookup of
every cell midpoint in the geometry's blocks, the edge tags by comparing the
tag arrays of neighbouring cells.  Edges are handed out as an ``EdgeSet``, a
record of arrays with one entry per edge, which the spaces and assemblers
consume whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable

import numpy as np

from . import geometry as geo
from .geometry import ANODE, CATHODE, ELYTE, BOUNDARY_PARTS, DomainGeometry

# Edge tag codes
INTERIOR = 0
IFACE_SOLID_LO = 1     # solid cell on the low-index side; normal points +axis
IFACE_SOLID_HI = 2     # solid cell on the high-index side; normal points -axis
BOUNDARY_BASE = 10
PART_CODE = {name: BOUNDARY_BASE + k for k, name in enumerate(BOUNDARY_PARTS)}
CODE_PART = {v: k for k, v in PART_CODE.items()}

# The largest cell aspect ratio that validate_mesh accepts (the production
# mesh reaches 178, the coarse mesh 43)
MAX_ASPECT = 2000.0


@dataclass(frozen=True)
class MeshSpec:
    """Resolution controls for the layered mesh.

    ``nx_blocks``/``ny_blocks`` give base cell counts per geometry block
    (4 column blocks, 3 row blocks for the interdigitated layout).  Each block
    end lying on an interface grid line consumes one base cell and replaces it
    with a graded stack, so the base count must cover the graded ends.
    """

    nx_blocks: tuple[int, ...] = (1, 10, 2, 1)
    ny_blocks: tuple[int, ...] = (2, 2, 2)
    n_layers: int = 4
    grading: float = 0.5
    degree: int = 3
    normal_degree: int = 4

    def __post_init__(self):
        if self.n_layers < 0:
            raise ValueError("n_layers must be >= 0")
        if not 0.0 < self.grading < 1.0:
            raise ValueError("grading ratio must lie in (0, 1)")
        if self.degree < 1 or self.normal_degree < 1:
            raise ValueError("polynomial degrees must be >= 1")
        if any(n < 1 for n in self.nx_blocks + self.ny_blocks):
            raise ValueError("block cell counts must be >= 1")

    @classmethod
    def production(cls) -> "MeshSpec":
        """Production resolution: 4 graded layers, cubic base, quartic normal."""
        return cls()

    @classmethod
    def coarse(cls) -> "MeshSpec":
        """Desk-scale resolution for quick runs and tests."""
        return cls(nx_blocks=(1, 3, 2, 1), ny_blocks=(1, 2, 1),
                   n_layers=1, degree=2, normal_degree=2)


# The named resolutions of scenario files and the command line
MESH_PRESETS = {"coarse": MeshSpec.coarse, "production": MeshSpec.production}


def _graded_interval(a: float, b: float, n_base: int, grade_lo: bool,
                     grade_hi: bool, n_layers: int, ratio: float,
                     p: int, p_boost: int) -> tuple[list[float], list[int]]:
    """1D subdivision of [a, b]: points (interior only) and per-cell degrees."""
    if n_layers == 0:
        grade_lo = grade_hi = False
    n_ends = int(grade_lo) + int(grade_hi)
    if n_base < n_ends:
        raise ValueError(
            f"layer budget does not fit: block [{a:g}, {b:g}] has {n_base} base "
            f"cell(s) but {n_ends} graded end(s)")
    base = np.linspace(a, b, n_base + 1)
    points: list[float] = []
    degrees: list[int] = []

    def stack_widths(h: float) -> np.ndarray:
        widths = ratio ** np.arange(n_layers + 1)
        return widths * (h / widths.sum())

    for k in range(n_base):
        lo, hi = base[k], base[k + 1]
        if grade_lo and k == 0:
            # Widths shrink toward lo: finest layer touches the interface.
            widths = stack_widths(hi - lo)
            points.extend(sorted(hi - np.cumsum(widths[:-1])))
            degrees.extend([p_boost] + [p] * n_layers)
        elif grade_hi and k == n_base - 1:
            widths = stack_widths(hi - lo)
            points.extend(lo + np.cumsum(widths[:-1]))
            degrees.extend([p] * n_layers + [p_boost])
        else:
            degrees.append(p)
        if k < n_base - 1:
            points.append(hi)
    return points, degrees


@dataclass
class Mesh:
    """Tensor-grid quadrilateral mesh with subdomain and edge tags.

    x, y: grid line coordinates; px, py: per-column / per-row degrees;
    cell_tag[j, i]: subdomain of cell (column i, row j);
    v_edge_tag[j, i]: vertical edge on grid line x[i] spanning row j;
    h_edge_tag[j, i]: horizontal edge on grid line y[j] spanning column i.
    """

    x: np.ndarray
    y: np.ndarray
    px: np.ndarray
    py: np.ndarray
    cell_tag: np.ndarray
    v_edge_tag: np.ndarray = field(default=None, repr=False)
    h_edge_tag: np.ndarray = field(default=None, repr=False)

    @property
    def ncx(self) -> int:
        return len(self.x) - 1

    @property
    def ncy(self) -> int:
        return len(self.y) - 1

    @property
    def n_cells(self) -> int:
        return self.ncx * self.ncy

    @property
    def hx(self) -> np.ndarray:
        return np.diff(self.x)

    @property
    def hy(self) -> np.ndarray:
        return np.diff(self.y)

    def cell_degrees(self) -> np.ndarray:
        """(ncy, ncx, 2) per-cell (p_x, p_y) degree pairs."""
        out = np.empty((self.ncy, self.ncx, 2), dtype=int)
        out[:, :, 0] = self.px[None, :]
        out[:, :, 1] = self.py[:, None]
        return out

    def area_of(self, tag: int) -> float:
        mask = self.cell_tag == tag
        return float((np.outer(self.hy, self.hx) * mask).sum())

    # ---- generic (unstructured-style) views -----------------------------

    def corner_coords(self) -> np.ndarray:
        """All grid corner nodes, shape ((ncy+1)*(ncx+1), 2), x fastest."""
        xx, yy = np.meshgrid(self.x, self.y)
        return np.column_stack([xx.ravel(), yy.ravel()])

    def connectivity(self) -> np.ndarray:
        """Quad corner indices per cell (CCW), shape (n_cells, 4)."""
        nxp = self.ncx + 1
        i = np.arange(self.ncx)
        j = np.arange(self.ncy)
        jj, ii = np.meshgrid(j, i, indexing="ij")
        v0 = jj * nxp + ii
        return np.column_stack([v0.ravel(), (v0 + 1).ravel(),
                                (v0 + nxp + 1).ravel(), (v0 + nxp).ravel()])

    def element_tags(self) -> np.ndarray:
        return self.cell_tag.ravel()

    # ---- edge sets -------------------------------------------------------

    def interface_edges(self) -> "EdgeSet":
        return self._edges((IFACE_SOLID_LO, IFACE_SOLID_HI))

    def boundary_edges(self, part: str) -> "EdgeSet":
        return self._edges((PART_CODE[part],))

    def _edges(self, codes) -> "EdgeSet":
        """The edges tagged with one of ``codes``, in the order of
        ``edges``."""
        return self.edges[np.isin(self.edges.tag, codes)]

    @cached_property
    def edges(self) -> "EdgeSet":
        """Every edge: the vertical ones row by row (grid lines x[i] left to
        right within a row), then the horizontal ones grid line y[j] by grid
        line.  Built on first use, so the grid and tag arrays must not
        change after it."""
        ncx, ncy = self.ncx, self.ncy
        jv, iv = np.indices(self.v_edge_tag.shape).reshape(2, -1)
        jh, ih = np.indices(self.h_edge_tag.shape).reshape(2, -1)
        # adjacent cells as flat ids j * ncx + i, low side first
        v_cells = np.column_stack([np.where(iv > 0, jv * ncx + iv - 1, -1),
                                   np.where(iv < ncx, jv * ncx + iv, -1)])
        h_cells = np.column_stack([np.where(jh > 0, (jh - 1) * ncx + ih, -1),
                                   np.where(jh < ncy, jh * ncx + ih, -1)])
        return EdgeSet(
            vertical=np.repeat([True, False], [len(jv), len(jh)]),
            i=np.concatenate([iv, ih]), j=np.concatenate([jv, jh]),
            tag=np.concatenate([self.v_edge_tag.ravel(),
                                self.h_edge_tag.ravel()]).astype(int),
            length=np.concatenate([self.hy[jv], self.hx[ih]]),
            degree=np.concatenate([self.py[jv], self.px[ih]]).astype(int),
            cells=np.concatenate([v_cells, h_cells]))

    def edge_tag_counts(self) -> dict:
        flat = np.concatenate([self.v_edge_tag.ravel(), self.h_edge_tag.ravel()])
        counts = {"interior": int(np.count_nonzero(flat == INTERIOR)),
                  "interface": int(np.count_nonzero(
                      (flat == IFACE_SOLID_LO) | (flat == IFACE_SOLID_HI)))}
        for name, code in PART_CODE.items():
            counts[name] = int(np.count_nonzero(flat == code))
        counts["total"] = flat.size
        return counts

    @classmethod
    def from_grid(cls, x, y, px, py, cell_tag,
                  boundary_part: Callable) -> "Mesh":
        """Build a mesh from grid lines, tagging edges automatically.

        ``boundary_part(side, coords)`` maps the exterior edges of one side
        (left/right/bottom/top), given as the array of their midpoint
        coordinates along it, to boundary part names: an array of one name
        per edge, or one name for the whole side.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        px = np.asarray(px, dtype=int)
        py = np.asarray(py, dtype=int)
        cell_tag = np.asarray(cell_tag, dtype=np.int8)
        ncy, ncx = cell_tag.shape
        if len(x) != ncx + 1 or len(y) != ncy + 1:
            raise ValueError("grid line counts do not match the tag array shape")
        if len(px) != ncx or len(py) != ncy:
            raise ValueError("degree arrays must match the cell grid")

        def classify(tag_lo, tag_hi):
            if np.any((tag_lo != tag_hi) & (tag_lo != ELYTE) & (tag_hi != ELYTE)):
                raise ValueError(
                    "electrode subdomains touch directly (no electrolyte between)")
            return np.where(tag_lo == tag_hi, INTERIOR,
                            np.where(tag_lo == ELYTE, IFACE_SOLID_HI,
                                     IFACE_SOLID_LO))

        def part_codes(side, mids):
            names, which = np.unique(np.broadcast_to(
                boundary_part(side, mids), mids.shape), return_inverse=True)
            return np.array([PART_CODE[n] for n in names], dtype=int)[which]

        v_tag = np.empty((ncy, ncx + 1), dtype=np.int8)
        h_tag = np.empty((ncy + 1, ncx), dtype=np.int8)
        ymid, xmid = 0.5 * (y[:-1] + y[1:]), 0.5 * (x[:-1] + x[1:])
        v_tag[:, 0] = part_codes("left", ymid)
        v_tag[:, ncx] = part_codes("right", ymid)
        v_tag[:, 1:ncx] = classify(cell_tag[:, :-1], cell_tag[:, 1:])
        h_tag[0] = part_codes("bottom", xmid)
        h_tag[ncy] = part_codes("top", xmid)
        h_tag[1:ncy] = classify(cell_tag[:-1], cell_tag[1:])

        return cls(x=x, y=y, px=px, py=py, cell_tag=cell_tag,
                   v_edge_tag=v_tag, h_edge_tag=h_tag)


@dataclass(frozen=True)
class EdgeSet:
    """Mesh edges as arrays, one entry per edge.

    An edge is vertical on the grid line x[i], spanning row j, or horizontal
    on the grid line y[j], spanning column i.  ``cells`` holds its two
    adjacent cells as flat ids j * ncx + i, low side first, with -1 on the
    side outside the domain.  Indexing by an int, a slice, an index array or
    a mask gives a sub-set (an int gives the set of that one edge).
    """

    vertical: np.ndarray    # (n,) bool
    i: np.ndarray           # (n,) grid-line/cell column index
    j: np.ndarray           # (n,) grid-line/cell row index
    tag: np.ndarray         # (n,) edge tag code
    length: np.ndarray      # (n,)
    degree: np.ndarray      # (n,) trace polynomial degree along the edge
    cells: np.ndarray       # (n, 2) adjacent cells, low side first (-1: none)

    def __len__(self) -> int:
        return len(self.tag)

    def __getitem__(self, key) -> "EdgeSet":
        if isinstance(key, (int, np.integer)):
            key = [key]
        return EdgeSet(*(getattr(self, f.name)[key] for f in fields(self)))

    def label(self, k: int) -> str:
        """Edge ``k`` in messages: v(j,i) or h(j,i)."""
        return f"{'v' if self.vertical[k] else 'h'}({self.j[k]},{self.i[k]})"

    def solid_tag(self, cell_tag: np.ndarray) -> np.ndarray:
        """The tag of each edge's first adjacent cell that is not
        electrolyte (the electrode side of an interface edge)."""
        tags = np.where(self.cells >= 0, cell_tag.ravel()[self.cells], ELYTE)
        solid = tags != ELYTE
        if not solid.any(axis=1).all():
            k = int(np.argmin(solid.any(axis=1)))
            raise ValueError(f"edge {self.label(k)} has no solid neighbor")
        return np.where(solid[:, 0], tags[:, 0], tags[:, 1]).astype(int)


def generate_layered_mesh(geom: DomainGeometry, spec: MeshSpec | None = None) -> Mesh:
    """Mesh the interdigitated domain with graded layers toward the interface."""
    spec = spec or MeshSpec()
    xi, yi = geom.interface_lines

    def build_axis(cuts, n_blocks, iface_lines):
        points = [cuts[0]]
        degrees: list[int] = []
        for b in range(len(cuts) - 1):
            lo, hi = cuts[b], cuts[b + 1]
            pts, degs = _graded_interval(
                lo, hi, n_blocks[b],
                grade_lo=lo in iface_lines, grade_hi=hi in iface_lines,
                n_layers=spec.n_layers, ratio=spec.grading,
                p=spec.degree, p_boost=spec.normal_degree)
            points.extend(pts)
            points.append(hi)
            degrees.extend(degs)
        return np.asarray(points), np.asarray(degrees, dtype=int)

    if len(spec.nx_blocks) != len(geom.x_cuts) - 1:
        raise ValueError(f"nx_blocks needs {len(geom.x_cuts) - 1} entries")
    if len(spec.ny_blocks) != len(geom.y_cuts) - 1:
        raise ValueError(f"ny_blocks needs {len(geom.y_cuts) - 1} entries")

    x, px = build_axis(geom.x_cuts, spec.nx_blocks, xi)
    y, py = build_axis(geom.y_cuts, spec.ny_blocks, yi)

    xmid = 0.5 * (x[:-1] + x[1:])
    ymid = 0.5 * (y[:-1] + y[1:])
    cell_tag = geom.subdomain_at(xmid[None, :], ymid[:, None]).astype(np.int8)
    return Mesh.from_grid(x, y, px, py, cell_tag, geom.boundary_part)


def rectangle_mesh(width: float, height: float, nx: int, ny: int,
                   degree: int = 1, tag: int = ELYTE) -> Mesh:
    """Uniform single-material rectangle, for verification problems.

    Boundary parts reuse the cell naming: left=cc_minus, right=cc_plus,
    bottom=bottom, top=top.
    """
    x = np.linspace(0.0, width, nx + 1)
    y = np.linspace(0.0, height, ny + 1)
    px = np.full(nx, degree, dtype=int)
    py = np.full(ny, degree, dtype=int)
    cell_tag = np.full((ny, nx), tag, dtype=np.int8)
    sides = {"left": geo.CC_MINUS, "right": geo.CC_PLUS,
             "bottom": geo.BOTTOM, "top": geo.TOP}
    return Mesh.from_grid(x, y, px, py, cell_tag, lambda s, c: sides[s])


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass
class QualityReport:
    n_elements: int = 0
    n_per_tag: dict = field(default_factory=dict)
    edge_counts: dict = field(default_factory=dict)
    min_jacobian: float = float("nan")
    max_aspect: float = float("nan")
    areas: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [f"elements: {self.n_elements}  per tag: {self.n_per_tag}",
                 f"edges: {self.edge_counts}",
                 f"min corner jacobian: {self.min_jacobian:.4g}",
                 f"max aspect ratio: {self.max_aspect:.4g}"]
        if self.violations:
            lines.append("VIOLATIONS:")
            lines.extend(f"  - {v}" for v in self.violations)
        else:
            lines.append("no invariant violations")
        return "\n".join(lines)


def validate_mesh(mesh: Mesh,
                  geom: DomainGeometry | None = None) -> QualityReport:
    """Report-only invariant check: increasing grid lines, jacobians, aspect
    ratios (at most ``MAX_ASPECT``), tags, areas.

    Every cell is the axis-aligned rectangle between two consecutive grid
    lines, so its map from the reference square has the constant jacobian
    hx * hy / 4; ``min_jacobian`` is its minimum over the cells.  A grid line
    that does not increase on its predecessor is a violation.
    """
    rep = QualityReport()
    rep.n_elements = mesh.n_cells
    if mesh.n_cells == 0:
        rep.violations.append("no elements")
        return rep

    tags, counts = np.unique(mesh.cell_tag, return_counts=True)
    rep.n_per_tag = {geo.TAG_NAMES[int(t)]: int(c) for t, c in zip(tags, counts)}
    rep.edge_counts = mesh.edge_tag_counts()

    rep.min_jacobian = float((0.25 * np.outer(mesh.hy, mesh.hx)).min())
    for axis, lines in (("x", mesh.x), ("y", mesh.y)):
        for k in np.flatnonzero(np.diff(lines) <= 0.0) + 1:
            rep.violations.append(
                f"grid line {axis}[{k}] = {lines[k]:.6g} does not increase "
                f"on {axis}[{k - 1}] = {lines[k - 1]:.6g}")

    hx, hy = np.abs(mesh.hx), np.abs(mesh.hy)   # a zero width: aspect inf
    with np.errstate(divide="ignore"):
        ratio = np.maximum.outer(hy, hx) / np.minimum.outer(hy, hx)
    rep.max_aspect = float(ratio.max())
    if rep.max_aspect > MAX_ASPECT:
        rep.violations.append(f"aspect ratio {rep.max_aspect:.3g} exceeds "
                              f"bound {MAX_ASPECT:g}")

    # Interface pairing: both neighbors present, exactly one electrolyte.
    iface = mesh.interface_edges()
    inside = np.all(iface.cells >= 0, axis=1)
    elyte = mesh.cell_tag.ravel()[iface.cells] == ELYTE
    for k in np.flatnonzero(~inside):
        rep.violations.append(f"interface edge {iface.label(k)} "
                              "is on the domain boundary")
    for k in np.flatnonzero(inside & (elyte[:, 0] == elyte[:, 1])):
        rep.violations.append(
            f"interface edge {iface.label(k)} does not pair an "
            "electrode with the electrolyte")

    # Edge tag partition: every edge carries exactly one tag by construction;
    # verify the counts close.
    ec = rep.edge_counts
    parts_total = sum(ec[name] for name in PART_CODE)
    if ec["interior"] + ec["interface"] + parts_total != ec["total"]:
        rep.violations.append("edge tags do not partition the edge set")

    if geom is not None:
        for tag in (ANODE, CATHODE, ELYTE):
            a_mesh = mesh.area_of(tag)
            a_layout = geom.area(tag)
            rep.areas[geo.TAG_NAMES[tag]] = a_mesh
            if abs(a_mesh - a_layout) > 1e-10 * max(a_layout, 1e-300):
                rep.violations.append(
                    f"subdomain {geo.TAG_NAMES[tag]} area mismatch: mesh "
                    f"{a_mesh!r} vs layout {a_layout!r}")
    return rep
