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
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

    # ---- edge iteration ---------------------------------------------------

    def interface_edges(self) -> list["EdgeRef"]:
        return self._edges((IFACE_SOLID_LO, IFACE_SOLID_HI),
                           range(self.ncx + 1), range(self.ncy + 1))

    def boundary_edges(self, part: str) -> list["EdgeRef"]:
        return self._edges((PART_CODE[part],), (0, self.ncx), (0, self.ncy))

    def _edges(self, codes, v_lines, h_lines) -> list["EdgeRef"]:
        """The edges tagged with one of ``codes``: the vertical ones on the
        grid lines x[i], i in ``v_lines``, row by row, then the horizontal
        ones on the grid lines y[j], j in ``h_lines``."""
        v, h = self.v_edge_tag, self.h_edge_tag
        return ([self._v_edge(j, i, int(v[j, i])) for j in range(self.ncy)
                 for i in v_lines if v[j, i] in codes]
                + [self._h_edge(j, i, int(h[j, i])) for j in h_lines
                   for i in range(self.ncx) if h[j, i] in codes])

    def _v_edge(self, j: int, i: int, tag: int) -> "EdgeRef":
        cells = []
        if i > 0:
            cells.append((j, i - 1))
        if i < self.ncx:
            cells.append((j, i))
        return EdgeRef("v", i, j, tag, self.y[j + 1] - self.y[j],
                       (self.x[i], self.y[j]), (self.x[i], self.y[j + 1]),
                       int(self.py[j]), tuple(cells))

    def _h_edge(self, j: int, i: int, tag: int) -> "EdgeRef":
        cells = []
        if j > 0:
            cells.append((j - 1, i))
        if j < self.ncy:
            cells.append((j, i))
        return EdgeRef("h", i, j, tag, self.x[i + 1] - self.x[i],
                       (self.x[i], self.y[j]), (self.x[i + 1], self.y[j]),
                       int(self.px[i]), tuple(cells))

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
                  boundary_part: Callable[[str, float], str]) -> "Mesh":
        """Build a mesh from grid lines, tagging edges automatically.

        ``boundary_part(side, coord)`` maps an exterior edge (side in
        left/right/bottom/top, midpoint coordinate along the side) to a
        boundary part name.
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

        v_tag = np.zeros((ncy, ncx + 1), dtype=np.int8)
        h_tag = np.zeros((ncy + 1, ncx), dtype=np.int8)

        def classify(tag_lo, tag_hi):
            if tag_lo == tag_hi:
                return INTERIOR
            if tag_lo == ELYTE:
                return IFACE_SOLID_HI
            if tag_hi == ELYTE:
                return IFACE_SOLID_LO
            raise ValueError(
                "electrode subdomains touch directly (no electrolyte between)")

        for j in range(ncy):
            ymid = 0.5 * (y[j] + y[j + 1])
            v_tag[j, 0] = PART_CODE[boundary_part("left", ymid)]
            v_tag[j, ncx] = PART_CODE[boundary_part("right", ymid)]
            for i in range(1, ncx):
                v_tag[j, i] = classify(cell_tag[j, i - 1], cell_tag[j, i])
        for i in range(ncx):
            xmid = 0.5 * (x[i] + x[i + 1])
            h_tag[0, i] = PART_CODE[boundary_part("bottom", xmid)]
            h_tag[ncy, i] = PART_CODE[boundary_part("top", xmid)]
            for j in range(1, ncy):
                h_tag[j, i] = classify(cell_tag[j - 1, i], cell_tag[j, i])

        return cls(x=x, y=y, px=px, py=py, cell_tag=cell_tag,
                   v_edge_tag=v_tag, h_edge_tag=h_tag)


@dataclass(frozen=True)
class EdgeRef:
    """One mesh edge: orientation, grid indices, tag and trace metadata."""

    orient: str           # 'v' or 'h'
    i: int                # grid-line/cell column index
    j: int                # grid-line/cell row index
    tag: int
    length: float
    p0: tuple[float, float]
    p1: tuple[float, float]
    degree: int           # trace polynomial degree along the edge
    cells: tuple          # adjacent (j, i) cells, low side first

    def solid_cell(self, cell_tag: np.ndarray) -> tuple[int, int]:
        for (j, i) in self.cells:
            if cell_tag[j, i] != ELYTE:
                return (j, i)
        raise ValueError("edge has no solid neighbor")


def generate_layered_mesh(geom: DomainGeometry, spec: MeshSpec | None = None) -> Mesh:
    """Mesh the interdigitated domain with graded layers toward the interface."""
    spec = spec or MeshSpec()
    xi = set(geom.interface_x_lines)
    yi = set(geom.interface_y_lines)

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
    cell_tag = np.empty((len(ymid), len(xmid)), dtype=np.int8)
    for j, ym in enumerate(ymid):
        for i, xm in enumerate(xmid):
            cell_tag[j, i] = geom.subdomain_at(xm, ym)

    hs = geom.dims.h_s

    def boundary_part(side: str, coord: float) -> str:
        if side == "bottom":
            return geo.BOTTOM
        if side == "top":
            return geo.TOP
        if side == "right":
            return geo.CC_PLUS
        return geo.CC_MINUS if coord < hs else geo.WALL

    return Mesh.from_grid(x, y, px, py, cell_tag, boundary_part)


def rectangle_mesh(width: float, height: float, nx: int, ny: int,
                   degree: int = 1, degree_y: int | None = None,
                   tag: int = ELYTE) -> Mesh:
    """Uniform single-material rectangle, for verification problems.

    Boundary parts reuse the cell naming: left=cc_minus, right=cc_plus,
    bottom=bottom, top=top.
    """
    x = np.linspace(0.0, width, nx + 1)
    y = np.linspace(0.0, height, ny + 1)
    px = np.full(nx, degree, dtype=int)
    py = np.full(ny, degree if degree_y is None else degree_y, dtype=int)
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


def corner_jacobians(coords: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """Bilinear-map jacobian determinant at the 4 corners of each quad.

    The determinant of a bilinear quad map is bilinear in the reference
    coordinates, so its extrema sit at corners; positive corner values imply
    positivity everywhere.
    """
    v = coords[quads]                      # (ne, 4, 2)
    out = np.empty((len(quads), 4))
    corners = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
    for k, (xi, eta) in enumerate(corners):
        d_xi = 0.25 * (-(1 - eta) * v[:, 0] + (1 - eta) * v[:, 1]
                       + (1 + eta) * v[:, 2] - (1 + eta) * v[:, 3])
        d_eta = 0.25 * (-(1 - xi) * v[:, 0] - (1 + xi) * v[:, 1]
                        + (1 + xi) * v[:, 2] + (1 - xi) * v[:, 3])
        out[:, k] = d_xi[:, 0] * d_eta[:, 1] - d_xi[:, 1] * d_eta[:, 0]
    return out


def validate_mesh(mesh: Mesh, geom: DomainGeometry | None = None,
                  node_coords: np.ndarray | None = None) -> QualityReport:
    """Report-only invariant check: jacobians, aspect ratios (at most
    ``MAX_ASPECT``), tags, areas.

    ``node_coords`` overrides the corner coordinates (same layout as
    ``mesh.corner_coords()``), which lets callers probe perturbed geometry.
    """
    rep = QualityReport()
    rep.n_elements = mesh.n_cells
    if mesh.n_cells == 0:
        rep.violations.append("no elements")
        return rep

    tags, counts = np.unique(mesh.cell_tag, return_counts=True)
    rep.n_per_tag = {geo.TAG_NAMES[int(t)]: int(c) for t, c in zip(tags, counts)}
    rep.edge_counts = mesh.edge_tag_counts()

    coords = mesh.corner_coords() if node_coords is None else np.asarray(node_coords)
    jac = corner_jacobians(coords, mesh.connectivity())
    rep.min_jacobian = float(jac.min())
    if rep.min_jacobian <= 0.0:
        bad = int(np.argmin(jac.min(axis=1)))
        rep.violations.append(
            f"non-positive jacobian in element {bad} (min {rep.min_jacobian:.3g})")

    ratio = np.maximum.outer(mesh.hy, mesh.hx) / np.minimum.outer(mesh.hy, mesh.hx)
    rep.max_aspect = float(ratio.max())
    if rep.max_aspect > MAX_ASPECT:
        rep.violations.append(f"aspect ratio {rep.max_aspect:.3g} exceeds "
                              f"bound {MAX_ASPECT:g}")

    # Interface pairing: both neighbors present, exactly one electrolyte.
    for e in mesh.interface_edges():
        if len(e.cells) != 2:
            rep.violations.append(f"interface edge {e.orient}({e.j},{e.i}) "
                                  "is on the domain boundary")
            continue
        t0 = mesh.cell_tag[e.cells[0]]
        t1 = mesh.cell_tag[e.cells[1]]
        if (t0 == ELYTE) == (t1 == ELYTE):
            rep.violations.append(
                f"interface edge {e.orient}({e.j},{e.i}) does not pair an "
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
            a_poly = geom.area(tag)
            rep.areas[geo.TAG_NAMES[tag]] = a_mesh
            if abs(a_mesh - a_poly) > 1e-10 * max(a_poly, 1e-300):
                rep.violations.append(
                    f"subdomain {geo.TAG_NAMES[tag]} area mismatch: mesh "
                    f"{a_mesh!r} vs polygon {a_poly!r}")
    return rep
