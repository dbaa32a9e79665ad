"""Representative interdigitated cell geometry.

The computational domain is one repeating unit of an interdigitated-plate
cell, cut along the mid-planes of an anode digit (bottom) and the adjacent
cathode digit (top).  Canonical layout, with X = l + L + w and Y = 2*H_s + H_e
(all lengths in meters on the API, Table-2 defaults):

      Y +----+---------------------------+-----+
        | e  |       cathode digit       |     |
    Y-Hs+----+---------------------------+ end |
        |                                | cap |
        |          electrolyte           |(sc) |
     Hs +---------------------+----+-----+     |
        |     anode digit     | e  |     |     |
      0 +---------------------+----+-----+-----+
        0    w                L   L+w        X=L+w+l

    - anode digit  [0, L] x [0, H_s], contact face (cc-) on the left wall;
    - cathode:     digit [w, L+w] x [Y-H_s, Y] plus the full-height end cap
      [L+w, X] x [0, Y]; contact face (cc+) is the whole right wall;
    - electrolyte fills the complement; each digit tip faces a gap of width w
      (anode tip vs. end cap, cathode tip vs. left wall).

``LAYOUT`` is the one description of this layout: the subdomain of each
block and the boundary part of each row's left face.  The areas, the
electrode-electrolyte interface (the block sides between an electrode and the
electrolyte) and the collector faces all follow from it and the cuts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Subdomain codes (used as cell tags throughout)
ANODE = 0
CATHODE = 1
ELYTE = 2
SOLID = (ANODE, CATHODE)
TAG_NAMES = {ANODE: "sa", CATHODE: "sc", ELYTE: "e"}

# Boundary part codes (edge tags >= 10; see mesh module)
CC_MINUS = "cc_minus"
CC_PLUS = "cc_plus"
TOP = "top"
BOTTOM = "bottom"
WALL = "wall"      # exterior electrolyte wall segments (natural BC only)
BOUNDARY_PARTS = (CC_MINUS, CC_PLUS, TOP, BOTTOM, WALL)

# The layout, one row of blocks per entry, bottom to top: the subdomain of
# each block (the columns between the x cuts, left to right) and the boundary
# part of the row's left face.  The right face is cc+ in every row.
LAYOUT = (
    ((ANODE, ANODE, ELYTE, CATHODE), CC_MINUS),      # y in [0, h_s]
    ((ELYTE, ELYTE, ELYTE, CATHODE), WALL),          # y in [h_s, Y - h_s]
    ((ELYTE, CATHODE, CATHODE, CATHODE), WALL),      # y in [Y - h_s, Y]
)

# Blocks of the layout, by the MeshSpec field that gives each its base cell
# counts
LAYOUT_BLOCKS = {"nx_blocks": len(LAYOUT[0][0]), "ny_blocks": len(LAYOUT)}


@dataclass(frozen=True)
class CellDimensions:
    """Characteristic lengths of the interdigitated unit (meters).

    h_s: electrode digit half-thickness; h_e: electrolyte channel thickness;
    length: digit length; gap: digit tip gap; cap: end-cap length.
    """

    h_s: float = 30e-6
    h_e: float = 40e-6
    length: float = 900e-6
    gap: float = 40e-6
    cap: float = 60e-6

    def __post_init__(self):
        bad = [n for n in ("h_s", "h_e", "length", "gap", "cap")
               if getattr(self, n) <= 0.0]
        if bad:
            raise ValueError(f"cell dimensions must be positive: {bad}")
        if self.gap >= self.length:
            raise ValueError(
                f"digit tip gap ({self.gap:g}) must be smaller than the digit "
                f"length ({self.length:g}); the digits would not interleave")

    @property
    def width(self) -> float:
        return self.length + self.gap + self.cap

    @property
    def height(self) -> float:
        return 2.0 * self.h_s + self.h_e


@dataclass(frozen=True)
class DomainGeometry:
    """Block-structured description of the cell domain.

    ``x_cuts``/``y_cuts`` are the grid lines of the coarsest block
    decomposition; ``block_tag[j][i]`` is the subdomain of block
    (x_cuts[i..i+1]) x (y_cuts[j..j+1]), as ``LAYOUT`` gives it.  The boundary
    parts (``BOUNDARY_PARTS``) are tagged on the mesh edges by
    ``mesh.generate_layered_mesh``, through ``boundary_part``.
    """

    dims: CellDimensions
    x_cuts: tuple[float, ...]
    y_cuts: tuple[float, ...]

    @property
    def block_tag(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tags for tags, _ in LAYOUT)

    @property
    def bounding_box(self) -> tuple[float, float]:
        return self.x_cuts[-1] - self.x_cuts[0], self.y_cuts[-1] - self.y_cuts[0]

    def subdomain_at(self, x, y):
        """Tag of the block containing each point (interior points only);
        ``x`` and ``y`` are numbers or arrays that broadcast together."""
        return np.asarray(self.block_tag)[_block(self.y_cuts, y),
                                          _block(self.x_cuts, x)]

    def area(self, tag: int) -> float:
        blocks = np.outer(np.diff(self.y_cuts), np.diff(self.x_cuts))
        return float(blocks[np.asarray(self.block_tag) == tag].sum())

    @property
    def interface_sides(self) -> list[tuple[float, float, float, float]]:
        """The block sides between an electrode and the electrolyte, each
        as its end points (x0, y0, x1, y1)."""
        elyte = np.asarray(self.block_tag) == ELYTE
        x, y = self.x_cuts, self.y_cuts
        vertical = np.argwhere(elyte[:, :-1] != elyte[:, 1:])
        horizontal = np.argwhere(elyte[:-1] != elyte[1:])
        return ([(x[i + 1], y[j], x[i + 1], y[j + 1]) for j, i in vertical]
                + [(x[i], y[j + 1], x[i + 1], y[j + 1]) for j, i in horizontal])

    @property
    def interface_lines(self) -> tuple[set, set]:
        """The x cuts and the y cuts that the interface runs along."""
        sides = self.interface_sides
        return ({x0 for x0, _, x1, _ in sides if x0 == x1},
                {y0 for _, y0, _, y1 in sides if y0 == y1})

    def boundary_part(self, side: str, coords):
        """The boundary part of the exterior edges of one side (left, right,
        bottom or top) at ``coords`` along it: a left face takes its row's
        part, as ``Mesh.from_grid`` asks."""
        if side == "left":
            parts = np.asarray([part for _, part in LAYOUT])
            return parts[_block(self.y_cuts, coords)]
        return {"right": CC_PLUS, "bottom": BOTTOM, "top": TOP}[side]


def _block(cuts, v):
    """Index of the block between ``cuts`` that holds each value."""
    return np.clip(np.searchsorted(cuts, v) - 1, 0, len(cuts) - 2)


def build_interdigitated_domain(dims: CellDimensions | None = None) -> DomainGeometry:
    """Construct the canonical interdigitated unit-cell geometry."""
    dims = dims or CellDimensions()
    x_cuts = (0.0, dims.gap, dims.length, dims.width - dims.cap, dims.width)
    y_cuts = (0.0, dims.h_s, dims.height - dims.h_s, dims.height)
    if not all(a < b for a, b in zip(x_cuts, x_cuts[1:])):
        raise ValueError(f"degenerate layout: x cuts not increasing: {x_cuts}")
    if not all(a < b for a, b in zip(y_cuts, y_cuts[1:])):
        raise ValueError(f"degenerate layout: y cuts not increasing: {y_cuts}")
    return DomainGeometry(dims=dims, x_cuts=x_cuts, y_cuts=y_cuts)


def domain_svg(geom: DomainGeometry) -> str:
    """Scale drawing of the committed layout (subdomains, parts, interface)."""
    width, height = geom.bounding_box
    scale = 900.0 / width
    pad = 40.0
    w_px, h_px = width * scale + 2 * pad, height * scale + 2 * pad
    colors = {ANODE: "#7f9fd4", CATHODE: "#d48f7f", ELYTE: "#d9e8d4"}

    def px(x):
        return pad + x * scale

    def py(y):
        # flip y so the drawing matches the usual orientation
        return pad + (height - y) * scale

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_px:.0f}" '
             f'height="{h_px:.0f}" viewBox="0 0 {w_px:.0f} {h_px:.0f}">']
    x, y = geom.x_cuts, geom.y_cuts
    for j, row in enumerate(geom.block_tag):
        for i, tag in enumerate(row):
            parts.append(f'<rect x="{px(x[i]):.1f}" y="{py(y[j + 1]):.1f}" '
                         f'width="{(x[i + 1] - x[i]) * scale:.1f}" '
                         f'height="{(y[j + 1] - y[j]) * scale:.1f}" '
                         f'fill="{colors[tag]}"/>')
    for x0, y0, x1, y1 in geom.interface_sides:
        parts.append(f'<line x1="{px(x0):.1f}" y1="{py(y0):.1f}" '
                     f'x2="{px(x1):.1f}" y2="{py(y1):.1f}" stroke="#b00" '
                     'stroke-width="2.5"/>')
    labels = [("anode (sa)", 0.25 * width, geom.dims.h_s / 2),
              ("cathode (sc)", 0.55 * width, height - geom.dims.h_s / 2),
              ("electrolyte (e)", 0.4 * width, height / 2)]
    for text, lx, ly in labels:
        parts.append(f'<text x="{px(lx):.1f}" y="{py(ly) + 4:.1f}" '
                     'font-size="14" text-anchor="middle">%s</text>' % text)
    edge_labels = [("cc-", -0.02 * width, geom.dims.h_s / 2),
                   ("cc+", 1.02 * width, height / 2),
                   ("top", 0.5 * width, height * 1.04),
                   ("bottom", 0.5 * width, -0.06 * height)]
    for text, lx, ly in edge_labels:
        parts.append(f'<text x="{px(lx):.1f}" y="{py(ly):.1f}" font-size="12" '
                     'text-anchor="middle" fill="#555">%s</text>' % text)
    parts.append("</svg>")
    return "\n".join(parts)

