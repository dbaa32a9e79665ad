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

The interface has exactly two connected components (one polyline around each
electrode); its normal is oriented from the electrode into the electrolyte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Subdomain codes (used as cell tags throughout)
ANODE = 0
CATHODE = 1
ELYTE = 2
SOLID = (ANODE, CATHODE)
TAG_NAMES = {ANODE: "sa", CATHODE: "sc", ELYTE: "e"}

# Blocks of the interdigitated layout, by the MeshSpec field that gives each
# its base cell counts: 4 columns (between the x cuts) and 3 rows
LAYOUT_BLOCKS = {"nx_blocks": 4, "ny_blocks": 3}

# Boundary part codes (edge tags >= 10; see mesh module)
CC_MINUS = "cc_minus"
CC_PLUS = "cc_plus"
TOP = "top"
BOTTOM = "bottom"
WALL = "wall"      # exterior electrolyte wall segments (natural BC only)
BOUNDARY_PARTS = (CC_MINUS, CC_PLUS, TOP, BOTTOM, WALL)


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


def _shoelace(poly) -> float:
    pts = np.asarray(poly, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


@dataclass(frozen=True)
class DomainGeometry:
    """Block-structured description of the cell domain.

    ``x_cuts``/``y_cuts`` are the grid lines of the coarsest block
    decomposition; ``block_tag[j][i]`` is the subdomain of block
    (x_cuts[i..i+1]) x (y_cuts[j..j+1]).  Polygons are CCW vertex loops,
    interface polylines are oriented so that walking them keeps the electrode
    on the side the normal points away from (normal = electrode -> electrolyte).
    The boundary parts (``BOUNDARY_PARTS``) are tagged on the mesh edges by
    ``mesh.generate_layered_mesh``.
    """

    dims: CellDimensions
    x_cuts: tuple[float, ...]
    y_cuts: tuple[float, ...]
    block_tag: tuple[tuple[int, ...], ...]       # [row][col]
    polygons: dict = field(repr=False)           # tag -> list[(x, y)]
    interface: tuple = field(repr=False)         # (electrode_tag, [(x, y), ...])
    interface_x_lines: tuple[float, ...] = ()
    interface_y_lines: tuple[float, ...] = ()

    @property
    def bounding_box(self) -> tuple[float, float]:
        return self.x_cuts[-1] - self.x_cuts[0], self.y_cuts[-1] - self.y_cuts[0]

    def subdomain_at(self, x, y):
        """Tag of the block containing each point (interior points only);
        ``x`` and ``y`` are numbers or arrays that broadcast together."""
        i = np.clip(np.searchsorted(self.x_cuts, x) - 1, 0, len(self.x_cuts) - 2)
        j = np.clip(np.searchsorted(self.y_cuts, y) - 1, 0, len(self.y_cuts) - 2)
        return np.asarray(self.block_tag)[j, i]

    def area(self, tag: int) -> float:
        return abs(_shoelace(self.polygons[tag]))


def build_interdigitated_domain(dims: CellDimensions | None = None) -> DomainGeometry:
    """Construct the canonical interdigitated unit-cell geometry."""
    dims = dims or CellDimensions()
    hs, he, length, gap, cap = dims.h_s, dims.h_e, dims.length, dims.gap, dims.cap
    width, height = dims.width, dims.height
    x_tip_a = length                  # anode digit tip
    x_cap = width - cap               # end-cap inner face
    x_tip_c = gap                     # cathode digit tip
    y_a = hs                          # anode digit top
    y_c = height - hs                 # cathode digit bottom

    x_cuts = (0.0, x_tip_c, x_tip_a, x_cap, width)
    y_cuts = (0.0, y_a, y_c, height)
    if not all(a < b for a, b in zip(x_cuts, x_cuts[1:])):
        raise ValueError(f"degenerate layout: x cuts not increasing: {x_cuts}")
    if not all(a < b for a, b in zip(y_cuts, y_cuts[1:])):
        raise ValueError(f"degenerate layout: y cuts not increasing: {y_cuts}")

    block_tag = (
        (ANODE, ANODE, ELYTE, CATHODE),      # y in [0, hs]
        (ELYTE, ELYTE, ELYTE, CATHODE),      # y in [hs, Y-hs]
        (ELYTE, CATHODE, CATHODE, CATHODE),  # y in [Y-hs, Y]
    )

    polygons = {
        ANODE: [(0.0, 0.0), (x_tip_a, 0.0), (x_tip_a, y_a), (0.0, y_a)],
        CATHODE: [(x_cap, 0.0), (width, 0.0), (width, height),
                  (x_tip_c, height), (x_tip_c, y_c), (x_cap, y_c)],
        ELYTE: [(0.0, y_a), (x_tip_a, y_a), (x_tip_a, 0.0), (x_cap, 0.0),
                (x_cap, y_c), (x_tip_c, y_c), (x_tip_c, height), (0.0, height)],
    }

    # Oriented interface polylines (electrode on the inside):
    interface = (
        (ANODE, [(x_tip_a, 0.0), (x_tip_a, y_a), (0.0, y_a)]),
        (CATHODE, [(x_cap, 0.0), (x_cap, y_c), (x_tip_c, y_c), (x_tip_c, height)]),
    )

    geom = DomainGeometry(
        dims=dims,
        x_cuts=x_cuts,
        y_cuts=y_cuts,
        block_tag=block_tag,
        polygons=polygons,
        interface=interface,
        interface_x_lines=(x_tip_c, x_tip_a, x_cap),
        interface_y_lines=(y_a, y_c),
    )

    # Constructor self-checks: bounding box and subdomain area consistency.
    # Purely relative (atol=0): lengths in metres sit far below numpy's
    # default absolute tolerance.
    if not np.allclose(geom.bounding_box, (width, height), atol=0.0):
        raise AssertionError("bounding box disagrees with the dimensions")
    block_areas = {ANODE: 0.0, CATHODE: 0.0, ELYTE: 0.0}
    for j in range(3):
        for i in range(4):
            dx = x_cuts[i + 1] - x_cuts[i]
            dy = y_cuts[j + 1] - y_cuts[j]
            block_areas[block_tag[j][i]] += dx * dy
    for tag in (ANODE, CATHODE, ELYTE):
        if not np.isclose(block_areas[tag], geom.area(tag), rtol=1e-12,
                          atol=0.0):
            raise AssertionError(
                f"block decomposition disagrees with the {TAG_NAMES[tag]} polygon")
    return geom


def domain_svg(geom: DomainGeometry) -> str:
    """Scale drawing of the committed layout (subdomains, parts, interface)."""
    width, height = geom.bounding_box
    scale = 900.0 / width
    pad = 40.0
    w_px, h_px = width * scale + 2 * pad, height * scale + 2 * pad
    colors = {ANODE: "#7f9fd4", CATHODE: "#d48f7f", ELYTE: "#d9e8d4"}

    def pt(x, y):
        # flip y so the drawing matches the usual orientation
        return f"{pad + x * scale:.1f},{pad + (height - y) * scale:.1f}"

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_px:.0f}" '
             f'height="{h_px:.0f}" viewBox="0 0 {w_px:.0f} {h_px:.0f}">']
    for tag in (ELYTE, ANODE, CATHODE):
        pts = " ".join(pt(x, y) for x, y in geom.polygons[tag])
        parts.append(f'<polygon points="{pts}" fill="{colors[tag]}" '
                     'stroke="#333" stroke-width="1"/>')
    for _, line in geom.interface:
        pts = " ".join(pt(x, y) for x, y in line)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#b00" '
                     'stroke-width="2.5"/>')
    labels = [("anode (sa)", 0.25 * width, geom.dims.h_s / 2),
              ("cathode (sc)", 0.55 * width, height - geom.dims.h_s / 2),
              ("electrolyte (e)", 0.4 * width, height / 2)]
    for text, x, y in labels:
        parts.append(f'<text x="{pad + x * scale:.1f}" '
                     f'y="{pad + (height - y) * scale + 4:.1f}" '
                     'font-size="14" text-anchor="middle">%s</text>' % text)
    edge_labels = [("cc-", -0.02 * width, geom.dims.h_s / 2),
                   ("cc+", 1.02 * width, height / 2),
                   ("top", 0.5 * width, height * 1.04),
                   ("bottom", 0.5 * width, -0.06 * height)]
    for text, x, y in edge_labels:
        parts.append(f'<text x="{pad + x * scale:.1f}" '
                     f'y="{pad + (height - y) * scale:.1f}" font-size="12" '
                     'text-anchor="middle" fill="#555">%s</text>' % text)
    parts.append("</svg>")
    return "\n".join(parts)

