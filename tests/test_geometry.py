import numpy as np
import pytest

from voltacell import geometry as geo
from voltacell.mesh import MeshSpec, generate_layered_mesh


def test_table_dimensions_bounding_box():
    g = geo.build_interdigitated_domain(geo.CellDimensions())
    w, h = g.bounding_box
    assert w == pytest.approx(1000e-6, rel=1e-12, abs=0.0)
    assert h == pytest.approx(100e-6, rel=1e-12, abs=0.0)
    # the block counts that scenario validation checks the mesh spec against
    assert geo.LAYOUT_BLOCKS == {"nx_blocks": len(g.x_cuts) - 1,
                                 "ny_blocks": len(g.y_cuts) - 1}


SYMMETRIC = geo.CellDimensions(h_s=40e-6, h_e=40e-6, length=50e-6,
                               gap=49e-6, cap=50e-6)


def test_symmetric_dimensions_still_valid():
    g = geo.build_interdigitated_domain(SYMMETRIC)
    assert g.bounding_box == (SYMMETRIC.width, SYMMETRIC.height)


def test_degenerate_gap_rejected():
    with pytest.raises(ValueError, match="gap"):
        geo.CellDimensions(gap=900e-6, length=900e-6)
    with pytest.raises(ValueError, match="gap"):
        geo.CellDimensions(gap=1e-3, length=900e-6)


def test_nonpositive_dimension_rejected():
    with pytest.raises(ValueError, match="positive"):
        geo.CellDimensions(h_e=0.0)


def test_subdomain_areas():
    g = geo.build_interdigitated_domain()
    # anode digit 900x30, cathode digit 900x30 + cap 60x100, rest electrolyte
    assert g.area(geo.ANODE) == pytest.approx(900e-6 * 30e-6, rel=1e-12,
                                              abs=0.0)
    assert g.area(geo.CATHODE) == pytest.approx(
        900e-6 * 30e-6 + 60e-6 * 100e-6, rel=1e-12, abs=0.0)
    total = 1000e-6 * 100e-6
    assert g.area(geo.ELYTE) == pytest.approx(
        total - g.area(geo.ANODE) - g.area(geo.CATHODE), rel=1e-12, abs=0.0)


def test_subdomain_lookup():
    g = geo.build_interdigitated_domain()
    assert g.subdomain_at(450e-6, 15e-6) == geo.ANODE
    assert g.subdomain_at(450e-6, 50e-6) == geo.ELYTE
    assert g.subdomain_at(450e-6, 85e-6) == geo.CATHODE
    assert g.subdomain_at(970e-6, 50e-6) == geo.CATHODE   # end cap
    assert g.subdomain_at(920e-6, 15e-6) == geo.ELYTE     # anode tip gap
    assert g.subdomain_at(20e-6, 85e-6) == geo.ELYTE      # cathode tip gap


def test_interface_lines_are_the_digit_faces():
    """The grid lines that the interface runs along, derived from the
    layout: the cathode tip, the anode tip and the end-cap face in x, the
    two digit faces in y."""
    for d in (geo.CellDimensions(), SYMMETRIC):
        g = geo.build_interdigitated_domain(d)
        assert g.interface_lines == ({d.gap, d.length, d.width - d.cap},
                                     {d.h_s, d.height - d.h_s})


def test_electrodes_not_adjacent():
    g = geo.build_interdigitated_domain()
    # anode lives below y = h_s; the cathode digit above Y - h_s and the cap
    # beyond x = width - cap, which starts past the anode tip plus the gap
    d = g.dims
    assert d.length + d.gap < d.width - d.cap + 1e-18 or \
        d.h_s < d.height - d.h_s


def test_boundary_parts_cover_perimeter():
    """The boundary parts that the mesh tags: cc_minus is the anode's
    contact face (h_s long), cc_plus the whole right wall, and the parts
    together cover the perimeter."""
    g = geo.build_interdigitated_domain()
    d = g.dims
    mesh = generate_layered_mesh(g, MeshSpec.coarse())
    length = {part: mesh.boundary_edges(part).length.sum()
              for part in geo.BOUNDARY_PARTS}
    assert length[geo.CC_MINUS] == pytest.approx(d.h_s, rel=1e-12, abs=0.0)
    assert length[geo.CC_PLUS] == pytest.approx(d.height, rel=1e-12, abs=0.0)
    assert sum(length.values()) == pytest.approx(2 * (d.width + d.height),
                                                 rel=1e-12, abs=0.0)


def test_domain_svg_renders():
    g = geo.build_interdigitated_domain()
    svg = geo.domain_svg(g)
    assert svg.startswith("<svg")
    # one rect per block of the 4 x 3 layout
    assert svg.count("<rect ") == 12
    # the interface: 3 block sides around the anode, 5 around the cathode
    assert svg.count('<line ') == svg.count('stroke="#b00"') == 8
