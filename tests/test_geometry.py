import numpy as np
import pytest

from voltacell import geometry as geo
from voltacell.mesh import MeshSpec, generate_layered_mesh


def test_table_dimensions_bounding_box():
    g = geo.build_interdigitated_domain(geo.CellDimensions())
    w, h = g.bounding_box
    assert w == pytest.approx(1000e-6, rel=1e-12, abs=0.0)
    assert h == pytest.approx(100e-6, rel=1e-12, abs=0.0)
    assert len(g.interface) == 2


def test_symmetric_dimensions_still_valid():
    d = geo.CellDimensions(h_s=40e-6, h_e=40e-6, length=50e-6, gap=49e-6,
                           cap=50e-6)
    g = geo.build_interdigitated_domain(d)
    assert len(g.interface) == 2


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


def test_area_self_check_is_relative(monkeypatch):
    """The constructor's area self-check catches a 1e-9 relative
    disagreement on the default dimensions in metres, whose areas (2.7e-8
    to 4e-8 m^2) sit far below numpy's default absolute tolerance."""
    area = geo.DomainGeometry.area
    monkeypatch.setattr(geo.DomainGeometry, "area",
                        lambda self, tag: area(self, tag) * (1.0 + 1e-9))
    with pytest.raises(AssertionError, match="block decomposition"):
        geo.build_interdigitated_domain(geo.CellDimensions())


def test_subdomain_lookup():
    g = geo.build_interdigitated_domain()
    assert g.subdomain_at(450e-6, 15e-6) == geo.ANODE
    assert g.subdomain_at(450e-6, 50e-6) == geo.ELYTE
    assert g.subdomain_at(450e-6, 85e-6) == geo.CATHODE
    assert g.subdomain_at(970e-6, 50e-6) == geo.CATHODE   # end cap
    assert g.subdomain_at(920e-6, 15e-6) == geo.ELYTE     # anode tip gap
    assert g.subdomain_at(20e-6, 85e-6) == geo.ELYTE      # cathode tip gap


def test_interface_polylines_touch_both_media():
    g = geo.build_interdigitated_domain()
    tags = [tag for tag, _ in g.interface]
    assert sorted(tags) == [geo.ANODE, geo.CATHODE]
    # each polyline is connected (consecutive points share a coordinate)
    for _, line in g.interface:
        for p, q in zip(line, line[1:]):
            assert p[0] == q[0] or p[1] == q[1]


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
    assert "polygon" in svg and "polyline" in svg
