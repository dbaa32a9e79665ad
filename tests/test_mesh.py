import numpy as np
import pytest

from voltacell import geometry as geo
from voltacell import mesh as vm


def test_production_element_count(geom):
    m = vm.generate_layered_mesh(geom, vm.MeshSpec.production())
    # production resolution lands on the order of ~1100 elements
    assert 574 <= m.n_cells <= 2296


def test_zero_layers_block_count(geom):
    spec = vm.MeshSpec(nx_blocks=(1, 1, 1, 1), ny_blocks=(1, 1, 1),
                       n_layers=0, degree=1, normal_degree=1)
    m = vm.generate_layered_mesh(geom, spec)
    # one cell per geometry block: 4 columns x 3 rows
    assert m.n_cells == 12
    assert np.all(m.px == 1) and np.all(m.py == 1)


def test_edge_tags_partition(geom):
    m = vm.generate_layered_mesh(geom, vm.MeshSpec.coarse())
    counts = m.edge_tag_counts()
    parts = sum(counts[p] for p in geo.BOUNDARY_PARTS)
    assert counts["interior"] + counts["interface"] + parts == counts["total"]
    # boundary edge count equals the perimeter cell count
    assert parts == 2 * m.ncx + 2 * m.ncy


def test_interface_edges_pair_solid_with_electrolyte(geom):
    m = vm.generate_layered_mesh(geom, vm.MeshSpec.coarse())
    iface = m.interface_edges()
    assert len(iface) and np.all(iface.cells >= 0)
    tags = np.sort(m.cell_tag.ravel()[iface.cells], axis=1)
    assert np.all(tags[:, 1] == geo.ELYTE)
    assert np.all(np.isin(tags[:, 0], (geo.ANODE, geo.CATHODE)))
    assert np.array_equal(iface.solid_tag(m.cell_tag), tags[:, 0])


def test_area_consistency(geom):
    m = vm.generate_layered_mesh(geom, vm.MeshSpec.coarse())
    for tag in (geo.ANODE, geo.CATHODE, geo.ELYTE):
        assert m.area_of(tag) == pytest.approx(geom.area(tag), rel=1e-10,
                                               abs=0.0)


def test_layer_monotonicity(geom):
    """More layers never increase the thickness normal to the interface."""
    def max_thickness_near_interface(n_layers):
        spec = vm.MeshSpec(nx_blocks=(1, 3, 2, 1), ny_blocks=(1, 2, 1),
                           n_layers=n_layers, degree=1, normal_degree=1)
        m = vm.generate_layered_mesh(geom, spec)
        iface = m.interface_edges()
        rows = iface.cells[~iface.vertical] // m.ncx
        return m.hy[rows].max(initial=0.0)

    vals = [max_thickness_near_interface(n) for n in (0, 1, 2, 4, 6)]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_boosted_degree_only_in_finest_layer(geom):
    spec = vm.MeshSpec(nx_blocks=(1, 4, 2, 1), ny_blocks=(2, 2, 2),
                       n_layers=2, degree=3, normal_degree=4)
    m = vm.generate_layered_mesh(geom, spec)
    assert set(np.unique(m.py)) == {3, 4}
    # the boosted rows sit immediately next to the horizontal interface lines
    hs = geom.dims.h_s
    height = geom.dims.height
    lines = [hs, height - hs]
    for j in np.nonzero(m.py == 4)[0]:
        touches = np.isclose(m.y[j], lines, atol=1e-12).any() or \
            np.isclose(m.y[j + 1], lines, atol=1e-12).any()
        assert touches


def test_layer_budget_error(geom):
    spec = vm.MeshSpec(nx_blocks=(1, 1, 1, 1), ny_blocks=(1, 1, 1),
                       n_layers=2, degree=1, normal_degree=1)
    with pytest.raises(ValueError, match="layer budget"):
        vm.generate_layered_mesh(geom, spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        vm.MeshSpec(grading=1.5)
    with pytest.raises(ValueError):
        vm.MeshSpec(n_layers=-1)
    with pytest.raises(ValueError):
        vm.MeshSpec(degree=0)


def test_validate_clean_mesh(geom):
    m = vm.generate_layered_mesh(geom, vm.MeshSpec.production())
    rep = vm.validate_mesh(m, geom)
    assert rep.ok, rep.violations
    assert rep.min_jacobian > 0.0
    assert rep.n_per_tag["sa"] > 0 and rep.n_per_tag["sc"] > 0


def test_validate_flags_inverted_element():
    """A grid line that steps back inverts the cells behind it: the report
    names the line and its minimum jacobian hx * hy / 4 is negative."""
    m = vm.Mesh.from_grid([0.0, 1.0, 0.5, 2.0], [0.0, 2.0], [1, 1, 1], [1],
                          np.full((1, 3), geo.ELYTE, dtype=np.int8),
                          lambda side, c: geo.WALL)
    rep = vm.validate_mesh(m)
    assert not rep.ok
    assert rep.violations == [
        "grid line x[2] = 0.5 does not increase on x[1] = 1"]
    assert rep.min_jacobian == 0.25 * -0.5 * 2.0
    assert rep.max_aspect == 4.0          # the inverted cell is 0.5 by 2


def test_validate_zero_width_cell_has_infinite_aspect():
    """A repeated grid line gives a zero-width cell: the report names the
    line and reports aspect inf (no division warning), past the bound."""
    m = vm.Mesh.from_grid([0.0, 1.0, 1.0, 2.0], [0.0, 2.0], [1, 1, 1], [1],
                          np.full((1, 3), geo.ELYTE, dtype=np.int8),
                          lambda side, c: geo.WALL)
    rep = vm.validate_mesh(m)
    assert rep.max_aspect == np.inf
    assert rep.violations == [
        "grid line x[2] = 1 does not increase on x[1] = 1",
        f"aspect ratio inf exceeds bound {vm.MAX_ASPECT:g}"]


def test_validate_empty_mesh():
    m = vm.Mesh(x=np.array([0.0]), y=np.array([0.0]),
                px=np.array([], dtype=int), py=np.array([], dtype=int),
                cell_tag=np.empty((0, 0), dtype=np.int8),
                v_edge_tag=np.empty((0, 1), dtype=np.int8),
                h_edge_tag=np.empty((1, 0), dtype=np.int8))
    rep = vm.validate_mesh(m)
    assert not rep.ok
    assert "no elements" in rep.violations


def test_rectangle_mesh_parts():
    m = vm.rectangle_mesh(2.0, 1.0, 4, 2, degree=2)
    assert m.n_cells == 8
    assert len(m.boundary_edges("cc_minus")) == 2
    assert len(m.boundary_edges("top")) == 4
    assert not m.interface_edges()


def test_from_grid_rejects_touching_electrodes():
    with pytest.raises(ValueError, match="electrolyte"):
        vm.Mesh.from_grid(
            np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0]),
            np.array([1, 1]), np.array([1]),
            np.array([[geo.ANODE, geo.CATHODE]]),
            lambda side, c: "wall")
