import numpy as np
import pytest

from voltacell import geometry as geo
from voltacell import spaces as sps
from voltacell.mesh import MeshSpec, generate_layered_mesh, rectangle_mesh


# u's roller conditions
ROLLERS = [sps.EssentialBC("cc_minus", 0), sps.EssentialBC("cc_plus", 0),
           sps.EssentialBC("top", 1), sps.EssentialBC("bottom", 1)]


@pytest.fixture(scope="module")
def battery_mesh():
    g = geo.build_interdigitated_domain()
    return g, generate_layered_mesh(g, MeshSpec.coarse())


def test_conforming_shared_nodes():
    """Neighboring cells agree on the global DOFs of their shared edge."""
    m = rectangle_mesh(2.0, 1.0, 2, 1, degree=3)
    grid = sps.NodeGrid.build(m)
    left, right = grid.cell_nodes(m, [0, 0], [0, 1]).reshape(2, 4, 4)
    assert np.array_equal(left[:, -1], right[:, 0])


def test_variable_degree_rows_stay_conforming():
    m = rectangle_mesh(1.0, 1.0, 2, 2, degree=2)
    m.py[1] = 4   # boost one row; trace degree along vertical edges follows py
    grid = sps.NodeGrid.build(m)
    top_left, top_right = grid.cell_nodes(m, [1, 1], [0, 1]).reshape(2, 5, 3)
    assert np.array_equal(top_left[:, -1], top_right[:, 0])
    # one call takes the cells of one degree pair
    with pytest.raises(ValueError, match="one degree pair"):
        grid.cell_nodes(m, [0, 1], [0, 0])


def test_theta_space_covers_everything(battery_mesh):
    _, m = battery_mesh
    s = sps.build_field_space(sps.MeshSupports(m)[sps.OMEGA], name="theta")
    assert s.support.n_nodes == s.support.grid.n_nodes
    assert s.n_free == s.ndof


def test_phi_s_constrained_on_negative_collector(battery_mesh):
    _, m = battery_mesh
    s = sps.build_field_space(sps.MeshSupports(m)[sps.OMEGA_S],
                              constraints=[sps.EssentialBC("cc_minus")],
                              name="phi_s")
    xy = s.support.node_xy()
    constrained = np.nonzero(s.constrained)[0]
    assert len(constrained) > 0
    # all constrained nodes sit on the left wall below the anode top
    assert np.allclose(xy[constrained, 0], 0.0)
    assert np.all(xy[constrained, 1] <= 30e-6 + 1e-12)


def test_vector_space_normal_constraints(battery_mesh):
    _, m = battery_mesh
    s = sps.build_field_space(sps.MeshSupports(m)[sps.OMEGA_S], 2, ROLLERS,
                              name="u")
    xy = s.support.node_xy()
    width = m.x[-1]
    height = m.y[-1]
    cx = s.constrained[0::2]
    cy = s.constrained[1::2]
    # x-component pinned exactly on the collector walls
    assert np.all(np.isclose(xy[cx, 0], 0.0) | np.isclose(xy[cx, 0], width))
    # y-component pinned exactly on top/bottom
    assert np.all(np.isclose(xy[cy, 1], 0.0) | np.isclose(xy[cy, 1], height))
    # rigid modes removed: more than two constraints of each kind
    assert cx.sum() >= 2 and cy.sum() >= 2


def test_constraint_count_on_tiny_mesh():
    """Hand-enumerated constrained DOFs on a 2-element solid strip."""
    m = rectangle_mesh(2.0, 1.0, 2, 1, degree=1, tag=geo.ANODE)
    s = sps.build_field_space(sps.MeshSupports(m)[sps.OMEGA_S], 2, ROLLERS,
                              name="u")
    # 6 nodes; x pinned on the 2 left + 2 right nodes, y pinned on all 6
    assert s.ndof == 12
    assert int(s.constrained.sum()) == 4 + 6


def test_each_support_is_built_once_on_request():
    """A mesh's supports share its grid, master groups and quadrature
    layout; each selector's support is built at its first request only, so a
    single-subdomain mesh serves the selectors it carries."""
    m = rectangle_mesh(1.0, 1.0, 2, 2, degree=1, tag=geo.ANODE)
    supports = sps.MeshSupports(m)
    solid = supports[sps.OMEGA_S]
    assert supports[sps.OMEGA_S] is solid
    assert supports[sps.OMEGA] is not solid
    assert solid.grid is supports.grid and solid.master is supports.master
    assert solid.qp is supports.qp
    with pytest.raises(ValueError, match="no elements"):
        supports[sps.OMEGA_E]


def test_selector_without_elements_raises():
    m = rectangle_mesh(1.0, 1.0, 2, 2, degree=1, tag=geo.ELYTE)
    with pytest.raises(ValueError, match="no elements"):
        sps.MeshSupports(m)[sps.OMEGA_S]


def test_interpolation_and_edge_nodes():
    m = rectangle_mesh(1.0, 1.0, 3, 3, degree=2)
    s = sps.MeshSupports(m)[sps.OMEGA]
    # the nodal values of a field sit on the 7 x 7 lattice of the Q2 nodes
    xy = s.node_xy()
    assert s.n_nodes == 49
    assert np.allclose(np.sort(np.unique(np.round(6 * xy, 9))),
                       np.arange(7))
    edge = m.boundary_edges("top")[0]
    nodes = s.edge_nodes(edge)
    assert np.allclose(s.node_xy()[nodes][:, 1], 1.0)


def test_support_restriction(battery_mesh):
    _, m = battery_mesh
    supports = sps.MeshSupports(m)
    ce, cs = supports[sps.OMEGA_E], supports[sps.OMEGA_S]
    # interface nodes belong to both restricted spaces
    shared = np.intersect1d(ce.node_ids, cs.node_ids)
    assert len(shared) > 0
    # but interior-anode nodes never enter the electrolyte space
    assert ce.n_nodes + cs.n_nodes > ce.grid.n_nodes
