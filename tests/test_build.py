"""The array-built cell problem against per-cell and per-edge oracles."""

import numpy as np
import pytest

from voltacell import assemble as asm
from voltacell import spaces as sps
from voltacell.geometry import CC_PLUS
from voltacell.mesh import PART_CODE, MeshSpec, generate_layered_mesh
from voltacell.physics import CellProblem

import oracles

U_BCS = [sps.EssentialBC("cc_minus", 0, 0.0), sps.EssentialBC("cc_plus", 0, 0.0),
         sps.EssentialBC("top", 1, 0.0), sps.EssentialBC("bottom", 1, 0.0)]


def same_csr(a, b):
    return (a.shape == b.shape and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data))


@pytest.mark.parametrize("spec", [MeshSpec.coarse, MeshSpec.production])
def test_array_build_matches_per_cell_oracle(geom, mats, spec):
    mesh = generate_layered_mesh(geom, spec())
    assert np.array_equal(mesh.cell_tag, oracles.layered_cell_tags(geom, mesh))
    v_tag, h_tag = oracles.layered_edge_tags(geom, mesh)
    assert np.array_equal(mesh.v_edge_tag, v_tag)
    assert np.array_equal(mesh.h_edge_tag, h_tag)

    prob = CellProblem(mesh, mats)
    tables = oracles.master_node_tables(mesh, prob.grid)
    assert [(g.px, g.py) for g in prob.master] == sorted(tables)
    for g in prob.master:
        cells, nodes = tables[(g.px, g.py)]
        assert np.array_equal(g.cells, cells)
        assert np.array_equal(g.nodes, nodes)

    spaces = {"phi_s": (prob.s_ps, [sps.EssentialBC("cc_minus", 0, 0.0)]),
              "u": (prob.s_u, U_BCS), "theta": (prob.s_th, [])}
    for name, (space, bcs) in spaces.items():
        mask, values = oracles.constrained_dofs(space, bcs)
        assert np.array_equal(space.constrained, mask), name
        assert np.array_equal(space.constraint_values, values), name
    assert prob.s_ps.constrained.any() and prob.s_u.constrained.any()

    # interface: anode edges, then cathode edges, each in mesh edge order;
    # theta's space holds every grid node, so its trace is the grid's
    iface = oracles.interface_records(mesh)
    t, w = oracles.trace_rows(mesh, prob.grid, [r for _, r in iface],
                              asm.EDGE_QUAD_EXTRA)
    assert np.array_equal(prob.s_th.node_ids, np.arange(prob.grid.n_nodes))
    assert same_csr(prob.iface_tr["theta"], t)
    assert np.array_equal(prob.iface_w, w)
    tags = [tag for tag, r in iface
            for _ in range((mesh.py[r[1]] if r[0] else mesh.px[r[2]])
                           + asm.EDGE_QUAD_EXTRA)]
    assert np.array_equal(prob.iface_tags, tags)

    t_cc, w_cc = oracles.trace_rows(
        mesh, prob.grid, oracles.edge_records(mesh, (PART_CODE[CC_PLUS],)),
        asm.EDGE_QUAD_EXTRA)
    assert np.array_equal(prob.cc_plus_w,
                          asm.restrict_trace(prob.s_ps, t_cc).T @ w_cc)
