"""The array-built cell problem against per-cell and per-edge oracles."""

import numpy as np
import pytest
import scipy.sparse as sp

from voltacell import assemble as asm
from voltacell import spaces as sps
from voltacell.geometry import ANODE, CATHODE, CC_PLUS
from voltacell.mesh import PART_CODE, MeshSpec, generate_layered_mesh
from voltacell.physics import CellProblem

import oracles

U_BCS = [sps.EssentialBC("cc_minus", 0), sps.EssentialBC("cc_plus", 0),
         sps.EssentialBC("top", 1), sps.EssentialBC("bottom", 1)]


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

    spaces = {"phi_s": (prob.s_ps, [sps.EssentialBC("cc_minus")]),
              "u": (prob.s_u, U_BCS), "theta": (prob.s_th, [])}
    for name, (space, bcs) in spaces.items():
        mask = oracles.constrained_dofs(space, bcs)
        assert np.array_equal(space.constrained, mask), name
    assert prob.s_ps.constrained.any() and prob.s_u.constrained.any()

    # interface: anode edges, then cathode edges, each in mesh edge order;
    # theta's space holds every grid node, so its trace is the grid's
    iface = oracles.interface_records(mesh)
    t, w = oracles.trace_rows(mesh, prob.grid, [r for _, r in iface],
                              asm.EDGE_QUAD_EXTRA)
    assert np.array_equal(prob.s_th.support.node_ids,
                          np.arange(prob.grid.n_nodes))
    assert same_csr(prob.iface_tr[prob.s_th.support], t)
    assert np.array_equal(prob.iface_w, w)
    tags = [tag for tag, r in iface
            for _ in range((mesh.py[r[1]] if r[0] else mesh.px[r[2]])
                           + asm.EDGE_QUAD_EXTRA)]
    assert np.array_equal(prob.iface_tags, tags)

    t_cc, w_cc = oracles.trace_rows(
        mesh, prob.grid, oracles.edge_records(mesh, (PART_CODE[CC_PLUS],)),
        asm.EDGE_QUAD_EXTRA)
    assert np.array_equal(prob.cc_plus_w,
                          asm.restrict_trace(prob.s_ps.support, t_cc).T
                          @ w_cc)


def _held_matrices(obj, depth=2):
    """The sparse matrices an attribute value holds, looking into dicts,
    lists and tuples down to ``depth`` levels."""
    if sp.issparse(obj):
        yield obj
    elif depth and isinstance(obj, (dict, list, tuple)):
        for v in (obj.values() if isinstance(obj, dict) else obj):
            yield from _held_matrices(v, depth - 1)


@pytest.mark.parametrize("spec", [MeshSpec.coarse, MeshSpec.production])
def test_prepared_problem_holds_each_operator_once(geom, mats, spec):
    """A prepared problem keeps the elasticity matrix only on the free DOFs,
    and its c_e and theta midpoint matrices on the pattern arrays of M_ce and
    M_th, with exactly nnz entries and scipy's values bit for bit."""
    prob = CellProblem(generate_layered_mesh(geom, spec()), mats)
    dt = 4.0
    prob.prepare(prob.initial_state(), dt)
    full_u = (prob.s_u.ndof, prob.s_u.ndof)
    for name, value in vars(prob).items():
        assert all(m.shape != full_u for m in _held_matrices(value)), name

    for name, m, k in (("c_e", prob.m_ce, prob.k_ce),
                       ("theta", prob.m_th, prob.k_th)):
        a = prob.mid_ops[name]
        assert a.indptr is m.indptr and a.indices is m.indices, name
        assert a.data.size == a.nnz == m.nnz, name
        assert a.data.base is None or a.data.base.size == a.nnz, name
        assert same_csr(a, m + 0.5 * dt * k), name

    (ga, ka), (gc, kc) = mats.anode.lame, mats.cathode.lame
    k_full = prob.cs_scatter.elasticity({ANODE: ga, CATHODE: gc},
                                        {ANODE: ka, CATHODE: kc})
    assert same_csr(prob.k_u_red, asm.constrain(prob.s_u, k_full))


def test_expand_zeroes_the_constrained_dofs(geom, mats):
    """On the production phi_s and u spaces, ``expand`` writes exactly 0 on
    every constrained DOF (the grounded collector, the roller and clamp
    conditions) and the free values unchanged; the start state's phi_s is
    already 0 there."""
    prob = CellProblem(generate_layered_mesh(geom, MeshSpec.production()),
                       mats)
    rng = np.random.default_rng(5)
    for space in (prob.s_ps, prob.s_u):
        x = 1.0 + rng.random(space.n_free)          # no zero among them
        full = asm.expand(space, x)
        assert np.array_equal(full[space.free], x), space.name
        assert np.all(full[space.constrained] == 0.0), space.name
    assert np.all(prob.initial_state()["phi_s"][prob.s_ps.constrained] == 0.0)
