import csv
from pathlib import Path

import numpy as np
import pytest

from voltacell import assemble as asm
from voltacell import materials as mat
from voltacell import postprocess as post
from voltacell.basis import gauss_lobatto_nodes
from voltacell.config import preset
from voltacell.geometry import ELYTE, TAG_NAMES
from voltacell.state import SimState

import conftest
import oracles


@pytest.fixture()
def problem_state(coarse_mesh, mats):
    prob = conftest.make_problem(coarse_mesh, mats)
    return prob, prob.initial_state()


# ---------------------------------------------------------------------------
# quantities of interest
# ---------------------------------------------------------------------------

def test_initial_cell_voltage(problem_state, mats):
    prob, s0 = problem_state
    v0 = post.cell_voltage(prob, s0["phi_s"])
    expected = mats.cathode.ocp(0.5) - mats.anode.ocp(0.5)
    assert v0 == pytest.approx(expected, rel=1e-12)
    assert v0 == pytest.approx(3.988, abs=0.01)


def test_cell_voltage_of_constant(problem_state):
    prob, s0 = problem_state
    c = asm.expand(prob.s_ps, np.full(prob.s_ps.n_free, 2.5))
    # cc+ sits entirely on the cathode, where no Dirichlet rows interfere
    assert post.cell_voltage(prob, c) == pytest.approx(2.5, rel=1e-13)


def test_subdomain_averages_at_start(problem_state, mats):
    prob, s0 = problem_state
    assert prob.readout(s0, "soc_anode") == pytest.approx(0.5, rel=1e-12)
    assert prob.readout(s0, "soc_cathode") == pytest.approx(0.5, rel=1e-12)
    for name in ("theta_avg", "theta_weighted"):
        assert prob.readout(s0, name) \
            == pytest.approx(mats.theta_ref, rel=1e-12)
    assert prob.readout(s0, "phi_e_avg") \
        == pytest.approx(-mats.anode.ocp(0.5), rel=1e-12)


def test_average_of_constant_field_is_exact(problem_state):
    prob, s0 = problem_state
    const = {k: prob.spaces[k].constant(7.25)
             for k in ("theta", "c_s", "phi_e")}
    state = SimState(0.0, {**s0.fields, **const})
    for name in ("theta_avg", "theta_weighted", "phi_e_avg"):
        assert prob.readout(state, name) == pytest.approx(7.25, rel=1e-13)
    for name, el in (("soc_anode", prob.mats.anode),
                     ("soc_cathode", prob.mats.cathode)):
        assert prob.readout(state, name) * el.c_max \
            == pytest.approx(7.25, rel=1e-13)


def test_von_mises_zero_at_rest(problem_state):
    prob, s0 = problem_state
    _, vmax, _ = prob.von_mises_qp(s0)
    assert vmax < 1e-3     # Pa


# ---------------------------------------------------------------------------
# power density
# ---------------------------------------------------------------------------

def test_power_density_constant_series():
    t = np.linspace(0.0, 100.0, 11)
    v = np.full(11, 4.0)
    p = post.power_density(t, v, i_app=20.0, cc_plus_len_m=1e-4,
                           domain_area_m2=1e-7, t_end_s=100.0)
    assert p == pytest.approx(4.0 * 20.0 * 1e-4 / 1e-7, rel=1e-12)
    p_neg = post.power_density(t, v, i_app=-20.0, cc_plus_len_m=1e-4,
                               domain_area_m2=1e-7, t_end_s=100.0)
    assert p_neg == pytest.approx(-p, rel=1e-12)


def test_power_density_empty_series_rejected():
    with pytest.raises(ValueError):
        post.power_density([], [], 1.0, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# the run's CSV time series
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def csv_run(tmp_path_factory):
    """A two-step coarse run writing its outputs."""
    from voltacell.driver import run_scenario
    out = tmp_path_factory.mktemp("csv_run")
    cfg = preset("high_discharge").replace(**{**conftest.DESK_KW,
                                              "t_end": 12.0})
    result = run_scenario(cfg, out_dir=str(out))
    with open(result.csv_path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return result, rows


def test_csv_header_only_for_empty(tmp_path, monkeypatch):
    """A run that fails before its first record leaves just the header."""
    from voltacell.driver import run_scenario

    def failing_record(*args, **kw):
        raise RuntimeError("synthetic failure before the first record")

    monkeypatch.setattr(post, "record_state", failing_record)
    cfg = preset("high_discharge").replace(**{**conftest.DESK_KW,
                                              "t_end": 12.0})
    with pytest.raises(RuntimeError, match="synthetic"):
        run_scenario(cfg, out_dir=str(tmp_path))
    lines = (tmp_path / "timeseries.csv").read_text().splitlines()
    assert lines == [post.CSV_HEADER]


def test_csv_line_count(csv_run):
    """The header, then one row per record."""
    result, rows = csv_run
    assert ",".join(rows[0]) == post.CSV_HEADER
    assert len(rows) == 1 + len(result.records) == 4   # t = 0, 6, 12 s


def test_csv_round_trip_precision(csv_run):
    """Every CSV row reads back to the run's record exactly (17 digits)."""
    result, rows = csv_run
    names = post.CSV_HEADER.split(",")
    fields = ("t_s", "v_out_v", "phi_e_avg_v", "soc_anode", "soc_cathode",
              "temp_k", "u_max_m", "vm_max_pa")
    for rec, row in zip(result.records, rows[1:]):
        assert len(row) == len(names)
        for name, text in zip(fields, row):
            assert float(text) == getattr(rec, name)


# ---------------------------------------------------------------------------
# VTK output
# ---------------------------------------------------------------------------

def read_vtk(path):
    """A legacy ASCII rectilinear-grid VTK file: its header lines, dataset,
    dimensions, X/Y/Z coordinates and its POINT_DATA and CELL_DATA arrays by
    name (vectors as (n, 3))."""
    lines = iter(path.read_text().splitlines())
    out = {"header": [next(lines) for _ in range(3)],
           "POINT_DATA": {}, "CELL_DATA": {}}
    for line in lines:
        word, *rest = line.split()
        if word == "DATASET":
            out["dataset"] = rest[0]
        elif word == "DIMENSIONS":
            out["dims"] = tuple(int(v) for v in rest)
        elif word.endswith("_COORDINATES"):
            out[word[0]] = np.array([float(next(lines))
                                     for _ in range(int(rest[0]))])
        elif word in ("POINT_DATA", "CELL_DATA"):
            section, n = out[word], int(rest[0])
        elif word == "SCALARS":
            assert next(lines) == "LOOKUP_TABLE default"
            section[rest[0]] = np.array([float(next(lines)) for _ in range(n)])
        elif word == "VECTORS":
            section[rest[0]] = np.array([[float(v) for v in next(lines).split()]
                                         for _ in range(n)])
        else:
            raise AssertionError(f"unexpected line {line!r}")
    return out


def printed(values):
    """``values`` as the VTK files print them (12 significant digits)."""
    return np.array([float("%.12g" % v) for v in np.ravel(values)])


@pytest.fixture(scope="module")
def loaded_snapshot(csv_run):
    """The problem, final state and final snapshot of the two-step run."""
    result, _ = csv_run
    assert result.final_state.t == 12.0
    return (result.problem, result.final_state,
            read_vtk(Path(result.out_dir) / "snapshot_0001_t12s.vtk"))


def test_vtk_snapshot_format(loaded_snapshot):
    """A snapshot is a rectilinear grid on the lines of the H1 nodes."""
    prob, _, vtk = loaded_snapshot
    grid = prob.grid
    assert vtk["header"] == ["# vtk DataFile Version 3.0",
                             "voltacell snapshot t=12 s", "ASCII"]
    assert vtk["dataset"] == "RECTILINEAR_GRID"
    assert vtk["dims"] == (grid.nnx, grid.nny, 1)
    assert np.array_equal(vtk["X"], printed(grid.xn))
    assert np.array_equal(vtk["Y"], printed(grid.yn))
    assert np.array_equal(vtk["Z"], [0.0])
    assert list(vtk["POINT_DATA"]) == ["phi_s", "phi_e", "c_s", "c_e",
                                       "theta", "u"]
    assert list(vtk["CELL_DATA"]) == ["von_mises"]


def test_vtk_counts_formula(mats, geom, tmp_path):
    """On a mesh with four degree groups a snapshot has a point per H1 node
    and a cell per nodal subcell: px py per mesh cell."""
    from voltacell.mesh import MeshSpec, generate_layered_mesh
    mesh = generate_layered_mesh(geom, MeshSpec(
        nx_blocks=(1, 3, 2, 1), ny_blocks=(1, 2, 1), n_layers=1, degree=1,
        normal_degree=2))
    prob = conftest.make_problem(mesh, mats)
    assert len(prob.master) == 4
    path = tmp_path / "snap.vtk"
    post.export_vtk(prob, prob.initial_state(), path)
    vtk = read_vtk(path)
    n_subcells = sum(int(mesh.px[i]) * int(mesh.py[j])
                     for j in range(mesh.ncy) for i in range(mesh.ncx))
    assert vtk["dims"] == (prob.grid.nnx, prob.grid.nny, 1)
    assert len(vtk["POINT_DATA"]["theta"]) == prob.grid.n_nodes
    assert len(vtk["CELL_DATA"]["von_mises"]) == n_subcells
    assert np.all(vtk["CELL_DATA"]["von_mises"] == 0.0)


def test_vtk_zero_fill_outside_support(loaded_snapshot):
    """Each scalar is its field's value at each grid node (node id
    iy * nnx + ix, x fastest), zero off the field's support; the rows of u
    are the node's two components and a zero."""
    prob, state, vtk = loaded_snapshot
    data = vtk["POINT_DATA"]
    n = prob.grid.n_nodes
    for name in ("phi_s", "phi_e", "c_s", "c_e", "theta", "u"):
        space = prob.spaces[name]
        ids = space.support.node_ids
        off = np.setdiff1d(np.arange(n), ids)
        values = data[name].reshape(n, -1)
        for comp in range(space.arity):
            assert np.array_equal(values[ids, comp],
                                  printed(state[name][comp::space.arity])), \
                name
            assert np.all(values[off, comp] == 0.0), name
        if name in ("c_s", "c_e"):
            assert len(off) and len(ids), name
    assert np.all(data["u"][:, 2] == 0.0)
    assert np.any(data["u"][:, :2] != 0.0)


def test_vtk_von_mises_cells_match_hooke_oracle(loaded_snapshot):
    """After a loaded step each subcell's von Mises value is the mean over
    its four corners of Hooke's law with the element's strain, from explicit
    Lagrange polynomials cell by cell, and the nodal theta and c_s; zero on
    electrolyte subcells."""
    prob, state, vtk = loaded_snapshot
    mesh, grid, mats = prob.mesh, prob.grid, prob.mats
    expected = np.zeros((grid.nny - 1, grid.nnx - 1))
    elyte = np.zeros(expected.shape, dtype=bool)
    for j in range(mesh.ncy):
        for i in range(mesh.ncx):
            px, py, tag = int(mesh.px[i]), int(mesh.py[j]), mesh.cell_tag[j, i]
            rows = slice(grid.row_start[j], grid.row_start[j] + py)
            cols = slice(grid.col_start[i], grid.col_start[i] + px)
            if tag == ELYTE:
                elyte[rows, cols] = True
                continue
            nodes = ((grid.row_start[j] + np.arange(py + 1))[:, None]
                     * grid.nnx + grid.col_start[i] + np.arange(px + 1))
            k = prob.s_u.support.node_index[nodes]
            ux, uy = state["u"][2 * k], state["u"][2 * k + 1]
            lx, ly = oracles.lagrange_polys(px), oracles.lagrange_polys(py)
            rx, ry = gauss_lobatto_nodes(px), gauss_lobatto_nodes(py)
            # d/dx and d/dy at node (b, a) of the basis function (b', a')
            dx = np.einsum("ac,bd->badc",
                           [[p.deriv()(r) for p in lx] for r in rx],
                           [[p(r) for p in ly] for r in ry])
            dy = np.einsum("ac,bd->badc",
                           [[p(r) for p in lx] for r in rx],
                           [[p.deriv()(r) for p in ly] for r in ry])
            sx, sy = 2.0 / mesh.hx[i], 2.0 / mesh.hy[j]
            e11 = sx * np.einsum("badc,dc->ba", dx, ux)
            e22 = sy * np.einsum("badc,dc->ba", dy, uy)
            e12 = 0.5 * (sy * np.einsum("badc,dc->ba", dy, ux)
                         + sx * np.einsum("badc,dc->ba", dx, uy))
            vm = mat.von_mises(mat.hooke_plane_strain(
                e11, e22, e12,
                state["theta"][prob.s_th.support.node_index[nodes]],
                state["c_s"][prob.s_cs.support.node_index[nodes]],
                mats.electrode(TAG_NAMES[tag]), mats, prob.c_s_ref[tag]))
            expected[rows, cols] = 0.25 * (vm[:-1, :-1] + vm[:-1, 1:]
                                           + vm[1:, :-1] + vm[1:, 1:])
    got = vtk["CELL_DATA"]["von_mises"].reshape(expected.shape)
    assert np.all(got[elyte] == 0.0)
    assert expected.max() > 1e3          # Pa: the step loaded the solid
    assert np.abs(got - expected).max() <= 1e-11 * expected.max()


def test_mesh_vtk_dump(coarse_mesh, tmp_path):
    """The mesh dump is a rectilinear grid on the mesh's grid lines with
    each cell's subdomain tag and degrees (x fastest)."""
    path = tmp_path / "mesh.vtk"
    post.export_mesh_vtk(coarse_mesh, path)
    vtk = read_vtk(path)
    mesh = coarse_mesh
    assert vtk["header"][0] == "# vtk DataFile Version 3.0"
    assert vtk["dataset"] == "RECTILINEAR_GRID"
    assert vtk["dims"] == (len(mesh.x), len(mesh.y), 1)
    assert np.array_equal(vtk["X"], printed(mesh.x))
    assert np.array_equal(vtk["Y"], printed(mesh.y))
    assert vtk["POINT_DATA"] == {}
    cells = vtk["CELL_DATA"]
    assert np.array_equal(cells["subdomain"], mesh.cell_tag.ravel())
    assert np.array_equal(cells["degree_x"], np.tile(mesh.px, mesh.ncy))
    assert np.array_equal(cells["degree_y"], np.repeat(mesh.py, mesh.ncx))


# ---------------------------------------------------------------------------
# comparison table plumbing
# ---------------------------------------------------------------------------

def test_discharge_voltage_trend_after_transient(desk_runs):
    """V_out decreases monotonically once past the initial transient."""
    recs = desk_runs[("high_discharge", "full")].records
    t = np.array([r.t_s for r in recs])
    v = np.array([r.v_out_v for r in recs])
    after = v[t > 60.0]
    assert np.all(np.diff(after) <= 1e-12)
    assert np.all(after < v[0])


def test_desk_scale_von_mises_magnitude(desk_runs):
    """High-current discharge builds stresses on the MPa scale already after
    ten simulated minutes (tens of MPa over the full hour)."""
    result = desk_runs[("high_discharge", "full")]
    vm_pa = result.records[-1].vm_max_pa
    assert 1e6 < vm_pa < 3e8


def test_fixed_point_contraction_in_all_desk_runs(desk_runs):
    for (name, mode), result in desk_runs.items():
        for rep in result.reports:
            ups = rep.update_history
            assert all(b <= a * 1.001 + 1e-12
                       for a, b in zip(ups, ups[1:])), (name, mode, rep.n)


def test_comparison_formatting():
    rows = [post.ComparisonRow("high_discharge", "full", 3349.67),
            post.ComparisonRow("high_discharge", "electrochemical", 3353.22)]
    rel = (3353.22 - 3349.67) / 3349.67
    csv_text = post.comparison_csv([(rows, rel)])
    assert csv_text.splitlines()[0] == "scenario,model,p_avg_w_per_dm3,rel_diff"
    assert len(csv_text.splitlines()) == 3
    table = post.comparison_table([(rows, rel)])
    assert "full" in table and "electrochemical" in table
    assert rows[0].p_avg_w_per_dm3 == pytest.approx(3.34967, rel=1e-12)
