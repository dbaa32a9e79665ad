import csv

import numpy as np
import pytest

from voltacell import postprocess as post
from voltacell import units
from voltacell.config import preset
from voltacell.geometry import ANODE, CATHODE

import conftest
import oracles


@pytest.fixture()
def problem_state(coarse_mesh, mats_scaled):
    prob = conftest.make_problem(coarse_mesh, mats_scaled)
    return prob, prob.initial_state()


# ---------------------------------------------------------------------------
# quantities of interest
# ---------------------------------------------------------------------------

def test_initial_cell_voltage(problem_state, mats_scaled, scales):
    prob, s0 = problem_state
    v0 = scales.to_si(post.cell_voltage(prob, s0["phi_s"]), units.VOLT)
    expected = mats_scaled.cathode.ocp(0.5) - mats_scaled.anode.ocp(0.5)
    assert v0 == pytest.approx(scales.to_si(expected, units.VOLT), rel=1e-12)
    assert v0 == pytest.approx(3.988, abs=0.01)


def test_cell_voltage_of_constant(problem_state):
    prob, s0 = problem_state
    c = prob.s_ps.apply_constraints(np.full(prob.s_ps.ndof, 2.5))
    # cc+ sits entirely on the cathode, where no Dirichlet rows interfere
    assert post.cell_voltage(prob, c) == pytest.approx(2.5, rel=1e-13)


def test_subdomain_averages_at_start(problem_state, mats_scaled):
    prob, s0 = problem_state
    assert post.soc_average(prob, s0["c_s"], ANODE) \
        == pytest.approx(0.5, rel=1e-12)
    assert post.soc_average(prob, s0["c_s"], CATHODE) \
        == pytest.approx(0.5, rel=1e-12)
    assert post.temperature_average(prob, s0["theta"]) \
        == pytest.approx(mats_scaled.theta_ref, rel=1e-12)
    assert post.subdomain_average(prob.s_pe, s0["phi_e"]) \
        == pytest.approx(-mats_scaled.anode.ocp(0.5), rel=1e-12)


def test_average_of_constant_field_is_exact(problem_state):
    prob, _ = problem_state
    c = prob.s_th.constant(7.25)
    assert post.subdomain_average(prob.s_th, c) == pytest.approx(7.25,
                                                                 rel=1e-13)


def test_von_mises_zero_at_rest(problem_state):
    prob, s0 = problem_state
    _, vmax, _ = prob.von_mises_qp(s0)
    assert vmax < 1e-9


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
        for name, text in zip(fields, row[:8]):
            assert float(text) == getattr(rec, name)
        assert int(row[8]) == rec.clamp_events


# ---------------------------------------------------------------------------
# VTK output
# ---------------------------------------------------------------------------

def test_vtk_snapshot_format(problem_state, scales, tmp_path):
    prob, s0 = problem_state
    path = tmp_path / "snap.vtk"
    post.export_vtk(prob, s0, path, scales)
    text = path.read_text().splitlines()
    assert text[0] == "# vtk DataFile Version 3.0"
    n_pts, n_cells = oracles.vtk_counts(prob.mesh)
    assert f"POINTS {n_pts} double" in text
    assert f"CELL_TYPES {n_cells}" in text
    # the displacement block is all zeros at the initial state
    u_start = text.index("VECTORS u double") + 1
    uvals = np.array([[float(v) for v in line.split()]
                      for line in text[u_start:u_start + n_pts]])
    assert np.all(uvals == 0.0)
    # the listed point-data fields are all present
    for name in ("phi_s", "phi_e", "c_s", "c_e", "theta", "von_mises"):
        assert f"SCALARS {name} double 1" in text


def test_vtk_counts_formula(mats_scaled, geom_scaled, scales, tmp_path):
    """On a mesh with four degree groups the snapshot has the subcell counts
    of every cell, and each subcell is a counterclockwise rectangle."""
    from voltacell.mesh import MeshSpec, generate_layered_mesh
    mesh = generate_layered_mesh(geom_scaled, MeshSpec(
        nx_blocks=(1, 3, 2, 1), ny_blocks=(1, 2, 1), n_layers=1, degree=1,
        normal_degree=2))
    prob = conftest.make_problem(mesh, mats_scaled)
    assert len(prob.master) == 4
    path = tmp_path / "snap.vtk"
    post.export_vtk(prob, prob.initial_state(), path, scales)
    text = path.read_text().splitlines()
    n_pts, n_cells = oracles.vtk_counts(mesh)
    k = text.index(f"POINTS {n_pts} double") + 1
    xy = np.array([[float(v) for v in line.split()[:2]]
                   for line in text[k:k + n_pts]])
    k = text.index(f"CELLS {n_cells} {5 * n_cells}") + 1
    quads = np.array([[int(v) for v in line.split()]
                      for line in text[k:k + n_cells]])
    assert np.all(quads[:, 0] == 4)
    p = xy[quads[:, 1:]]                        # (n_cells, 4 corners, 2)
    assert np.all(p[:, 1, 0] > p[:, 0, 0]) and np.all(p[:, 1, 1] == p[:, 0, 1])
    assert np.all(p[:, 2, 0] == p[:, 1, 0]) and np.all(p[:, 2, 1] > p[:, 1, 1])
    assert np.all(p[:, 3, 0] == p[:, 0, 0]) and np.all(p[:, 3, 1] == p[:, 2, 1])
    # the subcells tile the domain
    area = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 1, 1])).sum()
    width, height = (float(mesh.x[-1] - mesh.x[0]),
                     float(mesh.y[-1] - mesh.y[0]))
    assert area == pytest.approx(width * height * scales.length ** 2,
                                 rel=1e-9)


def test_vtk_zero_fill_outside_support(problem_state, scales, tmp_path):
    prob, s0 = problem_state
    path = tmp_path / "snap.vtk"
    post.export_vtk(prob, s0, path, scales)
    text = path.read_text().splitlines()
    n_pts, _ = oracles.vtk_counts(prob.mesh)

    def block(name):
        k = text.index(f"SCALARS {name} double 1") + 2
        return np.array([float(v) for v in text[k:k + n_pts]])

    c_s = block("c_s")
    c_e = block("c_e")
    # both concentration fields carry zeros (outside their own support)
    assert np.any(c_s == 0.0) and np.any(c_e == 0.0)
    assert c_s.max() == pytest.approx(0.5 * 3.1507e4, rel=1e-9)
    assert c_e.max() == pytest.approx(2000.0, rel=1e-9)


def test_mesh_vtk_dump(coarse_mesh, tmp_path):
    path = tmp_path / "mesh.vtk"
    post.export_mesh_vtk(coarse_mesh, path)
    text = path.read_text()
    assert text.startswith("# vtk DataFile Version 3.0")
    assert "SCALARS subdomain int 1" in text


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


def test_desk_scale_von_mises_magnitude(desk_runs, scales):
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
