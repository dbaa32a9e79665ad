"""Quantities of interest, derived stress fields and on-disk outputs.

The solver computes in SI units, so every value stored in TimeSeriesRecord or
written to disk is SI as it stands (with Celsius and W/dm^3 convenience values
where customary).

Both VTK files are legacy ASCII rectilinear grids, since every mesh is a
tensor grid: a snapshot lies on the grid of the H1 nodes (``NodeGrid.xn`` x
``NodeGrid.yn``), whose cells are the nodal subcells of the mesh cells, and
the mesh dump on the mesh's grid lines.
"""

from __future__ import annotations

import io
import logging
from dataclasses import dataclass

import numpy as np

from . import assemble as asm
from .materials import von_mises
from .mesh import Mesh
from .state import SimState

log = logging.getLogger(__name__)

CSV_HEADER = ("t_s,V_out_V,phi_e_avg_V,soc_anode,soc_cathode,temp_K,"
              "u_max_m,vm_max_Pa")


@dataclass
class TimeSeriesRecord:
    """One step's scalar summaries, in SI units."""

    t_s: float
    v_out_v: float
    phi_e_avg_v: float
    soc_anode: float
    soc_cathode: float
    temp_k: float
    u_max_m: float
    vm_max_pa: float

    @property
    def temp_c(self) -> float:
        return self.temp_k - 273.15


@dataclass
class ComparisonRow:
    scenario: str
    model: str
    p_avg_w_per_m3: float

    @property
    def p_avg_w_per_dm3(self) -> float:
        return self.p_avg_w_per_m3 * 1e-3


# ---------------------------------------------------------------------------
# Quantities of interest
# ---------------------------------------------------------------------------

def cell_voltage(problem, phi_s_vec) -> float:
    """Mean solid potential over the positive collector face."""
    return float(problem.cc_plus_w @ phi_s_vec) / problem.cc_plus_len


def displacement_max(problem, u_vec) -> float:
    mag = np.hypot(u_vec[0::2], u_vec[1::2])
    return float(mag.max()) if mag.size else 0.0


def record_state(problem, state: SimState) -> TimeSeriesRecord:
    """Summarize one state into its quantities of interest."""
    vmax = problem.von_mises_qp(state)[1] if problem.mode == "full" else 0.0
    avg = problem.readout
    return TimeSeriesRecord(
        t_s=state.t,
        v_out_v=cell_voltage(problem, state["phi_s"]),
        phi_e_avg_v=avg(state, "phi_e_avg"),
        soc_anode=avg(state, "soc_anode"),
        soc_cathode=avg(state, "soc_cathode"),
        temp_k=avg(state, "theta_avg"),
        u_max_m=displacement_max(problem, state["u"]),
        vm_max_pa=vmax,
    )


def power_density(times_s, v_out_v, i_app, cc_plus_len_m, domain_area_m2,
                  t_end_s) -> float:
    """Time-averaged volumetric power density, W/m^3 per unit depth.

    P = (1/(t_end |Omega|)) * integral of V_out(t) * I_app * |Gamma_cc+| dt,
    by trapezoidal quadrature over the recorded series.
    """
    times_s = np.asarray(times_s, dtype=float)
    v_out_v = np.asarray(v_out_v, dtype=float)
    if times_s.size == 0:
        raise ValueError("empty voltage series")
    if times_s.size == 1:
        integral = 0.0
    else:
        integral = float(np.trapezoid(v_out_v, times_s))
    return integral * i_app * cc_plus_len_m / (t_end_s * domain_area_m2)


# ---------------------------------------------------------------------------
# CSV time series
# ---------------------------------------------------------------------------

def format_record(rec: TimeSeriesRecord) -> str:
    return ",".join([
        f"{rec.t_s:.17g}", f"{rec.v_out_v:.17g}", f"{rec.phi_e_avg_v:.17g}",
        f"{rec.soc_anode:.17g}", f"{rec.soc_cathode:.17g}",
        f"{rec.temp_k:.17g}", f"{rec.u_max_m:.17g}", f"{rec.vm_max_pa:.17g}"])


# ---------------------------------------------------------------------------
# Legacy VTK output
# ---------------------------------------------------------------------------

def _nodal_values(problem, space, vec, comp=0):
    """Per-global-node values of a field, zero outside its support."""
    out = np.zeros(problem.grid.n_nodes)
    out[space.support.node_ids] = vec[comp::space.arity]
    return out


def _rows(fmt: str, values) -> str:
    """One line per row of ``values``, through the printf format ``fmt``."""
    values = np.asarray(values)
    return (fmt + "\n") * len(values) % tuple(values.ravel().tolist())


def _subcell_von_mises(problem, state: SimState) -> np.ndarray:
    """Von Mises stress on each nodal subcell of the node grid, (nny - 1,
    nnx - 1): the mean of its element's nodal stress at its four corners,
    from the element's strain and the nodal theta and c_s; zero in the
    electrolyte."""
    grid = problem.grid
    out = np.zeros((grid.nny - 1, grid.nnx - 1))
    if problem.mode != "full":
        return out
    occupied = problem.s_u.support.occupied
    ids = np.concatenate([g.nodes[rows].ravel() for g, rows, _, _ in occupied])
    tags = np.concatenate([np.repeat(g.tag[rows], g.nodes.shape[1])
                           for g, rows, _, _ in occupied])
    vm = von_mises(problem.solid_stress(
        asm.eval_strain_nodes(problem.s_u, state["u"]),
        state["theta"][problem.s_th.support.node_index[ids]],
        state["c_s"][problem.s_cs.support.node_index[ids]],
        problem.electrode_constants(tags)))
    start = 0
    for g, rows, _, _ in occupied:
        v = vm[start:start + len(rows) * g.nodes.shape[1]].reshape(
            len(rows), g.py + 1, g.px + 1)
        start += v.size
        j, i = g.cells[rows].T
        iy = (grid.row_start[j][:, None] + np.arange(g.py))[:, :, None]
        ix = (grid.col_start[i][:, None] + np.arange(g.px))[:, None, :]
        out[iy, ix] = 0.25 * (v[:, :-1, :-1] + v[:, :-1, 1:]
                              + v[:, 1:, :-1] + v[:, 1:, 1:])
    return out


def _write_vtk(path, title: str, x, y, point_data: dict, cell_data: dict):
    """Legacy ASCII VTK rectilinear grid on the lines ``x`` x ``y``.

    ``point_data`` and ``cell_data`` map names to arrays in VTK order (x
    fastest): a 1-D array is written as scalars (int or double by its
    dtype), an (n, 2) array as vectors with a zero third component.
    """
    buf = io.StringIO()
    buf.write(f"# vtk DataFile Version 3.0\n{title}\nASCII\n"
              f"DATASET RECTILINEAR_GRID\nDIMENSIONS {len(x)} {len(y)} 1\n")
    for axis, lines in (("X", x), ("Y", y), ("Z", [0.0])):
        buf.write(f"{axis}_COORDINATES {len(lines)} double\n")
        buf.write(_rows("%.12g", lines))
    for section, n, data in (
            ("POINT_DATA", len(x) * len(y), point_data),
            ("CELL_DATA", (len(x) - 1) * (len(y) - 1), cell_data)):
        if data:
            buf.write(f"{section} {n}\n")
        for name, values in data.items():
            values = np.asarray(values)
            if values.ndim == 2:
                buf.write(f"VECTORS {name} double\n")
                buf.write(_rows("%.12g %.12g 0", values))
            elif values.dtype.kind in "iu":
                buf.write(f"SCALARS {name} int 1\nLOOKUP_TABLE default\n")
                buf.write(_rows("%d", values))
            else:
                buf.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                buf.write(_rows("%.12g", values))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    except OSError as exc:
        raise OSError(f"failed to write VTK file {path}: {exc}") from exc


def export_vtk(problem, state: SimState, path):
    """Legacy ASCII VTK snapshot on the grid of the H1 nodes.

    The cells of the rectilinear grid are the (px x py) nodal subcells of the
    mesh cells.  Each field is point data at the grid nodes, zero outside its
    support; von Mises stress is cell data, each subcell's mean of its
    element's nodal stress (see ``_subcell_von_mises``).
    """
    point_data = {k: _nodal_values(problem, problem.spaces[k], state[k])
                  for k in ("phi_s", "phi_e", "c_s", "c_e", "theta")}
    point_data["u"] = np.column_stack([
        _nodal_values(problem, problem.s_u, state["u"], comp)
        for comp in (0, 1)])
    _write_vtk(path, "voltacell snapshot t=%.9g s" % state.t,
               problem.grid.xn, problem.grid.yn, point_data,
               {"von_mises": _subcell_von_mises(problem, state).ravel()})


def export_mesh_vtk(mesh: Mesh, path):
    """Mesh-only VTK dump on the grid lines: per cell, the subdomain tag and
    the degrees."""
    deg = mesh.cell_degrees().reshape(-1, 2)
    _write_vtk(path, "voltacell mesh", mesh.x, mesh.y, {},
               {"subdomain": mesh.cell_tag.ravel(),
                "degree_x": deg[:, 0], "degree_y": deg[:, 1]})


# ---------------------------------------------------------------------------
# Model comparison
# ---------------------------------------------------------------------------

def compare_models(config, out_dir=None):
    """Run a scenario in both model modes and compare power densities.

    Returns (rows, relative_difference) where the relative difference is
    (P_electrochemical - P_full) / |P_full|, or nan when P_full is 0 (a
    cell at rest).
    """
    from .driver import run_scenario

    rows = []
    p_by_mode = {}
    for mode in ("full", "electrochemical"):
        cfg = config.replace(model=mode)
        sub_dir = None
        if out_dir is not None:
            import os
            sub_dir = os.path.join(out_dir, mode)
        p_avg = run_scenario(cfg, out_dir=sub_dir).power_density_w_per_m3()
        p_by_mode[mode] = p_avg
        rows.append(ComparisonRow(scenario=config.name, model=mode,
                                  p_avg_w_per_m3=p_avg))
    p_full, p_ec = p_by_mode["full"], p_by_mode["electrochemical"]
    rel = (p_ec - p_full) / abs(p_full) if p_full else np.nan
    return rows, rel


def comparison_csv(rows_rel_pairs) -> str:
    lines = ["scenario,model,p_avg_w_per_dm3,rel_diff"]
    for rows, rel in rows_rel_pairs:
        for row in rows:
            lines.append(f"{row.scenario},{row.model},"
                         f"{row.p_avg_w_per_dm3:.17g},{rel:.17g}")
    return "\n".join(lines) + "\n"


def comparison_table(rows_rel_pairs) -> str:
    lines = [f"{'scenario':<22}{'model':<18}{'P_avg [W/dm^3]':>16}"
             f"{'rel diff':>14}"]
    for rows, rel in rows_rel_pairs:
        for row in rows:
            lines.append(f"{row.scenario:<22}{row.model:<18}"
                         f"{row.p_avg_w_per_dm3:>16.6g}{rel:>14.3e}")
    return "\n".join(lines) + "\n"
