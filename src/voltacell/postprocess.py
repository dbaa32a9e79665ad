"""Quantities of interest, derived stress fields and on-disk outputs.

The solver computes in SI units, so every value stored in TimeSeriesRecord or
written to disk is SI as it stands (with Celsius and W/dm^3 convenience values
where customary).
"""

from __future__ import annotations

import io
import logging
from dataclasses import dataclass

import numpy as np

from . import assemble as asm
from .geometry import ELYTE
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


def _cell_points(problem):
    """The nodes of every cell, cells in the order of the quadrature layout:
    coordinates (n, 2), global node ids, cell tags, and the point indices of
    the corners of each cell's (px x py) nodal subcells."""
    xy, cells, start = [], [], 0
    for g in problem.master:
        ref_nodes = g.ref.node_grid()
        nxl = g.px + 1
        xy.append(np.stack([
            g.x0[:, None] + (ref_nodes[:, 0] + 1) * 0.5 * g.hx[:, None],
            g.y0[:, None] + (ref_nodes[:, 1] + 1) * 0.5 * g.hy[:, None]],
            axis=-1).reshape(-1, 2))
        a, b = np.meshgrid(np.arange(g.px), np.arange(g.py))
        i0 = (b * nxl + a).ravel()
        quads = np.stack([i0, i0 + 1, i0 + nxl + 1, i0 + nxl], axis=1)
        firsts = start + len(ref_nodes) * np.arange(len(g.cells))
        cells.append((firsts[:, None, None] + quads).reshape(-1, 4))
        start += g.nodes.size
    return (np.vstack(xy),
            np.concatenate([g.nodes.ravel() for g in problem.master]),
            np.concatenate([np.repeat(g.tag, g.nodes.shape[1])
                            for g in problem.master]),
            np.vstack(cells))


def _nodal_von_mises(problem, state: SimState, node_ids, tags) -> np.ndarray:
    """Von Mises stress at the cell nodes of ``_cell_points`` (zero off the
    solid), from each cell's strain and the nodal theta and c_s.  The solid
    cells' nodes keep their order, which is the order of u's support."""
    solid = tags != ELYTE
    ids = node_ids[solid]
    vm = np.zeros(len(tags))
    vm[solid] = von_mises(problem.solid_stress(
        asm.eval_strain_nodes(problem.s_u, state["u"]),
        state["theta"][problem.s_th.support.node_index[ids]],
        state["c_s"][problem.s_cs.support.node_index[ids]],
        problem.electrode_constants(tags[solid])))
    return vm


def export_vtk(problem, state: SimState, path):
    """Legacy ASCII VTK unstructured grid snapshot.

    High-order elements are linearized into their (px x py) nodal subcells;
    each field is written as point data, zero-filled outside its support.
    """
    xy, node_ids, tags, cells = _cell_points(problem)
    data = {k: _nodal_values(problem, problem.spaces[k], state[k])[node_ids]
            for k in ("phi_s", "phi_e", "c_s", "c_e", "theta")}
    data["von_mises"] = (
        _nodal_von_mises(problem, state, node_ids, tags)
        if problem.mode == "full" else np.zeros(len(node_ids)))
    u = np.column_stack([
        _nodal_values(problem, problem.s_u, state["u"], comp)[node_ids]
        for comp in (0, 1)])

    buf = io.StringIO()
    buf.write("# vtk DataFile Version 3.0\n")
    buf.write("voltacell snapshot t=%.9g s\n" % state.t)
    buf.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
    buf.write(f"POINTS {len(xy)} double\n")
    buf.write(_rows("%.12g %.12g 0", xy))
    buf.write(f"\nCELLS {len(cells)} {5 * len(cells)}\n")
    buf.write(_rows("4 %d %d %d %d", cells))
    buf.write(f"\nCELL_TYPES {len(cells)}\n")
    buf.write("9\n" * len(cells))
    buf.write(f"\nPOINT_DATA {len(xy)}\n")
    for name in ("phi_s", "phi_e", "c_s", "c_e", "theta", "von_mises"):
        buf.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        buf.write(_rows("%.12g", data[name]))
    buf.write("VECTORS u double\n")
    buf.write(_rows("%.12g %.12g 0", u))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    except OSError as exc:
        raise OSError(f"failed to write VTK snapshot to {path}: {exc}") from exc


def export_mesh_vtk(mesh: Mesh, path):
    """Mesh-only VTK dump: corner quads with subdomain tag and degrees."""
    coords = mesh.corner_coords()
    conn = mesh.connectivity()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 3.0\nvoltacell mesh\nASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {len(coords)} double\n")
        fh.write(_rows("%.12g %.12g 0", coords))
        fh.write(f"\nCELLS {len(conn)} {5 * len(conn)}\n")
        fh.write(_rows("4 %d %d %d %d", conn))
        fh.write(f"\nCELL_TYPES {len(conn)}\n")
        fh.write("9\n" * len(conn))
        fh.write(f"\nCELL_DATA {len(conn)}\n")
        fh.write("SCALARS subdomain int 1\nLOOKUP_TABLE default\n")
        fh.write(_rows("%d", mesh.element_tags()))
        deg = mesh.cell_degrees().reshape(-1, 2)
        for name, col in (("degree_x", 0), ("degree_y", 1)):
            fh.write(f"SCALARS {name} int 1\nLOOKUP_TABLE default\n")
            fh.write(_rows("%d", deg[:, col]))


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
