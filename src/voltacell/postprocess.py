"""Quantities of interest, derived stress fields and on-disk outputs.

All solver-internal values are nondimensional; everything written to disk or
stored in TimeSeriesRecord is converted back to SI (with Celsius and W/dm^3
convenience values where customary).
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass

import numpy as np

from . import assemble as asm
from . import basis, units
from .geometry import ANODE, CATHODE
from .materials import hooke_plane_strain, von_mises
from .mesh import Mesh
from .state import SimState
from .units import ScaleSet

log = logging.getLogger(__name__)

CSV_HEADER = ("t_s,V_out_V,phi_e_avg_V,soc_anode,soc_cathode,temp_K,"
              "u_max_m,vm_max_Pa,clamp_events")


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
    clamp_events: int

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
# Quantities of interest (internal units in, internal units out)
# ---------------------------------------------------------------------------

def cell_voltage(problem, phi_s_vec) -> float:
    """Mean solid potential over the positive collector face."""
    return float(problem.cc_plus_w @ phi_s_vec) / problem.cc_plus_len


def subdomain_average(space, vec, region: frozenset | None = None) -> float:
    """Integral mean of a scalar field over (a region of) its support."""
    area = asm.region_area(space, region)
    if area == 0.0:
        raise ValueError("average over an empty region")
    return asm.integrate(space, asm.eval_qp(space, vec), region) / area


def soc_average(problem, cs_vec, tag: int) -> float:
    c_max = problem.mats.electrode({ANODE: "sa", CATHODE: "sc"}[tag]).c_max
    return subdomain_average(problem.s_cs, cs_vec, frozenset({tag})) / c_max


def temperature_average(problem, theta_vec) -> float:
    return subdomain_average(problem.s_th, theta_vec)


def weighted_temperature(problem, theta_vec) -> float:
    """rho*C_v-weighted mean temperature (the adiabatic heat invariant)."""
    w = problem.m_th @ np.ones(problem.s_th.ndof)
    return float(w @ theta_vec / w.sum())


def displacement_max(problem, u_vec) -> float:
    mag = np.hypot(u_vec[0::2], u_vec[1::2])
    return float(mag.max()) if mag.size else 0.0


def von_mises_field(problem, state: SimState):
    """Von Mises stress at solid quadrature points: (arrays, max, location)."""
    return problem.von_mises_qp(state)


def record_state(problem, state: SimState, scales: ScaleSet,
                 clamp_events: int = 0) -> TimeSeriesRecord:
    """Summarize one state into SI quantities of interest."""
    vmax = problem.von_mises_qp(state)[1] if problem.mode == "full" else 0.0
    return TimeSeriesRecord(
        t_s=scales.to_si(state.t, units.TIME),
        v_out_v=scales.to_si(cell_voltage(problem, state["phi_s"]), units.VOLT),
        phi_e_avg_v=scales.to_si(
            subdomain_average(problem.s_pe, state["phi_e"]), units.VOLT),
        soc_anode=soc_average(problem, state["c_s"], ANODE),
        soc_cathode=soc_average(problem, state["c_s"], CATHODE),
        temp_k=scales.to_si(temperature_average(problem, state["theta"]),
                            units.TEMPERATURE),
        u_max_m=scales.to_si(displacement_max(problem, state["u"]),
                             units.LENGTH),
        vm_max_pa=scales.to_si(vmax, units.STRESS),
        clamp_events=clamp_events,
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
        f"{rec.temp_k:.17g}", f"{rec.u_max_m:.17g}", f"{rec.vm_max_pa:.17g}",
        str(rec.clamp_events)])


def export_timeseries_csv(records, path):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for rec in records:
                fh.write(format_record(rec) + "\n")
    except OSError as exc:
        raise OSError(f"failed to write time series to {path}: {exc}") from exc


def read_timeseries_csv(path) -> list:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if ",".join(header) != CSV_HEADER:
            raise ValueError(f"unexpected time series header in {path}")
        for row in reader:
            vals = [float(v) for v in row[:8]] + [int(row[8])]
            out.append(TimeSeriesRecord(*vals))
    return out


# ---------------------------------------------------------------------------
# Legacy VTK output
# ---------------------------------------------------------------------------

def _nodal_values(problem, space, vec, comp=0):
    """Per-global-node values of a field, zero outside its support."""
    out = np.zeros(problem.grid.n_nodes)
    out[space.node_ids] = vec[comp::space.arity] if space.arity > 1 else vec
    return out


def _nodal_von_mises(problem, state: SimState) -> dict:
    """Von Mises stress sampled at element nodes, keyed by (group, row)."""
    out = {}
    mats = problem.mats
    for gi, (g, rows_u, node_dofs_u) in enumerate(zip(
            problem.master, problem.s_u.member_rows,
            problem.s_u.cell_node_dofs)):
        if len(rows_u) == 0:
            continue
        ref_nodes = g.ref.node_grid()
        _, grads = basis.shape_eval((g.px, g.py), ref_nodes)
        hx, hy = g.hx[rows_u], g.hy[rows_u]
        ux = state["u"][node_dofs_u * 2]
        uy = state["u"][node_dofs_u * 2 + 1]
        de_dx = np.einsum("ei,ni->en", ux, grads[:, :, 0]) * (2.0 / hx)[:, None]
        du_dy = np.einsum("ei,ni->en", uy, grads[:, :, 1]) * (2.0 / hy)[:, None]
        gxy = 0.5 * (np.einsum("ei,ni->en", ux, grads[:, :, 1])
                     * (2.0 / hy)[:, None]
                     + np.einsum("ei,ni->en", uy, grads[:, :, 0])
                     * (2.0 / hx)[:, None])
        th = state["theta"][problem.s_th.node_index[g.nodes[rows_u]]]
        cs = state["c_s"][problem.s_cs.node_index[g.nodes[rows_u]]]
        for k, row in enumerate(rows_u):
            tag = int(g.tag[row])
            electrode = mats.electrode({ANODE: "sa", CATHODE: "sc"}[tag])
            st = hooke_plane_strain(de_dx[k], du_dy[k], gxy[k], th[k], cs[k],
                                    electrode, mats, problem.c_s_ref[tag])
            out[(gi, int(row))] = von_mises(st)
    return out


def export_vtk(problem, state: SimState, path, scales: ScaleSet):
    """Legacy ASCII VTK unstructured grid snapshot.

    High-order elements are linearized into their (px x py) nodal subcells;
    each field is written as point data, zero-filled outside its support.
    """
    f = {
        "phi_s": scales.factor(units.VOLT),
        "phi_e": scales.factor(units.VOLT),
        "c_s": scales.factor(units.CONCENTRATION),
        "c_e": scales.factor(units.CONCENTRATION),
        "theta": scales.factor(units.TEMPERATURE),
    }
    nodal = {k: _nodal_values(problem, problem.spaces[k], state[k]) * f[k]
             for k in f}
    u_fac = scales.factor(units.LENGTH)
    u1 = _nodal_values(problem, problem.s_u, state["u"], 0) * u_fac
    u2 = _nodal_values(problem, problem.s_u, state["u"], 1) * u_fac
    vm_nodal = _nodal_von_mises(problem, state) if problem.mode == "full" else {}
    vm_fac = scales.factor(units.STRESS)

    pts = []
    cells = []
    data = {k: [] for k in ("phi_s", "phi_e", "c_s", "c_e", "theta",
                            "von_mises")}
    uvec = []
    offset = 0
    len_fac = scales.factor(units.LENGTH)
    for gi, g in enumerate(problem.master):
        nxl, nyl = g.px + 1, g.py + 1
        ref_nodes = g.ref.node_grid()
        for row in range(g.n_elems):
            px_phys = (g.x0[row] + (ref_nodes[:, 0] + 1) * 0.5 * g.hx[row]) \
                * len_fac
            py_phys = (g.y0[row] + (ref_nodes[:, 1] + 1) * 0.5 * g.hy[row]) \
                * len_fac
            pts.append(np.column_stack([px_phys, py_phys]))
            gn = g.nodes[row]
            for k in nodal:
                data[k].append(nodal[k][gn])
            uvec.append(np.column_stack([u1[gn], u2[gn]]))
            vm = vm_nodal.get((gi, row))
            data["von_mises"].append(
                vm * vm_fac if vm is not None else np.zeros(len(gn)))
            for b in range(g.py):
                for a in range(g.px):
                    i0 = offset + b * nxl + a
                    cells.append((i0, i0 + 1, i0 + nxl + 1, i0 + nxl))
            offset += nxl * nyl

    pts = np.vstack(pts)
    buf = io.StringIO()
    buf.write("# vtk DataFile Version 3.0\n")
    buf.write("voltacell snapshot t=%.9g s\n" % scales.to_si(state.t, units.TIME))
    buf.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
    buf.write(f"POINTS {len(pts)} double\n")
    for x, y in pts:
        buf.write(f"{x:.12g} {y:.12g} 0\n")
    buf.write(f"\nCELLS {len(cells)} {5 * len(cells)}\n")
    for c in cells:
        buf.write("4 %d %d %d %d\n" % c)
    buf.write(f"\nCELL_TYPES {len(cells)}\n")
    buf.write("\n".join(["9"] * len(cells)) + "\n")
    buf.write(f"\nPOINT_DATA {len(pts)}\n")
    for name in ("phi_s", "phi_e", "c_s", "c_e", "theta", "von_mises"):
        buf.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        vals = np.concatenate(data[name])
        buf.write("\n".join(f"{v:.12g}" for v in vals) + "\n")
    buf.write("VECTORS u double\n")
    uall = np.vstack(uvec)
    for x, y in uall:
        buf.write(f"{x:.12g} {y:.12g} 0\n")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    except OSError as exc:
        raise OSError(f"failed to write VTK snapshot to {path}: {exc}") from exc


def vtk_counts(mesh: Mesh) -> tuple[int, int]:
    """(points, cells) the subcell decomposition emits for a mesh."""
    n_pts = n_cells = 0
    for j in range(mesh.ncy):
        for i in range(mesh.ncx):
            px, py = int(mesh.px[i]), int(mesh.py[j])
            n_pts += (px + 1) * (py + 1)
            n_cells += px * py
    return n_pts, n_cells


def export_mesh_vtk(mesh: Mesh, path):
    """Mesh-only VTK dump: corner quads with subdomain tag and degrees."""
    coords = mesh.corner_coords()
    conn = mesh.connectivity()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 3.0\nvoltacell mesh\nASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {len(coords)} double\n")
        for x, y in coords:
            fh.write(f"{x:.12g} {y:.12g} 0\n")
        fh.write(f"\nCELLS {len(conn)} {5 * len(conn)}\n")
        for c in conn:
            fh.write("4 %d %d %d %d\n" % tuple(c))
        fh.write(f"\nCELL_TYPES {len(conn)}\n")
        fh.write("\n".join(["9"] * len(conn)) + "\n")
        fh.write(f"\nCELL_DATA {len(conn)}\n")
        fh.write("SCALARS subdomain int 1\nLOOKUP_TABLE default\n")
        fh.write("\n".join(str(int(t)) for t in mesh.element_tags()) + "\n")
        deg = mesh.cell_degrees().reshape(-1, 2)
        for name, col in (("degree_x", 0), ("degree_y", 1)):
            fh.write(f"SCALARS {name} int 1\nLOOKUP_TABLE default\n")
            fh.write("\n".join(str(int(d)) for d in deg[:, col]) + "\n")


# ---------------------------------------------------------------------------
# Model comparison
# ---------------------------------------------------------------------------

def compare_models(config, out_dir=None):
    """Run a scenario in both model modes and compare power densities.

    Returns (rows, relative_difference) where the relative difference is
    (P_electrochemical - P_full) / |P_full|.
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
    rel = (p_by_mode["electrochemical"] - p_by_mode["full"]) \
        / abs(p_by_mode["full"])
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
