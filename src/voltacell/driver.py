"""Run orchestration: build a configured problem, integrate, record, persist.

A run starts from the problem's equilibrium initial state at t = 0, which is
recorded as the first row.  ``march``, the package's one time loop, has
``CellProblem.prepare`` re-solve the quasi-static fields under a load and
factorize the matrices that the steps reuse; step 1 takes the Euler
predictor from that start.

A run directory receives the time-series CSV (written incrementally, so an
aborted run keeps its completed prefix), VTK snapshots at the configured
cadence (a run first deletes the snapshots that the manifest already in the
directory lists), and a manifest recording the run status, the
configuration hash, parameter values, code version, the count of completed
steps and, for a failed run, the error that stopped it.  Every quantity is in SI units, from
the configuration through the solves to the outputs.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
from dataclasses import dataclass

from . import postprocess as post
from . import __version__
from .config import ConfigError, ScenarioConfig
from .geometry import build_interdigitated_domain
from .mesh import generate_layered_mesh
from .physics import CellProblem
from .state import History, SimState
from .stepping import StepReport, TimeGrid, step

log = logging.getLogger(__name__)

# the file names of ``emit_snapshot`` in ``run_scenario``
_SNAPSHOT_NAME = re.compile(r"snapshot_\d+_t\d+s\.vtk")


@dataclass
class StepExtras:
    """Per-step bookkeeping (for conservation checks)."""

    t: float
    int_cs: float            # integral of c_s over the electrodes
    int_ce: float            # integral of c_e over the electrolyte
    ibv_mid: float           # interface integral of I_BV at the accepted sweep
    theta_weighted: float    # rho*C_v-weighted mean temperature


@dataclass
class RunResult:
    config: ScenarioConfig
    problem: CellProblem
    grid: TimeGrid | None
    records: list
    reports: list
    extras: list
    snapshots: list
    final_state: SimState
    out_dir: str | None = None
    csv_path: str | None = None
    manifest_path: str | None = None

    def power_density_w_per_m3(self) -> float:
        if self.config.t_end <= 0.0:
            raise ValueError("power density needs a nonzero run duration")
        times = [r.t_s for r in self.records]
        v_out = [r.v_out_v for r in self.records]
        dims = self.config.dims
        return post.power_density(times, v_out, self.config.i_app,
                                  cc_plus_len_m=dims.height,
                                  domain_area_m2=dims.width * dims.height,
                                  t_end_s=self.config.t_end)


def config_hash(config: ScenarioConfig) -> str:
    canonical = json.dumps(config.to_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def build_problem(config: ScenarioConfig) -> CellProblem:
    errs = config.validate()
    if errs:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errs))
    mats = config.materials()
    geom = build_interdigitated_domain(config.dims)
    mesh = generate_layered_mesh(geom, config.mesh)
    problem = CellProblem(
        mesh, mats, mode=config.model,
        soc_init=(config.soc_init_anode, config.soc_init_cathode))
    problem.set_load(config.i_app)
    return problem


def march(backend, state0: SimState, grid: TimeGrid, fp_tol: float = 1e-8):
    """Yield ``(state, report)`` for each step of ``grid`` from the start
    that ``backend.prepare(state0, grid.dt)`` returns, run at the first
    request; the steps go through this module's ``step`` name."""
    hist = History(prev=backend.prepare(state0, grid.dt))
    for n in range(1, grid.n_steps + 1):
        state, report = step(backend, hist, grid, n, fp_tol=fp_tol)
        hist.push(state)
        yield state, report


def _write_manifest(path, config, status, reports, snapshots, error=None):
    """Write the manifest; ``reports`` are those of the completed steps."""
    payload = {
        "tool": "voltacell",
        "version": __version__,
        "status": status,
        "config_hash": config_hash(config),
        "config": config.to_dict(),
        "steps_completed": len(reports),
        "error": error,
        "snapshots": snapshots,
        "notes": ["power density is per unit out-of-plane depth"],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _remove_listed_snapshots(out_dir):
    """Delete the snapshot files that the manifest in ``out_dir``, left by an
    earlier run, lists; nothing else, and only names of the form
    ``run_scenario`` writes (no path leaves the directory)."""
    try:
        with open(os.path.join(out_dir, "manifest.json"),
                  encoding="utf-8") as fh:
            listed = json.load(fh)["snapshots"]
    except (OSError, ValueError, KeyError, TypeError):
        return
    for name in listed:
        if isinstance(name, str) and _SNAPSHOT_NAME.fullmatch(name):
            try:
                os.remove(os.path.join(out_dir, name))
            except FileNotFoundError:
                pass


def run_scenario(config: ScenarioConfig, out_dir: str | None = None) -> RunResult:
    """Execute one scenario end to end.

    On failure the completed prefix (CSV rows, snapshots, a manifest with
    status 'failed' and the error) is preserved on disk before re-raising.
    """
    problem = build_problem(config)
    state0 = problem.initial_state()

    grid = None
    if config.t_end > 0.0:
        grid = TimeGrid.from_duration(config.t_end, config.dt)

    csv_path = manifest_path = None
    csv_fh = None
    snapshot_names: list[str] = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _remove_listed_snapshots(out_dir)
        csv_path = os.path.join(out_dir, "timeseries.csv")
        manifest_path = os.path.join(out_dir, "manifest.json")
        csv_fh = open(csv_path, "w", encoding="utf-8", newline="\n")
        csv_fh.write(post.CSV_HEADER + "\n")
        _write_manifest(manifest_path, config, "running", [], snapshot_names)

    def emit_snapshot(state: SimState, snapshots: list):
        snapshots.append((state.t, state.copy()))
        if out_dir is not None:
            name = f"snapshot_{len(snapshot_names):04d}_t{state.t:.0f}s.vtk"
            post.export_vtk(problem, state, os.path.join(out_dir, name))
            snapshot_names.append(name)

    records: list = []
    reports: list[StepReport] = []
    extras: list[StepExtras] = []
    snapshots: list = []
    final = state0
    error = None
    try:
        rec0 = post.record_state(problem, state0)
        records.append(rec0)
        if csv_fh:
            csv_fh.write(post.format_record(rec0) + "\n")
            csv_fh.flush()
        emit_snapshot(state0, snapshots)

        if grid is not None:
            every, slack = config.snapshot_every, 1e-9 * config.dt
            next_snap = every
            for final, rep in march(problem, state0, grid,
                                    fp_tol=config.fp_tol):
                extras.append(StepExtras(
                    t=final.t,
                    int_cs=problem.readout(final, "int_cs"),
                    int_ce=problem.readout(final, "int_ce"),
                    ibv_mid=rep.ibv_integral,
                    theta_weighted=problem.readout(final, "theta_weighted"),
                ))
                rec = post.record_state(problem, final)
                records.append(rec)
                if csv_fh:
                    csv_fh.write(post.format_record(rec) + "\n")
                    csv_fh.flush()
                reports.append(rep)     # complete once its row is written
                is_last = rep.n == grid.n_steps
                if final.t >= next_snap - slack or is_last:
                    emit_snapshot(final, snapshots)
                    # the first multiple of the cadence after this step
                    next_snap = every * ((final.t + slack) // every + 1)
        return RunResult(config=config, problem=problem,
                         grid=grid, records=records, reports=reports,
                         extras=extras, snapshots=snapshots,
                         final_state=final, out_dir=out_dir,
                         csv_path=csv_path, manifest_path=manifest_path)
    except BaseException as exc:
        error = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        if csv_fh:
            csv_fh.close()
        if manifest_path:
            status = "failed" if error else "completed"
            _write_manifest(manifest_path, config, status, reports,
                            snapshot_names, error)
