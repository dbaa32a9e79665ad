import ast
import json
import os
import re
import time

import pytest

import numpy as np

from voltacell import driver, solve, stepping
from voltacell import postprocess as post
from voltacell.config import preset
from voltacell.mesh import MeshSpec
from voltacell.physics import CellProblem
from voltacell.state import GuardViolation

DESK = dict(mesh=MeshSpec.coarse(), dt=6.0, t_end=60.0, snapshot_every=30.0)


def _perfbench_thread_vars():
    """``THREAD_VARS`` of perfbench/run.py, read without running it."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "run.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "THREAD_VARS"):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no THREAD_VARS")


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = preset("high_discharge").replace(**DESK)
    return driver.run_scenario(cfg, out_dir=str(out)), str(out)


def test_run_directory_contents(short_run):
    result, out = short_run
    names = sorted(os.listdir(out))
    assert "timeseries.csv" in names
    assert "manifest.json" in names
    assert any(n.endswith(".vtk") for n in names)
    assert result.csv_path.endswith("timeseries.csv")


def test_manifest_contents(short_run):
    result, out = short_run
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        man = json.load(fh)
    assert man["status"] == "completed"
    assert man["steps_completed"] == 10
    assert man["error"] is None
    # a completed run is converged: every step's last update met fp_tol
    assert all(r.update_history[-1] < result.config.fp_tol
               for r in result.reports)
    assert man["config_hash"] == driver.config_hash(result.config)
    assert man["config"]["i_app"] == 20.0
    assert "scales" not in man
    assert man["version"]
    # the thread variables that the benchmark pins, as the run saw them
    assert tuple(driver.THREAD_VARS) == _perfbench_thread_vars()
    assert man["threads"] == {v: os.environ.get(v)
                              for v in driver.THREAD_VARS}


def test_records_and_extras_alignment(short_run):
    result, _ = short_run
    assert len(result.records) == 11      # initial state + 10 steps
    assert len(result.extras) == 10
    assert result.records[0].t_s == 0.0
    assert result.records[-1].t_s == pytest.approx(60.0, rel=1e-12)
    # snapshots at t=0, 30, 60 s
    assert len(result.snapshots) == 3


@pytest.mark.parametrize("every, t_end, times", [
    (10.0, 36.0, [0.0, 12.0, 24.0, 30.0, 36.0]),
    (7.0, 42.0, [0.0, 12.0, 18.0, 24.0, 30.0, 36.0, 42.0]),
    (1e-9, 12.0, [0.0, 6.0, 12.0])])
def test_snapshot_cadence(every, t_end, times):
    """A snapshot is taken at t = 0, at the first step that reaches each
    multiple of the cadence and at the last step.  Finding the next multiple
    costs the same whatever the cadence: 1e-9 s under 6 s steps is no
    slower than 10 s."""
    cfg = preset("high_discharge").replace(
        mesh=MeshSpec.coarse(), dt=6.0, t_end=t_end, snapshot_every=every)
    start = time.perf_counter()
    result = driver.run_scenario(cfg)
    assert time.perf_counter() - start < 20.0
    assert [t for t, _ in result.snapshots] == times


def test_step_that_cannot_meet_fp_tol_fails_the_run(tmp_path):
    """A tolerance below the roundoff floor is never met: step 1 raises
    SolveError after MAX_SWEEPS sweeps, naming the step, the sweeps, the
    update and its field; the manifest records the error and the CSV keeps
    the t = 0 row."""
    cfg = preset("high_discharge").replace(**DESK, fp_tol=1e-300)
    with pytest.raises(solve.SolveError) as err:
        driver.run_scenario(cfg, out_dir=str(tmp_path))
    msg = str(err.value)
    assert msg.startswith("step 1 (t = 6 s): fixed-point update ")
    assert f"fp_tol = 1e-300 after {stepping.MAX_SWEEPS} sweeps" in msg
    assert stepping.MAX_SWEEPS == 20
    field = re.search(r"\(largest in (\w+)\)", msg)
    assert field and field[1] in CellProblem.D_FIELDS + CellProblem.S_FIELDS
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["status"] == "failed"
    assert man["steps_completed"] == 0
    assert man["error"] == f"SolveError: {msg}"
    lines = (tmp_path / "timeseries.csv").read_text().splitlines()
    assert lines[0] == post.CSV_HEADER
    assert [float(r.split(",")[0]) for r in lines[1:]] == [0.0]


def test_production_low_discharge_step_meets_fp_tol():
    """On the production mesh the first loaded step of low_discharge (an
    Euler start with a first update of order one) takes 6 sweeps to meet
    fp_tol."""
    cfg = preset("low_discharge").replace(t_end=6.0)
    (rep,) = driver.run_scenario(cfg).reports
    assert rep.sweeps == 6
    assert rep.update_history[-1] < cfg.fp_tol <= rep.update_history[-2]


def test_rerun_into_same_directory_drops_old_snapshots(tmp_path):
    """A shorter rerun into the same directory leaves exactly the snapshots
    its manifest lists; other files stay, even when the old manifest lists
    them."""
    out = str(tmp_path)
    cfg = preset("high_discharge").replace(
        mesh=MeshSpec.coarse(), dt=30.0, t_end=120.0, snapshot_every=60.0)
    driver.run_scenario(cfg, out_dir=out)
    (tmp_path / "notes.txt").write_text("kept")
    old = json.loads((tmp_path / "manifest.json").read_text())
    assert "snapshot_0002_t120s.vtk" in old["snapshots"]
    old["snapshots"].append("notes.txt")
    (tmp_path / "manifest.json").write_text(json.dumps(old))
    driver.run_scenario(cfg.replace(t_end=60.0), out_dir=out)
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["snapshots"] == ["snapshot_0000_t0s.vtk",
                                "snapshot_0001_t60s.vtk"]
    assert sorted(n for n in os.listdir(out) if n.endswith(".vtk")) \
        == man["snapshots"]
    assert (tmp_path / "notes.txt").read_text() == "kept"


def test_zero_duration_run():
    cfg = preset("high_discharge").replace(**{**DESK, "t_end": 0.0})
    result = driver.run_scenario(cfg)
    assert result.grid is None
    assert len(result.records) == 1
    assert result.final_state.t == 0.0


def test_determinism_bit_identical_csv(tmp_path):
    cfg = preset("low_charge").replace(**DESK)
    texts = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        driver.run_scenario(cfg, out_dir=str(out))
        texts.append((out / "timeseries.csv").read_bytes())
    assert texts[0] == texts[1]


def test_failure_preserves_prefix(tmp_path, monkeypatch):
    real_step = driver.step
    calls = {"n": 0}

    def exploding_step(*args, **kw):
        calls["n"] += 1
        if calls["n"] > 5:
            raise RuntimeError("synthetic mid-run failure")
        return real_step(*args, **kw)

    monkeypatch.setattr(driver, "step", exploding_step)
    cfg = preset("high_discharge").replace(**DESK)
    out = tmp_path / "crash"
    with pytest.raises(RuntimeError, match="synthetic"):
        driver.run_scenario(cfg, out_dir=str(out))
    lines = (out / "timeseries.csv").read_text().splitlines()
    assert len(lines) == 1 + 1 + 5        # header, initial state, 5 steps
    man = json.loads((out / "manifest.json").read_text())
    assert man["status"] == "failed"
    assert man["steps_completed"] == 5
    assert man["error"] == "RuntimeError: synthetic mid-run failure"


def test_guard_violation_preserves_prefix(tmp_path, monkeypatch):
    """A real bound violation (stage 1 drives c_e below the guard's floor
    from step 3 on) raises GuardViolation naming c_e, and leaves the rows of
    the completed steps, in the 8-column schema, and a failed manifest."""
    real_stage1 = stepping.stage1
    dt = DESK["dt"]

    def depleting_stage1(backend, prev, mid, heat_start):
        d_new, iface = real_stage1(backend, prev, mid, heat_start)
        if prev.t >= 2 * dt - 1e-9:
            floor = backend.guard.eps_e
            d_new["c_e"] = np.full_like(d_new["c_e"], 0.5 * floor)
        return d_new, iface

    monkeypatch.setattr(stepping, "stage1", depleting_stage1)
    cfg = preset("high_discharge").replace(**DESK)
    out = tmp_path / "guarded"
    with pytest.raises(GuardViolation, match="c_e"):
        driver.run_scenario(cfg, out_dir=str(out))
    lines = (out / "timeseries.csv").read_text().splitlines()
    assert lines[0] == post.CSV_HEADER
    assert "clamp_events" not in lines[0]
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == pytest.approx([0.0, dt, 2 * dt])
    assert all(len(r) == 8 for r in rows)
    man = json.loads((out / "manifest.json").read_text())
    assert man["status"] == "failed"
    assert man["steps_completed"] == 2
    assert man["error"].startswith("GuardViolation: c_e")


def test_loaded_run_starts_from_initial_state(tmp_path, monkeypatch):
    """The t = 0 row of a loaded run is the problem's initial state, and the
    first step starts from t = 0."""
    starts = []
    real_stage1 = stepping.stage1

    def recording_stage1(backend, prev, mid, heat_start):
        starts.append(prev.t)
        return real_stage1(backend, prev, mid, heat_start)

    monkeypatch.setattr(stepping, "stage1", recording_stage1)
    cfg = preset("high_discharge").replace(**{**DESK, "t_end": 12.0})
    result = driver.run_scenario(cfg, out_dir=str(tmp_path))
    prob = result.problem
    rec0 = post.record_state(prob, prob.initial_state())
    row0 = (tmp_path / "timeseries.csv").read_text().splitlines()[1]
    assert row0 == post.format_record(rec0)
    assert rec0.u_max_m == 0.0
    assert starts[0] == 0.0


def test_power_density_sign_matches_current(short_run):
    result, _ = short_run
    assert result.power_density_w_per_m3() > 0.0
    cfg = preset("low_charge").replace(**DESK)
    res_charge = driver.run_scenario(cfg)
    assert res_charge.power_density_w_per_m3() < 0.0


def test_held_solvers_match_refactorizing_run(tmp_path, monkeypatch):
    """Holding the c_s and potential-pair factors across sweeps and steps
    gives the trajectory of a run that factorizes every system afresh, keeps
    criterion 4's lithium bookkeeping, and factorizes only a handful of
    matrices per run."""
    lu_count = {"n": 0}
    real_factorize = solve.Solver.factorize

    def counting_factorize(self, mat):
        lu_count["n"] += 1
        real_factorize(self, mat)

    monkeypatch.setattr(solve.Solver, "factorize", counting_factorize)
    cfg = preset("high_discharge").replace(
        mesh=MeshSpec.coarse(), dt=6.0, t_end=120.0, snapshot_every=120.0)

    def run(name):
        lu_count["n"] = 0
        result = driver.run_scenario(cfg, out_dir=str(tmp_path / name))
        rows = np.loadtxt(result.csv_path, delimiter=",", skiprows=1)
        return result, rows, lu_count["n"]

    held, rows_held, lu_held = run("held")
    monkeypatch.setattr(solve, "HELD_CG_MAXITER", 0)
    fresh, rows_fresh, lu_fresh = run("fresh")

    assert len(held.reports) == 20
    assert rows_held.shape == rows_fresh.shape
    scale = np.maximum(np.abs(rows_fresh), 1e-300)
    assert np.max(np.abs(rows_held - rows_fresh) / scale) < 1e-9

    # one factor each for c_s, the potential pair, c_e, theta and u
    assert lu_held <= 6
    assert lu_fresh > 10 * lu_held
    # every factor is built before step 1: u by the problem's construction,
    # the others by CellProblem.prepare (the potential pair by its loaded
    # re-solve of the quasi-static fields)
    assert sum(r.refactorizations for r in held.reports) == 0
    assert {k: s.refactorizations for k, s in held.problem.solvers.items()} \
        == dict.fromkeys(held.problem.solvers, 1)
    assert sum(s.refactorizations
               for s in held.problem.solvers.values()) == lu_held
    assert all(r.cg_iterations > 0 for r in held.reports)
    assert all(r.cg_iterations == 0 for r in fresh.reports)
    # a held-factor solve backsolves once, then once per CG iteration
    assert all(r.backsolves > r.cg_iterations for r in held.reports)

    # acceptance criterion 4: each step's change of total lithium balances
    # the interface current
    prob = held.problem
    mats = prob.mats
    dt = held.grid.dt
    s0 = held.snapshots[0][1]
    int_cs = [float(np.sum(prob.m_cs @ s0["c_s"]))]
    int_ce = [float(np.sum(prob.m_ce @ s0["c_e"]))]
    int_cs += [e.int_cs for e in held.extras]
    int_ce += [e.int_ce for e in held.extras]
    for k, extra in enumerate(held.extras):
        flux_s = -dt / mats.faraday * extra.ibv_mid
        flux_e = dt * (1.0 - mats.electrolyte.t_plus) / mats.faraday \
            * extra.ibv_mid
        # lithium per unit depth [mol/m]
        assert int_cs[k + 1] - int_cs[k] == pytest.approx(flux_s, rel=1e-8,
                                                          abs=1e-17)
        assert int_ce[k + 1] - int_ce[k] == pytest.approx(flux_e, rel=1e-8,
                                                          abs=1e-17)
