"""Measurement loop, metrics and the correctness verdict of one benchmark run.

Untraced run (``trace=0``): set-up is timed several times, then whole
workload passes repeat while the next one is expected to finish inside
``seconds`` (at least one pass).  The end-to-end metrics come from these
passes.

Traced run (``trace=1``): untraced and traced passes alternate, as many
pairs as the first untraced pass says fit in ``seconds`` (at least one).  The
per-layer metrics come from the traced passes' spans, per pass; the tracing
overhead is the median traced minus the median untraced pass wall time.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time

import numpy as np
import scipy

from perfbench import gate
from perfbench.probe import RunProbe
from perfbench.run import THREAD_VARS
from perfbench.tracing import Tracer, SpanTable
from perfbench.workloads import WORKLOADS, initial_soc
from voltacell import driver

# Set-up is timed at least SETUP_REPS_MIN times and until SETUP_BUDGET_S has
# been spent (at most SETUP_REPS_MAX), so the cheap coarse build gets many
# samples and the production build a few.
SETUP_REPS_MIN, SETUP_REPS_MAX, SETUP_BUDGET_S = 5, 50, 2.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "step_p50_s": "s",
    "step_tail_s": "s",
    "sim_s_per_wall_s": "s/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "assemble.edge_trace_calls": "count",
    "assemble.edge_trace_s": "s",
    "assemble.edge_load_s": "s",
    "assemble.edge_mass_s": "s",
    "physics.interface_state_s": "s",
    "physics.interface_state_calls": "count",
    "physics.stage2_self_s": "s",
    "solve.factor_s": "s",
    "solve.factor_calls": "count",
    "solve.backsolve_s": "s",
    "solve.backsolve_calls": "count",
    "solve.backsolves_per_stage2": "count",
    "mesh.generate_s": "s",
    "physics.init_s": "s",
    "stepping.sweeps_per_step": "count",
    "stepping.predict_s": "s",
    "stepping.warmup_s": "s",
    "physics.stage1_self_s": "s",
    "physics.d_rate_s": "s",
    "postprocess.vtk_s": "s",
    "postprocess.vtk_bytes": "bytes",
    "postprocess.record_s": "s",
    "driver.self_s": "s",
    "stepping.clamp_events": "count",
    "runs_failed_frac": "1",
    "trace_overhead_s": "s",
}

# Span totals, self times and counts behind the per-layer metrics.
_SPAN_TOTALS = {
    "assemble.edge_trace_s": "assemble.edge_trace",
    "assemble.edge_load_s": "assemble.assemble_edge_load",
    "assemble.edge_mass_s": "assemble.assemble_edge_mass",
    "physics.interface_state_s": "physics.CellProblem.interface_state",
    "solve.factor_s": "solve.SpdFactor.__init__",
    "solve.backsolve_s": "solve.SpdFactor.solve",
    "mesh.generate_s": "mesh.generate_layered_mesh",
    "physics.init_s": "physics.CellProblem.__init__",
    "stepping.predict_s": "stepping.predict",
    "stepping.warmup_s": "stepping.warmup",
    "physics.d_rate_s": "physics.CellProblem.d_rate",
    "postprocess.vtk_s": "postprocess.export_vtk",
    "postprocess.record_s": "postprocess.record_state",
}
_SPAN_SELF = {
    "physics.stage2_self_s": "physics.CellProblem.stage2",
    "physics.stage1_self_s": "physics.CellProblem.stage1",
    "driver.self_s": "driver.run_scenario",
}
_SPAN_COUNTS = {
    "assemble.edge_trace_calls": "assemble.edge_trace",
    "physics.interface_state_calls": "physics.CellProblem.interface_state",
    "solve.factor_calls": "solve.SpdFactor.__init__",
    "solve.backsolve_calls": "solve.SpdFactor.solve",
}


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of ``n`` samples
    beyond it.  Below 20 samples that percentile would sit at or under the
    median, so the maximum (percentile 100) stands in for the tail."""
    return math.floor(100.0 * (1.0 - 10.0 / n)) if n >= 20 else 100


def tail(samples: list, n_basis: int | None = None) -> tuple[float, int]:
    """(value, percentile).  ``n_basis`` fixes the percentile from the
    sample count of one pass, so it does not change with the pass count."""
    p = tail_percentile(n_basis or len(samples))
    return float(np.percentile(samples, p)), p


def environment(root: str) -> dict:
    commit = None           # the benchmark may run from a plain export
    if os.path.exists(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "voltacell")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_pass(workload, configs, work_dir, on_call=None):
    gc.collect()
    t0 = time.perf_counter()
    vtk_bytes = workload.run_once(configs, work_dir, on_call)
    return time.perf_counter() - t0, vtk_bytes


def _verdict(runs: list, reference: dict | None) -> tuple[bool, int, list]:
    """(correct, failed, report lines) over every run_scenario call."""
    correct, failed, lines = True, 0, []
    for rec in runs:
        expected = None if reference is None else reference.get(rec.key)
        if rec.error is not None:
            failed += 1
            where = f"in loaded step {rec.entered_step}" \
                if rec.entered_step > rec.last_step \
                else "outside the loaded steps"
            if expected is None:
                known = "no reference for this length"
            elif "error" in expected:
                known = f"the reference fails too ({expected['error']})"
            else:
                known = "the reference completes this run"
            lines.append(f"FAILED   {rec.key}: {rec.error} {where} (last "
                         f"completed step {rec.last_step}; {known}): "
                         f"{rec.message}")
            continue
        problems = gate.check(rec.summary, expected)
        if problems:
            correct = False
            lines.append(f"WRONG    {rec.key}: " + "; ".join(problems))
        else:
            if expected is None:
                basis = "bookkeeping only (no reference for this length)"
            elif "error" in expected:
                basis = (f"bookkeeping only (the reference failed with "
                         f"{expected['error']})")
            else:
                basis = "reference + bookkeeping"
            lines.append(f"correct  {rec.key}: {rec.summary['steps']} steps "
                         f"({basis}; worst imbalance "
                         f"{rec.summary['bookkeeping_worst']:.1e})")
    return correct, failed, lines


def _end_to_end(probe: RunProbe, walls: list) -> tuple[dict, dict]:
    steps = [s.wall_s for rec in probe.runs for s in rec.steps]
    if not steps:
        raise RuntimeError("no loaded step completed; the workload measures "
                           "nothing")
    tail_value, tail_p = tail(steps, n_basis=len(steps) // len(walls))
    sim_s = sum(rec.sim_s for rec in probe.runs)
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(probe.setup_s),
        "step_p50_s": statistics.median(steps),
        "step_tail_s": tail_value,
        "sim_s_per_wall_s": sim_s / sum(walls),
        "peak_rss_mb": _peak_rss_mb(),
    }
    wall_tail, wall_p = tail(walls)
    setup_tail, setup_p = tail(probe.setup_s)
    details = {
        "wall_s": f"median of n={len(walls)} passes; p{wall_p} "
                  f"{wall_tail:.4f} s",
        "setup_s": f"median of n={len(probe.setup_s)} build_problem calls; "
                   f"p{setup_p} {setup_tail:.4f} s",
        "step_p50_s": f"median of n={len(steps)} completed loaded steps",
        "step_tail_s": f"p{tail_p} of n={len(steps)} completed loaded steps",
        "sim_s_per_wall_s": f"{sim_s:g} simulated s in {sum(walls):.3f} s",
        "peak_rss_mb": "process high-water mark (ru_maxrss)",
    }
    return values, details


def _per_layer(table: SpanTable, runs: list, n_passes: int, vtk_bytes: int,
               overhead_s: float) -> dict:
    """Per-layer metrics of the traced passes; totals are per pass."""
    values = {k: table.total(v) / n_passes for k, v in _SPAN_TOTALS.items()}
    values.update({k: table.self_total(v) / n_passes
                   for k, v in _SPAN_SELF.items()})
    values.update({k: table.count(v) / n_passes
                   for k, v in _SPAN_COUNTS.items()})
    n_stage2 = table.count("physics.CellProblem.stage2", returned_only=True)
    values["solve.backsolves_per_stage2"] = table.count_within(
        "solve.SpdFactor.solve", "physics.CellProblem.stage2") \
        / max(n_stage2, 1)
    steps = [s for rec in runs for s in rec.steps]
    values["stepping.sweeps_per_step"] = \
        sum(s.sweeps for s in steps) / max(len(steps), 1)
    values["stepping.clamp_events"] = \
        sum(s.clamp_events for s in steps) / n_passes
    values["postprocess.vtk_bytes"] = vtk_bytes / n_passes
    values["runs_failed_frac"] = \
        sum(rec.error is not None for rec in runs) / len(runs)
    values["trace_overhead_s"] = overhead_s
    return values


def measure(root: str, workload_name: str, seed: int, seconds: float,
            trace: bool, steps: int | None = None) -> dict:
    """Run one benchmark invocation; returns the full result record."""
    workload = WORKLOADS[workload_name]
    soc = initial_soc(seed)
    configs = workload.configs(soc, steps)
    reference = None
    if steps is None:
        with open(os.path.join(root, "perfbench", "reference.json"),
                  encoding="utf-8") as fh:
            reference = json.load(fh)["workloads"][workload_name] \
                .get(f"{soc:.2f}")
    out_root = os.path.join(root, ".perfbench")
    work_dir = os.path.join(out_root, "work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    result_dir = os.path.join(out_root, "results")
    os.makedirs(result_dir, exist_ok=True)
    stem = os.path.join(result_dir,
                        f"{workload_name}-seed{seed}-trace{int(trace)}"
                        + ("" if steps is None else f"-steps{steps}"))

    probe = RunProbe()
    all_runs = []
    lines = [f"workload {workload_name}: seed {seed}, initial SoC {soc:.2f}, "
             f"{len(configs)} scenario(s) x {configs[0].t_end / configs[0].dt:.0f}"
             f" loaded steps"]
    probe.install()
    try:
        if not trace:
            t_start = time.perf_counter()
            for k in range(SETUP_REPS_MAX):
                if k >= SETUP_REPS_MIN and \
                        time.perf_counter() - t_start > SETUP_BUDGET_S:
                    break
                gc.collect()
                driver.build_problem(configs[k % len(configs)])
            walls = []
            t_start = time.perf_counter()
            while True:
                wall, _ = _timed_pass(workload, configs, work_dir)
                walls.append(wall)
                if time.perf_counter() - t_start + wall > seconds:
                    break
            metrics, details = _end_to_end(probe, walls)
            pass_walls = walls
            units = END_TO_END_UNITS
            all_runs = list(probe.runs)
        else:
            driver.build_problem(configs[0])    # fill the basis caches
            tracer = Tracer()
            untraced, traced, traced_runs, vtk_bytes = [], [], [], 0
            n_passes = 1
            while len(traced) < n_passes:
                wall, _ = _timed_pass(workload, configs, work_dir)
                untraced.append(wall)
                n_passes = max(1, int(seconds // untraced[0]))
                mark = len(probe.runs)
                probe.uninstall()
                tracer.install()
                probe.install()
                base = len(traced) * len(configs)
                try:
                    wall, nbytes = _timed_pass(
                        workload, configs, work_dir,
                        on_call=lambda k: setattr(tracer, "run_id", base + k))
                finally:
                    probe.uninstall()
                    tracer.uninstall()
                    probe.install()
                traced.append(wall)
                vtk_bytes += nbytes
                traced_runs += probe.runs[mark:]
            all_runs = list(probe.runs)
            table = SpanTable(tracer)
            tracer.write(stem + "-spans.npz")
            overhead = statistics.median(traced) - statistics.median(untraced)
            metrics = _per_layer(table, traced_runs, len(traced), vtk_bytes,
                                 overhead)
            pass_walls = {"untraced": untraced, "traced": traced}
            details = {
                "trace_overhead_s": f"median of {len(traced)} traced passes "
                                    f"{statistics.median(traced):.3f} s - "
                                    f"median of {len(untraced)} untraced "
                                    f"passes {statistics.median(untraced):.3f}"
                                    f" s, alternating; {len(table)} spans"}
            units = PER_LAYER_UNITS
    finally:
        probe.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    correct, failed, verdict_lines = _verdict(all_runs, reference)
    lines += verdict_lines
    lines.append(f"runs_failed_frac {failed / len(all_runs):.4g} 1 "
                 f"({failed} of {len(all_runs)} run_scenario calls failed)")
    for name, value in metrics.items():
        note = f"  ({details[name]})" if name in details else ""
        lines.append(f"{name} {value:.6g} {units[name]}{note}")
    record = {
        "workload": workload_name,
        "seed": seed,
        "initial_soc": soc,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(root),
        "pass_wall_s": pass_walls,
        "runs": [{"key": r.key, "error": r.error, "message": r.message,
                  "last_completed_step": r.last_step,
                  "failed_in_step": r.entered_step if r.error else None,
                  "step_wall_s": [st.wall_s for st in r.steps],
                  "wall_s": r.wall_s,
                  "summary": r.summary} for r in all_runs],
        "details": details,
        "result": {
            "correct": correct,
            "attempted": len(all_runs),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()},
        },
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    record["lines"] = lines
    return record
