"""Correctness gate applied to every ``run_scenario`` call of a benchmark run.

A completed run must
  * match the stored reference (final V_out, SoCs, temperature, u_max) to a
    relative tolerance of ``REL_TOL``, when the reference has an entry for it;
  * keep the per-step lithium bookkeeping of acceptance criterion 4
    (tests/test_acceptance.py): the change of the solid and electrolyte
    lithium integrals over each step matches -dt/F and dt(1 - t+)/F times the
    interface integral of I_BV, to a relative ``BOOKKEEPING_TOL`` of the
    run's mesh.
A run that raises one of the solver's failure exceptions counts as failed,
not as incorrect.
"""

from __future__ import annotations

import math

import numpy as np

from voltacell.mesh import MeshSpec

FINAL_KEYS = ("v_out_v", "soc_anode", "soc_cathode", "temp_k", "u_max_m")
# The runs are deterministic on one machine; the tolerance leaves room for
# last-digit differences between BLAS builds, amplified over a run.
REL_TOL = 1e-6
ABS_TOL = 1e-15
# Acceptance criterion 4 holds the coarse mesh to 1e-8.  On the production
# mesh the electrolyte balance carries a fixed round-off of about 1.2e-7 of
# the step's flux: the row sums of the c_e stiffness are not exactly zero
# (|K 1| up to 1.5e-12 against max |K| = 272), and 1^T K c_prev does not
# cancel.  It does not change with the solver tolerance (1e-10 or 1e-13).
BOOKKEEPING_TOL = {"coarse": 1e-8, "production": 1e-6}


def run_key(config) -> str:
    return f"{config.name}/{config.model}"


def summarize(result) -> dict:
    """The gate's view of a completed RunResult, small enough to keep."""
    final = result.records[-1]
    out = {k: float(getattr(final, k)) for k in FINAL_KEYS}
    out["steps"] = len(result.extras)
    out["bookkeeping_worst"] = bookkeeping_worst(result)
    out["bookkeeping_tol"] = BOOKKEEPING_TOL[
        "coarse" if result.config.mesh == MeshSpec.coarse() else "production"]
    return out


def bookkeeping_worst(result) -> float:
    """Worst relative per-step lithium imbalance (acceptance criterion 4)."""
    prob = result.problem
    if not result.extras:
        return 0.0
    faraday = prob.mats.faraday
    t_plus = prob.mats.electrolyte.t_plus
    dt = result.grid.dt
    state0 = result.snapshots[0][1]
    ones_s = np.ones(prob.s_cs.ndof)
    ones_e = np.ones(prob.s_ce.ndof)
    int_cs = [float(ones_s @ (prob.m_cs @ state0["c_s"]))]
    int_ce = [float(ones_e @ (prob.m_ce @ state0["c_e"]))]
    int_cs += [e.int_cs for e in result.extras]
    int_ce += [e.int_ce for e in result.extras]
    worst = 0.0
    for k, extra in enumerate(result.extras):
        flux = extra.ibv_mid
        rhs_s = -dt / faraday * flux
        rhs_e = dt * (1.0 - t_plus) / faraday * flux
        worst = max(worst,
                    abs(int_cs[k + 1] - int_cs[k] - rhs_s)
                    / max(abs(rhs_s), 1e-30),
                    abs(int_ce[k + 1] - int_ce[k] - rhs_e)
                    / max(abs(rhs_e), 1e-30))
    return worst


def check(summary: dict, expected: dict | None) -> list[str]:
    """Problems found in one completed run (empty list: correct)."""
    problems = []
    if not summary["bookkeeping_worst"] < summary["bookkeeping_tol"]:
        problems.append(f"lithium bookkeeping imbalance "
                        f"{summary['bookkeeping_worst']:.2e} "
                        f">= {summary['bookkeeping_tol']:g}")
    if expected is None or "final" not in expected:
        return problems
    if summary["steps"] != expected["steps"]:
        problems.append(f"{summary['steps']} steps, reference has "
                        f"{expected['steps']}")
        return problems
    for key in FINAL_KEYS:
        got, ref = summary[key], expected["final"][key]
        if not math.isclose(got, ref, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            problems.append(f"final {key} = {got!r}, reference {ref!r}")
    return problems
