"""Per-step balance invariants of loaded runs, each checked against the
interface record and the midpoint of the step's accepted sweep (the last
``stepping.stage1`` call of the step).

Lithium: each electrode's c_s integral changes by -dt/F times its own
interface current, and the c_e integral by dt (1 - t+)/F times the net
current, measured against the gross current |I_anode| + |I_cathode| (the
net current is a difference of the two).  Heat: the model is adiabatic, so
the rho*C_v-weighted theta integral 1^T M_theta theta grows by dt 1^T b, with
b the heat load at the midpoint.
"""

import numpy as np
import pytest

from voltacell import assemble as asm
from voltacell import stepping
from voltacell.config import PRESET_PARAMS, preset
from voltacell.driver import build_problem, march
from voltacell.geometry import ANODE, CATHODE
from voltacell.mesh import MeshSpec
from voltacell.stepping import TimeGrid

BALANCE_TOL = 1e-8
HEAT_TOL = 1e-6


def _coarse(name, steps):
    return preset(name).replace(mesh=MeshSpec.coarse(), dt=6.0,
                                t_end=6.0 * steps)


def _production(name, steps):
    dt = PRESET_PARAMS[name]["dt"]
    return preset(name).replace(t_end=dt * steps)


def _accepted_sweeps(monkeypatch, config):
    """The configured problem and, per step, (n, previous state, new state,
    midpoint, InterfaceState) of the step's accepted sweep."""
    prob = build_problem(config)
    calls = []
    stage1 = stepping.stage1

    def recording(backend, prev, mid, heat_start):
        new, iface = stage1(backend, prev, mid, heat_start)
        calls.append((mid, iface))
        return new, iface

    monkeypatch.setattr(stepping, "stage1", recording)

    def steps():
        prev = prob.initial_state()
        grid = TimeGrid.from_duration(config.t_end, config.dt)
        for state, report in march(prob, prev, grid, fp_tol=config.fp_tol):
            yield (report.n, prev, state) + calls[-1]
            prev = state

    return prob, steps()


@pytest.mark.parametrize("config", [
    _coarse("high_discharge", 50),
    _production("low_discharge", 4),
    _production("low_charge", 4),
    _coarse("high_charge", 50).replace(model="electrochemical"),
], ids=["coarse high_discharge", "production low_discharge",
        "production low_charge", "coarse high_charge electrochemical"])
def test_lithium_balance_per_electrode(monkeypatch, config):
    prob, steps = _accepted_sweeps(monkeypatch, config)
    mats, dt = prob.mats, config.dt
    # each electrode's c_s integral is the load of its indicator
    w_cs = {tag: asm.assemble_load(prob.s_cs, {tag: 1.0})
            for tag in (ANODE, CATHODE)}
    w_ce = asm.assemble_load(prob.s_ce, 1.0)
    salt = dt * (1.0 - mats.electrolyte.t_plus) / mats.faraday
    worst = {ANODE: 0.0, CATHODE: 0.0, "c_e": 0.0}
    n_steps = 0
    for _, prev, new, _, ist in steps:
        n_steps += 1
        current = {tag: float(ist.weights[ist.tags == tag]
                              @ ist.i_bv[ist.tags == tag])
                   for tag in (ANODE, CATHODE)}
        for tag, i_el in current.items():
            change = w_cs[tag] @ (new["c_s"] - prev["c_s"])
            expected = -dt / mats.faraday * i_el
            worst[tag] = max(worst[tag],
                             abs(change - expected) / abs(expected))
        change = w_ce @ (new["c_e"] - prev["c_e"])
        gross = salt * (abs(current[ANODE]) + abs(current[CATHODE]))
        worst["c_e"] = max(worst["c_e"], abs(
            change - salt * (current[ANODE] + current[CATHODE])) / gross)
    assert n_steps == round(config.t_end / dt)
    assert max(worst.values()) < BALANCE_TOL, worst


def test_adiabatic_heat_balance(monkeypatch):
    """The residual is the row-sum leak of K_theta, dt 1^T K_theta
    theta_mid.  Step 1 advances theta by two backward-Euler half-steps, so
    the check starts at step 2."""
    config = _coarse("high_discharge", 50)
    prob, steps = _accepted_sweeps(monkeypatch, config)
    heat = np.ones(prob.s_th.ndof) @ prob.m_th
    worst, checked = 0.0, 0
    for n, prev, new, mid, _ in steps:
        if n == 1:
            continue
        _, systems = prob.parabolic(mid)
        gain = config.dt * systems["theta"][2].sum()
        change = heat @ (new["theta"] - prev["theta"])
        worst = max(worst, abs(change - gain) / abs(gain))
        checked += 1
    assert checked == 49
    assert worst < HEAT_TOL, worst
