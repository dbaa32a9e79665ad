"""The benchmark's workloads: which scenarios run, how long, and with what output.

Why each workload was chosen is recorded in BENCHMARK.json and README.md.

Every call goes through the package's public API -- ``driver.run_scenario``
and ``postprocess.compare_models`` -- looked up on the module at call time,
so the boundary probe and the tracer see it.  The workload seed only picks
the initial state of charge (both electrodes) from ``SOC_CHOICES``.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass

from voltacell import driver, postprocess
from voltacell.config import PRESET_PARAMS, PRESETS, preset
from voltacell.mesh import MeshSpec
from voltacell.physics import DivergenceError
from voltacell.solve import SolveError
from voltacell.state import GuardViolation

# Seed 0 is the ROADMAP's 50 % start.  The set is narrow so that every seed
# does the same amount of work: each choice keeps the same sweep counts and
# the same failures (checked when the references were made).
SOC_CHOICES = (0.50, 0.51, 0.52, 0.53)

# A run that raises one of these counts as failed; anything else is a bug in
# the benchmark or the program and ends the benchmark run.
KNOWN_FAILURES = (SolveError, DivergenceError, GuardViolation)


def initial_soc(seed: int) -> float:
    return SOC_CHOICES[seed % len(SOC_CHOICES)]


@dataclass(frozen=True)
class Workload:
    name: str
    presets: tuple          # scenario presets, run in this order
    steps: int              # loaded steps per scenario run
    coarse: bool            # coarse mesh with dt = 6 s, else production/preset dt
    compare: bool           # compare_models (both model modes) per preset
    writes_output: bool     # CSV, VTK and manifest into a scratch directory

    def configs(self, soc: float, steps: int | None = None) -> list:
        steps = steps or self.steps
        out = []
        for name in self.presets:
            dt = 6.0 if self.coarse else PRESET_PARAMS[name]["dt"]
            cfg = preset(name).replace(dt=dt, t_end=steps * dt,
                                       soc_init_anode=soc,
                                       soc_init_cathode=soc)
            if self.coarse:
                cfg = cfg.replace(mesh=MeshSpec.coarse())
            out.append(cfg)
        return out

    def run_once(self, configs: list, work_dir: str, on_call=None) -> int:
        """One pass over the configs; returns bytes of VTK written.

        ``on_call(k)`` runs before the k-th top-level call (the tracer uses
        it to tag spans with a run id).  Known failures are swallowed here:
        the probe has already recorded them.
        """
        vtk_bytes = 0
        for k, cfg in enumerate(configs):
            if on_call is not None:
                on_call(k)
            out_dir = os.path.join(work_dir, f"run{k}") \
                if self.writes_output else None
            try:
                if self.compare:
                    postprocess.compare_models(cfg)
                else:
                    driver.run_scenario(cfg, out_dir=out_dir)
            except KNOWN_FAILURES:
                pass
            finally:
                if out_dir is not None and os.path.isdir(out_dir):
                    vtk_bytes += sum(
                        os.path.getsize(os.path.join(out_dir, f))
                        for f in os.listdir(out_dir) if f.endswith(".vtk"))
                    shutil.rmtree(out_dir)
        return vtk_bytes


WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk_discharge",
        presets=("high_discharge",), steps=100, coarse=True, compare=False,
        writes_output=True),
    Workload(
        name="production_presets",
        presets=PRESETS, steps=4, coarse=False, compare=False,
        writes_output=False),
    Workload(
        name="desk_compare_charge",
        presets=("high_charge",), steps=50, coarse=True, compare=True,
        writes_output=False),
)}
