"""Timers at the driver boundary, active in traced and untraced runs alike.

Wrapping ``driver.run_scenario``, ``driver.build_problem`` and the ``step``
name that ``run_scenario`` calls costs one extra Python call per run, build
or loaded step (not per inner function), so the end-to-end figures stay
those of the plain program.  Warm-up steps call ``stepping.step`` directly
and are not sampled as loaded steps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from voltacell import driver, stepping

from perfbench import gate


@dataclass
class StepSample:
    n: int
    wall_s: float
    sweeps: int
    clamp_events: int


@dataclass
class RunRecord:
    """One run_scenario call: its loaded steps and its outcome."""

    key: str
    dt_s: float
    steps: list = field(default_factory=list)
    summary: dict | None = None     # gate.summarize() of a completed run
    error: str | None = None        # exception type of a failed run
    message: str | None = None
    wall_s: float = 0.0
    entered_step: int = 0           # last loaded step that was started

    @property
    def last_step(self) -> int:
        return self.steps[-1].n if self.steps else 0

    @property
    def sim_s(self) -> float:
        return len(self.steps) * self.dt_s


class RunProbe:
    def __init__(self):
        self.runs: list[RunRecord] = []
        self.setup_s: list[float] = []
        self._saved = None

    def install(self):
        run_scenario, build_problem = driver.run_scenario, driver.build_problem
        clock = time.perf_counter
        probe = self

        def timed_build(config):
            t0 = clock()
            out = build_problem(config)
            probe.setup_s.append(clock() - t0)
            return out

        def timed_step(backend, history, grid, n, **kw):
            # Looked up per call, so a traced stepping.step is used when
            # tracing is on.
            probe.runs[-1].entered_step = n
            t0 = clock()
            state, rep = stepping.step(backend, history, grid, n, **kw)
            probe.runs[-1].steps.append(StepSample(
                n, clock() - t0, rep.sweeps, rep.clamp_events))
            return state, rep

        def timed_run(config, out_dir=None):
            rec = RunRecord(gate.run_key(config), config.dt)
            probe.runs.append(rec)
            t0 = clock()
            try:
                result = run_scenario(config, out_dir)
            except Exception as exc:
                rec.error, rec.message = type(exc).__name__, str(exc)
                raise
            finally:
                rec.wall_s = clock() - t0
            rec.summary = gate.summarize(result)
            return result

        self._saved = (run_scenario, build_problem, driver.step)
        driver.run_scenario = timed_run
        driver.build_problem = timed_build
        driver.step = timed_step

    def uninstall(self):
        driver.run_scenario, driver.build_problem, driver.step = self._saved
        self._saved = None

    def clear(self):
        self.runs.clear()
        self.setup_s.clear()
