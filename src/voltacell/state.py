"""Simulation state containers and the concentration bound check.

The exchange current involves square roots of c_e, c_s and (c_max - c_s), so
evaluations must never see concentrations at or beyond those bounds.  The
guard checks the values *at evaluation points* (quadrature points and
interface traces) and raises ``GuardViolation`` on any value outside its
bounds, naming the context, the count, the bounds and the worst excess; it
never alters a value, so a run either solves the physics it reports or stops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GuardViolation(RuntimeError):
    pass


@dataclass
class SimState:
    """Coefficient vectors of all fields at one time level."""

    t: float
    fields: dict

    def __getitem__(self, name: str) -> np.ndarray:
        return self.fields[name]

    def __setitem__(self, name: str, vec: np.ndarray):
        self.fields[name] = vec

    def copy(self) -> "SimState":
        return SimState(self.t, {k: v.copy() for k, v in self.fields.items()})

    def blend(self, other: "SimState", wa: float, wb: float,
              t: float) -> "SimState":
        return SimState(t, {k: wa * v + wb * other.fields[k]
                            for k, v in self.fields.items()})

    def midpoint(self, other: "SimState") -> "SimState":
        return self.blend(other, 0.5, 0.5, 0.5 * (self.t + other.t))

    def rel_diffs(self, other: "SimState", scales: dict | None = None) -> dict:
        """Relative change of each field, by field name.

        Each field is measured against max(|self|, |other|, field scale); the
        optional ``scales`` supply characteristic magnitudes so that fields
        sitting at zero (like the displacement at equilibrium) do not report
        roundoff noise as order-one changes.
        """
        out = {}
        for k, v in self.fields.items():
            scale = max(np.abs(v).max(), np.abs(other.fields[k]).max(),
                        (scales or {}).get(k, 0.0), 1e-30)
            out[k] = float(np.abs(v - other.fields[k]).max() / scale)
        return out


def extrapolate(newer: SimState, older: SimState, t: float) -> SimState:
    """Two-point linear extrapolation 2*newer - older."""
    return newer.blend(older, 2.0, -1.0, t)


@dataclass
class History:
    """Two-level solution storage (t_{n-1} and t_{n-2})."""

    prev: SimState
    prev2: SimState | None = None

    def push(self, state: SimState):
        self.prev2 = self.prev
        self.prev = state

    @property
    def depth(self) -> int:
        return 1 if self.prev2 is None else 2


@dataclass(frozen=True)
class Guard:
    """Concentration bounds at evaluation points [mol/m^3], and their check.

    eps_e: floor for the electrolyte concentration; eps_s: margin keeping the
    solid concentration away from 0 and from saturation.
    """

    eps_e: float
    eps_s: float

    def __post_init__(self):
        if not (self.eps_e > 0.0 and self.eps_s > 0.0):
            raise ValueError("guard margins must be positive")

    @classmethod
    def defaults(cls, mats) -> "Guard":
        eps_s = 1e-4 * min(mats.anode.c_max, mats.cathode.c_max)
        return cls(eps_e=1e-3 * mats.c_e_init, eps_s=eps_s)

    def check(self, values: np.ndarray, lo, hi, context,
              labels: np.ndarray | None = None) -> np.ndarray:
        """Return ``values`` if all lie in [lo, hi] (scalars or one bound per
        value), else raise GuardViolation; a NaN lies in no interval.

        With ``labels`` (an index per value), ``context`` is a sequence of
        names indexed by label, and the message names the context of the
        lowest offending label.
        """
        bad = ~((values >= lo) & (values <= hi))
        if not bad.any():
            return values
        if labels is not None:
            k = labels[bad].min()
            bad &= labels == k
            context = context[k]
        lo_b = np.broadcast_to(lo, values.shape)[bad]
        hi_b = np.broadcast_to(hi, values.shape)[bad]
        v = values[bad]
        worst = float(np.maximum(lo_b - v, v - hi_b).max())
        raise GuardViolation(
            f"{context}: {v.size} value(s) out of [{lo_b[0]:.6g}, "
            f"{hi_b[0]:.6g}], worst excess {worst:.3e}")

    def c_e(self, values: np.ndarray, context: str = "c_e") -> np.ndarray:
        return self.check(values, self.eps_e, np.inf, context)

    def c_s(self, values: np.ndarray, c_max, context="c_s",
            labels: np.ndarray | None = None) -> np.ndarray:
        return self.check(values, self.eps_s, c_max - self.eps_s, context,
                          labels)
