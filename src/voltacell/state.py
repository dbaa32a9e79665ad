"""Simulation state containers and concentration bound guarding.

The exchange current involves square roots of c_e, c_s and (c_max - c_s), so
evaluations must never see concentrations at or beyond those bounds.  The
guard clamps values *at evaluation points only* (quadrature points and
interface traces); solution vectors are never modified.  Every clamp event is
counted and logged with its context and worst magnitude.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

D_FIELDS = ("theta", "c_s", "c_e")
S_FIELDS = ("phi_s", "phi_e", "u")


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

    def names(self):
        return self.fields.keys()

    def blend(self, other: "SimState", wa: float, wb: float,
              t: float) -> "SimState":
        return SimState(t, {k: wa * v + wb * other.fields[k]
                            for k, v in self.fields.items()})

    def midpoint(self, other: "SimState") -> "SimState":
        return self.blend(other, 0.5, 0.5, 0.5 * (self.t + other.t))

    def max_rel_diff(self, other: "SimState", scales: dict | None = None,
                     floor: float = 1e-30) -> float:
        """Largest per-field relative change.

        Each field is measured against max(|self|, |other|, field scale); the
        optional ``scales`` supply characteristic magnitudes so that fields
        sitting at zero (like the displacement at equilibrium) do not report
        roundoff noise as order-one changes.
        """
        worst = 0.0
        for k, v in self.fields.items():
            scale = max(np.abs(v).max(), np.abs(other.fields[k]).max(),
                        (scales or {}).get(k, 0.0), floor)
            worst = max(worst, float(np.abs(v - other.fields[k]).max() / scale))
        return worst


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
class GuardPolicy:
    """Concentration bounds used at evaluation points (internal units).

    eps_e: floor for the electrolyte concentration; eps_s: margin keeping the
    solid concentration away from 0 and from saturation.
    """

    eps_e: float
    eps_s: float
    action: str = "clamp"     # 'clamp' (and log) or 'abort'

    def __post_init__(self):
        if self.eps_e <= 0.0 or self.eps_s <= 0.0:
            raise ValueError("guard margins must be positive")
        if self.action not in ("clamp", "abort"):
            raise ValueError("guard action must be 'clamp' or 'abort'")

    @classmethod
    def defaults(cls, mats) -> "GuardPolicy":
        eps_s = 1e-4 * min(mats.anode.c_max, mats.cathode.c_max)
        return cls(eps_e=1e-3 * mats.c_e_init, eps_s=eps_s)


@dataclass
class ClampLog:
    events: int = 0
    max_violation: float = 0.0
    contexts: dict = field(default_factory=dict)


class Guard:
    """Applies a GuardPolicy to evaluated arrays, recording clamp events."""

    def __init__(self, policy: GuardPolicy):
        self.policy = policy
        self.log = ClampLog()

    def clamp(self, values: np.ndarray, lo, hi, context,
              labels: np.ndarray | None = None) -> np.ndarray:
        """Clip ``values`` into [lo, hi] (scalars or one bound per value).

        Clamp events are counted under the name ``context``; with
        ``labels`` (an index per value), ``context`` is a sequence of names
        indexed by label, and events are counted per name.
        """
        clipped = np.clip(values, lo, hi)
        bad = clipped != values
        if not bad.any():
            return clipped
        excess = np.abs(values - clipped)
        if labels is None:
            named = [(context, bad)]
        else:
            named = [(context[k], bad & (labels == k))
                     for k in np.unique(labels[bad])]
        for name, sel in named:
            n = int(np.count_nonzero(sel))
            worst = float(excess[sel].max())
            if self.policy.action == "abort":
                lo_k = np.broadcast_to(lo, values.shape)[sel][0]
                hi_k = np.broadcast_to(hi, values.shape)[sel][0]
                raise GuardViolation(
                    f"{name}: {n} value(s) out of [{lo_k:.6g}, {hi_k:.6g}], "
                    f"worst excess {worst:.3e}")
            self.log.events += n
            self.log.max_violation = max(self.log.max_violation, worst)
            self.log.contexts[name] = self.log.contexts.get(name, 0) + n
            log.debug("guard: clamped %d value(s) in %s (worst excess %.3e)",
                      n, name, worst)
        return clipped

    def c_e(self, values: np.ndarray, context: str = "c_e") -> np.ndarray:
        return self.clamp(values, self.policy.eps_e, np.inf, context)

    def c_s(self, values: np.ndarray, c_max, context="c_s",
            labels: np.ndarray | None = None) -> np.ndarray:
        return self.clamp(values, self.policy.eps_s,
                          c_max - self.policy.eps_s, context, labels)
