"""Material data and closed-form constitutive laws.

Holds the full parameter set for the lithiated-graphite anode, the LMO
cathode and the LiPF6/EC-DEC electrolyte, the experimental open-circuit
potential fits for both electrodes, the concentration- and stress-dependent
solid diffusivity, the diffusional conductivity of the electrolyte, and
plane-strain Hooke's law with thermal and chemical eigenstrains.

All functions accept and return plain floats or numpy arrays.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import units
from .units import ScaleSet

log = logging.getLogger(__name__)

# State-of-charge value past which the cathode open-circuit fit blows up
# (pole of the (1.00167 - x)^-0.379571 term).
CATHODE_OCP_POLE = 1.00167
_OCP_CLAMP_MARGIN = 1e-6


def ocp_anode(c_hat, clamp: bool = False):
    """Open-circuit potential of the graphite anode vs. state of charge [V]."""
    c_hat = np.asarray(c_hat, dtype=float)
    if clamp:
        c_hat = _clamped(c_hat, _OCP_CLAMP_MARGIN, np.inf, "anode OCP")
    out = -0.16 + 1.32 * np.exp(-3.0 * c_hat) + 10.0 * np.exp(-2000.0 * c_hat)
    return out if out.ndim else float(out)


def ocp_cathode(c_hat, clamp: bool = False):
    """Open-circuit potential of the LMO cathode vs. state of charge [V].

    Raises ValueError at or beyond the fit's pole unless ``clamp`` is set, in
    which case inputs are clamped just inside the admissible interval and the
    event is logged.
    """
    c_hat = np.asarray(c_hat, dtype=float)
    if clamp:
        c_hat = _clamped(c_hat, _OCP_CLAMP_MARGIN,
                         CATHODE_OCP_POLE - _OCP_CLAMP_MARGIN, "cathode OCP")
    elif np.any(c_hat >= CATHODE_OCP_POLE):
        raise ValueError(
            f"cathode OCP undefined at c_hat >= {CATHODE_OCP_POLE} (fit pole)")
    out = (4.06279
           + 0.0677504 * np.tanh(-21.8502 * c_hat + 12.8262)
           - 0.105734 * ((1.00167 - c_hat) ** -0.379571 - 1.576)
           - 0.045 * np.exp(-71.69 * c_hat ** 8)
           + 0.01 * np.exp(-200.0 * (c_hat - 0.19)))
    return out if out.ndim else float(out)


def _clamped(x, lo, hi, what):
    clipped = np.clip(x, lo, hi)
    n_bad = int(np.count_nonzero(clipped != x))
    if n_bad:
        log.warning("%s: clamped %d evaluation point(s) into [%g, %g]",
                    what, n_bad, lo, hi)
    return clipped


@dataclass(frozen=True)
class ElectrodeMaterial:
    """Per-electrode record (SI unless scaled; see MaterialSet.scaled)."""

    rho_cv: float          # volumetric heat capacity [J/(m^3 K)]
    conductivity: float    # electronic conductivity gamma [S/m]
    thermal_k: float       # thermal conductivity lambda [W/(m K)]
    diffusivity0: float    # reference solid diffusivity D_s0 [m^2/s]
    c_max: float           # saturation concentration [mol/m^3]
    youngs: float          # E [Pa]
    poisson: float         # nu [-]
    alpha: float           # thermal dilation [1/K]
    omega: float           # concentration dilation [m^3/mol]
    ocp: Callable = ocp_anode

    def __post_init__(self):
        for name in ("rho_cv", "conductivity", "thermal_k", "diffusivity0",
                     "c_max", "youngs", "alpha", "omega"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"electrode parameter '{name}' must be positive")
        if not 0.0 < self.poisson < 0.5:
            raise ValueError("poisson ratio must lie in (0, 0.5)")

    @property
    def lame(self) -> tuple[float, float]:
        return lame_from_e_nu(self.youngs, self.poisson)


@dataclass(frozen=True)
class ElectrodeConstants:
    """Electrode constants at a set of solid points, one value per point.

    It carries the ElectrodeMaterial attributes that the constitutive laws
    read, so each law runs at once over points of both electrodes.
    """

    c_max: np.ndarray
    diffusivity0: np.ndarray
    conductivity: np.ndarray
    shear: np.ndarray
    bulk: np.ndarray
    alpha: np.ndarray
    omega: np.ndarray
    c_s_ref: np.ndarray     # strain-free concentration

    @property
    def lame(self) -> tuple[np.ndarray, np.ndarray]:
        return self.shear, self.bulk

    @classmethod
    def at(cls, index: np.ndarray, electrodes: tuple,
           c_s_ref: tuple) -> "ElectrodeConstants":
        """Constants of ``electrodes[index[k]]`` at each point k."""
        def take(values):
            return np.asarray(values, dtype=float)[index]
        return cls(
            c_max=take([e.c_max for e in electrodes]),
            diffusivity0=take([e.diffusivity0 for e in electrodes]),
            conductivity=take([e.conductivity for e in electrodes]),
            shear=take([e.lame[0] for e in electrodes]),
            bulk=take([e.lame[1] for e in electrodes]),
            alpha=take([e.alpha for e in electrodes]),
            omega=take([e.omega for e in electrodes]),
            c_s_ref=take(c_s_ref))


@dataclass(frozen=True)
class ElectrolyteMaterial:
    rho_cv: float          # [J/(m^3 K)]
    conductivity: float    # ionic conductivity kappa_e [S/m]
    thermal_k: float       # [W/(m K)]
    diffusivity: float     # D_e [m^2/s]
    t_plus: float          # cation transference number [-]

    def __post_init__(self):
        for name in ("rho_cv", "conductivity", "thermal_k", "diffusivity"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"electrolyte parameter '{name}' must be positive")
        if not 0.0 < self.t_plus < 1.0:
            raise ValueError("t_plus must lie in (0, 1)")


@dataclass(frozen=True)
class MaterialSet:
    """Complete parameter set for one simulation."""

    anode: ElectrodeMaterial
    cathode: ElectrodeMaterial
    electrolyte: ElectrolyteMaterial
    k_bv: float = 1.1e-11          # reaction rate constant [m^2.5 mol^-0.5 s^-1]
    alpha_d: float = 6.0           # diffusivity concentration exponent [-]
    beta_d: float = 1.5            # diffusivity pressure exponent [-]
    pi_max: float = 1e9            # pressure saturating the diffusivity law [Pa]
    theta_ref: float = 298.15      # reference temperature [K]
    c_e_init: float = 2e3          # initial electrolyte concentration [mol/m^3]
    gas_constant: float = 8.314462618   # R [J/(mol K)]
    faraday: float = 96485.33212        # F [C/mol]

    def __post_init__(self):
        for name in ("k_bv", "alpha_d", "beta_d", "pi_max", "theta_ref",
                     "c_e_init", "gas_constant", "faraday"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"parameter '{name}' must be positive")

    def electrode(self, side: str) -> ElectrodeMaterial:
        if side == "sa":
            return self.anode
        if side == "sc":
            return self.cathode
        raise KeyError(f"unknown electrode side {side!r}")

    def scaled(self, scales: ScaleSet) -> "MaterialSet":
        """Return a copy expressed in the internal unit system."""
        f = scales.factor
        volt = f(units.VOLT)

        def electrode(m: ElectrodeMaterial) -> ElectrodeMaterial:
            base = m.ocp
            return ElectrodeMaterial(
                rho_cv=m.rho_cv / f(units.VOL_HEAT_CAPACITY),
                conductivity=m.conductivity / f(units.CONDUCTIVITY),
                thermal_k=m.thermal_k / f(units.THERMAL_CONDUCTIVITY),
                diffusivity0=m.diffusivity0 / f(units.DIFFUSIVITY),
                c_max=m.c_max / f(units.CONCENTRATION),
                youngs=m.youngs / f(units.STRESS),
                poisson=m.poisson,
                alpha=m.alpha / f(units.INV_TEMPERATURE),
                omega=m.omega / f(units.MOLAR_VOLUME),
                ocp=(base if volt == 1.0
                     else (lambda c_hat, clamp=False, _b=base, _v=volt:
                           _b(c_hat, clamp=clamp) / _v)),
            )

        e = self.electrolyte
        return MaterialSet(
            anode=electrode(self.anode),
            cathode=electrode(self.cathode),
            electrolyte=ElectrolyteMaterial(
                rho_cv=e.rho_cv / f(units.VOL_HEAT_CAPACITY),
                conductivity=e.conductivity / f(units.CONDUCTIVITY),
                thermal_k=e.thermal_k / f(units.THERMAL_CONDUCTIVITY),
                diffusivity=e.diffusivity / f(units.DIFFUSIVITY),
                t_plus=e.t_plus,
            ),
            k_bv=self.k_bv / scales.k_bv_factor(),
            alpha_d=self.alpha_d,
            beta_d=self.beta_d,
            pi_max=self.pi_max / f(units.STRESS),
            theta_ref=self.theta_ref / f(units.TEMPERATURE),
            c_e_init=self.c_e_init / f(units.CONCENTRATION),
            gas_constant=self.gas_constant / f(units.GAS_CONSTANT),
            faraday=self.faraday / f(units.FARADAY),
        )


def default_materials() -> MaterialSet:
    """Parameter values used in all stock scenarios (SI units)."""
    anode = ElectrodeMaterial(
        rho_cv=3.8235e6,
        conductivity=100.0,
        thermal_k=1.04,
        diffusivity0=3.9e-14,
        c_max=3.1507e4,
        youngs=3.64e9,
        poisson=0.3,
        alpha=1e-5,
        omega=3.499e-6,
        ocp=ocp_anode,
    )
    cathode = ElectrodeMaterial(
        rho_cv=9.0371e5,
        conductivity=3.8,
        thermal_k=6.2,
        diffusivity0=1e-13,
        c_max=2.286e4,
        youngs=2.5e9,
        poisson=0.3,
        alpha=1e-5,
        omega=3.499e-6,
        ocp=ocp_cathode,
    )
    electrolyte = ElectrolyteMaterial(
        rho_cv=1.9979e6,
        conductivity=0.2,
        thermal_k=0.344,
        diffusivity=7.5e-11,
        t_plus=0.363,
    )
    return MaterialSet(anode=anode, cathode=cathode, electrolyte=electrolyte)


# ---------------------------------------------------------------------------
# Constitutive laws
# ---------------------------------------------------------------------------

def diffusional_conductivity(theta, mats: MaterialSet):
    """kappa_D = -(2 R theta kappa_e / F)(1 - t_plus); strictly negative."""
    return (-2.0 * mats.gas_constant * theta * mats.electrolyte.conductivity
            / mats.faraday) * (1.0 - mats.electrolyte.t_plus)


def stress_diffusivity(c_s, pi, electrode, mats: MaterialSet):
    """Solid diffusivity D_s(c_s, pi), bounded in [D0 e^-beta, D0 e^alpha].

    ``electrode`` is an ElectrodeMaterial or per-point ElectrodeConstants."""
    c_s = np.asarray(c_s, dtype=float)
    pi = np.asarray(pi, dtype=float)
    expo = mats.alpha_d * c_s / electrode.c_max
    expo = expo - mats.beta_d * np.clip(pi, 0.0, mats.pi_max) / mats.pi_max
    out = electrode.diffusivity0 * np.exp(expo)
    return out if out.ndim else float(out)


def lame_from_e_nu(youngs: float, poisson: float) -> tuple[float, float]:
    """Shear and bulk modulus (G, K) from Young's modulus and Poisson ratio."""
    if youngs <= 0.0 or not 0.0 <= poisson < 0.5:
        raise ValueError("require E > 0 and nu in [0, 0.5)")
    shear = youngs / (2.0 * (1.0 + poisson))
    bulk = youngs / (3.0 * (1.0 - 2.0 * poisson))
    return shear, bulk


@dataclass(frozen=True)
class StressState:
    """Cauchy stress at one or many points (plane strain, with sigma_33)."""

    s11: np.ndarray | float
    s22: np.ndarray | float
    s12: np.ndarray | float
    s33: np.ndarray | float


def hooke_plane_strain(eps11, eps22, eps12, theta, c_s, electrode,
                       mats: MaterialSet, c_s_ref) -> StressState:
    """Isotropic Hooke's law under plane strain with eigenstrains.

    ``electrode`` is an ElectrodeMaterial or per-point ElectrodeConstants.

    The mechanical strain subtracts the thermal strain alpha*(theta-theta_ref)*I
    and the chemical strain omega*(c_s - c_s_ref)*I; the out-of-plane total
    strain is identically zero, so sigma_33 is recovered from the same law with
    eps33_me = -(thermal + chemical) eigenstrain.
    """
    shear, bulk = electrode.lame
    lam_3d = bulk - 2.0 * shear / 3.0
    eig = (electrode.alpha * (np.asarray(theta, dtype=float) - mats.theta_ref)
           + electrode.omega * (np.asarray(c_s, dtype=float) - c_s_ref))
    e11 = np.asarray(eps11, dtype=float) - eig
    e22 = np.asarray(eps22, dtype=float) - eig
    e33 = -eig
    tr = e11 + e22 + e33
    return StressState(
        s11=2.0 * shear * e11 + lam_3d * tr,
        s22=2.0 * shear * e22 + lam_3d * tr,
        s12=2.0 * shear * np.asarray(eps12, dtype=float),
        s33=2.0 * shear * e33 + lam_3d * tr,
    )


def hydrostatic_pressure(stress: StressState):
    """pi = -(1/3) tr(sigma), with the full 3D trace."""
    return -(stress.s11 + stress.s22 + stress.s33) / 3.0


def von_mises(stress: StressState):
    """Von Mises equivalent tensile stress (sigma_23 = sigma_31 = 0)."""
    d1 = stress.s11 - stress.s33
    d2 = stress.s22 - stress.s11
    d3 = stress.s33 - stress.s22
    return np.sqrt(0.5 * (d1 * d1 + d2 * d2 + d3 * d3) + 3.0 * stress.s12 ** 2)
