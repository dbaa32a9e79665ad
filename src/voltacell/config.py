"""Scenario configuration: presets and file parsing.

Scenario files are flat ``key = value`` text ('#' comments).  A file may start
from a built-in preset (``preset = high_discharge``) and mesh resolution
(``mesh.preset = coarse``).  Every other key sets one field, at the dotted
``ScenarioConfig`` path that ``_KEYS`` gives it (``mesh.layers`` sets
``mesh.n_layers``), or a ``mat.`` key adds a material override.  Each key may
appear once: a repeated key is an error that names both lines.  Unknown keys
are rejected with a suggestion; all validation failures are reported
together.
"""

from __future__ import annotations

import dataclasses
import difflib
import logging
import math
import os
from dataclasses import dataclass, field

from .geometry import LAYOUT_BLOCKS, CellDimensions
from .materials import MaterialSet, default_materials
from .mesh import MESH_PRESETS, MeshSpec
from .stepping import TimeGrid

log = logging.getLogger(__name__)

PRESET_PARAMS = {
    "low_discharge": dict(i_app=5.0, t_end=14400.0, dt=6.0),
    "high_discharge": dict(i_app=20.0, t_end=3600.0, dt=4.0),
    "low_charge": dict(i_app=-5.0, t_end=14400.0, dt=6.0),
    "high_charge": dict(i_app=-20.0, t_end=3600.0, dt=4.0),
}


@dataclass
class ScenarioConfig:
    """Full description of one run (SI units throughout)."""

    name: str = "custom"
    i_app: float = 5.0                  # A/m^2; positive discharges the cell
    t_end: float = 14400.0              # s
    dt: float = 6.0                     # s
    soc_init_anode: float = 0.5
    soc_init_cathode: float = 0.5
    model: str = "full"                 # 'full' | 'electrochemical'
    mesh: MeshSpec = field(default_factory=MeshSpec.production)
    dims: CellDimensions = field(default_factory=CellDimensions)
    fp_tol: float = 1e-8                # relative update every step meets
    snapshot_every: float = 60.0        # simulated seconds
    material_overrides: dict = field(default_factory=dict)

    def replace(self, **kw) -> "ScenarioConfig":
        return dataclasses.replace(self, **kw)

    def validate(self) -> list[str]:
        """All invariant violations at once (empty list = valid); a number
        that is not finite is named by its dotted key (``dt``,
        ``mesh.grading``, ``dims.h_s``, ``mat.anode.youngs``)."""
        values = self.to_dict()
        values["mat"] = values.pop("material_overrides")
        errs = [f"{k} = {v!r} is not a finite number"
                for k, v in _numbers(values) if not math.isfinite(v)]
        if self.dt <= 0.0:
            errs.append("dt must be positive")
        if self.t_end < 0.0:
            errs.append("t_end must be nonnegative")
        if 0.0 < self.dt < math.inf and 0.0 < self.t_end < math.inf:
            if self.dt > self.t_end:
                errs.append("dt must not exceed t_end")
            else:
                try:
                    TimeGrid.from_duration(self.t_end, self.dt)
                except ValueError as exc:
                    errs.append(str(exc))
        for nm, n in LAYOUT_BLOCKS.items():
            got = len(getattr(self.mesh, nm))
            if got != n:
                errs.append(f"mesh.{nm} has {got} entries; the layout has "
                            f"{n} blocks")
        for nm in ("soc_init_anode", "soc_init_cathode"):
            v = getattr(self, nm)
            if not 0.0 < v < 1.0:
                errs.append(f"{nm} = {v:g} must lie in (0, 1)")
        if self.model not in ("full", "electrochemical"):
            errs.append(f"model must be 'full' or 'electrochemical', "
                        f"got {self.model!r}")
        if self.fp_tol <= 0.0:
            errs.append("fp_tol must be positive")
        if self.snapshot_every <= 0.0:
            errs.append("snapshot_every must be positive")
        return errs

    def materials(self) -> MaterialSet:
        return apply_material_overrides(default_materials(),
                                        self.material_overrides)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)    # mesh and dims as nested dicts


def _numbers(values: dict, prefix: str = ""):
    """(dotted key, value) of every int or float in a nested dict."""
    for key, value in values.items():
        if isinstance(value, dict):
            yield from _numbers(value, f"{prefix}{key}.")
        elif isinstance(value, (int, float)):
            yield prefix + key, value


def preset(name: str, **overrides) -> ScenarioConfig:
    if name not in PRESET_PARAMS:
        raise KeyError(f"unknown preset {name!r}; available: "
                       f"{sorted(PRESET_PARAMS)}")
    cfg = ScenarioConfig(name=name, **PRESET_PARAMS[name])
    return cfg.replace(**overrides) if overrides else cfg


PRESETS = tuple(PRESET_PARAMS)


def material_parameters(mats: MaterialSet) -> set:
    """The keys a material override may set ('k_bv', 'anode.youngs', ...):
    the float fields of the MaterialSet and of its material groups."""
    def floats(record):
        return [f.name for f in dataclasses.fields(record)
                if f.type in ("float", float)]
    return set(floats(mats)) | {
        f"{g}.{name}" for g in ("anode", "cathode", "electrolyte")
        for name in floats(getattr(mats, g))}


def _replace(record, values: dict):
    """A copy of the dataclass ``record`` with each dotted path of
    ``values`` ('dt', 'mesh.n_layers', 'anode.youngs') set to its value; a
    field set whole ('mesh') has its own paths set on its new value."""
    top, nested = {}, {}
    for path, value in values.items():
        head, dot, tail = path.partition(".")
        if dot:
            nested.setdefault(head, {})[tail] = value
        else:
            top[head] = value
    for head, sub in nested.items():
        top[head] = _replace(top.get(head, getattr(record, head)), sub)
    return dataclasses.replace(record, **top)


def apply_material_overrides(mats: MaterialSet, overrides: dict) -> MaterialSet:
    """Apply dotted-path overrides like {'anode.youngs': 2e9, 'k_bv': ...};
    a key outside ``material_parameters`` raises KeyError."""
    for key in overrides:
        if key not in material_parameters(mats):
            raise KeyError(f"{key!r} is not a numeric material parameter")
    return _replace(mats, overrides)


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------

class ConfigError(ValueError):
    pass


def _int_tuple(v):
    return tuple(int(s) for s in v.replace(",", " ").split())


# file key -> (dotted ScenarioConfig path, converter)
_KEYS = {
    "name": ("name", str),
    "i_app": ("i_app", float),
    "t_end": ("t_end", float),
    "dt": ("dt", float),
    "soc_init_anode": ("soc_init_anode", float),
    "soc_init_cathode": ("soc_init_cathode", float),
    "model": ("model", str),
    "fp_tol": ("fp_tol", float),
    "snapshot_every": ("snapshot_every", float),
    "mesh.nx": ("mesh.nx_blocks", _int_tuple),
    "mesh.ny": ("mesh.ny_blocks", _int_tuple),
    "mesh.layers": ("mesh.n_layers", int),
    "mesh.grading": ("mesh.grading", float),
    "mesh.degree": ("mesh.degree", int),
    "mesh.normal_degree": ("mesh.normal_degree", int),
    **{f"dims.{n}": (f"dims.{n}", float)
       for n in ("h_s", "h_e", "length", "gap", "cap")},
}


def parse_scenario(path) -> ScenarioConfig:
    """Parse a scenario file (or return a preset when given a preset name)."""
    if isinstance(path, str) and path in PRESET_PARAMS:
        return preset(path)
    if not os.path.isfile(path):
        raise ConfigError(
            f"scenario {path!r} is neither a preset ({', '.join(PRESETS)}) "
            "nor a readable file")

    raw: list[tuple[int, str, str]] = []
    errors: list[str] = []
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                errors.append(f"line {lineno}: expected 'key = value', "
                              f"got {stripped!r}")
                continue
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key in first_line:
                errors.append(f"line {lineno}: key {key!r} repeats line "
                              f"{first_line[key]}")
                continue
            first_line[key] = lineno
            raw.append((lineno, key, value.strip()))

    cfg = ScenarioConfig(name="custom")
    values: dict = {}           # dotted ScenarioConfig path -> value
    overrides: dict = {}
    for lineno, key, value in raw:
        try:
            if key == "preset":
                try:
                    cfg = preset(value)
                except KeyError as exc:
                    errors.append(f"line {lineno}: {exc.args[0]}")
            elif key == "mesh.preset":
                if value in MESH_PRESETS:
                    values["mesh"] = MESH_PRESETS[value]()
                else:
                    errors.append(f"line {lineno}: mesh.preset must be "
                                  f"'coarse' or 'production', got {value!r}")
            elif key in _KEYS:
                field_path, conv = _KEYS[key]
                values[field_path] = conv(value)
            elif key.startswith("mat."):
                if key[4:] not in material_parameters(default_materials()):
                    errors.append(f"line {lineno}: {key!r} is not a numeric "
                                  f"material parameter")
                    continue
                overrides[key[4:]] = float(value)
            else:
                hint = difflib.get_close_matches(
                    key, {*_KEYS, "preset", "mesh.preset"}, n=1)
                suffix = f" (did you mean {hint[0]!r}?)" if hint else ""
                errors.append(f"line {lineno}: unknown key {key!r}{suffix}")
        except (TypeError, ValueError) as exc:
            errors.append(f"line {lineno}: bad value for {key!r}: {exc}")

    if not errors:
        values["material_overrides"] = {**cfg.material_overrides, **overrides}
        try:
            cfg = _replace(cfg, values)
        except ValueError as exc:
            errors.append(str(exc))

    if not errors:
        errors.extend(cfg.validate())
        try:
            cfg.materials()
        except (KeyError, ValueError) as exc:
            errors.append(f"material overrides: {exc}")
    if errors:
        raise ConfigError(f"invalid scenario {path!r}:\n  "
                          + "\n  ".join(errors))
    return cfg

