import pytest

from voltacell import config
from voltacell.config import ConfigError, ScenarioConfig, parse_scenario, \
    preset

# Each field key of a scenario file: a valid value, the dotted path of the
# ScenarioConfig field it sets and the value that field then holds.
KEY_FIELDS = {
    "name": ("desk", "name", "desk"),
    "i_app": ("-7.5", "i_app", -7.5),
    "t_end": ("600", "t_end", 600.0),
    "dt": ("3", "dt", 3.0),
    "soc_init_anode": ("0.3", "soc_init_anode", 0.3),
    "soc_init_cathode": ("0.7", "soc_init_cathode", 0.7),
    "model": ("electrochemical", "model", "electrochemical"),
    "fp_tol": ("1e-6", "fp_tol", 1e-6),
    "snapshot_every": ("30", "snapshot_every", 30.0),
    "mesh.nx": ("1 4 2 1", "mesh.nx_blocks", (1, 4, 2, 1)),
    "mesh.ny": ("2, 3, 2", "mesh.ny_blocks", (2, 3, 2)),
    "mesh.layers": ("2", "mesh.n_layers", 2),
    "mesh.grading": ("0.25", "mesh.grading", 0.25),
    "mesh.degree": ("2", "mesh.degree", 2),
    "mesh.normal_degree": ("3", "mesh.normal_degree", 3),
    "dims.h_s": ("2.5e-5", "dims.h_s", 2.5e-5),
    "dims.h_e": ("3.5e-5", "dims.h_e", 3.5e-5),
    "dims.length": ("8e-4", "dims.length", 8e-4),
    "dims.gap": ("5e-5", "dims.gap", 5e-5),
    "dims.cap": ("7e-5", "dims.cap", 7e-5),
}


def flat(values: dict, prefix: str = "") -> dict:
    """The leaves of a nested dict by dotted path."""
    out = {}
    for key, value in values.items():
        if isinstance(value, dict):
            out.update(flat(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def test_presets():
    hd = preset("high_discharge")
    assert hd.i_app == 20.0 and hd.t_end == 3600.0
    lc = preset("low_charge")
    assert lc.i_app == -5.0 and lc.t_end == 4 * 3600.0
    with pytest.raises(KeyError):
        preset("medium_discharge")


def test_preset_names_resolve_directly():
    cfg = parse_scenario("high_discharge")
    assert cfg.name == "high_discharge" and cfg.i_app == 20.0


def test_file_overrides_preset(tmp_path):
    f = tmp_path / "scn.txt"
    f.write_text("# desk-scale variant\n"
                 "preset = high_discharge\n"
                 "dt = 6\n"
                 "t_end = 600\n"
                 "mesh.preset = coarse\n")
    cfg = parse_scenario(str(f))
    assert cfg.i_app == 20.0          # from the preset
    assert cfg.dt == 6.0              # overridden
    assert cfg.t_end == 600.0
    assert cfg.mesh.degree == 2       # coarse mesh preset


@pytest.mark.parametrize("key", sorted(config._KEYS))
def test_each_key_sets_its_own_field(tmp_path, key):
    """A file holding one field key gives the base config with exactly that
    key's field changed, to the parsed value of its type."""
    text, path, value = KEY_FIELDS[key]
    f = tmp_path / "scn.txt"
    f.write_text(f"{key} = {text}\n")
    base = flat(ScenarioConfig().to_dict())
    got = flat(parse_scenario(str(f)).to_dict())
    assert got.keys() == base.keys()
    assert [p for p in base if got[p] != base[p]] == [path]
    assert got[path] == value and type(got[path]) is type(value)


def test_key_table_lists_every_field_key():
    assert set(config._KEYS) == set(KEY_FIELDS)


@pytest.mark.parametrize("lines", [
    ["preset = high_charge", "mesh.preset = coarse", "mesh.layers = 2",
     "dt = 3"],
    ["dt = 3", "mesh.layers = 2", "mesh.preset = coarse",
     "preset = high_charge"]])
def test_presets_are_the_base_of_the_other_keys(tmp_path, lines):
    """``preset`` and ``mesh.preset`` pick the configuration and the mesh
    that the other keys change, whatever the order of the lines."""
    import dataclasses
    from voltacell.mesh import MeshSpec
    f = tmp_path / "scn.txt"
    f.write_text("\n".join(lines) + "\n")
    mesh = dataclasses.replace(MeshSpec.coarse(), n_layers=2)
    assert parse_scenario(str(f)) == preset("high_charge").replace(
        dt=3.0, mesh=mesh)


def test_invalid_soc_rejected(tmp_path):
    f = tmp_path / "scn.txt"
    f.write_text("soc_init_anode = 1.5\nsoc_init_cathode = 1.5\n")
    with pytest.raises(ConfigError, match="soc_init"):
        parse_scenario(str(f))


def test_unknown_key_suggestion(tmp_path):
    f = tmp_path / "scn.txt"
    f.write_text("fp_toll = 1e-8\n")
    with pytest.raises(ConfigError, match="did you mean 'fp_tol'"):
        parse_scenario(str(f))


def test_all_violations_reported_together(tmp_path):
    f = tmp_path / "scn.txt"
    f.write_text("soc_init_anode = -2\nsoc_init_cathode = -2\n"
                 "model = hybrid\n")
    with pytest.raises(ConfigError) as err:
        parse_scenario(str(f))
    msg = str(err.value)
    assert "soc_init" in msg and "model" in msg


@pytest.mark.parametrize("key, value", [
    ("heat_convention", "reversed"), ("scale.length", "1e-3"),
    ("guard_eps_e", "5.0"), ("guard_eps_s", "5.0"),
    ("guard_action", "clamp"), ("mesh.max_aspect", "2000"),
    ("kappa_d_factor", "0"), ("tend", "60"), ("soc_init", "0.5")])
def test_removed_keys_are_unknown(tmp_path, key, value):
    """There is no heat-sign convention, unit-scale, guard-margin,
    guard-action, mesh aspect-bound or kappa_D-scaling setting, no alias of
    t_end and no key setting both initial SoCs, so a scenario file cannot
    set them."""
    f = tmp_path / "scn.txt"
    f.write_text(f"dt = 6\n{key} = {value}\n")
    with pytest.raises(ConfigError,
                       match=f"line 2: unknown key {key!r}"):
        parse_scenario(str(f))


@pytest.mark.parametrize("lines, key, first, again", [
    (["preset = high_discharge", "preset = low_charge", "dt = 6", "dt = 3"],
     "preset", 1, 2),
    (["preset = high_discharge", "dt = 6", "t_end = 60", "dt = 3"],
     "dt", 2, 4),
    (["mesh.preset = coarse", "mat.k_bv = 2e-11", "mat.k_bv = 3e-11"],
     "mat.k_bv", 2, 3)])
def test_repeated_key_is_an_error(tmp_path, lines, key, first, again):
    """A key set twice is a ConfigError naming the key and both lines, not a
    file of which one setting silently wins."""
    f = tmp_path / "scn.txt"
    f.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError,
                       match=f"(?m)^  line {again}: key {key!r} repeats "
                             f"line {first}$"):
        parse_scenario(str(f))


def test_bad_mesh_preset_names_its_line(tmp_path):
    f = tmp_path / "scn.txt"
    f.write_text("preset = high_discharge\nmesh.preset = fine\n")
    with pytest.raises(ConfigError, match=(
            "(?m)^  line 2: mesh.preset must be 'coarse' or 'production', "
            "got 'fine'$")):
        parse_scenario(str(f))


def test_block_counts_checked_with_the_other_errors(tmp_path):
    """A mesh.nx or mesh.ny with the wrong number of entries is reported by
    validation, named by its dotted key and next to the other errors, not
    left to fail the mesh build."""
    f = tmp_path / "scn.txt"
    f.write_text("mesh.nx = 1 3 2\nmesh.ny = 1 2 1 1\nsoc_init_anode = 2\n")
    with pytest.raises(ConfigError) as err:
        parse_scenario(str(f))
    msg = str(err.value)
    assert "\n  mesh.nx_blocks has 3 entries; the layout has 4 blocks" in msg
    assert "\n  mesh.ny_blocks has 4 entries; the layout has 3 blocks" in msg
    assert "soc_init_anode" in msg


def test_parse_error_carries_line_number(tmp_path):
    f = tmp_path / "scn.txt"
    f.write_text("dt = 6\nnot a config line\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_scenario(str(f))


def test_material_override_keys(tmp_path):
    f = tmp_path / "scn.txt"
    f.write_text("mat.anode.youngs = 2e9\nmat.k_bv = 2.2e-11\n")
    cfg = parse_scenario(str(f))
    mats = cfg.materials()
    assert mats.anode.youngs == 2e9
    assert mats.k_bv == 2.2e-11
    f2 = tmp_path / "bad.txt"
    f2.write_text("mat.anode.bogus = 1\n")
    with pytest.raises(ConfigError, match="bogus"):
        parse_scenario(str(f2))


@pytest.mark.parametrize("key, value", [
    ("dt", "nan"), ("t_end", "inf"), ("i_app", "nan"),
    ("snapshot_every", "nan"), ("fp_tol", "-1"), ("fp_tol", "0")])
def test_bad_numbers_reported_by_key(tmp_path, key, value):
    """A non-finite number, or a fixed-point tolerance that is not positive
    (0 can never be met), is a ConfigError naming its key, not a crash or an
    accepted run."""
    f = tmp_path / "scn.txt"
    lines = {"dt": "6", "t_end": "60", key: value}
    f.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    with pytest.raises(ConfigError, match=f"\n  {key} "):
        parse_scenario(str(f))


def test_validate_reports_nested_nonfinite_values():
    """Mesh, dimension and material-override values are checked too, and
    ``validate`` lists every bad value instead of raising."""
    import dataclasses
    cfg = ScenarioConfig(t_end=float("inf"), dt=float("nan"),
                         material_overrides={"anode.youngs": float("nan")})
    cfg = cfg.replace(dims=dataclasses.replace(cfg.dims, h_s=float("inf")))
    errs = cfg.validate()
    for key in ("t_end", "dt", "dims.h_s", "mat.anode.youngs"):
        assert any(e.startswith(f"{key} = ") for e in errs), (key, errs)


@pytest.mark.parametrize("key", ["mat.anode.ocp", "mat.anode.lame",
                                 "mat.anode", "mat.bogus.k_bv"])
def test_material_override_must_name_a_number(tmp_path, key):
    """Only float parameters of a material group or of the material set can
    be overridden; anything else is a ConfigError on the key's line."""
    f = tmp_path / "scn.txt"
    f.write_text(f"dt = 6\n{key} = 1\n")
    with pytest.raises(ConfigError, match=f"line 2: {key!r}"):
        parse_scenario(str(f))


def test_validate_time_divisibility():
    cfg = ScenarioConfig(t_end=100.0, dt=7.0)
    assert any("integer number" in e for e in cfg.validate())
    assert ScenarioConfig(t_end=3600.0, dt=4.0).validate() == []


def test_preset_step_counts_in_expected_band():
    """The one-hour high-current runs land between 600 and 1200 steps."""
    from voltacell.stepping import TimeGrid
    for name in ("high_discharge", "high_charge"):
        cfg = preset(name)
        n = TimeGrid.from_duration(cfg.t_end, cfg.dt).n_steps
        assert 600 <= n <= 1200


def test_guard_defaults_scaled():
    """A run's guard margins follow from the materials (in mol/m^3)."""
    from voltacell.driver import build_problem
    from voltacell.mesh import MeshSpec
    cfg = preset("high_discharge").replace(mesh=MeshSpec.coarse())
    guard = build_problem(cfg).guard
    assert guard.eps_e == pytest.approx(1e-3 * 2000.0, rel=1e-12)
    assert guard.eps_s == pytest.approx(1e-4 * 2.286e4, rel=1e-12)
