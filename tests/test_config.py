import pytest

from voltacell import units
from voltacell.config import ConfigError, ScenarioConfig, nondimensionalize, \
    parse_scenario, preset
from voltacell.geometry import CellDimensions, scaled_dimensions
from voltacell.units import ScaleSet


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


def test_invalid_soc_rejected(tmp_path):
    f = tmp_path / "scn.txt"
    f.write_text("soc_init = 1.5\n")
    with pytest.raises(ConfigError, match="soc_init"):
        parse_scenario(str(f))


def test_unknown_key_suggestion(tmp_path):
    f = tmp_path / "scn.txt"
    f.write_text("extra_fp_iterz = 3\n")
    with pytest.raises(ConfigError, match="extra_fp_iters"):
        parse_scenario(str(f))


def test_all_violations_reported_together(tmp_path):
    f = tmp_path / "scn.txt"
    f.write_text("soc_init = -2\nmodel = hybrid\n")
    with pytest.raises(ConfigError) as err:
        parse_scenario(str(f))
    msg = str(err.value)
    assert "soc_init" in msg and "model" in msg


@pytest.mark.parametrize("key, value", [
    ("heat_convention", "reversed"), ("scale.length", "1e-3"),
    ("guard_eps_e", "5.0"), ("guard_eps_s", "5.0")])
def test_removed_keys_are_unknown(tmp_path, key, value):
    """The heat-sign convention, the internal unit scales and the guard
    margins are fixed, so a scenario file cannot set them."""
    f = tmp_path / "scn.txt"
    f.write_text(f"dt = 6\n{key} = {value}\n")
    with pytest.raises(ConfigError,
                       match=f"line 2: unknown key {key!r}"):
        parse_scenario(str(f))


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


def test_nondimensionalize_round_trip(mats_si):
    cfg = preset("high_discharge")
    scaled = nondimensionalize(cfg, mats_si)
    s = scaled.scales
    assert s.to_si(scaled.i_app, units.CURRENT_DENSITY) \
        == pytest.approx(20.0, rel=1e-12)
    assert s.to_si(scaled.dt, units.TIME) == pytest.approx(4.0, rel=1e-12)
    assert s.to_si(scaled.t_end, units.TIME) == pytest.approx(3600.0,
                                                              rel=1e-12)
    assert scaled.dims.h_s == pytest.approx(0.3, rel=1e-12)
    assert s.to_si(scaled.mats.electrolyte.diffusivity, units.DIFFUSIVITY) \
        == pytest.approx(mats_si.electrolyte.diffusivity, rel=1e-12)


def test_identity_scales_leave_si(mats_si):
    identity = ScaleSet.identity()
    assert identity.to_internal(5.0, units.CURRENT_DENSITY) == 5.0
    assert identity.to_internal(6.0, units.TIME) == 6.0
    assert mats_si.scaled(identity).anode.diffusivity0 \
        == mats_si.anode.diffusivity0
    assert scaled_dimensions(CellDimensions(), 1.0).h_s == 30e-6


def test_guard_defaults_scaled(mats_si):
    cfg = preset("high_discharge")
    scaled = nondimensionalize(cfg, mats_si)
    conc = scaled.scales.factor(units.CONCENTRATION)
    assert scaled.guard.eps_e * conc == pytest.approx(1e-3 * 2000.0, rel=1e-12)
    assert scaled.guard.eps_s * conc == pytest.approx(1e-4 * 2.286e4,
                                                      rel=1e-12)
