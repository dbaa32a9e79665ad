import json
import os
import re

from voltacell import cli


def run_cli(args):
    return cli.main(args)


def test_no_arguments_prints_usage(capsys):
    assert run_cli([]) == 2
    out = capsys.readouterr()
    assert "usage" in (out.out + out.err).lower()


def test_unknown_scenario_fails_with_message(capsys):
    rc = run_cli(["run", "--scenario", "medium_discharge"])
    assert rc == 1
    assert "error" in capsys.readouterr().err.lower()


def test_run_subcommand_writes_outputs(tmp_path, capsys):
    out = tmp_path / "r1"
    rc = run_cli(["run", "--scenario", "high_discharge", "--out", str(out),
                  "--mesh", "coarse", "--dt", "30", "--tend", "60"])
    assert rc == 0
    names = sorted(os.listdir(out))
    assert "timeseries.csv" in names and "manifest.json" in names
    assert any(n.endswith(".vtk") for n in names)
    printed = capsys.readouterr().out
    assert "V_out" in printed
    # the count of completed steps is the manifest's
    manifest = json.loads((out / "manifest.json").read_text())
    found = re.search(r"completed (\d+) step\(s\); V_out", printed)
    assert found, printed
    assert int(found[1]) == manifest["steps_completed"] == 2


def test_run_scenario_file(tmp_path, capsys):
    scn = tmp_path / "desk.txt"
    scn.write_text("preset = low_discharge\ndt = 30\nt_end = 60\n"
                   "mesh.preset = coarse\n")
    rc = run_cli(["run", "--scenario", str(scn)])
    assert rc == 0


def test_compare_subcommand(tmp_path, capsys):
    out = tmp_path / "cmp"
    rc = run_cli(["compare", "--scenario", "high_discharge", "--out",
                  str(out), "--mesh", "coarse", "--dt", "30", "--tend", "60"])
    assert rc == 0
    table = capsys.readouterr().out
    assert "full" in table and "electrochemical" in table
    csv_text = (out / "comparison.csv").read_text()
    assert csv_text.startswith("scenario,model,p_avg_w_per_dm3,rel_diff")
    assert len(csv_text.splitlines()) == 3


def test_compare_at_rest_reports_nan(tmp_path, capsys):
    """With no applied current both power densities are 0: the relative
    difference is nan in the table and the CSV, and both rows remain."""
    scn = tmp_path / "rest.txt"
    scn.write_text("preset = high_charge\nmesh.preset = coarse\ni_app = 0\n"
                   "dt = 6\nt_end = 12\n")
    out = tmp_path / "cmp"
    assert run_cli(["compare", "--scenario", str(scn), "--out", str(out)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:3]
    assert [r.split()[1:] for r in rows] == [["full", "0", "nan"],
                                             ["electrochemical", "0", "nan"]]
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[1:] == ["high_charge,full,0,nan",
                         "high_charge,electrochemical,0,nan"]


def test_convergence_temporal(tmp_path, capsys):
    out = tmp_path / "conv"
    rc = run_cli(["convergence", "--case", "temporal", "--out", str(out)])
    assert rc == 0
    report = (out / "convergence_temporal.txt").read_text()
    assert "rates" in report


def test_mesh_subcommand(tmp_path, capsys):
    out = tmp_path / "mesh"
    rc = run_cli(["mesh", "--spec", "coarse", "--out", str(out)])
    assert rc == 0
    assert (out / "mesh.vtk").exists()
    assert (out / "quality_report.txt").exists()
    assert (out / "domain.svg").exists()
    assert "no invariant violations" in capsys.readouterr().out


def test_mesh_missing_spec_names_the_mesh_presets(tmp_path, capsys):
    """``mesh --spec`` takes a mesh preset, a scenario preset or a file; its
    message for a missing file names all three."""
    missing = str(tmp_path / "missing.txt")
    assert run_cli(["mesh", "--spec", missing]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "coarse, production" in err and "high_discharge" in err
    assert repr(missing) in err
