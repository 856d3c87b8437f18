"""Command-line behavior: outputs, configuration merging, exit codes."""
import json
import math
import subprocess
import sys
import warnings

import pytest

from duotherm.cli import main
from duotherm.sweep import CSV_HEADER, read_csv


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "swi2.csv"
    code = main(["sweep", "--setup", "swi2", "--grid", "2", "--out", str(out)])
    assert code == 0
    records = read_csv(str(out))
    assert len(records) == 4
    assert all(not r.singular for r in records)
    stdout = capsys.readouterr().out
    assert "swi2: 4 points (0 singular)" in stdout
    assert str(out) in stdout


def test_sweep_writes_pgm(tmp_path):
    out = tmp_path / "map.pgm"
    code = main(["sweep", "--setup", "swi2", "--grid", "3", "--out", str(out),
                 "--format", "pgm", "--field", "total_var"])
    assert code == 0
    assert out.read_bytes().startswith(b"P5\n3 3\n255\n")


def test_sweep_both_formats_appends_suffixes(tmp_path):
    base = tmp_path / "run"
    code = main(["sweep", "--setup", "mz2b_wc", "--grid", "2", "--out", str(base),
                 "--format", "both"])
    assert code == 0
    assert (tmp_path / "run.csv").read_text().startswith(CSV_HEADER)
    assert (tmp_path / "run.pgm").read_bytes().startswith(b"P5\n2 2\n")


def test_bounds_json_payload(capsys):
    code = main(["bounds", "--setup", "swi2", "--t1", "0.3", "--t2", "0.8", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["setup_id"] == "swi2"
    assert payload["t1"] == 0.3 and payload["t2"] == 0.8
    assert payload["singular"] is False
    assert payload["var_t1"] > 0 and math.isfinite(payload["total_var"])
    assert payload["total_var"] == pytest.approx(payload["var_t1"] + payload["var_t2"])
    assert payload["repetitions"] == 1


def test_bounds_text_output_and_singular_setup(capsys):
    code = main(["bounds", "--setup", "mz1b", "--t1", "0.3", "--t2", "0.8"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "singular: True" in stdout
    assert "var_t1: inf" in stdout


def test_bounds_repetitions_scale_the_variance(capsys):
    main(["bounds", "--setup", "swi2", "--t1", "0.4", "--t2", "0.7", "--json"])
    single = json.loads(capsys.readouterr().out)
    main(["bounds", "--setup", "swi2", "--t1", "0.4", "--t2", "0.7", "--json",
          "--repetitions", "50"])
    repeated = json.loads(capsys.readouterr().out)
    assert repeated["var_t1"] == pytest.approx(single["var_t1"] / 50.0, rel=1e-12)


def test_compare_table_marks_singular_setups(capsys):
    code = main(["compare", "--setups", "mz1b,swi2", "--grid", "2"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "(all grid points singular)" in stdout
    assert "swi2" in stdout and "mz1b" in stdout


def test_compare_prints_the_headline_orderings(capsys):
    code = main(["compare", "--setups", "mz1b,swi2,swi3,swi4,mz2b_2q", "--grid", "3",
                 "--workers", "1"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "switch worst-case totals: swi4 7.3416 <= swi3 8.5609 <= swi2 17.9449" in lines
    assert "best qubit-probe variance: mz2b_2q reaches min_var 0.7634" in lines
    # without all three switches there is no chain, and an all-singular
    # qubit probe is never the best
    main(["compare", "--setups", "mz1b,swi3", "--grid", "2", "--workers", "1"])
    stdout = capsys.readouterr().out
    assert "switch worst-case totals" not in stdout
    assert "best qubit-probe variance" not in stdout


def test_compare_json_and_file_output(tmp_path, capsys):
    out = tmp_path / "summary.json"
    code = main(["compare", "--setups", "swi2,mz2b_wc", "--grid", "2",
                 "--json", "--out", str(out)])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    on_disk = json.loads(out.read_text())
    assert printed == on_disk
    assert [entry["setup_id"] for entry in printed] == ["swi2", "mz2b_wc"]
    for entry in printed:
        assert entry["min_var"] <= entry["max_var"]
        assert not entry["empty"]


def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"setup_id": "swi3", "grid_n": 3, "t_max": 0.9}))
    out = tmp_path / "out.csv"
    code = main(["sweep", "--config", str(config), "--out", str(out),
                 "--setup", "swi2", "--grid", "2"])
    assert code == 0
    assert "swi2: 4 points" in capsys.readouterr().out
    records = read_csv(str(out))
    assert max(r.t2 for r in records) == 0.9  # t_max came from the config file


def test_unknown_config_key_is_a_configuration_error(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"setup_id": "swi2", "gridn": 3}))
    code = main(["sweep", "--config", str(config), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [("grid_n", 2.5), ("t_min", "0.1"), ("step", "1e-5"),
                                         ("eta", None), ("phi", "x")])
def test_malformed_config_value_is_a_configuration_error(tmp_path, capsys, field, value):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"setup_id": "swi2", "grid_n": 2, field: value}))
    code = main(["sweep", "--config", str(config), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {field} must be")


def test_non_finite_phase_is_a_configuration_error(capsys):
    code = main(["bounds", "--setup", "mz2b_2q", "--t1", "0.3", "--t2", "0.7", "--phi", "nan"])
    assert code == 2
    assert capsys.readouterr().err.startswith("configuration error: phi must be finite")


def test_non_object_config_is_a_configuration_error(tmp_path):
    config = tmp_path / "list.json"
    config.write_text("[1, 2]")
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2


def test_missing_setup_selection_is_a_configuration_error(tmp_path, capsys):
    code = main(["sweep", "--grid", "2", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "no setup selected" in capsys.readouterr().err


def test_nonpositive_temperature_is_a_configuration_error(capsys):
    code = main(["bounds", "--setup", "mz2b", "--t1", "-0.5", "--t2", "0.8"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert main(["bounds", "--setup", "swi2", "--t1", "0.5", "--t2", "0.0"]) == 2


@pytest.mark.parametrize("flags, named", [
    (["--t1", "inf", "--t2", "0.5"], "temperature must be finite, got inf"),
    (["--t1", "0.5", "--t2", "nan"], "temperature must be finite, got nan"),
    (["--t1", "0.5", "--t2", "0.3", "--step", "inf"], "step must be positive and finite, got inf"),
])
def test_non_finite_temperature_or_step_is_named_as_given(flags, named, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["bounds", "--setup", "swi2"] + flags)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"configuration error: {named}"]


def test_temperature_within_one_step_of_zero_names_it_and_the_step(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["bounds", "--setup", "swi2", "--t1", "5e-6", "--t2", "0.5"])
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("configuration error: temperature 5e-06 is within one derivative "
                           "step of zero")
    assert "step 1e-05" in line and "-5e-06" not in line


def test_failing_grid_point_is_an_error_line_not_a_traceback(tmp_path, capsys):
    # at phi = pi the identical arms of the shared bath cancel in the plus
    # port on the diagonal, so the first grid point is dark
    for argv in (["sweep", "--setup", "mz1b", "--out", str(tmp_path / "x.csv")],
                 ["compare", "--setups", "mz1b"]):
        code = main(argv + ["--grid", "3", "--phi", str(math.pi), "--workers", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "(t1=0.1, t2=0.1)" in err
        assert "Traceback" not in err


def test_missing_config_file_is_an_io_error(tmp_path, capsys):
    code = main(["sweep", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


def test_unwritable_output_path_is_an_io_error(tmp_path):
    out = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert main(["sweep", "--setup", "swi2", "--grid", "2", "--out", str(out)]) == 3


def test_argparse_rejects_unknown_setup():
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--setup", "carnot", "--out", "x.csv"])
    assert excinfo.value.code == 2


def test_validate_subset_passes(capsys):
    code = main(["validate", "--checks", "tensor_partial_trace,sweep_csv_roundtrip"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.count("PASS") == 2
    assert "FAIL" not in stdout


def test_validate_reports_injected_defects(capsys):
    code = main(["validate", "--checks", "channel_completeness",
                 "--inject-defect", "channel_completeness"])
    assert code == 1
    assert "FAIL channel_completeness" in capsys.readouterr().out


def test_validate_unknown_check_is_a_configuration_error(capsys):
    assert main(["validate", "--checks", "perpetual_motion"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_validate_json_report(capsys):
    code = main(["validate", "--checks", "tensor_partial_trace", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["checks"][0]["name"] == "tensor_partial_trace"
    assert report["checks"][0]["seconds"] >= 0.0


def test_module_entry_point_runs_in_a_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "duotherm", "validate",
         "--checks", "tensor_partial_trace"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "PASS tensor_partial_trace" in proc.stdout
