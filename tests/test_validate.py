"""Self-check registry: positive runs, negative controls, reporting."""
import pytest

from duotherm.errors import ConfigurationError
from duotherm.validate import CHECKS, CheckResult, as_report, run_checks


def test_registry_is_complete():
    assert len(CHECKS) == 16
    prefixes = {name.split("_")[0] for name in CHECKS}
    assert {"tensor", "channel", "mz", "compiled", "switch", "qfi", "qfim",
            "attainability", "sweep"} <= prefixes


def test_all_checks_pass_with_default_seed():
    results = run_checks()
    assert [r.name for r in results] == list(CHECKS)
    failing = [r.name for r in results if not r.passed]
    assert failing == []
    assert all(isinstance(r, CheckResult) for r in results)
    assert all(r.seconds >= 0.0 for r in results)
    assert all(r.detail for r in results)  # every check reports what it did


def test_checks_are_reproducible_for_a_fixed_seed():
    first = run_checks(names=["channel_dilation"], seed=11)
    second = run_checks(names=["channel_dilation"], seed=11)
    assert first[0].detail == second[0].detail
    other_seed = run_checks(names=["channel_dilation"], seed=12)
    assert other_seed[0].passed


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_each_check_bites_on_its_negative_control(name):
    # inject_defect corrupts the named check's own input; the check must FAIL
    results = run_checks(names=[name], inject_defect=name)
    assert not results[0].passed
    assert results[0].detail  # failure carries the assertion message


def test_defect_is_scoped_to_the_named_check():
    results = run_checks(names=["channel_completeness", "channel_fixed_point"],
                         inject_defect="channel_fixed_point")
    by_name = {r.name: r.passed for r in results}
    assert by_name == {"channel_completeness": True, "channel_fixed_point": False}


def test_unknown_names_are_rejected():
    with pytest.raises(ConfigurationError):
        run_checks(names=["entropy_reversal"])
    with pytest.raises(ConfigurationError):
        run_checks(inject_defect="entropy_reversal")


def test_report_structure():
    report = as_report(run_checks(names=["tensor_partial_trace", "sweep_pgm_format"]))
    assert report["passed"] is True
    assert [c["name"] for c in report["checks"]] == [
        "tensor_partial_trace", "sweep_pgm_format",
    ]
    for entry in report["checks"]:
        assert set(entry) == {"name", "passed", "seconds", "detail"}
        assert entry["seconds"] >= 0.0
    broken = as_report(run_checks(names=["qfi_thermal_qubit"],
                                  inject_defect="qfi_thermal_qubit"))
    assert broken["passed"] is False
