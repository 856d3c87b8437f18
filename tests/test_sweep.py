"""Grid sweeps, CSV round trips, heatmap rendering, worker plumbing."""
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duotherm import setups, sweep
from duotherm.errors import ConfigurationError, DuothermError, ValidationError
from duotherm.estimation import DerivativeConfig, evaluate_bounds
from duotherm.setups import SETUP_IDS, make_setup
from duotherm.sweep import (
    CSV_HEADER,
    SweepRecord,
    SweepSpec,
    emit_csv,
    emit_pgm_heatmap,
    read_csv,
    records_to_grid,
    resolve_workers,
    run_sweep,
    summarize_ranges,
)

csv_floats = st.floats(allow_nan=False, allow_infinity=True, width=64)


def make_records(values, n=None):
    """Synthetic t1-major records with var_t1 taken from ``values``."""
    n = n or math.isqrt(len(values))
    axis = np.linspace(0.1, 1.0, n)
    out = []
    for i in range(n):
        for j in range(n):
            v = float(values[i * n + j])
            out.append(SweepRecord(
                t1=float(axis[i]), t2=float(axis[j]), var_t1=v, var_t2=v,
                cov=0.0, total_var=2 * v, det_qfim=1.0, attain_residual=0.0,
                singular=not math.isfinite(v),
            ))
    return out


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        SweepSpec(setup_id="nope")
    with pytest.raises(ConfigurationError):
        SweepSpec(setup_id="mz1b", t_min=0.5, t_max=0.5)
    with pytest.raises(ConfigurationError):
        SweepSpec(setup_id="mz1b", t_min=-0.1, t_max=1.0)
    with pytest.raises(ConfigurationError):
        SweepSpec(setup_id="mz1b", grid_n=1)
    with pytest.raises(ConfigurationError):
        SweepSpec(setup_id="mz1b", eta=1.5)
    with pytest.raises(ConfigurationError):
        SweepSpec(setup_id="mz1b", beta_convention="ternary")
    with pytest.raises(ConfigurationError):
        SweepSpec(setup_id="mz1b", step=0.0)


def test_two_point_grid_enumerates_corners_t1_major():
    spec = SweepSpec(setup_id="mz1b_wc", t_min=0.2, t_max=0.8, grid_n=2)
    records = run_sweep(spec)
    assert [(r.t1, r.t2) for r in records] == [
        (0.2, 0.2), (0.2, 0.8), (0.8, 0.2), (0.8, 0.8),
    ]
    assert all(math.isfinite(r.total_var) for r in records)


def test_postselected_single_qubit_sweep_is_all_singular():
    spec = SweepSpec(setup_id="mz1b", grid_n=3)
    records = run_sweep(spec)
    assert len(records) == 9
    assert all(r.singular for r in records)
    assert all(r.var_t1 == math.inf and r.total_var == math.inf for r in records)
    summary = summarize_ranges({"mz1b": records})[0]
    assert summary.empty
    assert math.isnan(summary.min_var) and math.isnan(summary.max_total)


def test_summary_of_a_single_finite_record():
    records = make_records([0.7], n=1)
    summary = summarize_ranges({"swi2": records})[0]
    assert summary.setup_id == "swi2"
    assert summary.min_var == summary.max_var == 0.7
    assert summary.min_total == summary.max_total == 1.4
    assert summary.effective_dimension == 4
    assert not summary.empty


def test_summary_ignores_infinite_cells():
    records = make_records([0.5, math.inf, 2.0, 1.0])
    summary = summarize_ranges({"swi2": records})[0]
    assert summary.min_var == 0.5
    assert summary.max_var == 2.0
    assert not summary.empty
    with pytest.raises(ConfigurationError):
        summarize_ranges({"not_a_setup": records})


def test_empty_record_list_emits_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], str(path))
    assert path.read_text() == CSV_HEADER + "\n"
    assert read_csv(str(path)) == []


@given(values=st.lists(csv_floats, min_size=1, max_size=12),
       flags=st.lists(st.booleans(), min_size=12, max_size=12))
@settings(max_examples=50, deadline=None)
def test_csv_round_trip_is_exact(tmp_path_factory, values, flags):
    records = [
        SweepRecord(t1=0.1 * (i + 1), t2=0.2, var_t1=v, var_t2=v / 3 if math.isfinite(v) else v,
                    cov=-v if math.isfinite(v) else v, total_var=v, det_qfim=0.5,
                    attain_residual=1e-12, singular=flags[i % 12])
        for i, v in enumerate(values)
    ]
    path = tmp_path_factory.mktemp("roundtrip") / "records.csv"
    emit_csv(records, str(path))
    assert read_csv(str(path)) == records


def test_csv_line_count_matches_default_grid(tmp_path):
    records = make_records(np.linspace(1.0, 2.0, 46 * 46))
    path = tmp_path / "grid.csv"
    emit_csv(records, str(path))
    text = path.read_text()
    assert text.endswith("\n")
    assert len(text.splitlines()) == 2117  # header plus one line per grid point


def test_read_csv_rejects_malformed_files(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("t1,t2\n")
    with pytest.raises(ValidationError):
        read_csv(str(bad_header))
    bad_columns = tmp_path / "b.csv"
    bad_columns.write_text(CSV_HEADER + "\n1.0,2.0,3.0\n")
    with pytest.raises(ValidationError):
        read_csv(str(bad_columns))
    bad_flag = tmp_path / "c.csv"
    bad_flag.write_text(CSV_HEADER + "\n" + ",".join(["1.0"] * 8) + ",maybe\n")
    with pytest.raises(ValidationError):
        read_csv(str(bad_flag))


def test_records_to_grid_layout_and_errors():
    records = make_records([1.0, 2.0, 3.0, 4.0])
    grid = records_to_grid(records, "var_t1")
    np.testing.assert_allclose(grid, [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ConfigurationError):
        records_to_grid(records, "t1")
    with pytest.raises(ValidationError):
        records_to_grid(records[:3], "var_t1")
    shuffled = [records[0], records[2], records[1], records[3]]
    with pytest.raises(ValidationError):
        records_to_grid(shuffled, "var_t1")


def test_pgm_header_and_scaling(tmp_path):
    records = make_records([0.0, 1.0, 2.0, 4.0])
    path = tmp_path / "map.pgm"
    emit_pgm_heatmap(records, "var_t1", str(path))
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n2 2\n255\n")
    pixels = np.frombuffer(blob[len(b"P5\n2 2\n255\n"):], dtype=np.uint8)
    np.testing.assert_array_equal(pixels, [0, 64, 127, 254])


def test_pgm_constant_field_renders_black(tmp_path):
    records = make_records([3.0] * 9)
    path = tmp_path / "flat.pgm"
    emit_pgm_heatmap(records, "var_t1", str(path))
    pixels = np.frombuffer(path.read_bytes()[len(b"P5\n3 3\n255\n"):], dtype=np.uint8)
    assert pixels.shape == (9,)
    assert np.all(pixels == 0)


def test_pgm_singular_cells_render_white(tmp_path):
    records = make_records([1.0, math.inf, 2.0, 3.0])
    path = tmp_path / "white.pgm"
    emit_pgm_heatmap(records, "var_t1", str(path))
    pixels = np.frombuffer(path.read_bytes()[len(b"P5\n2 2\n255\n"):], dtype=np.uint8)
    assert list(pixels).count(255) == 1
    assert pixels[1] == 255
    assert pixels[0] == 0 and pixels[3] == 254


def test_resolve_workers_env_cap(monkeypatch):
    monkeypatch.delenv("DUOTHERM_THREADS", raising=False)
    cpus = os.cpu_count() or 1
    assert resolve_workers(3) == min(3, cpus)
    assert resolve_workers(None) == cpus
    assert resolve_workers(0) == cpus
    monkeypatch.setenv("DUOTHERM_THREADS", "2")
    assert resolve_workers(8) == min(2, cpus)
    assert resolve_workers(1) == 1
    monkeypatch.setenv("DUOTHERM_THREADS", "0")
    assert resolve_workers(8) == min(8, resolve_workers(None))
    monkeypatch.setenv("DUOTHERM_THREADS", "-1")
    with pytest.raises(ConfigurationError):
        resolve_workers(4)
    monkeypatch.setenv("DUOTHERM_THREADS", "many")
    with pytest.raises(ConfigurationError):
        resolve_workers(4)
    monkeypatch.delenv("DUOTHERM_THREADS")
    with pytest.raises(ConfigurationError):
        resolve_workers(-2)


def test_worker_count_does_not_change_results(tmp_path):
    spec = SweepSpec(setup_id="swi2", grid_n=3)
    sequential = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=2)
    assert sequential == parallel
    p1, p2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    emit_csv(sequential, str(p1))
    emit_csv(parallel, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("setup_id", ["mz2b_2q", "swi2"])
def test_swapping_temperature_axes_swaps_the_variance_fields(setup_id):
    spec = SweepSpec(setup_id=setup_id, grid_n=5)
    records = run_sweep(spec)
    var1 = records_to_grid(records, "var_t1")
    var2 = records_to_grid(records, "var_t2")
    finite = np.isfinite(var1) & np.isfinite(var2.T)
    assert finite.sum() >= 20  # at most the diagonal may blow up
    np.testing.assert_allclose(var1[finite], var2.T[finite], rtol=1e-6, atol=1e-8)
    det = records_to_grid(records, "det_qfim")
    np.testing.assert_allclose(det, det.T, rtol=1e-6, atol=1e-10)


@given(setup_id=st.sampled_from(SETUP_IDS), phi=st.floats(min_value=0.1, max_value=3.0),
       eta=st.floats(min_value=0.05, max_value=1.0), grid_n=st.integers(2, 4))
@settings(max_examples=30, deadline=None)
def test_sweep_records_equal_single_point_evaluations(setup_id, phi, eta, grid_n):
    # each row is one stacked evaluation; every record must be the one a
    # single-point evaluate_bounds gives, bit for bit
    spec = SweepSpec(setup_id, grid_n=grid_n, phi=phi, eta=eta)
    setup = make_setup(setup_id, phi=phi, eta=eta)
    cfg = DerivativeConfig(step=spec.step)
    for record in run_sweep(spec):
        info, b = evaluate_bounds(setup, record.t1, record.t2, cfg)
        point = SweepRecord(record.t1, record.t2, b.var_t1, b.var_t2, b.cov, b.total_var,
                            info.determinant, info.attainability_residual, info.singular)
        assert repr(record) == repr(point)


@pytest.mark.parametrize("workers", [1, 2])
def test_ragged_multi_row_blocks_equal_single_point_evaluations(workers, monkeypatch):
    # a budget of 20 points puts the 7x7 grid in blocks of 2, 2, 2 and 1 rows
    monkeypatch.setattr(sweep, "_BLOCK_POINTS", 20)
    spec = SweepSpec("mz2b_2q", grid_n=7, phi=1.1)
    setup = make_setup("mz2b_2q", phi=1.1)
    cfg = DerivativeConfig(step=spec.step)
    records = run_sweep(spec, workers=workers)
    assert [r.t1 for r in records] == np.repeat(spec.grid(), 7).tolist()
    assert [r.t2 for r in records] == np.tile(spec.grid(), 7).tolist()
    for record in records:
        info, b = evaluate_bounds(setup, record.t1, record.t2, cfg)
        point = SweepRecord(record.t1, record.t2, b.var_t1, b.var_t2, b.cov, b.total_var,
                            info.determinant, info.attainability_residual, info.singular)
        assert repr(record) == repr(point)


def test_failure_in_a_later_block_names_its_first_failing_point(monkeypatch):
    monkeypatch.setattr(sweep, "_BLOCK_POINTS", 20)
    evaluate = sweep.evaluate_bounds
    grid = SweepSpec("swi2", grid_n=7).grid()

    def failing(setup, t1, t2, cfg):
        # rows 4 and 5 make up the third block: row 4 fails at its last
        # point, row 5 from its third point on
        t1, t2 = np.asarray(t1), np.asarray(t2)
        if np.any(((t1 >= grid[5]) & (t2 >= grid[2])) | ((t1 >= grid[4]) & (t2 >= grid[6]))):
            raise ValidationError("synthetic failure")
        return evaluate(setup, t1, t2, cfg)

    monkeypatch.setattr(sweep, "evaluate_bounds", failing)
    with pytest.raises(DuothermError, match="synthetic failure") as info:
        run_sweep(SweepSpec("swi2", grid_n=7), workers=1)
    assert f"(t1={grid[4].item()!r}, t2={grid[6].item()!r})" in str(info.value)


def test_failed_sweep_names_the_first_failing_point_in_t1_major_order(monkeypatch):
    evaluate = sweep.evaluate_bounds

    def failing(setup, t1, t2, cfg):
        if np.any((np.asarray(t1) > 0.5) & (np.asarray(t2) > 0.5)):
            raise ValidationError("synthetic failure")
        return evaluate(setup, t1, t2, cfg)

    monkeypatch.setattr(sweep, "evaluate_bounds", failing)
    # grid 0.1, 0.55, 1.0: row 1 fails from its middle point on, row 2 too
    with pytest.raises(DuothermError, match=r"\(t1=0\.55, t2=0\.55\): synthetic failure") as info:
        run_sweep(SweepSpec(setup_id="swi2", grid_n=3), workers=1)
    assert isinstance(info.value.__cause__, ValidationError)


def test_a_sweep_compiles_its_setup_once(monkeypatch):
    compile_setup = setups.compile_setup
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return compile_setup(*args, **kwargs)

    monkeypatch.setattr(setups, "compile_setup", counting)
    records = run_sweep(SweepSpec(setup_id="mz2b_wc", grid_n=6), workers=1)
    assert len(records) == 36
    assert calls == [("mz2b_wc", math.pi / 2, 1.0)]


def test_grid_temperature_within_one_step_of_zero_is_a_configuration_error():
    # the first grid point, t1 = t2 = 1e-6, lies within the default step of
    # zero; the error names it and the step rather than a stencil point
    spec = SweepSpec(setup_id="swi2", t_min=1e-6, grid_n=3)
    with pytest.raises(ConfigurationError, match=r"temperature 1e-06 .* step 1e-05"):
        run_sweep(spec, workers=1)
