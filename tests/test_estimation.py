"""Estimation layer: derivatives, SLDs, the information matrix, and bounds."""
import math
import warnings

import numpy as np
import pytest

from duotherm import tensor
from duotherm.channels import ThermalBathSpec, gibbs_probabilities
from duotherm.errors import ConfigurationError, ValidationError
from duotherm.estimation import (
    BoundsResult,
    DerivativeConfig,
    QfimResult,
    crb_bounds,
    evaluate_bounds,
    qfim,
    qfim_eigensum,
    sld_operators,
    state_and_derivatives,
)
from duotherm.setups import make_setup

RNG = np.random.default_rng(20240823)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def thermal_diag(t: float) -> np.ndarray:
    return np.diag(gibbs_probabilities(ThermalBathSpec(t))).astype(complex)


def mixed_basis_family(t1: float, t2: float) -> np.ndarray:
    """Full-rank two-parameter family: computational and rotated thermal mix."""
    return 0.5 * thermal_diag(t1) + 0.5 * HADAMARD @ thermal_diag(t2) @ HADAMARD


def random_traceless_hermitian(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (g + g.conj().T) / 2.0
    return h - np.trace(h).real / dim * np.eye(dim)


def fabricated_qfim(q: np.ndarray, singular: bool = False) -> QfimResult:
    q = np.asarray(q, dtype=float)
    det = float(q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0])
    return QfimResult(qfim=q, determinant=det, attainability_residual=0.0, singular=singular)


def test_derivative_config_validation():
    with pytest.raises(ConfigurationError):
        DerivativeConfig(step=0.0)
    with pytest.raises(ConfigurationError):
        DerivativeConfig(support_tol=-1e-3)
    with pytest.raises(ConfigurationError):
        DerivativeConfig(singular_tol=0.0)


@pytest.mark.parametrize("name", ["step", "support_tol", "singular_tol"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_derivative_config_rejects_non_finite_values(name, value):
    with pytest.raises(ConfigurationError, match=f"{name} must be positive and finite"):
        DerivativeConfig(**{name: value})


@pytest.mark.parametrize("t1, t2, message", [
    (math.inf, 0.5, "temperature must be finite, got inf"),
    (np.array([0.3, -math.inf]), np.array([0.5, 0.6]), "temperature must be finite, got -inf"),
    (0.3, -0.2, "temperature must be positive, got -0.2"),
    (4e-6, 0.5, "temperature 4e-06 is within one derivative step of zero"),
])
def test_evaluate_bounds_names_a_bad_temperature_before_the_build(t1, t2, message):
    built = []

    def setup(a, b):
        built.append((a, b))
        return np.eye(2) / 2

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match=message):
            evaluate_bounds(setup, t1, t2)
    assert built == []


def test_the_stencil_limit_is_one_step_from_zero():
    # t - step * max(1, t) > 0 holds just above the step and fails at it
    cfg = DerivativeConfig(step=1e-3)
    setup = make_setup("swi2")
    evaluate_bounds(setup, 1.001e-3, 0.5, cfg)
    with pytest.raises(ConfigurationError, match=r"temperature 0.001 .* step 0.001"):
        evaluate_bounds(setup, 1e-3, 0.5, cfg)


def test_constant_family_has_zero_derivatives():
    rho0 = tensor.random_density_matrix(RNG, 3)
    rho, d1, d2 = state_and_derivatives(lambda t1, t2: rho0, 0.4, 0.9)
    np.testing.assert_allclose(rho, rho0, atol=0.0)
    np.testing.assert_allclose(d1, np.zeros((3, 3)), atol=1e-12)
    np.testing.assert_allclose(d2, np.zeros((3, 3)), atol=1e-12)


def test_thermal_qubit_derivative_matches_analytic_form():
    t = 0.5
    _, d1, d2 = state_and_derivatives(lambda a, b: thermal_diag(a), t, 0.7)
    p0, p1 = gibbs_probabilities(ThermalBathSpec(t))
    slope = p0 * p1 / t**2  # d p_excited / dT for the unit-gap qubit
    np.testing.assert_allclose(d1, np.diag([-slope, slope]), atol=1e-6)
    np.testing.assert_allclose(d2, np.zeros((2, 2)), atol=1e-12)


def test_derivative_truncation_error_is_second_order():
    def family(t1, t2):
        return np.diag([math.exp(math.sin(3.0 * t1)), float(t2)]).astype(complex)

    t1, t2 = 0.8, 1.0
    exact = 3.0 * math.cos(3.0 * t1) * math.exp(math.sin(3.0 * t1))
    errors = []
    for step in (1e-2, 5e-3, 2.5e-3):
        _, d1, _ = state_and_derivatives(family, t1, t2, DerivativeConfig(step=step))
        errors.append(abs(d1[0, 0].real - exact))
    # halving the step should cut the truncation error roughly fourfold
    assert errors[1] < errors[0] / 3.0
    assert errors[2] < errors[1] / 3.0


def test_sld_for_maximally_mixed_state_doubles_the_derivative():
    rho = np.eye(2, dtype=complex) / 2.0
    d1 = np.diag([0.3, -0.3]).astype(complex)
    d2 = np.array([[0.0, 0.2], [0.2, 0.0]], dtype=complex)
    l1, l2 = sld_operators(rho, d1, d2)
    np.testing.assert_allclose(l1, 2.0 * d1, atol=1e-12)
    np.testing.assert_allclose(l2, 2.0 * d2, atol=1e-12)


def test_sld_solves_its_defining_relation_on_full_rank_states():
    for k in range(10):
        rng = np.random.default_rng([20240823, 1, k])
        rho = tensor.random_density_matrix(rng, 4)
        d1 = random_traceless_hermitian(rng, 4)
        d2 = random_traceless_hermitian(rng, 4)
        l1, l2 = sld_operators(rho, d1, d2)
        for l_op, d_rho in ((l1, d1), (l2, d2)):
            residual = (l_op @ rho + rho @ l_op) / 2.0 - d_rho
            assert np.abs(residual).max() < 1e-7


def test_pure_state_information_matches_the_overlap_formula():
    theta = 0.7

    def ket(th):
        return np.array([math.cos(th), np.exp(1j * th) * math.sin(th)])

    psi = ket(theta)
    eps = 1e-7
    dpsi = (ket(theta + eps) - ket(theta - eps)) / (2.0 * eps)
    rho = np.outer(psi, psi.conj())
    d_rho = np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj())
    l1, l2 = sld_operators(rho, d_rho, np.zeros((2, 2), dtype=complex))
    info = qfim(rho, l1, l2)
    overlap = np.vdot(psi, dpsi)
    expected = 4.0 * (np.vdot(dpsi, dpsi).real - abs(overlap) ** 2)
    assert info.qfim[0, 0] == pytest.approx(expected, rel=1e-6)
    assert info.singular  # the second row is identically zero


def test_thermal_qubit_information_oracle():
    # diagonal exponential-family value p0 p1 / T^4, frozen independently
    t = 0.5
    rho, d1, d2 = state_and_derivatives(lambda a, b: thermal_diag(a), t, 0.7)
    l1, l2 = sld_operators(rho, d1, d2)
    info = qfim(rho, l1, l2)
    assert info.qfim[0, 0] == pytest.approx(1.6798973664561043, abs=1e-6)
    assert info.singular
    assert abs(info.determinant) < 1e-12
    assert info.attainability_residual < 1e-10


def test_both_information_routes_agree_on_random_families():
    for k in range(50):
        rng = np.random.default_rng([20240823, 2, k])
        dim = 2 + k % 5
        rho = tensor.random_density_matrix(rng, dim)
        d1 = random_traceless_hermitian(rng, dim)
        d2 = random_traceless_hermitian(rng, dim)
        l1, l2 = sld_operators(rho, d1, d2)
        q_sld = qfim(rho, l1, l2).qfim
        q_eig = qfim_eigensum(rho, d1, d2)
        np.testing.assert_allclose(q_sld, q_eig, atol=1e-7)


def test_bounds_for_diagonal_information():
    bounds = crb_bounds(fabricated_qfim(np.diag([4.0, 0.25])))
    assert bounds.var_t1 == pytest.approx(0.25, abs=1e-15)
    assert bounds.var_t2 == pytest.approx(4.0, abs=1e-15)
    assert bounds.cov == 0.0
    assert bounds.total_var == pytest.approx(4.25, abs=1e-15)
    repeated = crb_bounds(fabricated_qfim(np.diag([4.0, 0.25])), repetitions=7)
    assert repeated.var_t1 == pytest.approx(0.25 / 7.0, abs=1e-15)
    assert repeated.total_var == pytest.approx(4.25 / 7.0, abs=1e-15)
    assert repeated.repetitions == 7


def test_bounds_match_the_explicit_inverse():
    for k in range(20):
        rng = np.random.default_rng([20240823, 3, k])
        a = rng.normal(size=(2, 2))
        q = a @ a.T + 0.1 * np.eye(2)
        bounds = crb_bounds(fabricated_qfim(q))
        inv = np.linalg.inv(q)
        assert bounds.var_t1 == pytest.approx(inv[0, 0], rel=1e-10)
        assert bounds.var_t2 == pytest.approx(inv[1, 1], rel=1e-10)
        assert bounds.cov == pytest.approx(inv[0, 1], rel=1e-10)


def test_singular_information_yields_infinite_sentinels():
    bounds = crb_bounds(fabricated_qfim(np.ones((2, 2)), singular=True))
    assert bounds.var_t1 == math.inf
    assert bounds.var_t2 == math.inf
    assert bounds.cov == math.inf
    assert bounds.total_var == math.inf
    assert isinstance(bounds, BoundsResult)


def test_repetitions_must_be_positive():
    with pytest.raises(ConfigurationError):
        crb_bounds(fabricated_qfim(np.eye(2)), repetitions=0)


def test_singular_flag_is_scale_relative():
    rho = np.eye(2, dtype=complex) / 2.0
    small = np.diag([0.3, -0.3]).astype(complex)
    scaled = 1e4 * small
    rotated = np.array([[0.0, 0.2], [0.2, 0.0]], dtype=complex)
    l_a, l_b = sld_operators(rho, small, rotated)
    assert not qfim(rho, l_a, l_b).singular
    # an exactly repeated direction is singular at any magnitude
    l_c, _ = sld_operators(rho, scaled, rotated)
    degenerate = qfim(rho, l_c, 1e4 * l_c)
    assert degenerate.singular
    assert degenerate.qfim[0, 0] > 1.0


def test_full_pipeline_on_the_mixed_basis_family():
    info, bounds = evaluate_bounds(mixed_basis_family, 0.4, 0.7)
    assert not info.singular
    q = info.qfim
    np.testing.assert_allclose(q, q.T, atol=1e-10)
    assert float(np.min(np.linalg.eigvalsh(q))) > -1e-8
    assert bounds.var_t1 > 0 and bounds.var_t2 > 0
    assert bounds.total_var == pytest.approx(bounds.var_t1 + bounds.var_t2)
    # the bound can only improve with repetitions
    _, many = evaluate_bounds(mixed_basis_family, 0.4, 0.7, repetitions=100)
    assert many.total_var == pytest.approx(bounds.total_var / 100.0, rel=1e-12)


def test_information_matrix_properties_on_library_setups():
    for setup_id in ("mz2b_wc", "swi2"):
        setup = make_setup(setup_id)
        info, bounds = evaluate_bounds(setup, 0.3, 0.7)
        q = info.qfim
        np.testing.assert_allclose(q, q.T, atol=1e-10)
        assert float(np.min(np.linalg.eigvalsh(q))) > -1e-8
        assert not info.singular
        assert math.isfinite(bounds.total_var)
    # post-selected single-qubit probes never resolve both temperatures
    for setup_id in ("mz1b", "mz2b"):
        info, bounds = evaluate_bounds(make_setup(setup_id), 0.3, 0.7)
        assert info.singular
        assert bounds.var_t1 == math.inf


@pytest.mark.parametrize("setup_id", ["mz2b_2q", "swi3"])
def test_evaluate_bounds_validates_the_state_once(setup_id, monkeypatch):
    calls = []
    density_eig = tensor.density_eig

    def counting(rho, *args, **kwargs):
        calls.append(rho)
        return density_eig(rho, *args, **kwargs)

    monkeypatch.setattr(tensor, "density_eig", counting)
    evaluate_bounds(make_setup(setup_id), 0.3, 0.7)
    assert len(calls) == 1


@pytest.mark.parametrize("t1, t2", [(0.3, 0.7),
                                    (np.array([0.2, 0.3, 0.4]), np.array([0.9, 0.5, 0.1]))])
def test_evaluate_bounds_decomposes_each_state_once(t1, t2, monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counting(m, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.shape(m)))
            return _original(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    evaluate_bounds(make_setup("swi2"), t1, t2)
    # swi2 states are 4x4: one eigh of the whole stack, no eigvalsh
    assert calls == [("eigh", np.shape(t1) + (4, 4))]


def test_evaluate_bounds_rejects_a_non_positive_state():
    # Hermitian with unit trace, but one eigenvalue is negative
    bad = np.diag([1.2, -0.2]).astype(complex)
    with pytest.raises(ValidationError, match="negative eigenvalue"):
        evaluate_bounds(lambda t1, t2: bad, 0.3, 0.7)


@pytest.mark.parametrize("state, message", [
    (np.array([[0.5, 0.1], [0.3, 0.5]]), "not Hermitian"),
    (np.diag([0.6, 0.5]), "trace"),
])
def test_evaluate_bounds_rejects_a_non_hermitian_or_off_trace_state(state, message):
    with pytest.raises(ValidationError, match=message):
        evaluate_bounds(lambda t1, t2: state, 0.3, 0.7)


def test_information_is_stable_under_step_refinement():
    results = []
    for step in (1e-3, 5e-4, 2.5e-4):
        info, _ = evaluate_bounds(mixed_basis_family, 0.4, 0.7,
                                  DerivativeConfig(step=step))
        results.append(info.qfim)
    first = np.abs(results[0] - results[1]).max()
    second = np.abs(results[1] - results[2]).max()
    assert second < first / 2.0
