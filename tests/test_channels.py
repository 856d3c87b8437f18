"""Thermalization channels: Gibbs weights, Kraus sets, dilation, Choi form."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duotherm import channels, tensor
from duotherm.channels import KrausChannel, ThermalBathSpec
from duotherm.errors import (ChannelConstructionError, ConfigurationError,
                             DimensionMismatchError, ValidationError)

RNG = np.random.default_rng(20240818)

temps = st.floats(min_value=0.1, max_value=1.0)
etas = st.floats(min_value=0.0, max_value=1.0)


def test_gibbs_infinite_temperature_limit():
    spec = ThermalBathSpec(temperature=1e9)
    np.testing.assert_allclose(channels.gibbs_probabilities(spec), [0.5, 0.5], atol=1e-9)


def test_gibbs_unit_gap_at_unit_temperature():
    spec = ThermalBathSpec(temperature=1.0)
    p = channels.gibbs_probabilities(spec)
    np.testing.assert_allclose(p[0], 1.0 / (1.0 + math.exp(-1.0)), atol=1e-15)


def test_gibbs_three_levels_direct_evaluation():
    spec = ThermalBathSpec(temperature=0.5, energies=(0.0, 1.0, 2.0))
    w = [math.exp(-2.0 * e) for e in (0.0, 1.0, 2.0)]
    expected = np.array(w) / sum(w)
    np.testing.assert_allclose(channels.gibbs_probabilities(spec), expected, atol=1e-15)


def test_gibbs_log2_convention():
    spec = ThermalBathSpec(temperature=0.7, beta_convention="log2")
    p = channels.gibbs_probabilities(spec)
    base = 2.0 ** (1.0 / 0.7)
    np.testing.assert_allclose(p[0], base / (1.0 + base), atol=1e-15)


def test_gibbs_energy_offset_invariance():
    a = ThermalBathSpec(temperature=0.4, energies=(0.0, 1.0))
    b = ThermalBathSpec(temperature=0.4, energies=(5.0, 6.0))
    np.testing.assert_allclose(
        channels.gibbs_probabilities(a), channels.gibbs_probabilities(b), atol=1e-15
    )


def test_bath_spec_validation():
    with pytest.raises(ConfigurationError):
        ThermalBathSpec(temperature=0.0)
    with pytest.raises(ConfigurationError):
        ThermalBathSpec(temperature=1.0, energies=(0.0,))
    with pytest.raises(ConfigurationError):
        ThermalBathSpec(temperature=1.0, eta=1.5)
    with pytest.raises(ConfigurationError):
        ThermalBathSpec(temperature=1.0, beta_convention="base10")


def test_gadc_full_strength_symmetric_forms():
    # eta = 1 at infinite temperature: all four operators are sqrt(1/2) times
    # the elementary matrix units
    spec = ThermalBathSpec(temperature=1e12, eta=1.0)
    ops = channels.gadc_kraus(spec).ops
    s = math.sqrt(0.5)
    np.testing.assert_allclose(ops[0], s * np.diag([1.0, 0.0]), atol=1e-9)
    np.testing.assert_allclose(ops[1], s * np.diag([0.0, 1.0]), atol=1e-9)
    np.testing.assert_allclose(ops[2], s * np.array([[0.0, 1.0], [0.0, 0.0]]), atol=1e-9)
    np.testing.assert_allclose(ops[3], s * np.array([[0.0, 0.0], [1.0, 0.0]]), atol=1e-9)


def test_gadc_zero_strength_is_identity():
    spec = ThermalBathSpec(temperature=0.4, eta=0.0)
    ch = channels.gadc_kraus(spec)
    rho = tensor.random_density_matrix(RNG, 2)
    np.testing.assert_allclose(channels.apply_channel(ch, rho), rho, atol=1e-12)


def test_gadc_full_strength_fixed_point():
    spec = ThermalBathSpec(temperature=0.3, eta=1.0)
    ch = channels.gadc_kraus(spec)
    gibbs = np.diag(channels.gibbs_probabilities(spec))
    for _ in range(5):
        rho = tensor.random_density_matrix(RNG, 2)
        np.testing.assert_allclose(channels.apply_channel(ch, rho), gibbs, atol=1e-12)


def test_gadc_rejects_qutrit_spec():
    with pytest.raises(ConfigurationError):
        channels.gadc_kraus(ThermalBathSpec(temperature=1.0, energies=(0.0, 1.0, 2.0)))


@given(t=temps, eta=etas)
@settings(max_examples=100, deadline=None)
def test_completeness_holds_across_specs(t, eta):
    ch = channels.gadc_kraus(ThermalBathSpec(temperature=t, eta=eta))
    assert ch.completeness_defect() < 1e-10
    qd = channels.qudit_thermal_kraus(
        ThermalBathSpec(temperature=t, energies=(0.0, 1.0, 2.0), eta=eta),
        eta * (np.ones((3, 3)) - np.eye(3)),
    )
    assert qd.completeness_defect() < 1e-10


def test_kraus_channel_rejects_incomplete_sets():
    good = channels.gadc_kraus(ThermalBathSpec(temperature=0.5))
    with pytest.raises(ChannelConstructionError):
        KrausChannel(good.ops * 1.01)


@pytest.mark.parametrize("levels", [2, 4])
def test_stacked_kraus_sets_are_rejected(levels):
    # a channel is one Kraus set; a stack of sets (m, n, d, d) is refused
    energies = tuple(float(x) for x in range(levels))
    build = channels.gadc_kraus if levels == 2 else channels.qudit_thermal_kraus
    ops = np.stack([build(ThermalBathSpec(t, energies, eta=0.6)).ops for t in (0.2, 0.5, 0.9)])
    with pytest.raises(DimensionMismatchError):
        KrausChannel(ops)


def test_qudit_two_level_case_matches_gadc():
    t, eta = 0.6, 0.7
    gamma = np.array([[0.0, eta], [eta, 0.0]])
    qd = channels.qudit_thermal_kraus(ThermalBathSpec(temperature=t), gamma)
    gd = channels.gadc_kraus(ThermalBathSpec(temperature=t, eta=eta))
    for _ in range(5):
        rho = tensor.random_density_matrix(RNG, 2)
        np.testing.assert_allclose(
            channels.apply_channel(qd, rho), channels.apply_channel(gd, rho), atol=1e-12
        )


def test_qudit_full_exchange_maps_to_gibbs():
    spec = ThermalBathSpec(temperature=0.5, energies=(0.0, 1.0, 2.0))
    ch = channels.qudit_thermal_kraus(spec)
    gibbs = np.diag(channels.gibbs_probabilities(spec))
    rho = tensor.random_density_matrix(RNG, 3)
    np.testing.assert_allclose(channels.apply_channel(ch, rho), gibbs, atol=1e-12)


def test_qudit_zero_gamma_against_kraus_sum_oracle():
    spec = ThermalBathSpec(temperature=0.5, energies=(0.0, 1.0, 2.0))
    ch = channels.qudit_thermal_kraus(spec, np.zeros((3, 3)))
    rho = tensor.random_density_matrix(RNG, 3)
    out = channels.apply_channel(ch, rho)
    oracle = np.zeros((3, 3), dtype=complex)
    for k in ch.ops:
        oracle += k @ rho @ k.conj().T
    np.testing.assert_allclose(out, oracle, atol=1e-13)
    # with no exchange each surviving operator is sqrt(p_i) times the
    # identity, so the channel reduces to the identity map
    np.testing.assert_allclose(out, rho, atol=1e-13)


def test_qudit_default_exchange_follows_the_spec_coupling():
    energies = (0.0, 1.0, 2.0)
    excited = np.diag([0.0, 0.0, 1.0]).astype(complex)
    # eta = 0 couples nothing: the excited qutrit comes out unchanged
    idle = channels.qudit_thermal_kraus(ThermalBathSpec(0.4, energies, eta=0.0))
    np.testing.assert_allclose(channels.apply_channel(idle, excited), excited, atol=1e-15)
    spec = ThermalBathSpec(0.4, energies, eta=0.3)
    explicit = channels.qudit_thermal_kraus(spec, 0.3 * (np.ones((3, 3)) - np.eye(3)))
    assert channels.qudit_thermal_kraus(spec).ops.tobytes() == explicit.ops.tobytes()


def test_qudit_gamma_validation():
    spec = ThermalBathSpec(temperature=0.5, energies=(0.0, 1.0, 2.0))
    bad = np.zeros((3, 3))
    bad[0, 1] = 0.5  # asymmetric
    with pytest.raises(ValidationError):
        channels.qudit_thermal_kraus(spec, bad)
    with pytest.raises(ValidationError):
        channels.qudit_thermal_kraus(spec, np.eye(3))
    with pytest.raises(ValidationError):
        channels.qudit_thermal_kraus(spec, 1.5 * (np.ones((3, 3)) - np.eye(3)))


def test_purified_bath_limits():
    hot = channels.purified_bath_state(ThermalBathSpec(temperature=1e9))
    bell = np.zeros(4)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(hot, bell, atol=1e-9)
    cold = channels.purified_bath_state(ThermalBathSpec(temperature=1e-3))
    ground = np.zeros(4)
    ground[0] = 1.0
    np.testing.assert_allclose(cold, ground, atol=1e-6)


def test_purified_bath_marginals_are_gibbs():
    spec = ThermalBathSpec(temperature=1.0)
    v = channels.purified_bath_state(spec)
    rho = np.outer(v, v.conj())
    gibbs = np.diag(channels.gibbs_probabilities(spec))
    for qubit in (0, 1):
        marg = tensor.partial_trace(rho, (2, 2), (qubit,))
        np.testing.assert_allclose(marg, gibbs, atol=1e-12)


def test_dilation_unitary_limits():
    np.testing.assert_allclose(channels.dilation_unitary(0.0), np.eye(4), atol=0)
    u1 = channels.dilation_unitary(1.0)
    np.testing.assert_allclose(u1[1:3, 1:3], [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)
    with pytest.raises(ValidationError):
        channels.dilation_unitary(1.2)


@given(eta=etas)
@settings(max_examples=30, deadline=None)
def test_dilation_unitary_is_unitary(eta):
    u = channels.dilation_unitary(eta)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("eta", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_kraus_route_matches_dilation_route(eta):
    spec = ThermalBathSpec(temperature=0.8, eta=eta)
    ch = channels.gadc_kraus(spec)
    bath = channels.purified_bath_state(spec)
    u = tensor.embed_operator(channels.dilation_unitary(eta), (2, 2, 2), (0, 1))
    for _ in range(20):
        rho = tensor.random_density_matrix(RNG, 2)
        joint = tensor.kron(rho, np.outer(bath, bath.conj()))
        evolved = u @ joint @ u.conj().T
        via_dilation = tensor.partial_trace(evolved, (2, 2, 2), (0,))
        via_kraus = channels.apply_channel(ch, rho)
        np.testing.assert_allclose(via_kraus, via_dilation, atol=1e-10)


def test_apply_channel_identity():
    ident = KrausChannel(np.eye(2, dtype=complex)[None, :, :])
    rho = tensor.random_density_matrix(RNG, 2)
    np.testing.assert_allclose(channels.apply_channel(ident, rho), rho, atol=0)


def test_apply_channel_thermalizes_plus_state():
    spec = ThermalBathSpec(temperature=0.4, eta=1.0)
    plus = np.full((2, 2), 0.5, dtype=complex)
    out = channels.apply_channel(channels.gadc_kraus(spec), plus)
    np.testing.assert_allclose(out, np.diag(channels.gibbs_probabilities(spec)), atol=1e-12)


def test_choi_of_identity_channel():
    ident = KrausChannel(np.eye(2, dtype=complex)[None, :, :])
    j = channels.choi_matrix(ident)
    dket = np.zeros(4, dtype=complex)
    dket[0] = dket[3] = 1.0  # |00> + |11>, input factor first
    np.testing.assert_allclose(j, np.outer(dket, dket.conj()), atol=0)
    np.testing.assert_allclose(np.trace(j), 2.0, atol=0)
    assert np.linalg.matrix_rank(j) == 1


def test_choi_of_full_thermalization():
    spec = ThermalBathSpec(temperature=0.6, eta=1.0)
    j = channels.choi_matrix(channels.gadc_kraus(spec))
    gibbs = np.diag(channels.gibbs_probabilities(spec))
    np.testing.assert_allclose(j, tensor.kron(np.eye(2), gibbs), atol=1e-12)


def test_choi_against_basis_by_basis_oracle():
    spec = ThermalBathSpec(temperature=0.8, eta=0.35)
    ch = channels.gadc_kraus(spec)
    j = channels.choi_matrix(ch)
    oracle = np.zeros((4, 4), dtype=complex)
    for m in range(2):
        for n in range(2):
            e_mn = np.zeros((2, 2), dtype=complex)
            e_mn[m, n] = 1.0
            block = np.einsum("aij,jk,alk->il", ch.ops, e_mn, ch.ops.conj())
            oracle += tensor.kron(np.outer(np.eye(2)[m], np.eye(2)[n]), block)
    np.testing.assert_allclose(j, oracle, atol=1e-13)


@given(t=temps, eta=etas)
@settings(max_examples=40, deadline=None)
def test_choi_is_psd_with_identity_input_marginal(t, eta):
    ch = channels.gadc_kraus(ThermalBathSpec(temperature=t, eta=eta))
    j = channels.choi_matrix(ch)
    vals = np.linalg.eigvalsh((j + j.conj().T) / 2.0)
    assert vals.min() > -1e-10
    np.testing.assert_allclose(
        tensor.partial_trace(j, (2, 2), (0,)), np.eye(2), atol=1e-10
    )


def test_apply_choi_reproduces_apply_channel():
    spec = ThermalBathSpec(temperature=0.9, eta=0.6)
    ch = channels.gadc_kraus(spec)
    j = channels.choi_matrix(ch)
    rho = tensor.random_density_matrix(RNG, 2)
    np.testing.assert_allclose(
        channels.apply_choi(j, rho, 2, 2), channels.apply_channel(ch, rho), atol=1e-12
    )
