"""Coherently controlled channel order: Kraus route, process route, wiring."""
from dataclasses import replace

import numpy as np
import pytest

from duotherm import channels, tensor
from duotherm.channels import KrausChannel, ThermalBathSpec, apply_channel
from duotherm.errors import ConfigurationError, DimensionMismatchError
from duotherm.switch import (
    SwitchConfig,
    compose_process,
    switch_channel_choi,
    switch_kraus_output,
    switch_output_state,
    switch_process_matrix,
    switch_process_output,
    thermal_switch_config,
)

RNG = np.random.default_rng(20240821)


def identity_channel(dim: int) -> KrausChannel:
    return KrausChannel(ops=np.eye(dim, dtype=complex)[None, :, :])


def random_kraus_channel(rng, dim: int, n_ops: int) -> KrausChannel:
    """Random CPTP map from the top block of a Haar-distributed isometry."""
    g = rng.normal(size=(n_ops * dim, dim)) + 1j * rng.normal(size=(n_ops * dim, dim))
    isometry, _ = np.linalg.qr(g)
    return KrausChannel(ops=isometry.reshape(n_ops, dim, dim))


def random_unitary(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def gibbs_diag(t: float, dim: int = 2) -> np.ndarray:
    energies = tuple(float(x) for x in range(dim))
    return np.diag(channels.gibbs_probabilities(ThermalBathSpec(t, energies))).astype(complex)


def test_config_validation():
    iso = np.zeros((1, 3, 2), dtype=complex)
    iso[0, 0, 0] = iso[0, 1, 1] = 1.0
    rectangular = KrausChannel(ops=iso)
    with pytest.raises(ConfigurationError):
        SwitchConfig(channel_a=rectangular, channel_b=rectangular)
    with pytest.raises(DimensionMismatchError):
        SwitchConfig(channel_a=identity_channel(2), channel_b=identity_channel(3))
    with pytest.raises(ConfigurationError):
        SwitchConfig(channel_a=identity_channel(2), channel_b=identity_channel(2),
                     control_state=(1.0, 0.0, 0.0))
    with pytest.raises(ConfigurationError):
        SwitchConfig(channel_a=identity_channel(2), channel_b=identity_channel(2),
                     control_state=(1.0, 1.0))
    with pytest.raises(ConfigurationError):
        switch_process_matrix(1)
    cfg = thermal_switch_config(2, 0.5, 0.5)
    with pytest.raises(DimensionMismatchError):
        switch_kraus_output(cfg, np.eye(3) / 3.0)


def test_definite_orders_from_basis_control_states():
    t1, t2 = 0.3, 0.8
    rho = tensor.random_density_matrix(RNG, 2)
    cfg0 = replace(thermal_switch_config(2, t1, t2), control_state=(1.0, 0.0))
    cfg1 = replace(thermal_switch_config(2, t1, t2), control_state=(0.0, 1.0))
    out0 = switch_kraus_output(cfg0, rho)
    out1 = switch_kraus_output(cfg1, rho)
    # control |0>: channel at t2 first, then the channel at t1 outermost
    seq0 = apply_channel(cfg0.channel_a, apply_channel(cfg0.channel_b, rho))
    seq1 = apply_channel(cfg1.channel_b, apply_channel(cfg1.channel_a, rho))
    np.testing.assert_allclose(out0, tensor.kron(seq0, np.diag([1.0, 0.0])), atol=1e-12)
    np.testing.assert_allclose(out1, tensor.kron(seq1, np.diag([0.0, 1.0])), atol=1e-12)
    # full-strength thermalization makes the last channel's temperature win
    np.testing.assert_allclose(seq0, gibbs_diag(t1), atol=1e-12)
    np.testing.assert_allclose(seq1, gibbs_diag(t2), atol=1e-12)


def test_identity_channels_leave_input_and_control_untouched():
    rho = tensor.random_density_matrix(RNG, 3)
    cfg = SwitchConfig(channel_a=identity_channel(3), channel_b=identity_channel(3))
    out = switch_kraus_output(cfg, rho)
    plus = np.full((2, 2), 0.5, dtype=complex)
    np.testing.assert_allclose(out, tensor.kron(rho, plus), atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_process_vector_norm_counts_the_wirings(dim):
    proc = switch_process_matrix(dim)
    assert proc.dims == (2, dim, dim, dim, dim, dim, 2, dim)
    norm_sq = float(np.vdot(proc.vector, proc.vector).real)
    assert norm_sq == pytest.approx(2 * dim**3, abs=0.0)


def test_process_matrix_is_rank_one_psd():
    proc = switch_process_matrix(2)
    w = proc.matrix
    assert w.shape == (256, 256)
    np.testing.assert_allclose(w, w.conj().T, atol=0.0)
    vals = np.linalg.eigvalsh(w)
    assert vals[-1] == pytest.approx(16.0, abs=1e-10)
    assert np.all(np.abs(vals[:-1]) < 1e-10)


def test_identity_slots_compose_to_the_identity_choi():
    dim = 2
    proc = switch_process_matrix(dim)
    j_id = channels.choi_matrix(identity_channel(dim))
    composed = compose_process(proc, [j_id, j_id])
    oracle = channels.choi_matrix(identity_channel(2 * dim))
    np.testing.assert_allclose(composed, oracle, atol=1e-12)


def test_compose_process_matches_dense_contraction():
    # literal contraction Tr_A[W^{T_A} (1_P (x) J1 (x) J2 (x) 1_F)] against
    # the reshaped short-cut used by compose_process
    dim = 2
    proc = switch_process_matrix(dim)
    j1 = channels.choi_matrix(random_kraus_channel(RNG, dim, 2))
    j2 = channels.choi_matrix(random_kraus_channel(RNG, dim, 3))
    dims = proc.dims
    w_dense = tensor.partial_transpose(proc.matrix, dims, (2, 3, 4, 5))
    slotted = tensor.kron(tensor.kron(np.eye(4), np.kron(j1, j2)), np.eye(4))
    dense = tensor.partial_trace(w_dense @ slotted, dims, keep=(0, 1, 6, 7))
    np.testing.assert_allclose(compose_process(proc, [j1, j2]), dense, atol=1e-10)


@pytest.mark.parametrize("dim", [2, 3])
def test_kraus_and_process_routes_agree(dim):
    for k in range(25):
        rng = np.random.default_rng([20240821, dim, k])
        t1 = float(rng.uniform(0.1, 1.0))
        t2 = float(rng.uniform(0.1, 1.0))
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c = c / np.linalg.norm(c)
        cfg = replace(thermal_switch_config(dim, t1, t2), control_state=tuple(c))
        rho = tensor.random_density_matrix(rng, dim)
        np.testing.assert_allclose(
            switch_kraus_output(cfg, rho),
            switch_process_output(cfg, rho),
            atol=1e-10,
        )


def test_output_depends_only_on_the_channels_not_their_kraus_form():
    spec = ThermalBathSpec(0.45, eta=0.7)
    base = channels.gadc_kraus(spec)
    mix = random_unitary(RNG, base.ops.shape[0])
    remixed = KrausChannel(ops=np.einsum("ab,bij->aij", mix, base.ops))
    other = channels.gadc_kraus(ThermalBathSpec(0.9, eta=0.7))
    rho = tensor.random_density_matrix(RNG, 2)
    out_base = switch_kraus_output(SwitchConfig(base, other), rho)
    out_remix = switch_kraus_output(SwitchConfig(remixed, other), rho)
    np.testing.assert_allclose(out_base, out_remix, atol=1e-10)


@pytest.mark.parametrize("dim", [2, 3])
def test_switch_choi_is_a_valid_channel(dim):
    cfg = thermal_switch_config(dim, 0.35, 0.75)
    choi = switch_channel_choi(cfg)
    d_total = 2 * dim
    assert choi.shape == (d_total**2, d_total**2)
    np.testing.assert_allclose(choi, choi.conj().T, atol=1e-12)
    assert float(np.min(np.linalg.eigvalsh(choi))) > -1e-10
    marginal = tensor.partial_trace(choi, (d_total, d_total), keep=(0,))
    np.testing.assert_allclose(marginal, np.eye(d_total), atol=1e-10)


def test_swapping_the_channels_flips_the_control():
    # with the control in |+>, exchanging the two channels is the same map
    # conjugated by X on the control factor
    rho = tensor.random_density_matrix(RNG, 2)
    cfg_ab = thermal_switch_config(2, 0.3, 0.9)
    cfg_ba = thermal_switch_config(2, 0.9, 0.3)
    flip = tensor.kron(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
    out_ab = switch_kraus_output(cfg_ab, rho)
    out_ba = switch_kraus_output(cfg_ba, rho)
    np.testing.assert_allclose(out_ba, flip @ out_ab @ flip, atol=1e-12)


def test_traced_control_averages_the_two_orders():
    dim = 3
    cfg = thermal_switch_config(dim, 0.25, 0.65, eta=0.8)
    rho = tensor.random_density_matrix(RNG, dim)
    out = switch_kraus_output(cfg, rho)
    marginal = tensor.partial_trace(out, (dim, 2), keep=(0,))
    ab = apply_channel(cfg.channel_a, apply_channel(cfg.channel_b, rho))
    ba = apply_channel(cfg.channel_b, apply_channel(cfg.channel_a, rho))
    np.testing.assert_allclose(marginal, (ab + ba) / 2.0, atol=1e-12)


def test_kraus_route_matches_elementwise_loop_oracle():
    dim = 3
    cfg = thermal_switch_config(dim, 0.4, 0.7, eta=0.6)
    rho = tensor.random_density_matrix(RNG, dim)
    c = cfg.control_vector()
    joint_in = tensor.kron(rho, np.outer(c, c.conj()))
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    oracle = np.zeros((2 * dim, 2 * dim), dtype=complex)
    for f_i in cfg.channel_a.ops:
        for k_j in cfg.channel_b.ops:
            h = tensor.kron(f_i @ k_j, p0) + tensor.kron(k_j @ f_i, p1)
            oracle += h @ joint_in @ h.conj().T
    np.testing.assert_allclose(switch_kraus_output(cfg, rho), oracle, atol=1e-12)


def test_thermal_output_state_marginals():
    t1, t2 = 0.3, 0.8
    out = switch_output_state(2, t1, t2)
    target = tensor.partial_trace(out, (2, 2), keep=(0,))
    # each control branch fully thermalizes at its final temperature
    np.testing.assert_allclose(
        target, (gibbs_diag(t1) + gibbs_diag(t2)) / 2.0, atol=1e-12
    )
    control = tensor.partial_trace(out, (2, 2), keep=(1,))
    np.testing.assert_allclose(np.diag(control), [0.5, 0.5], atol=1e-12)
    assert abs(control[0, 1]) > 1e-3  # interference survives tracing the target


def test_output_state_coherence_vanishes_only_with_the_control():
    # dephasing the control kills the cross blocks but keeps the marginal
    out_plus = switch_output_state(2, 0.3, 0.8)
    blocks = out_plus.reshape(2, 2, 2, 2)
    assert np.abs(blocks[:, 0, :, 1]).max() > 1e-3
    dephased = out_plus.copy().reshape(2, 2, 2, 2)
    dephased[:, 0, :, 1] = 0.0
    dephased[:, 1, :, 0] = 0.0
    np.testing.assert_allclose(
        tensor.partial_trace(dephased.reshape(4, 4), (2, 2), keep=(0,)),
        tensor.partial_trace(out_plus, (2, 2), keep=(0,)),
        atol=1e-14,
    )
