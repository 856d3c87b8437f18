"""Interferometric probe states: branch assembly, postselection, symmetries."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duotherm import channels, tensor
from duotherm.channels import ThermalBathSpec
from duotherm.errors import ConfigurationError, DarkPortError
from duotherm.interferometer import MzConfig, _coupling_pairs, mz_output_state

temps = st.floats(min_value=0.1, max_value=1.0)


def gibbs_diag(t: float) -> np.ndarray:
    return np.diag(channels.gibbs_probabilities(ThermalBathSpec(t))).astype(complex)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        MzConfig(bath_mode="three_bath")
    with pytest.raises(ConfigurationError):
        MzConfig(bath_mode="one_bath", probe_qubits=3)
    with pytest.raises(ConfigurationError):
        MzConfig(bath_mode="one_bath", estimation_target="classical")
    with pytest.raises(ConfigurationError):
        MzConfig(bath_mode="one_bath", probe_qubits=2,
                 estimation_target="probe_plus_control")
    with pytest.raises(ConfigurationError):
        MzConfig(bath_mode="one_bath", eta=-0.1)
    with pytest.raises(ConfigurationError):
        cfg = MzConfig(bath_mode="one_bath")
        mz_output_state(cfg, -0.5, 0.5)


@pytest.mark.parametrize("phi", [0.0, math.pi / 2])
def test_equal_temperature_one_bath_collapses_to_gibbs(phi):
    # both arms see the same register at the same temperature, so the
    # postselected probe is exactly the thermal state
    cfg = MzConfig(bath_mode="one_bath", probe_qubits=1,
                   estimation_target="postselected_plus", phi=phi)
    rho = mz_output_state(cfg, 0.37, 0.37)
    np.testing.assert_allclose(rho, gibbs_diag(0.37), atol=1e-14)


def test_equal_temperature_two_bath_collapses_to_gibbs_at_default_phase():
    cfg = MzConfig(bath_mode="two_bath", probe_qubits=1,
                   estimation_target="postselected_plus", phi=math.pi / 2)
    rho = mz_output_state(cfg, 0.52, 0.52)
    np.testing.assert_allclose(rho, gibbs_diag(0.52), atol=1e-14)


def test_dark_minus_port_for_identical_arms():
    # phi = 0, equal temperatures, one bath: the arms are indistinguishable,
    # so the plus port carries the whole thermal state and the minus port is
    # fully dark.  A phase of pi on the first arm swaps the two ports, so
    # the plus port is then dark.
    cfg = MzConfig(bath_mode="one_bath", probe_qubits=1,
                   estimation_target="probe_plus_control", phi=0.0)
    joint = mz_output_state(cfg, 0.4, 0.4).reshape(2, 2, 2, 2)
    plus = 0.5 * joint.sum(axis=(1, 3))
    minus = 0.5 * (joint[:, 0, :, 0] + joint[:, 1, :, 1] - joint[:, 0, :, 1] - joint[:, 1, :, 0])
    assert abs(np.trace(plus) - 1.0) < 1e-12
    assert abs(np.trace(minus)) < 1e-12
    np.testing.assert_allclose(plus, gibbs_diag(0.4), atol=1e-12)
    dark = MzConfig(bath_mode="one_bath", probe_qubits=1,
                    estimation_target="postselected_plus", phi=math.pi)
    with pytest.raises(DarkPortError, match="post-selected"):
        mz_output_state(dark, 0.4, 0.4)


def _oracle_two_bath_single_qubit(phi: float, t1: float, t2: float):
    """Brute-force construction of the joint probe+control state.

    Independent of the library plumbing: builds the 5-qubit arm vectors with
    plain numpy kron calls, applies the coupling by reshaping to explicit
    tensor indices, and traces the four bath qubits with einsum.
    """
    def purified(t):
        p = 1.0 / (1.0 + math.exp(-1.0 / t))
        v = np.zeros(4, dtype=complex)
        v[0], v[3] = math.sqrt(p), math.sqrt(1.0 - p)
        return v

    psi = np.array([1.0, 0.0], dtype=complex)
    base = np.kron(np.kron(psi, purified(t1)), purified(t2))  # (P, b1a, b1b, b2a, b2b)
    u = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, -1, 0, 0], [0, 0, 0, 1]],
                 dtype=complex)  # full-strength coupling
    t = base.reshape(2, 2, 2, 2, 2)
    # arm 1: couple probe (axis 0) with the first qubit of bath 1 (axis 1)
    v1 = np.einsum("abij,ijcde->abcde", u.reshape(2, 2, 2, 2), t).reshape(-1)
    # arm 2: couple probe (axis 0) with the first qubit of bath 2 (axis 3)
    t_perm = np.moveaxis(t, 3, 1)  # bring bath-2 qubit next to the probe
    v2 = np.einsum("abij,ijcde->abcde", u.reshape(2, 2, 2, 2), t_perm)
    v2 = np.moveaxis(v2, 1, 3).reshape(-1)
    # joint pure state with the control, phase on arm 1
    big = (np.exp(1j * phi) * np.kron(v1, [1.0, 0.0])
           + np.kron(v2, [0.0, 1.0])) / math.sqrt(2.0)
    rho6 = np.outer(big, big.conj()).reshape((2,) * 12)
    reduced = np.einsum("aBCDEfgBCDEh->afgh", rho6).reshape(4, 4)
    return (reduced + reduced.conj().T) / 2.0


def test_two_bath_with_control_matches_full_tensor_oracle():
    phi, t1, t2 = math.pi / 2, 0.5, 1.0
    cfg = MzConfig(bath_mode="two_bath", probe_qubits=1,
                   estimation_target="probe_plus_control", phi=phi)
    rho = mz_output_state(cfg, t1, t2)
    oracle = _oracle_two_bath_single_qubit(phi, t1, t2)
    np.testing.assert_allclose(rho, oracle, atol=1e-12)


LAYOUTS = [
    ("one_bath", 1, "postselected_plus"),
    ("one_bath", 1, "probe_plus_control"),
    ("one_bath", 2, "postselected_plus"),
    ("two_bath", 1, "postselected_plus"),
    ("two_bath", 1, "probe_plus_control"),
    ("two_bath", 2, "postselected_plus"),
]


def _dense_reference(cfg: MzConfig, t1: float, t2: float) -> np.ndarray:
    """The output state built with full-space operators: every coupling as a
    dense unitary on the whole arm space, every bath trace taken of a dense
    outer product."""
    thetas = [channels.purified_bath_state(
        ThermalBathSpec(t, eta=cfg.eta, beta_convention=cfg.beta_convention)) for t in (t1, t2)]
    psi0 = np.eye(cfg.probe_dim)[0]
    if cfg.bath_mode == "one_bath":
        bases = [tensor.kron(psi0, thetas[0]), tensor.kron(psi0, thetas[1])]
    else:
        bases = [tensor.kron(tensor.kron(psi0, thetas[0]), thetas[1])] * 2
    dims = (2,) * (bases[0].size.bit_length() - 1)
    u = channels.dilation_unitary(cfg.eta)
    arms = []
    for v, pairs in zip(bases, _coupling_pairs(cfg)):
        for pair in pairs:
            v = tensor.embed_operator(u, dims, pair) @ v
        arms.append(v)
    keep = range(cfg.probe_qubits)
    b = [[tensor.partial_trace(np.outer(vk, vl.conj()), dims, keep) for vl in arms]
         for vk in arms]
    d = cfg.probe_dim
    phase = np.exp(1j * cfg.phi)
    joint = np.zeros((d, 2, d, 2), dtype=complex)
    joint[:, 0, :, 0] = 0.5 * b[0][0]
    joint[:, 1, :, 1] = 0.5 * b[1][1]
    joint[:, 0, :, 1] = 0.5 * phase * b[0][1]
    joint[:, 1, :, 0] = 0.5 * np.conj(phase) * b[1][0]
    if cfg.estimation_target == "probe_plus_control":
        return joint.reshape(2 * d, 2 * d)
    plus = 0.5 * joint.sum(axis=(1, 3))  # <+|joint|+> on the control
    return plus / np.trace(plus).real


@pytest.mark.parametrize("bath_mode,qubits,target", LAYOUTS)
def test_contraction_matches_the_dense_operator_reference(bath_mode, qubits, target):
    rng = np.random.default_rng([20240819, LAYOUTS.index((bath_mode, qubits, target))])
    for _ in range(10):
        t1s, t2s = rng.uniform(0.05, 2.0, size=(2, 4))
        # stay 0.1 clear of the dark port at phi = pi, where normalizing the
        # vanishing plus branch amplifies rounding in either construction
        phi = float(rng.uniform(-math.pi + 0.1, math.pi - 0.1))
        eta = float(rng.uniform(0.0, 1.0))
        cfg = MzConfig(bath_mode=bath_mode, probe_qubits=qubits,
                       estimation_target=target, phi=phi, eta=eta)
        for t1, t2 in zip(t1s, t2s):
            np.testing.assert_allclose(mz_output_state(cfg, t1, t2),
                                       _dense_reference(cfg, t1, t2), rtol=0, atol=1e-13)


def test_postselect_uncorrelated_plus_control():
    # with two baths at eta = 0 both arms carry the same probe+bath vector,
    # so the control stays in a pure product with the probe: the joint state
    # is |0><0| (x) |+><+| at phi = 0, and the plus port returns the probe's
    # ground state
    ground = np.diag([1.0, 0.0])
    joint = mz_output_state(MzConfig(bath_mode="two_bath", estimation_target="probe_plus_control",
                                     phi=0.0, eta=0.0), 0.3, 0.8)
    np.testing.assert_allclose(joint, tensor.kron(ground, np.full((2, 2), 0.5)), atol=1e-15)
    plus = mz_output_state(MzConfig(bath_mode="two_bath", phi=0.0, eta=0.0), 0.3, 0.8)
    np.testing.assert_allclose(plus, ground, atol=1e-15)


def test_postselected_plus_equals_four_term_expansion():
    # rho_+ built from the joint state equals the explicit expansion
    # (b11 + b22 + e^{i phi} b12 + h.c.) / (2 p_+) in terms of the
    # bath-traced branch blocks
    phi, t1, t2 = math.pi / 3, 0.35, 0.7
    cfg_joint = MzConfig(bath_mode="two_bath", probe_qubits=1,
                         estimation_target="probe_plus_control", phi=phi)
    joint = mz_output_state(cfg_joint, t1, t2)
    jt = joint.reshape(2, 2, 2, 2)
    b11 = 2.0 * jt[:, 0, :, 0]
    b22 = 2.0 * jt[:, 1, :, 1]
    b12_phased = 2.0 * jt[:, 0, :, 1]  # already carries e^{i phi}
    numerator = 0.25 * (b11 + b22 + b12_phased + b12_phased.conj().T)
    prob = float(np.trace(numerator).real)
    expansion = numerator / prob
    cfg_ps = MzConfig(bath_mode="two_bath", probe_qubits=1,
                      estimation_target="postselected_plus", phi=phi)
    rho_plus = mz_output_state(cfg_ps, t1, t2)
    np.testing.assert_allclose(rho_plus, expansion, atol=1e-12)
    assert 0.0 < prob <= 1.0


@given(a=temps, b=temps)
@settings(max_examples=20, deadline=None)
def test_two_bath_two_qubit_state_is_temperature_symmetric(a, b):
    cfg = MzConfig(bath_mode="two_bath", probe_qubits=2,
                   estimation_target="postselected_plus", phi=math.pi / 2)
    np.testing.assert_allclose(
        mz_output_state(cfg, a, b), mz_output_state(cfg, b, a), atol=1e-13
    )


@given(a=temps, b=temps)
@settings(max_examples=20, deadline=None)
def test_one_bath_two_qubit_swap_is_a_transpose(a, b):
    cfg = MzConfig(bath_mode="one_bath", probe_qubits=2,
                   estimation_target="postselected_plus", phi=math.pi / 2)
    np.testing.assert_allclose(
        mz_output_state(cfg, b, a), mz_output_state(cfg, a, b).T, atol=1e-13
    )


def test_with_control_phase_enters_only_through_the_control_frame():
    # the joint states at two phases differ by a diagonal unitary on the
    # control factor, which is why their estimation variances coincide
    t1, t2 = 0.4, 0.6
    for mode in ("one_bath", "two_bath"):
        ra = mz_output_state(
            MzConfig(bath_mode=mode, probe_qubits=1,
                     estimation_target="probe_plus_control", phi=0.9), t1, t2)
        rb = mz_output_state(
            MzConfig(bath_mode=mode, probe_qubits=1,
                     estimation_target="probe_plus_control", phi=1.7), t1, t2)
        d = tensor.kron(np.eye(2), np.diag([1.0, np.exp(1j * (0.9 - 1.7))]))
        np.testing.assert_allclose(rb, d @ ra @ d.conj().T, atol=1e-13)


@pytest.mark.parametrize("bath_mode,qubits,target", LAYOUTS)
def test_outputs_are_valid_density_matrices(bath_mode, qubits, target):
    grid = np.linspace(0.1, 1.0, 3)
    for phi in (0.0, math.pi / 4, math.pi / 2, math.pi):
        cfg = MzConfig(bath_mode=bath_mode, probe_qubits=qubits,
                       estimation_target=target, phi=phi)
        for t1 in grid:
            for t2 in grid:
                try:
                    rho = mz_output_state(cfg, float(t1), float(t2))
                except DarkPortError:
                    # identical arms with a pi phase cancel exactly in the
                    # plus branch; only that corner may go dark
                    assert bath_mode == "one_bath"
                    assert phi == math.pi and t1 == t2
                    continue
                tensor.validate_density_matrix(rho)
