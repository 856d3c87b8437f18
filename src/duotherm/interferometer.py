"""Mach-Zehnder style probes with a path control qubit.

A probe of one or two qubits travels through a superposition of two arms.
In ``one_bath`` mode both arms couple the probe to the *same* purified bath
register, which carries the temperature of the traversed arm; in
``two_bath`` mode each arm couples the probe to its own bath.  The second
beam splitter is modeled by the relative phase exp(i*phi) on the first arm
followed by either post-selection on the control (+ branch) or joint
estimation on probe plus control.

States are assembled branch-wise: with |v_k> the probe+bath vector of arm k,
the probe/control blocks are Tr_bath |v_k><v_l| dressed with the arm phase.
No full-space operator is formed: each 4x4 coupling acts on the qubit tensor
of an arm vector, and the bath trace contracts the (probe, bath) matrices.
Tensor order is probe qubits, bath qubits, then control (when kept).  The
probe starts in its ground state.

The arm builder takes bath amplitude vectors, and each arm is linear in the
amplitudes of the baths it touches.  ``mz_coefficients`` is the compiler: it
runs the arm builder on unit amplitude vectors at the layout's phase and
coupling strength and returns the temperature-free coefficients of the
output, so that a setup's states are one feature contraction.
``mz_output_state`` builds the state at one temperature pair; it is the
oracle that the compiled states are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channels, tensor
from .channels import ThermalBathSpec
from .errors import ConfigurationError, DarkPortError

BATH_MODES = ("one_bath", "two_bath")
ESTIMATION_TARGETS = ("postselected_plus", "probe_plus_control")

DARK_PORT_TOL = 1e-12


@dataclass(frozen=True)
class MzConfig:
    """Interferometer layout and coupling parameters."""

    bath_mode: str
    probe_qubits: int = 1
    estimation_target: str = "postselected_plus"
    phi: float = math.pi / 2
    eta: float = 1.0
    beta_convention: str = "natural"

    def __post_init__(self):
        if self.bath_mode not in BATH_MODES:
            raise ConfigurationError(f"bath_mode must be one of {BATH_MODES}")
        if self.probe_qubits not in (1, 2):
            raise ConfigurationError("probe_qubits must be 1 or 2")
        if self.estimation_target not in ESTIMATION_TARGETS:
            raise ConfigurationError(f"estimation_target must be one of {ESTIMATION_TARGETS}")
        if self.estimation_target == "probe_plus_control" and self.probe_qubits != 1:
            raise ConfigurationError("probe_plus_control estimation requires probe_qubits=1")
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigurationError(f"eta must lie in [0, 1], got {self.eta!r}")

    @property
    def probe_dim(self) -> int:
        return 2**self.probe_qubits


def _coupling_pairs(cfg: MzConfig) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Probe/bath factor pairs touched by the coupling unitary in each arm."""
    p = cfg.probe_qubits
    if cfg.bath_mode == "one_bath":
        if p == 1:
            arm = [(0, 1)]  # probe with first qubit of the shared bath register
        else:
            arm = [(0, 2), (1, 3)]  # probe qubit k with bath qubit k
        return arm, arm
    if p == 1:
        return [(0, 1)], [(0, 3)]  # first qubit of bath 1, resp. bath 2
    # Two baths, two probe qubits: within each arm, probe qubit 1 couples to
    # the arm's own bath while probe qubit 2 couples to the opposite bath, and
    # probe qubit k always lands on qubit k of its partner bath so the two
    # arms consume disjoint bath qubits.  This crossed assignment is what
    # degenerates the family at t1 = t2 (the diagonal divergence of the
    # bounds) while keeping it regular elsewhere.
    return [(0, 2), (1, 5)], [(0, 4), (1, 3)]


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of the last axes, broadcast over the leading ones."""
    out = a[..., :, None] * b[..., None, :]
    return out.reshape(out.shape[:-2] + (-1,))


def _arm_matrices(cfg: MzConfig, amps1: np.ndarray, amps2: np.ndarray) -> np.ndarray:
    """Probe+bath vectors of the two arms as (probe, bath) matrices V_k, for
    N pairs of bath amplitude vectors (sqrt p0, sqrt p1), shape (N, 2) each:
    shape (N, arm, probe, bath).

    The coupling unitary acts on the qubit-indexed tensor of each arm vector,
    and with the probe factors first Tr_bath |v_k><v_l| = V_k V_l^dag.  Arm k
    is linear in the amplitudes of each bath it touches: in ``one_bath`` mode
    bath k alone, in ``two_bath`` mode both baths.
    """
    theta1 = channels.purification(amps1)
    theta2 = channels.purification(amps2)
    psi0 = np.zeros(cfg.probe_dim, dtype=complex)
    psi0[0] = 1.0
    u_t = channels.dilation_unitary(cfg.eta).T
    if cfg.bath_mode == "one_bath":
        bases = (_kron(psi0, theta1), _kron(psi0, theta2))
        qubits = cfg.probe_qubits + 2
    else:
        base = _kron(_kron(psi0, theta1), theta2)
        bases = (base, base)
        qubits = cfg.probe_qubits + 4
    n = len(amps1)
    arms = []
    for base, pairs in zip(bases, _coupling_pairs(cfg)):
        v = base.reshape((n,) + (2,) * qubits)
        for pair in pairs:
            # Bring the pair's axes last and apply the coupling as one matrix
            # product per point, so each point's arithmetic is the same for
            # any N.
            axes = (1 + pair[0], 1 + pair[1])
            w = np.moveaxis(v, axes, (-2, -1))
            w = (w.reshape(n, -1, 4) @ u_t).reshape(w.shape)
            v = np.moveaxis(w, (-2, -1), axes)
        arms.append(v.reshape(n, cfg.probe_dim, -1))
    return np.stack(arms, axis=1)


def mz_output_state(cfg: MzConfig, t1: float, t2: float) -> np.ndarray:
    """Estimation-ready output state at the bath temperatures (t1, t2), both
    positive.  This builder is the oracle that the compiled setups
    (``mz_coefficients``) are checked against.

    ``postselected_plus``: normalized probe state conditioned on the control
    measuring in (|c1> + |c2>)/sqrt(2) after the arm phase; raises
    ``DarkPortError`` when that outcome's probability is below
    ``DARK_PORT_TOL``.
    ``probe_plus_control``: probe (x) control joint state, control last.
    """
    amps = [np.sqrt(channels.gibbs_probabilities(
        ThermalBathSpec(t, beta_convention=cfg.beta_convention)))[None] for t in (t1, t2)]
    arms = _arm_matrices(cfg, *amps)[0]
    d = cfg.probe_dim
    # blocks[i, k, j, l] = (Tr_bath |v_k><v_l|)[i, j], i.e. probe then control
    blocks = np.einsum("kib,ljb->ikjl", arms, arms.conj())
    phase = np.exp(1j * cfg.phi)
    dress = 0.5 * np.array([[1.0, phase], [np.conj(phase), 1.0]])
    joint = blocks * dress[:, None, :]
    if cfg.estimation_target == "probe_plus_control":
        joint = joint.reshape(2 * d, 2 * d)
        return (joint + tensor.dagger(joint)) / (2.0 * np.trace(joint).real)
    # <+|joint|+> on the control: half the sum of the four control blocks
    plus = 0.5 * joint.sum(axis=(1, 3))
    prob = np.trace(plus).real
    if prob < DARK_PORT_TOL:
        raise DarkPortError(f"post-selected + branch has probability {max(prob, 0.0):.3e}")
    return (plus + tensor.dagger(plus)) / (2.0 * prob)


#: Monomials of one bath's amplitudes u = (sqrt p0, sqrt p1) up to degree two,
#: as exponents of (u0, u1): the per-temperature basis of ``mz_coefficients``.
AMPLITUDE_MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
_MONOMIAL_INDEX = np.zeros((3, 3), dtype=int)
for _index, _exponents in enumerate(AMPLITUDE_MONOMIALS):
    _MONOMIAL_INDEX[_exponents] = _index


def amplitude_monomials(amps: np.ndarray) -> np.ndarray:
    """The ``AMPLITUDE_MONOMIALS`` of amplitude pairs on the last axis."""
    ext = np.concatenate([np.ones_like(amps[..., :1]), amps], axis=-1)
    return ext[..., [0, 1, 2, 1, 1, 2]] * ext[..., [0, 0, 0, 1, 2, 2]]


def _monomial_pairs(exponents) -> tuple[np.ndarray, np.ndarray]:
    """Monomial indices (a, b) of the product of every pair of terms, from
    each term's exponents of u0(t1), u1(t1), u0(t2), u1(t2)."""
    e = np.array(exponents)
    e = e[:, None] + e[None, :]
    return _MONOMIAL_INDEX[e[..., 0], e[..., 1]], _MONOMIAL_INDEX[e[..., 2], e[..., 3]]


#: The monomial pair of every pair of unit terms of ``mz_coefficients``, whose
#: terms are the unit amplitude inputs times the two arms.  In ``one_bath``
#: mode input n is e_n in both baths and arm k touches bath k alone; in
#: ``two_bath`` mode the inputs are e_i (x) e_j and both arms touch both baths.
_TERM_MONOMIALS = {
    "one_bath": _monomial_pairs([(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)]),
    "two_bath": _monomial_pairs([(1, 0, 1, 0), (1, 0, 1, 0), (1, 0, 0, 1), (1, 0, 0, 1),
                                 (0, 1, 1, 0), (0, 1, 1, 0), (0, 1, 0, 1), (0, 1, 0, 1)]),
}


def mz_coefficients(cfg: MzConfig) -> np.ndarray:
    """Temperature-free coefficients M, shape (6, 6, D, D), of the
    unnormalized output R of a layout at its phi and eta:

        R(t1, t2) = sum_ab v_a(t1) v_b(t2) M[a, b],

    with v the ``AMPLITUDE_MONOMIALS`` of each bath's amplitudes.  R is the
    joint state, or its projection on the plus port; normalizing it gives
    ``mz_output_state``.

    The arms are built once, on unit amplitude vectors.  An arm at a
    temperature pair is the sum of these unit arms weighted by amplitude
    monomials, so R sums the bath traces of every pair of unit arms, dressed
    by their control block and weighted by the product of their monomials.
    """
    eye = np.eye(2)
    if cfg.bath_mode == "one_bath":
        unit = _arm_matrices(cfg, eye, eye)
    else:
        unit = _arm_matrices(cfg, eye[[0, 0, 1, 1]], eye[[0, 1, 0, 1]])
    # One term per unit amplitude input and arm, in that order, as rows of
    # (term, probe) against the bath: gram[s, r] = Tr_bath |v_s><v_r|.  The
    # product is at most 32 x 16 x 32, too small to start OpenBLAS threads.
    t, d = 2 * len(unit), unit.shape[2]
    rows = unit.reshape(t * d, -1)
    gram = (rows @ rows.conj().T).reshape(t, d, t, d).transpose(0, 2, 1, 3)
    # the arm phase of the off-diagonal control blocks, and the 1/2 of the
    # balanced control superposition
    phase = np.exp(1j * cfg.phi)
    gram = 0.5 * gram
    gram[0::2, 1::2] *= phase
    gram[1::2, 0::2] *= np.conj(phase)
    if cfg.estimation_target == "postselected_plus":
        # the projection on the plus port halves every block
        r = 0.5 * gram
    else:
        # each block goes to the control block (arm s, arm r)
        r = np.zeros((t, t, d, 2, d, 2), dtype=complex)
        for k, l in ((0, 0), (0, 1), (1, 0), (1, 1)):
            r[k::2, l::2, :, k, :, l] = gram[k::2, l::2]
        r = r.reshape(t, t, 2 * d, 2 * d)
    m = len(AMPLITUDE_MONOMIALS)
    out = np.zeros((m, m) + r.shape[2:], dtype=complex)
    np.add.at(out, _TERM_MONOMIALS[cfg.bath_mode], r)
    return out
