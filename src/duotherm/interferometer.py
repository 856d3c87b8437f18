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

The arm builder takes bath amplitude vectors and the coupling of each
coupling position, and each arm is linear in the amplitudes of the baths it
touches and in each coupling.  ``mz_coefficient_table`` is the compiler: it
runs the arm builder on unit amplitude vectors and on the parts of the
coupling unitary, P + sqrt(1 - eta) A + sqrt(eta) B, and returns the
temperature-free coefficients of the output as a table of terms, each a
monomial in sqrt(1 - eta) and sqrt(eta) times 1, cos(phi) or sin(phi), so
that a setup is compiled at any (phi, eta) by one weighted sum and its
states are one feature contraction.  ``mz_coefficients`` runs the same
builder at one (phi, eta) directly and is the oracle of the table, and
``mz_output_state`` builds the state at one temperature pair, the oracle of
the compiled states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import channels, tensor
from .channels import ThermalBathSpec
from .errors import ConfigurationError, DarkPortError
from .tensor import sum_by

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


def _arm_matrices(cfg: MzConfig, amps1: np.ndarray, amps2: np.ndarray,
                  couplings: np.ndarray) -> np.ndarray:
    """Probe+bath vectors of the two arms as (probe, bath) matrices V_k, for
    N pairs of bath amplitude vectors (sqrt p0, sqrt p1), shape (N, 2) each:
    shape (N, arm, probe, bath).

    The 4x4 ``couplings[i]``, one matrix or one per point (N, 4, 4), acts at
    position i of each arm's coupling pairs, on the qubit-indexed tensor of
    the arm vector, and with the probe factors first
    Tr_bath |v_k><v_l| = V_k V_l^dag.  Arm k is linear in the amplitudes of
    each bath it touches (in ``one_bath`` mode bath k alone, in ``two_bath``
    mode both baths) and in each coupling.
    """
    theta1 = channels.purification(amps1)
    theta2 = channels.purification(amps2)
    psi0 = np.zeros(cfg.probe_dim, dtype=complex)
    psi0[0] = 1.0
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
        for pair, coupling in zip(pairs, couplings):
            # Bring the pair's axes last and apply the coupling as one matrix
            # product per point, so each point's arithmetic is the same for
            # any N.
            axes = (1 + pair[0], 1 + pair[1])
            w = np.moveaxis(v, axes, (-2, -1))
            w = (w.reshape(n, -1, 4) @ coupling.swapaxes(-1, -2)).reshape(w.shape)
            v = np.moveaxis(w, (-2, -1), axes)
        arms.append(v.reshape(n, cfg.probe_dim, -1))
    return np.stack(arms, axis=1)


def _couplings(cfg: MzConfig) -> list[np.ndarray]:
    """The coupling unitary at each of an arm's ``probe_qubits`` positions."""
    return [channels.dilation_unitary(cfg.eta)] * cfg.probe_qubits


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
    arms = _arm_matrices(cfg, *amps, _couplings(cfg))[0]
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


# The monomials as products ext_i ext_j of ext = (1, u0, u1).
_FACTORS = np.array([[0, 1, 2, 1, 1, 2], [0, 0, 0, 1, 2, 2]])


def amplitude_monomials(amps: np.ndarray) -> np.ndarray:
    """The ``AMPLITUDE_MONOMIALS`` of amplitude pairs on the last axis."""
    ext = np.ones(amps.shape[:-1] + (3,))
    ext[..., 1:] = amps
    return ext[..., _FACTORS[0]] * ext[..., _FACTORS[1]]


def _monomial_pairs(exponents) -> np.ndarray:
    """Index a * 6 + b of the monomial pair (a, b) of the product of every
    pair of terms, from each term's exponents of u0(t1), u1(t1), u0(t2),
    u1(t2)."""
    e = np.array(exponents)
    e = e[:, None] + e[None, :]
    return (len(AMPLITUDE_MONOMIALS) * _MONOMIAL_INDEX[e[..., 0], e[..., 1]]
            + _MONOMIAL_INDEX[e[..., 2], e[..., 3]])


#: The flat monomial pair of every pair of unit terms of ``mz_coefficients``, whose
#: terms are the unit amplitude inputs times the two arms.  In ``one_bath``
#: mode input n is e_n in both baths and arm k touches bath k alone; in
#: ``two_bath`` mode the inputs are e_i (x) e_j and both arms touch both baths.
_TERM_MONOMIALS = {
    "one_bath": _monomial_pairs([(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)]),
    "two_bath": _monomial_pairs([(1, 0, 1, 0), (1, 0, 1, 0), (1, 0, 0, 1), (1, 0, 0, 1),
                                 (0, 1, 1, 0), (0, 1, 1, 0), (0, 1, 0, 1), (0, 1, 0, 1)]),
}


def _unit_arms(cfg: MzConfig, couplings: np.ndarray) -> np.ndarray:
    """The arms on unit amplitude vectors, shape (Q, inputs, arm, probe,
    bath), for Q choices of the couplings given as (probe_qubits, Q, 4, 4).
    In ``one_bath`` mode input n is e_n in both baths, in ``two_bath`` mode
    the inputs are e_i (x) e_j."""
    eye = np.eye(2)
    amps = (eye, eye) if cfg.bath_mode == "one_bath" else (eye[[0, 0, 1, 1]], eye[[0, 1, 0, 1]])
    q, n = couplings.shape[1], len(amps[0])
    arms = _arm_matrices(cfg, *(np.tile(a, (q, 1)) for a in amps),
                         np.repeat(couplings, n, axis=1))
    return arms.reshape((q, n) + arms.shape[1:])


def _term_grams(unit: np.ndarray, keys: np.ndarray, size: int) -> np.ndarray:
    """Bath traces Tr_bath |v_s><v_r| / 2 of unit arms (Q, inputs, arm,
    probe, bath), where v_s is term s (input, then arm) of arm choice q and
    v_r term r of choice q', summed over the pairs of choices (q, q') by
    ``keys[q, q']`` < ``size``: shape (size, t, t, d, d).  The 1/2 is that of
    the balanced control superposition.  Each product is at most
    32 x 16 x 32, too small to start OpenBLAS threads."""
    q, t, d = unit.shape[0], 2 * unit.shape[1], unit.shape[3]
    rows = unit.reshape(q, t * d, -1)
    rows_h = rows.conj().swapaxes(-1, -2)
    grams = np.zeros((size, t * d, t * d), dtype=complex)
    for (i, j), key in np.ndenumerate(keys):
        grams[key] += rows[i] @ rows_h[j]
    return 0.5 * grams.reshape(size, t, d, t, d).transpose(0, 1, 3, 2, 4)


def _assemble(cfg: MzConfig, gram: np.ndarray) -> np.ndarray:
    """The coefficients (..., 6, 6, D, D) of ``mz_coefficients`` from the
    phase-dressed bath traces (..., t, t, d, d) of every pair of unit
    terms."""
    lead, t, d = gram.shape[:-4], gram.shape[-4], gram.shape[-1]
    if cfg.estimation_target == "postselected_plus":
        # the projection on the plus port halves every block
        r = 0.5 * gram
    else:
        # each block goes to the control block (arm s, arm r)
        r = np.zeros(lead + (t, t, d, 2, d, 2), dtype=complex)
        for k, l in ((0, 0), (0, 1), (1, 0), (1, 1)):
            r[..., k::2, l::2, :, k, :, l] = gram[..., k::2, l::2, :, :]
        r = r.reshape(lead + (t, t, 2 * d, 2 * d))
    m = len(AMPLITUDE_MONOMIALS)
    out = sum_by(_TERM_MONOMIALS[cfg.bath_mode].reshape(-1),
                 np.moveaxis(r, (-4, -3), (0, 1)).reshape((t * t,) + lead + r.shape[-2:]), m * m)
    return np.moveaxis(out.reshape((m, m) + out.shape[1:]), (0, 1), (-4, -3))


def mz_coefficients(cfg: MzConfig) -> np.ndarray:
    """Temperature-free coefficients M, shape (6, 6, D, D), of the
    unnormalized output R of a layout at its phi and eta:

        R(t1, t2) = sum_ab v_a(t1) v_b(t2) M[a, b],

    with v the ``AMPLITUDE_MONOMIALS`` of each bath's amplitudes.  R is the
    joint state, or its projection on the plus port; normalizing it gives
    ``mz_output_state``.  This direct compile is the oracle of
    ``mz_coefficient_table``.

    The arms are built once, on unit amplitude vectors.  An arm at a
    temperature pair is the sum of these unit arms weighted by amplitude
    monomials, so R sums the bath traces of every pair of unit arms, dressed
    by their control block and weighted by the product of their monomials.
    """
    unit = _unit_arms(cfg, np.array(_couplings(cfg))[:, None])
    gram = _term_grams(unit, np.zeros((1, 1), dtype=int), 1)[0]
    # the arm phase of the off-diagonal control blocks
    phase = np.exp(1j * cfg.phi)
    gram[0::2, 1::2] *= phase
    gram[1::2, 0::2] *= np.conj(phase)
    return _assemble(cfg, gram)


def mz_coefficient_table(cfg: MzConfig) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients of ``mz_coefficients`` as a table of terms of a
    layout, whatever its phi and eta: ``mz_coefficients`` at (phi, eta) is
    sum_j w_j M_j with w_j = sqrt(1 - eta)^a_j sqrt(eta)^b_j trig_j(phi),
    trig 1, cos or sin for c_j = 0, 1, 2.

    Returns the keys (a_j, b_j, c_j), shape (J, 3), and the terms M_j, shape
    (J, 6, 6, D, D).  Every coupling position takes one of the parts P, A, B
    of the coupling unitary, and a pair of arms with part counts (nP, nA, nB)
    and (nP', nA', nB') contributes to a = nA + nA', b = nB + nB'.  With
    phase e = exp(i phi), the same-arm control blocks carry 1, and the
    blocks (0, 1) and (1, 0) carry e and conj(e): the pair sums to cos(phi)
    times their sum plus sin(phi) times i times their difference.
    """
    parts = channels.dilation_parts()
    choices = np.array(list(product(range(3), repeat=cfg.probe_qubits)))
    degrees = (choices[:, :, None] == (1, 2)).sum(axis=1)
    degrees = degrees[:, None] + degrees[None, :]
    monomials, index = np.unique(degrees.reshape(-1, 2), axis=0, return_inverse=True)
    summed = _term_grams(_unit_arms(cfg, parts[choices.T]), index.reshape(degrees.shape[:2]),
                         len(monomials))
    # dress: the same-arm blocks by 1, and with the blocks (0, 1) and (1, 0)
    # of the two arms' terms, cos(phi) by their sum and sin(phi) by i times
    # their difference
    arm = np.arange(summed.shape[1]) % 2
    to_01 = (arm[:, None] < arm[None, :]).astype(complex)
    dress = np.array([arm[:, None] == arm[None, :], to_01 + to_01.T, 1j * (to_01 - to_01.T)])
    keys, dressed = [], []
    for (a, b), gram in zip(monomials.tolist(), summed):
        for trig, mask in enumerate(dress[:, :, :, None, None]):
            term = gram * mask
            if term.any():
                keys.append((a, b, trig))
                dressed.append(term)
    return np.array(keys), _assemble(cfg, np.array(dressed))
