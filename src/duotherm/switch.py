"""Quantum switch: two channels applied in a coherently controlled order.

Kraus route: with channel A Kraus set {F_i} and channel B Kraus set {K_j},
the controlled-order map is built from

    H_ij = F_i K_j (x) |0><0|_C  +  K_j F_i (x) |1><1|_C,

so control |0> realizes B then A (A outermost) and control |1> the reverse.
Output factor order is target (x) control.

Process route: the same map as a rank-one process matrix W = |w><w| over the
factors (P1, P2, A1I, A1O, A2I, A2O, F1, F2), where P1/F1 are the control
past/future (dimension 2) and P2/F2 the target past/future.  Slot 1 is the
channel applied *first* along the control-|0> branch; plugging Choi matrices
(J_first, J_second) into ``compose_process`` therefore reproduces the Kraus
route for (J_first, J_second) = (choi(B), choi(A)).  For a rank-one process
the contraction Tr_A[W^{T_A} (J1 (x) J2 (x) 1_PF)] reduces to
M J1(x)J2 M^dag with M the |w> vector reshaped to (P F) x A, which is what
``compose_process`` evaluates; the full W is never materialized.

Compiled route: every thermal Kraus operator is sqrt(p_i) times a fixed
shape, so the thermal switch's output is bilinear in the populations
p(t1) (x) p(t2).  ``switch_coefficients`` builds the d unit-population
channels at one coupling and combines their superoperators into the
temperature-free coefficient tensor, from which a setup's states are one
feature contraction.  The shapes are affine in the coupling amplitudes
sqrt(1 - eta) and sqrt(eta), and the output is linear in each of the four
operator sets it multiplies, so ``switch_coefficient_table``, the compiler,
runs the same map on the parts of the shapes and returns the tensor as a
table of monomials in the two amplitudes, of degree at most 4; the direct
``switch_coefficients`` is its oracle.  ``switch_output_state`` builds the
state at one temperature pair through the Kraus route; it is the oracle that
the compiled states are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import channels, tensor
from .channels import KrausChannel, ThermalBathSpec
from .errors import ConfigurationError, DimensionMismatchError
from .tensor import sum_by

PROCESS_LABELS = ("P1", "P2", "A1I", "A1O", "A2I", "A2O", "F1", "F2")


def _plus_state() -> tuple[complex, ...]:
    s = 1.0 / math.sqrt(2.0)
    return (complex(s), complex(s))


@dataclass(frozen=True)
class SwitchConfig:
    """Two channels of equal dimension plus the order-control preparation."""

    channel_a: KrausChannel
    channel_b: KrausChannel
    control_state: tuple[complex, ...] = field(default_factory=_plus_state)

    def __post_init__(self):
        a, b = self.channel_a, self.channel_b
        if a.in_dim != a.out_dim or b.in_dim != b.out_dim:
            raise ConfigurationError("switch channels must preserve dimension")
        if a.in_dim != b.in_dim:
            raise DimensionMismatchError(
                f"channel dimensions differ: {a.in_dim} vs {b.in_dim}"
            )
        c = np.asarray(self.control_state, dtype=complex)
        if c.shape != (2,):
            raise ConfigurationError("control_state must be a qubit amplitude pair")
        norm = float(np.linalg.norm(c))
        if abs(norm - 1.0) > tensor.STATE_NORM_TOL:
            raise ConfigurationError(
                f"control_state must be normalized, got norm {norm!r}"
            )

    @property
    def target_dim(self) -> int:
        return self.channel_a.in_dim

    def control_vector(self) -> np.ndarray:
        return np.asarray(self.control_state, dtype=complex)


@dataclass(frozen=True, eq=False)
class ProcessMatrix:
    """Rank-one process matrix stored as its defining vector.

    ``matrix`` materializes |w><w|; avoid it for target dimension 4, where
    the dense form has dimension 16384.
    """

    vector: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...] = PROCESS_LABELS

    @property
    def matrix(self) -> np.ndarray:
        v = self.vector.reshape(-1)
        return np.outer(v, v.conj())


def switch_kraus_output(cfg: SwitchConfig, rho_in: np.ndarray) -> np.ndarray:
    """Apply the controlled-order map to rho_in (x) |control><control|."""
    d = cfg.target_dim
    rho_in = tensor.as_complex(rho_in)
    if rho_in.shape != (d, d):
        raise DimensionMismatchError(f"input shape {rho_in.shape} does not match dim {d}")
    f, f_b = cfg.channel_a.ops, cfg.channel_b.ops
    out = _controlled_order(f, f, _superoperator(f, f), _superoperator(f_b, f_b), rho_in,
                            cfg.control_vector())
    return (out + tensor.dagger(out)) / 2.0


def _superoperator(ops: np.ndarray, conj_ops: np.ndarray) -> np.ndarray:
    """S[(i, j), (k, l)] = sum_a K_a[i, k] conj(L_a[j, l]) of operator sets
    K = ``ops`` and L = ``conj_ops``, shape (..., n, d, d); for a Kraus set
    K = L the map sends the row-major vec(X) to S vec(X)."""
    d = ops.shape[-1]
    s = (ops[..., :, :, None, :, None] * conj_ops.conj()[..., :, None, :, None, :]).sum(axis=-5)
    return s.reshape(s.shape[:-4] + (d * d, d * d))


def _controlled_order(f: np.ndarray, g: np.ndarray, s_a: np.ndarray, s_b: np.ndarray,
                      rho_in: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Output of the controlled-order map before Hermitization, with channel
    A given by its operator set f, shape (..., n, d, d), and superoperator
    s_a, and channel B by its superoperator s_b.

    The output is linear in each channel's superoperator and in the outer
    products of f with g, which stands for f where it enters conjugated, so
    the sets need not be complete channels: on the unit population channels
    it gives the switch's coefficient tensor, and on the parts of their
    shapes its table.
    """
    d = rho_in.shape[0]
    batch = np.broadcast_shapes(s_a.shape[:-2], s_b.shape[:-2])
    vec = rho_in.reshape(d * d, 1)
    # Summed over the aligned pairs H_ij, the diagonal blocks are the two
    # sequential compositions, s11 = A(B(rho_in)) and s22 = B(A(rho_in)),
    # and the coherence block is s12 = sum_i F_i B(rho_in G_i^dag).
    s11 = (s_a @ (s_b @ vec)).reshape(batch + (d, d))
    s22 = (s_b @ (s_a @ vec)).reshape(batch + (d, d))
    x = (rho_in @ tensor.dagger(g)).reshape(g.shape[:-2] + (d * d,))
    b_x = x @ np.swapaxes(s_b, -1, -2)
    b_x = b_x.reshape(b_x.shape[:-2] + (-1, d))
    s12 = np.swapaxes(f, -3, -2).reshape(f.shape[:-3] + (d, -1)) @ b_x
    rho_c = np.outer(c, c.conj())
    blocks = np.empty(batch + (2, 2, d, d), dtype=complex)
    blocks[..., 0, 0, :, :] = rho_c[0, 0] * s11
    blocks[..., 1, 1, :, :] = rho_c[1, 1] * s22
    blocks[..., 0, 1, :, :] = rho_c[0, 1] * s12
    blocks[..., 1, 0, :, :] = rho_c[1, 0] * tensor.dagger(s12)
    return np.einsum("...uvil->...iulv", blocks).reshape(batch + (2 * d, 2 * d))


def switch_process_matrix(target_dim: int) -> ProcessMatrix:
    """Process vector |w> of the two-slot switch for the given target dimension."""
    if target_dim < 2:
        raise ConfigurationError(f"target_dim must be at least 2, got {target_dim}")
    d = target_dim
    dims = (2, d, d, d, d, d, 2, d)
    w = np.zeros(dims, dtype=complex)
    for a, b, c in product(range(d), repeat=3):
        # control |0>: target wired P2 -> A1I, A1O -> A2I, A2O -> F2
        w[0, a, a, b, b, c, 0, c] = 1.0
        # control |1>: target wired P2 -> A2I, A2O -> A1I, A1O -> F2
        w[1, a, b, c, a, b, 1, c] = 1.0
    return ProcessMatrix(vector=w, dims=dims)


def compose_process(process: ProcessMatrix, chois) -> np.ndarray:
    """Contract a rank-one process with the slot channels' Choi matrices.

    Returns the Choi matrix of the induced map from P = P1 (x) P2 to
    F = F1 (x) F2 (input factor first, same convention as ``choi_matrix``).
    """
    chois = [tensor.as_complex(j) for j in chois]
    if len(chois) != 2:
        raise ConfigurationError("expected exactly two slot Choi matrices")
    dims = process.dims
    d_slot1 = dims[2] * dims[3]
    d_slot2 = dims[4] * dims[5]
    if chois[0].shape != (d_slot1, d_slot1) or chois[1].shape != (d_slot2, d_slot2):
        raise DimensionMismatchError(
            f"slot Choi shapes {[j.shape for j in chois]} do not match process dims {dims}"
        )
    w = process.vector.reshape(dims)
    # reorder to (P1, P2, F1, F2, A1I, A1O, A2I, A2O) and flatten to (PF) x A
    w_mat = np.transpose(w, (0, 1, 6, 7, 2, 3, 4, 5)).reshape(
        dims[0] * dims[1] * dims[6] * dims[7], d_slot1 * d_slot2
    )
    j_slots = np.kron(chois[0], chois[1])
    return w_mat @ j_slots @ w_mat.conj().T


def switch_channel_choi(cfg: SwitchConfig) -> np.ndarray:
    """Choi matrix of the full switch map on (control, target) via the
    process-matrix route; P/F composite order is (control, target)."""
    proc = switch_process_matrix(cfg.target_dim)
    j_first = channels.choi_matrix(cfg.channel_b)  # applied first on control |0>
    j_second = channels.choi_matrix(cfg.channel_a)
    return compose_process(proc, [j_first, j_second])


def switch_process_output(cfg: SwitchConfig, rho_in: np.ndarray) -> np.ndarray:
    """Same map as ``switch_kraus_output`` evaluated through the process
    matrix; used for cross-route validation."""
    d = cfg.target_dim
    c = cfg.control_vector()
    rho_p = tensor.kron(np.outer(c, c.conj()), tensor.as_complex(rho_in))
    j_b = switch_channel_choi(cfg)
    out_cf = channels.apply_choi(j_b, rho_p, 2 * d, 2 * d)
    # reorder (control, target) -> (target, control)
    out = out_cf.reshape(2, d, 2, d).transpose(1, 0, 3, 2).reshape(2 * d, 2 * d)
    return (out + out.conj().T) / 2.0


def thermal_switch_config(target_dim: int, t1: float, t2: float, eta: float = 1.0,
                          beta_convention: str = "natural") -> SwitchConfig:
    """Switch over two thermalizing channels at temperatures (t1, t2) on the
    linear ladder 0, 1, ..., target_dim - 1, with the control in |+>.

    Channel A (outermost for control |0>) carries t1.  Dimension 2 uses the
    GADC; higher dimensions use the pairwise-exchange channel with uniform
    strength eta (default full thermalization).
    """
    energies = tuple(range(target_dim))
    build = channels.gadc_kraus if target_dim == 2 else channels.qudit_thermal_kraus
    return SwitchConfig(build(ThermalBathSpec(t1, energies, eta, beta_convention)),
                        build(ThermalBathSpec(t2, energies, eta, beta_convention)))


def switch_output_state(target_dim: int, t1: float, t2: float, eta: float = 1.0,
                        beta_convention: str = "natural") -> np.ndarray:
    """Switch output of ``thermal_switch_config`` on the ground-state target,
    a (2d, 2d) state on target (x) control: the oracle of the compiled
    switch setups."""
    rho_in = np.zeros((target_dim, target_dim), dtype=complex)
    rho_in[0, 0] = 1.0
    return switch_kraus_output(thermal_switch_config(target_dim, t1, t2, eta, beta_convention),
                               rho_in)


def _unit_shapes(target_dim: int, keep: float, swap: float) -> np.ndarray:
    """Kraus shapes of the d unit-population channels of the thermal switch
    at the coupling amplitudes keep = sqrt(1 - eta) and swap = sqrt(eta),
    shape (d, n, d, d): channel i holds the n operators that level i
    scales."""
    if target_dim == 2:
        shapes, level = channels.gadc_shapes(keep, swap)
    else:
        off = np.ones((target_dim, target_dim)) - np.eye(target_dim)
        shapes, level = channels.exchange_shapes(np.eye(target_dim) + keep * off, swap * off)
    # every level scales the same number of operators
    return shapes[np.argsort(level, kind="stable")].reshape(target_dim, -1, target_dim,
                                                            target_dim).astype(complex)


def _switch_map(f: np.ndarray, g: np.ndarray, f_b: np.ndarray, g_b: np.ndarray) -> np.ndarray:
    """The controlled-order map on the ground-state target with the control
    in |+>, multilinear in the operator sets: f and g of slot A, f_b and g_b
    of slot B, each g standing for its f where that enters conjugated."""
    d = f.shape[-1]
    ground = np.zeros((d, d), dtype=complex)
    ground[0, 0] = 1.0
    return _controlled_order(f, g, _superoperator(f, g), _superoperator(f_b, g_b), ground,
                             np.asarray(_plus_state(), dtype=complex))


def switch_coefficients(target_dim: int, eta: float = 1.0) -> np.ndarray:
    """Temperature-free coefficient tensor M, shape (d, d, 2d, 2d), of the
    thermal switch: ``switch_output_state`` at (t1, t2) is
    sum_ij p_i(t1) p_j(t2) M[i, j], with p the Gibbs populations.  This
    direct compile is the oracle of ``switch_coefficient_table``.

    Every Kraus operator is sqrt(p_i) times a fixed shape, so each channel's
    superoperator is sum_i p_i S_i over the d unit-population channels (the
    operators of level i alone).  The unit channels are built once, and
    M[i, j] is the map with unit channel i in slot A and j in slot B.
    """
    unit = _unit_shapes(target_dim, math.sqrt(1.0 - eta), math.sqrt(eta))
    return _switch_map(unit[:, None], unit[:, None], unit[None, :], unit[None, :])


def switch_coefficient_table(target_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The tensor of ``switch_coefficients`` as a table of terms, whatever
    the coupling: ``switch_coefficients`` at eta is sum_j w_j M_j with
    w_j = sqrt(1 - eta)^a_j sqrt(eta)^b_j.

    Returns the keys (a_j, b_j, 0), shape (J, 3), in the layout of
    ``interferometer.mz_coefficient_table``, and the terms M_j, shape
    (J, d, d, 2d, 2d).  The unit shapes are P + keep A + swap B; each of the
    four operator sets of the map takes one of the parts, and a choice with
    part counts (nP, nA, nB) contributes to a = nA, b = nB.
    """
    base = _unit_shapes(target_dim, 0.0, 0.0)
    parts = np.array([base, _unit_shapes(target_dim, 1.0, 0.0) - base,
                      _unit_shapes(target_dim, 0.0, 1.0) - base])
    # The map multiplies f_i with g_i and f_b,i with g_b,i, so only pairs
    # of parts with a common nonzero operator i contribute.
    present = (parts != 0).any(axis=(-2, -1))
    pairs = np.array([(x, y) for x in range(3) for y in range(3)
                      if (present[x] & present[y]).any()])
    f, g = parts[pairs[:, 0]], parts[pairs[:, 1]]
    # axes: the pair of slot A, the pair of slot B, the levels of A and of B
    terms = _switch_map(f[:, None, :, None], g[:, None, :, None],
                        f[None, :, None, :], g[None, :, None, :])
    degrees = (pairs[:, :, None] == (1, 2)).sum(axis=1)
    degrees = degrees[:, None] + degrees[None, :]
    monomials, index = np.unique(degrees.reshape(-1, 2), axis=0, return_inverse=True)
    table = sum_by(index.reshape(-1), terms.reshape((-1,) + terms.shape[2:]), len(monomials))
    keys = np.concatenate([monomials, np.zeros((len(monomials), 1), dtype=int)], axis=1)
    return keys, table
