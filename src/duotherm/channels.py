"""Thermalizing channels and their dilations.

A bath is described by a temperature, a ladder of energies and a coupling
strength ``eta``.  Populations follow Gibbs weights p_i ~ exp(-E_i / T) with
the Boltzmann constant set to one; ``beta_convention="log2"`` switches the
weight base to 2 (p_i ~ 2^(-E_i / T)) for the parameterization in which the
two-level ground population is 2^(1/T) / (1 + 2^(1/T)).

The two-level channel is the generalized amplitude damping channel (GADC);
the n-level generalization exchanges population between every level pair
(i, j) with strength gamma_ij.  Both admit a two-qubit purified-bath dilation
built from ``dilation_unitary``.

A spec, its Kraus sets and its purified bath are built for one
temperature.  ``gibbs_populations`` takes an array of temperatures and no
spec; it is how a compiled setup reads its features.  The compilers use the
temperature-free Kraus shapes, which are affine in the coupling amplitudes
sqrt(1 - eta) and sqrt(eta), the parts of the dilation unitary, and
``purification``, which takes a batch of amplitude pairs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import tensor
from .errors import (
    ChannelConstructionError,
    ConfigurationError,
    DimensionMismatchError,
    ValidationError,
)

COMPLETENESS_TOL = 1e-10

BETA_CONVENTIONS = ("natural", "log2")


@dataclass(frozen=True)
class ThermalBathSpec:
    """Bath parameters; energies default to a unit-gap two-level ladder."""

    temperature: float
    energies: tuple[float, ...] = (0.0, 1.0)
    eta: float = 1.0
    beta_convention: str = "natural"

    def __post_init__(self):
        object.__setattr__(self, "energies", tuple(float(e) for e in self.energies))
        if not self.temperature > 0:
            raise ConfigurationError(
                f"temperature must be positive, got {float(self.temperature)!r}")
        if len(self.energies) < 2:
            raise ConfigurationError("at least two energy levels are required")
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigurationError(f"eta must lie in [0, 1], got {self.eta!r}")
        if self.beta_convention not in BETA_CONVENTIONS:
            raise ConfigurationError(
                f"beta_convention must be one of {BETA_CONVENTIONS}, got {self.beta_convention!r}"
            )

    @property
    def levels(self) -> int:
        return len(self.energies)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A CPTP map as a stack of Kraus operators, shape (n_ops, out_dim, in_dim).

    Completeness sum_k K_k^dag K_k = 1 is enforced at construction within
    ``COMPLETENESS_TOL``; violations raise with the largest defect.
    """

    ops: np.ndarray

    def __post_init__(self):
        ops = np.asarray(self.ops, dtype=complex)
        if ops.ndim != 3 or ops.shape[0] < 1:
            raise DimensionMismatchError(
                f"expected one Kraus set of shape (n, out, in), got {ops.shape}"
            )
        object.__setattr__(self, "ops", ops)
        defect = self.completeness_defect()
        if defect > COMPLETENESS_TOL:
            raise ChannelConstructionError(
                f"Kraus completeness violated: |sum K^dag K - 1|_max = {defect:.3e}"
            )

    @property
    def in_dim(self) -> int:
        return self.ops.shape[2]

    @property
    def out_dim(self) -> int:
        return self.ops.shape[1]

    def completeness_defect(self) -> float:
        s = np.einsum("aji,ajk->ik", np.conj(self.ops), self.ops)
        return float(np.max(np.abs(s - np.eye(self.in_dim))))


def gibbs_probabilities(spec: ThermalBathSpec) -> np.ndarray:
    """Normalized thermal populations over the bath's energy ladder."""
    return gibbs_populations(spec.temperature, spec.energies, spec.beta_convention)


def gibbs_populations(temperatures, energies: tuple[float, ...],
                      beta_convention: str) -> np.ndarray:
    """Normalized thermal populations of temperatures of any shape over the
    energy ladder, along a new last axis.  The temperatures are not checked;
    each must be positive."""
    exponent = _scaled_gaps(tuple(energies), beta_convention) / np.asarray(
        temperatures, dtype=float)[..., None]
    w = np.exp(exponent)
    return w / w.sum(axis=-1, keepdims=True)


@functools.cache
def _scaled_gaps(energies: tuple[float, ...], beta_convention: str) -> np.ndarray:
    """-(E - min E) ln(base) of an energy ladder: the Gibbs exponent times T
    (read-only)."""
    energies = np.asarray(energies, dtype=float)
    ln_base = 1.0 if beta_convention == "natural" else math.log(2.0)
    gaps = -(energies - energies.min()) * ln_base
    gaps.flags.writeable = False
    return gaps


def gadc_kraus(spec: ThermalBathSpec) -> KrausChannel:
    """Generalized amplitude damping channel for a two-level bath spec."""
    if spec.levels != 2:
        raise ConfigurationError(
            f"the two-level channel needs exactly 2 energies, got {spec.levels}"
        )
    shapes = gadc_shapes(math.sqrt(1.0 - spec.eta), math.sqrt(spec.eta))
    return KrausChannel(_kraus_operators(gibbs_probabilities(spec), *shapes))


def gadc_shapes(keep: float, swap: float) -> tuple[np.ndarray, np.ndarray]:
    """Temperature-free Kraus shapes of the two-level channel and the level
    whose population scales each (see ``_kraus_operators``), at the coupling
    amplitudes keep = sqrt(1 - eta) and swap = sqrt(eta)."""
    shapes = np.array([
        [[1.0, 0.0], [0.0, keep]],
        [[keep, 0.0], [0.0, 1.0]],
        [[0.0, swap], [0.0, 0.0]],
        [[0.0, 0.0], [swap, 0.0]],
    ])
    return shapes, np.array([0, 1, 0, 1])


def qudit_thermal_kraus(spec: ThermalBathSpec, gamma: np.ndarray | None = None) -> KrausChannel:
    """n-level thermalization with pairwise exchange strengths gamma_ij.

    ``gamma`` must be symmetric with zero diagonal and entries in [0, 1];
    symmetry is what makes the Kraus set complete.  Default is the spec's
    coupling for every pair, ``spec.eta`` off the diagonal.  Operator
    ordering: the n diagonal operators K_i first, then K_ij for i != j in
    row-major (i, j) order.
    """
    n = spec.levels
    if gamma is None:
        gamma = spec.eta * (np.ones((n, n)) - np.eye(n))
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (n, n):
        raise DimensionMismatchError(f"gamma must be {n}x{n}, got {gamma.shape}")
    if np.max(np.abs(np.diag(gamma))) > 0:
        raise ValidationError("gamma must have a zero diagonal")
    asym = float(np.max(np.abs(gamma - gamma.T)))
    if asym > 1e-12:
        raise ValidationError(f"gamma must be symmetric; asymmetry {asym:.3e}")
    if gamma.min() < 0 or gamma.max() > 1:
        raise ValidationError("gamma entries must lie in [0, 1]")
    shapes = exchange_shapes(np.sqrt(1.0 - gamma), np.sqrt(gamma))
    return KrausChannel(_kraus_operators(gibbs_probabilities(spec), *shapes))


def exchange_shapes(keep: np.ndarray, swap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Temperature-free Kraus shapes of the pairwise-exchange channel and the
    level whose population scales each, in that channel's operator order:
    the diagonal K_i, with keep_ji at (j, j), then K_ij = swap_ij |i><j| for
    i != j in row-major order.  The coupling amplitudes of strengths gamma
    (checked by ``qudit_thermal_kraus``) are keep = sqrt(1 - gamma), whose
    diagonal is 1, and swap = sqrt(gamma)."""
    n = keep.shape[0]
    diagonal = np.eye(n) * keep.T[:, None, :]
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    exchange = np.zeros((len(i), n, n))
    exchange[np.arange(len(i)), i, j] = swap[i, j]
    return np.concatenate([diagonal, exchange]), np.concatenate([np.arange(n), i])


def _kraus_operators(populations: np.ndarray, shapes: np.ndarray,
                     level: np.ndarray) -> np.ndarray:
    """Kraus operators sqrt(p_level[a]) * shapes[a] of a thermalizing channel
    at the populations p.  The operators are linear in the amplitudes
    sqrt(p), so a channel's superoperator is linear in p."""
    amplitudes = np.sqrt(populations)[level]
    return (amplitudes[:, None, None] * shapes).astype(complex)


def purified_bath_state(spec: ThermalBathSpec) -> np.ndarray:
    """Two-qubit purification sqrt(p0)|00> + sqrt(p1)|11> of a two-level bath."""
    if spec.levels != 2:
        raise ConfigurationError("purified bath states are defined for two-level baths")
    return purification(np.sqrt(gibbs_probabilities(spec)))


def purification(amplitudes: np.ndarray) -> np.ndarray:
    """The vector a0|00> + a1|11> for amplitude pairs (a0, a1) on the last axis."""
    v = np.zeros(amplitudes.shape[:-1] + (4,), dtype=complex)
    v[..., 0] = amplitudes[..., 0]
    v[..., 3] = amplitudes[..., 1]
    return v


def dilation_unitary(eta: float) -> np.ndarray:
    """Partial-swap style two-qubit unitary realizing the coupling of
    strength ``eta`` between a probe qubit and the first bath qubit:
    P + sqrt(1 - eta) A + sqrt(eta) B with (P, A, B) = ``dilation_parts()``."""
    if not 0.0 <= eta <= 1.0:
        raise ValidationError(f"eta must lie in [0, 1], got {eta!r}")
    weights = (1.0, math.sqrt(1.0 - eta), math.sqrt(eta))
    return np.tensordot(weights, dilation_parts(), 1).astype(complex)


def dilation_parts() -> np.ndarray:
    """The parts (P, A, B), shape (3, 4, 4), of ``dilation_unitary``: P keeps
    |00> and |11>, A keeps |01> and |10>, and B swaps them with a sign."""
    parts = np.zeros((3, 4, 4))
    parts[0, 0, 0] = parts[0, 3, 3] = 1.0
    parts[1, 1, 1] = parts[1, 2, 2] = 1.0
    parts[2, 1, 2] = 1.0
    parts[2, 2, 1] = -1.0
    return parts


def apply_channel(channel: KrausChannel, rho: np.ndarray) -> np.ndarray:
    rho = tensor.as_complex(rho)
    if rho.shape != (channel.in_dim, channel.in_dim):
        raise DimensionMismatchError(
            f"state shape {rho.shape} does not match channel input dim {channel.in_dim}"
        )
    return np.einsum("aij,jk,alk->il", channel.ops, rho, np.conj(channel.ops))


def choi_matrix(channel: KrausChannel) -> np.ndarray:
    """Choi matrix J = sum_{mn} |m><n| (x) E(|m><n|), input factor first."""
    m = channel.ops.shape[0]
    vecs = channel.ops.transpose(0, 2, 1).reshape(m, -1)  # row a is vec of K_a
    return vecs.T @ np.conj(vecs)


def apply_choi(choi: np.ndarray, rho: np.ndarray, in_dim: int, out_dim: int) -> np.ndarray:
    """Action of a channel given as a Choi matrix in the convention above."""
    choi = tensor.as_complex(choi)
    rho = tensor.as_complex(rho)
    if choi.shape != (in_dim * out_dim, in_dim * out_dim):
        raise DimensionMismatchError(
            f"Choi shape {choi.shape} does not match dims {in_dim}x{out_dim}"
        )
    if rho.shape != (in_dim, in_dim):
        raise DimensionMismatchError(f"state shape {rho.shape} does not match in_dim {in_dim}")
    j4 = choi.reshape(in_dim, out_dim, in_dim, out_dim)
    return np.einsum("minj,mn->ij", j4, rho)

