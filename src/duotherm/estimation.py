"""Two-parameter quantum estimation: SLDs, QFIM and Cramer-Rao bounds.

A setup is a stacked builder, an object whose ``states(t1s, t2s)`` maps N
temperature pairs to N density matrices, shape (N, d, d), in one call; any
plain callable (t1, t2) -> density matrix is also accepted, and its states
are stacked one by one.  The pipeline works on stacks: ``evaluate_bounds``
takes one temperature pair or equal-shape arrays of N pairs, and a single
pair is the N = 1 case.

Derivatives are central finite differences with a temperature-scaled step
h = step * max(1, T); the states at the N points and at their four stencil
neighbours come from one build of 5N states, point by point, which for the
registered setups is one feature contraction of their compiled coefficient
tensor.  Every temperature must be finite and lie more than one step from
zero, t - h > 0; the check runs before the build and names the temperature
as given.  The two derivatives of a state stay stacked, (..., 2, d, d),
through the SLDs and the QFIM.

Each state at a point is decomposed once, Rho = V diag(s) V^H, and that one
Hermitian eigendecomposition also validates it (Hermiticity, unit trace,
eigenvalue floor; ``tensor.density_eig``).  The symmetric logarithmic
derivative L solves dRho = (L Rho + Rho L) / 2; in the eigenbasis it is
L_ij = 2 g_ij / (s_i + s_j) with g = V^H dRho V wherever s_i + s_j exceeds
the support cutoff, zero elsewhere (this covers the support/kernel cross
blocks as well) (Liu, Yuan, Lu & Wang, J. Phys. A 53, 023001 (2020)).  The
pipeline never rotates L back: QFIM entries use the anticommutator form
Q_nm = Re Tr(Rho {L_n, L_m}) / 2, traced in the eigenbasis, and the residual
|Tr(Rho [L1, L2])| reports whether both bounds are simultaneously
attainable.  ``sld_operators`` gives L in the original basis, and
``qfim_eigensum`` is an independent oracle of the QFIM.

Singular information matrices are flagged relative to the scale
max(1, ||Q||_max^2) and yield +inf variance sentinels, never clamped values.
The results of a single point hold Python scalars, those of a stack hold
arrays with the stack's shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor
from .errors import ConfigurationError

Setup = Callable[[float, float], np.ndarray]


@dataclass(frozen=True)
class DerivativeConfig:
    step: float = 1e-5
    support_tol: float = 1e-10
    singular_tol: float = 1e-10

    def __post_init__(self):
        for name in ("step", "support_tol", "singular_tol"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ConfigurationError(f"{name} must be positive and finite, got {value!r}")


DEFAULT_DERIVATIVES = DerivativeConfig()

# Temperature offsets, in steps, of the five states per point: the point,
# then t1 + h1, t2 + h2, t1 - h1 and t2 - h2.
_STENCIL = np.array([[0.0, 1.0, 0.0, -1.0, 0.0], [0.0, 0.0, 1.0, 0.0, -1.0]])[:, None, :]

# Flat QFIM entries of the bound numerators Q22, Q11 and -Q12, with their signs.
_CRB_ENTRIES = np.array([3, 0, 1])
_CRB_SIGNS = np.array([1.0, 1.0, -1.0])


@dataclass(frozen=True, eq=False)
class QfimResult:
    qfim: np.ndarray
    determinant: float | np.ndarray
    attainability_residual: float | np.ndarray
    singular: bool | np.ndarray


@dataclass(frozen=True)
class BoundsResult:
    var_t1: float | np.ndarray
    var_t2: float | np.ndarray
    cov: float | np.ndarray
    total_var: float | np.ndarray
    repetitions: int


def _stacked_builder(setup) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The setup's ``states`` builder, or a plain callable stacked point by point."""
    states = getattr(setup, "states", None)
    if states is not None:
        return states
    return lambda t1s, t2s: np.stack(
        [tensor.as_complex(setup(a, b)) for a, b in zip(t1s.tolist(), t2s.tolist())]
    )


def _scalars(*values):
    """Python scalars in place of 0-d arrays, so that the results of a single
    point print and serialize like plain numbers."""
    return tuple(v.item() if v.ndim == 0 else v for v in values)


def _stencil(setup: Setup, t1, t2, cfg: DerivativeConfig):
    """The states and their two derivatives stacked, with the shape of the
    temperature arrays followed by (d, d) and (2, d, d); see
    ``state_and_derivatives``."""
    t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
    if t1.shape != t2.shape:
        t1, t2 = np.broadcast_arrays(t1, t2)
    shape = t1.shape
    t = np.array([t1, t2]).reshape(2, -1)
    if not np.isfinite(t).all():
        raise ConfigurationError(
            f"temperature must be finite, got {float(t[~np.isfinite(t)][0])!r}")
    h = cfg.step * np.maximum(1.0, t)
    if not (t - h > 0).all():
        bad = float(t[~(t - h > 0)][0])
        if not bad > 0:
            raise ConfigurationError(f"temperature must be positive, got {bad!r}")
        raise ConfigurationError(
            f"temperature {bad!r} is within one derivative step of zero: the central "
            f"difference with step {cfg.step!r} needs t - step * max(1, t) > 0")
    grid = (t[:, :, None] + h[:, :, None] * _STENCIL).reshape(2, -1)
    states = tensor.as_complex(_stacked_builder(setup)(grid[0], grid[1]))
    states = states.reshape((-1, 5) + states.shape[-2:])
    d_rho = states[:, 1:3] - states[:, 3:5]
    d_rho /= (2.0 * h.T)[:, :, None, None]
    rho = states[:, 0].reshape(shape + d_rho.shape[-2:])
    return rho, d_rho.reshape(shape + d_rho.shape[1:])


def state_and_derivatives(
    setup: Setup,
    t1,
    t2,
    cfg: DerivativeConfig = DEFAULT_DERIVATIVES,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """State and its two temperature derivatives at (t1, t2).

    ``t1`` and ``t2`` are temperatures or equal-shape arrays of N of them;
    each result has their shape followed by (d, d).  The N states and their
    4N stencil neighbours come from one stacked build, point by point.

    Every temperature must be finite and lie more than one step from zero:
    t - h > 0 with h = step * max(1, t).  The checks run before the build and
    name the temperature as given.
    """
    rho, d_rho = _stencil(setup, t1, t2, cfg)
    return rho, d_rho[..., 0, :, :], d_rho[..., 1, :, :]


def _eigenbasis_slds(vals: np.ndarray, vecs: np.ndarray, d_rho: np.ndarray,
                     cfg: DerivativeConfig) -> np.ndarray:
    """Both SLDs in the eigenbasis of Rho = V diag(s) V^H, stacked as
    (..., 2, d, d) like the derivatives ``d_rho``: with g = V^H dRho V,
    L_ij = 2 g_ij / (s_i + s_j) where s_i + s_j exceeds the support cutoff,
    zero elsewhere, and L is made exactly Hermitian."""
    lead, d = vals.shape[:-1], vals.shape[-1]
    # g = (dRho V)^H V for Hermitian dRho, with both parameters' blocks
    # stacked in the rows of one product per point.
    w = (d_rho.reshape(lead + (2 * d, d)) @ vecs).reshape(lead + (2, d, d))
    w = w.conj().swapaxes(-1, -2)
    g = (w.reshape(lead + (2 * d, d)) @ vecs).reshape(lead + (2, d, d))
    denom = vals[..., :, None] + vals[..., None, :]
    inverse = np.divide(1.0, denom, out=np.zeros(denom.shape), where=denom > cfg.support_tol)
    return (g + g.conj().swapaxes(-1, -2)) * inverse[..., None, :, :]


def sld_operators(
    rho: np.ndarray,
    d_rho_1: np.ndarray,
    d_rho_2: np.ndarray,
    cfg: DerivativeConfig = DEFAULT_DERIVATIVES,
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric logarithmic derivatives for both parameters in the basis of
    Rho, for one state or a stack of shape (..., d, d): the eigenbasis SLDs
    of the estimation pipeline, rotated back."""
    vals, vecs = tensor.herm_eig(rho)
    d_rho = np.stack([tensor.as_complex(d_rho_1), tensor.as_complex(d_rho_2)], axis=-3)
    slds = _eigenbasis_slds(vals, vecs, d_rho, cfg)
    vecs = vecs[..., None, :, :]
    slds = vecs @ slds @ tensor.dagger(vecs)
    return slds[..., 0, :, :], slds[..., 1, :, :]


def _information(rho_slds: np.ndarray, slds: np.ndarray, cfg: DerivativeConfig) -> QfimResult:
    """The QFIM of the SLD pairs ``slds`` (..., 2, d, d) and their products
    ``rho_slds`` with Rho, both in a basis shared with Rho."""
    # t[a, b] = Tr(rho L_a L_b): Q is the anticommutator form
    # Re(t + t^T) / 2, and t[0, 1] - t[1, 0] = Tr(rho [L1, L2]).  Summing
    # both orders keeps Q12 the same, bit for bit, when the roles of the two
    # parameters are exchanged.
    t = np.einsum("...aij,...bji->...ab", rho_slds, slds)
    q = t.real
    q = (q + q.swapaxes(-1, -2)) / 2.0
    q12 = q[..., 0, 1]
    det = q[..., 0, 0] * q[..., 1, 1] - q12 * q12
    residual = np.abs(t[..., 0, 1] - t[..., 1, 0])
    scale = np.maximum(1.0, np.abs(q.reshape(q.shape[:-2] + (4,))).max(axis=-1) ** 2)
    singular = np.abs(det) < cfg.singular_tol * scale
    det, residual, singular = _scalars(det, residual, singular)
    return QfimResult(qfim=q, determinant=det, attainability_residual=residual,
                      singular=singular)


def qfim(
    rho: np.ndarray,
    sld_1: np.ndarray,
    sld_2: np.ndarray,
    cfg: DerivativeConfig = DEFAULT_DERIVATIVES,
) -> QfimResult:
    """Quantum Fisher information matrix from the SLD pair, for one state or
    a stack of shape (..., d, d), in any basis shared by Rho and the SLDs.

    In the eigenbasis of Rho, ``rho`` may be given as its eigenvalues s,
    shape (..., d), for Rho = diag(s); the pipeline does so, and the traces
    are then the sums Q_ab = sum_ij 2 Re(g_a,ij g_b,ji) / (s_i + s_j) over
    the support, with g_a = V^H d_a Rho V.
    """
    slds = np.stack([tensor.as_complex(sld_1), tensor.as_complex(sld_2)], axis=-3)
    if np.ndim(rho) == slds.ndim - 2:
        rho_slds = np.asarray(rho)[..., None, :, None] * slds
    else:
        rho_slds = tensor.as_complex(rho)[..., None, :, :] @ slds
    return _information(rho_slds, slds, cfg)


def qfim_eigensum(
    rho: np.ndarray,
    d_rho_1: np.ndarray,
    d_rho_2: np.ndarray,
    cfg: DerivativeConfig = DEFAULT_DERIVATIVES,
) -> np.ndarray:
    """QFIM via the explicit eigen-decomposition sum.

    Cross-check route, not the production path: expresses Q through eigenvalue
    derivatives, eigenvector derivatives, and the mixing correction, with the
    eigenpair derivatives obtained from first-order perturbation theory in the
    parallel-transport gauge.  Entries with both eigenvalues outside the
    support cutoff are skipped, matching the SLD support rule.
    """
    rho = tensor.as_complex(rho)
    vals, vecs = tensor.herm_eig(rho)
    n = vals.size
    gs = [vecs.conj().T @ tensor.as_complex(d) @ vecs for d in (d_rho_1, d_rho_2)]
    # dvals[k][i] = <i|d_k rho|i>; dvecs[k][:, i] = sum_{j != i} |j><j|d_k rho|i>/(vals_i - vals_j)
    dvals = [np.real(np.diag(g)) for g in gs]
    dvecs = []
    gap = vals[None, :] - vals[:, None]  # gap[j, i] = vals_i - vals_j
    safe_gap = np.where(np.abs(gap) > cfg.support_tol, gap, np.inf)
    for g in gs:
        coeff = g / safe_gap
        np.fill_diagonal(coeff, 0.0)
        dvecs.append(vecs @ coeff)
    on_support = vals > cfg.support_tol
    q = np.zeros((2, 2))
    for a in range(2):
        for b in range(2):
            total = 0.0
            for i in np.nonzero(on_support)[0]:
                total += dvals[a][i] * dvals[b][i] / vals[i]
                total += 4.0 * vals[i] * np.real(np.vdot(dvecs[a][:, i], dvecs[b][:, i]))
            for i in range(n):
                for j in range(n):
                    if vals[i] + vals[j] <= cfg.support_tol:
                        continue
                    weight = 8.0 * vals[i] * vals[j] / (vals[i] + vals[j])
                    total -= weight * np.real(
                        np.vdot(dvecs[a][:, i], vecs[:, j]) * np.vdot(vecs[:, j], dvecs[b][:, i])
                    )
            q[a, b] = total
    return (q + q.T) / 2.0


def crb_bounds(result: QfimResult, repetitions: int = 1) -> BoundsResult:
    """Saturated multi-parameter Cramer-Rao variances from the QFIM.

    Var(T1) = Q22 / (N det Q), Var(T2) = Q11 / (N det Q),
    Cov = -Q12 / (N det Q); a singular QFIM yields +inf sentinels.
    """
    if repetitions < 1:
        raise ConfigurationError(f"repetitions must be >= 1, got {repetitions}")
    q, singular = result.qfim, np.asarray(result.singular)
    n_det = repetitions * np.where(singular, 1.0, result.determinant)
    # (Q22, Q11, -Q12) / (N det Q), and +inf where Q is singular
    out = q.reshape(q.shape[:-2] + (4,))[..., _CRB_ENTRIES] * _CRB_SIGNS / n_det[..., None]
    out[singular] = math.inf
    var1, var2, cov = out[..., 0], out[..., 1], out[..., 2]
    return BoundsResult(*_scalars(var1, var2, cov, var1 + var2), repetitions)


def evaluate_bounds(
    setup: Setup,
    t1,
    t2,
    cfg: DerivativeConfig = DEFAULT_DERIVATIVES,
    repetitions: int = 1,
) -> tuple[QfimResult, BoundsResult]:
    """Pipeline derivatives -> SLDs -> QFIM -> bounds at one temperature pair,
    or at equal-shape arrays of N pairs with one stacked state build, one
    eigendecomposition and one QFIM evaluation for the whole stack.

    Every temperature must be finite and lie more than one derivative step
    from zero (see ``state_and_derivatives``).  The eigendecomposition of the
    states at the points themselves validates them as density matrices; the
    setups do not validate, so the stencil states are unchecked.  The SLDs
    and the QFIM stay in the eigenbasis.
    """
    rho, d_rho = _stencil(setup, t1, t2, cfg)
    vals, vecs = tensor.density_eig(rho)
    slds = _eigenbasis_slds(vals, vecs, d_rho, cfg)
    info = _information(vals[..., None, :, None] * slds, slds, cfg)
    return info, crb_bounds(info, repetitions)
