"""Two-parameter quantum estimation: SLDs, QFIM and Cramer-Rao bounds.

A setup is any callable (t1, t2) -> density matrix.  Derivatives are central
finite differences with a temperature-scaled step h = step * max(1, T).
The symmetric logarithmic derivative L solves dRho = (L Rho + Rho L) / 2 and
is assembled in the eigenbasis of Rho as L_ab = 2 dRho_ab / (s_a + s_b)
wherever s_a + s_b exceeds the support cutoff, zero elsewhere (this covers
the support/kernel cross blocks as well).  QFIM entries use the
anticommutator form Q_nm = Re Tr(Rho L_n L_m); the residual |Tr(Rho [L1, L2])|
reports whether both bounds are simultaneously attainable.

Singular information matrices are flagged relative to the scale
max(1, ||Q||_max^2) and yield +inf variance sentinels, never clamped values.
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
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"{name} must be positive")


DEFAULT_DERIVATIVES = DerivativeConfig()


@dataclass(frozen=True, eq=False)
class QfimResult:
    qfim: np.ndarray
    determinant: float
    sld_1: np.ndarray
    sld_2: np.ndarray
    attainability_residual: float
    singular: bool


@dataclass(frozen=True)
class BoundsResult:
    var_t1: float
    var_t2: float
    cov: float
    total_var: float
    repetitions: int


def state_and_derivatives(
    setup: Setup,
    t1: float,
    t2: float,
    cfg: DerivativeConfig = DEFAULT_DERIVATIVES,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """State and its two temperature derivatives at (t1, t2)."""
    h1 = cfg.step * max(1.0, abs(t1))
    h2 = cfg.step * max(1.0, abs(t2))
    rho = tensor.as_complex(setup(t1, t2))
    d1 = (tensor.as_complex(setup(t1 + h1, t2)) - tensor.as_complex(setup(t1 - h1, t2))) / (2.0 * h1)
    d2 = (tensor.as_complex(setup(t1, t2 + h2)) - tensor.as_complex(setup(t1, t2 - h2))) / (2.0 * h2)
    return rho, d1, d2


def sld_operators(
    rho: np.ndarray,
    d_rho_1: np.ndarray,
    d_rho_2: np.ndarray,
    cfg: DerivativeConfig = DEFAULT_DERIVATIVES,
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric logarithmic derivatives for both parameters."""
    vals, vecs = tensor.herm_eig(rho)
    denom = vals[:, None] + vals[None, :]
    mask = denom > cfg.support_tol
    safe = np.where(mask, denom, 1.0)
    out = []
    for d_rho in (d_rho_1, d_rho_2):
        g = vecs.conj().T @ tensor.as_complex(d_rho) @ vecs
        l_eig = np.where(mask, 2.0 * g / safe, 0.0)
        l = vecs @ l_eig @ vecs.conj().T
        out.append((l + l.conj().T) / 2.0)
    return out[0], out[1]


def qfim(
    rho: np.ndarray,
    sld_1: np.ndarray,
    sld_2: np.ndarray,
    cfg: DerivativeConfig = DEFAULT_DERIVATIVES,
) -> QfimResult:
    """Quantum Fisher information matrix from the SLD pair."""
    rho = tensor.as_complex(rho)
    l1 = tensor.as_complex(sld_1)
    l2 = tensor.as_complex(sld_2)
    q11 = float(np.trace(rho @ l1 @ l1).real)
    q22 = float(np.trace(rho @ l2 @ l2).real)
    # real part of Tr(rho L1 L2) is already the symmetrized (anticommutator) form
    q12 = float(np.trace(rho @ l1 @ l2).real)
    residual = float(abs(np.trace(rho @ (l1 @ l2 - l2 @ l1))))
    q = np.array([[q11, q12], [q12, q22]], dtype=float)
    det = float(q11 * q22 - q12 * q12)
    scale = max(1.0, float(np.max(np.abs(q))) ** 2)
    singular = abs(det) < cfg.singular_tol * scale
    return QfimResult(
        qfim=q,
        determinant=det,
        sld_1=l1,
        sld_2=l2,
        attainability_residual=residual,
        singular=singular,
    )


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
    if result.singular:
        inf = math.inf
        return BoundsResult(inf, inf, inf, inf, repetitions)
    q = result.qfim
    n_det = repetitions * result.determinant
    var1 = float(q[1, 1] / n_det)
    var2 = float(q[0, 0] / n_det)
    cov = float(-q[0, 1] / n_det)
    return BoundsResult(var1, var2, cov, var1 + var2, repetitions)


def evaluate_bounds(
    setup: Setup,
    t1: float,
    t2: float,
    cfg: DerivativeConfig = DEFAULT_DERIVATIVES,
    repetitions: int = 1,
) -> tuple[QfimResult, BoundsResult]:
    """Convenience pipeline: derivatives -> SLDs -> QFIM -> bounds.

    The state at (t1, t2) is validated as a density matrix once here; the
    setups themselves do not validate, so the stencil states are unchecked.
    """
    rho, d1, d2 = state_and_derivatives(setup, t1, t2, cfg)
    tensor.validate_density_matrix(rho)
    l1, l2 = sld_operators(rho, d1, d2, cfg)
    info = qfim(rho, l1, l2, cfg)
    return info, crb_bounds(info, repetitions)
