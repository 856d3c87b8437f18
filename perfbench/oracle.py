"""Closed-form oracle for the full-thermalization switch family.

At eta = 1 every ``swi<d>`` setup, and ``mz2b_wc`` (equal to ``swi2``), is
the switch of two fully thermalizing channels on a ground-state target with
the order control in |+>.  On target (x) control its output is

    rho = 1/2 [ g(t1) (x) |0><0| + g(t2) (x) |1><1|
                + p0(t1) p0(t2) |0><0| (x) (|0><1| + |1><0|) ],

with g(t) the Gibbs state of the ladder 0..d-1.  The temperature
derivatives follow from dp_i/dT = p_i (E_i - <E>) / T^2, the symmetric
logarithmic derivatives come from solving (L rho + rho L) / 2 = d rho as a
plain linear system, and Q_jk = Tr(d_j rho L_k).  None of this shares code
or formulas with the package: no finite differences, no eigenbasis SLDs.
"""
from __future__ import annotations

import math

import numpy as np

ORACLE_SETUPS = {"swi2": 2, "swi3": 3, "swi4": 4, "mz2b_wc": 2}

#: Relative tolerance between the program and the oracle.
RTOL = 1e-6


def _gibbs(d: int, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Populations and their temperature derivatives on the ladder 0..d-1."""
    e = np.arange(d, dtype=float)
    w = np.exp(-(e - e[0]) / t)
    p = w / w.sum()
    return p, p * (e - p @ e) / t**2


def _sld(rho: np.ndarray, d_rho: np.ndarray) -> np.ndarray:
    """Solve (L rho + rho L) / 2 = d_rho for L by one dense linear solve."""
    n = rho.shape[0]
    eye = np.eye(n)
    # row-major vec: vec(A X B) = (A (x) B^T) vec(X)
    lyap = 0.5 * (np.kron(eye, rho.T) + np.kron(rho, eye))
    return np.linalg.solve(lyap, d_rho.reshape(-1)).reshape(n, n)


def _qfim(rho: np.ndarray, derivs: list[np.ndarray]) -> np.ndarray:
    slds = [_sld(rho, dr) for dr in derivs]
    k = len(derivs)
    q = np.empty((k, k))
    for a in range(k):
        for b in range(k):
            q[a, b] = float(np.trace(derivs[a] @ slds[b]))
    return (q + q.T) / 2.0


def switch_state(d: int, t1: float, t2: float):
    """The output state on target (x) control and its two derivatives."""
    p1, dp1 = _gibbs(d, t1)
    p2, dp2 = _gibbs(d, t2)
    c0 = np.diag([1.0, 0.0])
    c1 = np.diag([0.0, 1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    g0 = np.zeros((d, d))
    g0[0, 0] = 1.0
    rho = 0.5 * (np.kron(np.diag(p1), c0) + np.kron(np.diag(p2), c1)
                 + p1[0] * p2[0] * np.kron(g0, x))
    d1 = 0.5 * (np.kron(np.diag(dp1), c0) + dp1[0] * p2[0] * np.kron(g0, x))
    d2 = 0.5 * (np.kron(np.diag(dp2), c1) + p1[0] * dp2[0] * np.kron(g0, x))
    return rho, d1, d2


def switch_bounds(setup_id: str, t1: float, t2: float) -> dict[str, float]:
    """Oracle QFIM entries and saturated variances at (t1, t2), eta = 1."""
    rho, d1, d2 = switch_state(ORACLE_SETUPS[setup_id], t1, t2)
    q = _qfim(rho, [d1, d2])
    det = q[0, 0] * q[1, 1] - q[0, 1] ** 2
    var1 = q[1, 1] / det
    var2 = q[0, 0] / det
    return {"q11": q[0, 0], "q22": q[1, 1], "q12": q[0, 1],
            "var_t1": var1, "var_t2": var2, "cov": -q[0, 1] / det,
            "total_var": var1 + var2}


def agrees(program: dict[str, float], oracle: dict[str, float]) -> bool:
    """True when every variance the program reports is finite and within RTOL."""
    for key in ("var_t1", "var_t2", "total_var"):
        got, want = program[key], oracle[key]
        if not math.isfinite(got) or abs(got - want) > RTOL * abs(want):
            return False
    return True


def self_check() -> list[str]:
    """Problems found when the oracle checks itself; empty when it is sound.

    The Lyapunov solve must reproduce the thermal-qubit closed form
    Q = p0 p1 / T^4, and a record perturbed by 10 * RTOL must be rejected.
    """
    problems = []
    for t in (0.1, 0.3, 1.0, 5.0):
        p, dp = _gibbs(2, t)
        got = _qfim(np.diag(p), [np.diag(dp)])[0, 0]
        want = p[0] * p[1] / t**4
        if abs(got - want) > 1e-12 * want:
            problems.append(f"thermal qubit at T={t}: {got!r} != {want!r}")
    reference = switch_bounds("swi3", 0.3, 0.7)
    if not agrees(reference, reference):
        problems.append("oracle record does not agree with itself")
    perturbed = dict(reference, var_t1=reference["var_t1"] * (1 + 10 * RTOL))
    if agrees(perturbed, reference):
        problems.append("negative control: a perturbed record passed the check")
    return problems
