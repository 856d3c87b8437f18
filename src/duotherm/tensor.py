"""Dense complex linear algebra over tensor-factored Hilbert spaces.

Composite indices are row-major: in ``kron(a, b)`` the left factor is the
slowest-varying (most significant) index.  Subsystem shapes are plain tuples
of per-factor dimensions whose product must equal the matrix dimension.

Eigendecomposition is delegated to ``numpy.linalg.eigh`` behind the
``herm_eig`` surface and its validating variant ``density_eig``, whose one
decomposition both checks a density matrix and serves the estimation;
everything else is reshape/einsum bookkeeping.  ``dagger``, ``herm_eig``,
``density_eig`` and ``validate_density_matrix`` also take stacks of shape
``(..., d, d)`` and act on every matrix of the stack.  ``sum_by`` adds
arrays by an integer key, which the compilers use to collect terms.
``embed_operator``, ``partial_trace`` and ``partial_transpose`` work on dense
full-space operators; no state builder uses them, they are the references
that the dilation check and the tests compare against.
"""

from __future__ import annotations

import string
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, ValidationError

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
STATE_NORM_TOL = 1e-12

_LETTERS = string.ascii_lowercase + string.ascii_uppercase


def as_complex(m) -> np.ndarray:
    return np.asarray(m, dtype=complex)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.conj(np.swapaxes(np.asarray(m), -1, -2))


def kron(a, b) -> np.ndarray:
    """Kronecker product with the left operand as the slower index."""
    return np.kron(as_complex(a), as_complex(b))


def _check_square_shape(m: np.ndarray, dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise DimensionMismatchError(f"invalid subsystem shape {dims}")
    total = int(np.prod(dims))
    if m.ndim != 2 or m.shape != (total, total):
        raise DimensionMismatchError(
            f"matrix shape {m.shape} does not match subsystem shape {dims} (dim {total})"
        )
    return dims


def partial_trace(m, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every factor not listed in ``keep``.

    ``keep`` may be empty, in which case the 1x1 matrix ``[[trace(m)]]``
    is returned.  Kept factors stay in their original relative order.
    """
    m = as_complex(m)
    dims = _check_square_shape(m, dims)
    n = len(dims)
    keep = tuple(sorted({int(k) for k in keep}))
    if any(k < 0 or k >= n for k in keep):
        raise DimensionMismatchError(f"keep indices {keep} outside factor range 0..{n - 1}")
    row = list(_LETTERS[:n])
    col = list(row)
    out = ""
    for pos, k in enumerate(keep):
        col[k] = _LETTERS[n + pos]
    out = "".join(row[k] for k in keep) + "".join(col[k] for k in keep)
    expr = "".join(row) + "".join(col) + "->" + out
    t = m.reshape(dims + dims)
    kept_dim = int(np.prod([dims[k] for k in keep])) if keep else 1
    return np.einsum(expr, t).reshape(kept_dim, kept_dim)


def partial_transpose(m, dims: Sequence[int], flip: Iterable[int]) -> np.ndarray:
    """Transpose the factors listed in ``flip``; empty flip is the identity."""
    m = as_complex(m)
    dims = _check_square_shape(m, dims)
    n = len(dims)
    flip = sorted({int(f) for f in flip})
    if any(f < 0 or f >= n for f in flip):
        raise DimensionMismatchError(f"flip indices {flip} outside factor range 0..{n - 1}")
    perm = list(range(2 * n))
    for f in flip:
        perm[f], perm[n + f] = perm[n + f], perm[f]
    total = m.shape[0]
    return m.reshape(dims + dims).transpose(perm).reshape(total, total)


def hermiticity_defect(m) -> float:
    m = as_complex(m)
    return float(np.abs(m - m.conj().swapaxes(-1, -2)).max()) if m.size else 0.0


def herm_eig(m, tol: float = HERMITICITY_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix or of each matrix of a stack.

    Returns ``(vals, vecs)`` with eigenvalues ascending and eigenvectors in
    columns, so ``vecs @ diag(vals) @ vecs.conj().T`` reconstructs the input.
    Rejects inputs whose Hermiticity defect (largest over the stack) exceeds
    ``tol``.
    """
    m = as_complex(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    defect = hermiticity_defect(m)
    if defect > tol:
        raise ValidationError(f"matrix is not Hermitian: defect {defect:.3e} > {tol:.1e}")
    vals, vecs = np.linalg.eigh(m)
    return vals, vecs


def embed_operator(op, dims: Sequence[int], targets: Sequence[int]) -> np.ndarray:
    """Expand ``op`` acting on the factors ``targets`` (in that order) to the
    full space described by ``dims``, identity elsewhere."""
    op = as_complex(op)
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    targets = tuple(int(t) for t in targets)
    if len(set(targets)) != len(targets) or any(t < 0 or t >= n for t in targets):
        raise DimensionMismatchError(f"invalid target factors {targets} for {n} factors")
    d_t = int(np.prod([dims[t] for t in targets]))
    if op.shape != (d_t, d_t):
        raise DimensionMismatchError(
            f"operator shape {op.shape} does not match target dimensions (dim {d_t})"
        )
    rest = [i for i in range(n) if i not in targets]
    d_r = int(np.prod([dims[i] for i in rest])) if rest else 1
    big = np.kron(op, np.eye(d_r, dtype=complex))
    order = list(targets) + rest  # current factor order of `big`
    cur = [dims[i] for i in order]
    perm = [order.index(i) for i in range(n)]
    total = int(np.prod(dims))
    t = big.reshape(cur + cur).transpose(perm + [p + n for p in perm])
    return t.reshape(total, total)


def density_eig(
    rho,
    herm_tol: float = HERMITICITY_TOL,
    trace_tol: float = TRACE_TOL,
    eig_floor: float = EIGENVALUE_FLOOR,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a density matrix, or of each state of a stack,
    that also validates it: Hermiticity, unit trace, and the smallest
    eigenvalue of the same decomposition against the floor.

    Returns ``(vals, vecs)`` as ``herm_eig`` does.  A stack is reported by
    its worst Hermiticity defect, its first trace off 1 and its smallest
    eigenvalue.
    """
    rho = as_complex(rho)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValidationError(f"density matrix must be square, got shape {rho.shape}")
    defect = hermiticity_defect(rho)
    if defect > herm_tol:
        raise ValidationError(f"density matrix not Hermitian: defect {defect:.3e}")
    traces = rho.trace(axis1=-2, axis2=-1)
    if np.abs(traces - 1.0).max() > trace_tol:
        traces = traces.reshape(-1)
        first = traces[np.abs(traces - 1.0) > trace_tol][0]
        raise ValidationError(f"density matrix trace {complex(first)!r} is not 1")
    vals, vecs = np.linalg.eigh(rho)
    smallest = float(vals[..., 0].min())
    if smallest < eig_floor:
        raise ValidationError(f"density matrix has negative eigenvalue {smallest:.3e}")
    return vals, vecs


def validate_density_matrix(
    rho,
    herm_tol: float = HERMITICITY_TOL,
    trace_tol: float = TRACE_TOL,
    eig_floor: float = EIGENVALUE_FLOOR,
) -> np.ndarray:
    """The checks of ``density_eig`` on a state or on every state of a stack;
    returns the input array."""
    rho = as_complex(rho)
    density_eig(rho, herm_tol, trace_tol, eig_floor)
    return rho


def sum_by(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """out[k] = the sum of the ``values[i]`` with ``index[i] == k``, in the
    order of i, for k < ``size``; shape (size,) + values.shape[1:]."""
    order = np.argsort(index, kind="stable")
    keys, starts = np.unique(index[order], return_index=True)
    out = np.zeros((size,) + values.shape[1:], dtype=values.dtype)
    out[keys] = np.add.reduceat(values[order], starts, axis=0)
    return out


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank random state from a Ginibre square; test/validation input helper."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ dagger(g)
    return rho / np.trace(rho)
