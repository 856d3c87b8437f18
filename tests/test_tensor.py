"""Dense linear-algebra kernel: Kronecker products, partial trace/transpose,
Hermitian eigendecomposition."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duotherm import tensor
from duotherm.errors import DimensionMismatchError, ValidationError

RNG = np.random.default_rng(20240817)


def random_matrix(dim: int) -> np.ndarray:
    return RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim))


def test_kron_identity_case():
    np.testing.assert_array_equal(tensor.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_mixed_product_rule():
    a, c = random_matrix(2), random_matrix(2)
    b, d = random_matrix(3), random_matrix(3)
    lhs = tensor.kron(a, b) @ tensor.kron(c, d)
    rhs = tensor.kron(a @ c, b @ d)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_kron_basis_bookkeeping():
    # |0><0| (x) |1><1| puts its single 1 at row 1, col 1 of the 4x4 result
    p0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    p1 = np.array([[0.0, 0.0], [0.0, 1.0]])
    out = tensor.kron(p0, p1)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    np.testing.assert_array_equal(out, expected)


def test_kron_associativity_and_trace_multiplicativity():
    a, b, c = random_matrix(2), random_matrix(3), random_matrix(2)
    left = tensor.kron(tensor.kron(a, b), c)
    right = tensor.kron(a, tensor.kron(b, c))
    np.testing.assert_allclose(left, right, atol=1e-12)
    np.testing.assert_allclose(
        np.trace(tensor.kron(a, b)), np.trace(a) * np.trace(b), atol=1e-12
    )


def test_partial_trace_product_state():
    rho_a = tensor.random_density_matrix(RNG, 3)
    rho_b = tensor.random_density_matrix(RNG, 2)
    out = tensor.partial_trace(tensor.kron(rho_a, rho_b), (3, 2), (0,))
    np.testing.assert_allclose(out, rho_a, atol=1e-12)


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    out = tensor.partial_trace(np.outer(bell, bell.conj()), (2, 2), (1,))
    np.testing.assert_allclose(out, np.eye(2) / 2.0, atol=1e-12)


def test_partial_trace_against_index_summation_oracle():
    rho = tensor.random_density_matrix(RNG, 8)
    dims = (2, 2, 2)
    out = tensor.partial_trace(rho, dims, (1,))
    # quadruple loop over the traced factors, keeping the middle qubit
    oracle = np.zeros((2, 2), dtype=complex)
    t = rho.reshape(2, 2, 2, 2, 2, 2)
    for i in range(2):
        for j in range(2):
            for a in range(2):
                for c in range(2):
                    oracle[i, j] += t[a, i, c, a, j, c]
    np.testing.assert_allclose(out, oracle, atol=1e-13)


def test_partial_trace_all_and_none():
    rho = tensor.random_density_matrix(RNG, 6)
    full = tensor.partial_trace(rho, (2, 3), ())
    assert full.shape == (1, 1)
    np.testing.assert_allclose(full[0, 0], np.trace(rho), atol=1e-12)
    kept = tensor.partial_trace(rho, (2, 3), (0, 1))
    np.testing.assert_allclose(kept, rho, atol=1e-13)


def test_partial_trace_rejects_bad_shape():
    rho = tensor.random_density_matrix(RNG, 6)
    with pytest.raises(DimensionMismatchError):
        tensor.partial_trace(rho, (2, 2), (0,))
    with pytest.raises(DimensionMismatchError):
        tensor.partial_trace(rho, (2, 3), (2,))


def test_partial_transpose_limiting_cases():
    m = random_matrix(6)
    np.testing.assert_allclose(
        tensor.partial_transpose(m, (2, 3), (0, 1)), m.T, atol=0
    )
    np.testing.assert_allclose(tensor.partial_transpose(m, (2, 3), ()), m, atol=0)


@given(flip=st.sets(st.integers(min_value=0, max_value=1)))
@settings(max_examples=20, deadline=None)
def test_partial_transpose_is_an_involution(flip):
    m = random_matrix(4)
    once = tensor.partial_transpose(m, (2, 2), flip)
    twice = tensor.partial_transpose(once, (2, 2), flip)
    np.testing.assert_array_equal(twice, m)


def test_partial_transpose_single_factor_oracle():
    m = random_matrix(4)
    out = tensor.partial_transpose(m, (2, 2), (0,))
    # element-by-element: transposing factor 0 swaps its row/column indices,
    # so out[(i,a),(j,b)] = m[(j,a),(i,b)]
    for i in range(2):
        for a in range(2):
            for j in range(2):
                for b in range(2):
                    assert out[2 * i + a, 2 * j + b] == m[2 * j + a, 2 * i + b]


def test_herm_eig_diagonal_case():
    vals, vecs = tensor.herm_eig(np.diag([0.3, 0.7]))
    np.testing.assert_allclose(vals, [0.3, 0.7], atol=1e-14)
    np.testing.assert_allclose(np.abs(vecs), np.eye(2), atol=1e-14)


def test_herm_eig_known_spectrum():
    vals, _ = tensor.herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("dim", [2, 5, 8])
def test_herm_eig_reconstruction(dim):
    g = random_matrix(dim)
    m = (g + g.conj().T) / 2.0
    vals, vecs = tensor.herm_eig(m)
    assert (np.diff(vals) >= -1e-12).all()
    np.testing.assert_allclose((vecs * vals) @ vecs.conj().T, m, atol=1e-9)
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(dim), atol=1e-9)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        tensor.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_embed_operator_matches_explicit_kron():
    u = random_matrix(2)
    # acting on the middle factor of a (2, 2, 2) chain
    embedded = tensor.embed_operator(u, (2, 2, 2), (1,))
    explicit = tensor.kron(tensor.kron(np.eye(2), u), np.eye(2))
    np.testing.assert_allclose(embedded, explicit, atol=1e-13)


def test_embed_operator_two_factor_ordering():
    u = random_matrix(4)
    # targets in reversed order swap the operator's own factors
    fwd = tensor.embed_operator(u, (2, 2), (0, 1))
    rev = tensor.embed_operator(u, (2, 2), (1, 0))
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    np.testing.assert_allclose(fwd, u, atol=0)
    np.testing.assert_allclose(rev, swap @ u @ swap, atol=1e-13)


def test_validate_density_matrix_rejects_defects():
    rho = tensor.random_density_matrix(RNG, 3)
    tensor.validate_density_matrix(rho)
    with pytest.raises(ValidationError):
        tensor.validate_density_matrix(rho * 1.01)
    bad = rho.copy()
    bad[0, 1] += 1e-6
    with pytest.raises(ValidationError):
        tensor.validate_density_matrix(bad)
    sig = np.diag([1.5, -0.5, 0.0]).astype(complex)
    with pytest.raises(ValidationError):
        tensor.validate_density_matrix(sig)


def test_stacks_are_decomposed_and_validated_matrix_by_matrix():
    stack = np.stack([tensor.random_density_matrix(RNG, 3) for _ in range(4)])
    tensor.validate_density_matrix(stack)
    vals, vecs = tensor.herm_eig(stack)
    for m, v, u in zip(stack, vals, vecs):
        ref_v, ref_u = tensor.herm_eig(m)
        assert v.tobytes() == ref_v.tobytes() and u.tobytes() == ref_u.tobytes()
    bad = stack.copy()
    bad[2] = np.diag([1.5, -0.5, 0.0])
    with pytest.raises(ValidationError, match="negative eigenvalue"):
        tensor.validate_density_matrix(bad)


@given(dim=st.sampled_from([2, 3, 4, 6]))
@settings(max_examples=15, deadline=None)
def test_random_density_matrix_is_a_state(dim):
    rho = tensor.random_density_matrix(np.random.default_rng(dim), dim)
    tensor.validate_density_matrix(rho)
