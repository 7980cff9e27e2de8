import numpy as np
import pytest
from hypothesis import given, strategies as st

from qdc.qmath import (I2, RANK_TOL, SIGMA_X, SIGMA_Y, SIGMA_Z, QmathError,
                       check_density_matrix, dm_from_statevector, entropy_and_log2,
                       n_qubits, partial_trace, shannon_entropy, support_vectors,
                       von_neumann_entropy)


def random_density_matrix(n, rng):
    d = 2**n
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_paulis_square_to_identity():
    for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert np.allclose(s @ s, I2)


def test_n_qubits():
    assert n_qubits(np.eye(8)) == 3
    with pytest.raises(QmathError):
        n_qubits(np.eye(3))
    with pytest.raises(QmathError):
        n_qubits(np.eye(64))


def test_partial_trace_gghz():
    # x|000> + sqrt(1-x^2)|111> with x = 0.6: each marginal is diag(0.36, 0.64)
    x = 0.6
    psi = np.zeros(8, dtype=complex)
    psi[0], psi[7] = x, np.sqrt(1 - x**2)
    rho = dm_from_statevector(psi)
    for q in range(3):
        red = partial_trace(rho, {q})
        assert np.allclose(red, np.diag([0.36, 0.64]))


def test_partial_trace_keeps_order():
    rng = np.random.default_rng(1)
    a = random_density_matrix(1, rng)
    b = random_density_matrix(1, rng)
    c = random_density_matrix(1, rng)
    rho = np.kron(np.kron(a, b), c)
    assert np.allclose(partial_trace(rho, {0, 2}), np.kron(a, c))
    assert np.allclose(partial_trace(rho, {1}), b)


def test_partial_trace_errors():
    rho = np.eye(4) / 4
    with pytest.raises(QmathError):
        partial_trace(rho, set())
    with pytest.raises(QmathError):
        partial_trace(rho, {2})


def test_von_neumann_entropy_values():
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    assert abs(von_neumann_entropy(np.eye(4) / 4) - 2.0) < 1e-12
    # diag(0.81, 0.19/3 x3): computed independently from the definition
    spec = [0.81, 0.19 / 3, 0.19 / 3, 0.19 / 3]
    expect = -sum(v * np.log2(v) for v in spec)
    assert abs(von_neumann_entropy(np.diag(spec)) - expect) < 1e-12
    assert abs(expect - 1.0026143) < 5e-7


def test_entropy_rejects_negative_eigenvalues():
    with pytest.raises(QmathError):
        von_neumann_entropy(np.diag([1.1, -0.1]))


def test_entropy_of_a_stack():
    rng = np.random.default_rng(2)
    stack = np.array([random_density_matrix(3, rng) for _ in range(6)])
    stack[2] = np.diag([1.0, 0, 0, 0, 0, 0, 0, 0])   # rank deficient
    got = von_neumann_entropy(stack.reshape(2, 3, 8, 8))
    assert got.shape == (2, 3)
    assert np.array_equal(got.ravel(), [von_neumann_entropy(r) for r in stack])
    assert isinstance(von_neumann_entropy(stack[0]), float)
    stack[4] = np.diag([1.1, -0.1, 0, 0, 0, 0, 0, 0])
    with pytest.raises(QmathError):
        von_neumann_entropy(stack)


def test_support_vectors_of_a_stack_equal_per_matrix_calls():
    # each matrix's vectors, then zero columns up to the stack's largest
    # rank; one matrix gives its kept eigenvectors times their roots, in
    # eigh's ascending order, bit for bit
    rng = np.random.default_rng(6)
    stack = []
    for r in (3, 1, 4, 2):
        a = rng.normal(size=(8, r)) + 1j * rng.normal(size=(8, r))
        stack.append(a @ a.conj().T)
    stack.append(np.zeros((8, 8)))
    got = support_vectors(np.array(stack).reshape(5, 8, 8))
    assert got.shape == (5, 8, 4)
    for rho, vecs in zip(stack, got):
        one = support_vectors(rho)
        evals, eigvecs = np.linalg.eigh(rho)
        keep = evals > RANK_TOL
        assert np.array_equal(one, eigvecs[:, keep] * np.sqrt(evals[keep]))
        r = one.shape[1]
        assert np.array_equal(vecs[:, :r], one) and not vecs[:, r:].any()
        assert np.max(np.abs(vecs @ vecs.conj().T - rho)) < 1e-12
    two = support_vectors(np.array(stack[:4]).reshape(2, 2, 8, 8))
    assert np.array_equal(two, got[:4].reshape(2, 2, 8, 4))


def test_entropy_and_log2_read_eigenvalues_at_rank_tol_as_zero():
    # the value, the log matrix, which the gradient contracts, and
    # von_neumann_entropy agree: an eigenvalue at or below RANK_TOL counts in none
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    for tiny, counted in ((RANK_TOL / 2, False), (2 * RANK_TOL, True), (3e-17, False),
                          (0.0, False)):
        evals = np.array([0.6, 0.4 - tiny, tiny, 0.0])
        rho = (q * evals) @ q.conj().T
        entropy, log = entropy_and_log2(rho)
        assert abs(entropy - shannon_entropy(evals[:3] if counted else evals[:2])) < 1e-14
        assert abs(von_neumann_entropy(rho) - entropy) < 1e-14
        if not counted:
            want = (q[:, :2] * np.log2(evals[:2])) @ q[:, :2].conj().T
            assert np.max(np.abs(log - want)) < 1e-12


def test_an_eigenvalue_crossing_rank_tol_moves_an_entropy_by_at_most_its_cut():
    # the cut is hard: the same spectrum with one eigenvalue just above and
    # just below 1e-14 reads up to RANK_TOL*log2(1/RANK_TOL) ~ 4.65e-13 bits
    # apart, the slack two routes to an optimized output must allow
    bound = RANK_TOL * np.log2(1 / RANK_TOL)
    for rest in ([1.0], [0.6, 0.4], [0.5, 0.3, 0.2]):
        rhos = [np.diag(np.pad([*rest[:-1], rest[-1] - tiny, tiny], (0, 3 - len(rest))))
                for tiny in (np.nextafter(RANK_TOL, 1.0), np.nextafter(RANK_TOL, 0.0))]
        for entropy in (von_neumann_entropy, lambda rho: float(entropy_and_log2(rho)[0])):
            above, below = (entropy(rho) for rho in rhos)
            assert 0.9 * bound < above - below <= bound + 1e-15


def test_shannon_entropy():
    assert shannon_entropy([0.5, 0.5]) == 1.0
    assert shannon_entropy([1.0, 0.0]) == 0.0


def test_check_density_matrix():
    check_density_matrix(np.eye(2) / 2)
    with pytest.raises(QmathError):
        check_density_matrix(np.eye(2))
    with pytest.raises(QmathError):
        check_density_matrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]))


@given(st.integers(0, 10_000))
def test_random_dm_properties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    rho = random_density_matrix(n, rng)
    check_density_matrix(rho)
    s = von_neumann_entropy(rho)
    assert 0.0 <= s <= n + 1e-9
    red = partial_trace(rho, {0})
    assert abs(np.trace(red) - 1.0) < 1e-10
