"""Dense complex linear algebra for small multiqubit density matrices.

Everything here works on plain ``numpy`` arrays of shape ``(d, d)`` with
``d = 2**n`` and ``n <= 5`` (``partial_trace``, ``support_vectors``,
``von_neumann_entropy`` and ``entropy_and_log2`` also take a stack of them).
Qubit 0 is the most-significant tensor factor, i.e. the basis index of
``|q0 q1 ... q_{n-1}>`` is ``sum(q_k * 2**(n-1-k))``.

This module decides how a spectrum is read: both entropies and a state's
rank (``support_vectors``) read an eigenvalue at or below RANK_TOL as 0.
"""

from __future__ import annotations

import numpy as np

PSD_TOL = 1e-9
# A pure float64 state shows eigenvalues of at most ~5e-16 off its vector
# (qdc.states.build, random 2- to 5-qubit states).  The cut is hard: an
# eigenvalue crossing it moves an entropy by up to RANK_TOL*log2(1/RANK_TOL)
# ~ 4.65e-13 bits, the slack two routes to an optimized output must allow.
RANK_TOL = 1e-14

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class QmathError(ValueError):
    """Domain error for matrix operations (bad shape, non-Hermitian, ...)."""


def n_qubits(mat: np.ndarray) -> int:
    """Number of qubits of a square matrix whose dimension is a power of 2."""
    d = mat.shape[0]
    if mat.ndim != 2 or mat.shape[1] != d:
        raise QmathError(f"expected a square matrix, got shape {mat.shape}")
    n = d.bit_length() - 1
    if d != 2**n or not (1 <= n <= 5):
        raise QmathError(f"dimension {d} is not 2^n with 1 <= n <= 5")
    return n


def dm_from_statevector(psi: np.ndarray) -> np.ndarray:
    """Pure-state density matrix |psi><psi| from a normalized state vector."""
    psi = np.asarray(psi, dtype=complex).ravel()
    return np.outer(psi, psi.conj())


def _real_if_exact(a: np.ndarray) -> np.ndarray:
    """``a``, or its real part if its imaginary part is exactly zero."""
    return np.ascontiguousarray(a.real) if np.iscomplexobj(a) and not a.imag.any() else a


def check_density_matrix(rho: np.ndarray, tol_herm: float = 1e-10,
                         tol_trace: float = 1e-10, tol_psd: float = PSD_TOL) -> None:
    """Raise QmathError unless rho is Hermitian, unit-trace and numerically PSD."""
    n_qubits(rho)
    # written so that a NaN entry fails it too
    if not np.max(np.abs(rho - rho.conj().T)) <= tol_herm:
        raise QmathError("density matrix is not Hermitian within tolerance")
    tr = np.trace(rho)
    if abs(tr - 1.0) > tol_trace:
        raise QmathError(f"density matrix trace {tr} differs from 1")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -tol_psd:
        raise QmathError(f"density matrix has eigenvalue {evals.min()} < -{tol_psd}")


def partial_trace(rho: np.ndarray, keep: set[int] | list[int] | tuple[int, ...]) -> np.ndarray:
    """Trace out all qubits not in ``keep``.

    ``keep`` is a set of qubit indices (0 = leftmost factor).  The kept qubits
    retain their relative order in the reduced matrix.  ``rho`` may carry
    leading batch axes; each matrix of a stack is traced in the order of an
    unbatched call, so it equals that call bit for bit.
    """
    keep = sorted(set(keep))
    b = rho.ndim - 2
    n = n_qubits(rho[(0,) * b])
    if not keep:
        raise QmathError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise QmathError(f"keep indices {keep} out of range for {n} qubits")
    traced = [q for q in range(n) if q not in keep]
    # reshape to a rank-2n tensor: one (row, col) index pair per qubit
    t = rho.reshape(rho.shape[:b] + (2,) * (2 * n))
    for q in reversed(traced):
        t = np.trace(t, axis1=b + q, axis2=b + q + (t.ndim - b) // 2)
    d = 2 ** len(keep)
    return t.reshape(rho.shape[:b] + (d, d))


def _clipped_log2(evals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues clipped at 0 and their base-2 logs, taken as 0 where an
    eigenvalue is at or below RANK_TOL, so that it counts in neither the
    entropy nor the log.  Eigenvalues in (-PSD_TOL, 0] are eigensolver noise
    on rank-deficient states; one below -PSD_TOL raises."""
    if evals.min() < -PSD_TOL:
        raise QmathError(f"PSD violation: eigenvalue {evals.min()} < -{PSD_TOL}")
    evals = np.maximum(evals, 0.0)     # np.clip(evals, 0.0, None), without its overhead
    return evals, np.log2(evals, out=np.zeros_like(evals), where=evals > RANK_TOL)


def support_vectors(rho: np.ndarray) -> np.ndarray:
    """Vectors psi ``(..., d, k)`` with psi psi^dag = rho less its eigenvalues
    at or below RANK_TOL: each kept eigenvector times the root of its
    eigenvalue, so k is rho's rank, the largest in a stack, where a matrix
    of lower rank r has zero columns past its first r."""
    evals, vecs = np.linalg.eigh(rho)
    d, rank = evals.shape[-1], np.sum(evals > RANK_TOL, axis=-1)
    # eigh sorts ascending: a matrix keeps its last r columns, moved to the
    # front; the columns past them wrap around and are scaled by 0
    cols = np.arange(rank.max()) + (d - rank)[..., None]
    roots = np.sqrt(np.take_along_axis(evals, cols % d, -1) * (cols < d))
    return np.take_along_axis(vecs, cols[..., None, :] % d, -1) * roots[..., None, :]


def von_neumann_entropy(rho: np.ndarray) -> float | np.ndarray:
    """S(rho) = -Tr(rho log2 rho) in bits.

    ``rho`` is one matrix, which gives a float, or a stack ``(..., d, d)``,
    which gives an array of one entropy per matrix.  An eigenvalue at or below
    RANK_TOL adds 0, and a PSD violation in any matrix of a stack raises.
    """
    evals, logs = _clipped_log2(np.linalg.eigvalsh(rho))
    s = -np.sum(evals * logs, axis=-1)
    return float(s) if s.ndim == 0 else s


def entropy_and_log2(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S(rho) in bits and the matrix log2(rho) for each matrix of a stack
    ``(..., d, d)``, the optimizer's objective and what its gradient
    -Tr(d rho log2 rho) needs.  Both read an eigenvalue at or below RANK_TOL
    as 0, as ``von_neumann_entropy`` does, so they agree with each other,
    and the eigensolver's rounding of a zero eigenvalue, times its log
    (~ -56), does not enter the gradient."""
    evals, vecs = np.linalg.eigh(rho)
    evals, logs = _clipped_log2(evals)
    return (-np.sum(evals * logs, axis=-1),
            (vecs * logs[..., None, :]) @ vecs.conj().swapaxes(-1, -2))


def shannon_entropy(probs) -> float:
    """H({p_i}) = -sum p_i log2 p_i in bits, with 0 log 0 = 0."""
    p = np.asarray(probs, dtype=float)
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log2(nz)))
