"""Dense complex linear algebra over the 2^n-dimensional Hilbert space of n qubits.

Conventions used throughout the package:

* qubit 0 is the most significant bit of a basis-state index, so the basis
  state |q0 q1 ... q_{n-1}> has index sum_k q_k * 2^(n-1-k);
* sigma_z |0> = +|0>, i.e. sigma_z = diag(1, -1).

States are stored dense: a density matrix takes 16 * 4^n bytes (256 MB at
n = 12) and a state vector 16 * 2^n bytes (16 MB at n = 20). An operator is
a dense 2^n x 2^n matrix or, when it is diagonal in the computational basis,
the real length-2^n vector of its diagonal; `expectation` tells the two
apart by `ndim`. Both the exact channel and a sampled trajectory step read a
clause's two qubits through reshaped views of the state (`_clause_split`),
so neither needs per-clause tables: a channel step costs O(L 4^n) time and a
few density matrices of memory (memory, not the per-step time, sets its
ceiling), a sampled step O(2^n) and a few state vectors. `kron_embed` builds
a full 2^n x 2^n operator for one clause: it serves spectra and tests, not
the per-step updates.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NonRealExpectation,
    NotHermitian,
    NotUnitary,
)

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
STATE_NORM_TOL = 1e-9
EIG_RESIDUAL_TOL = 1e-8

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def num_qubits(obj) -> int:
    """Number of qubits of a state vector, density matrix, or square operator."""
    arr = np.asarray(obj)
    dim = arr.shape[0]
    if arr.ndim == 2 and arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    if arr.ndim not in (1, 2):
        raise DimensionMismatch(f"expected a vector or matrix, got ndim={arr.ndim}")
    n = dim.bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise DimensionMismatch(f"dimension {dim} is not a power of two")
    return n


def basis_state(n: int, index: int) -> np.ndarray:
    """Computational basis state |index> on n qubits."""
    if not 0 <= index < 2**n:
        raise IndexOutOfRange(f"basis index {index} outside [0, 2^{n})")
    psi = np.zeros(2**n, dtype=complex)
    psi[index] = 1.0
    return psi


def maximally_mixed(n: int) -> np.ndarray:
    d = 2**n
    return np.eye(d, dtype=complex) / d


def pure_density(psi: np.ndarray) -> np.ndarray:
    psi = as_state_vector(psi)
    return np.outer(psi, psi.conj())


def as_state_vector(psi) -> np.ndarray:
    """Validate norm and dtype of a pure state; returns a complex array."""
    psi = np.asarray(psi, dtype=complex)
    num_qubits(psi)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > STATE_NORM_TOL:
        raise DimensionMismatch(f"state vector norm {norm} is not 1 within {STATE_NORM_TOL}")
    return psi


def as_density_matrix(rho, check_psd: bool = True) -> np.ndarray:
    """Validate Hermiticity, trace and (optionally) positivity of a density matrix."""
    rho = np.asarray(rho, dtype=complex)
    num_qubits(rho)
    if rho.ndim != 2:
        raise DimensionMismatch("density matrix must be 2-D")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > HERMITICITY_TOL:
        raise NotHermitian(f"density matrix deviates from Hermitian by {herm}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_TOL:
        raise DimensionMismatch(f"density matrix trace {tr} is not 1 within {TRACE_TOL}")
    if check_psd:
        lo = np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0]
        if lo < -PSD_TOL:
            raise DimensionMismatch(f"density matrix has eigenvalue {lo} < -{PSD_TOL}")
    return rho


def random_density_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix from a Ginibre square."""
    d = 2**n
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def kron_embed(op4: np.ndarray, i: int, j: int, n: int) -> np.ndarray:
    """Embed a two-qubit operator onto qubits (i, j) of an n-qubit register.

    Qubit i is the left tensor factor of `op4`; the identity acts everywhere
    else. Works for any i != j, adjacent or not, in either order.
    """
    op4 = np.asarray(op4, dtype=complex)
    if op4.shape != (4, 4):
        raise DimensionMismatch(f"expected a 4x4 operator, got shape {op4.shape}")
    if i == j or not (0 <= i < n) or not (0 <= j < n):
        raise IndexOutOfRange(f"qubit pair ({i}, {j}) invalid for n={n}")
    if n == 2 and (i, j) == (0, 1):
        return op4.copy()
    rest = [q for q in range(n) if q != i and q != j]
    full = np.kron(op4, np.eye(2 ** (n - 2), dtype=complex))
    order = [i, j] + rest
    # axis k of the reshaped tensor carries qubit order[k]; permute to natural order
    perm = list(np.argsort(order))
    tensor = full.reshape([2] * (2 * n))
    tensor = tensor.transpose(perm + [n + p for p in perm])
    return np.ascontiguousarray(tensor.reshape(2**n, 2**n))


def _clause_split(clause, n: int):
    """How a basis index splits around a clause's qubits lo < hi.

    Returns the shape (2^lo, 2, 2^(hi-lo-1), 2, 2^(n-1-hi)) that reshapes a
    length-2^n axis without a copy, and the clause ket as a 2x2 array with
    axes (qubit lo, qubit hi).
    """
    lo, hi = sorted((clause.i, clause.j))
    phi = clause.amps.reshape(2, 2)            # axes (qubit i, qubit j)
    if clause.i > clause.j:
        phi = phi.T                            # axes (qubit lo, qubit hi)
    return (2**lo, 2, 2 ** (hi - lo - 1), 2, 2 ** (n - 1 - hi)), phi


def product_unitary(blocks) -> np.ndarray:
    """Tensor product of single-qubit blocks, qubit 0 leftmost."""
    blocks = [np.asarray(b, dtype=complex) for b in blocks]
    for k, b in enumerate(blocks):
        if b.shape != (2, 2):
            raise DimensionMismatch(f"block {k} has shape {b.shape}, expected 2x2")
    return reduce(np.kron, blocks)


def require_unitary(u: np.ndarray, tol: float = 1e-10, what: str = "matrix") -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    square = u.ndim == 2 and u.shape[0] == u.shape[1]
    if not (square and np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= tol):
        raise NotUnitary(f"{what} is not unitary within {tol}")
    return u


def partial_trace(rho: np.ndarray, q: int) -> np.ndarray:
    """Trace out qubit q, returning the (n-1)-qubit reduced matrix."""
    rho = np.asarray(rho, dtype=complex)
    n = num_qubits(rho)
    if not 0 <= q < n:
        raise IndexOutOfRange(f"qubit {q} outside register of size {n}")
    dl, dr = 2**q, 2 ** (n - 1 - q)
    r = rho.reshape(dl, 2, dr, dl, 2, dr)
    out = r[:, 0, :, :, 0, :] + r[:, 1, :, :, 1, :]
    return np.ascontiguousarray(out.reshape(dl * dr, dl * dr))


def hermitian_eig(a: np.ndarray, tol: float = HERMITICITY_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector columns). Raises NotHermitian
    when the input deviates from Hermitian by more than `tol`.
    """
    a = np.asarray(a, dtype=complex)
    num_qubits(a)
    dev = np.max(np.abs(a - a.conj().T))
    if dev > tol:
        raise NotHermitian(f"matrix deviates from Hermitian by {dev}")
    vals, vecs = np.linalg.eigh(a)
    return vals, vecs


def expectation(a: np.ndarray, state: np.ndarray) -> float:
    """tr[A rho] for a density matrix, or <psi|A|psi> for a state vector.

    A 1-D `a` is a diagonal operator given by its diagonal, so only the
    state's populations enter. The imaginary residue is checked against 1e-8
    and then discarded.
    """
    a = np.asarray(a)
    state = np.asarray(state, dtype=complex)
    if state.ndim not in (1, 2):
        raise DimensionMismatch("state must be a vector or a square matrix")
    d = state.shape[0]
    if a.shape not in ((d,), (d, d)) or state.shape not in ((d,), (d, d)):
        raise DimensionMismatch(f"operator {a.shape} vs state {state.shape}")
    if a.ndim == 1:
        weights = state.real**2 + state.imag**2 if state.ndim == 1 else np.diagonal(state)
        val = a @ weights.real + 1j * (a @ weights.imag)   # a real `a` keeps a real dot product
    elif state.ndim == 1:
        val = np.vdot(state, a @ state)
    else:
        val = np.einsum("ij,ji->", a, state)
    if abs(val.imag) > 1e-8:
        raise NonRealExpectation(f"expectation has imaginary part {val.imag}")
    return float(val.real)
