"""Dense complex linear algebra over the 2^n-dimensional Hilbert space of n qubits.

Conventions used throughout the package:

* qubit 0 is the most significant bit of a basis-state index, so the basis
  state |q0 q1 ... q_{n-1}> has index sum_k q_k * 2^(n-1-k);
* sigma_z |0> = +|0>, i.e. sigma_z = diag(1, -1).

States are stored dense: a density matrix takes 16 * 4^n bytes (256 MB at
n = 12) and a state vector 16 * 2^n bytes (16 MB at n = 20). An operator is
a dense 2^n x 2^n matrix or, when it is diagonal in the computational basis,
the real length-2^n vector of its diagonal; `expectation` tells the two
apart by `ndim`. The qubit layout lives here alone (`_bits`, `_pair_split`,
`_clause_split`, `_clause_rows`); the `trajectory` module docstring says how
a sampled step reads a state through it. The exact channel holds the state
one of two ways (see `sectors`): packed Hamming-weight blocks, 16 * C(2n, n)
bytes (41 MB at n = 12), stepped by one matrix product per block and
per-clause index plans built from `_clause_rows` of the basis indices; or, for
inputs that couple weights, the full matrix read through reshaped views,
O(L 4^n) per step and a few density matrices of memory. `kron_embed` and `observables.build_hamiltonian` scatter 4x4 blocks
through the same rows into full 2^n x 2^n operators, for spectra and tests,
not per-step updates.

Spectra and checks go one Hamming-weight block at a time. `_weight_packed`
gathers a matrix's C(n, k) x C(n, k) weight blocks into one fresh packed
vector, each block through its own flat positions (`_weight_positions`,
built per block and call), and returns it when every entry that couples two
different weights is zero; `_weight_views` reads the blocks as views of it,
and `_weight_squares` returns those views or, for a matrix that couples
weights, the whole space as the one block. `hermitian_eig` diagonalizes
each block apart. The checks of `as_density_matrix` read each block apart:
Hermiticity against the block's conjugate transpose, written into one
temporary of the packed layout that then becomes the Hermitian parts, and
positivity by a Cholesky factorization of each part (the smallest
eigenvalue only when one fails). `channel.evolve` keeps the packed vector
as its state (see `sectors`). Blocks occur for the Hamiltonian of
restricted (0, a, b, 0) and |11><11| clauses in the planted frame, and for
every state the channel of such clauses reaches from the maximally mixed
one.
"""

from __future__ import annotations

from functools import lru_cache, reduce

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
    rho = np.eye(d, dtype=complex)
    rho /= d                       # in place: one 16 * 4^n byte array, not two
    return rho


def as_density_matrix(rho) -> np.ndarray:
    """Validate Hermiticity, trace and positivity of a density matrix."""
    return _checked_density(rho)[0]


def _checked_density(rho):
    """`as_density_matrix`, also returning the packed weight blocks its checks read.

    Returns (rho, packed): packed is `_weight_packed(rho)`, one fresh vector of
    rho's Hamming-weight blocks, or None when an entry couples two weights. In
    the first case Hermiticity and positivity are checked on the blocks alone,
    views of packed: the zeros between them cannot break either. Every block's
    conjugate transpose goes into one temporary of packed's layout, which is
    compared with the block and then becomes the Hermitian parts in two passes
    over the whole temporary; each part's diagonal takes PSD_TOL in place before
    its Cholesky factorization.
    """
    rho = np.asarray(rho, dtype=complex)
    n = num_qubits(rho)
    if rho.ndim != 2:
        raise DimensionMismatch("density matrix must be 2-D")
    packed = _weight_packed(rho)
    checked = rho if packed is None else packed
    hermitian = np.empty(checked.shape, dtype=complex)      # C order, for the diagonal strides below
    squares, parts = ([rho], [hermitian]) if packed is None else (
        _weight_views(packed, n), _weight_views(hermitian, n))
    deviations = []
    for a, h in zip(squares, parts):
        np.conjugate(a.T, out=h)
        deviations.append(np.max(np.abs(a - h)))
    herm = max(deviations)
    if herm > HERMITICITY_TOL:
        raise NotHermitian(f"density matrix deviates from Hermitian by {herm}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_TOL:
        raise DimensionMismatch(f"density matrix trace {tr} is not 1 within {TRACE_TOL}")
    hermitian += checked
    hermitian *= 0.5                       # (a + a^dagger) / 2, block by block
    for h in parts:
        h.reshape(-1)[:: len(h) + 1] += PSD_TOL
    if not all(_positive_definite(h) for h in parts):
        lo = min(np.linalg.eigvalsh((a + a.conj().T) / 2)[0] for a in squares)
        if lo < -PSD_TOL:
            raise DimensionMismatch(f"density matrix has eigenvalue {lo} < -{PSD_TOL}")
    return rho, packed


def _positive_definite(a: np.ndarray) -> bool:
    """Whether a Cholesky factorization of the Hermitian `a` succeeds: a few times
    cheaper than its smallest eigenvalue, which only a failure then needs."""
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


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
    if i > j:
        op4 = op4.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)   # axes (lo, hi)
    out = np.zeros((2**n, 2**n), dtype=complex)
    _scatter_add(out, op4, _pair_split(i, j, n))
    return out


def _bits(n: int, q: int) -> np.ndarray:
    """Value of qubit q in every basis state, as 0/1 integers."""
    return (np.arange(2**n) >> (n - 1 - q)) & 1


def _hamming_weights(n: int) -> np.ndarray:
    """Number of qubits in |1> in every basis state."""
    return sum((_bits(n, q) for q in range(n)), np.zeros(2**n, dtype=int))


def _block(a: np.ndarray, b) -> np.ndarray:
    """`a[b][:, b]` for b an index array or `slice(None)`, gathered in one pass."""
    return a if isinstance(b, slice) else a[np.ix_(b, b)]


@lru_cache(maxsize=None)
def _weight_index(n: int) -> tuple:
    """The basis states of each Hamming weight 0..n, ascending, as read-only index arrays."""
    weights = _hamming_weights(n)
    blocks = tuple(np.flatnonzero(weights == k) for k in range(n + 1))
    for b in blocks:
        b.flags.writeable = False
    return blocks


def _weight_positions(b: np.ndarray, n: int) -> np.ndarray:
    """Flat position x * 2^n + y of each entry (x, y) of the weight block on the basis
    states b, an (m, m) array: built per block and call, not kept (all blocks together
    take 22 MB at n = 12)."""
    return np.add.outer(b * 2**n, b)


def _weight_views(packed: np.ndarray, n: int) -> list:
    """The weight blocks of a packed vector, as views: the blocks of `_weight_index`
    in turn, each row-major, C(2n, n) entries in all."""
    views, start = [], 0
    for b in _weight_index(n):
        m = len(b)
        views.append(packed[start : start + m * m].reshape(m, m))
        start += m * m
    return views


def _weight_packed(a: np.ndarray, tol: float = 0.0) -> np.ndarray | None:
    """a's Hamming-weight blocks `a[b][:, b]` for b in `_weight_index`, gathered into
    one fresh packed vector (`_weight_views`), when every entry coupling two different
    weights is zero (at most `tol` in magnitude); otherwise None.

    The check counts the nonzero entries of a once and of the packed vector,
    C(2n, n) entries, once more (`_count_large`).
    """
    n, flat = num_qubits(a), a.reshape(-1)       # a copy only when a is not C-ordered
    packed = np.empty(sum(len(b) ** 2 for b in _weight_index(n)), dtype=complex)
    for b, square in zip(_weight_index(n), _weight_views(packed, n)):
        np.take(flat, _weight_positions(b, n), out=square)
    return packed if _count_large(packed, tol) == _count_large(a, tol) else None


def _weight_squares(a: np.ndarray, tol: float = 0.0) -> list:
    """a's Hamming-weight blocks, views of `_weight_packed(a, tol)`, or the whole space
    as one block, `[a]`, when an entry couples two weights."""
    packed = _weight_packed(a, tol)
    return [a] if packed is None else _weight_views(packed, num_qubits(a))


def _count_large(x: np.ndarray, tol: float) -> int:
    """How many entries of the complex x exceed `tol` in magnitude or, with tol = 0,
    how many of their real and imaginary parts are nonzero: one vectorized pass
    over a C-contiguous x, several times faster than counting complex entries."""
    if tol:
        return np.count_nonzero(np.abs(x) > tol)
    if x.flags.c_contiguous:
        return np.count_nonzero(x.view(np.float64) != 0)
    return np.count_nonzero(x.real != 0) + np.count_nonzero(x.imag != 0)


def _pair_split(i: int, j: int, n: int) -> tuple:
    """Shape (2^lo, 2, 2^(hi-lo-1), 2, 2^(n-1-hi)) of a basis index split around qubits lo < hi."""
    lo, hi = sorted((i, j))
    return (2**lo, 2, 2 ** (hi - lo - 1), 2, 2 ** (n - 1 - hi))


def _clause_split(clause, n: int):
    """How a basis index splits around a clause's qubits: the `_pair_split`
    shape, and the clause ket as a 2x2 array with axes (qubit lo, qubit hi)."""
    phi = clause.amps.reshape(2, 2)            # axes (qubit i, qubit j)
    if clause.i > clause.j:
        phi = phi.T                            # axes (qubit lo, qubit hi)
    return _pair_split(clause.i, clause.j, n), phi


def _clause_rows(x: np.ndarray, pair: tuple) -> np.ndarray:
    """A length-2^n vector as a 4 x 2^(n-2) matrix, row 2*b_lo + b_hi holding in index
    order the entries where qubits (lo, hi) are (b_lo, b_hi); a view of x only for the
    pair (0, 1), a transposing copy otherwise."""
    return x.reshape(pair).transpose(1, 3, 0, 2, 4).reshape(4, -1)


def _scatter_add(out: np.ndarray, op4: np.ndarray, pair: tuple) -> None:
    """Add to the 2^n x 2^n `out` a 4x4 operator with axes (lo, hi), embedded."""
    idx = _clause_rows(np.arange(out.shape[0]), pair)
    out[idx[:, None, :], idx[None, :, :]] += op4[:, :, None]


def product_unitary(blocks) -> np.ndarray:
    """Tensor product of single-qubit blocks, qubit 0 leftmost."""
    blocks = [np.asarray(b, dtype=complex) for b in blocks]
    for k, b in enumerate(blocks):
        if b.shape != (2, 2):
            raise DimensionMismatch(f"block {k} has shape {b.shape}, expected 2x2")
    return reduce(np.kron, blocks)


def require_unitary(u: np.ndarray, what: str = "matrix") -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    square = u.ndim == 2 and u.shape[0] == u.shape[1]
    if not (square and np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= 1e-10):
        raise NotUnitary(f"{what} is not unitary within 1e-10")
    return u


def _check_hermitian(a: np.ndarray) -> None:
    """Raise NotHermitian when max |a - a^dagger| exceeds HERMITICITY_TOL."""
    dev = np.max(np.abs(a - a.conj().T))
    if dev > HERMITICITY_TOL:
        raise NotHermitian(f"matrix deviates from Hermitian by {dev}")


def hermitian_eig(a: np.ndarray):
    """Eigendecomposition of a Hermitian matrix, one Hamming-weight block at a time.

    Returns (eigenvalues ascending, eigenvector columns). When every entry
    that couples two different Hamming weights is exactly zero, each block of
    C(n, k) basis states is diagonalized on its own, the eigenvalues are
    merged in ascending order, and each eigenvector is supported on one
    block; otherwise the whole space is the one block. Raises NotHermitian
    when the input deviates from Hermitian by more than HERMITICITY_TOL.
    """
    a = np.asarray(a, dtype=complex)
    num_qubits(a)
    _check_hermitian(a)
    parts = [np.linalg.eigh(s) for s in _weight_squares(a)]
    if len(parts) == 1:
        return parts[0]
    vals = np.concatenate([w for w, _ in parts])
    order = np.argsort(vals, kind="stable")
    column = np.argsort(order)                   # where each block eigenvector lands
    vecs = np.zeros(a.shape, dtype=complex)
    start = 0
    for b, (w, v) in zip(_weight_index(num_qubits(a)), parts):
        vecs[np.ix_(b, column[start : start + len(w)])] = v
        start += len(w)
    return vals[order], vecs


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
