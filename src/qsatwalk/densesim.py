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
a sampled step reads a state through it. The packed Hamming-weight layout
lives here too, described once in the `_Sectors` docstring: `hermitian_eig`
diagonalizes each weight block apart, `as_density_matrix` checks each apart,
and the exact channel (`channel`) keeps its state in it; `_adjoint_deviation`
is the one Hermitian-block check of a state in either layout. H = sum_a P_a
is assembled in one place: `_pair_entries` lists its clause entries on a
layout and `_hamiltonian` adds them up, for the exact channel's packed H and
ground space and for the dense H and projectors of `observables`; its one
product, `_ket_products`, also gives the P inside each clause's G = P + K in
the exact channel. `kron_embed` scatters a 4x4 block through the clause rows
into a full 2^n x 2^n operator. Dense operators serve spectra and tests, not
per-step updates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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


def _matrix_qubits(a: np.ndarray, what: str) -> int:
    """`num_qubits` of an array that must be a matrix; a vector raises
    DimensionMismatch naming `what`."""
    n = num_qubits(a)
    if a.ndim != 2:
        raise DimensionMismatch(f"{what} must be 2-D")
    return n


def _is_integer(value) -> bool:
    """Whether `value` is an int or a numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(value, name: str, low: int) -> None:
    """Raise IndexOutOfRange, naming `name`, unless `value` is an integer (a numpy
    integer too, a bool not) of at least `low`."""
    if not _is_integer(value):
        raise IndexOutOfRange(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise IndexOutOfRange(f"{name} must be >= {low}, got {value}")


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

    Returns (rho, packed): packed is `_sectors(n).pack(rho)`, or None when an
    entry couples two weights. In the first case Hermiticity and positivity
    are checked on the blocks alone, views of packed: the zeros between them
    cannot break either. `_adjoint_deviation` writes every block's conjugate
    transpose into one temporary of packed's layout, which then becomes the
    Hermitian parts in two passes over the whole temporary; each part's
    diagonal takes PSD_TOL in place before its Cholesky factorization.
    """
    rho = np.asarray(rho, dtype=complex)
    n = _matrix_qubits(rho, "density matrix")
    sec = _sectors(n)
    packed = sec.pack(rho)
    checked = rho if packed is None else packed
    hermitian = np.empty(checked.shape, dtype=complex)      # C order, for the diagonal strides below
    squares, parts = ([rho], [hermitian]) if packed is None else (sec.views(packed), sec.views(hermitian))
    herm = _adjoint_deviation(squares, parts)
    if not herm <= HERMITICITY_TOL:
        raise NotHermitian(f"density matrix deviates from Hermitian by {herm}")
    tr = np.trace(rho)
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise DimensionMismatch(f"density matrix trace {tr} is not 1 within {TRACE_TOL}")
    hermitian += checked
    hermitian *= 0.5                       # (a + a^dagger) / 2, block by block
    for h in parts:
        h.reshape(-1)[:: len(h) + 1] += PSD_TOL
    if not all(_positive_definite(h) for h in parts):
        lo = min(np.linalg.eigvalsh((a + a.conj().T) / 2)[0] for a in squares)
        if not lo >= -PSD_TOL:
            raise DimensionMismatch(f"density matrix has eigenvalue {lo} < -{PSD_TOL}")
    return rho, packed


def _adjoint_deviation(squares, parts) -> float:
    """Write each square block's conjugate transpose into its part, the same block of a
    buffer of the layout, and return max |a - a^dagger| over the blocks, which NaN
    makes NaN, unlike the builtin max."""
    for a, h in zip(squares, parts):
        np.conjugate(a.T, out=h)
    return np.max([np.max(np.abs(a - h)) for a, h in zip(squares, parts)])


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
    idx = _clause_rows(np.arange(2**n), _pair_split(i, j, n))
    out[idx[:, None, :], idx[None, :, :]] += op4[:, :, None]
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


@dataclass(frozen=True)
class _Sectors:
    """Packed layout of n-qubit matrices that are block-diagonal in `blocks`.

    Block k holds the basis states `blocks[k]`, ascending: the states of
    Hamming weight k in `_sectors(n)`, read-only index arrays, or the whole
    space as one block, `slice(None)`, in `_sectors(n, whole=True)`. The
    blocks' row-major entries follow one another in one flat vector, C(2n, n)
    entries for the weight blocks (41 MB at n = 12, against 256 MB for the
    matrix) and 4^n, the matrix itself, for the whole space. `rank[x]` is the
    place of x in its block, so the entry (x, y) of a block sits at
    `base[x] + rank[y]` and a diagonal one at `diag[x]`; `squares` lists each
    block's (start, size) and `size` the entries in all.

    `pack` gathers a matrix's weight blocks into a fresh vector, `views` reads
    a vector's blocks as (m, m) views, and `unpack` scatters them into a fresh
    dense matrix. Both go through a block's flat positions x * 2^n + y, built
    per block and call and never kept: all of them together take 22 MB at
    n = 12.
    """

    blocks: tuple
    rank: np.ndarray
    base: np.ndarray
    diag: np.ndarray
    squares: list
    size: int

    def views(self, state: np.ndarray) -> list:
        """Each block of a packed vector, or of a C-ordered matrix read flat, as a view."""
        flat = state.reshape(-1)
        return [flat[start : start + m * m].reshape(m, m) for start, m in self.squares]

    def pack(self, a: np.ndarray, tol: float = 0.0) -> np.ndarray | None:
        """The 2^n x 2^n a's weight blocks `a[b][:, b]`, gathered into one fresh vector
        when every entry coupling two different weights is zero (at most `tol` in
        magnitude); otherwise None. The check counts the nonzero entries of a once
        and of the packed vector, C(2n, n) entries, once more (`_count_large`)."""
        d, flat = len(self.rank), np.ascontiguousarray(a).reshape(-1)   # a copy only when a is not C-ordered
        packed = np.empty(self.size, dtype=complex)
        for b, square in zip(self.blocks, self.views(packed)):
            np.take(flat, np.add.outer(b * d, b), out=square)
        return packed if _count_large(packed, tol) == _count_large(flat, tol) else None

    def unpack(self, state: np.ndarray) -> np.ndarray:
        """The dense matrix, a fresh array: one flat scatter per weight block."""
        d = len(self.rank)
        if len(self.blocks) == 1:           # one block: the state is the matrix, row-major
            return state.reshape(d, d).copy()
        out = np.zeros(d * d, dtype=complex)
        for b, square in zip(self.blocks, self.views(state)):
            out[np.add.outer(b * d, b)] = square
        return out.reshape(d, d)


@lru_cache(maxsize=None)
def _sectors(n: int, whole: bool = False) -> _Sectors:
    """The Hamming-weight layout of n qubits or, with `whole`, the whole space as one block."""
    if whole:
        blocks, label = (slice(None),), np.zeros(2**n, dtype=np.intp)
    else:
        label = _hamming_weights(n)
        blocks = tuple(np.flatnonzero(label == k) for k in range(n + 1))
        for b in blocks:
            b.flags.writeable = False
    sizes = np.bincount(label)
    starts = np.concatenate(([0], np.cumsum(sizes**2)))
    rank = np.empty(2**n, dtype=np.intp)
    for b, m in zip(blocks, sizes):
        rank[b] = np.arange(m)
    base = starts[label] + rank * sizes[label]
    return _Sectors(blocks=blocks, rank=rank, base=base, diag=base + rank,
                    squares=list(zip(starts[:-1].tolist(), sizes.tolist())), size=int(starts[-1]))


def _count_large(x: np.ndarray, tol: float) -> int:
    """How many entries of the C-contiguous complex x exceed `tol` in magnitude or,
    with tol = 0, how many of their real and imaginary parts are nonzero: one
    vectorized pass, several times faster than counting complex entries."""
    if tol:
        return np.count_nonzero(np.abs(x) > tol)
    return np.count_nonzero(x.view(np.float64) != 0)


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


def _pair_entries(clauses, n: int, whole: bool = False) -> tuple:
    """H = sum_a P_a as entries (b (x) r, b2 (x) r) of the layout `_sectors(n, whole)`, for
    each clause and pair values b, b2 where its ket phi is nonzero: their flat positions,
    one row of 2^(n-2) per (clause, b, b2), and the values phi_b conj(phi_b2), one per
    row, clause by clause and (b, b2) in `itertools.product` order. On the weight blocks
    every clause must lie on one weight of its pair. Each value is a scalar product
    (`_ket_products`): numpy's vectorized complex product (`np.outer`) can round it
    differently in the last bit, and every P the package reads comes from here: the
    dense H and clause projectors, the channel's packed H, the P inside each clause's
    G = P + K and the conjugated ket the packed step reads c with."""
    sec, index = _sectors(n, whole), np.arange(2**n)
    positions, values = [], []
    for clause in clauses:
        pair, phi = _clause_split(clause, n)
        full = _clause_rows(index, pair)
        for b, b2, value in _ket_products(phi.reshape(4)):
            positions.append(sec.base[full[b]] + sec.rank[full[b2]])
            values.append(value)
    return np.array(positions), np.array(values)


def _ket_products(ket: np.ndarray) -> list:
    """(b, b2, ket[b] conj(ket[b2])) for the pair values b, b2 where the length-4 ket is
    nonzero, in `itertools.product` order: P = |ket><ket| on its rows, each entry a scalar
    product, as H's entries and the P inside the channel's G read it."""
    rows = np.flatnonzero(ket).tolist()
    return [(b, b2, ket[b] * ket[b2].conjugate()) for b, b2 in itertools.product(rows, repeat=2)]


def _hamiltonian(entries, sec: _Sectors) -> list:
    """H's square blocks on the layout `sec`, views of one packed array, from its
    `_pair_entries` there: each value is added at its positions in clause order, by
    one `np.add.at`. On the whole space the one block is the dense H."""
    positions, values = entries
    h = np.zeros(sec.size, dtype=complex)
    np.add.at(h, positions, values[:, None])
    return sec.views(h)


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


def _check_hermitian(a, what: str = "matrix") -> None:
    """Raise NotHermitian, naming `what`, unless max |a - a^dagger| is at most
    HERMITICITY_TOL, which NaN is not. A 1-D a is a diagonal, held to its imaginary
    parts as (a - a*) / 2, which a NaN real part makes NaN."""
    dev = np.max(np.abs((a - np.conj(a)) / 2 if np.ndim(a) == 1 else a - np.conj(a).T))
    if not dev <= HERMITICITY_TOL:
        raise NotHermitian(f"{what} deviates from Hermitian by {dev}")


def hermitian_eig(a: np.ndarray):
    """Eigendecomposition of a Hermitian matrix, one Hamming-weight block at a time.

    Returns (eigenvalues ascending, eigenvector columns). When every entry
    that couples two different Hamming weights is exactly zero, each block of
    C(n, k) basis states is diagonalized on its own, the eigenvalues are
    merged in ascending order, and each eigenvector is supported on one
    block; otherwise the whole space is the one block. Raises NotHermitian
    when the input deviates from Hermitian by more than HERMITICITY_TOL, and
    DimensionMismatch when it is not a square matrix.
    """
    a = np.asarray(a, dtype=complex)
    n = _matrix_qubits(a, "matrix")
    _check_hermitian(a)
    sec = _sectors(n)
    packed = sec.pack(a)
    parts = [np.linalg.eigh(s) for s in ([a] if packed is None else sec.views(packed))]
    if len(parts) == 1:
        return parts[0]
    vals = np.concatenate([w for w, _ in parts])
    order = np.argsort(vals, kind="stable")
    column = np.argsort(order)                   # where each block eigenvector lands
    vecs = np.zeros(a.shape, dtype=complex)
    start = 0
    for b, (w, v) in zip(sec.blocks, parts):
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
    if not abs(val.imag) <= 1e-8:
        raise NonRealExpectation(f"expectation has imaginary part {val.imag}")
    return float(val.real)
