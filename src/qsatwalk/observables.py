"""Analysis operators: total-spin diagnostics, clause Hamiltonian, spectral data.

The spin operators are diagnostics defined in the frame where a planted
solution (if any) is the all-|0> product state. There they are diagonal and
are returned as real length-2^n vectors of their diagonals, the form
`densesim.expectation`, `channel` and `trajectory.run_ensemble` read. For
instances whose planted basis is not the identity they are conjugated by the
product unitary of that basis into dense matrices; the satisfying-subspace
projector and the Hamiltonian need no such treatment. The dense H and each
clause projector come from `densesim`'s one H assembly, which the exact
channel reads too, so H equals the left-to-right sum of the projectors bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import densesim
from .errors import DegenerateSpectrum, IndexOutOfRange
from .instance import Instance, Clause

ZERO_TOL = 1e-10


def _spin_diagonal(n: int) -> np.ndarray:
    """S's diagonal, n - 2 * hamming(x), a fresh array per call: nothing keeps it past
    its users (a channel `_Layout` holds its own)."""
    return (n - 2 * densesim._hamming_weights(n)).astype(float)


def _frame_blocks(inst: Instance) -> tuple | None:
    """Single-qubit blocks of the planted basis, or None when absent/identity."""
    if inst.planted_basis is None:
        return None
    if all(np.array_equal(b, np.eye(2)) for b in inst.planted_basis):
        return None
    return inst.planted_basis


def instance_spin_operators(inst: Instance):
    """(S, S^2) in the frame of the instance's planted basis.

    S is the sum of sigma_z over all qubits, with eigenvalue n - 2*hamming(x)
    on |x>, and S^2 its square. Both are diagonal vectors when the planted
    basis is absent or the identity, and otherwise dense matrices conjugated
    by its product unitary.
    """
    z = _spin_diagonal(inst.n)
    blocks = _frame_blocks(inst)
    if blocks is None:
        return z, z * z
    v = densesim.product_unitary(blocks)
    vd = v.conj().T
    return (v * z) @ vd, (v * (z * z)) @ vd


def clause_projector(clause: Clause, n: int) -> np.ndarray:
    """Embedded 2^n x 2^n projector of a clause: the H of that clause alone."""
    if not (clause.i < n and clause.j < n):
        raise IndexOutOfRange(f"qubit pair ({clause.i}, {clause.j}) invalid for n={n}")
    return _dense_hamiltonian([clause], n)


def build_hamiltonian(inst: Instance) -> np.ndarray:
    """Sum of all embedded clause projectors; PSD with eigenvalues in [0, L].

    Each clause's entries are added at their dense positions x * 2^n + y
    (`densesim._pair_entries`, the entries the exact channel reads), so a
    clause costs O(2^n) rather than a dense embedding.
    """
    return _dense_hamiltonian(inst.clauses, inst.n)


def _dense_hamiltonian(clauses, n: int) -> np.ndarray:
    return densesim._hamiltonian(densesim._pair_entries(clauses, n, whole=True), densesim._sectors(n, whole=True))[0]


@dataclass(frozen=True)
class SpectralData:
    min_eigenvalue: float
    epsilon: float
    ground_degeneracy: int
    ground_projector: np.ndarray
    eigenvalues: np.ndarray


def _eig_projector(h: np.ndarray, threshold: float):
    """Eigenvalues of h, ascending, and the projector onto those strictly below threshold."""
    vals, vecs = densesim.hermitian_eig(h)
    sel = vecs[:, vals < threshold]
    return vals, sel @ sel.conj().T


def spectral_data(h: np.ndarray) -> SpectralData:
    """Ground degeneracy, ground projector, and smallest nonzero eigenvalue.

    Eigenvalues below ZERO_TOL count as ground space; epsilon is the smallest
    eigenvalue at or above it. Raises DegenerateSpectrum when no eigenvalue
    clears the threshold (an all-zero operator).
    """
    vals, ground_projector = _eig_projector(h, ZERO_TOL)
    ground = vals < ZERO_TOL
    nonzero = vals[~ground]
    if nonzero.size == 0:
        raise DegenerateSpectrum(
            f"no eigenvalue reaches {ZERO_TOL}; spectral gap undefined"
        )
    return SpectralData(
        min_eigenvalue=float(vals[0]),
        epsilon=float(nonzero[0]),
        ground_degeneracy=int(np.sum(ground)),
        ground_projector=ground_projector,
        eigenvalues=vals,
    )


def ground_space_projector(h: np.ndarray) -> np.ndarray:
    """Projector onto eigenvalues below ZERO_TOL (zero matrix if none)."""
    return _eig_projector(h, ZERO_TOL)[1]

