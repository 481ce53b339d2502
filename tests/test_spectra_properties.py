"""Property tests: the Hamming-weight block eigensolver against a full `np.linalg.eigh`.

Restricted and |11><11| clauses conserve Hamming weight, so their Hamiltonian
is diagonalized one weight block at a time; disguised and arbitrary-clause
instances take the one-block path. Either way the spectrum, the eigenvector
residual and the spectral data must match a full `eigh` of the same matrix.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from qsatwalk import densesim
from qsatwalk.instance import Instance, conjugate_instance, make_clause
from qsatwalk.observables import ZERO_TOL, build_hamiltonian, spectral_data

from helpers import PROPERTY_SETTINGS, amplitudes, random_product_basis, weight_squares

TOL = 1e-12


@st.composite
def instances(draw, forms):
    """1..8 clauses with forms drawn from `forms`, on any ordered pairs of n in 2..7 qubits."""
    n = draw(st.integers(2, 7))
    clauses = []
    for _ in range(draw(st.integers(1, 8))):
        i, j = draw(st.permutations(range(n)))[:2]
        clauses.append(make_clause(i, j, draw(amplitudes(draw(st.sampled_from(forms))))))
    return Instance(n=n, clauses=tuple(clauses))


@st.composite
def one_block_instances(draw):
    """A weight-conserving instance in a random product frame, or one of arbitrary clauses."""
    if draw(st.booleans()):
        inst = draw(instances(("restricted", "type-ii")))
        basis = random_product_basis(inst.n, draw(st.integers(0, 2**32 - 1)))
        return conjugate_instance(inst, basis)
    return draw(instances(("arbitrary",)))


def assert_matches_full_eigh(h):
    vals, vecs = densesim.hermitian_eig(h)
    ref_vals, ref_vecs = np.linalg.eigh(h)
    assert np.max(np.abs(vals - ref_vals)) <= TOL
    assert np.linalg.norm(h @ vecs - vecs * vals) <= TOL

    data = spectral_data(h)
    ground = ref_vals < ZERO_TOL
    assert data.ground_degeneracy == int(np.sum(ground))
    assert abs(data.epsilon - ref_vals[~ground][0]) <= TOL
    ref_proj = ref_vecs[:, ground] @ ref_vecs[:, ground].conj().T
    # A spectral projector is determined to (backward error) / (gap above ZERO_TOL),
    # so the tolerance grows when the first excited level sits close to zero.
    assert np.max(np.abs(data.ground_projector - ref_proj)) <= TOL / min(1.0, data.epsilon)


@PROPERTY_SETTINGS
@given(instances(("restricted",)) | instances(("type-ii",)) | instances(("restricted", "type-ii")))
def test_weight_conserving_hamiltonian_splits_into_blocks(inst):
    h = build_hamiltonian(inst)
    assert len(weight_squares(h)) == inst.n + 1
    assert_matches_full_eigh(h)


@PROPERTY_SETTINGS
@given(one_block_instances())
def test_disguised_and_arbitrary_hamiltonians_match_full_eigh(inst):
    assert_matches_full_eigh(build_hamiltonian(inst))
