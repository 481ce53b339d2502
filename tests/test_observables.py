import numpy as np
import pytest

from qsatwalk import densesim
from qsatwalk.errors import DegenerateSpectrum, IndexOutOfRange
from qsatwalk.instance import (
    conjugate_instance,
    generate_no_instance,
    generate_planted_extended,
    generate_planted_restricted,
    make_clause,
    Instance,
    Promise,
)
from qsatwalk.observables import (
    build_hamiltonian,
    clause_projector,
    ground_space_projector,
    instance_spin_operators,
    spectral_data,
)

from helpers import SIGMA_Z, embed_single, random_product_basis

SINGLET = (0, 1 / np.sqrt(2), -1 / np.sqrt(2), 0)


def singlet_instance():
    return Instance(
        n=2,
        clauses=(make_clause(0, 1, SINGLET),),
        planted_basis=(np.eye(2, dtype=complex), np.eye(2, dtype=complex)),
        promise=Promise(kind="yes"),
    )


def spin_operators(n):
    """(S, S^2) of an n-qubit instance without a planted basis: diagonal vectors."""
    return instance_spin_operators(Instance(n=n, clauses=(make_clause(0, 1, (0, 0, 0, 1)),)))


def test_total_spin_small_cases():
    assert np.array_equal(spin_operators(2)[0], [2, 0, 0, -2])
    s3 = spin_operators(3)[0]
    assert s3[0b011] == -1  # |011>


def test_total_spin_squared_small_cases():
    assert np.array_equal(spin_operators(2)[1], [4, 0, 0, 4])
    s2 = spin_operators(3)[1]
    assert s2[0b111] == 9


def test_spin_squared_equals_square():
    for n in range(2, 6):
        s, s2 = spin_operators(n)
        assert s.shape == s2.shape == (2**n,)
        s_dense = sum(embed_single(SIGMA_Z, q, n) for q in range(n))
        assert np.max(np.abs(np.diag(s) - s_dense)) < 1e-10
        assert np.max(np.abs(np.diag(s2) - s_dense @ s_dense)) < 1e-10


def test_spin_squared_bounds_on_random_states():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        rho = densesim.random_density_matrix(n, rng)
        val = densesim.expectation(spin_operators(n)[1], rho)
        assert -1e-10 <= val <= n * n + 1e-10


def test_expectation_spin_on_basis_state():
    psi = densesim.basis_state(3, 0b011)
    assert densesim.expectation(spin_operators(3)[0], psi) == -1.0


def test_type_i_clause_annihilates_pair_spin():
    rng = np.random.default_rng(2)
    for _ in range(20):
        inst = generate_planted_restricted(int(rng.integers(2, 5)), 1, int(rng.integers(2**31)))
        c = inst.clauses[0]
        proj = clause_projector(c, inst.n)
        szi = embed_single(SIGMA_Z, c.i, inst.n)
        szj = embed_single(SIGMA_Z, c.j, inst.n)
        assert np.max(np.abs(proj @ (szi + szj))) < 1e-10
        assert np.max(np.abs((szi + szj) @ proj)) < 1e-10


def test_type_ii_clause_pair_spin_relation():
    c = make_clause(0, 2, (0, 0, 0, 1))
    proj = clause_projector(c, 3)
    szi = embed_single(SIGMA_Z, 0, 3)
    szj = embed_single(SIGMA_Z, 2, 3)
    assert np.max(np.abs(proj @ (szi + szj) + 2 * proj)) < 1e-10
    assert np.max(np.abs((szi + szj) @ proj + 2 * proj)) < 1e-10


def test_hamiltonian_singlet():
    h = build_hamiltonian(singlet_instance())
    vals, _ = densesim.hermitian_eig(h)
    assert np.allclose(vals, [0, 0, 0, 1], atol=1e-12)


def test_hamiltonian_complete_pair_is_identity():
    inst = generate_no_instance(2, "complete_pair")
    h = build_hamiltonian(inst)
    assert np.max(np.abs(h - np.eye(4))) < 1e-12


def test_hamiltonian_yes_instance_has_zero_mode():
    inst = generate_planted_extended(4, 6, 0.5, seed=13)
    vals, _ = densesim.hermitian_eig(build_hamiltonian(inst))
    assert vals[0] <= 1e-10
    assert vals[-1] <= inst.L + 1e-9


def test_spectral_data_singlet():
    data = spectral_data(build_hamiltonian(singlet_instance()))
    assert abs(data.epsilon - 1.0) < 1e-9
    assert data.ground_degeneracy == 3
    assert abs(data.min_eigenvalue) < 1e-10
    p = data.ground_projector
    assert np.max(np.abs(p @ p - p)) < 1e-8
    assert densesim.expectation(build_hamiltonian(singlet_instance()) @ p, densesim.maximally_mixed(2)) < 1e-8


def test_ground_space_projector_is_the_spectral_datas():
    for h in (build_hamiltonian(singlet_instance()), build_hamiltonian(generate_planted_extended(4, 6, 0.5, seed=13))):
        assert np.array_equal(ground_space_projector(h), spectral_data(h).ground_projector)


@pytest.mark.parametrize("kind", ["restricted", "type-ii", "arbitrary", "disguised"])
def test_hamiltonian_is_the_left_to_right_sum_of_clause_projectors(kind):
    """Bit for bit: each entry adds the clauses' values in clause order, as the sum does."""
    rng = np.random.default_rng(70)
    inst = {
        "restricted": lambda: generate_planted_restricted(4, 8, seed=71),
        "type-ii": lambda: generate_planted_extended(4, 8, 1.0, seed=72),
        "arbitrary": lambda: Instance(n=4, clauses=tuple(
            make_clause(i, j, rng.standard_normal(4) + 1j * rng.standard_normal(4))
            for i, j in ((0, 1), (3, 1), (2, 0), (1, 2), (0, 1)))),
        "disguised": lambda: conjugate_instance(generate_planted_extended(4, 8, 0.5, seed=73),
                                                random_product_basis(4, 74)),
    }[kind]()
    projectors = [clause_projector(c, inst.n) for c in inst.clauses]
    total = projectors[0]
    for p in projectors[1:]:
        total = total + p
    assert np.array_equal(build_hamiltonian(inst), total)


def test_clause_projector_rejects_a_clause_outside_the_register():
    with pytest.raises(IndexOutOfRange, match=r"^qubit pair \(0, 2\) invalid for n=2$"):
        clause_projector(make_clause(0, 2, SINGLET), 2)


def test_spectral_data_identity_hamiltonian():
    data = spectral_data(np.eye(4, dtype=complex))
    assert data.ground_degeneracy == 0
    assert abs(data.min_eigenvalue - 1.0) < 1e-12
    assert abs(data.epsilon - 1.0) < 1e-12
    assert np.max(np.abs(data.ground_projector)) == 0.0


def test_spectral_data_rejects_zero_operator():
    with pytest.raises(DegenerateSpectrum):
        spectral_data(np.zeros((4, 4), dtype=complex))


def test_spin_operators_follow_planted_frame():
    from qsatwalk.instance import conjugate_instance

    inst = generate_planted_restricted(3, 3, seed=21)
    basis = random_product_basis(3, 22)
    rotated = conjugate_instance(inst, basis)
    s_plain, s2_plain = instance_spin_operators(inst)
    s_rot, s2_rot = instance_spin_operators(rotated)
    v = densesim.product_unitary(basis)
    assert s_plain.ndim == 1 and s_rot.shape == (8, 8)
    assert np.max(np.abs(s_rot - v @ np.diag(s_plain) @ v.conj().T)) < 1e-10
    assert np.max(np.abs(s2_rot - v @ np.diag(s2_plain) @ v.conj().T)) < 1e-10
    # planted state sits at the top of the spin ladder in its own frame
    psi = rotated.planted_state()
    assert abs(densesim.expectation(s_rot, psi) - 3.0) < 1e-9


def test_spin_operators_are_the_callers_to_write():
    """The operators returned are fresh arrays that the caller may write without
    changing the next call's."""
    for inst in (Instance(n=3, clauses=(make_clause(0, 1, (0, 0, 0, 1)),)),
                 generate_planted_restricted(3, 3, seed=23)):
        s, s2 = instance_spin_operators(inst)
        want_s, want_s2 = s.copy(), s2.copy()
        s[...] = 7.0
        s2 += 1.0
        again = instance_spin_operators(inst)
        assert np.array_equal(again[0], want_s) and np.array_equal(again[1], want_s2)
        assert all(op.flags.writeable for op in again)
