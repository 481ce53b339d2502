import itertools
import re

import numpy as np
import pytest

from qsatwalk import channel, densesim
from qsatwalk.channel import apply_clause_channel, apply_step_channel, evolve
from qsatwalk.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NonRealExpectation,
    NotHermitian,
    NumericalDrift,
    ParseError,
    ZeroVector,
)
from qsatwalk.instance import Clause, deserialize, generate_planted_restricted
from qsatwalk.trajectory import run_ensemble

from helpers import (
    embed_oracle,
    embed_single,
    pure_density,
    random_hermitian,
    random_state_vector,
    weight_blocks_oracle,
    weight_squares,
)

SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_embed_identity_is_identity():
    got = densesim.kron_embed(np.eye(4), 0, 2, 4)
    assert np.allclose(got, np.eye(16))


def test_embed_zz_adjacent():
    got = densesim.kron_embed(np.kron(SZ, SZ), 0, 1, 2)
    assert np.allclose(got, np.diag([1, -1, -1, 1]))


def test_embed_projector_nonadjacent_eigenvector():
    p11 = np.zeros((4, 4), dtype=complex)
    p11[3, 3] = 1.0
    op = densesim.kron_embed(p11, 0, 2, 3)
    psi = densesim.basis_state(3, 0b101)
    assert np.allclose(op @ psi, psi)


@pytest.mark.parametrize("seed", range(8))
def test_embed_matches_index_oracle(seed):
    """A random operator per seed, on every ordered pair of every n in 2..5."""
    rng = np.random.default_rng(seed)
    op4 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for n in range(2, 6):
        for i, j in itertools.permutations(range(n), 2):
            got = densesim.kron_embed(op4, i, j, n)
            assert np.max(np.abs(got - embed_oracle(op4, i, j, n))) < 1e-12


def test_embed_disjoint_supports_commute():
    rng = np.random.default_rng(3)
    for n in (4, 5):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        ea = densesim.kron_embed(a, 0, 1, n)
        eb = densesim.kron_embed(b, 2, 3, n)
        assert np.max(np.abs(ea @ eb - eb @ ea)) < 1e-10


def test_embed_bad_indices():
    with pytest.raises(IndexOutOfRange):
        densesim.kron_embed(np.eye(4), 1, 1, 3)
    with pytest.raises(IndexOutOfRange):
        densesim.kron_embed(np.eye(4), 0, 3, 3)


def test_hermitian_eig_sigma_z():
    vals, vecs = densesim.hermitian_eig(SZ)
    assert np.allclose(vals, [-1, 1])
    assert np.allclose(vecs @ vecs.conj().T, np.eye(2))


def test_hermitian_eig_singlet_projector():
    singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    vals, _ = densesim.hermitian_eig(np.outer(singlet, singlet.conj()))
    assert np.allclose(vals, [0, 0, 0, 1], atol=1e-12)


def test_hermitian_eig_reconstruction_residual():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        a = random_hermitian(n, rng)
        vals, vecs = densesim.hermitian_eig(a)
        recon = (vecs * vals) @ vecs.conj().T
        assert np.max(np.abs(recon - a)) < 1e-8
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(2**n))) < 1e-8


def test_hermitian_eig_projector_eigenvalues_binary():
    rng = np.random.default_rng(6)
    v = random_state_vector(3, rng)
    vals, _ = densesim.hermitian_eig(np.outer(v, v.conj()))
    assert np.all((np.abs(vals) < 1e-8) | (np.abs(vals - 1) < 1e-8))


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        densesim.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_expectation_basics():
    assert densesim.expectation(SZ, np.diag([1.0, 0.0]).astype(complex)) == 1.0
    psi = densesim.basis_state(2, 0b01)
    zz = densesim.kron_embed(np.kron(SZ, SZ), 0, 1, 2)
    assert densesim.expectation(zz, psi) == -1.0


def test_expectation_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        densesim.expectation(np.eye(4), densesim.basis_state(3, 0))
    with pytest.raises(DimensionMismatch):
        densesim.expectation(np.ones(4), densesim.maximally_mixed(3))


def test_expectation_reads_a_vector_as_a_diagonal():
    rng = np.random.default_rng(8)
    for n in (1, 2, 4):
        diag = rng.standard_normal(2**n)
        psi = random_state_vector(n, rng)
        rho = densesim.random_density_matrix(n, rng)
        for state in (psi, rho):
            dense = densesim.expectation(np.diag(diag), state)
            assert abs(densesim.expectation(diag, state) - dense) <= 1e-12


def test_expectation_rejects_complex_result():
    a = np.array([[0, 1j], [0, 0]], dtype=complex)
    with pytest.raises(NonRealExpectation):
        densesim.expectation(a, np.eye(2, dtype=complex) / 2 + np.array([[0, 0.25], [0.25, 0]]))


def test_state_and_density_validation():
    with pytest.raises(DimensionMismatch):
        densesim.num_qubits(np.zeros(3))
    rng = np.random.default_rng(7)
    rho = densesim.random_density_matrix(2, rng)
    densesim.as_density_matrix(rho)
    with pytest.raises(NotHermitian):
        densesim.as_density_matrix(rho + np.array([[0, 1e-3, 0, 0]] + [[0] * 4] * 3))


@pytest.mark.parametrize("check", [densesim.hermitian_eig, densesim.as_density_matrix])
@pytest.mark.parametrize("shape, message", [((3, 3), "dimension 3 is not a power of two"),
                                            ((2, 4), r"expected a square matrix, got shape \(2, 4\)")])
def test_shape_is_checked_before_the_weight_blocks(check, shape, message):
    """A matrix not square, or not 2^n on a side, raises DimensionMismatch in the words
    of `num_qubits`, before the Hermiticity check or the packing reads it."""
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        check(np.eye(*shape, dtype=complex))


def _nan_state():
    """I/4 with one NaN between two states of weight 1: every block check sees it
    in the second of three blocks, past the first block's finite deviation."""
    rho = densesim.maximally_mixed(2)
    rho[1, 2] = np.nan
    return rho


NAN_FILE = '{"n": 2, "clauses": [{"i": 0, "j": 1, "amps": [[NaN, 0], [0, 0], [0, 0], [1, 0]]}]}'
NAN_DIAGONAL = np.array([np.nan, 1.0, 1.0, 1.0])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Clause(0, 1, np.array([np.nan, 0, 0, 1])), ZeroVector, "squared norm nan"),
        (lambda: deserialize(NAN_FILE), ParseError, r"squared norm nan.*clauses\[0\]"),
        (lambda: densesim.as_density_matrix(_nan_state()), NotHermitian,
         "^density matrix deviates from Hermitian by nan$"),
        (lambda: densesim.hermitian_eig(_nan_state()), NotHermitian, "^matrix deviates from Hermitian by nan$"),
        (lambda: apply_step_channel(_nan_state(), generate_planted_restricted(2, 1, seed=0)), NotHermitian,
         "^matrix deviates from Hermitian by nan$"),
        (lambda: evolve(_nan_state(), generate_planted_restricted(2, 1, seed=0), 1), NotHermitian,
         "^density matrix deviates from Hermitian by nan$"),
        (lambda: run_ensemble(generate_planted_restricted(2, 1, seed=0), 1, 1, 0, operators={"S": NAN_DIAGONAL}),
         NotHermitian, "^operator 'S' deviates from Hermitian by nan$"),
        (lambda: densesim.expectation(NAN_DIAGONAL, densesim.basis_state(2, 1)), NonRealExpectation,
         "imaginary part nan"),
        (lambda: channel._resymmetrize(densesim._sectors(2).pack(_nan_state()), densesim._sectors(2), 100),
         NumericalDrift, "hermiticity nan"),
    ],
    ids=["clause", "deserialize", "as_density_matrix", "hermitian_eig", "apply_step_channel", "evolve",
         "run_ensemble", "expectation", "resymmetrize"],
)
def test_nan_fails_each_entry_points_own_check(call, error, message):
    """A check written `x > tol` is false for NaN; each is written `not x <= tol`."""
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: densesim.num_qubits(np.zeros((2, 2, 2))), DimensionMismatch, "^expected a vector or matrix, got ndim=3$"),
        (lambda: densesim.basis_state(2, 4), IndexOutOfRange, r"^basis index 4 outside \[0, 2\^2\)$"),
        (lambda: densesim.as_density_matrix(np.full(4, 0.5)), DimensionMismatch, "^density matrix must be 2-D$"),
        (lambda: densesim.as_density_matrix(np.full(4, 0.25)), DimensionMismatch, "^density matrix must be 2-D$"),
        (lambda: densesim.hermitian_eig(np.ones(4)), DimensionMismatch, "^matrix must be 2-D$"),
        (lambda: apply_clause_channel(np.ones(4) / 4, generate_planted_restricted(2, 1, seed=0).clauses[0]),
         DimensionMismatch, "^density matrix must be 2-D$"),
        (lambda: apply_step_channel(np.ones(4) / 4, generate_planted_restricted(2, 1, seed=0)),
         DimensionMismatch, "^density matrix must be 2-D$"),
        (lambda: densesim.as_density_matrix(np.eye(4) / 2), DimensionMismatch, r"^density matrix trace \(2\+0j\) is not 1"),
        (lambda: densesim.kron_embed(np.eye(2), 0, 1, 2), DimensionMismatch, r"^expected a 4x4 operator, got shape \(2, 2\)$"),
        (lambda: densesim.product_unitary([np.eye(2), np.eye(4)]), DimensionMismatch,
         r"^block 1 has shape \(4, 4\), expected 2x2$"),
        (lambda: densesim.expectation(np.eye(2), np.zeros((2, 2, 2))), DimensionMismatch,
         "^state must be a vector or a square matrix$"),
    ],
    ids=["num_qubits-3-d", "basis_state-index", "density-1-d", "density-1-d-unit-trace", "hermitian_eig-1-d",
         "apply_clause_channel-1-d", "apply_step_channel-1-d", "density-trace", "kron_embed-2x2", "product_unitary-4x4", "expectation-3-d"],
)
def test_malformed_input_names_the_broken_invariant(call, error, message):
    with pytest.raises(error, match=message):
        call()


def _named_eigenvalue(rho):
    """The eigenvalue the PSD check names in its message."""
    with pytest.raises(DimensionMismatch, match="eigenvalue") as err:
        densesim.as_density_matrix(rho)
    return float(re.search(r"eigenvalue (\S+) <", str(err.value)).group(1))


def test_psd_check_rejects_a_negative_eigenvalue_in_one_weight_block():
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = 0.2
    rho[np.ix_([1, 2, 4], [1, 2, 4])] = 0.3 * np.ones((3, 3)) - 0.1 * np.eye(3)   # 0.8, -0.1, -0.1
    rho[np.ix_([3, 5], [3, 5])] = [[0.1, 0.35], [0.35, 0.1]]                      # 0.45, -0.25
    assert len(weight_squares(rho)) == 4
    assert abs(_named_eigenvalue(rho) - (-0.25)) < 1e-12


def test_psd_check_rejects_a_negative_eigenvalue_across_weights():
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 3] = rho[3, 0] = 0.3                                                   # -0.05
    assert len(weight_squares(rho)) == 1
    assert abs(_named_eigenvalue(rho) - (-0.05)) < 1e-12


def test_psd_check_accepts_rank_deficient_block_states():
    for n in range(1, 6):
        for index in (0, 2**n - 1):
            densesim.as_density_matrix(pure_density(densesim.basis_state(n, index)))
    start = pure_density(densesim.basis_state(5, 0b00111))
    series = evolve(start, generate_planted_restricted(5, 10, seed=8), 5, snapshot_schedule=(5,))
    rho = series.snapshots[5]
    assert len(weight_squares(rho)) == 6
    assert np.sum(np.abs(np.linalg.eigvalsh(rho)) < 1e-12) >= 8     # rank-deficient
    densesim.as_density_matrix(rho)


def _weight_block_state(n, rng):
    """A random full-rank density matrix with nothing between Hamming weights."""
    rho = np.zeros((2**n, 2**n), dtype=complex)
    for b, _, _ in weight_blocks_oracle(rho):
        g = rng.standard_normal((len(b), len(b))) + 1j * rng.standard_normal((len(b), len(b)))
        rho[np.ix_(b, b)] = g @ g.conj().T
    return rho / np.trace(rho)


def _named_number(call, error):
    with pytest.raises(error) as err:
        call()
    return float(re.search(r"(?:by|eigenvalue) (\S+)(?: <|$)", str(err.value)).group(1))


@pytest.mark.parametrize("n", [5, 11], ids=["n5", "n11"])
def test_packed_check_errors_read_the_weight_blocks(n):
    """On the packed branch, at a small n and at n = 11: the NotHermitian deviation is
    the per-block max |a - a^dagger| bit for bit, a NaN in one block raises, and the
    smallest eigenvalue over the blocks is the one named."""
    rng = np.random.default_rng(80 + n)
    rho = _weight_block_state(n, rng)
    blocks = [b for b, _, _ in weight_blocks_oracle(rho)]
    broken = rho.copy()
    for b in blocks[1:3]:
        broken[np.ix_(b, b)] += 1e-6 * rng.standard_normal((len(b), len(b)))   # real noise: not Hermitian
    want = max(np.max(np.abs(s - s.conj().T)) for _, s, _ in weight_blocks_oracle(broken))
    assert _named_number(lambda: densesim.as_density_matrix(broken), NotHermitian) == want
    broken = rho.copy()
    broken[blocks[n // 2][0], blocks[n // 2][1]] = np.nan
    with pytest.raises(NotHermitian, match="^density matrix deviates from Hermitian by nan$"):
        densesim.as_density_matrix(broken)
    broken = rho.copy()
    broken[blocks[1], blocks[1]] -= 0.5 / n                  # block 1 turns negative, block n-1 takes its
    broken[blocks[n - 1], blocks[n - 1]] += 0.5 / n          # trace, both of n states
    want = min(np.linalg.eigvalsh((s + s.conj().T) / 2)[0] for _, s, _ in weight_blocks_oracle(broken))
    assert want < -densesim.PSD_TOL
    assert _named_number(lambda: densesim.as_density_matrix(broken), DimensionMismatch) == want


def _block_diagonal(n, rng):
    """A random complex matrix with nothing between Hamming weights, and a copy with
    one entry between weights 0 and 1 at 1e-14."""
    a = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    weights = densesim._hamming_weights(n)
    a[weights[:, None] != weights[None, :]] = 0
    near = a.copy()
    near[0, 1] = 1e-14
    return a, near


@pytest.mark.parametrize("n", range(1, 8))
def test_weight_squares_are_the_gathered_blocks(n):
    """The packed intake gives `a[np.ix_(b, b)]` for each weight block bit for bit, on
    C-ordered, transposed and reversed input, with tol = 0 and with FRAME_ZERO_TOL; the blocks
    are views of one fresh vector; input coupling weights gives `[a]`; the cached block
    index arrays are read-only."""
    from qsatwalk.channel import FRAME_ZERO_TOL

    a, near = _block_diagonal(n, np.random.default_rng(60 + n))
    sec = densesim._sectors(n)
    blocks = sec.blocks
    assert not any(b.flags.writeable for b in blocks)          # cached for the process: read-only
    for x in (a, a.T, a[::-1, ::-1], near):
        tols = (FRAME_ZERO_TOL,) if x is near else (0.0, FRAME_ZERO_TOL)
        for tol in tols:
            squares = weight_squares(x, tol)
            assert len(squares) == n + 1
            for b, square in zip(blocks, squares):
                assert np.array_equal(square, x[np.ix_(b, b)])
            packed = sec.pack(x, tol)
            assert packed.ndim == 1 and not np.shares_memory(packed, x)
            assert all(np.shares_memory(square, packed) for square in sec.views(packed))
    for x, tol in ((near, 0.0), (near, 1e-15)):
        squares = weight_squares(x, tol)
        assert len(squares) == 1 and squares[0] is x
        assert sec.pack(x, tol) is None


def test_product_unitary_order():
    u = densesim.product_unitary([SZ, np.eye(2)])
    assert np.allclose(u, np.diag([1, 1, -1, -1]))
