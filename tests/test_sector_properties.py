"""Property tests: `evolve` on Hamming-weight blocks against the full-space kernel.

Eligible inputs (every clause on one Hamming weight of its pair in the
planted frame, and rho0 block-diagonal by weight in that frame) run on packed
blocks. The reference iterates the public full-space step
`apply_step_channel` on the caller's matrix and reads the observables from
dense operators: `build_hamiltonian`, `instance_spin_operators` and the ground
projectors of `ground_spaces`. Ineligible inputs keep the full-space kernel, so
their states and spin series equal the reference exactly.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsatwalk import channel, densesim
from qsatwalk.channel import apply_step_channel, dual_residuals, evolve
from qsatwalk.errors import DimensionMismatch, IndexOutOfRange, NotHermitian
from qsatwalk.instance import ClauseForm, Instance, _derived, conjugate_instance, make_clause
from qsatwalk.observables import ZERO_TOL, build_hamiltonian, instance_spin_operators, spectral_data

from helpers import PROPERTY_SETTINGS, amplitudes, random_instance, random_product_basis, weight_blocks_oracle

TOL = 1e-12
STEPS = 3
# An eigensolver's ground projector is accurate to about eps * ||H|| / gap, and ||H|| <= L;
# trPi0 compares two such projectors, so its bound adds PI0_K * L * eps / gap to TOL.
PI0_K = 2


def ground_spaces(h, L):
    """(projector, gap above it) for H's ground space cut at ZERO_TOL - s and at
    ZERO_TOL + s, s = PI0_K * L * eps: `evolve` sorts H's eigenvalues in the planted
    frame, where one within rounding of ZERO_TOL may land on either side of it. Both
    are `spectral_data`'s projector and epsilon unless an eigenvalue lies that near."""
    vals, vecs = densesim.hermitian_eig(h)
    s = PI0_K * L * np.finfo(float).eps
    cuts = []
    for cut in (ZERO_TOL - s, ZERO_TOL + s):
        ground = vecs[:, vals < cut]
        cuts.append((ground @ ground.conj().T, np.min(vals[vals >= cut], initial=np.inf)))
    return cuts


def reference(rho, inst, steps):
    """States rho_0..rho_steps by the full-space step, (trH, trS, trS2) of each, and
    (trPi0 of each, gap) for each of `ground_spaces`."""
    h = build_hamiltonian(inst)
    cuts = ground_spaces(h, inst.L)
    ops = (h, *instance_spin_operators(inst), *(pi0 for pi0, _ in cuts))
    states = [np.asarray(rho, dtype=complex)]
    for _ in range(steps):
        states.append(apply_step_channel(states[-1], inst))
    series = np.array([[densesim.expectation(op, r) for r in states] for op in ops])
    return states, series[:3], [(tr, gap) for tr, (_, gap) in zip(series[3:], cuts)]


def series_of(out):
    return np.array([out.trH, out.trS, out.trS2, out.trPi0])


def assert_matches_reference(rho, inst, steps=STEPS):
    """trPi0 matches the reference at either ground space cut, each with its own bound."""
    out = evolve(rho, inst, steps, snapshot_schedule=range(steps + 1))
    states, series, pi0 = reference(rho, inst, steps)
    err = np.max(np.abs(series_of(out)[:3] - series), axis=1)
    assert np.all(err <= TOL)
    eps = np.finfo(float).eps
    assert any(np.max(np.abs(out.trPi0 - tr)) <= TOL + PI0_K * inst.L * eps / gap for tr, gap in pi0)
    for t in range(steps + 1):
        assert np.max(np.abs(out.snapshots[t] - states[t])) <= TOL
    return out


@st.composite
def sector_clauses(draw, n, forms):
    i, j = draw(st.permutations(range(n)))[:2]
    form = draw(st.sampled_from(forms))
    amps = (1, 0, 0, 0) if form == "zero-zero" else draw(amplitudes(form))
    return make_clause(i, j, amps)


def block_diagonal_state(n, ranks, rng):
    """Density matrix block-diagonal by Hamming weight, block k of rank ranks[k]."""
    rho = np.zeros((2**n, 2**n), dtype=complex)
    for b, rank in zip(densesim._sectors(n).blocks, ranks):
        g = rng.standard_normal((len(b), rank)) + 1j * rng.standard_normal((len(b), rank))
        rho[np.ix_(b, b)] = g @ g.conj().T
    return rho / np.trace(rho).real


@st.composite
def block_diagonal_states(draw, n):
    """`block_diagonal_state` with each block of a drawn rank (zero allowed), so the
    total rank takes every value from 1 to 2^n."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ranks = [draw(st.integers(0, len(b))) for b in densesim._sectors(n).blocks]
    if sum(ranks) == 0:
        ranks[draw(st.integers(0, n))] = 1
    return block_diagonal_state(n, ranks, rng)


@st.composite
def eligible_cases(draw):
    """A weight-conserving instance (restricted, |11>, |00> or mixed clauses) and a
    block-diagonal state."""
    n = draw(st.integers(2, 6))
    forms = draw(st.sampled_from([("restricted",), ("type-ii",), ("restricted", "type-ii", "zero-zero")]))
    clauses = draw(st.lists(sector_clauses(n, forms), min_size=1, max_size=6))
    return Instance(n=n, clauses=tuple(clauses)), draw(block_diagonal_states(n))


@st.composite
def disguised_cases(draw):
    """A planted restricted/|11> instance rotated by a random product basis, and either
    a state block-diagonal in its planted frame, rotated the same way, or a full-rank
    state, which couples weights in every frame; and whether the state is the former."""
    n = draw(st.integers(2, 5))
    clauses = draw(st.lists(sector_clauses(n, ("restricted", "type-ii")), min_size=1, max_size=6))
    planted = Instance(n=n, clauses=tuple(clauses), planted_basis=tuple(np.eye(2) for _ in range(n)))
    basis = random_product_basis(n, draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return conjugate_instance(planted, basis), densesim.random_density_matrix(n, rng), False
    v = densesim.product_unitary(basis)
    rho = draw(block_diagonal_states(n))
    return conjugate_instance(planted, basis), v @ rho @ v.conj().T, True


@PROPERTY_SETTINGS
@given(eligible_cases())
def test_sector_evolve_matches_full_kernel(case):
    inst, rho = case
    assert_matches_reference(rho, inst)
    assert _derived(inst, channel._prepare).cut is not None


@PROPERTY_SETTINGS
@given(disguised_cases())
def test_sector_evolve_matches_full_kernel_in_disguised_frames(case):
    inst, rho, packed = case
    assert_matches_reference(rho, inst)
    assert (_derived(inst, channel._Layout, False).plans is not None) == packed      # which layout ran


def test_eigenvalue_within_rounding_of_zero_tol_may_fall_on_either_side():
    """Two clauses on (0, 1) 1.4e-5 rad apart: H's small eigenvalue is 9.99998973e-11
    in the planted frame's weight block, which `evolve` counts as ground (trPi0 = 0.75
    at I/4), and 1.00000039e-10 in the disguised dense H, which the cut at ZERO_TOL
    does not (0.5)."""
    a, theta = 0.3, 1.4142130580341353e-05
    clauses = tuple(make_clause(0, 1, (0, np.cos(x), np.sin(x), 0)) for x in (a, a + theta))
    planted = Instance(n=2, clauses=clauses, planted_basis=(np.eye(2), np.eye(2)))
    inst = conjugate_instance(planted, random_product_basis(2, 3))
    assert spectral_data(build_hamiltonian(inst)).ground_degeneracy == 2
    assert evolve(densesim.maximally_mixed(2), inst, 0).trPi0[0] == pytest.approx(0.75)
    assert_matches_reference(densesim.maximally_mixed(2), inst)


def test_small_gap_bounds_trpi0_by_the_gap():
    """Three clauses on (0, 1), two equal and the third 3e-3 rad from them, with one on
    (0, 2): H has an 8-fold ground space and a gap of 3.7e-6, so the two ground
    projectors differ by more than TOL (4.8e-12 in trPi0 here) but within the gap bound."""
    a, theta = (0, 0.6, 0.8, 0), np.arctan2(0.8, 0.6) + 3e-3
    clauses = (make_clause(0, 1, a), make_clause(0, 1, a), make_clause(0, 1, (0, np.cos(theta), np.sin(theta), 0)),
               make_clause(0, 2, (0, 0.6, 0.8j, 0)))
    planted = Instance(n=5, clauses=clauses, planted_basis=tuple(np.eye(2) for _ in range(5)))
    basis = random_product_basis(5, 3)
    inst = conjugate_instance(planted, basis)
    data = spectral_data(build_hamiltonian(inst))
    assert data.ground_degeneracy == 8 and data.epsilon < 1e-5
    v = densesim.product_unitary(basis)
    rho = block_diagonal_state(5, [1, 5, 10, 10, 5, 1], np.random.default_rng(3))
    assert_matches_reference(v @ rho @ v.conj().T, inst)


def assert_exactly_full_kernel(rho, inst, steps=STEPS):
    """States and spin series bit for bit; trH and trPi0 now read the clause weights
    and a ground-space basis, so they agree to rounding."""
    out = assert_matches_reference(rho, inst, steps)
    states, series, _ = reference(rho, inst, steps)
    for t in range(steps + 1):
        assert np.array_equal(out.snapshots[t], states[t])
    assert np.array_equal(out.trS, series[1]) and np.array_equal(out.trS2, series[2])


def test_ineligible_clause_keeps_full_kernel_exactly():
    """A |00> + |11> clause couples weights 0 and 2 of its pair."""
    rng = np.random.default_rng(21)
    clauses = (make_clause(0, 2, (1, 0, 0, 1)), make_clause(1, 3, (0, 0.6, 0.8, 0)))
    inst = Instance(n=4, clauses=clauses)
    for rho in (densesim.maximally_mixed(4), densesim.random_density_matrix(4, rng)):
        assert_exactly_full_kernel(rho, inst)
    assert _derived(inst, channel._prepare).cut is None


def test_state_coupling_weights_keeps_full_kernel_exactly():
    """An eligible instance started from a state with entries between weights."""
    rng = np.random.default_rng(22)
    inst = Instance(n=4, clauses=(make_clause(0, 1, (0, 0.6, 0.8j, 0)), make_clause(2, 3, (0, 0, 0, 1))))
    rho = densesim.maximally_mixed(4)
    rho[0, 3] = rho[3, 0] = 0.01
    for start in (rho, densesim.random_density_matrix(4, rng)):
        assert_exactly_full_kernel(start, inst)
    prep = _derived(inst, channel._prepare)
    assert _derived(inst, channel._Layout, False).plans is None   # the packed path never stepped
    assert all(len(g) == len(densesim._sectors(4).blocks[k]) for k, g in prep.ground)   # H by weight block


def _chunked_matches(inst, rho, a, b):
    whole = evolve(rho, inst, a + b, snapshot_schedule=(a + b,))
    first = evolve(rho, inst, a, snapshot_schedule=(a,))
    second = evolve(first.snapshots[a], inst, b, snapshot_schedule=(b,))
    joined = np.concatenate([series_of(first)[:, :a], series_of(second)], axis=1)
    assert np.max(np.abs(series_of(whole) - joined)) <= TOL
    assert np.max(np.abs(whole.snapshots[a + b] - second.snapshots[b])) <= TOL


def test_chunked_evolve_equals_one_call():
    """evolve(rho, a + b) against evolve(rho, a) then evolve(snapshot, b), on an eligible
    (disguised) and an ineligible instance: the memo and pack/unpack round trip."""
    planted = Instance(n=4, clauses=(make_clause(0, 1, (0, 0.6, 0.8, 0)), make_clause(1, 2, (0, 0, 0, 1)),
                                     make_clause(2, 3, (0, 1, 1j, 0)), make_clause(0, 3, (0, 1, -1, 0))),
                       planted_basis=tuple(np.eye(2) for _ in range(4)))
    eligible = conjugate_instance(planted, random_product_basis(4, 23))
    ineligible = Instance(n=4, clauses=(make_clause(0, 1, (1, 0, 0, 1)), make_clause(2, 3, (0, 1, 1, 0))))
    for inst in (eligible, ineligible):
        _chunked_matches(inst, densesim.maximally_mixed(4), 7, 5)
    assert _derived(eligible, channel._Layout, False).plans is not None
    assert _derived(ineligible, channel._prepare).cut is None


def test_zero_steps_build_no_plans_and_n8_plans_are_small():
    from qsatwalk.instance import generate_planted_restricted

    inst = generate_planted_restricted(8, 16, seed=24)
    evolve(densesim.maximally_mixed(8), inst, 0)
    assert _derived(inst, channel._Layout, False).plans is None
    evolve(densesim.maximally_mixed(8), inst, 1)
    # each of the 16 restricted clauses reads c through 2 x 2 rows and writes G (x) c through
    # 2 more (|00> and |11>), each one position per entry on or above the diagonal of a packed
    # 6-qubit matrix, (C(12, 6) + 2^6) / 2
    assert 0 < sum(p.nbytes for p in _derived(inst, channel._Layout, False).plans) <= 16 * 6 * 494 * np.intp().itemsize


def _half_plan_cases():
    """Restricted, extended (with |11>) and disguised instances at n = 2..7, and one with
    two clauses on one pair, a complex restricted clause and a |11> clause with i > j."""
    from qsatwalk.instance import generate_planted_extended, generate_planted_restricted

    for n in range(2, 8):
        yield generate_planted_restricted(n, 2 * n, seed=100 + n)
        yield generate_planted_extended(n, 2 * n, 0.5, seed=110 + n)
        planted = generate_planted_extended(n, n + 1, 0.3, seed=120 + n)
        yield conjugate_instance(planted, random_product_basis(n, 130 + n))
        yield Instance(n=n, clauses=(make_clause(0, 1, (0, 0.6, 0.8, 0)), make_clause(0, 1, (0, 1, 1j, 0)),
                                     make_clause(1, 0, (0, 0.8j, -0.6, 0)), make_clause(n - 1, 0, (0, 0, 0, 1))))


def _packed_rows_and_cols(n):
    """The dense row and column of every entry of the packed n-qubit state."""
    sec = densesim._sectors(n)
    rows, cols = [], []
    for b, (_, m) in zip(sec.blocks, sec.squares):
        rows.append(np.repeat(b, m))
        cols.append(np.tile(b, m))
    return np.concatenate(rows), np.concatenate(cols)


def test_half_plans_write_each_clause_update_exactly_once():
    """Per clause of the packed layout: the plan's positions are distinct, row k is where
    rho's entry (b (x) r, b2 (x) s) sits for the pair values b, b2 of terms.g[k] and every
    (r, s) of one weight with r <= s, in the same order in every row; and X + X^dagger
    from that clause alone, on a random Hermitian block-diagonal rho, is the dense
    w G (x) c that `_add_clause_update` writes on the unpacked matrix."""
    rng = np.random.default_rng(140)
    for inst in _half_plan_cases():
        n, layout = inst.n, _derived(inst, channel._Layout, False)
        sec, (rows, cols) = densesim._sectors(n), _packed_rows_and_cols(n)
        weights = [bin(r).count("1") for r in range(2 ** (n - 2))]
        upper = [(r, s) for r in range(2 ** (n - 2)) for s in range(r, 2 ** (n - 2)) if weights[r] == weights[s]]
        rho = np.zeros((2**n, 2**n), dtype=complex)
        for b in sec.blocks:
            g = rng.standard_normal((len(b), len(b))) + 1j * rng.standard_normal((len(b), len(b)))
            rho[np.ix_(b, b)] = g + g.conj().T
        state, w = sec.pack(rho), 1.0 / inst.L
        for terms, read in zip(layout.terms, layout.reads):
            plan = channel._sector_plan(terms, n, channel._upper_entries(n - 2))
            assert len(np.unique(plan)) == plan.size
            columns = []
            for (x, y, x2, y2, _), positions in zip(terms.g, plan):
                (r0, rx, r1, ry, r2), (s0, sx, s1, sy, s2) = (np.unravel_index(a[positions], terms.pair)
                                                              for a in (rows, cols))
                assert np.all(rx == x) and np.all(ry == y) and np.all(sx == x2) and np.all(sy == y2)
                rest = terms.pair[0::2]
                columns.append(list(zip(np.ravel_multi_index((r0, r1, r2), rest).tolist(),
                                        np.ravel_multi_index((s0, s1, s2), rest).tolist())))
            assert all(c == columns[0] for c in columns) and sorted(columns[0]) == upper
            delta = np.zeros_like(state)
            channel._add_sector_update(state, delta, read, plan, layout.scale)
            packed = sec.unpack(channel._hermitian_sum(np.zeros_like(state), delta, sec))
            both, phi_only = (np.zeros_like(rho) for _ in range(2))
            channel._add_clause_update(rho, both, terms, w)
            channel._add_clause_update(rho, phi_only, dataclasses.replace(terms, g=()), w)
            half = both - phi_only                                   # (w/2) G (x) c
            assert np.max(np.abs(packed - (half + half.conj().T))) <= 1e-14


def test_wide_plans_stay_below_the_packed_state():
    """At n = 11 one step keeps one plan per clause, each of shape (len(terms.g), the
    entries of a weight block of c on and above its diagonal) and smaller than the
    packed state; the check's mirror array is kept, and both index arrays of the layout
    cover its entries."""
    from qsatwalk.instance import generate_planted_extended

    n = 11
    inst = generate_planted_extended(n, 2, 0.5, seed=25)
    sec, layout = densesim._sectors(n), _derived(inst, channel._Layout, False)
    evolve(np.full(2**n, 2.0**-n), inst, 1)
    assert "mirror" in vars(sec)                             # the check's index array, kept
    assert len(layout.plans) == len(layout.terms) == 2
    for terms, plan in zip(layout.terms, layout.plans):
        assert plan.shape == (len(terms.g), len(channel._upper_entries(n - 2)[0]))
        assert plan.nbytes < 16 * sec.size
    assert sec.dense.shape == sec.mirror.shape == (sec.size,)


def _packed_h_cases():
    """Restricted, extended and disguised instances at n = 2..6."""
    from qsatwalk.instance import generate_planted_extended, generate_planted_restricted

    for n in range(2, 7):
        yield generate_planted_restricted(n, 2 * n, seed=30 + n)
        yield generate_planted_extended(n, 2 * n, 0.5, seed=40 + n)
        yield conjugate_instance(generate_planted_extended(n, n + 1, 0.3, seed=50 + n), random_product_basis(n, 60 + n))


def test_packed_h_is_the_hamiltonian_in_the_planted_frame():
    """The packed H the step multiplies by equals the weight blocks of `build_hamiltonian`,
    rotated into the planted frame, and that rotated H has nothing between weights."""
    for inst in _packed_h_cases():
        prep = _derived(inst, channel._prepare)
        frame = prep.frame or [np.eye(2)] * inst.n
        v = densesim.product_unitary(frame)
        h = v.conj().T @ build_hamiltonian(inst) @ v
        for square, b in zip(prep.weight_h, densesim._sectors(inst.n).blocks):
            assert np.max(np.abs(square - h[np.ix_(b, b)])) <= TOL
            h[np.ix_(b, b)] = 0
        assert np.max(np.abs(h)) <= TOL


def test_packed_step_energy_equals_the_entries_energy():
    """tr[H rho] that the packed layout's `observe` reads first equals the dense
    tr[H rho] in the planted frame."""
    rng = np.random.default_rng(28)
    for inst in _packed_h_cases():
        n, prep = inst.n, _derived(inst, channel._prepare)
        rho = block_diagonal_state(n, [len(b) for b in densesim._sectors(n).blocks], rng)
        run = _derived(inst, channel._Layout, False)
        state = np.concatenate([densesim._block(rho, b).ravel() for b in densesim._sectors(n).blocks])
        energy = run.observe(state)[0]
        v = densesim.product_unitary(prep.frame or [np.eye(2)] * n)
        assert abs(energy - densesim.expectation(v.conj().T @ build_hamiltonian(inst) @ v, rho)) <= TOL


def test_dual_residuals_classifies_clauses_in_the_planted_frame():
    """A planted |11> clause and a restricted one, disguised: each keeps its own drift law."""
    planted = Instance(n=4, clauses=(make_clause(1, 3, (0, 0, 0, 1)), make_clause(0, 2, (0, 0.6, 0.8, 0))),
                       planted_basis=tuple(np.eye(2) for _ in range(4)))
    inst = conjugate_instance(planted, random_product_basis(4, 26))
    rng = np.random.default_rng(27)
    report = dual_residuals(inst, [densesim.random_density_matrix(4, rng) for _ in range(5)])
    assert [item.form for item in report] == [ClauseForm.TYPE_II, ClauseForm.RESTRICTED_TYPE_I]
    assert max(item.max_residual for item in report) <= 1e-9


def test_unpack_inverts_the_packing_exactly():
    """`_Sectors.unpack` scatters a packed vector into the dense matrix from which
    `_Sectors.pack` gathers it again, bit for bit, at n = 2..8; on the whole-space
    record the one view is the row-major matrix and `unpack` a fresh copy of it."""
    rng = np.random.default_rng(29)
    for n in range(2, 9):
        sec = densesim._sectors(n)
        packed = rng.standard_normal(sec.size) + 1j * rng.standard_normal(sec.size)
        dense = sec.unpack(packed)
        assert np.array_equal(sec.pack(dense), packed)
        for b, square in zip(sec.blocks, sec.views(packed)):
            assert np.array_equal(dense[np.ix_(b, b)], square)
            dense[np.ix_(b, b)] = 0
        assert not dense.any()                                 # nothing between weights
        whole = densesim._sectors(n, whole=True)
        flat = rng.standard_normal(4**n) + 1j * rng.standard_normal(4**n)
        (view,) = whole.views(flat)
        assert np.shares_memory(view, flat) and np.array_equal(view, flat.reshape(2**n, 2**n))
        dense = whole.unpack(flat)
        assert not np.shares_memory(dense, flat) and np.array_equal(dense, view)


@pytest.mark.parametrize("n", range(2, 10))
def test_maps_agree_with_the_per_block_reference(n):
    """The dense index array lists each block's `np.add.outer` positions in block order,
    so `pack` gathers a random complex matrix's weight blocks `a[b][:, b]` and `unpack`
    scatters them as the per-block reference does, bit for bit; the mirror array reads
    each block's transpose."""
    rng = np.random.default_rng(70 + n)
    d = 2**n
    reference = weight_blocks_oracle(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    sec = densesim._sectors(n)
    flat, mirror = sec.dense, sec.mirror
    assert len(flat) == sec.size
    assert np.array_equal(flat, np.concatenate([positions.ravel() for _, _, positions in reference]))
    blocks = np.zeros(d * d, dtype=complex)
    for _, square, positions in reference:
        blocks[positions] = square                          # the per-block scatter
    blocks = blocks.reshape(d, d)
    packed = sec.pack(blocks)
    assert np.array_equal(packed, np.concatenate([square.ravel() for _, square, _ in reference]))
    assert np.array_equal(sec.unpack(packed), blocks)
    for (_, square, _), mirrored in zip(reference, sec.views(packed[mirror])):
        assert np.array_equal(mirrored, square.T)


def _chain_cases():
    from qsatwalk.instance import generate_planted_extended, generate_planted_restricted

    for n in (3, 5, 7):
        yield generate_planted_restricted(n, 2 * n, seed=70 + n), True
        yield generate_planted_extended(n, 2 * n, 0.5, seed=80 + n), True
        yield conjugate_instance(generate_planted_extended(n, n + 1, 0.3, seed=90 + n),
                                 random_product_basis(n, 95 + n)), False


def test_chained_two_step_calls_equal_one_long_call():
    """Ten `evolve` calls of 2 steps, each from the last one's snapshot (the benchmark's
    pattern), against one call of 20: series and final snapshot bit for bit in the
    identity frame, where a snapshot unpacks the state and the next call gathers the
    same entries back; in a disguised frame each call rotates into the planted frame
    and back, so there they agree to rounding."""
    for inst, exact in _chain_cases():
        rho = densesim.maximally_mixed(inst.n)
        whole = evolve(rho, inst, 20, snapshot_schedule=(20,))
        parts = []
        for _ in range(10):
            out = evolve(rho, inst, 2, snapshot_schedule=(2,))
            parts.append(series_of(out)[:, :2])
            rho = out.snapshots[2]
        joined = np.concatenate([*parts, series_of(out)[:, 2:]], axis=1)
        if exact:
            assert np.array_equal(joined, series_of(whole))
            assert np.array_equal(rho, whole.snapshots[20])
        else:
            assert np.max(np.abs(joined - series_of(whole))) <= TOL
            assert np.max(np.abs(rho - whole.snapshots[20])) <= TOL


def test_evolve_leaves_rho0_alone_and_snapshots_own_their_memory():
    """On weight blocks in the identity and a disguised frame, and on the whole space:
    the state `channel._start` returns never shares memory with rho0 (`_resymmetrize`
    writes it in place), a 100-step run leaves rho0 unchanged, and no
    snapshot shares memory with rho0 or with another snapshot."""
    rng = np.random.default_rng(30)
    planted = Instance(n=3, clauses=(make_clause(0, 1, (0, 0.6, 0.8, 0)), make_clause(1, 2, (0, 0, 0, 1))),
                       planted_basis=tuple(np.eye(2) for _ in range(3)))
    cases = ((planted, densesim.maximally_mixed(3), False),
             (conjugate_instance(planted, random_product_basis(3, 31)), densesim.maximally_mixed(3), False),
             (planted, densesim.random_density_matrix(3, rng), True),
             (Instance(n=3, clauses=(make_clause(0, 2, (1, 0, 0, 1)),)), densesim.maximally_mixed(3), True))
    for inst, rho0, whole in cases:
        before = rho0.copy()
        run, state = channel._start(inst, rho0)
        assert run.whole == whole and not np.shares_memory(state, rho0)
        out = evolve(rho0, inst, 100, snapshot_schedule=(0, 1, 100))
        assert np.array_equal(rho0, before)
        snaps = list(out.snapshots.values())
        assert not any(np.shares_memory(s, rho0) for s in snaps)
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(snaps, 2))


def _diagonal_cases():
    """(instance, steps) on weight blocks in the identity frame (restricted and extended),
    in a disguised frame, and with arbitrary clauses on the whole space, at n = 2..9; the
    101 steps at n = 2 cross a resymmetrization."""
    from qsatwalk.instance import generate_planted_extended, generate_planted_restricted

    for n, steps in ((2, 101), (3, 12), (5, 6), (7, 3), (9, 2)):
        yield generate_planted_restricted(n, 2 * n, seed=150 + n), steps
        yield generate_planted_extended(n, 2 * n, 0.5, seed=160 + n), steps
        yield conjugate_instance(generate_planted_extended(n, n + 1, 0.3, seed=170 + n),
                                 random_product_basis(n, 180 + n)), steps
        yield random_instance(n, 190 + n), steps


def test_diagonal_rho0_runs_as_its_matrix():
    """`evolve(p, ...)` equals `evolve(np.diag(p), ...)` bit for bit, series and snapshots,
    for the maximally mixed and a random diagonal."""
    rng = np.random.default_rng(200)
    for inst, steps in _diagonal_cases():
        d, schedule = 2**inst.n, (0, steps // 2, steps)
        for p in (np.full(d, 1.0 / d), rng.random(d)):
            p /= p.sum()
            want = evolve(np.diag(p), inst, steps, snapshot_schedule=schedule)
            got = evolve(p, inst, steps, snapshot_schedule=schedule)
            assert np.array_equal(series_of(got), series_of(want))
            assert all(np.array_equal(got.snapshots[t], want.snapshots[t]) for t in schedule)


def _broken_diagonal(kind):
    """A random 5-qubit diagonal, broken as `kind` names."""
    p = np.random.default_rng(210).random(32) + 0.1
    p = (p / p.sum()).astype(complex)
    if kind == "nan":
        p[7] = np.nan
    elif kind == "imaginary":
        p[9] += 0.01j
    elif kind == "negative":
        p[[10, 12]] += (-0.2, 0.2)                   # the trace stays 1
    elif kind == "trace":
        p *= 1.5
    elif kind == "short":
        p = p[:8] / p[:8].sum()                      # a diagonal of another register
    else:
        p = np.full(6, 1 / 6)
    return p


@pytest.mark.parametrize("kind, error", [("nan", NotHermitian), ("imaginary", NotHermitian),
                                         ("negative", DimensionMismatch), ("trace", DimensionMismatch),
                                         ("short", IndexOutOfRange), ("not-a-power-of-two", DimensionMismatch)])
def test_diagonal_rho0_fails_as_its_matrix(kind, error):
    """A broken diagonal raises the exception type and message of its `np.diag`, on an
    n = 5 instance: a NaN, an imaginary or a negative entry, a trace off 1, a length of
    another register, and a length that is no power of two."""
    from qsatwalk.instance import generate_planted_restricted

    inst, p = generate_planted_restricted(5, 10, seed=220), _broken_diagonal(kind)
    raised = []
    for rho in (p, np.diag(p)):
        with pytest.raises(error) as err:
            evolve(rho, inst, 1)
        raised.append((type(err.value), str(err.value)))
    assert raised[0] == raised[1]
