import builtins
import dataclasses
import gc
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as scipy_stats

from qsatwalk import densesim, trajectory
from qsatwalk.errors import DegenerateBranch, DimensionMismatch, IndexOutOfRange, NotHermitian
from qsatwalk.instance import (
    _DERIVED,
    Instance,
    _derived,
    conjugate_instance,
    generate_no_instance,
    generate_planted_restricted,
    make_clause,
)
from qsatwalk.observables import build_hamiltonian, clause_projector, instance_spin_operators
from qsatwalk.trajectory import (
    _BLOCK,
    _CHUNK,
    _clause_ket,
    _haar_stack,
    _lockstep,
    _lockstep_tables,
    _walk,
    haar_unitary,
    run_ensemble,
    run_trajectory,
    sample_initial_state,
    trajectory_step,
    write_ensemble_summary,
)

from qsatwalk.verify import channel_match

from helpers import (
    SEED_KINDS,
    apply_oracle,
    haar_qr_oracle,
    random_instance,
    random_product_basis,
    random_state_vector,
    trace_distance,
)

SINGLET = (0, 1 / np.sqrt(2), -1 / np.sqrt(2), 0)


def singlet_instance():
    return Instance(n=2, clauses=(make_clause(0, 1, SINGLET),))


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(0)
    for _ in range(200):
        u = haar_unitary(rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-12


def test_haar_stack_matches_qr_oracle():
    """The closed-form 2x2 kernel against LAPACK QR on 10^4 Ginibre matrices:
    the same unitaries to rounding, Q^dagger Q = I, and R = Q^dagger Z upper
    triangular with a positive real diagonal."""
    rng = np.random.default_rng(5)
    z = rng.standard_normal((10**4, 2, 2)) + 1j * rng.standard_normal((10**4, 2, 2))
    q = _haar_stack(z)
    q_dag = q.conj().swapaxes(-1, -2)
    r = q_dag @ z
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    assert np.max(np.abs(q - haar_qr_oracle(z))) <= 1e-13
    assert np.max(np.abs(q_dag @ q - np.eye(2))) <= 1e-14
    assert np.max(np.abs(r[:, 1, 0])) <= 1e-13
    assert np.all(diag.real > 0) and np.max(np.abs(diag.imag)) <= 1e-13


def test_haar_unitary_deterministic_replay():
    u1 = haar_unitary(np.random.default_rng(123))
    u2 = haar_unitary(np.random.default_rng(123))
    assert np.array_equal(u1, u2)


def test_haar_unitary_first_column_moment():
    # E|u00|^2 = 1/2 for the 2x2 Haar measure
    rng = np.random.default_rng(1)
    vals = [abs(haar_unitary(rng)[0, 0]) ** 2 for _ in range(20000)]
    assert abs(np.mean(vals) - 0.5) < 0.01


def test_haar_twirl_monte_carlo():
    rng = np.random.default_rng(2)
    rho = densesim.random_density_matrix(1, rng)
    acc = np.zeros((2, 2), dtype=complex)
    m = 20000
    for _ in range(m):
        u = haar_unitary(rng)
        acc += u @ rho @ u.conj().T
    assert trace_distance(acc / m, np.eye(2) / 2) < 0.02


def test_sample_initial_state_properties():
    rng = np.random.default_rng(3)
    counts = np.zeros(2)
    for _ in range(100000):
        psi = sample_initial_state(1, rng)
        counts[int(np.argmax(np.abs(psi)))] += 1
    freq0 = counts[0] / counts.sum()
    assert abs(freq0 - 0.5) < 0.01
    psi = sample_initial_state(3, np.random.default_rng(4))
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-15
    replay = sample_initial_state(3, np.random.default_rng(4))
    assert np.array_equal(psi, replay)


def test_trajectory_step_fixes_planted_state():
    inst = generate_planted_restricted(3, 4, seed=40)
    psi = inst.planted_state()
    rng = np.random.default_rng(41)
    for _ in range(20):
        psi2, outcome = trajectory_step(psi, inst, rng)
        assert outcome == 0
        assert abs(abs(np.vdot(psi2, psi)) - 1.0) < 1e-12
        psi = psi2


def test_trajectory_step_singlet_outcome_probability():
    inst = singlet_instance()
    psi = densesim.basis_state(2, 0b01)
    proj = clause_projector(inst.clauses[0], 2)
    assert abs(densesim.expectation(proj, psi) - 0.5) < 1e-12
    rng = np.random.default_rng(42)
    ones = sum(trajectory_step(psi, inst, rng)[1] for _ in range(4000))
    assert abs(ones / 4000 - 0.5) < 5 * np.sqrt(0.25 / 4000)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 7, 14, 16])
def test_trajectory_step_leaves_input_state_unchanged(n):
    # both layouts write their state in place, so the step must work on a copy
    rng = np.random.default_rng(46 + n)
    for i, j in itertools.permutations(range(n), 2):
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        inst = Instance(n=n, clauses=(make_clause(i, j, amps / np.linalg.norm(amps)),))
        proj = np.outer(inst.clauses[0].amps, inst.clauses[0].amps.conj())
        psi0 = random_state_vector(n, rng)
        kept = apply_oracle(proj, i, j, psi0)
        dropped = psi0 - kept
        psi = kept / np.linalg.norm(kept) + dropped / np.linalg.norm(dropped)
        psi /= np.linalg.norm(psi)                   # <psi|P|psi> = 1/2
        before = psi.copy()
        outcomes = {trajectory_step(psi, inst, np.random.default_rng(s))[1] for s in range(16)}
        assert outcomes == {0, 1}
        assert np.array_equal(psi, before)


@pytest.mark.parametrize("kind", ["restricted", "4-amplitude"])
def test_wide_walk_writes_its_own_state(kind):
    """From n = 3 a step updates the walk's state in place: two
    blocks of steps of both outcomes allocate the state and two quarter-size work
    buffers, the overlap and one product term, which every step reuses, plus 64 KiB
    for the blocks' draws (a step that built each new state beside the old one
    would need two states; quarters allocated per step kept up to three of them
    alive at once). At n = 16 the state outweighs the draw buffers, which at small
    n are larger than a state vector. numpy's own ufunc buffers (8192 entries each
    by default, for the strided quarters) are kept out of the count by shrinking
    them to 16 entries for the walk."""
    n = 16
    rng = np.random.default_rng(47)
    if kind == "restricted":
        inst = generate_planted_restricted(n, 2 * n, 47)
    else:
        inst = Instance(n=n, clauses=tuple(
            make_clause(i, n - 1 - i, rng.standard_normal(4) + 1j * rng.standard_normal(4))
            for i in range(n // 2)))
    kets = [_clause_ket(c, n) for c in inst.clauses]
    bufsize = np.setbufsize(16)
    tracemalloc.start()
    try:
        outcomes, psi, _ = _walk(kets, n, 2 * _BLOCK, np.random.default_rng(48))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)
    assert 0 < outcomes.sum() < len(outcomes)
    assert peak <= psi.nbytes + 2 * (psi.nbytes // 4) + 64 * 1024


def test_complete_pair_outcome_probabilities_sum_to_one():
    inst = generate_no_instance(2, "complete_pair")
    rng = np.random.default_rng(43)
    psi = random_state_vector(2, rng)
    total = sum(
        densesim.expectation(clause_projector(c, 2), psi) for c in inst.clauses
    )
    assert abs(total - 1.0) < 1e-10


def test_trajectory_step_degenerate_branch_guard():
    """A branch of norm^2 1e-15 raises, naming the branch, at n = 2, 7 and 14.
    The clause is the singlet; the state
    is the triplet with a 1e-15 share of singlet, measured with draw 0
    (outcome 1), or the singlet with a 1e-15 share of triplet, measured with
    a draw just below 1 (outcome 0)."""

    class ForcedRng:
        def __init__(self, draw):
            self.draw = draw

        def integers(self, *_a, **_k):
            return 0

        def random(self):
            return self.draw

    eps = 10**-7.5
    for n in (2, 7, 14):
        for i, j in ((0, 1), (n - 1, 0)):
            inst = Instance(n=n, clauses=(make_clause(i, j, SINGLET),))
            singlet = apply_oracle(np.outer(SINGLET, np.conj(SINGLET)), i, j,
                                   densesim.basis_state(n, 2 ** (n - 1 - i)))   # |1> on qubit i
            triplet = singlet.copy()
            triplet[triplet.real < 0] *= -1                   # (|01> + |10>)/sqrt(2)
            for kind, big, small, draw in (("unsatisfied", triplet, singlet, 0.0),
                                           ("satisfied", singlet, triplet, 1 - 1e-16)):
                psi = big / np.linalg.norm(big) * np.sqrt(1 - eps**2)
                psi = psi + eps * small / np.linalg.norm(small)
                with pytest.raises(DegenerateBranch, match=f"^{kind} branch"):
                    trajectory_step(psi, inst, ForcedRng(draw))


class _ForcedStream:
    """Stands in for a generator in `_lockstep`: a fixed start index, clause 0
    at every step, one measurement draw, and identity Haar unitaries."""

    def __init__(self, start, draw):
        self.start, self.draw = start, draw

    def integers(self, high, size=None):
        return self.start if size is None else np.zeros(size, dtype=np.int64)

    def random(self, size):
        return np.full(size, self.draw)

    def standard_normal(self, shape):
        g = np.zeros(shape)
        g[0] = np.eye(2)
        return g


@pytest.mark.parametrize("steps, n", [("_pair_steps", 2)], ids=["pair-n2"])
@pytest.mark.parametrize("pair_value, draw, kind", [(0, 0.0, "unsatisfied"), (1, 1 - 1e-16, "satisfied")])
def test_layout_degenerate_branch_guard(steps, n, pair_value, draw, kind):
    """The list layout's copy of the guard in `_pair_steps`, which runs every n = 2 walk:
    basis state |pair_value> measured by a clause with a 1e-15 share of |00>, at a draw
    that picks the branch of that size. The views' copy is `_measure`'s, which
    `test_trajectory_step_degenerate_branch_guard` holds at n = 2, 7 and 14."""
    eps = 10**-7.5
    clause = make_clause(0, 1, (eps, 1, 0, 0))
    psi = densesim.basis_state(n, pair_value << (n - 2)).tolist()
    draws = ([0], [draw], [0.0], np.zeros((2, 1, 2, 2)))
    with pytest.raises(DegenerateBranch, match=f"^{kind} branch"):
        getattr(trajectory, steps)(psi, 1.0, [_clause_ket(clause, n)], draws, range(1), None, bytearray())


def _pair_instance(kind, seed):
    """Four clauses on qubits (0, 1) or (1, 0), drawn at random, each with random complex
    amplitudes on the positions `kind` names: one basis position, |01> and |10>
    (restricted), |11>, three positions or all four."""
    rng = np.random.default_rng(seed)
    clauses = []
    for _ in range(4):
        positions = {"basis": [int(rng.integers(4))], "restricted": [1, 2], "11": [3],
                     "three": sorted(rng.choice(4, 3, replace=False)), "four": [0, 1, 2, 3]}[kind]
        amps = np.zeros(4, dtype=complex)
        amps[positions] = rng.standard_normal(len(positions)) + 1j * rng.standard_normal(len(positions))
        clauses.append(make_clause(*((0, 1) if rng.random() < 0.5 else (1, 0)), amps))
    return Instance(n=2, clauses=tuple(clauses))


@pytest.mark.parametrize("kind", ["basis", "restricted", "11", "three", "four"])
def test_pair_walks_match_views_walks(kind, monkeypatch):
    """`_walk` at n = 2 steps through `_pair_steps`, and gives the outcomes (np.array_equal)
    and final states (to 1e-12) that it gives with the in-place views stepping the same
    walk in its place, with and without a ones_limit; limits of 1, 3 and 40 ones cut
    blocks inside, where the walk splits a block's steps over several calls, and some
    walks stop early."""
    inst = _pair_instance(kind, 42)
    kets = [_clause_ket(c, 2) for c in inst.clauses]
    views_kets, work = [trajectory._views_ket(c, 2) for c in inst.clauses], trajectory._work(2)

    def views_steps(psi, norm2, kets, draws, ks, haar, bits):
        return trajectory._views_steps(np.asarray(psi, dtype=complex), norm2, views_kets, draws, ks, haar, bits, work)

    T, runs, calls = 5 * _BLOCK - 7, {}, set()
    for name, steps in (("pair", trajectory._pair_steps), ("views", views_steps)):
        monkeypatch.setattr(trajectory, "_pair_steps", lambda *a, f=steps, name=name: calls.add(name) or f(*a))
        runs[name] = [_walk(kets, 2, T, np.random.default_rng(seed), ones_limit=limit)[:2]
                      for seed in range(8) for limit in (None, 1, 3, 40)]
    for (bits, psi), (want_bits, want_psi) in zip(runs["pair"], runs["views"]):
        assert np.array_equal(bits, want_bits) and np.max(np.abs(psi - want_psi)) <= 1e-12
    assert calls == {"pair", "views"}
    assert {len(bits) for bits, _ in runs["pair"]} - {T}
    assert 0 < sum(bits.sum() for bits, _ in runs["pair"]) < sum(len(bits) for bits, _ in runs["pair"])


def test_walk_steps_a_list_at_n2_and_the_views_above(monkeypatch):
    """`_walk` steps a list through `_pair_steps` at n = 2 and an array through
    `_views_steps` from n = 3, whatever the clause's amplitudes."""
    calls = []
    for name in ("_pair_steps", "_views_steps"):
        monkeypatch.setattr(trajectory, name, lambda psi, *a, f=getattr(trajectory, name), name=name, **k:
                            calls.append((name, type(psi))) or f(psi, *a, **k))
    for n in (2, 3):
        run_trajectory(random_instance(n, 30 + n), 2 * _BLOCK, n)
    assert sorted(set(calls)) == [("_pair_steps", list), ("_views_steps", np.ndarray)]
    assert calls.index(("_views_steps", np.ndarray)) == calls.count(("_pair_steps", list))


def test_pair_rescale_does_not_depend_on_the_builtin_sum(monkeypatch):
    """The pair layout's list state has its norm summed left to right, not by the builtin
    `sum`, which Python 3.12 made compensated: with `trajectory.sum` replaced by
    `math.fsum`, `_unit` and seeded walks at n = 2 give the same states. Every state
    `_unit` receives is a list, and the inputs are ones on which the two sums differ."""
    crafted = [1, *[1e-8] * 6, 1e-8j]       # squared norm: 1 + 6.7e-16 by fsum, 1.0 left to right
    walks = [(random_instance(2, 62), 8 * _BLOCK, seed) for seed in range(16)]
    seen, unit = [], trajectory._unit
    monkeypatch.setattr(trajectory, "_unit", lambda psi: seen.append(psi.copy()) or unit(psi))
    want = unit(list(crafted)), [run_trajectory(*walk, keep_history=True) for walk in walks]
    monkeypatch.setattr(trajectory, "sum", math.fsum, raising=False)
    got = unit(list(crafted)), [run_trajectory(*walk, keep_history=True) for walk in walks]

    assert got[0] == want[0]
    for rec, ref in zip(got[1], want[1]):
        assert np.array_equal(rec.outcomes, ref.outcomes) and np.array_equal(rec.final_state, ref.final_state)
    assert all(type(psi) is list for psi in seen)
    squares = [[x.real * x.real + x.imag * x.imag for x in psi] for psi in [crafted, *seen]]
    assert builtins.sum(squares[0]) != math.fsum(squares[0])
    assert any(builtins.sum(sq) != math.fsum(sq) for sq in squares[1:])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: sample_initial_state(0, np.random.default_rng(0)), IndexOutOfRange, "^need n >= 1, got 0$"),
        (lambda: trajectory_step(densesim.basis_state(2, 0), generate_planted_restricted(3, 2, seed=1),
                                 np.random.default_rng(0)), DimensionMismatch, "^state has 2 qubits but instance has 3$"),
        (lambda: run_trajectory(generate_planted_restricted(3, 2, seed=1), -1, 0), IndexOutOfRange,
         "^T must be >= 0, got -1$"),
    ],
    ids=["initial-state-n-0", "step-qubit-count", "trajectory-T-1"],
)
def test_sampler_checks_name_what_they_reject(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("psi, shown", [(np.zeros(8), "0.0"), (2 * densesim.basis_state(3, 0), "4.0")],
                         ids=["zero", "norm-2"])
def test_trajectory_step_rejects_a_state_off_unit_norm_before_drawing(psi, shown):
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    with pytest.raises(DimensionMismatch, match=f"^state has squared norm {shown}, not 1 within 1e-10$"):
        trajectory_step(psi, generate_planted_restricted(3, 4, seed=1), rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("start, draw, kind", [(0, 0.0, "unsatisfied"), (1, 1 - 1e-16, "satisfied")])
def test_lockstep_degenerate_branch_guard_per_trajectory(start, draw, kind):
    """One trajectory of four reaches a branch of norm^2 about 1e-15; the batch raises."""
    eps = 10**-7.5
    inst = Instance(n=2, clauses=(make_clause(0, 1, (eps, 1, 0, 0)),))
    rngs = [_ForcedStream(2, 0.5)] * 3 + [_ForcedStream(start, draw)]
    with pytest.raises(DegenerateBranch, match=f"^{kind} branch"):
        _lockstep(_lockstep_tables(inst.clauses, 2), 2, 3, rngs)
    _lockstep(_lockstep_tables(inst.clauses, 2), 2, 3, rngs[:3])   # the other three pass


def test_trajectory_norm_preserved_along_path():
    inst = generate_planted_restricted(4, 5, seed=44)
    rng = np.random.default_rng(45)
    psi = sample_initial_state(4, rng)
    for _ in range(100):
        psi, _ = trajectory_step(psi, inst, rng)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-9


def test_run_trajectory_zero_steps():
    rec = run_trajectory(singlet_instance(), 0, 5)
    assert rec.N0 == 0 and rec.T == 0


def test_run_trajectory_planted_start_counts_all_zeros():
    # seed 11 draws basis index 0, the planted state of an identity-basis instance
    inst = generate_planted_restricted(2, 3, seed=50)
    rec = run_trajectory(inst, 40, 11, keep_history=True)
    assert rec.N0 == 40
    assert np.all(rec.outcomes == 0)


@pytest.mark.parametrize("n", [2, 6, 7, 14])
def test_walk_runs_a_blocks_haar_qr_only_on_an_outcome_1(n, monkeypatch):
    """`_walk` runs a block's stacked Haar QR at the block's first outcome 1
    only: a walk whose start state satisfies every clause (basis projectors
    on the complement of its bits) runs none, and a walk on the
    complete-pair NO instance runs one per block that has an outcome 1, with
    the outcomes of the same seed's uncounted run."""
    T, seed = 5 * _BLOCK - 3, 12
    bits = [(int(np.random.default_rng(seed).integers(2**n)) >> (n - 1 - q)) & 1 for q in range(n)]
    satisfied = Instance(n=n, clauses=tuple(
        make_clause(q, q + 1, np.eye(4)[2 * (1 - bits[q]) + 1 - bits[q + 1]]) for q in range(n - 1)))
    no = generate_no_instance(n, "complete_pair")
    reference = run_trajectory(no, T, seed, keep_history=True)
    calls, haar_stack = [], trajectory._haar_stack
    monkeypatch.setattr(trajectory, "_haar_stack", lambda z: calls.append(len(z)) or haar_stack(z))

    assert run_trajectory(satisfied, T, seed).N0 == T and calls == []

    rec = run_trajectory(no, T, seed, keep_history=True)
    ones = [rec.outcomes[b : b + _BLOCK].any() for b in range(0, T, _BLOCK)]
    assert len(calls) == sum(ones) > 0
    assert np.array_equal(rec.outcomes, reference.outcomes)


def test_walks_build_what_they_read_once_per_instance(monkeypatch):
    """`run_trajectory`, `decide` and both ensemble engines read the clause kets and
    lockstep tables from one record per instance: each is built on the first call
    that needs it and no more, the tables are read-only, and the record goes with
    the instance."""
    from qsatwalk.decision import decide, decision_params

    built = []
    for name in ("_clause_ket", "_lockstep_tables"):
        monkeypatch.setattr(trajectory, name, lambda *a, f=getattr(trajectory, name), name=name:
                            built.append(name) or f(*a))
    inst = generate_planted_restricted(3, 4, seed=7)
    for seed in range(3):
        run_trajectory(inst, 70, seed)
        decide(inst, decision_params(1.0, 4, 3), seed)
        run_ensemble(inst, 10, 1, seed)                  # one trajectory: `_walk`
        run_ensemble(inst, 10, 8, seed)                  # a lockstep batch
    assert built == ["_clause_ket"] * inst.L + ["_lockstep_tables"]
    tables = _derived(inst, trajectory._tables)
    assert not any(a.flags.writeable for a in tables)

    gc.collect()                                     # the memo also holds other tests' instances
    kept = len(_DERIVED)
    del inst
    gc.collect()
    assert len(_DERIVED) == kept - 1


def test_run_trajectory_history_consistency():
    inst = generate_no_instance(2, "complete_pair")
    rec = run_trajectory(inst, 60, 7, keep_history=True)
    assert rec.N0 == int(np.sum(rec.outcomes == 0))
    assert abs(np.linalg.norm(rec.final_state) - 1.0) <= 1e-9
    again = run_trajectory(inst, 60, 7, keep_history=True)
    assert again.N0 == rec.N0
    assert np.array_equal(again.outcomes, rec.outcomes)


def test_run_trajectory_singlet_mean_zero_count():
    inst = singlet_instance()
    m = 10000
    n0 = np.array([run_trajectory(inst, 3, [60, k]).N0 for k in range(m)])
    se = np.std(n0, ddof=1) / np.sqrt(m)
    assert abs(np.mean(n0) - 171 / 64) <= 5 * se


def test_run_ensemble_deterministic_and_worker_independent():
    inst = generate_planted_restricted(3, 3, seed=51)
    ops = {"H": build_hamiltonian(inst)}
    a = run_ensemble(inst, 12, 600, master_seed=9, workers=1, operators=ops)
    b = run_ensemble(inst, 12, 600, master_seed=9, workers=1, operators=ops)
    c = run_ensemble(inst, 12, 600, master_seed=9, workers=3, operators=ops)
    assert np.array_equal(a.n0, b.n0)
    assert np.array_equal(a.n0, c.n0)
    assert np.array_equal(a.zero_frequency, c.zero_frequency)
    assert np.array_equal(a.operator_means["H"], c.operator_means["H"])
    assert a.mean_N0 == c.mean_N0 and a.stddev_N0 == c.stddev_N0


def test_run_ensemble_diagonal_vectors_match_dense_forms():
    inst = generate_planted_restricted(3, 3, seed=55)
    s, s2 = instance_spin_operators(inst)
    assert s.shape == s2.shape == (8,)
    a = run_ensemble(inst, 10, 200, master_seed=14, operators={"S": s, "S2": s2})
    b = run_ensemble(inst, 10, 200, master_seed=14,
                     operators={"S": np.diag(s), "S2": np.diag(s2)})
    for name in ("S", "S2"):
        assert np.max(np.abs(a.operator_means[name] - b.operator_means[name])) <= 1e-12
        assert np.max(np.abs(a.operator_stderr[name] - b.operator_stderr[name])) <= 1e-12


@pytest.mark.parametrize("M", [3, 1000, _CHUNK + 3], ids=["walk", "lockstep", "lockstep-then-walk"])
def test_run_ensemble_constant_operator_has_zero_stderr(M):
    inst = generate_planted_restricted(3, 4, seed=56)
    ops = {"third": np.full(8, 1 / 3), "tenth": np.full(8, 0.1)}
    stats = run_ensemble(inst, 70, M, master_seed=16, operators=ops)
    for name, value in (("third", 1 / 3), ("tenth", 0.1)):
        assert np.max(stats.operator_stderr[name]) <= 1e-15
        assert np.max(np.abs(stats.operator_means[name] - value)) <= 1e-14


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in this process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_run_ensemble_starts_no_more_workers_than_chunks(monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    inst = singlet_instance()
    pooled = run_ensemble(inst, 3, _CHUNK + 1, master_seed=15, workers=4000)
    assert _SerialPool.sizes == [2]
    assert np.array_equal(pooled.n0, run_ensemble(inst, 3, _CHUNK + 1, master_seed=15).n0)
    run_ensemble(inst, 3, 10, master_seed=15, workers=4000)   # one chunk runs without a pool
    assert _SerialPool.sizes == [2]


def test_run_ensemble_zero_frequency_matches_channel():
    gaps = channel_match(singlet_instance(), T=12, M=4000, seed=10)
    assert np.all(gaps["zero-frequency"] <= 0)


def test_run_ensemble_observable_means_match_channel():
    gaps = channel_match(generate_planted_restricted(3, 2, seed=52), T=15, M=4000, seed=11)
    assert all(np.all(gap <= 0) for gap in gaps.values())


def test_ensemble_basis_covariance_two_sample():
    inst = generate_planted_restricted(3, 3, seed=53)
    rotated = conjugate_instance(inst, random_product_basis(3, 54))
    m, T = 10000, 20
    a = run_ensemble(inst, T, m, master_seed=12)
    b = run_ensemble(rotated, T, m, master_seed=13)
    result = scipy_stats.ks_2samp(a.n0, b.n0, method="asymp")
    assert result.pvalue > 0.01


@pytest.mark.parametrize("seed", [np.random.default_rng(3), 3.0, [3, 4.5]], ids=["generator", "float", "float-list"])
def test_run_ensemble_rejects_other_seed_kinds_before_any_chunk(seed, monkeypatch):
    chunks = []
    monkeypatch.setattr(trajectory, "_ensemble_chunk", chunks.append)
    with pytest.raises(TypeError, match="an int, a numpy integer or a sequence of them"):
        run_ensemble(generate_no_instance(2, "complete_pair"), 5, 3, seed)
    assert chunks == []


@pytest.mark.parametrize("kind", sorted(SEED_KINDS))
def test_ensemble_summary_writes_every_seed_kind(kind, tmp_path):
    """The summary holds the master seed as plain ints, and a summary that
    cannot be written leaves the file as it was."""
    make, written = SEED_KINDS[kind]
    seed = make()
    inst = generate_no_instance(2, "complete_pair")
    if isinstance(seed, np.random.Generator):      # run_ensemble takes no generator
        stats = dataclasses.replace(run_ensemble(inst, 5, 3, 7), master_seed=seed)
    else:
        stats = run_ensemble(inst, 5, 3, seed)
    path = tmp_path / "summary.json"

    write_ensemble_summary(stats, path)
    assert json.loads(path.read_text())["master_seed"] == written

    with pytest.raises(TypeError):
        write_ensemble_summary(stats, path, extra={"unwritable": object()})
    assert json.loads(path.read_text())["master_seed"] == written


def test_run_ensemble_rejects_empty():
    with pytest.raises(IndexOutOfRange):
        run_ensemble(singlet_instance(), 5, 0, master_seed=1)


@pytest.mark.parametrize(
    "call, message",
    [(lambda: run_trajectory(singlet_instance(), 2.5, 0), r"^T must be an integer, got 2\.5$"),
     (lambda: run_ensemble(singlet_instance(), 2.5, 2, master_seed=1), r"^T must be an integer, got 2\.5$"),
     (lambda: run_ensemble(singlet_instance(), 5, 2.5, master_seed=1), r"^M must be an integer, got 2\.5$"),
     (lambda: run_ensemble(singlet_instance(), 5, 2, master_seed=1, workers=2.5),
      r"^workers must be an integer, got 2\.5$"),
     (lambda: run_trajectory(singlet_instance(), True, 0), r"^T must be an integer, got True$"),
     (lambda: run_ensemble(singlet_instance(), 5, True, master_seed=1), r"^M must be an integer, got True$"),
     (lambda: run_ensemble(singlet_instance(), 5, 2, master_seed=1, workers=True),
      r"^workers must be an integer, got True$")],
    ids=["trajectory-T", "ensemble-T", "ensemble-M", "ensemble-workers",
         "trajectory-T-bool", "ensemble-M-bool", "ensemble-workers-bool"],
)
def test_sampler_sizes_must_be_integers(call, message):
    with pytest.raises(IndexOutOfRange, match=message):
        call()


@pytest.mark.parametrize("workers", [0, -1])
def test_run_ensemble_rejects_fewer_than_one_worker(workers, monkeypatch):
    """Checked before any trajectory runs: a run here would reach the stub."""
    monkeypatch.setattr(trajectory, "_ensemble_chunk", None)
    with pytest.raises(IndexOutOfRange, match=f"^workers must be >= 1, got {workers}$"):
        run_ensemble(singlet_instance(), 5, 2, master_seed=1, workers=workers)


def test_sampler_sizes_may_be_numpy_integers():
    inst = singlet_instance()
    assert run_trajectory(inst, np.int64(5), 3).N0 == run_trajectory(inst, 5, 3).N0
    stats = run_ensemble(inst, np.int32(5), np.int64(3), master_seed=1, workers=np.int64(2))
    assert np.array_equal(stats.n0, run_ensemble(inst, 5, 3, master_seed=1).n0)


@pytest.mark.parametrize("op", [np.ones(4), np.eye(4)], ids=["vector", "matrix"])
def test_run_ensemble_rejects_operator_of_wrong_size(op):
    inst = generate_planted_restricted(3, 2, seed=52)
    with pytest.raises(DimensionMismatch):
        run_ensemble(inst, 5, 2, master_seed=1, operators={"op": op})


@pytest.mark.parametrize("op", [1 + 1j * np.arange(8), np.triu(np.ones((8, 8)))], ids=["vector", "matrix"])
def test_run_ensemble_rejects_non_hermitian_operators_before_any_chunk(op, monkeypatch):
    """A diagonal with imaginary parts, or a dense matrix off its conjugate transpose,
    would have its means read as real parts; both raise before anything runs."""
    chunks = []
    monkeypatch.setattr(trajectory, "_ensemble_chunk", chunks.append)
    inst = generate_planted_restricted(3, 2, seed=52)
    with pytest.raises(NotHermitian, match="operator 'A' deviates from Hermitian by [17]\\.0$"):
        run_ensemble(inst, 5, 2, master_seed=1, operators={"S": np.ones(8), "A": op})
    assert chunks == []
