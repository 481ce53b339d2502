"""Property tests: sampled trajectories against an independent oracle and the stream contract.

A single step's random draws are replayed from a copy of its generator
(clause index, measurement draw, then on outcome 1 the target draw and the
Haar unitary). With P the clause projector applied by `helpers.apply_oracle`
(a tensordot on the clause's two axes of psi), the outcome must be 1 exactly
when the draw is below <psi|P|psi>; the state after outcome 0 is
(1-P) psi / norm, and after outcome 1 it is the Haar unitary on the target
qubit applied to P psi / norm. A whole trajectory is replayed the same way
from the block layout written in the `trajectory` module docstring. The
number of qubits is drawn on both sides of n = 2, where the walk changes from
stepping a list to stepping the in-place views, up to 7, and in a wide band
from 14 qubits, where the strided quarters of the in-place step have long
inner axes.
"""

import copy

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qsatwalk import trajectory
from qsatwalk.instance import Instance, generate_no_instance, generate_planted_extended, make_clause
from qsatwalk.observables import build_hamiltonian
from qsatwalk.trajectory import (
    _BLOCK,
    _CHUNK,
    _clause_ket,
    _lockstep,
    _lockstep_tables,
    _pair_steps,
    _prepare_ops,
    _walk,
    _write_back,
    haar_unitary,
    run_ensemble,
    run_trajectory,
    trajectory_step,
)

from helpers import PROPERTY_SETTINGS, apply_oracle, clauses, random_instance, random_state_vector

TOL = 1e-12
WIDE = 14          # the narrowest register of the wide band


def _projector(clause):
    return np.outer(clause.amps, clause.amps.conj())


def _oracle_step(psi, clause, outcome, target_i, u):
    """The post-measurement state from the tensordot oracle."""
    kept = apply_oracle(_projector(clause), clause.i, clause.j, psi)
    if outcome == 0:
        out = psi - kept
    else:
        target, other = (clause.i, clause.j) if target_i else (clause.j, clause.i)
        out = apply_oracle(np.kron(u, np.eye(2)), target, other, kept)
    return out / np.linalg.norm(out)


def _check_step(inst, psi, seed):
    """One `trajectory_step` against the oracle, on draws replayed from a copy of
    its generator; returns the outcome, or None when <psi|P|psi> is within 1e-9
    of 0 or 1, where a draw cannot tell the branches apart."""
    rng = np.random.default_rng(seed)
    replay = copy.deepcopy(rng)
    clause = inst.clauses[int(replay.integers(inst.L))]
    p = float(np.real(np.vdot(psi, apply_oracle(_projector(clause), clause.i, clause.j, psi))))
    if not 1e-9 < p < 1 - 1e-9:
        return None
    draw = replay.random()

    out, outcome = trajectory_step(psi, inst, rng)

    assert outcome == int(draw < p)
    target_i = replay.random() < 0.5 if outcome else None
    want = _oracle_step(psi, clause, outcome, target_i, haar_unitary(replay) if outcome else None)
    assert np.max(np.abs(out - want)) <= TOL
    return outcome


def _qubits(draw, narrow_max, wide_max):
    """n in 2..narrow_max, 7 and WIDE..wide_max."""
    return draw(st.sampled_from(sorted({*range(2, narrow_max + 1), 7,
                                        *range(WIDE, wide_max + 1)})))


@st.composite
def step_cases(draw):
    n = _qubits(draw, 7, WIDE + 2)
    inst = Instance(n=n, clauses=tuple(draw(st.lists(clauses(n), min_size=1, max_size=4))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return inst, random_state_vector(n, rng), draw(st.integers(0, 2**32 - 1))


@PROPERTY_SETTINGS
@given(step_cases())
def test_trajectory_step_matches_dense_oracle(case):
    inst, psi, seed = case
    assume(_check_step(inst, psi, seed) is not None)


EDGE_AMPS = {"restricted": (0, 0.6, 0.8j, 0), "type-ii": (0, 0, 0, 1j),
             "arbitrary": (0.5, -0.5j, 0.1 + 0.4j, 0.5)}


@pytest.mark.parametrize("form", sorted(EDGE_AMPS))
@pytest.mark.parametrize("n", [*range(7, 10),
                               *range(WIDE - 1, WIDE + 3)])
def test_trajectory_step_edge_pairs_match_oracle(n, form):
    """Pairs with lo = 0 and hi = n-1, in both clause orders, plus the last
    adjacent pair and (1, 0), on the three registers above the layout rule
    and on 13 to 16 qubits; a state with <psi|P|psi> = 1/2 so that both
    outcomes occur among the seeds."""
    rng = np.random.default_rng(n)
    for i, j in [(0, n - 1), (n - 1, 0), (n - 2, n - 1), (1, 0)]:
        clause = make_clause(i, j, EDGE_AMPS[form])
        psi = random_state_vector(n, rng)
        kept = apply_oracle(_projector(clause), i, j, psi)
        psi = kept / np.linalg.norm(kept) + (psi - kept) / np.linalg.norm(psi - kept)
        psi /= np.linalg.norm(psi)
        inst = Instance(n=n, clauses=(clause,))
        assert {_check_step(inst, psi, seed) for seed in range(12)} == {0, 1}


@st.composite
def walk_cases(draw):
    n = _qubits(draw, 4, WIDE)
    inst = Instance(n=n, clauses=tuple(draw(st.lists(clauses(n), min_size=1, max_size=4))))
    return inst, draw(st.integers(2 * _BLOCK + 1, 3 * _BLOCK - 1)), draw(st.integers(0, 2**32 - 1))


def _replay(inst, T, seed):
    """A whole run read by hand from the documented layout and stepped with the
    oracle: the outcomes and the final state."""
    n = inst.n
    rng = np.random.default_rng(seed)
    psi = np.zeros(2**n, dtype=complex)
    psi[rng.integers(2**n)] = 1.0
    outcomes = np.empty(T, dtype=np.int8)
    for start in range(0, T, _BLOCK):
        clause = rng.integers(inst.L, size=_BLOCK)
        measure = rng.random(_BLOCK)
        coin = rng.random(_BLOCK)
        g = rng.standard_normal((2, _BLOCK, 2, 2))
        for k in range(min(_BLOCK, T - start)):
            c = inst.clauses[clause[k]]
            q, r = np.linalg.qr(g[0, k] + 1j * g[1, k])
            u = q * (np.diag(r) / np.abs(np.diag(r)))
            p = np.vdot(psi, apply_oracle(_projector(c), c.i, c.j, psi)).real
            outcome = int(measure[k] < p)
            psi = _oracle_step(psi, c, outcome, coin[k] < 0.5, u)
            outcomes[start + k] = outcome
    return outcomes, psi


@PROPERTY_SETTINGS
@given(walk_cases())
def test_run_trajectory_replays_block_stream(case):
    """The documented layout, read by hand, reproduces a whole run step by step."""
    inst, T, seed = case
    want, psi = _replay(inst, T, seed)

    rec = run_trajectory(inst, T, seed, keep_history=True)

    assert np.array_equal(rec.outcomes, want)
    assert np.max(np.abs(rec.final_state - psi)) <= TOL


def _carried_norm_walk(n, seed, monkeypatch, blocks=10):
    """`blocks` blocks at n with 2n random four-amplitude clauses, replayed on the
    oracle: for each step, whether the carried squared norm was rescaled,
    its value after the step, the state's actual squared norm and whether
    the outcome was 0; the run's record; and the oracle's outcomes and final
    state. A step of the views is watched through `_write_back`; at n = 2 the
    walk's block calls of `_pair_steps` are split into one call per step, and a
    satisfied step was rescaled when it returns a new list instead of the
    list it wrote in place."""
    inst = random_instance(n, seed)
    T = blocks * _BLOCK
    steps = []

    def write_back(psi, norm2, ket, mat, overlap, q, u, coin, work):
        out, carried = _write_back(psi, norm2, ket, mat, overlap, q, u, coin, work)
        steps.append((u is None and norm2 - q < 0.25, carried, np.vdot(out, out).real, u is None))
        return out, carried

    def pair_steps(psi, norm2, kets, draws, ks, haar, bits):
        for k in ks:
            before = psi
            psi, norm2, haar = _pair_steps(psi, norm2, kets, draws, (k,), haar, bits)
            kept = bits[-1] == 0
            steps.append((kept and psi is not before, norm2, np.vdot(psi, psi).real, kept))
        return psi, norm2, haar

    monkeypatch.setattr(trajectory, "_write_back", write_back)
    monkeypatch.setattr(trajectory, "_pair_steps", pair_steps)
    want, psi = _replay(inst, T, seed)
    rec = run_trajectory(inst, T, seed, keep_history=True)
    return np.array(steps).T, rec, want, psi


@pytest.mark.parametrize("nonzero", [1, 2, 3, 4])
def test_walks_replay_for_each_amplitude_count(nonzero):
    """Walks on clauses with 1, 2, 3 or 4 nonzero amplitudes, at random
    positions, replay on the oracle for three blocks at every n from 2 to 6,
    the list stepped by `_pair_steps` at n = 2 and the views above, with both
    outcomes among them. No form of `helpers.FORMS` has three nonzero
    amplitudes."""
    ones, T = 0, 3 * _BLOCK
    for n in range(2, 7):
        inst = random_instance(n, 90 + 10 * nonzero + n, nonzero)
        want, psi = _replay(inst, T, n)

        rec = run_trajectory(inst, T, n, keep_history=True)

        assert np.array_equal(rec.outcomes, want)
        assert np.max(np.abs(rec.final_state - psi)) <= TOL
        ones += want.sum()
    assert 0 < ones < 5 * T


@pytest.mark.parametrize("seed", [81, 82])
def test_wide_walk_carried_norm_matches_oracle(seed, monkeypatch):
    """From n = 3 a satisfied outcome lowers a carried squared
    norm instead of rescaling the state, which is rescaled once the carried
    value falls below 1/4. With four-amplitude clauses that happens many times
    in ten blocks: after every step the carried value lies in [1/4, 1] and
    equals the state's squared norm, and the run replays on the oracle and
    ends at unit norm."""
    (rescaled, norm2, actual, _), rec, want, psi = _carried_norm_walk(WIDE, seed, monkeypatch)

    assert rescaled.sum() >= 20
    assert np.all(norm2[rescaled == 1] == 1.0)
    assert np.all((0.25 <= norm2) & (norm2 <= 1.0))
    assert np.max(np.abs(norm2 - actual)) <= TOL
    assert np.array_equal(rec.outcomes, want)
    assert np.max(np.abs(rec.final_state - psi)) <= TOL
    assert abs(np.linalg.norm(rec.final_state) - 1) <= TOL


@pytest.mark.parametrize("seed", [83, 84])
def test_pair_walk_carried_norm_matches_oracle(seed, monkeypatch):
    """At n = 2 `_pair_steps` carries its squared norm as the views do, on a
    list of Python complex: twenty blocks of four-amplitude clauses (on four
    clauses the carried value falls below 1/4 less often than on 2n = 6 at
    n = 3) rescale many times, most satisfied outcomes leave the carried value below 1, it stays in
    [1/4, 1] and equals the state's squared norm, and the run replays on the
    oracle and ends at unit norm."""
    (rescaled, norm2, actual, kept), rec, want, psi = _carried_norm_walk(2, seed, monkeypatch, blocks=20)

    assert rescaled.sum() >= 20
    assert np.mean(norm2[kept == 1] < 1.0) > 0.5
    assert np.all(norm2[rescaled == 1] == 1.0)
    assert np.all((0.25 <= norm2) & (norm2 <= 1.0))
    assert np.max(np.abs(norm2 - actual)) <= TOL
    assert np.array_equal(rec.outcomes, want)
    assert np.max(np.abs(rec.final_state - psi)) <= TOL
    assert abs(np.linalg.norm(rec.final_state) - 1) <= TOL


@pytest.mark.parametrize("seed", [85, 86])
def test_lockstep_carried_norm_matches_states(seed, monkeypatch):
    """`_lockstep` carries each trajectory's squared norm as `_walk` does. With
    a diagonal identity operator, `_observe` returns the squared norms of the
    stored states, and `_moments` receives them divided by the carried norm2
    of their slot: at n = 3, b = 8 and ten blocks of four-amplitude clauses,
    after every step each state's squared norm lies in [1/4, 1], most are
    below 1, and the carried value equals it; the batch rescales many
    times; and n0 is that of the trajectories run one by one."""
    n, b, T = 3, 8, 10 * _BLOCK
    inst = random_instance(n, seed)
    actual, ratio, rescales = [], [], []
    observe, moments, sumsq = trajectory._observe, trajectory._moments, trajectory._sumsq
    monkeypatch.setattr(trajectory, "_observe", lambda *a: actual.append(observe(*a)) or actual[-1])
    monkeypatch.setattr(trajectory, "_moments", lambda v: ratio.append(v) or moments(v))
    monkeypatch.setattr(trajectory, "_sumsq", lambda x: rescales.append(len(x)) or sumsq(x))
    rngs = [np.random.default_rng([seed, k]) for k in range(b)]
    n0, _, _ = _lockstep(_lockstep_tables(inst.clauses, n), n, T, rngs, _prepare_ops([("I", np.ones(2**n))]))
    actual = np.concatenate([a.reshape(-1) for a in actual])       # slots t = 0..T, b rows each
    ratio = np.concatenate([r.reshape(-1) for r in ratio])

    assert len(actual) == (T + 1) * b and len(rescales) >= 20
    assert np.all((0.25 - TOL <= actual) & (actual <= 1 + TOL))
    assert np.mean(actual < 1 - 1e-9) > 0.5
    assert np.max(np.abs(ratio - 1)) <= TOL
    assert np.array_equal(n0, [run_trajectory(inst, T, [seed, k]).N0 for k in range(b)])


@pytest.mark.parametrize("seed", [3, 4])
def test_run_trajectory_outcomes_are_prefixes(seed):
    inst = generate_planted_extended(3, 4, 0.5, seed=70)
    runs = [run_trajectory(inst, T, seed, keep_history=True).outcomes
            for T in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5)]
    for short, long in zip(runs, runs[1:]):
        assert np.array_equal(long[: len(short)], short)
    assert 0 < np.sum(runs[-1]) < len(runs[-1])


@st.composite
def ensemble_cases(draw):
    n = draw(st.integers(2, 6))
    inst = Instance(n=n, clauses=tuple(draw(st.lists(clauses(n), min_size=1, max_size=6))))
    M = draw(st.sampled_from([1, 3, 4, 17, _CHUNK + 2]))
    T = draw(st.sampled_from([63, 64, 65, 130]))
    return inst, T, M, draw(st.integers(0, 2**32 - 1))


@PROPERTY_SETTINGS
@given(ensemble_cases())
def test_ensemble_counts_equal_single_trajectories(case):
    """n0 and the zero frequencies of an ensemble, whichever engine runs its
    chunks, are those of the trajectories run one by one on seeds [m, k]."""
    inst, T, M, seed = case
    outcomes = np.array([run_trajectory(inst, T, [seed, k], keep_history=True).outcomes
                         for k in range(M)])

    stats = run_ensemble(inst, T, M, seed)

    assert np.array_equal(stats.n0, T - outcomes.sum(axis=1))
    assert np.array_equal(stats.zero_frequency, (1 - outcomes).sum(axis=0) / M)


@PROPERTY_SETTINGS
@given(ensemble_cases(), st.integers(0, 2**32 - 1))
def test_ensemble_operator_statistics_match_single_trajectories(case, op_seed):
    """Operator means and standard errors against per-trajectory values from
    `_walk`, for a diagonal operator, a dense Hermitian one and H."""
    inst, T, M, seed = case
    d = 2**inst.n
    rng = np.random.default_rng(op_seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    ops = {"diag": rng.standard_normal(d), "dense": g + g.conj().T, "H": build_hamiltonian(inst)}
    kets = [_clause_ket(c, inst.n) for c in inst.clauses]
    prepared = _prepare_ops(list(ops.items()))
    values = np.array([_walk(kets, inst.n, T, np.random.default_rng([seed, k]), prepared)[2]
                       for k in range(M)])                      # (M, operator, t)
    mean = values.mean(axis=0)
    var = values.var(axis=0, ddof=1) if M > 1 else np.zeros_like(mean)

    stats = run_ensemble(inst, T, M, seed, operators=ops)

    for k, name in enumerate(ops):
        assert np.max(np.abs(stats.operator_means[name] - mean[k])) <= TOL
        # squared: the square root magnifies rounding where the variance is near 0
        assert np.max(np.abs(stats.operator_stderr[name] ** 2 - var[k] / M)) <= TOL


def test_ensemble_matches_single_runs_across_chunks():
    inst = generate_no_instance(2, "complete_pair")
    T, M, seed = 7, _CHUNK + 2, 21
    stats = run_ensemble(inst, T, M, seed)
    assert np.array_equal(stats.n0, [run_trajectory(inst, T, [seed, k]).N0 for k in range(M)])


@pytest.mark.parametrize("n", [4, WIDE + 2, WIDE + 4])
def test_walk_operator_values_match_states_along_the_run(n):
    """`_walk`'s operator values at every t, however its buffer splits the block
    (64, 4 and 1 states at these sizes), equal the operator on the final state
    of the same seed's t-step walk."""
    inst = generate_planted_extended(n, 2 * n, 0.5, seed=71)
    kets = [_clause_ket(c, n) for c in inst.clauses]
    diag = np.random.default_rng(72).standard_normal(2**n)
    T = _BLOCK + 6
    values = _walk(kets, n, T, np.random.default_rng(73), _prepare_ops([("d", diag)]))[2][0]
    for t in (0, 1, 15, 16, 17, _BLOCK - 1, _BLOCK, T):
        psi = _walk(kets, n, t, np.random.default_rng(73))[1]
        assert abs(values[t] - diag @ np.abs(psi) ** 2) <= TOL
