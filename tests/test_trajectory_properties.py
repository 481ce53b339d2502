"""Property tests: sampled trajectories against the dense oracle and the stream contract.

A single step's random draws are replayed from a copy of its generator
(clause index, measurement draw, then on outcome 1 the target draw and the
Haar unitary). With P the clause projector from `helpers.embed_oracle`, the
outcome must be 1 exactly when the draw is below <psi|P|psi>; the state after
outcome 0 is (1-P) psi / norm, and after outcome 1 it is the Haar unitary on
the target qubit applied to P psi / norm. A whole trajectory is replayed the
same way from the block layout written in the `trajectory` module docstring.
"""

import copy

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qsatwalk.instance import Instance, generate_no_instance, generate_planted_extended
from qsatwalk.observables import build_hamiltonian
from qsatwalk.trajectory import (
    _BLOCK,
    _CHUNK,
    _clause_ket,
    _prepare_ops,
    _walk,
    haar_unitary,
    run_ensemble,
    run_trajectory,
    trajectory_step,
)

from helpers import PROPERTY_SETTINGS, clauses, embed_oracle

TOL = 1e-12


@st.composite
def step_cases(draw):
    n = draw(st.integers(2, 7))
    inst = Instance(n=n, clauses=tuple(draw(st.lists(clauses(n), min_size=1, max_size=4))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return inst, psi / np.linalg.norm(psi), draw(st.integers(0, 2**32 - 1))


@PROPERTY_SETTINGS
@given(step_cases())
def test_trajectory_step_matches_dense_oracle(case):
    inst, psi, seed = case
    rng = np.random.default_rng(seed)
    replay = copy.deepcopy(rng)
    clause = inst.clauses[int(replay.integers(inst.L))]
    proj = embed_oracle(np.outer(clause.amps, clause.amps.conj()), clause.i, clause.j, inst.n)
    p = float(np.real(np.vdot(psi, proj @ psi)))
    assume(1e-9 < p < 1 - 1e-9)
    draw = replay.random()

    out, outcome = trajectory_step(psi, inst, rng)

    assert outcome == int(draw < p)
    if outcome == 0:
        want = psi - proj @ psi
    else:
        target, other = (clause.i, clause.j) if replay.random() < 0.5 else (clause.j, clause.i)
        twirl = embed_oracle(np.kron(haar_unitary(replay), np.eye(2)), target, other, inst.n)
        want = twirl @ proj @ psi
    assert np.max(np.abs(out - want / np.linalg.norm(want))) <= TOL


def _oracle_step(psi, proj, clause, outcome, target_i, u, n):
    """The post-measurement state from dense matrices."""
    if outcome == 0:
        out = psi - proj @ psi
    else:
        target, other = (clause.i, clause.j) if target_i else (clause.j, clause.i)
        out = embed_oracle(np.kron(u, np.eye(2)), target, other, n) @ proj @ psi
    return out / np.linalg.norm(out)


@st.composite
def walk_cases(draw):
    n = draw(st.integers(2, 4))
    inst = Instance(n=n, clauses=tuple(draw(st.lists(clauses(n), min_size=1, max_size=4))))
    return inst, draw(st.integers(2 * _BLOCK + 1, 3 * _BLOCK - 1)), draw(st.integers(0, 2**32 - 1))


@PROPERTY_SETTINGS
@given(walk_cases())
def test_run_trajectory_replays_block_stream(case):
    """The documented layout, read by hand, reproduces a whole run step by step."""
    inst, T, seed = case
    n = inst.n
    projs = [embed_oracle(np.outer(c.amps, c.amps.conj()), c.i, c.j, n) for c in inst.clauses]
    rng = np.random.default_rng(seed)
    psi = np.zeros(2**n, dtype=complex)
    psi[rng.integers(2**n)] = 1.0
    want = np.empty(T, dtype=np.int8)
    for start in range(0, T, _BLOCK):
        clause = rng.integers(inst.L, size=_BLOCK)
        measure = rng.random(_BLOCK)
        coin = rng.random(_BLOCK)
        g = rng.standard_normal((2, _BLOCK, 2, 2))
        for k in range(min(_BLOCK, T - start)):
            a = clause[k]
            q, r = np.linalg.qr(g[0, k] + 1j * g[1, k])
            u = q * (np.diag(r) / np.abs(np.diag(r)))
            outcome = int(measure[k] < np.vdot(psi, projs[a] @ psi).real)
            psi = _oracle_step(psi, projs[a], inst.clauses[a], outcome, coin[k] < 0.5, u, n)
            want[start + k] = outcome

    rec = run_trajectory(inst, T, seed, keep_history=True)

    assert np.array_equal(rec.outcomes, want)
    assert np.max(np.abs(rec.final_state - psi)) <= TOL


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
