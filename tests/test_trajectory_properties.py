"""Property tests: one sampled trajectory step against the dense oracle.

The step's random draws are replayed from a copy of its generator (clause
index, measurement draw, then on outcome 1 the target draw and the Haar
unitary). With P the clause projector from `helpers.embed_oracle`, the
outcome must be 1 exactly when the draw is below <psi|P|psi>; the state after
outcome 0 is (1-P) psi / norm, and after outcome 1 it is the Haar unitary on
the target qubit applied to P psi / norm.
"""

import copy

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from qsatwalk.instance import Instance
from qsatwalk.trajectory import haar_unitary, trajectory_step

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
