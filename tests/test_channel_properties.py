"""Property tests: the local clause kernel against the dense formula.

The oracle builds each clause projector with `helpers.embed_oracle` and the
twirls by tensor-axis traces, then applies
(1-P) rho (1-P) + 1/2 Tw_i(P rho P) + 1/2 Tw_j(P rho P) as dense products.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsatwalk import densesim
from qsatwalk.channel import apply_clause_channel, apply_step_channel
from qsatwalk.instance import Instance, make_clause
from qsatwalk.observables import build_hamiltonian

from helpers import FORMS, PROPERTY_SETTINGS, clause_channel_oracle, clauses, embed_oracle

TOL = 1e-12


@st.composite
def density_matrices(draw, n):
    """Random density matrix of random rank, from a drawn seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = 2**n
    rank = draw(st.integers(1, d))
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@st.composite
def clause_cases(draw):
    n = draw(st.integers(2, 6))
    return n, draw(clauses(n)), draw(density_matrices(n))


@st.composite
def step_cases(draw):
    n = draw(st.integers(2, 6))
    inst = Instance(n=n, clauses=tuple(draw(st.lists(clauses(n), min_size=1, max_size=5))))
    return inst, draw(density_matrices(n))


def assert_density_matrix(out):
    assert abs(np.trace(out) - 1.0) <= TOL
    assert np.max(np.abs(out - out.conj().T)) <= TOL
    assert np.linalg.eigvalsh(out)[0] >= -TOL


@PROPERTY_SETTINGS
@given(clause_cases())
def test_clause_kernel_matches_dense_formula(case):
    n, clause, rho = case
    out = apply_clause_channel(rho, clause)
    assert np.max(np.abs(out - clause_channel_oracle(rho, clause, n))) <= TOL
    assert_density_matrix(out)


@PROPERTY_SETTINGS
@given(step_cases())
def test_step_kernel_matches_dense_average(case):
    inst, rho = case
    want = sum(clause_channel_oracle(rho, c, inst.n) for c in inst.clauses) / inst.L
    out = apply_step_channel(rho, inst)
    assert np.max(np.abs(out - want)) <= TOL
    assert_density_matrix(out)


@PROPERTY_SETTINGS
@given(step_cases())
def test_hamiltonian_scatter_matches_embedded_sum(case):
    inst, _ = case
    want = sum(embed_oracle(np.outer(c.amps, c.amps.conj()), c.i, c.j, inst.n)
               for c in inst.clauses)
    assert np.max(np.abs(build_hamiltonian(inst) - want)) <= TOL


@pytest.mark.parametrize("form", FORMS)
def test_clause_kernel_every_ordered_pair(form):
    """Every ordered pair of a 4-qubit register, adjacent or not, either order."""
    n = 4
    rng = np.random.default_rng(71)
    rho = densesim.random_density_matrix(n, rng)
    for i, j in itertools.permutations(range(n), 2):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        amps = {"restricted": (0, v[1], v[2], 0), "type-ii": (0, 0, 0, v[3]), "arbitrary": v}[form]
        clause = make_clause(i, j, amps)
        out = apply_clause_channel(rho, clause)
        assert np.max(np.abs(out - clause_channel_oracle(rho, clause, n))) <= TOL
        assert_density_matrix(out)
