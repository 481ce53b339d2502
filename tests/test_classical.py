import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsatwalk.classical import (
    CnfInstance,
    assignment_string,
    check_cnf,
    papadimitriou,
    parse_dimacs,
)
from qsatwalk.errors import DimensionMismatch, ParseError

from helpers import PROPERTY_SETTINGS, papadimitriou_oracle, planted_cnf

UNSAT_4 = CnfInstance(
    n=2,
    clauses=(
        ((0, False), (1, False)),
        ((0, False), (1, True)),
        ((0, True), (1, False)),
        ((0, True), (1, True)),
    ),
)


def test_check_cnf_basics():
    inst = CnfInstance(n=3, clauses=(((0, False), (1, False)), ((1, False), (2, False))))
    assert check_cnf([True, True, True], inst)
    assert not check_cnf([False, False, True], inst)
    assert check_cnf([False, False, False], CnfInstance(n=3, clauses=()))


def test_check_cnf_dimension_mismatch():
    inst = CnfInstance(n=3, clauses=(((0, False), (1, False)),))
    with pytest.raises(DimensionMismatch):
        check_cnf([True, True], inst)


def test_empty_clause_list_returns_initial_string():
    inst = CnfInstance(n=5, clauses=())
    got = papadimitriou(inst, 1.0, seed=3)
    want = np.random.default_rng(3).integers(0, 2, size=5).astype(bool)
    assert np.array_equal(got, want)


def test_unsatisfiable_always_returns_none():
    for seed in range(100):
        assert papadimitriou(UNSAT_4, 10.0, seed) is None


def test_satisfiable_instances_verified_solutions():
    for seed in range(30):
        inst, _ = planted_cnf(12, 30, seed)
        got = papadimitriou(inst, 10.0, seed)
        assert got is not None
        assert check_cnf(got, inst)


def test_success_rate_scaling_n50():
    inst, _ = planted_cnf(50, 150, 424242)
    hits = sum(papadimitriou(inst, 10.0, s) is not None for s in range(50))
    assert hits / 50 >= 0.9


@st.composite
def cnf_walks(draw):
    n = draw(st.integers(1, 8))
    literal = st.tuples(st.integers(0, n - 1), st.booleans())
    clauses = draw(st.lists(st.tuples(literal, literal), max_size=3 * n))
    b = draw(st.sampled_from([0.5, 1.0, 4.0]))
    return CnfInstance(n=n, clauses=tuple(clauses)), b, draw(st.integers(0, 2**32 - 1))


@PROPERTY_SETTINGS
@given(cnf_walks())
def test_occurrence_list_walk_matches_full_reevaluation(case):
    """Updating only the flipped variable's clauses returns what re-evaluating
    every clause returns, bit for bit (both None, or the same assignment)."""
    inst, b, seed = case
    got, want = papadimitriou(inst, b, seed), papadimitriou_oracle(inst, b, seed)
    assert (got is None) == (want is None)
    if got is not None:
        assert np.array_equal(got, want)


def test_initial_satisfying_assignment_short_circuits():
    inst = CnfInstance(n=2, clauses=(((0, False), (1, False)),))
    for seed in range(20):
        got = papadimitriou(inst, 0.25, seed)
        if got is not None:
            assert check_cnf(got, inst)


def test_parse_dimacs_round_trip():
    text = """c tiny example
p cnf 3 2
1 -2 0
-1 3 0
"""
    inst = parse_dimacs(text)
    assert inst.n == 3 and inst.L == 2
    assert inst.clauses[0] == ((0, False), (1, True))
    assert inst.clauses[1] == ((0, True), (2, False))


def test_parse_dimacs_errors():
    with pytest.raises(ParseError):
        parse_dimacs("1 2 0\n")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 3 1\n1 2 3 0\n")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 3 1\n1 2\n")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf x 1\n1 2 0\n")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: CnfInstance(n=0, clauses=()), DimensionMismatch, "^need n >= 1, got 0$"),
        (lambda: CnfInstance(n=2, clauses=(((0, False),),)), ParseError, "^clause 0 has 1 literals, expected 2$"),
        (lambda: CnfInstance(n=2, clauses=(((0, False), (2, True)),)), ParseError,
         r"^clause 0 uses variable 2, outside \[0, 2\)$"),
        (lambda: CnfInstance(n=2.0, clauses=()), DimensionMismatch, r"^n must be an integer, got 2\.0$"),
        (lambda: CnfInstance(n=2.5, clauses=()), DimensionMismatch, r"^n must be an integer, got 2\.5$"),
        (lambda: CnfInstance(n="3", clauses=()), DimensionMismatch, "^n must be an integer, got '3'$"),
        (lambda: CnfInstance(n=True, clauses=()), DimensionMismatch, "^n must be an integer, got True$"),
        (lambda: CnfInstance(n=2, clauses=(((0, False), (1.5, True)),)), ParseError,
         r"^clause 0 uses variable 1\.5, which is not an integer$"),
        (lambda: CnfInstance(n=2, clauses=(((0, False), (1, True)), ((True, False), (0, True)))), ParseError,
         "^clause 1 uses variable True, which is not an integer$"),
        (lambda: parse_dimacs("p cnf 2 1\n1 x 0\n"), ParseError, r"^non-integer literal \(line 2\)$"),
        (lambda: parse_dimacs("c no problem line\n"), ParseError, r"^missing problem line \(field 'p cnf'\)$"),
        (lambda: parse_dimacs("p cnf 2 2\n1 2 0\n"), ParseError, "^problem line declares 2 clauses, found 1$"),
    ],
    ids=["n-0", "one-literal", "variable-outside-n", "n-float-integral", "n-float", "n-string", "n-bool",
         "variable-float", "variable-bool", "non-integer-literal", "no-problem-line", "clause-count"],
)
def test_cnf_checks_name_what_they_reject(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_assignment_string():
    assert assignment_string([True, False, True]) == "101"


def test_cnf_instance_accepts_numpy_integers():
    inst = CnfInstance(n=np.int64(2), clauses=(((np.int32(0), np.bool_(False)), (np.int64(1), True)),))
    assert inst.clauses == (((0, False), (1, True)),) and type(inst.clauses[0][0][0]) is int
