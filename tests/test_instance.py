import hashlib
import json
import pickle

import numpy as np
import pytest

from qsatwalk import channel, densesim, trajectory
from qsatwalk.errors import (
    CertificationFailed,
    InvalidPromise,
    NotUnitary,
    ParseError,
    QubitPairInvalid,
    ZeroVector,
)
from qsatwalk.instance import (
    _DERIVED,
    ClauseForm,
    Instance,
    Promise,
    classify_clause,
    clause_census,
    conjugate_instance,
    deserialize,
    generate_no_instance,
    generate_planted_extended,
    generate_planted_restricted,
    make_clause,
    serialize,
)
from qsatwalk.observables import build_hamiltonian, clause_projector

from helpers import pure_density, random_product_basis, random_state_vector

SINGLET = (0, 1 / np.sqrt(2), -1 / np.sqrt(2), 0)


def test_make_clause_keeps_unit_norm():
    c = make_clause(0, 1, SINGLET)
    assert abs(np.linalg.norm(c.amps) - 1.0) < 1e-14
    assert np.allclose(c.amps, SINGLET)


def test_make_clause_normalizes():
    c = make_clause(0, 1, (0, 2.0, 0, 0))
    assert np.allclose(c.amps, (0, 1, 0, 0))


def test_make_clause_type_ii():
    c = make_clause(0, 1, (0, 0, 0, 1))
    assert classify_clause(c) is ClauseForm.TYPE_II


def test_make_clause_rejects_equal_pair():
    with pytest.raises(QubitPairInvalid):
        make_clause(2, 2, (1, 0, 0, 0))
    with pytest.raises(QubitPairInvalid):
        make_clause(-1, 0, (1, 0, 0, 0))


def test_make_clause_rejects_zero_vector():
    with pytest.raises(ZeroVector):
        make_clause(0, 1, (0, 1e-15, 0, 0))


def test_classify_forms():
    assert classify_clause(make_clause(0, 1, (0, 0.6, 0.8, 0))) is ClauseForm.RESTRICTED_TYPE_I
    assert classify_clause(make_clause(0, 1, (0, 0, 0, 1))) is ClauseForm.TYPE_II
    assert (
        classify_clause(make_clause(0, 1, (0, 1 / np.sqrt(2), 0, 1 / np.sqrt(2))))
        is ClauseForm.GENERAL_NO_ZERO_ZERO
    )
    assert classify_clause(make_clause(0, 1, (0.5, 0.5, 0.5, 0.5))) is ClauseForm.ARBITRARY


def test_classify_invariant_under_global_phase():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        c = make_clause(0, 1, v)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        assert classify_clause(make_clause(0, 1, phase * c.amps)) is classify_clause(c)


def test_generate_restricted_small():
    inst = generate_planted_restricted(2, 1, seed=7)
    c = inst.clauses[0]
    assert (c.i, c.j) == (0, 1)
    assert classify_clause(c) is ClauseForm.RESTRICTED_TYPE_I
    psi = inst.planted_state()
    assert np.allclose(psi, densesim.basis_state(2, 0))
    assert densesim.expectation(clause_projector(c, 2), pure_density(psi)) < 1e-10


def test_generate_restricted_all_type_i():
    inst = generate_planted_restricted(4, 6, seed=1)
    assert clause_census(inst) == {"restricted-type-i": 6}


def test_generate_restricted_rejects_single_qubit():
    with pytest.raises(QubitPairInvalid):
        generate_planted_restricted(1, 1, seed=0)


def test_generate_extended_forms():
    inst = generate_planted_extended(5, 10, 0.5, seed=3)
    forms = {classify_clause(c) for c in inst.clauses}
    assert forms <= {ClauseForm.RESTRICTED_TYPE_I, ClauseForm.TYPE_II}


def test_generate_extended_degenerate_fractions():
    zero = generate_planted_extended(4, 8, 0.0, seed=5)
    assert clause_census(zero) == {"restricted-type-i": 8}
    forced = generate_planted_extended(2, 1, 1.0, seed=5)
    assert np.allclose(forced.clauses[0].amps, (0, 0, 0, 1))


def test_planted_state_annihilated_across_generators():
    for seed in range(5):
        for inst in (
            generate_planted_restricted(4, 5, seed),
            generate_planted_extended(4, 5, 0.5, seed),
        ):
            rho = pure_density(inst.planted_state())
            for c in inst.clauses:
                assert densesim.expectation(clause_projector(c, inst.n), rho) <= 1e-10


def test_no_complete_pair_certifies_unit_gap():
    inst = generate_no_instance(2, "complete_pair")
    assert inst.L == 4
    assert inst.promise.kind == "no" and inst.promise.c == 1.0
    vals, _ = densesim.hermitian_eig(build_hamiltonian(inst))
    assert abs(vals[0] - 1.0) < 1e-9


def test_no_random_certified_reaches_target():
    inst = generate_no_instance(3, "random_certified", c_target=0.05, seed=5)
    assert inst.promise.c >= 0.05
    vals, _ = densesim.hermitian_eig(build_hamiltonian(inst))
    assert abs(vals[0] - inst.promise.c) < 1e-9


def test_no_random_certified_impossible_target():
    with pytest.raises(CertificationFailed):
        generate_no_instance(2, "random_certified", c_target=10.0, seed=0, max_attempts=50)


def test_conjugate_identity_is_noop():
    inst = generate_planted_restricted(3, 4, seed=9)
    same = conjugate_instance(inst, [np.eye(2)] * 3)
    for a, b in zip(inst.clauses, same.clauses):
        assert np.allclose(a.amps, b.amps)


def test_conjugate_singlet_invariance():
    # (u (x) u) leaves the singlet fixed up to phase; oracle is plain 4x4 algebra
    from qsatwalk.instance import Instance

    singlet = np.array(SINGLET, dtype=complex)
    inst = Instance(n=2, clauses=(make_clause(0, 1, singlet),), promise=Promise(kind="yes"))
    u = random_product_basis(1, 42)[0]
    rotated = conjugate_instance(inst, [u, u])
    expected = np.kron(u, u) @ singlet
    assert np.allclose(rotated.clauses[0].amps, expected)
    overlap = abs(np.vdot(rotated.clauses[0].amps, singlet))
    assert abs(overlap - 1.0) < 1e-10


def test_conjugate_rejects_non_unitary():
    inst = generate_planted_restricted(2, 1, seed=0)
    with pytest.raises(NotUnitary):
        conjugate_instance(inst, [np.eye(2), np.array([[1, 0], [0, 2.0]])])


def test_conjugate_preserves_planted_energy():
    inst = generate_planted_extended(3, 4, 0.3, seed=8)
    basis = random_product_basis(3, 77)
    rotated = conjugate_instance(inst, basis)
    rho = pure_density(rotated.planted_state())
    for c in rotated.clauses:
        assert densesim.expectation(clause_projector(c, 3), rho) <= 1e-10


def test_conjugate_transports_expectations():
    inst = generate_planted_restricted(3, 3, seed=15)
    basis = random_product_basis(3, 16)
    rotated = conjugate_instance(inst, basis)
    rng = np.random.default_rng(17)
    psi = random_state_vector(3, rng)
    v = densesim.product_unitary(basis)
    for c, cr in zip(inst.clauses, rotated.clauses):
        before = densesim.expectation(clause_projector(c, 3), psi)
        after = densesim.expectation(clause_projector(cr, 3), v @ psi)
        assert abs(before - after) < 1e-10


def test_serialize_round_trip_random_instances():
    rng = np.random.default_rng(100)
    for k in range(100):
        kind = k % 3
        if kind == 0:
            inst = generate_planted_restricted(int(rng.integers(2, 6)), int(rng.integers(1, 7)), k)
        elif kind == 1:
            inst = generate_planted_extended(
                int(rng.integers(2, 6)), int(rng.integers(1, 7)), 0.5, k
            )
        else:
            base = generate_planted_restricted(int(rng.integers(2, 5)), int(rng.integers(1, 5)), k)
            inst = conjugate_instance(base, random_product_basis(base.n, k))
        text = serialize(inst)
        back = deserialize(text)
        assert back.n == inst.n and back.L == inst.L
        for a, b in zip(inst.clauses, back.clauses):
            assert (a.i, a.j) == (b.i, b.j)
            assert np.max(np.abs(a.amps - b.amps)) <= 1e-15
        if inst.planted_basis is not None:
            for a, b in zip(inst.planted_basis, back.planted_basis):
                assert np.array_equal(a, b)
        assert serialize(back) == text  # re-serialization is bit-exact


def test_deserialize_missing_n():
    with pytest.raises(ParseError) as err:
        deserialize('{"clauses": []}')
    assert "n" in str(err.value)


def test_deserialize_rejects_denormalized_amps():
    doc = {
        "n": 2,
        "clauses": [{"i": 0, "j": 1, "amps": [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}],
    }
    with pytest.raises(ParseError) as err:
        deserialize(json.dumps(doc))
    assert "normalization" in str(err.value)


@pytest.mark.parametrize("kind", ["yes", "no"])
@pytest.mark.parametrize("c", [0.0, -1.0, float("nan"), float("inf")])
def test_promise_gap_must_be_finite_and_positive(kind, c):
    with pytest.raises(InvalidPromise):
        Promise(kind=kind, c=c)
    doc = json.loads(serialize(generate_no_instance(2, "complete_pair")))
    doc["promise"] = {"kind": kind, "c": c}
    with pytest.raises(ParseError) as err:
        deserialize(json.dumps(doc))
    assert "promise" in str(err.value)


@pytest.mark.parametrize(
    "amps, words",
    [
        ([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], ["clauses[1]", "amplitude"]),
        ([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0], [0.0, 0.0]], ["clauses[1]", "normalization"]),
        ([[0.0, 0.0], [1.0, 0.0, 7.0], [0.0, 0.0], [0.0, 0.0]], ["clauses[1].amps", "pair"]),
    ],
    ids=["three-amplitudes", "denormalized", "three-element-pair"],
)
def test_deserialize_names_the_clause_the_constructor_rejects(amps, words):
    doc = json.loads(serialize(generate_planted_restricted(3, 3, seed=1)))
    doc["clauses"][1]["amps"] = amps
    with pytest.raises(ParseError) as err:
        deserialize(json.dumps(doc))
    assert all(word in str(err.value) for word in words)


def _edited(edit):
    """A valid planted n=2 instance's document, changed by edit(doc), as JSON text."""
    doc = json.loads(serialize(generate_planted_restricted(2, 1, seed=1)))
    doc["promise"] = {"kind": "yes"}
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "^top-level value must be an object$"),
        (_edited(lambda doc: doc.update(n=1)), r"qubit count must be an integer >= 2, got 1 \(field 'n'\)"),
        (_edited(lambda doc: doc.update(clauses=[])), r"missing or empty clause list \(field 'clauses'\)"),
        (_edited(lambda doc: doc.update(clauses=[[0, 1]])), r"clause must be an object \(field 'clauses\[0\]'\)"),
        (_edited(lambda doc: doc["clauses"][0].pop("amps")), r"clause missing 'amps' \(field 'clauses\[0\]'\)"),
        (_edited(lambda doc: doc["clauses"][0].update(i="0")), "qubit indices must be integers"),
        (_edited(lambda doc: doc["clauses"][0].update(i=False, j=True)), "qubit indices must be integers"),
        (_edited(lambda doc: doc["planted_basis"].pop()), "planted basis must list 2 single-qubit blocks"),
        (_edited(lambda doc: doc["planted_basis"][1].pop()),
         r"each basis block needs 4 entries \(field 'planted_basis\[1\]'\)"),
        (_edited(lambda doc: doc.update(promise="yes")), r"promise must be an object with a 'kind' \(field 'promise'\)"),
        (_edited(lambda doc: doc.update(promise={"kind": "no", "c": "1"})), "promise gap c must be a number"),
        (_edited(lambda doc: doc.update(promise={"kind": "no", "c": True})), "promise gap c must be a number"),
        (_edited(lambda doc: doc["clauses"][0].update(j=2)), r"^clause 0 acts on \(0, 2\) but n=2$"),
    ],
    ids=["top-level-list", "n-1", "no-clauses", "clause-list", "clause-missing-amps", "string-index",
         "bool-indices", "short-basis", "short-basis-block", "promise-string", "promise-c-string", "promise-c-bool",
         "clause-outside-n"],
)
def test_deserialize_rejects_each_malformed_field(text, message):
    with pytest.raises(ParseError, match=message):
        deserialize(text)


def test_deserialize_rejects_unknown_promise_kind():
    doc = json.loads(serialize(generate_planted_restricted(2, 1, seed=1)))
    doc["promise"] = {"kind": "maybe"}
    with pytest.raises(ParseError) as err:
        deserialize(json.dumps(doc))
    assert "promise" in str(err.value) and "'maybe'" in str(err.value)


# SHA-256 of the serialized instances, fixed when both generators were given one body:
# a change to any draw, its order or the arithmetic on it changes these.
@pytest.mark.parametrize(
    "make, digest",
    [
        (lambda: generate_planted_restricted(2, 1, 0),
         "b423261613e7ab9aa60a5b4ca1df33fa0e27f63c47afbcd66039f585c85566b0"),
        (lambda: generate_planted_restricted(4, 7, 31),
         "95f774877b2ec8ca2c4b61b31aa8ca7e4d00598e88662fd616f4dabbcf57fc4a"),
        (lambda: generate_planted_restricted(6, 12, 2024),
         "f4932424f9958135d63b055430c3a38aa35d51cd1817ac846399358f3d7aca61"),
        (lambda: generate_planted_extended(2, 3, 0.0, 0),
         "156e06a99a9b5978f2b595b8020bb6e67c83c6dfba5049ef8c859e7deffa2586"),
        (lambda: generate_planted_extended(4, 7, 0.5, 31),
         "1bd3086ba15174ef9eaaffd51f65289babf7dd1c8c551418f50154691a3146dc"),
        (lambda: generate_planted_extended(6, 12, 1.0, 2024),
         "272a88a10c561ff7232511349541a30b7580256297c442a881f61306afb6b3b6"),
        (lambda: generate_planted_extended(5, 9, 0.25, 77),
         "cba5d688a1cd544a4a71d29755517f0ccd54c7f3807cdec584f6101f812659cb"),
    ],
    ids=["R-2-1", "R-4-7", "R-6-12", "E-2-3-0", "E-4-7-0.5", "E-6-12-1", "E-5-9-0.25"],
)
def test_planted_generators_are_byte_stable(make, digest):
    assert hashlib.sha256(serialize(make()).encode()).hexdigest() == digest


def test_deserialize_reports_json_line():
    with pytest.raises(ParseError) as err:
        deserialize('{"n": 2,\n "clauses": oops}')
    assert "line" in str(err.value)


def test_instance_rejects_out_of_range_clause():
    with pytest.raises(QubitPairInvalid):
        from qsatwalk.instance import Instance

        Instance(n=2, clauses=(make_clause(0, 3, (0, 1, 0, 0)),))


PAIR = make_clause(0, 1, (0, 0.6, 0.8, 0))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Promise(kind="no"), InvalidPromise, "^a NO promise requires a gap c > 0$"),
        (lambda: Instance(n=1, clauses=(PAIR,)), QubitPairInvalid, "^instances need n >= 2 qubits, got n=1$"),
        (lambda: Instance(n=2, clauses=()), ZeroVector, "^instances need at least one clause$"),
        (lambda: Instance(n=2, clauses=(PAIR,), planted_basis=(np.eye(2),)), NotUnitary,
         "^planted basis has 1 blocks, expected 2$"),
        (lambda: Instance(n=2, clauses=(PAIR,)).planted_qubit_states(), InvalidPromise,
         "^instance carries no planted basis$"),
        (lambda: Instance(n=2, clauses=(make_clause(0, 1, (1, 0, 0, 0)),), planted_basis=(np.eye(2),) * 2),
         InvalidPromise, "^planted state has energy 1.0 on clause 0"),
        (lambda: generate_planted_extended(3, 2, 1.5, seed=0), InvalidPromise, r"^typeII_fraction must lie in \[0, 1\]"),
        (lambda: generate_no_instance(1, "complete_pair"), QubitPairInvalid, "^need n >= 2, got 1$"),
        (lambda: generate_no_instance(2, "complete_triple"), InvalidPromise, "^unknown NO-instance style 'complete_triple'$"),
        (lambda: generate_no_instance(2, "random_certified"), InvalidPromise,
         "^random_certified needs c_target > 0, got None$"),
        (lambda: conjugate_instance(Instance(n=2, clauses=(PAIR,)), [np.eye(2)]), NotUnitary,
         "^basis has 1 blocks, expected 2$"),
    ],
    ids=["no-promise-without-gap", "n-1", "no-clauses", "short-planted-basis", "no-planted-basis",
         "planted-state-violates", "typeii-fraction", "no-instance-n-1", "no-instance-style",
         "no-instance-no-target", "short-conjugating-basis"],
)
def test_instance_api_rejects_invalid_arguments(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_complete_pair_certification_checks_its_gap(monkeypatch):
    """The complete pair's H is the identity on (0, 1); a Hamiltonian whose smallest
    eigenvalue is not 1 fails its certification."""
    from qsatwalk import observables

    monkeypatch.setattr(observables, "build_hamiltonian", lambda inst: np.eye(4) / 2)
    with pytest.raises(CertificationFailed, match="^complete pair certification gave min eig 0.5$"):
        generate_no_instance(2, "complete_pair")


def test_a_pickled_instance_carries_no_derived_records():
    """The engines' records live in the memo beside `Instance`, not on it: after `evolve`
    and a lockstep `run_ensemble` the instance pickles to as many bytes as before, and
    the unpickled copy has no memo entry."""
    inst = generate_planted_restricted(4, 8, seed=3)
    before = len(pickle.dumps(inst))
    channel.evolve(densesim.maximally_mixed(4), inst, 2)
    trajectory.run_ensemble(inst, 10, 8, 1)
    assert {build for build, *_ in _DERIVED[inst]} == {channel._prepare, channel._Layout, trajectory._tables}
    data = pickle.dumps(inst)
    assert len(data) == before
    assert pickle.loads(data) not in _DERIVED
