"""Quantum 2-SAT instances: clauses, promises, generators, and the file format.

A clause is a rank-1 projector |phi><phi| on an ordered qubit pair (i, j),
with phi stored as 4 amplitudes over |00>, |01>, |10>, |11> (qubit i the left
factor). Instances are immutable after construction; generators are pure
functions of their seed.
"""

from __future__ import annotations

import enum
import json
import weakref
from dataclasses import dataclass, replace

import numpy as np

from . import densesim
from .errors import (
    CertificationFailed,
    InvalidPromise,
    NotUnitary,
    ParseError,
    QubitPairInvalid,
    ZeroVector,
)

AMP_NORM_TOL = 1e-12
FORM_TOL = 1e-12
PLANTED_TOL = 1e-10


class ClauseForm(enum.Enum):
    """Structural classes of clause amplitude vectors, most specific first."""

    TYPE_II = "type-ii"                      # (0, 0, 0, e^{i theta})
    RESTRICTED_TYPE_I = "restricted-type-i"  # (0, a, b, 0)
    GENERAL_NO_ZERO_ZERO = "general-no-zero-zero"  # (0, a, b, c)
    ARBITRARY = "arbitrary"


@dataclass(frozen=True, eq=False)
class Clause:
    """Rank-1 projector on qubits (i, j), defined by a unit amplitude 4-vector."""

    i: int
    j: int
    amps: np.ndarray

    def __post_init__(self):
        if not (densesim._is_integer(self.i) and densesim._is_integer(self.j)):
            raise QubitPairInvalid(f"qubit indices must be integers, got ({self.i!r}, {self.j!r})")
        if self.i == self.j or self.i < 0 or self.j < 0:
            raise QubitPairInvalid(f"invalid qubit pair ({self.i}, {self.j})")
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (4,):
            raise ZeroVector(f"amplitude vector has shape {amps.shape}, expected (4,)")
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm2 - 1.0) <= AMP_NORM_TOL:
            raise ZeroVector(f"amplitude vector has squared norm {norm2}, violating normalization")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)


@dataclass(frozen=True, eq=False)
class Promise:
    """Problem promise: YES (a satisfying state exists) or NO with gap c."""

    kind: str
    c: float | None = None

    def __post_init__(self):
        if self.kind not in ("yes", "no"):
            raise InvalidPromise(f"promise kind must be 'yes' or 'no', got {self.kind!r}")
        if self.c is not None and not 0 < self.c < float("inf"):
            raise InvalidPromise(f"promise gap c must be finite and > 0, got {self.c}")
        if self.kind == "no" and self.c is None:
            raise InvalidPromise("a NO promise requires a gap c > 0")


@dataclass(frozen=True, eq=False)
class Instance:
    """n qubits, L clauses, optional planted basis and promise annotation."""

    n: int
    clauses: tuple
    planted_basis: tuple | None = None
    promise: Promise | None = None

    def __post_init__(self):
        if not densesim._is_integer(self.n):
            raise QubitPairInvalid(f"qubit count must be an integer, got n={self.n!r}")
        if self.n < 2:
            raise QubitPairInvalid(f"instances need n >= 2 qubits, got n={self.n}")
        clauses = tuple(self.clauses)
        if len(clauses) < 1:
            raise ZeroVector("instances need at least one clause")
        for k, c in enumerate(clauses):
            if c.i >= self.n or c.j >= self.n:
                raise QubitPairInvalid(
                    f"clause {k} acts on ({c.i}, {c.j}) but n={self.n}"
                )
        object.__setattr__(self, "clauses", clauses)
        if self.planted_basis is not None:
            basis = tuple(np.asarray(b, dtype=complex) for b in self.planted_basis)
            if len(basis) != self.n:
                raise NotUnitary(f"planted basis has {len(basis)} blocks, expected {self.n}")
            for q, b in enumerate(basis):
                densesim.require_unitary(b, what=f"planted basis block {q}")
                b.flags.writeable = False
            object.__setattr__(self, "planted_basis", basis)
            self._check_planted_satisfies()

    @property
    def L(self) -> int:
        return len(self.clauses)

    def planted_qubit_states(self):
        """Single-qubit states b_q|0> defining the planted product state."""
        if self.planted_basis is None:
            raise InvalidPromise("instance carries no planted basis")
        return [b[:, 0].copy() for b in self.planted_basis]

    def planted_state(self) -> np.ndarray:
        """Full 2^n planted product state (requires planted_basis)."""
        psi = np.array([1.0 + 0.0j])
        for s in self.planted_qubit_states():
            psi = np.kron(psi, s)
        return psi

    def _check_planted_satisfies(self):
        states = self.planted_qubit_states()
        for k, c in enumerate(self.clauses):
            pair = np.kron(states[c.i], states[c.j])
            overlap = abs(np.vdot(c.amps, pair)) ** 2
            if overlap > PLANTED_TOL:
                raise InvalidPromise(
                    f"planted state has energy {overlap} on clause {k}, above {PLANTED_TOL}"
                )


_DERIVED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()   # instance -> {(build, *args): record}


def _derived(inst: Instance, build, *args):
    """`build(inst, *args)`, built on the first call and returned by every later one
    while `inst` lives: instances are immutable and hash by identity.

    The records live here, not on the instance, so a pickled instance carries
    none. A record must not refer to its instance, so that dropping the
    instance frees its records by reference counting alone.
    """
    records = _DERIVED.setdefault(inst, {})
    key = (build, *args)
    if key not in records:
        records[key] = build(inst, *args)
    return records[key]


def make_clause(i: int, j: int, amps) -> Clause:
    """Build a clause, normalizing the amplitude vector to unit norm."""
    amps = np.asarray(amps, dtype=complex)
    norm = float(np.linalg.norm(amps))
    if norm < 1e-14:
        raise ZeroVector("amplitude vector is numerically zero")
    return Clause(i=i, j=j, amps=amps / norm)


def classify_clause(clause: Clause) -> ClauseForm:
    a = np.abs(clause.amps)
    if a[0] <= FORM_TOL and a[1] <= FORM_TOL and a[2] <= FORM_TOL:
        return ClauseForm.TYPE_II
    if a[0] <= FORM_TOL and a[3] <= FORM_TOL:
        return ClauseForm.RESTRICTED_TYPE_I
    if a[0] <= FORM_TOL:
        return ClauseForm.GENERAL_NO_ZERO_ZERO
    return ClauseForm.ARBITRARY


def clause_census(inst: Instance) -> dict:
    """Counts of clause forms, keyed by ClauseForm value strings."""
    census: dict[str, int] = {}
    for c in inst.clauses:
        key = classify_clause(c).value
        census[key] = census.get(key, 0) + 1
    return census


def _identity_basis(n: int) -> tuple:
    return tuple(np.eye(2, dtype=complex) for _ in range(n))


def _random_pair(n: int, rng: np.random.Generator):
    i, j = rng.choice(n, size=2, replace=False)
    return (int(i), int(j)) if i < j else (int(j), int(i))


def _haar_pair(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def _check_qubit_count(n) -> None:
    """The generators' check of n: an integer (a numpy integer too, a bool not) >= 2,
    else QubitPairInvalid."""
    if not densesim._is_integer(n):
        raise QubitPairInvalid(f"qubit count must be an integer, got n={n!r}")
    if n < 2:
        raise QubitPairInvalid(f"need n >= 2, got {n}")


def _generate_planted(n: int, L: int, typeII_fraction: float | None, seed) -> Instance:
    """The planted generators' body. Per clause it draws the pair, then (unless
    typeII_fraction is None) random(), which makes a |11><11| clause when below
    typeII_fraction, and otherwise a Haar pair (a, b) for a|01> + b|10>."""
    _check_qubit_count(n)
    rng = np.random.default_rng(seed)
    clauses = []
    for _ in range(L):
        i, j = _random_pair(n, rng)
        if typeII_fraction is not None and rng.random() < typeII_fraction:
            clauses.append(make_clause(i, j, (0.0, 0.0, 0.0, 1.0)))
        else:
            a, b = _haar_pair(rng)
            clauses.append(make_clause(i, j, (0.0, a, b, 0.0)))
    return Instance(
        n=n,
        clauses=tuple(clauses),
        planted_basis=_identity_basis(n),
        promise=Promise(kind="yes"),
    )


def generate_planted_restricted(n: int, L: int, seed) -> Instance:
    """YES instance of L clauses a|01>+b|10> on random pairs; |0...0> satisfies all."""
    return _generate_planted(n, L, None, seed)


def generate_planted_extended(n: int, L: int, typeII_fraction: float, seed) -> Instance:
    """YES instance mixing restricted clauses with |11><11| clauses."""
    if not 0.0 <= typeII_fraction <= 1.0:
        raise InvalidPromise(f"typeII_fraction must lie in [0, 1], got {typeII_fraction}")
    return _generate_planted(n, L, typeII_fraction, seed)


def _random_arbitrary_clause(n: int, rng: np.random.Generator) -> Clause:
    i, j = _random_pair(n, rng)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return make_clause(i, j, v)


def generate_no_instance(
    n: int,
    style: str,
    c_target: float | None = None,
    seed=None,
    clause_count: int | None = None,
    max_attempts: int = 1000,
) -> Instance:
    """NO instance with a numerically certified promise gap.

    style "complete_pair" puts the four basis projectors on qubits (0, 1),
    so H restricted to that pair is the identity and c = 1 exactly.
    style "random_certified" draws `clause_count` arbitrary clauses (default
    2n + 2) and retries until the smallest eigenvalue of H reaches c_target.
    """
    from .observables import build_hamiltonian

    _check_qubit_count(n)
    if style == "complete_pair":
        basis_kets = np.eye(4)
        clauses = tuple(make_clause(0, 1, basis_kets[k]) for k in range(4))
        # every clause sits on qubits (0, 1), so H = H_2 (x) I and lambda_min(H) = lambda_min(H_2)
        lo = float(np.linalg.eigvalsh(build_hamiltonian(Instance(n=2, clauses=clauses)))[0])
        if abs(lo - 1.0) > 1e-9:
            raise CertificationFailed(f"complete pair certification gave min eig {lo}")
        return Instance(n=n, clauses=clauses, promise=Promise(kind="no", c=1.0))
    if style != "random_certified":
        raise InvalidPromise(f"unknown NO-instance style {style!r}")
    if c_target is None or c_target <= 0:
        raise InvalidPromise(f"random_certified needs c_target > 0, got {c_target}")
    rng = np.random.default_rng(seed)
    L = clause_count if clause_count is not None else 2 * n + 2
    for _ in range(max_attempts):
        clauses = tuple(_random_arbitrary_clause(n, rng) for _ in range(L))
        inst = Instance(n=n, clauses=clauses)
        lo = float(np.linalg.eigvalsh(build_hamiltonian(inst))[0])
        if lo >= c_target:
            return replace(inst, promise=Promise(kind="no", c=lo))
    raise CertificationFailed(
        f"no draw of {L} clauses reached min eigenvalue {c_target} in {max_attempts} attempts"
    )


def conjugate_instance(inst: Instance, basis) -> Instance:
    """Rotate every clause by the product unitary of per-qubit blocks.

    Clause amplitudes become (v_i (x) v_j)|phi>; the planted basis, when
    present, is composed with the applied blocks. The promise is unchanged
    (a product unitary preserves the spectrum of H).
    """
    blocks = [np.asarray(b, dtype=complex) for b in basis]
    if len(blocks) != inst.n:
        raise NotUnitary(f"basis has {len(blocks)} blocks, expected {inst.n}")
    for q, b in enumerate(blocks):
        densesim.require_unitary(b, what=f"basis block {q}")
    new_clauses = tuple(
        Clause(i=c.i, j=c.j, amps=np.kron(blocks[c.i], blocks[c.j]) @ c.amps)
        for c in inst.clauses
    )
    new_basis = None
    if inst.planted_basis is not None:
        new_basis = tuple(blocks[q] @ inst.planted_basis[q] for q in range(inst.n))
    return Instance(
        n=inst.n, clauses=new_clauses, planted_basis=new_basis, promise=inst.promise
    )


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def _complex_pairs(vec) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(vec, dtype=complex)]


def _from_pairs(pairs, field_name):
    try:
        return np.array([complex(re, im) for re, im in pairs], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed [re, im] pair list: {exc}", field=field_name)


def serialize(inst: Instance) -> str:
    """Canonical JSON text for an instance; round-trips bit-exactly."""
    doc: dict = {
        "n": inst.n,
        "clauses": [
            {"i": c.i, "j": c.j, "amps": _complex_pairs(c.amps)} for c in inst.clauses
        ],
    }
    if inst.planted_basis is not None:
        doc["planted_basis"] = [_complex_pairs(b.reshape(4)) for b in inst.planted_basis]
    if inst.promise is not None:
        p: dict = {"kind": inst.promise.kind}
        if inst.promise.c is not None:
            p["c"] = float(inst.promise.c)
        doc["promise"] = p
    return json.dumps(doc, indent=1)


def deserialize(text: str) -> Instance:
    """Parse the instance file format, validating every invariant.

    Amplitudes are taken exactly as stored (no renormalization) so that
    re-serializing a parsed instance is bit-identical.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno)
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    if "n" not in doc:
        raise ParseError("missing qubit count", field="n")
    n = doc["n"]
    if not densesim._is_integer(n) or n < 2:
        raise ParseError(f"qubit count must be an integer >= 2, got {n!r}", field="n")
    raw_clauses = doc.get("clauses")
    if not isinstance(raw_clauses, list) or not raw_clauses:
        raise ParseError("missing or empty clause list", field="clauses")
    clauses = []
    for k, rc in enumerate(raw_clauses):
        where = f"clauses[{k}]"
        if not isinstance(rc, dict):
            raise ParseError("clause must be an object", field=where)
        for key in ("i", "j", "amps"):
            if key not in rc:
                raise ParseError(f"clause missing {key!r}", field=where)
        i, j = rc["i"], rc["j"]
        if not (densesim._is_integer(i) and densesim._is_integer(j)):
            raise ParseError("qubit indices must be integers", field=where)
        amps = _from_pairs(rc["amps"], f"{where}.amps")
        try:
            clauses.append(Clause(i=i, j=j, amps=amps))
        except (QubitPairInvalid, ZeroVector) as exc:
            raise ParseError(str(exc), field=where)
    planted = None
    if "planted_basis" in doc and doc["planted_basis"] is not None:
        raw_basis = doc["planted_basis"]
        if not isinstance(raw_basis, list) or len(raw_basis) != n:
            raise ParseError(
                f"planted basis must list {n} single-qubit blocks", field="planted_basis"
            )
        planted = []
        for q, rb in enumerate(raw_basis):
            flat = _from_pairs(rb, f"planted_basis[{q}]")
            if flat.shape != (4,):
                raise ParseError("each basis block needs 4 entries", field=f"planted_basis[{q}]")
            planted.append(flat.reshape(2, 2))
    promise = None
    if "promise" in doc and doc["promise"] is not None:
        rp = doc["promise"]
        if not isinstance(rp, dict) or "kind" not in rp:
            raise ParseError("promise must be an object with a 'kind'", field="promise")
        c = rp.get("c")
        if c is not None and (isinstance(c, bool) or not isinstance(c, (int, float))):
            raise ParseError("promise gap c must be a number", field="promise.c")
        try:
            promise = Promise(kind=rp["kind"], c=None if c is None else float(c))
        except InvalidPromise as exc:
            raise ParseError(str(exc), field="promise")
    try:
        return Instance(n=n, clauses=tuple(clauses), planted_basis=planted, promise=promise)
    except (QubitPairInvalid, NotUnitary, InvalidPromise, ZeroVector) as exc:
        raise ParseError(str(exc))


def save_instance(inst: Instance, path) -> None:
    with open(path, "w") as fh:
        fh.write(serialize(inst))
        fh.write("\n")


def load_instance(path) -> Instance:
    with open(path) as fh:
        return deserialize(fh.read())
