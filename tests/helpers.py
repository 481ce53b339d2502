"""Shared test utilities: independent oracles, small generators, hypothesis settings."""

import math
from functools import reduce

import numpy as np
from hypothesis import HealthCheck, assume, settings
from hypothesis import strategies as st

from qsatwalk import densesim
from qsatwalk.classical import CnfInstance
from qsatwalk.instance import Instance, make_clause
from qsatwalk.observables import ZERO_TOL
from qsatwalk.trajectory import haar_unitary

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PROPERTY_SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
FORMS = ("restricted", "type-ii", "arbitrary")

# seeds the samplers accept, each made afresh, with what the JSON writers record for it
SEED_KINDS = {
    "int": (lambda: 3, 3),
    "list": (lambda: [3, 4], [3, 4]),
    "int64": (lambda: np.int64(3), 3),
    "int64-array": (lambda: np.array([3, 4], dtype=np.int64), [3, 4]),
    "generator": (lambda: np.random.default_rng(3), None),
}

unit = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)


@st.composite
def amplitudes(draw, form):
    z = lambda: complex(draw(unit), draw(unit))  # noqa: E731
    if form == "restricted":
        amps = (0, z(), z(), 0)
    elif form == "type-ii":
        theta = draw(st.floats(0.0, 2 * np.pi))
        amps = (0, 0, 0, complex(np.cos(theta), np.sin(theta)))
    else:
        amps = tuple(z() for _ in range(4))
    assume(np.linalg.norm(amps) > 1e-6)
    return amps


@st.composite
def clauses(draw, n):
    """A clause of a random form on a random ordered pair of n qubits (i > j included)."""
    i, j = draw(st.permutations(range(n)))[:2]
    form = draw(st.sampled_from(FORMS))
    return make_clause(i, j, draw(amplitudes(form)))


def embed_oracle(op4, i, j, n):
    """Index-arithmetic embedding of a two-qubit operator (independent of kron_embed)."""
    op4 = np.asarray(op4, dtype=complex)
    d = 2**n
    out = np.zeros((d, d), dtype=complex)
    mask = sum(1 << (n - 1 - q) for q in (i, j))
    for x in range(d):
        for y in range(d):
            if (x & ~mask) != (y & ~mask):
                continue
            rx = 2 * ((x >> (n - 1 - i)) & 1) + ((x >> (n - 1 - j)) & 1)
            ry = 2 * ((y >> (n - 1 - i)) & 1) + ((y >> (n - 1 - j)) & 1)
            out[x, y] = op4[rx, ry]
    return out


def apply_oracle(op4, i, j, psi):
    """A two-qubit operator applied to qubits (i, j) of a state vector in O(2^n): a
    tensordot on axes (i, j) of psi as an n-axis tensor (independent of densesim)."""
    psi = np.asarray(psi, dtype=complex)
    n = len(psi).bit_length() - 1
    op = np.asarray(op4, dtype=complex).reshape(2, 2, 2, 2)
    out = np.tensordot(op, psi.reshape((2,) * n), axes=([2, 3], [i, j]))
    return np.moveaxis(out, [0, 1], [i, j]).reshape(-1)


def haar_qr_oracle(z):
    """Haar unitaries from complex Ginibre matrices on the last two axes by LAPACK
    QR, with the phases of R's diagonal moved into Q (Mezzadri 2007)."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def embed_single(op2, q, n):
    """A single-qubit operator at position q of an n-qubit register."""
    return np.kron(np.kron(np.eye(2**q), np.asarray(op2, dtype=complex)), np.eye(2 ** (n - 1 - q)))


def pure_density(psi):
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def random_instance(n, seed, nonzero=4):
    """2n clauses with `nonzero` random complex amplitudes, at random positions,
    on random pairs of n qubits."""
    rng = np.random.default_rng(seed)
    drawn = []
    for _ in range(2 * n):
        i, j = (int(q) for q in rng.choice(n, 2, replace=False))
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        if nonzero < 4:
            amps[rng.choice(4, 4 - nonzero, replace=False)] = 0
        drawn.append(make_clause(i, j, amps))
    return Instance(n=n, clauses=tuple(drawn))


def random_state_vector(n, rng):
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return v / np.linalg.norm(v)


def random_hermitian(n, rng):
    d = 2**n
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def weight_squares(a, tol=0.0):
    """a's Hamming-weight blocks, views of `_Sectors.pack(a, tol)`, or the whole space
    as one block, `[a]`, when an entry couples two weights."""
    sec = densesim._sectors(densesim.num_qubits(a))
    packed = sec.pack(a, tol)
    return [a] if packed is None else sec.views(packed)


def weight_blocks_oracle(a):
    """For each Hamming weight k of the 2^n x 2^n a, ascending: the basis states b of
    weight k (from bit counts, independent of densesim), the block `a[b][:, b]` and its
    flat positions in a read row-major, `np.add.outer(b * 2^n, b)`. The per-block
    reference of `_Sectors.pack`, `unpack` and the mirror map."""
    d = len(a)
    weights = np.array([bin(x).count("1") for x in range(d)])
    blocks = [np.flatnonzero(weights == k) for k in range(d.bit_length())]
    return [(b, a[b][:, b], np.add.outer(b * d, b)) for b in blocks]


def trace_distance(a, b):
    """(1/2) * trace norm of (a - b) for Hermitian a, b."""
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    vals = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
    return 0.5 * float(np.sum(np.abs(vals)))


def random_product_basis(n, seed):
    rng = np.random.default_rng(seed)
    return [haar_unitary(rng) for _ in range(n)]


def planted_cnf(n, L, seed):
    """Satisfiable random 2-CNF: every clause is satisfied by a hidden assignment."""
    rng = np.random.default_rng(seed)
    hidden = rng.integers(0, 2, size=n).astype(bool)
    clauses = []
    while len(clauses) < L:
        v, w = rng.choice(n, size=2, replace=False)
        neg_v = bool(rng.integers(2))
        neg_w = bool(rng.integers(2))
        if (hidden[v] != neg_v) or (hidden[w] != neg_w):
            clauses.append(((int(v), neg_v), (int(w), neg_w)))
    return CnfInstance(n=n, clauses=tuple(clauses)), hidden


def papadimitriou_oracle(inst, b, seed):
    """The classical walk re-evaluating every clause before each flip, with
    `classical.papadimitriou`'s draws (independent of its occurrence lists)."""
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, 2, size=inst.n).astype(bool)
    if not inst.clauses:
        return assignment

    def unsatisfied():
        return [k for k, clause in enumerate(inst.clauses)
                if not any(bool(assignment[v]) != neg for v, neg in clause)]

    for _ in range(math.ceil(b * inst.n * inst.n)):
        unsat = unsatisfied()
        if not unsat:
            return assignment
        clause = inst.clauses[unsat[int(rng.integers(len(unsat)))]]
        v = clause[int(rng.integers(2))][0]
        assignment[v] = not assignment[v]
    return None if unsatisfied() else assignment


def twirl_oracle(x, q, n):
    """(I/2 on qubit q) (x) tr_q[x], by tensor axes: the twirl the channel applies."""
    t = np.asarray(x, dtype=complex).reshape((2,) * (2 * n))
    reduced = np.trace(t, axis1=q, axis2=n + q)
    full = np.multiply.outer(reduced, np.eye(2) / 2)
    return np.moveaxis(full, [-2, -1], [q, n + q]).reshape(2**n, 2**n)


def clause_channel_oracle(rho, clause, n):
    """Dense clause update (1-P) rho (1-P) + 1/2 Tw_i(P rho P) + 1/2 Tw_j(P rho P)."""
    p = embed_oracle(np.outer(clause.amps, clause.amps.conj()), clause.i, clause.j, n)
    keep = np.eye(2**n) - p
    prp = p @ rho @ p
    return keep @ rho @ keep + 0.5 * (twirl_oracle(prp, clause.i, n) + twirl_oracle(prp, clause.j, n))


def evolve_oracle(inst, steps):
    """trH, trS, trS2 and trPi0 of rho_t from the maximally mixed state, t = 0..steps.

    Dense clause updates averaged over clauses, spin operators summed from
    embedded sigma_z and rotated into the planted frame, and the ground
    projector from a full `np.linalg.eigh` of H (independent of `channel.evolve`).
    """
    n, d = inst.n, 2**inst.n
    h = sum(embed_oracle(np.outer(c.amps, c.amps.conj()), c.i, c.j, n) for c in inst.clauses)
    s = sum(embed_single(np.diag([1.0, -1.0]), q, n) for q in range(n))
    if inst.planted_basis is not None:
        v = reduce(np.kron, inst.planted_basis)
        s = v @ s @ v.conj().T
    vals, vecs = np.linalg.eigh(h)
    ground = vecs[:, vals < ZERO_TOL]
    ops = (h, s, s @ s, ground @ ground.conj().T)
    rho = np.eye(d, dtype=complex) / d
    series = np.empty((4, steps + 1))
    for t in range(steps + 1):
        series[:, t] = [np.trace(op @ rho).real for op in ops]
        rho = sum(clause_channel_oracle(rho, c, n) for c in inst.clauses) / inst.L
    return series
