"""Shared test utilities: independent oracles and small generators."""

import numpy as np

from qsatwalk.classical import CnfInstance
from qsatwalk.trajectory import haar_unitary


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


def twirl_oracle(x, q, n):
    """(I/2 on qubit q) (x) tr_q[x], by tensor axes (independent of channel.twirl)."""
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
