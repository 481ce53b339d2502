"""The exact channel in the planted frame: the two layouts behind `channel.evolve`.

Every input runs in the instance's planted frame (the computational basis
when it has none), where the spin diagnostics S and S^2 are diagonal: the
channel is covariant under product unitaries, so rho0 is rotated into the
frame qubit by qubit and snapshots are rotated back. `channel.dual_residuals`
reads the same record (`_prepare`). The state is one flat vector in one of
the two layouts of `densesim._Sectors`, whose docstring describes them:

* Hamming-weight blocks, when every clause lies on one Hamming weight of its
  pair, |00>, span{|01>, |10>} or |11> (each other amplitude at most
  `instance.FORM_TOL`), and rho0 has no entry between two weights (exact
  zeros in the identity frame, at most FRAME_ZERO_TOL after the rotation).
  The channel of such clauses conserves weight, so every rho_t stays
  block-diagonal, and only its weight blocks are kept. Summed over clauses,
  the kernel's -phi (x) a terms are P_a rho, so one step is

      E(rho) = rho - w (H rho + rho H) + w sum_a G_a (x) c_a,   w = 1/L,

  with c_a = <phi_a|rho|phi_a> and G_a = P_a + K_a. H rho is one matrix
  product per weight block, H_k @ rho_k, with the packed H kept on the
  instance's record (one packed state in size), and tr[H rho] is the sum of
  their traces. Only c_a and G_a (x) c_a go through an index plan per clause
  (`_sector_plan`): one gather and one scatter into the same positions. G
  stays per clause, so a tilt of P against K (z P + K, with z on the H rho
  term) fits the same form.
* The whole space as one block, for every other input: the 2^n x 2^n matrix
  row-major, stepped by `channel._apply` through reshaped views. Index plans
  for the whole space would take several times the matrix per clause, where
  the views are free, so the two layouts keep two kernels.

Into and out of the packed layout: `densesim._checked_density` checks rho0
on its weight blocks, packed into one fresh vector (`_Sectors.pack`), and
in the identity frame `start` adopts that vector as the state, with no
copy; in a planted frame rho0 is rotated and packed once more. The whole
space is copied, so the state never shares memory with rho0. A snapshot is
`_Sectors.unpack` of the state.

What an instance needs is kept with it in a `weakref.WeakKeyDictionary`:
instances are immutable and hash by identity. `channel` imports this module
on the first call that needs it.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import densesim, observables
from .channel import _apply, _clause_terms, _energy, _hermitian_sum, _pair_entries
from .instance import FORM_TOL, Clause, Instance

FRAME_ZERO_TOL = 1e-13     # rotating rho0 into a planted frame leaves rounding of this size between weights
_PLANS_MAX_QUBITS = 10     # above this, a step builds each clause's index plan anew and drops it (see README)
_PAIR_WEIGHT = (0, 1, 1, 2)    # Hamming weight of the pair value 2*b_lo + b_hi


@dataclass(frozen=True)
class _SectorTerms:
    """A clause on one Hamming weight of its pair, in the layout the packed step reads.

    `pairs` lists the pair values (b, b2), each 2*b_lo + b_hi, of the entries
    (b (x) r, b2 (x) s) that c = <phi|rho|phi> reads and G (x) c writes:
    first rows x rows, for `rows` the pair values where phi is nonzero (all
    of one weight), then (e, e) for each other pair value e where G is
    nonzero, since outside rows G = P + K is diagonal. `ket` holds
    conj(phi_b) phi_b2 for the first `rows` pairs, and `half_wg` (w/2) G[b, b2]
    for every pair, w = 1/L the step's clause weight.
    """

    pair: tuple
    pairs: tuple
    ket: np.ndarray
    rows: int
    half_wg: np.ndarray


def _sector_terms(clause: Clause, n: int, weight: float) -> _SectorTerms:
    terms = _clause_terms(clause, n)
    g = np.zeros((4, 4), dtype=complex)
    for x, y, x2, y2, val in terms.g:
        g[2 * x + y, 2 * x2 + y2] = val
    rows = [2 * x + y for x, y, _ in terms.phi]
    phi = np.array([amp for _, _, amp in terms.phi])
    pairs = [*itertools.product(rows, repeat=2), *((b, b) for b in range(4) if b not in rows and g[b, b] != 0)]
    return _SectorTerms(pair=terms.pair, pairs=tuple(pairs), ket=np.outer(phi.conj(), phi).ravel(),
                        rows=len(rows) ** 2, half_wg=0.5 * weight * np.array([g[b, b2] for b, b2 in pairs]))


def _sector_plan(terms: _SectorTerms, n: int) -> np.ndarray:
    """Index plan of one clause into the packed n-qubit state, shape
    (len(terms.pairs), C(2n-4, n-2)).

    c = <phi|rho|phi> is laid out like a packed (n-2)-qubit matrix, entry
    (r, s) over weight(r) = weight(s), and row k holds, in that order, where
    rho's entry (b (x) r, b2 (x) s) sits for (b, b2) = terms.pairs[k]. Both
    lie in one weight block of rho, since b and b2 have one weight.
    """
    sec, rest = densesim._sectors(n), densesim._sectors(n - 2)
    full = densesim._clause_rows(np.arange(2**n), terms.pair)   # full index of b (x) r, row b
    return np.array([np.concatenate([np.add.outer(sec.base[full[b][r]], sec.rank[full[b2][r]]).ravel()
                                     for r in rest.blocks])
                     for b, b2 in terms.pairs])


def _conjugate(rho: np.ndarray, blocks) -> np.ndarray:
    """U rho U^dagger for U the tensor product of the 2x2 `blocks`, qubit 0 leftmost,
    applied one qubit at a time: no 2^n x 2^n U is built."""
    d = len(rho)
    for q, u in enumerate(blocks):
        rho = np.einsum("ab,ibj->iaj", u, rho.reshape(2**q, 2, -1)).reshape(d, d)
        rho = np.einsum("ab,ibj->iaj", u.conj(), rho.reshape(d * 2**q, 2, -1)).reshape(d, d)
    return rho


def _weight_sector(amps: np.ndarray) -> int | None:
    """The Hamming weight of the pair on which every amplitude above FORM_TOL lies, if any."""
    small = np.abs(amps) <= FORM_TOL
    return next((w for w in range(3) if all(small[b] for b in range(4) if _PAIR_WEIGHT[b] != w)), None)


@dataclass
class _Prepared:
    """What the exact channel derives from an instance alone.

    `clauses` are the clauses in the planted frame (`frame`, None for the
    identity) and `cut` the same clauses each cut to the weight of its pair
    it lies on, or None when some clause lies on no single weight. `kernels`
    memoizes each layout's `kernel`, `weight_h` holds H's weight blocks once
    `ground` or a packed step reads them, and `plans` is filled in by the
    first step on weight blocks when n <= _PLANS_MAX_QUBITS.
    """

    n: int
    frame: tuple | None
    clauses: list
    cut: list | None
    kernels: dict = field(default_factory=dict)
    plans: list | None = None

    def to_planted(self, rho: np.ndarray) -> np.ndarray:
        return rho if self.frame is None else _conjugate(rho, [b.conj().T for b in self.frame])

    def kernel(self, whole: bool) -> tuple:
        """(clause terms, H's `_pair_entries`) on the whole space, the `channel._apply` terms
        of `clauses`, or on the weight blocks, the `_SectorTerms` of `cut`."""
        if whole not in self.kernels:
            sec, clauses = densesim._sectors(self.n, whole), (self.clauses if whole else self.cut)
            terms = ([_clause_terms(c, self.n) for c in clauses] if whole else
                     [_sector_terms(c, self.n, 1.0 / len(clauses)) for c in clauses])
            self.kernels[whole] = (terms,
                                   _pair_entries(clauses, self.n, lambda x, y: sec.base[x] + sec.rank[y]))
        return self.kernels[whole]

    def hamiltonian(self, whole: bool) -> list:
        """H's square blocks on one layout, views of one packed array assembled from
        its `_pair_entries`."""
        sec, (positions, values) = densesim._sectors(self.n, whole), self.kernel(whole)[1]
        h = np.zeros(sec.size, dtype=complex)
        np.add.at(h, positions, values[:, None])
        return sec.views(h)

    @functools.cached_property
    def weight_h(self) -> list:
        """H's weight blocks, kept for the packed step: one packed state in size."""
        return self.hamiltonian(False)

    @functools.cached_property
    def ground(self) -> list:
        """(k, basis) for each block k of H that holds ground states (eigenvalues below
        ZERO_TOL), basis the block's columns of them. H is read by weight block when
        every clause lies on one weight, else on the whole space (assembled for this
        and dropped); a block is diagonalized only when a Cholesky factorization of it
        less ZERO_TOL fails."""
        ground, tol = [], observables.ZERO_TOL
        for k, square in enumerate(self.hamiltonian(True) if self.cut is None else self.weight_h):
            if densesim._positive_definite(square - tol * np.eye(len(square))):
                continue                   # every eigenvalue is above ZERO_TOL: no eigh needed
            vals, vecs = np.linalg.eigh(square)
            ground.append((k, vecs[:, vals < tol]))
        return ground


_PREPARED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()   # instance -> _Prepared


def _prepare(inst: Instance) -> _Prepared:
    """The instance's `_Prepared`, built on first use."""
    if inst not in _PREPARED:
        frame = observables._frame_blocks(inst)
        clauses = list(inst.clauses) if frame is None else [
            Clause(i=c.i, j=c.j, amps=np.kron(frame[c.i], frame[c.j]).conj().T @ c.amps) for c in inst.clauses]
        weights = [_weight_sector(c.amps) for c in clauses]
        cut = None if None in weights else [
            Clause(i=c.i, j=c.j, amps=np.where(np.equal(_PAIR_WEIGHT, w), c.amps, 0)) for c, w in zip(clauses, weights)]
        _PREPARED[inst] = _Prepared(n=inst.n, frame=frame, clauses=clauses, cut=cut)
    return _PREPARED[inst]


def start(inst: Instance, rho: np.ndarray, packed: np.ndarray | None):
    """(run, packed state) for `channel.evolve`: on the weight blocks when every clause
    lies on one weight and rho has no entry between weights in the planted frame, else
    on the whole space as one block.

    `packed` is `densesim._sectors(n).pack(rho)` in the caller's frame, a fresh vector
    (or None), which becomes the state when that is the planted frame. The state never
    shares memory with rho: `channel._resymmetrize` writes it in place.
    """
    prep = _prepare(inst)
    planted = prep.to_planted(rho)             # rho itself in the identity frame, else a fresh array
    if prep.cut is None:
        packed = None
    elif prep.frame is not None:
        packed = densesim._sectors(prep.n).pack(planted, FRAME_ZERO_TOL)
    if packed is not None:
        return _Run(prep, whole=False), packed
    state = np.array(planted, order="C") if planted is rho else planted
    return _Run(prep, whole=True), state.reshape(-1)


class _Run:
    """`channel.evolve`'s steps and observables in the planted frame, on one layout."""

    def __init__(self, prep: _Prepared, whole: bool):
        self.prep, self.whole, self.sec = prep, whole, densesim._sectors(prep.n, whole)
        self.terms, self.entries = prep.kernel(whole)
        self.spin = observables._spin_diagonal(prep.n)
        self.spin2 = self.spin * self.spin
        if whole and prep.cut is not None:    # H's ground blocks are weight blocks of the one square
            weights = densesim._sectors(prep.n).blocks
            self.ground = [(0, weights[k], g) for k, g in prep.ground]
        else:
            self.ground = [(k, slice(None), g) for k, g in prep.ground]

    def observe(self, state):
        pop, squares = state[self.sec.diag].real, self.sec.views(state)
        ground = sum(np.vdot(g, densesim._block(squares[k], b) @ g).real for k, b, g in self.ground)
        return self.spin @ pop, self.spin2 @ pop, ground

    def snapshot(self, state):
        rho = self.sec.unpack(state)
        return rho if self.prep.frame is None else _conjugate(rho, self.prep.frame)

    def step(self, state):
        prep, n = self.prep, self.prep.n
        if self.whole:
            out, energy = _apply(state.reshape(2**n, 2**n), self.terms)
            return out.reshape(-1), energy
        if prep.plans is None and n <= _PLANS_MAX_QUBITS:
            prep.plans = [_sector_plan(t, n) for t in self.terms]
        delta = np.empty_like(state)
        for h, rho, out in zip(prep.weight_h, self.sec.views(state), self.sec.views(delta)):
            np.matmul(h, rho, out=out)                 # H rho, one weight block at a time
        energy = float(delta[self.sec.diag].real.sum())
        delta *= -1.0 / len(self.terms)
        for t, plan in zip(self.terms, prep.plans or (_sector_plan(t, n) for t in self.terms)):
            c = t.ket @ state[plan[: t.rows]]
            delta[plan] += np.multiply.outer(t.half_wg, c)
        return _hermitian_sum(state, delta, self.sec), energy

    def energy(self, state):
        return _energy(state, self.entries)
