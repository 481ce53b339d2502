"""The exact channel in the planted frame: the two layouts behind `channel.evolve`.

Every input runs in the instance's planted frame (the computational basis
when it has none), where the spin diagnostics S and S^2 are diagonal: the
channel is covariant under product unitaries, so rho0 is rotated into the
frame qubit by qubit and snapshots are rotated back. `channel.dual_residuals`
reads the same record (`_prepare`). The state is one flat vector of square
blocks (`_Sectors`), in one of two layouts:

* Hamming-weight blocks, when every clause lies on one Hamming weight of its
  pair, |00>, span{|01>, |10>} or |11> (each other amplitude at most
  `instance.FORM_TOL`), and rho0 has no entry between two weights (exact
  zeros in the identity frame, at most FRAME_ZERO_TOL after the rotation).
  The channel of such clauses conserves weight, so every rho_t stays
  block-diagonal, and only the C(n, k) x C(n, k) blocks are kept, packed into
  C(2n, n) entries (41 MB instead of 256 MB at n = 12). Each clause reads
  and writes them through an index plan (`_sector_plan`), a few numpy calls
  per clause.
* The whole space as one block, for every other input: the 2^n x 2^n matrix
  row-major, stepped by `channel._apply` through reshaped views. Index plans
  for the whole space would take several times the matrix per clause, where
  the views are free, so the two layouts keep two kernels.

What an instance needs is kept with it in a `weakref.WeakKeyDictionary`:
instances are immutable and hash by identity. `channel` imports this module
on the first call that needs it.
"""

from __future__ import annotations

import functools
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
class _Sectors:
    """Packed layout of n-qubit matrices that are block-diagonal in `blocks`.

    Block k holds the basis states `blocks[k]`, ascending (`slice(None)` for
    the whole space as one block), and `rank[x]` is the place of x in its
    block. The blocks' row-major entries follow one another, so the entry
    (x, y) of a block sits at `base[x] + rank[y]`, and `squares` lists each
    block's (start, size).
    """

    blocks: tuple
    rank: np.ndarray
    base: np.ndarray
    diag: np.ndarray
    squares: list
    size: int

    def views(self, state: np.ndarray) -> list:
        return [state[start : start + m * m].reshape(m, m) for start, m in self.squares]

    def pack(self, rho: np.ndarray) -> np.ndarray:
        return np.concatenate([densesim._block(rho, b).ravel() for b in self.blocks])

    def unpack(self, state: np.ndarray) -> np.ndarray:
        d = len(self.rank)
        if len(self.blocks) == 1:           # the whole space: the state is the matrix, row-major
            return state.reshape(d, d).copy()
        out = np.zeros((d, d), dtype=complex)
        for b, square in zip(self.blocks, self.views(state)):
            out[np.ix_(b, b)] = square
        return out


@functools.lru_cache(maxsize=None)
def _sectors(n: int, whole: bool = False) -> _Sectors:
    """The Hamming-weight layout of n qubits or, with `whole`, the whole space as one block."""
    if whole:
        blocks, label = (slice(None),), np.zeros(2**n, dtype=np.intp)
    else:
        blocks, label = densesim._weight_index(n), densesim._hamming_weights(n)
    sizes = np.bincount(label)
    starts = np.concatenate(([0], np.cumsum(sizes**2)))
    rank = np.empty(2**n, dtype=np.intp)
    for b, m in zip(blocks, sizes):
        rank[b] = np.arange(m)
    base = starts[label] + rank * sizes[label]
    return _Sectors(blocks=blocks, rank=rank, base=base, diag=base + rank,
                    squares=list(zip(starts[:-1].tolist(), sizes.tolist())), size=int(starts[-1]))


@dataclass(frozen=True)
class _SectorTerms:
    """A clause on one Hamming weight of its pair, in the layout the sector kernel reads.

    `rows` lists the pair values 2*b_lo + b_hi where phi is nonzero, all of
    weight `weight`, `phi` the amplitudes there and `g` G = P + K on
    rows x rows. Outside `rows`, G is diagonal: `g_extra` at the pair values
    `extra`.
    """

    pair: tuple
    weight: int
    rows: tuple
    phi: np.ndarray
    g: np.ndarray
    extra: tuple
    g_extra: np.ndarray


def _sector_terms(clause: Clause, n: int) -> _SectorTerms:
    terms = _clause_terms(clause, n)
    g = np.zeros((4, 4), dtype=complex)
    for x, y, x2, y2, val in terms.g:
        g[2 * x + y, 2 * x2 + y2] = val
    rows = [2 * x + y for x, y, _ in terms.phi]
    extra = [b for b in range(4) if b not in rows and g[b, b] != 0]
    return _SectorTerms(
        pair=terms.pair, weight=_PAIR_WEIGHT[rows[0]], rows=tuple(rows),
        phi=np.array([amp for _, _, amp in terms.phi]), g=g[np.ix_(rows, rows)],
        extra=tuple(extra), g_extra=g[extra, extra],
    )


@dataclass(frozen=True)
class _SectorPlan:
    """Where one clause reads and writes the packed state (see `_sector_plan`)."""

    rows: np.ndarray     # (len(rows), A) positions of the entries (b (x) r, y) that a = <phi|rho reads
    runs: np.ndarray     # (len(rows), C) places in a of the entries (r, b2 (x) s) that make up c
    extra: np.ndarray    # (len(extra), C) positions of the entries (b (x) r, b (x) s) of G (x) c

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes + self.runs.nbytes + self.extra.nbytes


def _sector_plan(terms: _SectorTerms, n: int) -> _SectorPlan:
    """Index plan of one clause into the packed n-qubit state.

    The rows of rho that a = <phi|rho reads are b (x) r over the clause's
    pair values b and every rest index r (the other n-2 qubits), and each is
    a whole row of its weight block. So a lists, for each r in the order of
    weight then index, the block row of b (x) r, and row k of `rows` holds
    where those entries of rho sit for b = rows[k]: ascending runs of
    consecutive positions, read and written in one sweep. c = <phi|rho|phi>
    is laid out like a packed (n-2)-qubit matrix, entry (r, s) over
    weight(r) = weight(s); row k of `runs` holds where its entry
    (r, rows[k] (x) s) sits in a, and row k of `extra` where rho's entry
    (extra[k] (x) r, extra[k] (x) s) sits.
    """
    sec, rest = _sectors(n), _sectors(n - 2)
    full = densesim._clause_rows(np.arange(2**n), terms.pair)   # full index of b (x) r, row b
    widths = [len(sec.blocks[j + terms.weight]) for j in range(n - 1)]   # a's row length per weight of r
    starts = np.cumsum([0] + [len(r) * m for r, m in zip(rest.blocks, widths)])

    def square_runs(first, second):   # first[r] + second[s] over the packed (n-2)-qubit order of (r, s)
        return np.concatenate([np.add.outer(first[r], second[r]).ravel() for r in rest.blocks])

    rows = [np.concatenate([np.add.outer(sec.base[full[b][r]], np.arange(m)).ravel()
                            for r, m in zip(rest.blocks, widths)])
            for b in terms.rows]
    row_start = np.empty(2 ** (n - 2), dtype=np.intp)
    for j, r in enumerate(rest.blocks):
        row_start[r] = starts[j] + widths[j] * np.arange(len(r))
    runs = [square_runs(row_start, sec.rank[full[b]]) for b in terms.rows]
    extra = [square_runs(sec.base[full[b]], sec.rank[full[b]]) for b in terms.extra]
    return _SectorPlan(rows=np.array(rows), runs=np.array(runs),
                       extra=np.array(extra, dtype=np.intp).reshape(len(extra), rest.size))


def _add_sector_update(state, delta, terms: _SectorTerms, plan: _SectorPlan, weight: float,
                       rest: _Sectors) -> float:
    """`channel._add_clause_update` on packed states: add to `delta` an X with
    X + X^dagger = weight * (T_a(rho) - rho) and return tr[P_a rho].

    a = <phi|rho is gathered through `plan.rows` and c = <phi|rho|phi> from a
    through `plan.runs`. The update to the rows b (x) r of the clause's own
    pair values is -phi_b a plus G[b, b2] c / 2 on the entries of c's run
    b2; G's diagonal outside `rows` adds g_extra c / 2 through `plan.extra`.
    A handful of numpy calls per clause, whatever n.
    """
    a = terms.phi.conj() @ state[plan.rows]
    c = terms.phi @ a[plan.runs]
    update = np.multiply.outer(-weight * terms.phi, a)
    for row, own in zip(update, (0.5 * weight * terms.g)[:, :, None] * c):
        row[plan.runs] += own
    delta[plan.rows] += update
    delta[plan.extra] += (0.5 * weight * terms.g_extra)[:, None] * c
    return float(c[rest.diag].real.sum())


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
    memoizes each layout's `kernel`, and `plans` is filled in by the first
    step on weight blocks when n <= _PLANS_MAX_QUBITS.
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
            sec, clauses = _sectors(self.n, whole), (self.clauses if whole else self.cut)
            make = _clause_terms if whole else _sector_terms
            self.kernels[whole] = ([make(c, self.n) for c in clauses],
                                   _pair_entries(clauses, self.n, lambda x, y: sec.base[x] + sec.rank[y]))
        return self.kernels[whole]

    @functools.cached_property
    def ground(self) -> list:
        """(k, basis) for each block k of H that holds ground states (eigenvalues below
        ZERO_TOL), basis the block's columns of them. H is assembled packed from its
        entries, on the weight blocks when every clause lies on one weight, else on the
        whole space; a block is diagonalized only when a Cholesky factorization of it
        less ZERO_TOL fails."""
        sec, (positions, values) = _sectors(self.n, self.cut is None), self.kernel(self.cut is None)[1]
        h = np.zeros(sec.size, dtype=complex)
        np.add.at(h, positions, values[:, None])
        ground, tol = [], observables.ZERO_TOL
        for k, square in enumerate(sec.views(h)):
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


def start(inst: Instance, rho: np.ndarray, blocks: list):
    """(run, packed state) for `channel.evolve`: on the weight blocks when every clause
    lies on one weight and rho has no entry between weights in the planted frame, else
    on the whole space as one block.

    `blocks` are the `densesim._weight_blocks` of rho in the caller's frame.
    """
    prep = _prepare(inst)
    rho = prep.to_planted(rho)
    if prep.frame is not None and prep.cut is not None:
        blocks = densesim._weight_blocks(rho, FRAME_ZERO_TOL)
    run = _Run(prep, whole=prep.cut is None or len(blocks) == 1)
    return run, run.sec.pack(rho)


class _Run:
    """`channel.evolve`'s steps and observables in the planted frame, on one layout."""

    def __init__(self, prep: _Prepared, whole: bool):
        self.prep, self.whole, self.sec = prep, whole, _sectors(prep.n, whole)
        self.terms, self.entries = prep.kernel(whole)
        self.spin = observables._spin_diagonal(prep.n)
        self.squares = self.sec.squares
        if whole and prep.cut is not None:    # H's ground blocks are weight blocks of the one square
            weights = _sectors(prep.n).blocks
            self.ground = [(0, weights[k], g) for k, g in prep.ground]
        else:
            self.ground = [(k, slice(None), g) for k, g in prep.ground]

    def observe(self, state):
        pop, squares = state[self.sec.diag].real, self.sec.views(state)
        ground = sum(np.vdot(g, densesim._block(squares[k], b) @ g).real for k, b, g in self.ground)
        return self.spin @ pop, (self.spin * self.spin) @ pop, ground

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
        delta = np.zeros_like(state)
        weight, rest = 1.0 / len(self.terms), _sectors(n - 2)
        energy = sum(_add_sector_update(state, delta, t, prep.plans[k] if prep.plans else _sector_plan(t, n),
                                        weight, rest)
                     for k, t in enumerate(self.terms))
        return _hermitian_sum(state, delta, self.squares), energy

    def energy(self, state):
        return _energy(state, self.entries)
