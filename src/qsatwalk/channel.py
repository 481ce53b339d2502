"""Exact one-step update map of the measurement walk and its long-time evolution.

One clause update measures the clause projector P = |phi><phi| and, on an
unsatisfied outcome, replaces a random one of its two qubits by the
maximally mixed state:

    T_a(rho) = (1-P) rho (1-P) + 1/2 Twirl_i(P rho P) + 1/2 Twirl_j(P rho P)

The step averages T_a uniformly over the L clauses. Everything here is exact
arithmetic on a density matrix, and each clause update touches only its two
qubits: with a = <phi|rho, an operator from the full space to the other n-2
qubits, and c = <phi|rho|phi>, an operator on them,

    T_a(rho) - rho = -phi (x) a - (phi (x) a)^dagger + G (x) c,

where G = P + K and K = 1/2 (I/2 (x) tr_lo P + tr_hi P (x) I/2) carries the
two twirls. So no embedded projector is built, and the update is added as
X + X^dagger, which makes every state Hermitian and equals T_a(rho) - rho
only for Hermitian rho. Summed over clauses, the -phi (x) a terms are
P_a rho, so one step is

    E(rho) = rho - w (H rho + rho H) + w sum_a G_a (x) c_a,   w = 1/L.

`evolve` and `dual_residuals` work in the instance's planted frame (the
computational basis when it has none), where the spin diagnostics S and S^2
are diagonal: the channel is covariant under product unitaries, so inputs
are rotated into the frame qubit by qubit (`_conjugate`) and snapshots are
rotated back. The state is one flat vector in one of the two layouts of
`densesim._Sectors`, whose docstring describes them, and each layout has its
kernel:

* The whole space as one block: the 2^n x 2^n matrix row-major, read and
  written by `_apply` through reshaped views around the clause's qubits,
  O(4^n) per clause. It serves `apply_*`, `dual_residuals`, and `evolve` on
  inputs that couple Hamming weights. Index plans for the whole space would
  take several times the matrix per clause, where the views are free.
* Hamming-weight blocks, when every clause lies on one Hamming weight of its
  pair, |00>, span{|01>, |10>} or |11> (each other amplitude at most
  `instance.FORM_TOL`), and rho0 has no entry between two weights (exact
  zeros in the identity frame, at most FRAME_ZERO_TOL after the rotation).
  Such a channel conserves weight, so every rho_t stays block-diagonal, and
  only its weight blocks are kept: C(2n, n) entries instead of 4^n. H rho is
  one matrix product per weight block, H_k @ rho_k, with the packed H kept
  on the instance's record (one packed state in size). H comes from the
  one assembly of its clause entries, `densesim._pair_entries`, which
  `observables.build_hamiltonian` reads too. Only c_a and G_a (x) c_a go
  through an index plan per clause (`_sector_plan`): one gather and one
  scatter into the same positions, only at the entries of c_a on and above
  its diagonal. The adjoint in
  X + X^dagger writes the entries below, so each plan row holds
  (C(2n-4, n-2) + 2^(n-2)) / 2 positions, about half of c_a.

Each kernel returns the next state alone. `evolve` reads every series value
from a state once, through `_Layout.observe`, by one rule on both layouts:
tr[H rho] over H's entries (`_energy`), tr[S rho] and tr[S^2 rho] from the
diagonal, tr[Pi0 rho] from the ground blocks, each summed by numpy, so a
state reads the same whichever call or step it ends or starts, and no series
depends on the builtin `sum`, which Python 3.12 made compensated.

Both kernels read one record per clause, `_ClauseTerms`: its ket and the
entries of G = P + K, listed with phi's rows x rows first. The P inside G
comes from the product behind H's entries, and the packed step's ket for
c_a is the conjugate of H's entries on those rows, so H, G and c_a read the
same floats. G stays per clause, so a tilt of P against K (z P + K, with z
on the H rho term) fits the same form.

Into and out of the packed layout: `densesim._checked_density` checks rho0
on its weight blocks, packed into one fresh vector (`_Sectors.pack`), and
in the identity frame `_start` adopts that vector as the state, with no
copy; in a planted frame rho0 is rotated and packed once more. A 1-D rho0
is the diagonal of a density matrix: it is packed straight onto the weight
blocks and unpacked only where a dense matrix is needed, in a planted frame
or on the whole space. The whole space is copied, so the state never
shares memory with rho0 (`_resymmetrize` writes it in place, with the
Hermitian-block check of `densesim._adjoint_deviation` that also checks
rho0). A snapshot is `_Sectors.unpack` of the state. The pack, that
check's adjoint and the unpack are each one pass through an index array of
the packed entries, kept on the `_Sectors` record of n, which lives while a
`_Layout` or a call in progress holds it.

What the channel derives from an instance alone is built once and kept in
the instance's memo, `instance._derived`, with the walks' records: the
`_Prepared` that `_prepare` builds (its clauses in the frame, H's entries
on the weight blocks, the packed H and the ground basis), and one `_Layout`
per layout, holding its `_Prepared`, the clause terms, H's entries, the
ground read, S's and S^2's diagonals and, on weight blocks, the scale of c_a
and the plans, built by the first step. No record refers to the instance, so
each goes with it, and no per-n cache keeps one of its arrays past it.
`evolve` and `dual_residuals` read them.

Stochastic pure-state sampling of the same process lives in `trajectory`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import densesim, observables
from .errors import DimensionMismatch, IndexOutOfRange, NumericalDrift
from .instance import FORM_TOL, ClauseForm, Instance, Clause, _derived, classify_clause

RESYMMETRIZE_EVERY = 100
DRIFT_TOL = 1e-6
FRAME_ZERO_TOL = 1e-13     # rotating rho0 into a planted frame leaves rounding of this size between weights
_PAIR_WEIGHT = (0, 1, 1, 2)    # Hamming weight of the pair value 2*b_lo + b_hi


@dataclass(frozen=True)
class _ClauseTerms:
    """A clause in the layout both exact kernels read, `_apply` and the packed step.

    `pair` is the `densesim._pair_split` shape. `phi` lists the nonzero
    amplitudes as (b_lo, b_hi, amplitude) and `g` entries of G = P + K as
    (b_lo, b_hi, b_lo', b_hi', value), where K (`_twirl`) carries the two
    twirls: first every entry of phi's rows x rows, in the order H's entries
    list them (`densesim._pair_entries`), then each other nonzero entry. P
    comes from the product behind H's entries (`densesim._ket_products`), so
    G holds H's entries plus K bit for bit.
    """

    pair: tuple
    phi: tuple
    g: tuple


def _twirl(phi: np.ndarray) -> np.ndarray:
    """K = 1/2 (I/2 (x) tr_lo P + tr_hi P (x) I/2) for the ket phi with axes (lo, hi), as
    a 4x4 over the pair values 2*b_lo + b_hi."""
    eye = np.eye(2)
    return 0.25 * (eye[:, None, :, None] * (phi.T @ phi.conj())[None, :, None, :]
                   + (phi @ phi.conj().T)[:, None, :, None] * eye[None, :, None, :]).reshape(4, 4)


def _clause_terms(clause: Clause, n: int) -> _ClauseTerms:
    pair, phi = densesim._clause_split(clause, n)
    g, rows = _twirl(phi), np.flatnonzero(phi).tolist()
    for b, b2, value in densesim._ket_products(phi.reshape(4)):
        g[b, b2] += value                      # G = K + P, P as H's entries hold it
    listed = [*itertools.product(rows, repeat=2),
              *((b, b2) for b, b2 in np.argwhere(g).tolist() if b not in rows or b2 not in rows)]
    return _ClauseTerms(
        pair=pair,
        phi=tuple((*divmod(b, 2), complex(phi.flat[b])) for b in rows),
        g=tuple((*divmod(b, 2), *divmod(b2, 2), complex(g[b, b2])) for b, b2 in listed),
    )


def _linear_combination(terms) -> np.ndarray:
    """Sum of scalar * array over (scalar, array) pairs, into a fresh array."""
    (scale, view), *rest = terms
    out = scale * view
    for scale, view in rest:
        out += scale * view
    return out


def _reduce(rho: np.ndarray, terms: _ClauseTerms):
    """a = <phi|rho, an operator from the full space to the other n-2 qubits, and
    c = <phi|rho|phi>, an operator on those qubits, read through reshaped views of rho."""
    pair, d = terms.pair, rho.shape[0]
    rows = rho.reshape(*pair, d)
    a = _linear_combination((amp.conjugate(), rows[:, x, :, y, :]) for x, y, amp in terms.phi)
    a_cols = a.reshape(*pair[0::2], *pair)
    c = _linear_combination((amp, a_cols[:, :, :, :, x, :, y, :]) for x, y, amp in terms.phi)
    return a, c


def _add_clause_update(rho: np.ndarray, delta: np.ndarray, terms: _ClauseTerms, weight: float) -> np.ndarray:
    """Add to `delta` an X with X + X^dagger = weight * (T_a(rho) - rho); returns c.

    P = |phi><phi| has rank 1, so with a and c from `_reduce`,

        T_a(rho) - rho = -phi (x) a - (phi (x) a)^dagger + G (x) c,

    and X = weight * (-phi (x) a + G (x) c / 2). Every array below is a
    reshaped view of rho or delta around the clause's qubits, so one clause
    costs O(4^n); zero entries of phi and G are skipped.
    """
    pair, d = terms.pair, rho.shape[0]
    a, c = _reduce(rho, terms)
    delta_rows = delta.reshape(*pair, d)
    for x, y, amp in terms.phi:
        delta_rows[:, x, :, y, :] -= (weight * amp) * a
    delta_blocks = delta.reshape(*pair, *pair)
    for x, y, x2, y2, val in terms.g:
        delta_blocks[:, x, :, y, :, :, x2, :, y2, :] += (0.5 * weight * val) * c
    return c


def _hermitian_sum(state: np.ndarray, delta: np.ndarray, sec) -> np.ndarray:
    """state + delta + delta^dagger over the square blocks of the layout `sec`, a
    `densesim._Sectors`; delta is overwritten."""
    out = state + delta
    np.conjugate(delta, out=delta)             # in place: no temporary for conj(delta)
    for block, conj in zip(sec.views(out), sec.views(delta)):
        block += conj.T
    return out


def _apply(rho: np.ndarray, clauses: list) -> np.ndarray:
    """Uniform average of the clause updates: the next state alone."""
    delta = np.zeros(rho.shape, dtype=complex)   # C order: the kernel writes through reshaped views
    for terms in clauses:
        _add_clause_update(rho, delta, terms, 1.0 / len(clauses))
    return _hermitian_sum(rho, delta, densesim._sectors(densesim.num_qubits(rho), whole=True))


def _checked_matrix(rho) -> tuple[np.ndarray, int]:
    """(rho as a complex array, its qubit count), for `apply_*`: raises NotHermitian when
    rho deviates from Hermitian by more than `densesim.HERMITICITY_TOL`, since the kernel
    writes the update as X + X^dagger, which equals T_a(rho) - rho only for Hermitian rho."""
    rho = np.asarray(rho, dtype=complex)
    n = densesim._matrix_qubits(rho, "density matrix")
    densesim._check_hermitian(rho)
    return rho, n


def apply_clause_channel(rho: np.ndarray, clause: Clause) -> np.ndarray:
    """One clause update T_a applied to a density matrix; raises NotHermitian for a
    non-Hermitian rho (`_checked_matrix`)."""
    rho, n = _checked_matrix(rho)
    if clause.i >= n or clause.j >= n:
        raise IndexOutOfRange(f"clause acts on ({clause.i}, {clause.j}) but state has n={n}")
    return _apply(rho, [_clause_terms(clause, n)])


def apply_step_channel(rho: np.ndarray, inst: Instance) -> np.ndarray:
    """Uniform average of the clause updates over all L clauses; raises
    NotHermitian as `apply_clause_channel` does."""
    rho, n = _checked_matrix(rho)
    if n != inst.n:
        raise IndexOutOfRange(f"state has {n} qubits but instance has {inst.n}")
    return _apply(rho, [_clause_terms(c, n) for c in inst.clauses])


def _energy(flat: np.ndarray, entries) -> float:
    """tr[H rho] = sum over H's entries of H[y, x] rho[x, y], from `densesim._pair_entries`:
    O(L 2^n)."""
    positions, values = entries
    return float((values.conj() @ flat[positions].sum(axis=1)).real)


def _upper_entries(n: int) -> tuple:
    """The entries (r, s) with r <= s of each weight block of an n-qubit matrix, block by
    block and row-major within a block, as two arrays of basis states, (C(2n, n) + 2^n) / 2
    each, and the scale the packed step gives c there: 1 on the diagonal, 2 above it.
    Built per call: a `_Layout` keeps the scale and reads (r, s) once for its plans."""
    r, s = np.concatenate([b[np.stack(np.triu_indices(len(b)))] for b in densesim._sectors(n).blocks], axis=1)
    return r, s, np.where(r == s, 1.0, 2.0)


def _sector_plan(terms: _ClauseTerms, n: int, upper: tuple) -> np.ndarray:
    """Index plan of one clause into the packed n-qubit state, shape
    (len(terms.g), (C(2n-4, n-2) + 2^(n-2)) / 2).

    c = <phi|rho|phi> is an (n-2)-qubit matrix, block-diagonal by weight,
    read at its entries (r, s) with r <= s, from `upper` = `_upper_entries(n - 2)`,
    and row k holds, in that order, where rho's entry (b (x) r, b2 (x) s) sits for the
    pair values b, b2 of terms.g[k]. Both lie in one weight block of rho when
    the clause lies on one weight of its pair: its rows x rows have one
    weight, and G is diagonal outside them. The first len(terms.phi)**2 rows
    are where c reads rho. c and G are Hermitian, and the step adds its
    update as X + X^dagger, so an entry below the diagonal of c comes from
    the adjoint of its mirror: the step writes (w/2) G (x) c on the diagonal
    and w G (x) c above it, and nothing below.
    """
    sec, (r, s, _) = densesim._sectors(n), upper
    full = densesim._clause_rows(np.arange(2**n), terms.pair).reshape(2, 2, -1)   # full index of b (x) r
    return np.array([sec.base[full[x, y][r]] + sec.rank[full[x2, y2][s]] for x, y, x2, y2, _ in terms.g])


def _add_sector_update(state: np.ndarray, delta: np.ndarray, read, plan: np.ndarray, scale: np.ndarray) -> None:
    """Add to the packed `delta` one clause's X with X + X^dagger = w G (x) c: c read
    from `state` with the clause's ket at the plan's first rows, and (w/2) G (x) c
    written through the whole plan with c scaled by `scale` (`_upper_entries`)."""
    ket, half_wg = read
    c = ket @ state[plan[: len(ket)]]
    c *= scale
    delta[plan] += np.multiply.outer(half_wg, c)


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
    """What the exact channel derives from an instance alone, built by `_prepare`.

    `clauses` are the clauses in the planted frame (`frame`, None for the
    identity) and `cut` the same clauses each cut to the weight of its pair
    it lies on, or None when some clause lies on no single weight.
    `cut_entries` holds H's entries from `cut` and `weight_h` H's weight
    blocks, each once `ground` or a packed layout reads it.
    """

    n: int
    frame: tuple | None
    clauses: list
    cut: list | None

    def to_planted(self, rho: np.ndarray) -> np.ndarray:
        return rho if self.frame is None else _conjugate(rho, [b.conj().T for b in self.frame])

    def entries(self, whole: bool) -> tuple:
        """H's entries on the whole space (from `clauses`, assembled per call) or the
        weight blocks (from `cut`, assembled once and kept)."""
        return densesim._pair_entries(self.clauses, self.n, True) if whole else self.cut_entries

    @functools.cached_property
    def cut_entries(self) -> tuple:
        """H's entries on the weight blocks: the one assembly that `weight_h` and the
        packed layout read."""
        return densesim._pair_entries(self.cut, self.n)

    def hamiltonian(self, whole: bool) -> list:
        """H's square blocks on the whole space or the weight blocks, from `entries`."""
        return densesim._hamiltonian(self.entries(whole), densesim._sectors(self.n, whole))

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


class _Layout:
    """The channel of an instance on one layout of the state, the memo record
    `_derived(inst, _Layout, whole)`: the instance's `_Prepared`, held here and
    holding nothing back; the `_ClauseTerms` of `clauses` on the whole space and of
    `cut` on the weight blocks, H's entries, the packed step's `reads` of each
    clause's terms and `scale` of c (`_upper_entries`), S's and S^2's diagonals and,
    read by the first `observe`, the ground basis. On the weight blocks `plans` is
    filled in by the first step and kept. Each array is built for this record and
    goes with it. `step` returns the next state alone, and `observe` reads every
    series value from a state. `evolve` steps and observes through it in the planted
    frame, and `dual_residuals` reads its terms."""

    def __init__(self, inst: Instance, whole: bool):
        prep = self.prep = _derived(inst, _prepare)
        self.whole, self.sec = whole, densesim._sectors(prep.n, whole)
        clauses = prep.clauses if whole else prep.cut
        self.terms = [_clause_terms(c, prep.n) for c in clauses]
        self.entries = prep.entries(whole)
        # per clause, the ket of c = <phi|rho|phi> over phi's rows x rows, the conjugates of
        # H's entries there, and (w/2) G over terms.g, w = 1/L
        kets = np.split(self.entries[1].conj(), np.cumsum([len(t.phi) ** 2 for t in self.terms])[:-1])
        self.reads = [(ket, 0.5 / len(clauses) * np.array([e[-1] for e in t.g])) for ket, t in zip(kets, self.terms)]
        self.scale = None if whole else _upper_entries(prep.n - 2)[2]
        self.spin = observables._spin_diagonal(prep.n)
        self.spin2 = self.spin * self.spin
        self.plans = None

    @functools.cached_property
    def ground(self) -> list:
        """(square, index into it, basis) per ground block of `_Prepared.ground`, the square
        given by its (start, size) in the state (`_Sectors.squares`): H's ground blocks are
        weight blocks, read whole or, on the whole space, by their indices."""
        weights = densesim._sectors(self.prep.n).blocks if self.whole and self.prep.cut is not None else None
        squares = self.sec.squares
        return [(squares[k], slice(None), g) if weights is None else (squares[0], weights[k], g)
                for k, g in self.prep.ground]

    def observe(self, state):
        """tr[H rho] (`_energy`), tr[S rho], tr[S^2 rho] and tr[Pi0 rho], each read from the
        state once, the last from the ground squares alone and summed by numpy."""
        pop = state[self.sec.diag].real
        ground = np.sum([np.vdot(g, densesim._block(state[s : s + m * m].reshape(m, m), b) @ g).real
                         for (s, m), b, g in self.ground])
        return _energy(state, self.entries), self.spin @ pop, self.spin2 @ pop, ground

    def snapshot(self, state):
        rho = self.sec.unpack(state)
        return rho if self.prep.frame is None else _conjugate(rho, self.prep.frame)

    def step(self, state):
        """The next state, E(rho), alone."""
        prep, n = self.prep, self.prep.n
        if self.whole:
            return _apply(state.reshape(2**n, 2**n), self.terms).reshape(-1)
        if self.plans is None:
            upper = _upper_entries(n - 2)
            self.plans = [_sector_plan(t, n, upper) for t in self.terms]
        delta = np.empty_like(state)
        for h, rho, out in zip(prep.weight_h, self.sec.views(state), self.sec.views(delta)):
            np.matmul(h, rho, out=out)                 # H rho, one weight block at a time
        delta *= -1.0 / len(self.terms)
        for read, plan in zip(self.reads, self.plans):
            _add_sector_update(state, delta, read, plan, self.scale)
        return _hermitian_sum(state, delta, self.sec)


def _prepare(inst: Instance) -> _Prepared:
    """The instance's `_Prepared`, the memo record `_derived(inst, _prepare)`."""
    frame = observables._frame_blocks(inst)
    clauses = list(inst.clauses) if frame is None else [
        Clause(i=c.i, j=c.j, amps=np.kron(frame[c.i], frame[c.j]).conj().T @ c.amps) for c in inst.clauses]
    weights = [_weight_sector(c.amps) for c in clauses]
    cut = None if None in weights else [
        Clause(i=c.i, j=c.j, amps=np.where(np.equal(_PAIR_WEIGHT, w), c.amps, 0)) for c, w in zip(clauses, weights)]
    return _Prepared(n=inst.n, frame=frame, clauses=clauses, cut=cut)


def _start(inst: Instance, rho0):
    """(layout, packed state) for `evolve`: on the weight blocks when every clause lies on
    one weight and rho0 has no entry between weights in the planted frame, else on the
    whole space as one block.

    rho0 is checked by `densesim._checked_density`, which packs it into a fresh vector
    (or None) in the caller's frame through the record `densesim._sectors(n)`, held here
    from before the check so that the layout keeps the record whose index arrays the
    check built. The vector becomes the state when the caller's frame is the planted
    one and is freed on return otherwise. A 1-D rho0, a diagonal, is unpacked from it
    only for a planted frame or the whole space. The state never shares memory with
    rho0: `_resymmetrize` writes it in place. Raises IndexOutOfRange when rho0's
    dimension is not the instance's.
    """
    sec = densesim._sectors(inst.n)
    rho, packed = densesim._checked_density(rho0)
    if len(rho) != 2**inst.n:
        raise IndexOutOfRange("initial state dimension does not match instance")
    prep = _derived(inst, _prepare)
    planted = rho
    if prep.frame is not None or prep.cut is None:   # planted is fresh, or rho itself when 2-D in the identity frame
        planted = prep.to_planted(sec.unpack(packed) if rho.ndim == 1 else rho)
        packed = None if prep.cut is None else sec.pack(planted, FRAME_ZERO_TOL)
    if packed is not None:
        return _derived(inst, _Layout, False), packed
    state = np.array(planted, order="C") if planted is rho else planted
    return _derived(inst, _Layout, True), state.reshape(-1)


@dataclass
class EvolutionSeries:
    """Scalar observables of rho_t for t = 0..steps, plus optional snapshots."""

    steps: int
    trH: np.ndarray
    trS: np.ndarray
    trS2: np.ndarray
    trPi0: np.ndarray
    snapshots: dict = field(default_factory=dict)

    def rows(self):
        for t in range(self.steps + 1):
            yield t, self.trH[t], self.trS[t], self.trS2[t], self.trPi0[t]


def _resymmetrize(state: np.ndarray, sec, t: int) -> np.ndarray:
    """Hermitian part of the flat state over the square blocks of its layout `sec`, at
    unit trace, written in place; raise NumericalDrift when either had drifted by more
    than DRIFT_TOL. The trace is read once, from the diagonal by numpy: the Hermitian
    part has the same real diagonal."""
    adjoint = np.empty_like(state)
    herm = densesim._adjoint_deviation(sec, state, adjoint)
    trace = state[sec.diag].real.sum()
    tr_err = abs(trace - 1.0)
    if not (herm <= DRIFT_TOL and tr_err <= DRIFT_TOL):
        raise NumericalDrift(f"drift at step {t}: hermiticity {herm}, trace error {tr_err}")
    state += adjoint
    state *= 0.5                                # (v + v^dagger) / 2, block by block
    state /= trace
    return state


def evolve(rho0: np.ndarray, inst: Instance, steps: int, snapshot_schedule=()) -> EvolutionSeries:
    """Apply the step channel `steps` times, recording observables at every step.

    The state runs in the instance's planted frame, on packed Hamming-weight
    blocks when the input allows it and on the whole matrix otherwise (see
    the module docstring). A 1-D rho0 is the diagonal of a density matrix: it meets
    the same checks, with the same exceptions and messages, and runs bit for bit as
    `np.diag(rho0)`, but on weight blocks in the identity frame no dense matrix is
    built. Hermiticity and trace are re-symmetrized every 100 steps;
    drift beyond 1e-6 before a correction raises NumericalDrift. Snapshots
    are dense 2^n x 2^n matrices in the caller's frame, kept only at the
    requested step indices, each an integer in 0..steps (IndexOutOfRange
    otherwise, as for a `steps` that is not an integer >= 0). Each row is read
    from rho_t once, by `_Layout.observe`, at every t and on both layouts, and
    a step returns only the next state: tr[H rho_t] from H's entries, and
    tr[Pi0 rho_t] from a basis of the ground space kept with the instance, so
    no dense H or ground projector is built per call; in the identity frame a
    call started from another's last snapshot repeats its last row bit for bit.
    Index plans are built at the first step, not by `evolve(..., 0)`.
    """
    densesim._check_count(steps, "steps", 0)
    wanted = set()
    for t in snapshot_schedule:
        if not (densesim._is_integer(t) and 0 <= t <= steps):
            raise IndexOutOfRange(f"snapshot index {t!r} is not an integer in 0..{steps}")
        wanted.add(int(t))
    layout, state = _start(inst, rho0)

    trH, trS, trS2, trPi0 = np.empty((4, steps + 1))
    snapshots: dict[int, np.ndarray] = {}
    for t in range(steps + 1):
        if t:
            state = layout.step(state)
            if t % RESYMMETRIZE_EVERY == 0:
                state = _resymmetrize(state, layout.sec, t)
        trH[t], trS[t], trS2[t], trPi0[t] = layout.observe(state)
        if t in wanted:
            snapshots[t] = layout.snapshot(state)
    return EvolutionSeries(steps=steps, trH=trH, trS=trS, trS2=trS2, trPi0=trPi0, snapshots=snapshots)


@dataclass(frozen=True)
class ClauseResiduals:
    index: int
    form: ClauseForm
    residual_S: np.ndarray    # one entry per sample state
    residual_S2: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(np.maximum(np.max(self.residual_S), np.max(self.residual_S2)))   # NaN stays NaN


def dual_residuals(inst: Instance, sample_states) -> list[ClauseResiduals]:
    """Per-clause deviation from the known drift of the spin diagnostics.

    For each clause and sample state, compares tr[S T_a(rho)] against
    tr[(S + dS) rho] (and the S^2 analogue), where the increments depend on
    the clause form: restricted clauses leave S alone and raise S^2 by 2P;
    |11><11| clauses raise S by P and shift S^2 by -2P + 2*Z_rest*P. Clauses
    of any other form are scored against the restricted increments, so their
    residuals simply report how far they stray from that law. Everything is
    read in the instance's planted frame, where S is diagonal: each sample
    state is rotated into it once, and each clause is classified there. The
    Z_rest term is tr[Z_rest c] for c = <phi|rho|phi>, with Z_rest the
    diagonal sum of sigma_z over the other n-2 qubits, and tr[P rho] is tr c
    for every form; c is the one the clause update reduces rho to, so each
    clause and state is reduced once. An empty
    `sample_states`, or a state whose dimension is not the instance's, raises
    DimensionMismatch before anything is built.
    """
    states = [densesim.as_density_matrix(r) for r in sample_states]
    if not states:
        raise DimensionMismatch("sample_states is empty: dual_residuals needs at least one density matrix")
    for k, rho in enumerate(states):
        if len(rho) != 2**inst.n:
            raise DimensionMismatch(f"sample state {k} has dimension {len(rho)} but the instance's is {2**inst.n}")
    layout, rest_spin = _derived(inst, _Layout, True), observables._spin_diagonal(inst.n - 2)
    whole = densesim._sectors(inst.n, whole=True)
    states = [layout.prep.to_planted(rho) for rho in states]
    expect = densesim.expectation
    report = []
    for idx, (clause, terms) in enumerate(zip(layout.prep.clauses, layout.terms)):
        form = classify_clause(clause)
        res_s, res_s2 = np.empty((2, len(states)))
        for k, rho in enumerate(states):
            delta = np.zeros(rho.shape, dtype=complex)    # `_apply` on one clause, keeping its c
            c = _add_clause_update(rho, delta, terms, 1.0).reshape(len(rest_spin), -1)
            out = _hermitian_sum(rho, delta, whole)
            energy = float(np.trace(c).real)     # tr[P rho]
            if form is ClauseForm.TYPE_II:
                delta_s, delta_s2 = energy, -2.0 * energy + 2.0 * float(rest_spin @ np.diagonal(c).real)
            else:
                delta_s, delta_s2 = 0.0, 2.0 * energy
            res_s[k] = abs(expect(layout.spin, out) - expect(layout.spin, rho) - delta_s)
            res_s2[k] = abs(expect(layout.spin2, out) - expect(layout.spin2, rho) - delta_s2)
        report.append(ClauseResiduals(index=idx, form=form, residual_S=res_s, residual_S2=res_s2))
    return report


def write_series_csv(series: EvolutionSeries, path, meta: dict | None = None) -> None:
    """CSV export: header t,trH,trS,trS2,trPi0, 17 significant digits per value."""
    with open(path, "w") as fh:
        for key, value in (meta or {}).items():
            fh.write(f"# {key}: {value}\n")
        fh.write("t,trH,trS,trS2,trPi0\n")
        for t, a, b, c, d in series.rows():
            fh.write(f"{t},{a:.17g},{b:.17g},{c:.17g},{d:.17g}\n")
