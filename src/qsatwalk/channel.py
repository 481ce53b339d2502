"""Exact one-step update map of the measurement walk and its long-time evolution.

One clause update measures the clause projector and, on an unsatisfied
outcome, replaces a random one of its two qubits by the maximally mixed
state:

    T_a(rho) = (1-P) rho (1-P) + 1/2 Twirl_i(P rho P) + 1/2 Twirl_j(P rho P)

The full step averages T_a uniformly over clauses. Everything here is exact
arithmetic on a density matrix, and each clause update touches only its two
qubits: with a = <phi|rho and c = <phi|rho|phi>, T_a(rho) - rho =
-phi (x) a - h.c. + G (x) c, so no embedded projector is built. This
module's kernel reads and writes the 2^n x 2^n matrix through reshaped
views, O(4^n) per clause, for `apply_*`, `dual_residuals` and `evolve` on
inputs that couple Hamming weights. `evolve` and `dual_residuals` work in the
instance's planted frame, where S and S^2 are diagonal; `sectors` holds that
frame's record and steps eligible inputs on the packed Hamming-weight layout
of `densesim._Sectors`, C(2n, n) entries instead of 4^n.

Stochastic pure-state sampling of the same process lives in `trajectory`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import densesim, observables
from .errors import IndexOutOfRange, NumericalDrift
from .instance import ClauseForm, Instance, Clause, classify_clause

RESYMMETRIZE_EVERY = 100
DRIFT_TOL = 1e-6


@dataclass(frozen=True)
class _ClauseTerms:
    """A clause in the layout the local kernel reads.

    `pair` is the `densesim._pair_split` shape. `phi` lists the nonzero
    amplitudes as (b_lo, b_hi, amplitude) and `g` the nonzero entries of
    G = P + K as (b_lo, b_hi, b_lo', b_hi', value), where
    K = 1/2 (I/2 (x) tr_lo P + tr_hi P (x) I/2) carries the two twirls.
    """

    pair: tuple
    phi: tuple
    g: tuple


def _clause_terms(clause: Clause, n: int) -> _ClauseTerms:
    pair, phi = densesim._clause_split(clause, n)
    p = phi[:, :, None, None] * phi.conj()     # P with axes (lo, hi, lo', hi')
    eye = np.eye(2)
    k = 0.25 * (eye[:, None, :, None] * (phi.T @ phi.conj())[None, :, None, :]
                + (phi @ phi.conj().T)[:, None, :, None] * eye[None, :, None, :])
    return _ClauseTerms(
        pair=pair,
        phi=tuple((*ix, complex(v)) for ix, v in np.ndenumerate(phi) if v != 0),
        g=tuple((*ix, complex(v)) for ix, v in np.ndenumerate(p + k) if v != 0),
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


def _add_clause_update(rho: np.ndarray, delta: np.ndarray, terms: _ClauseTerms, weight: float) -> float:
    """Add to `delta` an X with X + X^dagger = weight * (T_a(rho) - rho); return tr[P_a rho].

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
    return float(np.trace(c.reshape(d // 4, d // 4)).real)


def _hermitian_sum(state: np.ndarray, delta: np.ndarray, sec) -> np.ndarray:
    """state + delta + delta^dagger over the square blocks of the layout `sec`, a
    `densesim._Sectors`; delta is overwritten."""
    out = state + delta
    np.conjugate(delta, out=delta)             # in place: no temporary for conj(delta)
    for block, conj in zip(sec.views(out), sec.views(delta)):
        block += conj.T
    return out


def _apply(rho: np.ndarray, clauses: list) -> tuple[np.ndarray, float]:
    """Uniform average of the clause updates, and tr[H rho] for the input state."""
    delta = np.zeros(rho.shape, dtype=complex)   # C order: the kernel writes through reshaped views
    weight = 1.0 / len(clauses)
    energy = 0.0
    for terms in clauses:       # left to right: the builtin sum rounds otherwise from Python 3.12
        energy += _add_clause_update(rho, delta, terms, weight)
    return _hermitian_sum(rho, delta, densesim._sectors(densesim.num_qubits(rho), whole=True)), energy


def apply_clause_channel(rho: np.ndarray, clause: Clause) -> np.ndarray:
    """One clause update T_a applied to a density matrix.

    Raises NotHermitian when rho deviates from Hermitian by more than
    `densesim.HERMITICITY_TOL`: the kernel writes the update as X + X^dagger,
    which equals T_a(rho) - rho only for Hermitian rho.
    """
    rho = np.asarray(rho, dtype=complex)
    n = densesim._matrix_qubits(rho, "density matrix")
    densesim._check_hermitian(rho)
    if clause.i >= n or clause.j >= n:
        raise IndexOutOfRange(f"clause acts on ({clause.i}, {clause.j}) but state has n={n}")
    return _apply(rho, [_clause_terms(clause, n)])[0]


def apply_step_channel(rho: np.ndarray, inst: Instance) -> np.ndarray:
    """Uniform average of the clause updates over all L clauses; raises
    NotHermitian as `apply_clause_channel` does."""
    rho = np.asarray(rho, dtype=complex)
    n = densesim._matrix_qubits(rho, "density matrix")
    densesim._check_hermitian(rho)
    if n != inst.n:
        raise IndexOutOfRange(f"state has {n} qubits but instance has {inst.n}")
    return _apply(rho, [_clause_terms(c, n) for c in inst.clauses])[0]


def _pair_entries(clauses, n: int, pos):
    """H's entries (b (x) r, b2 (x) r), for each clause and pair values b, b2 where
    its ket phi is nonzero: their flat positions pos(...), one row of 2^(n-2) per
    (clause, b, b2), and the values phi_b conj(phi_b2), one per row."""
    index = np.arange(2**n)
    positions, values = [], []
    for clause in clauses:
        pair, phi = densesim._clause_split(clause, n)
        full, ket = densesim._clause_rows(index, pair), phi.reshape(4)
        for b, b2 in itertools.product(np.flatnonzero(ket), repeat=2):
            positions.append(pos(full[b], full[b2]))
            values.append(ket[b] * ket[b2].conjugate())
    return np.array(positions), np.array(values)


def _energy(flat: np.ndarray, entries) -> float:
    """tr[H rho] = sum over H's entries of H[y, x] rho[x, y], from `_pair_entries`: O(L 2^n)."""
    positions, values = entries
    return float((values.conj() @ flat[positions].sum(axis=1)).real)


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
    """Hermitian part of the state over the square blocks of its layout `sec`, at unit
    trace; raise NumericalDrift when either had drifted by more than DRIFT_TOL."""
    views = sec.views(state)
    herm = np.max([np.max(np.abs(v - v.conj().T)) for v in views])   # NaN-propagating
    tr_err = abs(sum(np.trace(v).real for v in views) - 1.0)
    if not (herm <= DRIFT_TOL and tr_err <= DRIFT_TOL):
        raise NumericalDrift(f"drift at step {t}: hermiticity {herm}, trace error {tr_err}")
    for v in views:
        v[...] = (v + v.conj().T) / 2
    state /= sum(np.trace(v).real for v in views)
    return state


def evolve(rho0: np.ndarray, inst: Instance, steps: int, snapshot_schedule=()) -> EvolutionSeries:
    """Apply the step channel `steps` times, recording observables at every step.

    The state runs in the instance's planted frame, on packed Hamming-weight
    blocks when the input allows it and on the whole matrix otherwise (see
    `sectors`). Hermiticity and trace are re-symmetrized every 100 steps;
    drift beyond 1e-6 before a correction raises NumericalDrift. Snapshots
    are dense 2^n x 2^n matrices in the caller's frame, kept only at the
    requested step indices. tr[H rho_t] comes from step t itself (the trace
    of its H rho on weight blocks, the clause weights tr[P_a rho_t] on the
    whole space; the last one from H's entries); tr[Pi0 rho_t] reads a
    basis of the ground space kept with the instance, so no dense H or
    ground projector is built per call. Index plans are built at the first
    step, not by `evolve(..., 0)`.
    """
    rho, packed = densesim._checked_density(rho0)
    if steps < 0:
        raise IndexOutOfRange(f"steps must be >= 0, got {steps}")
    if densesim.num_qubits(rho) != inst.n:
        raise IndexOutOfRange("initial state dimension does not match instance")
    from . import sectors    # compiled on the first call, not by `import qsatwalk`

    run, state = sectors.start(inst, rho, packed)
    del packed                 # the state itself in the identity frame; in another, freed now
    wanted = set(int(t) for t in snapshot_schedule)

    trH = np.empty(steps + 1)
    trS = np.empty(steps + 1)
    trS2 = np.empty(steps + 1)
    trPi0 = np.empty(steps + 1)
    snapshots: dict[int, np.ndarray] = {}
    for t in range(steps + 1):
        trS[t], trS2[t], trPi0[t] = run.observe(state)
        if t in wanted:
            snapshots[t] = run.snapshot(state)
        if t == steps:
            trH[t] = run.energy(state)
            break
        state, trH[t] = run.step(state)
        if (t + 1) % RESYMMETRIZE_EVERY == 0:
            state = _resymmetrize(state, run.sec, t + 1)
    return EvolutionSeries(steps=steps, trH=trH, trS=trS, trS2=trS2, trPi0=trPi0, snapshots=snapshots)


@dataclass(frozen=True)
class ClauseResiduals:
    index: int
    form: ClauseForm
    residual_S: np.ndarray    # one entry per sample state
    residual_S2: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(max(np.max(self.residual_S), np.max(self.residual_S2)))


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
    diagonal sum of sigma_z over the other n-2 qubits.
    """
    from . import sectors    # compiled on the first call, not by `import qsatwalk`

    prep = sectors._prepare(inst)
    spin, rest_spin = observables._spin_diagonal(inst.n), observables._spin_diagonal(inst.n - 2)
    states = [prep.to_planted(densesim.as_density_matrix(r)) for r in sample_states]
    expect = densesim.expectation
    report = []
    for idx, (clause, terms) in enumerate(zip(prep.clauses, prep.kernel(True)[0])):
        form = classify_clause(clause)
        res_s = np.empty(len(states))
        res_s2 = np.empty(len(states))
        for k, rho in enumerate(states):
            out, energy = _apply(rho, [terms])   # energy = tr[P rho]
            if form is ClauseForm.TYPE_II:
                c = _reduce(rho, terms)[1].reshape(len(rest_spin), -1)
                delta_s, delta_s2 = energy, -2.0 * energy + 2.0 * float(rest_spin @ np.diagonal(c).real)
            else:
                delta_s, delta_s2 = 0.0, 2.0 * energy
            res_s[k] = abs(expect(spin, out) - expect(spin, rho) - delta_s)
            res_s2[k] = abs(expect(spin * spin, out) - expect(spin * spin, rho) - delta_s2)
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
