"""Exact one-step update map of the measurement walk and its long-time evolution.

One clause update measures the clause projector and, on an unsatisfied
outcome, replaces a random one of its two qubits by the maximally mixed
state:

    T_a(rho) = (1-P) rho (1-P) + 1/2 Twirl_i(P rho P) + 1/2 Twirl_j(P rho P)

The full step averages T_a uniformly over clauses. Everything here is exact
arithmetic on the full 2^n x 2^n density matrix, but each clause update
touches only its two qubits: a local kernel reads and writes reshaped views
of the state, so a step costs O(L 4^n) and no embedded projector is built.
Stochastic pure-state sampling of the same process lives in `trajectory`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import densesim, observables
from .errors import IndexOutOfRange, NumericalDrift
from .instance import ClauseForm, Instance, Clause, classify_clause

RESYMMETRIZE_EVERY = 100
DRIFT_TOL = 1e-6


def twirl(rho: np.ndarray, q: int) -> np.ndarray:
    """Replace qubit q by the maximally mixed state: (I_q/2) (x) tr_q[rho]."""
    half = 0.5 * densesim.partial_trace(rho, q)
    dl, dr = 2**q, len(half) // 2**q
    out = np.zeros((dl, 2, dr, dl, 2, dr), dtype=complex)
    out[:, 0, :, :, 0, :] = out[:, 1, :, :, 1, :] = half.reshape(dl, dr, dl, dr)
    return out.reshape(2 * len(half), 2 * len(half))


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


def _add_clause_update(rho: np.ndarray, delta: np.ndarray, terms: _ClauseTerms, weight: float) -> float:
    """Add to `delta` an X with X + X^dagger = weight * (T_a(rho) - rho); return tr[P_a rho].

    P = |phi><phi| has rank 1, so with a = <phi|rho (an operator from the
    full space to the other n-2 qubits) and c = <phi|rho|phi> (an operator
    on those qubits),

        T_a(rho) - rho = -phi (x) a - (phi (x) a)^dagger + G (x) c,

    and X = weight * (-phi (x) a + G (x) c / 2). Every array below is a
    reshaped view of rho or delta around the clause's qubits, so one clause
    costs O(4^n); zero entries of phi and G are skipped.
    """
    pair, d = terms.pair, rho.shape[0]
    rows = rho.reshape(*pair, d)
    a = _linear_combination((amp.conjugate(), rows[:, x, :, y, :]) for x, y, amp in terms.phi)
    a_cols = a.reshape(*pair[0::2], *pair)
    c = _linear_combination((amp, a_cols[:, :, :, :, x, :, y, :]) for x, y, amp in terms.phi)
    delta_rows = delta.reshape(*pair, d)
    for x, y, amp in terms.phi:
        delta_rows[:, x, :, y, :] -= (weight * amp) * a
    delta_blocks = delta.reshape(*pair, *pair)
    for x, y, x2, y2, val in terms.g:
        delta_blocks[:, x, :, y, :, :, x2, :, y2, :] += (0.5 * weight * val) * c
    return float(np.trace(c.reshape(d // 4, d // 4)).real)


def _apply(rho: np.ndarray, clauses: list) -> tuple[np.ndarray, float]:
    """Uniform average of the clause updates, and tr[H rho] for the input state."""
    delta = np.zeros(rho.shape, dtype=complex)   # C order: the kernel writes through reshaped views
    weight = 1.0 / len(clauses)
    energy = sum(_add_clause_update(rho, delta, terms, weight) for terms in clauses)
    out = rho + delta
    out += np.conjugate(delta, out=delta).T      # in place: no full temporary for conj(delta)
    return out, energy


def apply_clause_channel(rho: np.ndarray, clause: Clause) -> np.ndarray:
    """One clause update T_a applied to a density matrix."""
    rho = np.asarray(rho, dtype=complex)
    n = densesim.num_qubits(rho)
    if clause.i >= n or clause.j >= n:
        raise IndexOutOfRange(f"clause acts on ({clause.i}, {clause.j}) but state has n={n}")
    return _apply(rho, [_clause_terms(clause, n)])[0]


def apply_step_channel(rho: np.ndarray, inst: Instance) -> np.ndarray:
    """Uniform average of the clause updates over all L clauses."""
    rho = np.asarray(rho, dtype=complex)
    n = densesim.num_qubits(rho)
    if n != inst.n:
        raise IndexOutOfRange(f"state has {n} qubits but instance has {inst.n}")
    return _apply(rho, [_clause_terms(c, n) for c in inst.clauses])[0]


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


def evolve(rho0: np.ndarray, inst: Instance, steps: int, snapshot_schedule=()) -> EvolutionSeries:
    """Apply the step channel `steps` times, recording observables at every step.

    Hermiticity and trace are re-symmetrized every 100 steps; drift beyond
    1e-6 before a correction raises NumericalDrift. Snapshots of the full
    density matrix are kept only at the requested step indices. tr[H rho_t]
    comes out of step t itself as the sum of the clause weights tr[P_a rho_t].
    """
    rho = densesim.as_density_matrix(rho0).copy()
    if steps < 0:
        raise IndexOutOfRange(f"steps must be >= 0, got {steps}")
    n = inst.n
    if densesim.num_qubits(rho) != n:
        raise IndexOutOfRange("initial state dimension does not match instance")
    clauses = [_clause_terms(c, n) for c in inst.clauses]
    h = observables.build_hamiltonian(inst)
    s, s2 = observables.instance_spin_operators(inst)
    pi0 = observables.ground_space_projector(h)
    wanted = set(int(t) for t in snapshot_schedule)
    expect = densesim.expectation

    trH = np.empty(steps + 1)
    trS = np.empty(steps + 1)
    trS2 = np.empty(steps + 1)
    trPi0 = np.empty(steps + 1)
    snapshots: dict[int, np.ndarray] = {}
    for t in range(steps + 1):
        trS[t] = expect(s, rho)
        trS2[t] = expect(s2, rho)
        trPi0[t] = expect(pi0, rho)
        if t in wanted:
            snapshots[t] = rho.copy()
        if t == steps:
            trH[t] = expect(h, rho)
            break
        rho, trH[t] = _apply(rho, clauses)
        if (t + 1) % RESYMMETRIZE_EVERY == 0:
            herm = np.max(np.abs(rho - rho.conj().T))
            tr_err = abs(np.trace(rho).real - 1.0)
            if herm > DRIFT_TOL or tr_err > DRIFT_TOL:
                raise NumericalDrift(
                    f"drift at step {t + 1}: hermiticity {herm}, trace error {tr_err}"
                )
            rho = (rho + rho.conj().T) / 2
            rho /= np.trace(rho).real
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
    residuals simply report how far they stray from that law.
    """
    n = inst.n
    s, s2 = observables.instance_spin_operators(inst)
    v = observables.frame_unitary(inst)
    states = [densesim.as_density_matrix(r) for r in sample_states]
    expect = densesim.expectation
    report = []
    for idx, clause in enumerate(inst.clauses):
        terms = _clause_terms(clause, n)
        form = classify_clause(clause)
        if form is ClauseForm.TYPE_II:
            z_rest = observables.spectator_spin(n, clause.i, clause.j)
            proj = observables.clause_projector(clause, n)
            z_proj = z_rest[:, None] * proj if v is None else (v * z_rest) @ v.conj().T @ proj
        res_s = np.empty(len(states))
        res_s2 = np.empty(len(states))
        for k, rho in enumerate(states):
            out, energy = _apply(rho, [terms])   # energy = tr[P rho]
            if form is ClauseForm.TYPE_II:
                delta_s, delta_s2 = energy, -2.0 * energy + 2.0 * expect(z_proj, rho)
            else:
                delta_s, delta_s2 = 0.0, 2.0 * energy
            res_s[k] = abs(expect(s, out) - expect(s, rho) - delta_s)
            res_s2[k] = abs(expect(s2, out) - expect(s2, rho) - delta_s2)
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
