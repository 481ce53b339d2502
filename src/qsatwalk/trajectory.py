"""Stochastic pure-state sampling of the measurement walk.

Each trajectory starts from a uniformly random computational basis state (a
valid unraveling of the maximally mixed state), repeatedly measures a random
clause projector, and on an unsatisfied outcome applies a Haar-random unitary
to one of the clause's qubits. Ensemble averages reproduce the exact channel
in `channel`; the zero-outcome count N0 is the decision statistic.

A step reads the drawn clause's two qubits through a reshaped view of the
state, (2^lo, 2, 2^(hi-lo-1), 2, 2^(n-1-hi)) as in `channel`, so no
per-clause index tables are built. On an unsatisfied outcome the projected
state is a product phi (x) a, and the Haar twirl acts on the 2x2 phi alone.
One run loop, `_walk`, serves `run_trajectory`, `run_ensemble` and (through
`run_trajectory`) `decision.decide`.

Ensembles are reproducible: trajectory k draws its generator from
(master_seed, k), so results are bit-identical for any worker count.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .densesim import _clause_split, basis_state, num_qubits
from .errors import DegenerateBranch, DimensionMismatch, IndexOutOfRange
from .instance import Instance

BRANCH_NORM_FLOOR = 1e-14
_CHUNK = 512


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed 2x2 unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def sample_initial_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random computational basis state on n qubits."""
    if n < 1:
        raise IndexOutOfRange(f"need n >= 1, got {n}")
    return basis_state(n, int(rng.integers(2**n)))


def _clause_kets(inst: Instance):
    """Per clause: the index split, phi on (lo, hi), conj(phi) flat, and whether i is lo."""
    kets = []
    for c in inst.clauses:
        pair, phi = _clause_split(c, inst.n)
        kets.append((pair, phi, phi.conj().reshape(4), c.i < c.j))
    return kets


def _step(psi: np.ndarray, kets, rng: np.random.Generator):
    """One measurement step on psi viewed as a 4 x 2^(n-2) matrix with rows (b_lo, b_hi)."""
    pair, phi, phi_conj, i_is_lo = kets[int(rng.integers(len(kets)))]
    mat = psi.reshape(pair).transpose(1, 3, 0, 2, 4).reshape(4, -1)
    overlap = phi_conj @ mat
    p_raw = float(np.real(np.vdot(overlap, overlap)))
    p = min(max(p_raw, 0.0), 1.0)
    if rng.random() < p:
        if p_raw < BRANCH_NORM_FLOOR:
            raise DegenerateBranch(f"unsatisfied branch has norm^2 {p_raw}")
        twirl_lo = (rng.random() < 0.5) == i_is_lo      # qubit i with probability 1/2
        u = haar_unitary(rng)
        mat = np.outer(u @ phi if twirl_lo else phi @ u.T, overlap / np.sqrt(p_raw))
        outcome = 1
    else:
        mat = mat - np.outer(phi, overlap)
        r_raw = float(np.real(np.vdot(mat, mat)))
        if r_raw < BRANCH_NORM_FLOOR:
            raise DegenerateBranch(f"satisfied branch has norm^2 {r_raw}")
        mat /= np.sqrt(r_raw)
        outcome = 0
    return mat.reshape(2, 2, *pair[0::2]).transpose(2, 0, 3, 1, 4).reshape(-1), outcome


def trajectory_step(psi: np.ndarray, inst: Instance, rng: np.random.Generator):
    """One measurement step: returns (next state, outcome bit).

    Picks a clause uniformly, measures its projector (outcome 1 with
    probability <psi|P|psi>), and on outcome 1 twirls one of its qubits with
    a fresh Haar unitary. The returned state is renormalized.
    """
    psi = np.asarray(psi, dtype=complex)
    n = num_qubits(psi)
    if n != inst.n:
        raise DimensionMismatch(f"state has {n} qubits but instance has {inst.n}")
    return _step(psi, _clause_kets(inst), rng)


def _observe(psi: np.ndarray, prepared) -> list:
    """<psi|op|psi> for each prepared operator (diagonal ones as vectors)."""
    prob = np.real(psi * psi.conj()) if any(is_diag for is_diag, _ in prepared) else None
    return [float(op @ prob) if is_diag else float(np.real(np.vdot(psi, op @ psi)))
            for is_diag, op in prepared]


def _walk(kets, n: int, T: int, rng: np.random.Generator, prepared=None):
    """T steps from a random basis state.

    Returns the outcome bits, the final state, and the prepared operators'
    values at t = 0..T (None when there are none).
    """
    psi = sample_initial_state(n, rng)
    outcomes = np.empty(T, dtype=np.int8)
    values = np.empty((len(prepared), T + 1)) if prepared else None
    for t in range(T):
        if prepared:
            values[:, t] = _observe(psi, prepared)
        psi, outcomes[t] = _step(psi, kets, rng)
    if prepared:
        values[:, T] = _observe(psi, prepared)
    return outcomes, psi, values


@dataclass(frozen=True)
class TrajectoryRecord:
    N0: int
    T: int
    outcomes: np.ndarray | None
    final_state: np.ndarray | None
    seed: object


def _as_generator(rng):
    if isinstance(rng, np.random.Generator):
        return rng, None
    return np.random.default_rng(rng), rng


def run_trajectory(inst: Instance, T: int, rng, keep_history: bool = False) -> TrajectoryRecord:
    """Run one trajectory of T steps and count the satisfied (0) outcomes."""
    if T < 0:
        raise IndexOutOfRange(f"T must be >= 0, got {T}")
    gen, seed = _as_generator(rng)
    outcomes, psi, _ = _walk(_clause_kets(inst), inst.n, T, gen)
    return TrajectoryRecord(
        N0=T - int(np.sum(outcomes)),
        T=T,
        outcomes=outcomes if keep_history else None,
        final_state=psi if keep_history else None,
        seed=seed,
    )


@dataclass
class EnsembleStats:
    """Aggregates over M independent trajectories of T steps each."""

    M: int
    T: int
    master_seed: int
    n0: np.ndarray
    mean_N0: float
    stddev_N0: float
    zero_frequency: np.ndarray
    operator_means: dict | None = None
    operator_stderr: dict | None = None


def _prepare_ops(ops):
    prepared = []
    for _, op in ops:
        diag = np.diagonal(op)
        if np.count_nonzero(op - np.diag(diag)) == 0:
            prepared.append((True, np.ascontiguousarray(diag.real)))
        else:
            prepared.append((False, np.asarray(op, dtype=complex)))
    return prepared


def _ensemble_chunk(payload):
    inst, T, start, stop, master_seed, ops = payload
    kets = _clause_kets(inst)
    prepared = _prepare_ops(ops) if ops else None
    n0 = np.zeros(stop - start, dtype=np.int64)
    zeros_per_step = np.zeros(T, dtype=np.int64)
    obs_sum = np.zeros((len(ops), T + 1)) if ops else None
    obs_sumsq = np.zeros((len(ops), T + 1)) if ops else None
    for offset in range(stop - start):
        rng = np.random.default_rng([master_seed, start + offset])
        outcomes, _, values = _walk(kets, inst.n, T, rng, prepared)
        n0[offset] = T - int(np.sum(outcomes))
        zeros_per_step += 1 - outcomes
        if ops:
            obs_sum += values
            obs_sumsq += values**2
    return n0, zeros_per_step, obs_sum, obs_sumsq


def run_ensemble(
    inst: Instance,
    T: int,
    M: int,
    master_seed: int,
    workers: int = 1,
    operators: dict | None = None,
) -> EnsembleStats:
    """Run M seeded trajectories; optionally track per-step operator means.

    `operators` maps names to 2^n x 2^n matrices whose expectation values are
    recorded at every step t = 0..T (mean and standard error across the
    ensemble). Results do not depend on `workers`.
    """
    if M < 1:
        raise IndexOutOfRange(f"M must be >= 1, got {M}")
    ops = list((operators or {}).items())
    payloads = [
        (inst, T, start, min(start + _CHUNK, M), master_seed, ops)
        for start in range(0, M, _CHUNK)
    ]
    if workers > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_ensemble_chunk, payloads))
    else:
        parts = [_ensemble_chunk(p) for p in payloads]

    n0 = np.concatenate([p[0] for p in parts])
    zeros_per_step = np.zeros(T, dtype=np.int64)
    for p in parts:
        zeros_per_step += p[1]
    means = stderrs = None
    if ops:
        total = np.zeros((len(ops), T + 1))
        total_sq = np.zeros((len(ops), T + 1))
        for p in parts:
            total += p[2]
            total_sq += p[3]
        mean = total / M
        if M > 1:
            var = np.maximum(total_sq - M * mean**2, 0.0) / (M - 1)
        else:
            var = np.zeros_like(mean)
        se = np.sqrt(var / M)
        means = {name: mean[k] for k, (name, _) in enumerate(ops)}
        stderrs = {name: se[k] for k, (name, _) in enumerate(ops)}
    return EnsembleStats(
        M=M,
        T=T,
        master_seed=master_seed,
        n0=n0,
        mean_N0=float(np.mean(n0)),
        stddev_N0=float(np.std(n0, ddof=1)) if M > 1 else 0.0,
        zero_frequency=zeros_per_step / M,
        operator_means=means,
        operator_stderr=stderrs,
    )


def write_ensemble_csv(stats: EnsembleStats, path, meta: dict | None = None) -> None:
    with open(path, "w") as fh:
        for key, value in (meta or {}).items():
            fh.write(f"# {key}: {value}\n")
        fh.write("trajectory_index,N0\n")
        for idx, n0 in enumerate(stats.n0):
            fh.write(f"{idx},{int(n0)}\n")


def ensemble_summary(stats: EnsembleStats, extra: dict | None = None) -> dict:
    doc = {
        "M": stats.M,
        "T": stats.T,
        "mean_N0": stats.mean_N0,
        "stddev_N0": stats.stddev_N0,
        "master_seed": stats.master_seed,
    }
    doc.update(extra or {})
    return doc


def write_ensemble_summary(stats: EnsembleStats, path, extra: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(ensemble_summary(stats, extra), fh, indent=1)
        fh.write("\n")
