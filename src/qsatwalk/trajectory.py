"""Stochastic pure-state sampling of the measurement walk.

Each trajectory starts from a uniformly random computational basis state (a
valid unraveling of the maximally mixed state), repeatedly measures a random
clause projector, and on an unsatisfied outcome applies a Haar-random unitary
to one of the clause's qubits. Ensemble averages reproduce the exact channel
in `channel`; the zero-outcome count N0 is the decision statistic.

On an unsatisfied outcome the projected state is a product phi (x) a, and
the Haar twirl acts on the 2x2 phi alone. Two engines run this walk.

* `_walk` advances one trajectory block by block; no per-clause index
  tables are built. It serves `run_trajectory`, `decision.decide` (which
  passes a limit on the outcomes 1, so a NO walk stops at the step that
  fixes its verdict) and the ensemble chunks that `_lockstep` does not take.
  Each block's clause, measurement and target draws become Python lists
  once, and one call of the layout's steps function runs the whole block
  (with operators to track, one call per step, after the state is copied
  out). The layout depends on n alone, split at n = 2:

  - pair, at n = 2, where a clause covers the whole register: `_pair_steps`
    steps a list of four Python complex through the block inline, with no
    function call per step. Its clause (`_pair_ket`) holds the indices of
    phi's nonzero entries, which at n = 2 are the basis indices, as one
    tuple, and their amplitudes and conjugates as tuples. The overlap is one
    sum, written out for one nonzero amplitude (basis and |11> projectors),
    two (restricted clauses) and four; a clause with three reads all four
    entries, one of them zero. Outcome 0 subtracts from those entries and
    outcome 1 writes the four twirled entries as the new list.
  - views, from n = 3: `_views_steps` calls `_measure` and `_write_back`
    per step, which update the walk's own state in place through the
    strided quarters `[:, b_lo, :, b_hi, :]` of the view
    `psi.reshape(pair)`. The overlap and each product term go into two
    quarter-size buffers (`_work`) that the walk allocates once, so a step
    allocates nothing of the state's size on either outcome.
    `trajectory_step` calls `_measure` and `_write_back` on one state at
    every n, since the views work from n = 2, with buffers of its own.

  Both carry the state's squared norm, norm2, as a scalar. The overlap
  sums phi's nonzero entries or quarters only, and the outcome is 1 when
  the draw is below p = q / norm2, q = ||overlap||^2. Outcome 0 subtracts
  phi's nonzero entries times the overlap from their entries or quarters
  and sets norm2 -= q, since ||(1 - P) v||^2 = ||v||^2 - q: no copy, no
  full norm and no full rescale. Outcome 1 writes all four as the twirled
  phi times overlap / sqrt(q), and norm2 = 1. When norm2 falls below 1/4,
  and at the end of the walk, the norm is recomputed and the state
  rescaled to unit norm, so norm2 stays in [1/4, 1] and its rounding
  cannot build up. The list's norm is summed left to right, not by the
  builtin `sum`, which rounds otherwise from Python 3.12. The views give
  the list's states to rounding (about 1e-15).

  The list is kept at n = 2 alone, where the decider's reference walks run
  7-13 times faster on it than on the views. From n = 3 the views step
  every register: up to 6 qubits their dozen numpy calls per step cost
  more than a list's Python arithmetic did, the price of one step engine
  fewer. Measured as
  `run_trajectory` steps per second (T = 2000, seeds 0-9, one core,
  `OMP_NUM_THREADS=1`, medians of 5 processes) against a list step of
  n = 3-6 that the views replaced: on planted restricted clauses (L = 2n)
  86 k against 532 k at n = 3 and 77 k against 134 k at n = 6, on random
  four-amplitude ones 48 k against 322 k and 47 k against 78 k. At the
  paper's budget for n = 6 (L = 12, c = 1: T = 127 008) that adds about
  0.7 s to a YES decision on restricted clauses and 1.1 s to a full walk on
  four-amplitude ones. Ensemble chunks of four or more trajectories at
  these sizes run in lockstep, which does not read `_walk`'s layout.

  A block's Haar unitaries (step 2d of the random stream below) are
  computed by one `_haar_stack` call at the block's first outcome 1, and
  not at all in a block without one; every block is still drawn in full.
  The list layout converts them once to flat 4-lists of Python complex.

  The walks read an instance's clause kets (`_kets`), and `_lockstep` its
  tables (`_tables`), from the instance's memo (`instance._derived`), each
  built on first use.
* `_lockstep` advances b trajectories together as one (b, 2^n) array.
  Per-clause index tables, `_clause_rows(arange(2^n))` stacked once per
  chunk, gather each trajectory's clause rows; measurement, collapse and
  twirl then run over the whole batch, so a step's interpreter overhead is
  paid once per batch instead of once per trajectory. Each block draws every
  generator into buffers allocated once per call, computes the batch's Haar
  unitaries in one `_haar_stack` call and only the twirl each target draw
  selects. Each trajectory carries its squared norm as `_walk` does, in a
  (b,) vector: outcome 0 lowers it by q with no rescale, outcome 1 writes
  a unit vector, and when some row's value falls below 1/4 the batch is
  rescaled from its recomputed norms. Operator values are divided by the
  carried norm of their state, and the DegenerateBranch check reads each
  step's p and 1 - p once the block has run.

`run_ensemble` picks the engine from the chunk width b and 2^n alone: a
chunk runs in lockstep batches of at most 2^13 / 2^n trajectories when
b >= 4 and n <= 10, and through `_walk` otherwise. Below 4 trajectories the
batch's fixed cost per step outweighs what it saves; above 10 qubits the
gathers through index tables cost more than `_walk`'s step does.

Random stream. A trajectory is a function of its generator alone: an integer
or sequence seed `s` means `numpy.random.default_rng(s)`, and trajectory k of
an ensemble with master seed m is the trajectory of seed `[m, k]`. A walk of
T steps draws, from that generator and in this order:

1. `integers(2**n)`: the index of the initial basis state;
2. for each block of `_BLOCK` = 64 steps, always a full block even when
   fewer steps remain:
   a. `integers(L, size=_BLOCK)`: the clause measured at each step;
   b. `_BLOCK` uniform draws, the measurement draws; the outcome is 1
      (the clause is violated) when the draw is below <psi|P|psi>;
   c. `_BLOCK` uniform draws, the target draws; on outcome 1 the twirl
      acts on the clause's qubit i when the draw is below 0.5, on qubit j
      otherwise. Steps b and c are one call, `random((2, _BLOCK))`; each
      double takes a fixed share of the bit generator's output, with
      nothing buffered between calls, so it reads the stream exactly as two
      `random(_BLOCK)` calls would;
   d. `standard_normal((2, _BLOCK, 2, 2))`: real and imaginary parts of a
      complex Ginibre matrix Z per step. The Q of Z = QR with R's diagonal
      positive, which `_haar_stack` computes in closed form, is the step's
      Haar unitary, used on outcome 1.

Draw positions therefore never depend on outcomes: the outcomes of a T-step
run are a prefix of those of any longer run with the same seed, and an
ensemble's results do not depend on `workers` or on how trajectories are
split into chunks. Both engines read every trajectory's generator in this
order, and their arithmetic differs only in rounding (about 1e-16): in
summation order, and in when a carried norm is recomputed.
So an ensemble's n0 and zero frequencies equal those of
`run_trajectory(inst, T, [m, k])` bit for bit whichever engine ran, unless
a measurement draw falls within that rounding of <psi|P|psi>, and its
operator means agree with per-trajectory values to rounding.

A NO decision (`decision.decide`) walks only up to the step at which its
verdict is fixed, and reads its generator only through the block in which
that step falls: the initial draw and ceil(steps / _BLOCK) blocks. Its
outcomes are a prefix of the full T-step run's, so its verdict is the full
run's; a DegenerateBranch that the full run would raise after that step is
not raised. A YES decision walks all T steps.

Operator standard errors come from exact pairwise moments: a `_lockstep`
batch gives (count, mean, M2) of its values in two passes, a `_walk` gives
(1, values, 0), and `_merge` combines them in a fixed order, so a constant
operator's standard error is 0 up to the rounding of its values.

`trajectory_step`, a single step on a caller's generator, draws as it goes
instead: `integers(L)`, `random()`, then on outcome 1 `random()` for the
target and `haar_unitary`.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .densesim import TRACE_TOL, _check_count, _check_hermitian, _clause_rows, _clause_split, basis_state, num_qubits
from .errors import DegenerateBranch, DimensionMismatch, IndexOutOfRange
from .instance import Instance, _derived

BRANCH_NORM_FLOOR = 1e-14
_CHUNK = 512
_BLOCK = 64
_LOCKSTEP_MIN = 4            # narrowest chunk that _lockstep runs faster than _walk
_LOCKSTEP_MAX_QUBITS = 10    # above it, gathers through index tables cost more than `_walk`
_LOCKSTEP_ENTRIES = 2**13    # widest lockstep batch, in b * 2^n state entries
_OBSERVED_ENTRIES = 2**18    # widest operator buffer of `_walk`, in state entries


def _haar_stack(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from complex 2x2 Ginibre matrices on the last two axes.

    The Q of z = QR with R's diagonal positive, which makes Q Haar-distributed
    (Mezzadri 2007), in closed form: for z = [[a, b], [c, d]] and r = |(a, c)|,
    Q's columns are (a, c) / r and e^{i arg det z} (-conj(c), conj(a)) / r,
    orthonormal by construction; det Q = e^{i arg det z} makes R[1, 1] =
    det z / (r det Q) positive.
    """
    a, b, c, d = z[..., 0, 0], z[..., 0, 1], z[..., 1, 0], z[..., 1, 1]
    det = a * d - b * c
    s = 1.0 / np.sqrt(a.real**2 + a.imag**2 + c.real**2 + c.imag**2)
    phase = det * (s / np.abs(det))
    q = np.empty_like(z)
    q[..., 0, 0] = a * s
    q[..., 1, 0] = c * s
    q[..., 0, 1] = -phase * c.conj()
    q[..., 1, 1] = phase * a.conj()
    return q


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed 2x2 unitary from a complex Ginibre matrix (`_haar_stack`)."""
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
    return _haar_stack(z)


def sample_initial_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random computational basis state on n qubits."""
    if n < 1:
        raise IndexOutOfRange(f"need n >= 1, got {n}")
    return basis_state(n, int(rng.integers(2**n)))


def _clause_ket(clause, n: int):
    """What `_walk`'s step reads of a clause, in the layout that n selects:
    `_pair_ket` at n = 2, `_views_ket` above."""
    return _pair_ket(clause) if n == 2 else _views_ket(clause, n)


def _pair_ket(clause):
    """The clause as `_pair_steps` reads it at n = 2, where basis index 2 b_lo + b_hi
    is phi's entry (b_lo, b_hi): the indices of phi's nonzero entries as a tuple
    (all four when three or more are nonzero), their amplitudes and conjugates as
    tuples, phi flat on (lo, hi) as Python scalars, and i < j."""
    flat = _clause_split(clause, 2)[1].reshape(4).tolist()
    kept = tuple(m for m in range(4) if flat[m])
    if len(kept) > 2:
        kept = (0, 1, 2, 3)
    amps = tuple(flat[m] for m in kept)
    return kept, amps, tuple(a.conjugate() for a in amps), flat, clause.i < clause.j


def _views_ket(clause, n: int):
    """The clause as `_measure` and `_write_back` read it: the index split, phi
    on (lo, hi), i < j, and phi's nonzero entries as (b_lo, b_hi, amplitude)."""
    pair, phi = _clause_split(clause, n)
    terms = [(int(x), int(y), complex(phi[x, y])) for x, y in zip(*np.nonzero(phi))]
    return pair, phi, clause.i < clause.j, terms


def _work(n: int) -> np.ndarray:
    """The two quarter-size buffers (2, 2^(n-2)) that `_measure` and `_write_back`
    write into: the overlap, and one product term at a time."""
    return np.empty((2, 2 ** (n - 2)), dtype=complex)


def _measure(psi: np.ndarray, norm2: float, ket, draw: float, work: np.ndarray):
    """Measure one clause on psi, whose squared norm is norm2.

    Returns the view `psi.reshape(pair)`, <phi|psi> on the other qubits,
    its norm^2 q, and the outcome (1 when draw < p = q / norm2). The overlap
    sums only phi's nonzero entries over the strided quarters `[:, b_lo, :,
    b_hi, :]` of the view, into work[0] with each term in work[1] (`_work`),
    so a step allocates nothing of the state's size. The drawn branch raises
    DegenerateBranch when its probability is below `BRANCH_NORM_FLOOR`: p for
    outcome 1, and 1 - p for outcome 0.
    """
    pair, _, _, terms = ket
    mat = psi.reshape(pair)
    overlap, term = work.reshape(2, *pair[0::2])
    (x, y, amp), *rest = terms
    np.multiply(mat[:, x, :, y, :], amp.conjugate(), out=overlap)
    for x, y, amp in rest:
        overlap += np.multiply(mat[:, x, :, y, :], amp.conjugate(), out=term)
    q = np.vdot(overlap, overlap).real
    p = q / norm2
    if draw < p:
        if p < BRANCH_NORM_FLOOR:
            raise DegenerateBranch(f"unsatisfied branch has norm^2 {p}")
        return mat, overlap, q, 1
    if 1 - p < BRANCH_NORM_FLOOR:
        raise DegenerateBranch(f"satisfied branch has norm^2 {1 - p}")
    return mat, overlap, q, 0


def _write_back(psi: np.ndarray, norm2: float, ket, mat, overlap, q, u, coin: float, work: np.ndarray):
    """The post-measurement state and its squared norm, with `_measure`'s work buffers.

    u is None on outcome 0, which keeps (1 - P) psi. On outcome 1, P psi =
    phi (x) overlap, and u twirls phi on the clause's qubit i when coin < 0.5,
    on qubit j otherwise. psi itself is written through `mat`, its
    `reshape(pair)` view: outcome 0 subtracts phi's nonzero entries times
    the overlap from their quarters and lowers norm2 by q, with no copy and
    no rescale; outcome 1 writes all four as twirled phi times overlap /
    sqrt(q), a unit vector. When norm2 falls below 1/4, psi is rescaled to
    unit norm from its recomputed norm, so the carried norm2 stays in
    [1/4, 1] and its rounding cannot build up.
    """
    _, phi, i_is_lo, terms = ket
    if u is None:
        term = work[1].reshape(overlap.shape)
        for x, y, amp in terms:
            mat[:, x, :, y, :] -= np.multiply(overlap, amp, out=term)
        norm2 -= q
        return (_unit(psi), 1.0) if norm2 < 0.25 else (psi, norm2)
    twirled = u @ phi if (coin < 0.5) == i_is_lo else phi @ u.T
    overlap *= 1.0 / math.sqrt(q)
    for x in (0, 1):
        for y in (0, 1):
            np.multiply(overlap, twirled[x, y], out=mat[:, x, :, y, :])
    return psi, 1.0


def _unit(psi):
    """psi rescaled to unit norm, from its norm computed afresh: an array in
    place, a list as a new list."""
    if isinstance(psi, list):
        norm2 = 0.0
        for x in psi:           # left to right: the builtin sum rounds otherwise from Python 3.12
            norm2 += x.real * x.real + x.imag * x.imag
        s = 1.0 / math.sqrt(norm2)
        return [x * s for x in psi]
    psi *= 1.0 / math.sqrt(np.vdot(psi, psi).real)
    return psi


def trajectory_step(psi: np.ndarray, inst: Instance, rng: np.random.Generator):
    """One measurement step: returns (next state, outcome bit).

    Picks a clause uniformly, measures its projector (outcome 1 with
    probability <psi|P|psi>), and on outcome 1 twirls one of its qubits with
    a fresh Haar unitary. The returned state is renormalized; psi is not
    modified (the step writes a copy of it). A psi whose <psi|psi> is more than
    `densesim.TRACE_TOL` away from 1 raises DimensionMismatch before anything is
    drawn.
    """
    psi = np.array(psi, dtype=complex)
    n = num_qubits(psi)
    if n != inst.n:
        raise DimensionMismatch(f"state has {n} qubits but instance has {inst.n}")
    norm2 = np.vdot(psi, psi).real
    if not abs(norm2 - 1.0) <= TRACE_TOL:
        raise DimensionMismatch(f"state has squared norm {norm2}, not 1 within {TRACE_TOL}")
    ket, work = _views_ket(inst.clauses[int(rng.integers(inst.L))], n), _work(n)
    mat, overlap, q, outcome = _measure(psi, 1.0, ket, rng.random(), work)
    coin, u = (rng.random(), haar_unitary(rng)) if outcome else (0.0, None)
    psi, norm2 = _write_back(psi, 1.0, ket, mat, overlap, q, u, coin, work)
    return psi if norm2 == 1.0 else _unit(psi), outcome


def _squares(prepared, rows: int, d: int):
    """The float buffer (2, rows, d) that `_observe` squares up to `rows` states
    into, or None when no prepared operator is diagonal."""
    return np.empty((2, rows, d)) if prepared and any(diag for diag, _ in prepared) else None


def _observe(states: np.ndarray, prepared, squares) -> np.ndarray:
    """<psi|op|psi> as an array indexed by (prepared operator, row psi of states).

    |psi|^2 = re*re + im*im goes into the first rows of `squares` (from
    `_squares`), a buffer the caller allocates once, so that no call
    allocates full-size temporaries.
    """
    if squares is not None:
        prob, imag2 = squares[0, : len(states)], squares[1, : len(states)]
        np.multiply(states.real, states.real, out=prob)
        np.multiply(states.imag, states.imag, out=imag2)
        prob += imag2
    return np.array([prob @ op if is_diag else _real_vdot_rows(states, states @ op)
                     for is_diag, op in prepared])


def _real_vdot_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re <x_k|y_k> for each row k, without a conjugated copy of x."""
    return np.einsum("ki,ki->k", x.real, y.real) + np.einsum("ki,ki->k", x.imag, y.imag)


def _draw_block(rng: np.random.Generator, L: int):
    """One block of draws, in the order the module docstring lists: clauses;
    the uniform draws (2, _BLOCK), measurement draws in row 0 and target
    draws in row 1; and the Ginibre parts (2, _BLOCK, 2, 2)."""
    return rng.integers(L, size=_BLOCK), rng.random((2, _BLOCK)), rng.standard_normal((2, _BLOCK, 2, 2))


def _pair_steps(psi: list, norm2: float, kets, draws, ks, haar, bits: bytearray):
    """Steps ks of a block at n = 2 on psi, a list of four Python complex, inline.

    draws holds the block's clauses, measurement draws and target draws as
    lists, and its Ginibre parts (2, k, 2, 2) for its k steps; haar is None
    until the block's first outcome 1, which computes the block's Haar
    unitaries in one `_haar_stack` call, as flat 4-lists. Each step's
    outcome is appended to bits. Returns psi, norm2 and haar.

    A clause covers the whole register, so the overlap is one sum over the
    ket's rows (`_pair_ket`), written out for one, two and four of them;
    outcome 0 subtracts from the same rows in place, and outcome 1 writes the
    twirled phi times overlap / sqrt(q) as the new list. Outcome 0 rescales
    psi into a new list when the carried norm2 falls below 1/4.
    """
    clause, measure, coin, g = draws
    append = bits.append
    for k in ks:
        idx, amps, bras, phi, i_is_lo = kets[clause[k]]
        rows = len(bras)
        if rows == 1:
            (i,), (b0,) = idx, bras
            o = b0 * psi[i]
        elif rows == 2:
            (i, j), (b0, b1) = idx, bras
            o = b0 * psi[i] + b1 * psi[j]
        else:
            (i, j, x, y), (b0, b1, b2, b3) = idx, bras
            o = b0 * psi[i] + b1 * psi[j] + b2 * psi[x] + b3 * psi[y]
        q = o.real * o.real + o.imag * o.imag
        p = q / norm2
        if measure[k] < p:
            if p < BRANCH_NORM_FLOOR:
                raise DegenerateBranch(f"unsatisfied branch has norm^2 {p}")
            if haar is None:
                haar = _haar_stack(g[0] + 1j * g[1]).reshape(-1, 4).tolist()
            u00, u01, u10, u11 = haar[k]
            p00, p01, p10, p11 = phi
            o *= 1.0 / math.sqrt(q)
            if (coin[k] < 0.5) == i_is_lo:         # u @ phi
                psi = [(u00 * p00 + u01 * p10) * o, (u00 * p01 + u01 * p11) * o,
                       (u10 * p00 + u11 * p10) * o, (u10 * p01 + u11 * p11) * o]
            else:                                  # phi @ u.T
                psi = [(p00 * u00 + p01 * u01) * o, (p00 * u10 + p01 * u11) * o,
                       (p10 * u00 + p11 * u01) * o, (p10 * u10 + p11 * u11) * o]
            norm2 = 1.0
            append(1)
            continue
        if 1 - p < BRANCH_NORM_FLOOR:
            raise DegenerateBranch(f"satisfied branch has norm^2 {1 - p}")
        if rows == 1:
            psi[i] -= amps[0] * o
        elif rows == 2:
            a0, a1 = amps
            psi[i] -= a0 * o
            psi[j] -= a1 * o
        else:
            a0, a1, a2, a3 = amps
            psi[i] -= a0 * o
            psi[j] -= a1 * o
            psi[x] -= a2 * o
            psi[y] -= a3 * o
        norm2 -= q
        if norm2 < 0.25:
            psi, norm2 = _unit(psi), 1.0
        append(0)
    return psi, norm2, haar


def _views_steps(psi: np.ndarray, norm2: float, kets, draws, ks, haar, bits: bytearray, work: np.ndarray):
    """`_pair_steps` on an array state of any n, one `_measure` and `_write_back`
    per step, both writing into the walk's `_work` buffers."""
    clause, measure, coin, g = draws
    for k in ks:
        ket = kets[clause[k]]
        mat, overlap, q, outcome = _measure(psi, norm2, ket, measure[k], work)
        if outcome and haar is None:
            haar = _haar_stack(g[0] + 1j * g[1])
        psi, norm2 = _write_back(psi, norm2, ket, mat, overlap, q, haar[k] if outcome else None, coin[k], work)
        bits.append(outcome)
    return psi, norm2, haar


def _walk(kets, n: int, T: int, rng: np.random.Generator, prepared=None, ones_limit=None):
    """T steps from a random basis state, with randomness drawn block by block.

    Returns the outcome bits, the final state as an array, and the prepared
    operators' values at t = 0..T (None when there are none). The layout
    follows from n (the module docstring gives the trade): a list stepped by
    `_pair_steps` at n = 2, an array stepped by `_views_steps` above. Without
    operators each block is one call of the layout's steps; with them, one
    call per step, after the state is copied out. The states awaiting
    evaluation are kept at most `_OBSERVED_ENTRIES` entries at a time (at
    least one state), so tracking operators adds a few state vectors.

    With a ones_limit (and no operators) the walk stops at its ones_limit-th
    outcome 1, so the bits end there. A block is cut where that could first
    happen, as many steps ahead as ones are still missing, and runs on from
    there until it does; no block is drawn once it has.
    """
    psi, norm2 = sample_initial_state(n, rng), 1.0
    if n == 2:
        psi, steps = psi.tolist(), _pair_steps
    else:
        steps = functools.partial(_views_steps, work=_work(n))
    bits = bytearray()
    values = np.empty((len(prepared), T + 1)) if prepared else None
    width = max(1, min(_BLOCK, _OBSERVED_ENTRIES >> n)) if prepared else _BLOCK
    states = np.empty((width, 2**n), dtype=complex) if prepared else None
    squares = _squares(prepared, width, 2**n)
    ones_left = T + 1 if ones_limit is None else ones_limit    # more than T: never reached
    for start in range(0, T, _BLOCK):
        if ones_left <= 0:
            break
        clause, uniform, g = _draw_block(rng, len(kets))
        stop = min(start + _BLOCK, T)
        draws = (clause.tolist(), *uniform.tolist(), g[:, : stop - start])
        if not prepared:
            k, haar = 0, None
            while k < stop - start and ones_left > 0:
                cut = min(stop - start, k + ones_left)
                psi, norm2, haar = steps(psi, norm2, kets, draws, range(k, cut), haar, bits)
                ones_left -= bits.count(1, start + k)
                k = cut
            continue
        haar = None
        for sub in range(start, stop, width):
            end = min(sub + width, stop)
            for t in range(sub, end):
                np.multiply(psi, 1.0 / math.sqrt(norm2), out=states[t - sub])
                psi, norm2, haar = steps(psi, norm2, kets, draws, (t - start,), haar, bits)
            values[:, sub:end] = _observe(states[: end - sub], prepared, squares)
    psi = np.asarray(psi if norm2 == 1.0 else _unit(psi), dtype=complex)
    if prepared:
        values[:, T] = _observe(psi[None], prepared, squares)[:, 0]
    return np.frombuffer(bits, dtype=np.int8).copy(), psi, values


def _moments(values: np.ndarray):
    """Mean and sum of squared deviations over the last axis, in two passes."""
    mean = values.mean(axis=-1)
    return mean, ((values - mean[..., None]) ** 2).sum(axis=-1)


def _merge(a, b):
    """(count, mean, M2) of the union of two samples, by the pairwise update of
    Chan, Golub and LeVeque (1983); None stands for the empty sample."""
    if a is None:
        return b
    na, mean_a, m2_a = a
    nb, mean_b, m2_b = b
    count = na + nb
    delta = mean_b - mean_a
    return count, mean_a + delta * (nb / count), m2_a + m2_b + delta**2 * (na * nb / count)


def _combine(parts):
    """Over (n0, zeros per step, moments) parts in order: n0 concatenated, the
    zero counts summed, and the moments merged."""
    n0, zeros, moments = [], 0, None
    for part_n0, part_zeros, part_moments in parts:
        n0.append(part_n0)
        zeros = zeros + part_zeros
        moments = _merge(moments, part_moments)
    return np.concatenate(n0), zeros, moments


def _sumsq(x: np.ndarray) -> np.ndarray:
    """Squared norm of each row of a C-contiguous complex (b, ...) array."""
    flat = x.reshape(len(x), -1).view(float)
    return np.einsum("ij,ij->i", flat, flat)


def _lockstep_tables(clauses, n: int):
    """What `_lockstep` reads per clause, stacked on axis 0: the basis indices of
    `_clause_rows` (L, 4, 2^(n-2)); per twirled qubit (lower, higher), the ket
    K that the Haar unitary multiplies from the left (phi, phi.T), conj(phi)
    and -phi, each flat on (lo, hi) (L, 2, 3, 4); and i < j."""
    splits = [_clause_split(c, n) for c in clauses]
    rows = np.stack([_clause_rows(np.arange(2**n), pair) for pair, _ in splits])
    kets = np.stack([[(phi, phi.conj(), -phi), (phi.T, phi.conj(), -phi)] for _, phi in splits])
    return rows, kets.reshape(-1, 2, 3, 4), np.array([c.i < c.j for c in clauses])


def _lockstep_block(tables, rngs, k: int, draws, slot: np.ndarray):
    """One block of `_lockstep`: every generator's `_draw_block`, written into
    the (b, ...) buffers `draws`, and for the first k steps, stacked (k, b,
    ...) per step and trajectory: the flat indices (k, b, 4, 2^(n-2)) of the
    clause rows in the step's slot of the batch's states, which `slot` (k, b,
    1, 1) gives the start of, conj(phi) (k, b, 1, 4), -phi and the twirled
    phi (k, b, 4, 1) written on outcome 0 and 1, and the measurement draws
    (k, b, 1, 1).

    Only the twirl that the target draw selects is computed: u @ phi on the
    lower qubit, phi @ u.T = (u @ phi.T).T on the higher, so W = u @ K and
    the higher qubit's rows swap W's off-diagonal entries.
    """
    rows, kets, i_is_lo = tables
    clause, uniform, g = draws
    for r, rng in enumerate(rngs):
        clause[r], uniform[r], g[r] = _draw_block(rng, len(kets))
    measure, coin = uniform[:, 0], uniform[:, 1]
    c = clause[:, :k].T                                               # (k, b)
    hi = (coin[:, :k].T < 0.5) != i_is_lo[c]                         # the twirl is on the higher qubit
    ket = kets[c, hi.view(np.int8)]                                   # (k, b, 3, 4)
    u = _haar_stack(g[:, 0, :k] + 1j * g[:, 1, :k]).swapaxes(0, 1)    # (k, b, 2, 2)
    u00, u01, u10, u11 = u[..., 0, 0], u[..., 0, 1], u[..., 1, 0], u[..., 1, 1]
    k00, k01, k10, k11 = (ket[..., 0, x] for x in range(4))
    w01, w10 = u00 * k01 + u01 * k11, u10 * k00 + u11 * k10
    twirled = np.empty((*c.shape, 4, 1), dtype=complex)
    twirled[..., 0, 0] = u00 * k00 + u01 * k10
    twirled[..., 1, 0] = np.where(hi, w10, w01)
    twirled[..., 2, 0] = np.where(hi, w01, w10)
    twirled[..., 3, 0] = u10 * k01 + u11 * k11
    return (rows[c] + slot, ket[..., None, 1, :], ket[..., 2, :, None], twirled,
            measure[:, :k].T[..., None, None])


def _lockstep(tables, n: int, T: int, rngs, prepared=None):
    """`_walk` on each generator of `rngs`, advanced together as one (b, 2^n) batch.

    Each trajectory reads its own generator in `_walk`'s order, so its
    outcomes are `_walk`'s. A step gathers every trajectory's clause rows
    from the step's slot of the block's states, measures, collapses and
    twirls the whole batch, and scatters the rows into the next slot. Each
    trajectory carries its squared norm as `_walk` does: p = q / norm2;
    outcome 0 subtracts phi times the overlap and lowers norm2 by q;
    outcome 1 writes the twirled phi times overlap / sqrt(q) and sets norm2
    = 1. When some norm2 falls below 1/4, every row is rescaled from its
    recomputed norm. The block's p are kept, and the DegenerateBranch check
    reads p and 1 - p once the block has run. Operator values are divided by
    their slot's carried norm2. Returns N0 per trajectory (b,), the zero
    outcomes per step (T,), and (b, mean, M2) of the prepared operators'
    values at t = 0..T over the batch (None when there are no operators).
    """
    b, d = len(rngs), 2**n
    slots = min(T, _BLOCK)
    states = np.zeros((slots + 1, b, d), dtype=complex)
    flat, flat_next = states.reshape(-1), states[1:].reshape(-1)     # flat_next[i] is flat[i + b d]
    states[0, np.arange(b), [int(rng.integers(d)) for rng in rngs]] = 1.0
    norms = np.ones((slots + 1, b, 1, 1))                 # each slot's carried norm2
    norm_rows = norms.reshape(slots + 1, b)
    probs = np.empty((slots, b, 1, 1))                    # the block's p
    slot = (np.arange(slots * b) * d).reshape(slots, b, 1, 1)
    draws = (np.empty((b, _BLOCK), dtype=np.int64), np.empty((b, 2, _BLOCK)), np.empty((b, 2, _BLOCK, 2, 2)))
    n0 = np.full(b, T, dtype=np.int64)
    zeros = np.empty(T, dtype=np.int64)
    mean = np.empty((len(prepared), T + 1)) if prepared else None
    m2 = np.empty((len(prepared), T + 1)) if prepared else None
    squares = _squares(prepared, max(1, slots) * b, d)
    for start in range(0, T, _BLOCK):
        k = min(_BLOCK, T - start)
        index, bra, minus_phi, twirled, measure = _lockstep_block(tables, rngs, k, draws, slot[:k])
        norms[1 : k + 1] = 1.0                          # what outcome 1 leaves, and the rescale
        for t in range(k):
            mat = flat[index[t]]                                      # (b, 4, 2^(n-2))
            overlap = bra[t] @ mat                                    # (b, 1, 2^(n-2))
            v = overlap.view(float)
            q = v @ v.swapaxes(1, 2)                                  # (b, 1, 1)
            out = measure[t] < np.divide(q, norms[t], out=probs[t])
            keep = ~out
            # outcome 1 rows of -phi become the twirled phi / sqrt(q)
            new = np.divide(twirled[t], np.sqrt(q), out=minus_phi[t], where=out) * overlap
            np.add(new, mat, out=new, where=keep)
            np.subtract(norms[t], q, out=norms[t + 1], where=keep)
            if min(norm_rows[t + 1].tolist()) < 0.25:
                new *= 1.0 / np.sqrt(_sumsq(new))[:, None, None]
                norms[t + 1] = 1.0
            flat_next[index[t]] = new
        ones = measure < probs[:k]
        branch = np.where(ones, probs[:k], 1 - probs[:k])
        degenerate = branch < BRANCH_NORM_FLOOR
        if degenerate.any():
            t, r = divmod(int(np.argmax(degenerate)), b)              # the block's first
            kind = "unsatisfied" if ones[t, r] else "satisfied"
            raise DegenerateBranch(f"{kind} branch has norm^2 {branch[t, r, 0, 0]}")
        ones = ones.reshape(k, b)
        n0 -= ones.sum(axis=0)
        zeros[start : start + k] = b - ones.sum(axis=1)
        if prepared:
            values = _observe(states[:k].reshape(k * b, d), prepared, squares).reshape(-1, k, b)
            mean[:, start : start + k], m2[:, start : start + k] = _moments(values / norm_rows[:k])
        states[0], norms[0] = states[k], norms[k]
    if prepared:
        mean[:, T], m2[:, T] = _moments(_observe(states[0], prepared, squares) / norm_rows[0])
    return n0, zeros, (b, mean, m2) if prepared else None


def _kets(inst: Instance) -> list:
    """The `_clause_ket` of each clause, for `_walk`: the memo record `_derived(inst, _kets)`."""
    return [_clause_ket(c, inst.n) for c in inst.clauses]


def _tables(inst: Instance) -> tuple:
    """The `_lockstep_tables`, read-only: the memo record `_derived(inst, _tables)`."""
    tables = _lockstep_tables(inst.clauses, inst.n)
    for a in tables:
        a.flags.writeable = False
    return tables


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


def _seed_json(seed):
    """A seed as the JSON writers record it: an integer or a (nested) list of
    them as plain Python ints, whatever integer type it came as; None for
    anything else, such as a generator, whose state no integer names."""
    if isinstance(seed, (int, np.integer, list, tuple, np.ndarray)):
        return np.asarray(seed).tolist()
    return None


def _integer_seed(seed) -> bool:
    """Whether `seed` is an int, a numpy integer, or a (nested) sequence of them:
    the entropy that `np.random.default_rng([seed, k])` takes."""
    if isinstance(seed, np.ndarray):
        return seed.dtype.kind in "iu"
    if isinstance(seed, (list, tuple)):
        return all(_integer_seed(s) for s in seed)
    return isinstance(seed, (int, np.integer))


def _run_walk(inst: Instance, T: int, rng, N_int=None):
    """(outcomes, final state, seed) of `_walk` for up to T steps on the instance's kets,
    for `run_trajectory` and `decision.decide`. T is checked first (an integer >= 0,
    else IndexOutOfRange); `rng` is a Generator or a seed for one, and the seed is
    kept as given, None for a Generator. With a threshold N_int the walk stops at
    its (T - N_int + 1)-th outcome 1, where N_int zeros are out of reach."""
    _check_count(T, "T", 0)
    gen, seed = _as_generator(rng)
    ones_limit = None if N_int is None else T - N_int + 1
    outcomes, psi, _ = _walk(_derived(inst, _kets), inst.n, T, gen, ones_limit=ones_limit)
    return outcomes, psi, seed


def run_trajectory(inst: Instance, T: int, rng, keep_history: bool = False) -> TrajectoryRecord:
    """Run one trajectory of T steps and count the satisfied (0) outcomes; T is an
    integer >= 0 (a numpy integer too), else IndexOutOfRange."""
    outcomes, psi, seed = _run_walk(inst, T, rng)
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
    """(is_diag, op) per operator: a 1-D diagonal as a real vector, else op^T, for rows @ op^T."""
    return [
        (True, np.ascontiguousarray(np.real(op), dtype=float)) if np.ndim(op) == 1
        else (False, np.ascontiguousarray(np.asarray(op, dtype=complex).T))
        for _, op in ops
    ]


def _ensemble_chunk(payload):
    """n0, the per-step zero counts, and (count, mean, M2) of the operator values
    of trajectories start..stop-1 (None without operators).

    The engine follows from the chunk width and 2^n alone (the module
    docstring gives the rule); both engines give the same outcomes.
    """
    inst, T, start, stop, master_seed, ops = payload
    n = inst.n
    prepared = _prepare_ops(ops) if ops else None
    rngs = [np.random.default_rng([master_seed, k]) for k in range(start, stop)]
    width = min(len(rngs), _LOCKSTEP_ENTRIES >> n)
    if width >= _LOCKSTEP_MIN and n <= _LOCKSTEP_MAX_QUBITS:
        tables = _derived(inst, _tables)
        runs = (_lockstep(tables, n, T, rngs[i : i + width], prepared)
                for i in range(0, len(rngs), width))
    else:
        kets = _derived(inst, _kets)
        walks = (_walk(kets, n, T, rng, prepared) for rng in rngs)
        runs = ((np.array([T - outcomes.sum(dtype=np.int64)]), 1 - outcomes.astype(np.int64),
                 (1, values, 0.0) if ops else None) for outcomes, _, values in walks)
    return _combine(runs)


def run_ensemble(
    inst: Instance,
    T: int,
    M: int,
    master_seed: int,
    workers: int = 1,
    operators: dict | None = None,
) -> EnsembleStats:
    """Run M seeded trajectories; optionally track per-step operator means.

    `operators` maps names to operators whose expectation values are
    recorded at every step t = 0..T (mean and standard error across the
    ensemble): a 1-D array is a diagonal operator given by its diagonal, as
    `observables.instance_spin_operators` returns S and S^2, a 2-D one a dense
    2^n x 2^n matrix, and any other shape raises DimensionMismatch; one that
    fails `densesim._check_hermitian` (a 1-D one by its imaginary parts, and
    any NaN) raises NotHermitian, both before any trajectory runs. Results do
    not depend on `workers`; at most one process is started per chunk.
    `master_seed` is an int, a numpy integer or a sequence of them; any other
    kind (a `Generator`, a float) raises TypeError before any trajectory runs.
    T, M and `workers` are integers (numpy integers too), T >= 0, M >= 1 and
    workers >= 1, else IndexOutOfRange names the one that is not, before any
    trajectory runs.
    """
    _check_count(M, "M", 1)
    _check_count(T, "T", 0)
    _check_count(workers, "workers", 1)
    if not _integer_seed(master_seed):
        raise TypeError("master_seed must be an int, a numpy integer or a sequence of them, "
                        f"got {type(master_seed).__name__}")
    ops = list((operators or {}).items())
    for name, op in ops:
        if np.shape(op) not in ((2**inst.n,), (2**inst.n, 2**inst.n)):
            raise DimensionMismatch(f"operator {name!r} has shape {np.shape(op)} on {inst.n} qubits")
        _check_hermitian(op, f"operator {name!r}")
    payloads = [
        (inst, T, start, min(start + _CHUNK, M), master_seed, ops)
        for start in range(0, M, _CHUNK)
    ]
    if workers > 1 and len(payloads) > 1:
        from concurrent.futures import ProcessPoolExecutor   # only pools pay its import

        with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
            parts = list(pool.map(_ensemble_chunk, payloads))
    else:
        parts = [_ensemble_chunk(p) for p in payloads]

    n0, zeros_per_step, moments = _combine(parts)
    means = stderrs = None
    if ops:
        _, mean, m2 = moments
        var = m2 / (M - 1) if M > 1 else np.zeros_like(mean)
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


def write_ensemble_summary(stats: EnsembleStats, path, extra: dict | None = None) -> None:
    doc = {
        "M": stats.M,
        "T": stats.T,
        "mean_N0": stats.mean_N0,
        "stddev_N0": stats.stddev_N0,
        "master_seed": _seed_json(stats.master_seed),
        **(extra or {}),
    }
    text = json.dumps(doc, indent=1)        # before opening: a failure leaves the file as it was
    with open(path, "w") as fh:
        fh.write(text + "\n")
