"""Decision procedure: step budget, acceptance threshold, and the verdict.

For promise gap c, L clauses and n qubits the restricted variant runs

    f = max(7/c, 1),  T = ceil(f^2 L^2 n^2 / 2),
    N = T ((fL-1)/(fL))^3 - f L n,

accepting when the zero-outcome count reaches ceil(N). The extended variant
(restricted plus |11><11| clauses) uses f = max(22/(5c), 1), five times the
step budget, and a 2fLn threshold slack. A YES instance passes with
probability >= 2/3 and a NO instance with probability <= 1/3; both margins
are loose in practice.

`decide` stops a NO walk at the first step where its verdict is fixed:
the one count never falls, so NO is certain once t - N0_t > T - N_int.
Draw positions never depend on outcomes, so the walk is a prefix of the
full T-step run of the same seed and the verdict is the full run's, bit for
bit; it reports the step it stopped at and the zero count over those steps.
A YES walk runs all T steps, so its N0 is the full count and N0 - N_int its
margin above the threshold (stopping it once N0_t >= N_int would be as
exact, but would report N0 = N_int every time). Once no clause can move its
state the walk is frozen, and counts its remaining steps as zeros without
stepping them (the `trajectory` module docstring gives the rule).
"""

from __future__ import annotations

import enum
import json
import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import channel, densesim
from .errors import InvalidPromise, InvalidTarget
from .instance import Instance
from .trajectory import _run_walk, _seed_json


class Variant(enum.Enum):
    RESTRICTED = "restricted"
    EXTENDED = "extended"


def _decimal(x: float) -> Fraction:
    """The decimal a float prints as, exactly: 0.1 -> 1/10, not the nearest binary value."""
    return Fraction(repr(float(x)))


@dataclass(frozen=True)
class DecisionParams:
    variant: Variant
    c: float
    f: float
    T: int
    N: float
    N_int: int
    p_worst: float
    q_worst: float


@dataclass(frozen=True)
class Verdict:
    decision: str  # "YES" or "NO"
    N0: int        # zero outcomes over the first `steps` steps
    params: DecisionParams
    seed: object
    steps: int | None = None   # steps walked: params.T for YES, the step that fixed a NO


def _check_sizes(L, n) -> None:
    """Raise InvalidPromise unless L >= 1 and n >= 2 are integers (numpy integers too,
    bools not)."""
    if not (densesim._is_integer(L) and densesim._is_integer(n)):
        raise InvalidPromise(f"L and n must be integers, got L={L!r}, n={n!r}")
    if L < 1 or n < 2:
        raise InvalidPromise(f"need L >= 1 and n >= 2, got L={L}, n={n}")


def _check_variant(variant) -> None:
    """Raise InvalidPromise unless `variant` is a Variant member (a string such as
    "extended" is not)."""
    if not isinstance(variant, Variant):
        raise InvalidPromise(f"unknown variant {variant!r}")


def decision_params(c: float, L: int, n: int, variant: Variant = Variant.RESTRICTED) -> DecisionParams:
    """Evaluate the step budget and acceptance threshold for a promise gap.

    Warns (and clamps the integer threshold to 0) when N comes out
    nonpositive, which happens at tiny scales where the bound is vacuous.
    Raises InvalidPromise when c is so small that f or N exceeds the float
    range.
    """
    if not c > 0 or not math.isfinite(c):
        raise InvalidPromise(f"promise gap must be positive and finite, got c={c}")
    _check_sizes(L, n)
    _check_variant(variant)
    # exact rational arithmetic on the decimal c, so T and N_int carry no float fuzz
    if variant is Variant.RESTRICTED:
        f = max(7 / _decimal(c), Fraction(1))
        t_real = f * f * L * L * n * n / 2
        slack = f * L * n
    else:
        f = max(22 / (5 * _decimal(c)), Fraction(1))
        t_real = 5 * f * f * L * L * n * n / 2
        slack = 2 * f * L * n
    t_steps = math.ceil(t_real)
    ratio = (f * L - 1) / (f * L)
    n_real = t_steps * ratio**3 - slack
    if max(f, abs(n_real)) > sys.float_info.max:
        raise InvalidPromise(f"promise gap c={c} is too small: f or N exceeds the float range")
    if n_real <= 0:
        warnings.warn(
            f"acceptance threshold N={float(n_real):.6g} is nonpositive; the bound is "
            f"vacuous at this scale (c={c}, L={L}, n={n})",
            RuntimeWarning,
            stacklevel=2,
        )
    n_int = max(0, math.ceil(n_real))
    return DecisionParams(
        variant=variant,
        c=float(c),
        f=float(f),
        T=t_steps,
        N=float(n_real),
        N_int=n_int,
        p_worst=float(ratio**2),
        q_worst=max(0.0, 1.0 - c / L),
    )


def decide(inst: Instance, params: DecisionParams, master_seed) -> Verdict:
    """Walk one trajectory of at most params.T steps and threshold its zero count.

    The walk stops at the first step after which steps - N0 > T - N_int (NO,
    with steps - N0 == T - N_int + 1) and otherwise runs all T steps (YES,
    with N0 >= N_int); the decision is that of `run_trajectory(inst,
    params.T, master_seed)`. A NO walk reads the generator through the block
    in which its verdict is fixed and no further, so a DegenerateBranch that
    a full run would meet after that step is not raised. The verdict's seed
    is the trajectory record's: master_seed as given, or None for a
    Generator.
    """
    outcomes, _, seed = _run_walk(inst, params.T, master_seed, params.N_int)
    steps = len(outcomes)
    n0 = steps - int(outcomes.sum())
    decision = "YES" if n0 >= params.N_int else "NO"
    return Verdict(decision=decision, N0=n0, params=params, seed=seed, steps=steps)


def convergence_steps(n: int, L: int, epsilon: float, p: float, variant: Variant = Variant.RESTRICTED) -> int:
    """Steps after which the channel's ground-space weight is at least p.

    Requires the spectral gap epsilon of the instance Hamiltonian; the
    extended variant needs five times as many steps. Raises InvalidPromise
    unless L >= 1 and n >= 2 are integers and `variant` is a Variant member,
    as `decision_params` does.
    """
    _check_sizes(L, n)
    _check_variant(variant)
    if not 0.0 < p < 1.0:
        raise InvalidTarget(f"target overlap p must lie in (0, 1), got {p}")
    if not epsilon > 0 or not math.isfinite(epsilon):
        raise InvalidTarget(f"spectral gap must be positive and finite, got {epsilon}")
    base = Fraction(n * n * L) / (2 * (1 - _decimal(p)) * _decimal(epsilon))
    if variant is Variant.EXTENDED:
        base *= 5
    return math.ceil(base)


def expected_zero_count(inst: Instance, T: int) -> float:
    """Mean zero-outcome count of a length-T run, from exact channel evolution.

    Starts at the maximally mixed state and sums the per-step satisfied
    probability 1 - tr[H rho_t]/L over t < T.
    """
    series = channel.evolve(np.full(2**inst.n, 2.0**-inst.n), inst, T)
    return float(np.sum(1.0 - series.trH[:T] / inst.L))


def verdict_to_json(verdict: Verdict) -> str:
    doc = {
        "decision": verdict.decision,
        "N0": verdict.N0,
        "steps": verdict.steps,
        "T": verdict.params.T,
        "N_int": verdict.params.N_int,
        "f": verdict.params.f,
        "variant": verdict.params.variant.value,
        "seed": _seed_json(verdict.seed),
    }
    return json.dumps(doc, indent=1)
