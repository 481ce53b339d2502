"""Self-check suites wiring the exact channel, the sampler, and the file format.

Each checked identity is computed once, by a function that returns the
measured deviation rather than a verdict: `lemma1_residuals`, `dual_sample`
(over `channel.dual_residuals`), `cumulative_excess` / `max_cumulative_excess`
and `channel_match`. The `suite_*` functions, which back the `verify` CLI
subcommand, apply their thresholds to these, each written so that a NaN
fails it: maxima go through numpy, which keeps a NaN, where the builtin max
drops one that is not first. The acceptance criteria and the tests call the
same functions with their own sizes, seeds and tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import channel, densesim, observables
from .errors import ParseError, QsatwalkError
from .instance import (
    ClauseForm,
    _generate_planted,
    deserialize,
    generate_planted_extended,
    generate_planted_restricted,
)
from .trajectory import run_ensemble

SUITE_NAMES = ("fixtures", "lemma1", "dual", "trajectory", "bound")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _result(suite, name, passed, detail=""):
    return CheckResult(suite=suite, name=name, passed=bool(passed), detail=detail)


def bundled_fixture_paths():
    base = resources.files("qsatwalk").joinpath("fixtures")
    return sorted(str(p) for p in base.iterdir() if p.name.endswith(".json"))


def check_instance_file(path) -> list[CheckResult]:
    """Schema, normalization, and promise checks for one instance file."""
    try:
        with open(path) as fh:
            deserialize(fh.read())
    except ParseError as exc:
        name = "instance-schema"
        if "normalization" in str(exc):
            name = "instance-normalization"
        return [_result("fixtures", name, False, f"{path}: {exc}")]
    except OSError as exc:
        return [_result("fixtures", "instance-read", False, f"{path}: {exc}")]
    return [_result("fixtures", "instance-valid", True, str(path))]


def suite_fixtures(instance_paths=()) -> list[CheckResult]:
    results = []
    paths = list(instance_paths) or bundled_fixture_paths()
    for path in paths:
        results.extend(check_instance_file(path))
    return results


def _random_planted(count: int, seed, n_max: int, L_max: int, typeII_fraction: float | None):
    """Yield `count` random planted instances, each with the generator that drew it:
    n in 2..n_max, L in 1..L_max and the instance seed, then the caller's own draws.
    A typeII_fraction of None means restricted clauses only."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, n_max + 1))
        L = int(rng.integers(1, L_max + 1))
        yield _generate_planted(n, L, typeII_fraction, int(rng.integers(2**31))), rng


def lemma1_residuals(pairs: int, seed) -> tuple[float, float]:
    """Largest Lemma-1 residuals of the step channel T over random restricted pairs.

    Each pair is a planted restricted instance (n in 2..5, L in 1..6) and a
    random full-rank state rho. Returns the largest |tr[S T(rho)] - tr[S rho]|
    and the largest |tr[S^2 T(rho)] - tr[S^2 rho] - (2/L) tr[H rho]|.
    """
    expect = densesim.expectation
    worst_s = worst_s2 = 0.0            # np.maximum, not the builtin max: a NaN residual stays NaN
    for inst, rng in _random_planted(pairs, seed, 5, 6, typeII_fraction=None):
        rho = densesim.random_density_matrix(inst.n, rng)
        s, s2 = observables.instance_spin_operators(inst)
        h = observables.build_hamiltonian(inst)
        out = channel.apply_step_channel(rho, inst)
        worst_s = np.maximum(worst_s, abs(expect(s, out) - expect(s, rho)))
        worst_s2 = np.maximum(worst_s2, abs(expect(s2, out) - expect(s2, rho) - (2.0 / inst.L) * expect(h, rho)))
    return float(worst_s), float(worst_s2)


def dual_sample(instances: int, states_per: int, seed) -> list[channel.ClauseResiduals]:
    """`channel.dual_residuals` over random planted instances of mixed clause forms.

    Each instance has n in 2..4, L in 1..5 and half its clauses |11><11| in
    expectation, scored on `states_per` random full-rank states.
    """
    report = []
    for inst, rng in _random_planted(instances, seed, 4, 5, typeII_fraction=0.5):
        states = [densesim.random_density_matrix(inst.n, rng) for _ in range(states_per)]
        report.extend(channel.dual_residuals(inst, states))
    return report


def cumulative_excess(inst, T: int) -> float:
    """How far the cumulative unsatisfied weight (2/L) sum_{t<T} tr[H rho_t] rises above 5 n^2.

    rho_t evolves from the maximally mixed state; the running sum is checked
    at every t, and the bound holds when the result is <= 0.
    """
    series = channel.evolve(np.full(2**inst.n, 2.0**-inst.n), inst, T)
    running = (2.0 / inst.L) * np.cumsum(series.trH[:T])
    return float(np.max(running) - 5.0 * inst.n * inst.n)


def max_cumulative_excess(instances: int, T: int, seed) -> float:
    """Largest `cumulative_excess` over random planted instances (n in 2..5, L in 1..6)."""
    sample = _random_planted(instances, seed, 5, 6, typeII_fraction=0.5)
    return float(np.max([cumulative_excess(inst, T) for inst, _ in sample], initial=-np.inf))


def channel_match(inst, T: int, M: int, seed) -> dict[str, np.ndarray]:
    """Per-step excess of M sampled trajectories over the exact channel's 5-sigma band.

    Both start from the maximally mixed state. The outcome-0 frequency is
    held to 1 - tr[H rho_t]/L with the binomial standard error, and the
    ensemble means of H, S and S^2 to tr[H rho_t], tr[S rho_t] and
    tr[S^2 rho_t] with their sample standard errors. Each entry is
    |estimate - exact| - (5 sigma + 1e-9), so the ensemble matches the
    channel where every entry is <= 0.
    """
    h = observables.build_hamiltonian(inst)
    s, s2 = observables.instance_spin_operators(inst)
    series = channel.evolve(np.full(2**inst.n, 2.0**-inst.n), inst, T)
    stats = run_ensemble(inst, T, M, master_seed=seed, operators={"H": h, "S": s, "S2": s2})
    p_zero = 1.0 - series.trH[:T] / inst.L
    sigma = np.sqrt(np.maximum(p_zero * (1.0 - p_zero), 0.0) / M)
    gaps = {"zero-frequency": np.abs(stats.zero_frequency - p_zero) - (5.0 * sigma + 1e-9)}
    for name, exact in (("H", series.trH), ("S", series.trS), ("S2", series.trS2)):
        tol = 5.0 * stats.operator_stderr[name] + 1e-9
        gaps[f"{name} mean"] = np.abs(stats.operator_means[name] - exact) - tol
    return gaps


def suite_lemma1() -> list[CheckResult]:
    """Spin invariance and the S^2 increment identity on 40 random restricted pairs."""
    worst_s, worst_s2 = lemma1_residuals(pairs=40, seed=20250101)
    return [
        _result("lemma1", "spin-invariance", worst_s <= 1e-9, f"max residual {worst_s:.3e}"),
        _result("lemma1", "spin-squared-increment", worst_s2 <= 1e-9, f"max residual {worst_s2:.3e}"),
    ]


def suite_dual() -> list[CheckResult]:
    """Dual-map residuals for restricted and |11><11| clauses, on 10 instances of 3 states each."""
    lawful = (ClauseForm.RESTRICTED_TYPE_I, ClauseForm.TYPE_II)
    sample = dual_sample(instances=10, states_per=3, seed=20250202)
    residuals = [r.max_residual for r in sample if r.form in lawful]
    worst = float(np.max(residuals, initial=0.0))
    detail = f"{len(residuals)} clauses, max residual {worst:.3e}"
    return [_result("dual", "clause-drift-identities", worst <= 1e-9, detail)]


def suite_trajectory() -> list[CheckResult]:
    """Means of 2000 trajectories against the exact channel, within 5 standard errors."""
    instances = [
        ("restricted", generate_planted_restricted(3, 3, 11)),
        ("extended", generate_planted_extended(3, 4, 0.5, 12)),
    ]
    results = []
    for label, inst in instances:
        off = []
        for quantity, gap in channel_match(inst, T=30, M=2000, seed=20250303).items():
            failing = ~(gap <= 0)                  # a NaN gap fails too
            if failing.any():
                off.append(f"{quantity} off at t={int(np.argmax(failing))}")
        results.append(_result("trajectory", f"channel-match-{label}", not off, "; ".join(off)))
    return results


def suite_cumulative_bound() -> list[CheckResult]:
    """Cumulative unsatisfied weight stays below 5 n^2 over 800 steps of 5 mixed-form instances."""
    worst = max_cumulative_excess(instances=5, T=800, seed=20250404)
    detail = f"max excess over 5n^2: {worst:.3e}"
    return [_result("bound", "cumulative-energy-bound", worst <= 1e-6, detail)]


def run_suites(selected=("all",), instance_paths=()) -> list[CheckResult]:
    names = set(selected)
    if "all" in names:
        names = set(SUITE_NAMES)
    unknown = names - set(SUITE_NAMES)
    if unknown:
        raise QsatwalkError(f"unknown verify suite(s): {sorted(unknown)}")
    results = []
    if "fixtures" in names:
        results.extend(suite_fixtures(instance_paths))
    if "lemma1" in names:
        results.extend(suite_lemma1())
    if "dual" in names:
        results.extend(suite_dual())
    if "bound" in names:
        results.extend(suite_cumulative_bound())
    if "trajectory" in names:
        results.extend(suite_trajectory())
    return results
