import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as scipy_stats

from qsatwalk.decision import (
    Variant,
    convergence_steps,
    decide,
    decision_params,
    expected_zero_count,
    verdict_to_json,
)
from qsatwalk.errors import IndexOutOfRange, InvalidPromise, InvalidTarget
from qsatwalk.instance import (
    Instance,
    conjugate_instance,
    generate_no_instance,
    generate_planted_extended,
    generate_planted_restricted,
    make_clause,
)
from qsatwalk.trajectory import _BLOCK, _draw_block, run_trajectory

from helpers import SEED_KINDS, random_product_basis

SINGLET = (0, 1 / np.sqrt(2), -1 / np.sqrt(2), 0)


def test_params_restricted_reference_point():
    p = decision_params(1.0, 4, 2, Variant.RESTRICTED)
    assert p.f == 7.0
    assert p.T == 1568
    assert abs(p.N - (19683 / 14 - 56)) < 1e-9
    assert p.N_int == 1350
    assert abs(p.p_worst - (27 / 28) ** 2) < 1e-12
    assert abs(p.q_worst - 0.75) < 1e-12


def test_params_vacuous_threshold_warns_and_clamps():
    with pytest.warns(RuntimeWarning):
        p = decision_params(8.0, 2, 2, Variant.RESTRICTED)
    assert p.f == 1.0
    assert p.T == 8
    assert abs(p.N - (-3.0)) < 1e-12
    assert p.N_int == 0


def test_params_extended_reference_point():
    p = decision_params(1.0, 2, 2, Variant.EXTENDED)
    assert abs(p.f - 4.4) < 1e-12
    assert p.T == int(np.ceil(5 * 4.4**2 * 4 * 4 / 2))
    ratio = (p.f * 2 - 1) / (p.f * 2)
    assert abs(p.N - (p.T * ratio**3 - 2 * p.f * 2 * 2)) < 1e-9


def test_params_step_budget_is_exact():
    # f = 22/(5 c) = 88/5 and fL = 176, so T = 5 f^2 L^2 n^2 / 2 = 176^2 * 1000
    # exactly; evaluated in floats it rounds up to 30976001.
    p = decision_params(0.25, 10, 20, Variant.EXTENDED)
    assert p.T == 30976000
    # N = T (175/176)^3 - 2 f L n = 1000 * 175^3 / 176 - 7040 = 30443954.318...
    assert p.N_int == 30443955


def test_params_rejects_non_finite_gap():
    for c in (float("inf"), float("nan")):
        with pytest.raises(InvalidPromise):
            decision_params(c, 4, 2)


@pytest.mark.parametrize(
    "L, n, variant, message",
    [
        (0, 2, Variant.RESTRICTED, "^need L >= 1 and n >= 2, got L=0, n=2$"),
        (4, 1, Variant.RESTRICTED, "^need L >= 1 and n >= 2, got L=4, n=1$"),
        (4, 2, "restricted", "^unknown variant 'restricted'$"),
        (4.5, 2, Variant.RESTRICTED, "^L and n must be integers, got L=4.5, n=2$"),
        (4, 2.5, Variant.RESTRICTED, "^L and n must be integers, got L=4, n=2.5$"),
        (4, -3, Variant.RESTRICTED, "^need L >= 1 and n >= 2, got L=4, n=-3$"),
    ],
    ids=["L-0", "n-1", "variant-string", "L-float", "n-float", "n-negative"],
)
def test_params_rejects_bad_sizes_and_variants(L, n, variant, message):
    with pytest.raises(InvalidPromise, match=message):
        decision_params(1.0, L, n, variant)


@pytest.mark.parametrize(
    "call",
    [lambda variant: decision_params(1.0, 8, 4, variant), lambda variant: convergence_steps(4, 8, 0.5, 0.9, variant)],
    ids=["params", "convergence-steps"],
)
def test_a_variant_must_be_a_variant_member(call):
    assert call(Variant.EXTENDED)
    with pytest.raises(InvalidPromise, match="^unknown variant 'extended'$"):
        call("extended")


def test_params_accept_numpy_integer_sizes():
    assert decision_params(1.0, np.int64(4), np.int32(2)) == decision_params(1.0, 4, 2)
    assert convergence_steps(np.int64(2), np.int16(1), 1.0, 0.9) == 20


@pytest.mark.parametrize("c", [1e-300, 5e-324])
def test_params_rejects_gap_beyond_float_range(c):
    """f = 7/c or N overflows a float: the error names c, not a bare OverflowError."""
    with pytest.raises(InvalidPromise, match=f"^promise gap c={c} is too small"):
        decision_params(c, 4, 2)


def test_params_rejects_bad_gap():
    with pytest.raises(InvalidPromise):
        decision_params(0.0, 4, 2)
    with pytest.raises(InvalidPromise):
        decision_params(-1.0, 4, 2)


def test_params_monotone_in_gap():
    for L, n in ((1, 2), (4, 3), (6, 5)):
        prev_f, prev_t = -np.inf, -np.inf
        for c in (2.0, 1.0, 0.5, 0.2, 0.1):
            p = decision_params(c, L, n)
            assert p.f >= prev_f and p.T >= prev_t
            prev_f, prev_t = p.f, p.T


def test_params_hoeffding_slack():
    rng = np.random.default_rng(60)
    for _ in range(50):
        c = float(rng.uniform(0.05, 2.0))
        L = int(rng.integers(1, 8))
        n = int(rng.integers(2, 8))
        for variant, slack_factor in ((Variant.RESTRICTED, 1), (Variant.EXTENDED, 2)):
            p = decision_params(c, L, n, variant)
            if p.N <= 0:
                continue
            ratio = (p.f * L - 1) / (p.f * L)
            lhs = p.T * p.p_worst * ratio - p.N
            assert lhs >= slack_factor * p.f * L * n - 1e-6


def test_expected_zero_count_singlet():
    inst = Instance(n=2, clauses=(make_clause(0, 1, SINGLET),))
    assert abs(expected_zero_count(inst, 3) - 171 / 64) < 1e-12


def test_expected_zero_count_complete_pair():
    inst = generate_no_instance(2, "complete_pair")
    for T in (1, 8, 40):
        assert abs(expected_zero_count(inst, T) - 0.75 * T) < 1e-10


def test_expected_zero_count_bounded_by_T():
    inst = generate_planted_restricted(3, 3, seed=61)
    assert expected_zero_count(inst, 20) < 20.0


def test_convergence_steps_values():
    assert convergence_steps(2, 1, 1.0, 0.9, Variant.RESTRICTED) == 20
    assert convergence_steps(2, 1, 1.0, 0.9, Variant.EXTENDED) == 100


def test_convergence_steps_rejects_bad_targets():
    with pytest.raises(InvalidTarget):
        convergence_steps(2, 1, 1.0, 1.0)
    with pytest.raises(InvalidTarget):
        convergence_steps(2, 1, 1.0, 0.0)
    with pytest.raises(InvalidTarget):
        convergence_steps(2, 1, 0.0, 0.5)
    for gap, shown in ((float("nan"), "nan"), (float("inf"), "inf"), (-float("inf"), "-inf")):
        with pytest.raises(InvalidTarget, match=f"^spectral gap must be positive and finite, got {shown}$"):
            convergence_steps(4, 8, gap, 0.9)
    for n, L, message in ((2, 0, "^need L >= 1 and n >= 2, got L=0, n=2$"),
                          (-3, 4, "^need L >= 1 and n >= 2, got L=4, n=-3$"),
                          (4.5, 4, "^L and n must be integers, got L=4, n=4.5$"),
                          (2, 2.5, "^L and n must be integers, got L=2.5, n=2$")):
        with pytest.raises(InvalidPromise, match=message):
            convergence_steps(n, L, 1.0, 0.9)


def test_decide_deterministic():
    inst = generate_no_instance(2, "complete_pair")
    params = decision_params(1.0, 4, 2)
    v1 = decide(inst, params, 77)
    v2 = decide(inst, params, 77)
    assert v1.decision == v2.decision and v1.N0 == v2.N0


def test_decide_degenerate_zero_steps():
    inst = generate_no_instance(2, "complete_pair")
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = decision_params(8.0, 2, 2)
    # zero threshold accepts any run, including an empty one; a YES walk runs all T steps
    zero = replace(params, T=0, N=0.0, N_int=0)
    v = decide(inst, zero, 1)
    assert v.N0 == 0 and v.decision == "YES"
    assert params.T == 8 and params.N_int == 0
    v = decide(inst, params, 1)
    assert (v.decision, v.N0, v.steps) == ("YES", run_trajectory(inst, 8, 1).N0, 8)
    # a threshold above T rejects any run, and is fixed before any step
    v = decide(inst, replace(params, N_int=9), 1)
    assert (v.decision, v.N0, v.steps) == ("NO", 0, 0)


@pytest.mark.parametrize("T, message", [(-1, r"^T must be >= 0, got -1$"), (2.5, r"^T must be an integer, got 2\.5$")])
def test_decide_rejects_a_step_budget_that_is_not_a_count(T, message):
    params = decision_params(1.0, 4, 2)
    with pytest.raises(IndexOutOfRange, match=message):
        decide(generate_no_instance(2, "complete_pair"), replace(params, T=T), 1)


def test_verdict_json_fields():
    import json

    inst = generate_no_instance(2, "complete_pair")
    params = decision_params(1.0, 4, 2)
    doc = json.loads(verdict_to_json(decide(inst, params, 3)))
    assert set(doc) == {"decision", "N0", "steps", "T", "N_int", "f", "variant", "seed"}
    assert doc["T"] == 1568 and doc["N_int"] == 1350 and doc["variant"] == "restricted"
    assert doc["steps"] <= doc["T"]


# (instance, params, seeds): the reference NO and YES instances of criterion 6, an extended
# instance under the extended budget, and a 7-qubit one, whose walk steps through array views,
# under a threshold near its median zero count so that both verdicts occur
EARLY_STOP_CASES = {
    "reference-no": (lambda: generate_no_instance(2, "complete_pair"),
                     lambda: decision_params(1.0, 4, 2), range(100)),
    "reference-yes": (lambda: generate_planted_restricted(2, 4, seed=602),
                      lambda: decision_params(1.0, 4, 2), range(100)),
    "extended": (lambda: generate_planted_extended(3, 2, 0.5, seed=71),
                 lambda: decision_params(1.0, 2, 3, Variant.EXTENDED), range(20)),
    "views-n7": (lambda: generate_planted_restricted(7, 14, seed=70),
                 lambda: replace(decision_params(1.0, 14, 7), T=200, N_int=186), range(20)),
}


@pytest.mark.parametrize("case", sorted(EARLY_STOP_CASES))
def test_decide_stops_where_its_verdict_is_fixed(case):
    """The verdict is the full-length threshold's. A NO walk stops at the first
    step that fixes it, with one outcome 1 more than T - N_int allows; a YES
    walk runs all T steps. Its N0 is that of a run of `steps` steps."""
    make_inst, make_params, seeds = EARLY_STOP_CASES[case]
    inst, params = make_inst(), make_params()
    decisions = set()
    for seed in seeds:
        v = decide(inst, params, seed)
        full = run_trajectory(inst, params.T, seed)
        assert v.decision == ("YES" if full.N0 >= params.N_int else "NO"), seed
        assert 0 <= v.steps <= params.T
        if v.decision == "YES":
            assert v.steps == params.T and v.N0 == full.N0
        else:
            assert v.steps - v.N0 == params.T - params.N_int + 1
        assert run_trajectory(inst, v.steps, seed).N0 == v.N0
        decisions.add(v.decision)
    if case == "views-n7":
        assert decisions == {"YES", "NO"}


@pytest.mark.parametrize("kind, seed", [("no", 0), ("no", 1), ("no", 44), ("yes", 0)],
                         ids=["seed-0", "seed-1", "block-edge-44", "yes-seed-0"])
def test_decide_reads_the_generator_through_the_settling_block(kind, seed):
    """A Generator is left where the initial draw and ceil(steps / 64) blocks
    leave it: no block is drawn once a NO verdict is fixed, also when it is
    fixed on a block's last step (seed 44 stops at step 896 = 14 blocks), and
    a YES walk draws the full run's ceil(T / 64) blocks."""
    inst = (generate_no_instance(2, "complete_pair") if kind == "no"
            else generate_planted_restricted(2, 4, seed=602))
    params = decision_params(1.0, 4, 2)
    rng = np.random.default_rng(seed)
    v = decide(inst, params, rng)
    assert v.steps == decide(inst, params, seed).steps
    assert v.decision == kind.upper()
    if seed == 44:
        assert v.steps % _BLOCK == 0
    fresh = np.random.default_rng(seed)
    fresh.integers(2**inst.n)
    for _ in range(math.ceil(v.steps / _BLOCK)):
        _draw_block(fresh, inst.L)
    assert rng.bit_generator.state == fresh.bit_generator.state


@pytest.mark.parametrize("kind", sorted(SEED_KINDS))
def test_verdict_json_writes_every_seed_kind(kind):
    """The verdict keeps the trajectory record's seed (None for a generator),
    and the JSON holds it as plain ints."""
    import json

    make, written = SEED_KINDS[kind]
    seed = make()
    verdict = decide(generate_no_instance(2, "complete_pair"), decision_params(1.0, 4, 2), seed)

    assert (verdict.seed is None) == isinstance(seed, np.random.Generator)
    assert json.loads(verdict_to_json(verdict))["seed"] == written


def test_decide_acceptance_rates_small_scale():
    # n=2, L=2, c=1 keeps T at 392 so a 60-run check stays fast
    yes_inst = generate_planted_restricted(2, 2, seed=62)
    no_inst = generate_no_instance(2, "complete_pair")
    no_params = decision_params(1.0, no_inst.L, 2)
    yes_params = decision_params(1.0, yes_inst.L, 2)
    yes_hits = sum(decide(yes_inst, yes_params, [63, k]).decision == "YES" for k in range(60))
    no_hits = sum(decide(no_inst, no_params, [64, k]).decision == "YES" for k in range(60))
    assert yes_hits / 60 >= 2 / 3
    assert no_hits / 60 <= 1 / 3


def test_decide_conjugation_invariant_acceptance():
    yes_inst = generate_planted_restricted(2, 2, seed=65)
    rotated = conjugate_instance(yes_inst, random_product_basis(2, 66))
    params = decision_params(1.0, 2, 2)
    runs = 80
    a = sum(decide(yes_inst, params, [67, k]).decision == "YES" for k in range(runs))
    b = sum(decide(rotated, params, [68, k]).decision == "YES" for k in range(runs))
    table = [[a, runs - a], [b, runs - b]]
    assert scipy_stats.fisher_exact(table).pvalue > 0.01
