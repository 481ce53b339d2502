"""Acceptance suite: every criterion at its stated tolerance, one line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`. The trajectory-versus-channel
criterion runs 10^4 trajectories per instance and takes a couple of minutes on
one core; everything else is seconds-scale.
"""

import numpy as np

from qsatwalk import densesim
from qsatwalk.channel import apply_clause_channel, dual_residuals, evolve
from qsatwalk.classical import CnfInstance, papadimitriou
from qsatwalk.decision import Variant, convergence_steps, decide, decision_params
from qsatwalk.instance import (
    ClauseForm,
    Instance,
    generate_no_instance,
    generate_planted_extended,
    generate_planted_restricted,
    make_clause,
)
from qsatwalk.observables import build_hamiltonian, instance_spin_operators, spectral_data
from qsatwalk.trajectory import haar_unitary, run_ensemble
from qsatwalk.verify import channel_match, lemma1_residuals, max_cumulative_excess

from helpers import planted_cnf, pure_density, trace_distance


def _criterion(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_restricted_spin_identities():
    worst_s, worst_s2 = lemma1_residuals(pairs=200, seed=1001)
    _criterion(
        1,
        "restricted spin identities over 200 random pairs",
        worst_s <= 1e-9 and worst_s2 <= 1e-9,
        f"max residuals S={worst_s:.3e}, S2={worst_s2:.3e}",
    )


def test_criterion_2_extended_dual_maps_and_cumulative_bound():
    rng = np.random.default_rng(1002)
    worst = 0.0
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        L = int(rng.integers(1, 7))
        inst = generate_planted_extended(n, L, 1.0, int(rng.integers(2**31)))
        rho = densesim.random_density_matrix(n, rng)
        for item in dual_residuals(inst, [rho]):
            assert item.form is ClauseForm.TYPE_II
            worst = max(worst, item.max_residual)
            checked += 1
    dual_ok = worst <= 1e-9

    worst_excess = max_cumulative_excess(instances=20, T=2000, seed=rng)
    bound_ok = worst_excess <= 1e-6
    _criterion(
        2,
        "extended dual maps and 5n^2 cumulative bound",
        dual_ok and bound_ok,
        f"{checked} clauses max residual {worst:.3e}; bound excess {worst_excess:.3e}",
    )


def test_criterion_3_general_clause_counterexample():
    # |+1><+1| on the first two qubits of three; state |011>
    plus_one = make_clause(0, 1, (0, 1, 0, 1))
    inst = Instance(n=3, clauses=(plus_one,))
    s, s2 = instance_spin_operators(inst)
    rho = pure_density(densesim.basis_state(3, 0b011))
    out = apply_clause_channel(rho, plus_one)

    direct_s = densesim.expectation(s, rho)
    direct_s2 = densesim.expectation(s2, rho)
    evolved_s = densesim.expectation(s, out)
    evolved_s2 = densesim.expectation(s2, out)

    rho_111 = pure_density(densesim.basis_state(3, 0b111))
    s2_before = densesim.expectation(s2, rho_111)
    s2_after = densesim.expectation(s2, apply_clause_channel(rho_111, plus_one))

    ok = (
        abs(evolved_s2 - 4.5) <= 1e-9
        and abs(abs(evolved_s) - 1.75) <= 1e-9
        and abs(direct_s2 - 1.0) <= 1e-9   # direct evaluation, not the printed 5
        and abs(abs(direct_s) - 1.0) <= 1e-9  # direct evaluation, not the printed 2
        and abs(s2_before - 9.0) <= 1e-9
        and abs(s2_after - 4.5) <= 1e-9
        and s2_after < s2_before - 1.0
    )
    _criterion(
        3,
        "general-clause monotonicity counterexample",
        ok,
        f"S2 {direct_s2:g}->{evolved_s2:g}, |S| {abs(direct_s):g}->{abs(evolved_s):g}, "
        f"and 9->{s2_after:g}",
    )


def test_criterion_4_ground_state_convergence():
    singlet = Instance(
        n=2, clauses=(make_clause(0, 1, (0, 1 / np.sqrt(2), -1 / np.sqrt(2), 0)),)
    )
    steps = convergence_steps(2, 1, 1.0, 0.9, Variant.RESTRICTED)
    series = evolve(densesim.maximally_mixed(2), singlet, steps)
    closed_form = 1.0 - 0.25 ** (steps + 1)
    singlet_ok = (
        steps == 20
        and series.trPi0[steps] >= 0.9
        and abs(series.trPi0[steps] - closed_form) < 1e-12
    )

    rng = np.random.default_rng(909)
    random_ok = True
    for _ in range(10):
        n = int(rng.integers(2, 5))
        L = int(rng.integers(1, 5))
        inst = generate_planted_restricted(n, L, int(rng.integers(10**6)))
        data = spectral_data(build_hamiltonian(inst))
        t_needed = convergence_steps(n, L, data.epsilon, 0.9, Variant.RESTRICTED)
        series = evolve(densesim.maximally_mixed(n), inst, t_needed)
        random_ok = random_ok and series.trPi0[t_needed] >= 0.9
    _criterion(
        4,
        "ground-space weight reaches target at the step bound",
        singlet_ok and random_ok,
        f"singlet weight {closed_form:.12f} at T=20; 10 random instances with measured gap",
    )


def test_criterion_5_trajectory_matches_channel():
    cases = [
        ("restricted-n3", generate_planted_restricted(3, 3, seed=301)),
        ("restricted-n4", generate_planted_restricted(4, 5, seed=302)),
        ("extended-n3", generate_planted_extended(3, 4, 0.5, seed=303)),
        ("no-complete-pair", generate_no_instance(2, "complete_pair")),
        ("no-random", generate_no_instance(3, "random_certified", c_target=0.05, seed=304)),
    ]
    T, M = 50, 10000
    matched = {
        label: all(np.all(gap <= 0) for gap in channel_match(inst, T, M, seed=5000).values())
        for label, inst in cases
    }
    details = ", ".join(f"{label}:{'ok' if ok else 'MISMATCH'}" for label, ok in matched.items())
    _criterion(5, "trajectory ensembles match the exact channel", all(matched.values()), details)


def test_criterion_6_end_to_end_decision():
    runs = 100
    no_inst = generate_no_instance(2, "complete_pair")
    params = decision_params(1.0, 4, 2, Variant.RESTRICTED)
    assert params.f == 7.0 and params.T == 1568 and params.N_int == 1350
    no_accepts = sum(
        decide(no_inst, params, [6001, k]).decision == "YES" for k in range(runs)
    )

    yes_inst = generate_planted_restricted(2, 4, seed=602)
    yes_accepts = sum(
        decide(yes_inst, params, [6002, k]).decision == "YES" for k in range(runs)
    )
    ok = no_accepts / runs <= 1 / 3 and yes_accepts / runs >= 2 / 3
    _criterion(
        6,
        "decision procedure at the reference operating point",
        ok,
        f"YES accepted {yes_accepts}/{runs} (need >= 67), "
        f"NO accepted {no_accepts}/{runs} (need <= 33)",
    )


def test_criterion_7_haar_twirl():
    rng = np.random.default_rng(7007)
    rhos = [densesim.random_density_matrix(1, rng) for _ in range(5)]
    m = 100000
    sums = [np.zeros((2, 2), dtype=complex) for _ in rhos]
    for _ in range(m):
        u = haar_unitary(rng)
        ud = u.conj().T
        for k, rho in enumerate(rhos):
            sums[k] += u @ rho @ ud
    worst = max(
        trace_distance(acc / m, np.eye(2) / 2) for acc in sums
    )
    _criterion(
        7,
        "Haar average reproduces the single-qubit twirl",
        worst < 0.01,
        f"worst trace distance {worst:.4f} over 5 states x {m} samples",
    )


def test_criterion_8_classical_baseline():
    unsat = CnfInstance(
        n=2,
        clauses=(
            ((0, False), (1, False)),
            ((0, False), (1, True)),
            ((0, True), (1, False)),
            ((0, True), (1, True)),
        ),
    )
    none_count = sum(papadimitriou(unsat, 10.0, [8000, s]) is None for s in range(1000))

    random_sat, _ = planted_cnf(50, 150, 424242)
    sat_hits = sum(papadimitriou(random_sat, 10.0, [8001, s]) is not None for s in range(200))

    # equality chain with a forced endpoint: the walk's genuine quadratic regime
    chain_clauses = [((0, False), (0, False))]
    for i in range(49):
        chain_clauses.append(((i, True), (i + 1, False)))
        chain_clauses.append(((i, False), (i + 1, True)))
    chain = CnfInstance(n=50, clauses=tuple(chain_clauses))
    rates = [
        sum(papadimitriou(chain, b, [8002, s]) is not None for s in range(200))
        for b in (1.0, 4.0, 16.0)
    ]
    ok = (
        none_count == 1000
        and sat_hits / 200 >= 0.9
        and rates[0] <= rates[1] <= rates[2]
    )
    _criterion(
        8,
        "classical random-walk baseline",
        ok,
        f"unsat none {none_count}/1000; random-sat {sat_hits}/200; "
        f"chain success {rates} for b=1,4,16",
    )


def test_criterion_9_seeded_determinism():
    inst = generate_planted_extended(3, 4, 0.5, seed=901)
    ops = {"H": build_hamiltonian(inst)}
    runs = [
        run_ensemble(inst, 25, 1200, master_seed=902, workers=w, operators=ops)
        for w in (1, 2, 4)
    ]
    ensemble_ok = all(
        np.array_equal(runs[0].n0, r.n0)
        and np.array_equal(runs[0].zero_frequency, r.zero_frequency)
        and np.array_equal(runs[0].operator_means["H"], r.operator_means["H"])
        and np.array_equal(runs[0].operator_stderr["H"], r.operator_stderr["H"])
        for r in runs[1:]
    )
    params = decision_params(1.0, 4, 2)
    no_inst = generate_no_instance(2, "complete_pair")
    v1 = decide(no_inst, params, 903)
    v2 = decide(no_inst, params, 903)
    decide_ok = v1.N0 == v2.N0 and v1.decision == v2.decision
    walk_ok = np.array_equal(
        papadimitriou(planted_cnf(20, 40, 904)[0], 2.0, 905),
        papadimitriou(planted_cnf(20, 40, 904)[0], 2.0, 905),
    )
    _criterion(
        9,
        "bit-identical replay across worker counts",
        ensemble_ok and decide_ok and walk_ok,
        "ensemble workers {1,2,4}, verdict replay, walk replay",
    )
