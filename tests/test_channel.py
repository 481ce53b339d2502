import gc
import math
import weakref

import numpy as np
import pytest

from qsatwalk import channel, densesim
from qsatwalk.channel import (
    apply_clause_channel,
    apply_step_channel,
    dual_residuals,
    evolve,
    write_series_csv,
)
from qsatwalk.errors import DimensionMismatch, IndexOutOfRange, NotHermitian, NumericalDrift
from qsatwalk.instance import (
    _DERIVED,
    ClauseForm,
    _derived,
    Instance,
    conjugate_instance,
    generate_no_instance,
    generate_planted_extended,
    generate_planted_restricted,
    make_clause,
)
from qsatwalk.observables import clause_projector, instance_spin_operators
from qsatwalk.verify import cumulative_excess, dual_sample, lemma1_residuals

from helpers import evolve_oracle, pure_density, random_instance, random_product_basis, twirl_oracle

SINGLET = (0, 1 / np.sqrt(2), -1 / np.sqrt(2), 0)


def singlet_instance():
    return Instance(n=2, clauses=(make_clause(0, 1, SINGLET),))


def test_twirl_product_state():
    rho = pure_density(densesim.basis_state(2, 0b01))
    out = twirl_oracle(rho, 0, 2)
    want = np.kron(np.eye(2) / 2, np.diag([0.0, 1.0]))
    assert np.max(np.abs(out - want)) < 1e-12


def test_twirl_fixes_maximally_mixed():
    rho = densesim.maximally_mixed(3)
    for q in range(3):
        assert np.max(np.abs(twirl_oracle(rho, q, 3) - rho)) < 1e-12


def test_twirl_idempotent_and_trace_preserving():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        q = int(rng.integers(n))
        rho = densesim.random_density_matrix(n, rng)
        once = twirl_oracle(rho, q, n)
        assert abs(np.trace(once) - 1.0) < 1e-12
        assert np.max(np.abs(twirl_oracle(once, q, n) - once)) < 1e-12


def test_clause_channel_quarters_singlet_weight():
    inst = singlet_instance()
    rho = densesim.maximally_mixed(2)
    proj = clause_projector(inst.clauses[0], 2)
    out = apply_clause_channel(rho, inst.clauses[0])
    weight = densesim.expectation(proj, out)
    assert abs(weight - 1.0 / 16.0) < 1e-12
    assert abs(np.trace(out) - 1.0) < 1e-12


def test_clause_channel_fixes_planted_state():
    inst = generate_planted_restricted(3, 4, seed=31)
    rho = pure_density(inst.planted_state())
    for c in inst.clauses:
        out = apply_clause_channel(rho, c)
        assert np.max(np.abs(out - rho)) < 1e-12


def test_clause_channel_type_ii_mixture():
    clause = make_clause(0, 1, (0, 0, 0, 1))
    rho = pure_density(densesim.basis_state(2, 0b11))
    out = apply_clause_channel(rho, clause)
    want = np.diag([0.0, 0.25, 0.25, 0.5]).astype(complex)
    assert np.max(np.abs(out - want)) < 1e-12


def test_apply_rejects_non_hermitian_input():
    """The kernel is exact for Hermitian rho only: E_12 at n=2 and a random
    complex matrix at n=3 raise in both public entry points."""
    e12 = np.zeros((4, 4))
    e12[0, 1] = 1.0
    rng = np.random.default_rng(11)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    for rho, inst in ((e12, singlet_instance()), (g, generate_planted_restricted(3, 4, seed=12))):
        with pytest.raises(NotHermitian):
            apply_clause_channel(rho, inst.clauses[0])
        with pytest.raises(NotHermitian):
            apply_step_channel(rho, inst)


def test_apply_passes_hermitian_input_to_the_kernel_unchanged():
    """The check only reads rho: a Hermitian input, and one off Hermitian by
    less than HERMITICITY_TOL, map bit for bit as the kernel maps them."""
    inst = generate_planted_extended(3, 4, 0.5, seed=13)
    rng = np.random.default_rng(14)
    rho = densesim.random_density_matrix(3, rng)
    near = rho + 0.1 * densesim.HERMITICITY_TOL * rng.standard_normal((8, 8))
    terms = [channel._clause_terms(c, 3) for c in inst.clauses]
    for state in (rho, near):
        assert np.array_equal(apply_clause_channel(state, inst.clauses[0]),
                              channel._apply(state, terms[:1]))
        assert np.array_equal(apply_step_channel(state, inst), channel._apply(state, terms))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: apply_clause_channel(densesim.maximally_mixed(2), make_clause(0, 2, SINGLET)),
         r"^clause acts on \(0, 2\) but state has n=2$"),
        (lambda: apply_step_channel(densesim.maximally_mixed(2), generate_planted_restricted(3, 2, seed=1)),
         "^state has 2 qubits but instance has 3$"),
        (lambda: evolve(densesim.maximally_mixed(2), generate_planted_restricted(3, 2, seed=1), 1),
         "^initial state dimension does not match instance$"),
    ],
    ids=["clause-outside-state", "step-qubit-count", "evolve-qubit-count"],
)
def test_channel_rejects_a_state_of_another_width(call, message):
    with pytest.raises(IndexOutOfRange, match=message):
        call()


@pytest.mark.parametrize(
    "schedule, message",
    [((5, 1.5, -1), r"^snapshot index 5 is not an integer in 0\.\.2$"),
     ((1.5,), r"^snapshot index 1\.5 is not an integer in 0\.\.2$"),
     ((-1,), r"^snapshot index -1 is not an integer in 0\.\.2$"),
     ((0, 3), r"^snapshot index 3 is not an integer in 0\.\.2$"),
     ((True,), r"^snapshot index True is not an integer in 0\.\.2$")],
    ids=["mixed", "fraction", "negative", "past-the-end", "bool"],
)
def test_evolve_rejects_snapshot_indices_outside_its_steps(schedule, message):
    with pytest.raises(IndexOutOfRange, match=message):
        evolve(densesim.maximally_mixed(2), singlet_instance(), 2, snapshot_schedule=schedule)


def test_evolve_keeps_integer_snapshot_indices_of_any_kind():
    out = evolve(densesim.maximally_mixed(2), singlet_instance(), np.int64(2), snapshot_schedule=(np.int64(2), 0))
    assert sorted(out.snapshots) == [0, 2] and len(out.trH) == 3


def test_evolve_rejects_a_fractional_step_count():
    with pytest.raises(IndexOutOfRange, match=r"^steps must be an integer, got 2\.5$"):
        evolve(densesim.maximally_mixed(2), singlet_instance(), 2.5)
    with pytest.raises(IndexOutOfRange, match=r"^steps must be an integer, got True$"):
        evolve(densesim.maximally_mixed(2), singlet_instance(), True)


def test_second_evolve_and_dual_residuals_build_no_clause_terms(monkeypatch):
    """Each layout's clause terms are built once per instance, on weight blocks and on
    the whole space: a second call of either entry point builds none."""
    built = []
    def counted(*args, _build=channel._clause_terms):
        built.append(args)
        return _build(*args)
    monkeypatch.setattr(channel, "_clause_terms", counted)
    rng = np.random.default_rng(40)
    eligible = generate_planted_extended(3, 4, 0.5, seed=41)
    arbitrary = Instance(n=3, clauses=(make_clause(0, 1, (1, 0, 0, 1)), make_clause(1, 2, (0, 1, 1j, 1))))
    for inst in (eligible, arbitrary, conjugate_instance(eligible, random_product_basis(3, 42))):
        rho = densesim.random_density_matrix(3, rng)
        for start in (densesim.maximally_mixed(3), rho):
            evolve(start, inst, 2)
        dual_residuals(inst, [rho])
        first = len(built)
        assert first > 0
        for start in (densesim.maximally_mixed(3), rho):
            evolve(start, inst, 2)
        dual_residuals(inst, [rho])
        assert len(built) == first


def test_packed_layout_and_its_h_read_one_assembly_of_h_entries(monkeypatch):
    """On a fresh eligible instance, `evolve` builds H's weight blocks and the packed
    layout's entries from one `densesim._pair_entries` call, bit for bit what a fresh
    assembly gives."""
    built = []
    def counted(*args, _build=densesim._pair_entries):
        built.append(args)
        return _build(*args)
    monkeypatch.setattr(densesim, "_pair_entries", counted)
    inst = generate_planted_extended(5, 10, 0.5, seed=43)
    evolve(densesim.maximally_mixed(5), inst, 1)
    prep, layout = _derived(inst, channel._prepare), _derived(inst, channel._Layout, False)
    assert len(built) == 1 and layout.entries is prep.cut_entries
    fresh = densesim._pair_entries(prep.cut, inst.n)
    assert all(np.array_equal(a, b) for a, b in zip(fresh, layout.entries))
    for square, h in zip(prep.weight_h, densesim._hamiltonian(fresh, densesim._sectors(inst.n))):
        assert np.array_equal(square, h)


def _one_product_cases():
    """Complex kets: planted restricted, a disguised frame, arbitrary clauses."""
    yield generate_planted_restricted(5, 10, seed=46)
    yield conjugate_instance(generate_planted_extended(4, 8, 0.5, seed=47), random_product_basis(4, 48))
    rng = np.random.default_rng(49)
    yield Instance(n=4, clauses=tuple(make_clause(i, j, rng.standard_normal(4) + 1j * rng.standard_normal(4))
                                      for i, j in ((0, 1), (3, 1), (2, 0), (1, 3))))


@pytest.mark.parametrize("inst", list(_one_product_cases()), ids=["restricted", "disguised", "arbitrary"])
def test_h_entries_p_inside_g_and_the_packed_c_ket_are_one_product(inst):
    """On every layout of the instance, each of H's entries from `densesim._pair_entries`,
    the P inside its clause's G = P + K, and the conjugate of the packed step's ket for
    c = <phi|rho|phi> are the same floats, clause by clause in H's order."""
    prep = _derived(inst, channel._prepare)
    for whole in (True, False) if prep.cut is not None else (True,):
        clauses, layout = prep.clauses if whole else prep.cut, _derived(inst, channel._Layout, whole)
        values = iter(densesim._pair_entries(clauses, inst.n, whole)[1])
        for clause, terms, (ket, _) in zip(clauses, layout.terms, layout.reads):
            k = channel._twirl(densesim._clause_split(clause, inst.n)[1])
            h = np.array([next(values) for _ in ket])
            inner = terms.g[: len(ket)]
            assert np.array_equal([g for *_, g in inner], [p + k[2 * x + y, 2 * x2 + y2]
                                                           for (x, y, x2, y2, _), p in zip(inner, h)])
            assert np.array_equal(ket.conj(), h)
        assert next(values, None) is None


def test_dual_residuals_rejects_an_empty_sample():
    with pytest.raises(DimensionMismatch, match="^sample_states is empty"):
        dual_residuals(singlet_instance(), [])


@pytest.mark.parametrize("frame", ["identity", "disguised"])
def test_dual_residuals_rejects_a_state_of_another_width_before_building_anything(frame):
    inst = generate_planted_restricted(3, 4, seed=1)
    if frame == "disguised":
        inst = conjugate_instance(inst, random_product_basis(3, 2))
    with pytest.raises(DimensionMismatch, match="^sample state 1 has dimension 4 but the instance's is 8$"):
        dual_residuals(inst, [densesim.maximally_mixed(3), densesim.maximally_mixed(2)])
    assert inst not in _DERIVED


def test_dropped_instance_frees_its_records_without_the_cycle_collector():
    """No record in the memo refers to its instance, so the memo entry of an instance
    goes with the instance by reference counting alone."""
    inst = generate_planted_extended(4, 6, 0.5, seed=44)
    rho = densesim.random_density_matrix(4, np.random.default_rng(45))   # couples weights
    gc.disable()
    try:
        evolve(densesim.maximally_mixed(4), inst, 1)
        evolve(rho, inst, 1)
        dual_residuals(inst, [rho])
        records = _DERIVED[inst]
        refs = [weakref.ref(record) for record in records.values()]
        assert len(refs) == 3
        del inst, records
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_layout_record_is_read_by_chained_calls_and_freed_with_the_instance(monkeypatch):
    """`densesim._sectors` keeps its record of an n while something holds it: two chained
    `evolve` calls on a live instance build one n = 9 record, whose index arrays the
    first call's input check builds, and read it from the instance's layout; once the
    instance is dropped, nothing holds the record, and it and its arrays are freed."""
    gc.collect()                                     # records that earlier tests left for the collector
    built, sectors = [], densesim._Sectors
    monkeypatch.setattr(densesim, "_Sectors", lambda **k: built.append((len(k["rank"]), len(k["blocks"])))
                        or sectors(**k))
    inst = generate_planted_restricted(9, 18, seed=46)
    rho0 = densesim.maximally_mixed(9)               # the check packs it through `dense`
    evolve(rho0, inst, 1)
    record = densesim._sectors(9)
    arrays = record.__dict__["dense"], record.__dict__["mirror"]
    evolve(rho0, inst, 100, snapshot_schedule=[100])  # resymmetrizes and unpacks through them
    assert built.count((2**9, 10)) == 1               # the weight blocks of 9 qubits
    assert densesim._sectors(9) is record is _derived(inst, channel._Layout, False).sec
    assert record.dense is arrays[0] and record.mirror is arrays[1]
    refs = [weakref.ref(record), *map(weakref.ref, arrays)]
    del inst, record, arrays
    assert all(ref() is None for ref in refs)


def test_layout_arrays_per_n_go_with_the_instance():
    """A packed layout's scale of c and S's diagonal are its own, held by no per-n cache:
    once the instance is dropped, both are freed."""
    gc.collect()
    inst = generate_planted_restricted(9, 18, seed=47)
    evolve(densesim.maximally_mixed(9), inst, 1)
    layout = _derived(inst, channel._Layout, False)
    refs = [weakref.ref(layout.scale), weakref.ref(layout.spin)]
    del inst, layout
    assert all(ref() is None for ref in refs)


@pytest.mark.parametrize("whole", [False, True], ids=["weight-blocks", "whole-space"])
def test_resymmetrize_is_the_blockwise_hermitian_part_at_unit_trace(whole):
    """Bit for bit: each block becomes (v + v^dagger) / 2, then the state is divided by
    the real trace of the result, summed by numpy over the layout's diagonal."""
    rng = np.random.default_rng(43)
    rho = densesim.random_density_matrix(3, rng)
    sec = densesim._sectors(3, whole=whole)
    weight = densesim._hamming_weights(3)
    state = rho.reshape(-1).copy() if whole else sec.pack(np.where(weight[:, None] == weight, rho, 0))
    state += 1e-8 * (rng.standard_normal(state.shape) + 1j * rng.standard_normal(state.shape))
    want = state.copy()
    views = sec.views(want)
    for v in views:
        v[...] = (v + v.conj().T) / 2
    want /= want[sec.diag].real.sum()
    assert np.array_equal(channel._resymmetrize(state, sec, 100), want)


@pytest.mark.parametrize("whole", [False, True], ids=["weight-blocks", "whole-space"])
def test_resymmetrize_projects_drift_within_tolerance_and_raises_beyond(whole):
    """A state off Hermitian, and off unit trace, by less than DRIFT_TOL comes back
    Hermitian at unit trace, block by block; drift beyond DRIFT_TOL raises."""
    rng = np.random.default_rng(5)
    rho = densesim.random_density_matrix(3, rng)
    sec = densesim._sectors(3, whole=whole)
    if whole:
        state = rho.reshape(-1)
    else:
        weight = densesim._hamming_weights(3)
        state = sec.pack(np.where(weight[:, None] == weight, rho, 0))
        state /= sum(np.trace(v).real for v in sec.views(state))
    noise = 0.02 * channel.DRIFT_TOL * (rng.standard_normal(state.shape) + 1j * rng.standard_normal(state.shape))
    out = channel._resymmetrize(state + noise, sec, 100)
    views = sec.views(out)
    assert max(np.max(np.abs(v - v.conj().T)) for v in views) == 0.0
    assert abs(sum(np.trace(v).real for v in views) - 1.0) <= 1e-14
    assert np.max(np.abs(out - state)) <= channel.DRIFT_TOL
    with pytest.raises(NumericalDrift, match="^drift at step 100: hermiticity"):
        channel._resymmetrize(state + 100 * noise, sec, 100)


def test_step_channel_single_clause_degenerate_average():
    inst = singlet_instance()
    rng = np.random.default_rng(9)
    rho = densesim.random_density_matrix(2, rng)
    assert np.max(
        np.abs(apply_step_channel(rho, inst) - apply_clause_channel(rho, inst.clauses[0]))
    ) < 1e-14


def test_step_channel_fixes_planted_state():
    inst = generate_planted_extended(3, 5, 0.5, seed=32)
    rho = pure_density(inst.planted_state())
    out = apply_step_channel(rho, inst)
    assert np.max(np.abs(out - rho)) < 1e-12


def test_step_channel_is_trace_preserving_and_positive():
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        L = int(rng.integers(1, 7))
        inst = generate_planted_extended(n, L, float(rng.random()), int(rng.integers(2**31)))
        rho = densesim.random_density_matrix(n, rng)
        out = apply_step_channel(rho, inst)
        assert abs(np.trace(out).real - 1.0) <= 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-11
        assert np.linalg.eigvalsh(out)[0] >= -1e-9


def test_step_channel_spin_identities_on_restricted():
    worst_s, worst_s2 = lemma1_residuals(pairs=50, seed=11)
    assert worst_s <= 1e-10
    assert worst_s2 <= 1e-9


def test_evolve_singlet_closed_form():
    inst = singlet_instance()
    series = evolve(densesim.maximally_mixed(2), inst, 10)
    for t in range(11):
        assert abs(series.trPi0[t] - (1.0 - 0.25 ** (t + 1))) < 1e-12


def test_evolve_zero_steps():
    inst = singlet_instance()
    series = evolve(densesim.maximally_mixed(2), inst, 0)
    assert series.steps == 0 and len(series.trH) == 1
    assert abs(series.trH[0] - 0.25) < 1e-12


def test_evolve_monotone_diagnostics():
    rng = np.random.default_rng(12)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        inst = generate_planted_restricted(n, int(rng.integers(1, 5)), int(rng.integers(2**31)))
        series = evolve(densesim.random_density_matrix(n, rng), inst, 30)
        assert np.all(np.diff(series.trS2) >= -1e-9)
        assert np.all(np.diff(series.trPi0) >= -1e-9)
        assert np.all(series.trPi0 >= -1e-9) and np.all(series.trPi0 <= 1 + 1e-9)


def test_evolve_ground_weight_monotone_for_any_instance():
    rng = np.random.default_rng(13)
    for seed in range(5):
        inst = generate_planted_extended(3, 4, 0.6, seed)
        rho = densesim.random_density_matrix(3, rng)
        series = evolve(rho, inst, 20)
        assert np.all(np.diff(series.trPi0) >= -1e-9)


def test_evolve_snapshots_and_long_run_stability():
    inst = generate_planted_restricted(3, 3, seed=33)
    series = evolve(densesim.maximally_mixed(3), inst, 250, snapshot_schedule=(0, 100, 250))
    assert set(series.snapshots) == {0, 100, 250}
    final = series.snapshots[250]
    assert abs(np.trace(final).real - 1.0) < 1e-9
    assert np.max(np.abs(final - final.conj().T)) < 1e-9


@pytest.mark.parametrize("kind", ["restricted", "extended", "disguised", "no-certified"])
def test_evolve_series_match_full_eigh_oracle(kind):
    """Planted instances take the weight-block spectra, the other two the one-block path."""
    inst = {
        "restricted": lambda: generate_planted_restricted(4, 8, seed=41),
        "extended": lambda: generate_planted_extended(4, 8, 0.4, seed=42),
        "disguised": lambda: conjugate_instance(
            generate_planted_extended(4, 8, 0.4, seed=43), random_product_basis(4, 44)),
        "no-certified": lambda: generate_no_instance(3, "random_certified", c_target=0.05, seed=45),
    }[kind]()
    series = evolve(densesim.maximally_mixed(inst.n), inst, 12)
    got = np.array([series.trH, series.trS, series.trS2, series.trPi0])
    assert np.max(np.abs(got - evolve_oracle(inst, 12))) <= 1e-12


def test_evolve_basis_covariance():
    inst = generate_planted_restricted(3, 3, seed=34)
    basis = random_product_basis(3, 35)
    rotated = conjugate_instance(inst, basis)
    v = densesim.product_unitary(basis)
    rng = np.random.default_rng(36)
    rho = densesim.random_density_matrix(3, rng)
    lhs = apply_step_channel(v @ rho @ v.conj().T, rotated)
    rhs = v @ apply_step_channel(rho, inst) @ v.conj().T
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_dual_residuals_type_ii_exact_values():
    inst = Instance(n=2, clauses=(make_clause(0, 1, (0, 0, 0, 1)),))
    rho = pure_density(densesim.basis_state(2, 0b11))
    s, s2 = instance_spin_operators(inst)
    out = apply_clause_channel(rho, inst.clauses[0])
    assert abs(densesim.expectation(s, rho) - (-2.0)) < 1e-12
    assert abs(densesim.expectation(s, out) - (-1.0)) < 1e-12
    assert abs(densesim.expectation(s2, rho) - 4.0) < 1e-12
    assert abs(densesim.expectation(s2, out) - 2.0) < 1e-12
    report = dual_residuals(inst, [rho])
    assert report[0].form is ClauseForm.TYPE_II
    assert report[0].max_residual <= 1e-12


def test_dual_residuals_reduces_each_clause_and_state_once(monkeypatch):
    """`dual_residuals` reads tr[P rho] from the c of the clause update itself: one
    `_reduce` per clause and sample state, in the identity and a rotated frame."""
    calls = []
    reduce = channel._reduce
    monkeypatch.setattr(channel, "_reduce", lambda *a: calls.append(1) or reduce(*a))
    rng = np.random.default_rng(43)
    inst = generate_planted_extended(4, 6, 0.5, seed=44)
    for frame in (inst, conjugate_instance(inst, random_product_basis(4, 45))):
        states = [densesim.random_density_matrix(4, rng) for _ in range(3)]
        calls.clear()
        report = dual_residuals(frame, states)
        assert len(calls) == 6 * 3
        assert max(item.max_residual for item in report) <= 1e-9


def test_dual_residuals_mixed_instances_within_tolerance():
    for item in dual_sample(instances=10, states_per=3, seed=14):
        assert item.form in (ClauseForm.RESTRICTED_TYPE_I, ClauseForm.TYPE_II)
        assert item.max_residual <= 1e-9


def test_dual_residuals_general_clause_reports_raw_deviation():
    plus_one = make_clause(0, 1, (0, 1, 0, 1))
    inst = Instance(n=3, clauses=(plus_one,))
    rho = pure_density(densesim.basis_state(3, 0b111))
    report = dual_residuals(inst, [rho])
    assert report[0].form is ClauseForm.GENERAL_NO_ZERO_ZERO
    # S^2 drops 9 -> 4.5 while the restricted law predicts an increase
    assert report[0].residual_S2[0] > 1.0


def test_mixed_form_cumulative_bound_smoke():
    rng = np.random.default_rng(15)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        inst = generate_planted_extended(n, int(rng.integers(1, 7)), 0.5, int(rng.integers(2**31)))
        assert cumulative_excess(inst, 300) <= 1e-6


def test_series_csv_format(tmp_path):
    inst = singlet_instance()
    series = evolve(densesim.maximally_mixed(2), inst, 3)
    path = tmp_path / "series.csv"
    write_series_csv(series, path, meta={"seed": None})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# seed:")
    assert lines[1] == "t,trH,trS,trS2,trPi0"
    assert len(lines) == 2 + 4
    first = lines[2].split(",")
    assert first[0] == "0"
    assert abs(float(first[1]) - 0.25) < 1e-16


def test_evolve_series_do_not_depend_on_the_builtin_sum(monkeypatch):
    """Every series value is read from the state by numpy, not by the builtin `sum`,
    which Python 3.12 made compensated: with `channel.sum` replaced by `math.fsum`,
    205 steps, across two resymmetrizations, give the same series bit for bit. The
    planted extended instances run on weight blocks with a ground block; the
    random one, whose clauses lie on no single weight, on the whole space."""
    cases = [generate_planted_extended(n, 2 * n, 0.5, seed) for n in range(4, 8) for seed in range(6)]
    cases.append(random_instance(3, 71))
    want = [evolve(densesim.maximally_mixed(inst.n), inst, 205) for inst in cases]
    monkeypatch.setattr(channel, "sum", math.fsum, raising=False)
    for inst, ref in zip(cases, want):
        got = evolve(densesim.maximally_mixed(inst.n), inst, 205)
        for name in ("trH", "trS", "trS2", "trPi0"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), (inst.n, name)


def test_chained_calls_read_each_state_once():
    """A call started from the previous call's last snapshot reports, as its first row,
    the row the previous call reported for that state, bit for bit: every value is
    read from the state by one rule, whatever step comes next."""
    for n in range(3, 7):
        for seed in range(10):
            inst = generate_planted_extended(n, 2 * n, 0.5, seed)
            first = evolve(densesim.maximally_mixed(n), inst, 3, snapshot_schedule=[3])
            second = evolve(first.snapshots[3], inst, 3)
            assert list(second.rows())[0][1:] == list(first.rows())[3][1:], (n, seed)
