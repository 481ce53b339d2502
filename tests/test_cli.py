import json

import numpy as np
import pytest

from qsatwalk import cli
from qsatwalk.instance import (
    Instance,
    Promise,
    generate_no_instance,
    generate_planted_restricted,
    load_instance,
    make_clause,
    save_instance,
)

SINGLET = (0, 1 / np.sqrt(2), -1 / np.sqrt(2), 0)


def write_singlet(path):
    inst = Instance(n=2, clauses=(make_clause(0, 1, SINGLET),))
    save_instance(inst, path)
    return path


def test_generate_restricted_file(tmp_path, capsys):
    out = tmp_path / "a.json"
    code = cli.main(
        ["generate", "--kind", "restricted", "-n", "4", "-L", "6", "--seed", "1", "-o", str(out)]
    )
    assert code == 0
    echo = json.loads(capsys.readouterr().out)
    assert echo["census"] == {"restricted-type-i": 6}
    inst = load_instance(out)
    assert inst.n == 4 and inst.L == 6


def test_generate_extended_file(tmp_path, capsys):
    out = tmp_path / "e.json"
    argv = ["generate", "--kind", "extended", "-n", "4", "-L", "8", "--typeii-fraction", "1", "--seed", "2",
            "-o", str(out)]
    assert cli.main(argv) == 0
    echo = json.loads(capsys.readouterr().out)
    assert echo["kind"] == "extended" and echo["census"] == {"type-ii": 8}
    inst = load_instance(out)
    assert inst.n == 4 and inst.L == 8 and inst.promise.kind == "yes"


def test_generate_no_random_with_the_default_clause_count(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert cli.main(["generate", "--kind", "no-random", "-n", "3", "--seed", "5", "-o", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["L"] == 8
    inst = load_instance(out)
    assert inst.n == 3 and inst.L == 8 and inst.promise.kind == "no"


def test_generate_no_complete_pair(tmp_path, capsys):
    out = tmp_path / "b.json"
    code = cli.main(["generate", "--kind", "no-complete-pair", "-n", "2", "-o", str(out)])
    assert code == 0
    inst = load_instance(out)
    assert inst.promise.kind == "no" and inst.promise.c == 1.0


def test_generate_no_complete_pair_at_sampling_cap(tmp_path, capsys):
    out = tmp_path / "wide.json"
    assert cli.main(["generate", "--kind", "no-complete-pair", "-n", "20", "-o", str(out)]) == 0
    inst = load_instance(out)
    assert inst.n == 20 and inst.L == 4
    assert inst.promise.kind == "no" and inst.promise.c == 1.0


def test_generate_no_random_capacity_rule(tmp_path, capsys):
    out = tmp_path / "wide.json"
    argv = ["generate", "--kind", "no-random", "-n", "20", "--seed", "1", "-o", str(out)]
    assert cli.main(argv) == 3
    assert "12 qubits" in capsys.readouterr().err
    assert not out.exists()


def test_generate_rejects_single_qubit(tmp_path, capsys):
    out = tmp_path / "c.json"
    code = cli.main(
        ["generate", "--kind", "restricted", "-n", "1", "-L", "1", "--seed", "0", "-o", str(out)]
    )
    assert code == 2


def test_generate_requires_seed_for_sampled_kinds(tmp_path, capsys):
    out = tmp_path / "d.json"
    code = cli.main(["generate", "--kind", "restricted", "-n", "3", "-L", "2", "-o", str(out)])
    assert code == 2


def test_evolve_singlet_closed_form(tmp_path, capsys):
    inst_path = write_singlet(tmp_path / "singlet.json")
    out = tmp_path / "series.csv"
    code = cli.main(["evolve", str(inst_path), "-T", "5", "-o", str(out)])
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "t,trH,trS,trS2,trPi0"
    assert len(lines) == 7
    for row in lines[1:]:
        cols = row.split(",")
        t = int(cols[0])
        assert abs(float(cols[4]) - (1 - 0.25 ** (t + 1))) < 1e-12
    echoed = capsys.readouterr().out.strip()
    assert echoed == lines[-1]


def test_evolve_zero_steps(tmp_path, capsys):
    inst_path = write_singlet(tmp_path / "singlet.json")
    out = tmp_path / "series.csv"
    assert cli.main(["evolve", str(inst_path), "-T", "0", "-o", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 2


@pytest.mark.parametrize(
    "command, n, cap",
    [
        (["evolve", "-T", "1", "-o", "series.csv"], 13, "12 qubits"),
        (["sample", "-T", "1", "-M", "1", "--seed", "0", "-o", "run"], 21, "20 qubits"),
        (["decide", "--seed", "0"], 21, "20 qubits"),
        (["spectrum"], 13, "operator capacity of 12 qubits"),
    ],
    ids=["evolve", "sample", "decide", "spectrum"],
)
def test_evolve_capacity_rule(tmp_path, capsys, monkeypatch, command, n, cap):
    monkeypatch.chdir(tmp_path)
    save_instance(generate_planted_restricted(n, 1, seed=1), tmp_path / "big.json")
    assert cli.main([command[0], "big.json", *command[1:]]) == 3
    assert cap in capsys.readouterr().err


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects a malformed argument by exiting
        return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "no.json", "-T", "5", "-M", "0", "--seed", "0", "-o", "run"],
        ["sample", "no.json", "-T", "-2", "-M", "1", "--seed", "0", "-o", "run"],
        ["evolve", "no.json", "-T", "-2", "-o", "series.csv"],
        ["sample", "no.json", "-T", "5", "-M", "1", "--seed", "-1", "-o", "run"],
        ["sample", "no.json", "-T", "5", "-M", "1", "--seed", "0", "--workers", "0", "-o", "run"],
        ["sample", "no.json", "-T", "5", "-M", "1", "--seed", "0", "--workers", "-1", "-o", "run"],
        ["decide", "no.json", "--seed", "-1"],
        ["classical", "sat.cnf", "--seed", "-1"],
        ["classical", "sat.cnf", "-b", "nan", "--seed", "0"],
        ["classical", "sat.cnf", "-b", "inf", "--seed", "0"],
        ["classical", "sat.cnf", "-b", "1e400", "--seed", "0"],
        ["generate", "--kind", "restricted", "-n", "3", "-L", "2", "--seed", "-1", "-o", "g.json"],
        ["generate", "--kind", "no-complete-pair", "-n", "2", "--promise-c", "nan", "-o", "g.json"],
        ["generate", "--kind", "restricted", "-n", "3", "-L", "2", "--seed", "0", "--promise-c", "-1",
         "-o", "g.json"],
        ["classical", "bad.cnf", "--seed", "0"],
        ["decide", "no.json", "--seed", "0", "-o", "."],
        ["report", "no.json", "-o", "."],
        ["evolve", "no.json", "-T", "1", "-o", "."],
        ["classical", ".", "--seed", "0"],
    ],
    ids=["sample-M0", "sample-T-2", "evolve-T-2", "sample-seed-1", "sample-workers0",
         "sample-workers-1", "decide-seed-1",
         "classical-seed-1", "classical-b-nan", "classical-b-inf", "classical-b-1e400",
         "generate-seed-1", "generate-promise-c-nan", "generate-promise-c-1",
         "classical-problem-line", "decide-output-directory", "report-output-directory",
         "evolve-output-directory",
         "classical-directory"],
)
def test_usage_errors_exit_2(tmp_path, capsys, monkeypatch, argv):
    # exit 1 means NO / no assignment found, so a usage error must not produce it
    monkeypatch.chdir(tmp_path)
    save_instance(generate_no_instance(2, "complete_pair"), tmp_path / "no.json")
    (tmp_path / "sat.cnf").write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    (tmp_path / "bad.cnf").write_text("p cnf x 1\n1 2 0\n")
    assert _exit_code(argv) == 2
    out, err = capsys.readouterr()
    assert "error" in err
    assert out == ""        # nothing, not even a verdict, when the command fails
    assert not (tmp_path / "run.csv").exists() and not (tmp_path / "g.json").exists()


def test_decide_exit_codes(tmp_path, capsys):
    no_path = tmp_path / "no.json"
    save_instance(generate_no_instance(2, "complete_pair"), no_path)
    codes = {cli.main(["decide", str(no_path), "--seed", str(s)]) for s in range(5)}
    assert codes == {1}

    from dataclasses import replace

    yes = generate_planted_restricted(2, 4, seed=9)
    yes = replace(yes, promise=Promise(kind="yes", c=1.0))
    yes_path = tmp_path / "yes.json"
    save_instance(yes, yes_path)
    assert cli.main(["decide", str(yes_path), "--seed", "0"]) == 0
    capsys.readouterr()
    assert cli.main(["decide", str(yes_path), "--seed", "1", "-o", str(tmp_path / "v.json")]) == 0
    verdict = json.loads((tmp_path / "v.json").read_text())
    assert json.loads(capsys.readouterr().out) == verdict       # printed as written
    assert verdict["decision"] == "YES"
    assert verdict["T"] == 1568 and verdict["N_int"] == 1350


def test_decide_requires_promise(tmp_path, capsys):
    path = write_singlet(tmp_path / "nopromise.json")
    assert cli.main(["decide", str(path), "--seed", "0"]) == 2


def test_tiny_promise_gap_exits_2(tmp_path, capsys):
    """A gap whose budget overflows a float is an input error (2), not a NO verdict (1)."""
    path = tmp_path / "tiny.json"
    assert cli.main(["generate", "--kind", "restricted", "-n", "2", "-L", "4", "--seed", "1",
                     "--promise-c", "1e-300", "-o", str(path)]) == 0
    capsys.readouterr()
    for argv in (["decide", str(path), "--seed", "0"], ["report", str(path)]):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: promise gap c=1e-300 is too small")


def test_memory_error_exits_3(tmp_path, capsys, monkeypatch):
    """Running out of memory is a capacity breach (3), reported as `error: <message>`."""
    def exhausted(args):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli, "cmd_evolve", exhausted)
    path = write_singlet(tmp_path / "s.json")
    assert cli.main(["evolve", str(path), "-T", "1000000000000", "-o", str(tmp_path / "run.csv")]) == 3
    assert capsys.readouterr().err == "error: Unable to allocate 7.28 TiB\n"


def test_classical_finds_assignment(tmp_path, capsys):
    cnf = tmp_path / "sat.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    code = cli.main(["classical", str(cnf), "-b", "10", "--seed", "4"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert set(out) <= {"0", "1"} and len(out) == 2
    assert out[1] == "1"  # x2 must be true


def test_classical_unsat_token(tmp_path, capsys):
    cnf = tmp_path / "unsat.cnf"
    cnf.write_text("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n")
    code = cli.main(["classical", str(cnf), "-b", "5", "--seed", "4"])
    assert code == 1
    assert capsys.readouterr().out.strip() == "UNSAT-NOT-FOUND"


def test_spectrum_output(tmp_path, capsys):
    path = write_singlet(tmp_path / "singlet.json")
    assert cli.main(["spectrum", str(path)]) == 0
    out = capsys.readouterr().out
    assert "epsilon 1" in out
    assert "ground_degeneracy 3" in out


def test_sample_outputs_and_worker_invariance(tmp_path, capsys):
    path = write_singlet(tmp_path / "singlet.json")
    base1 = tmp_path / "run1"
    base2 = tmp_path / "run2"
    args = ["sample", str(path), "-T", "10", "-M", "400", "--seed", "21"]
    assert cli.main(args + ["--workers", "1", "-o", str(base1)]) == 0
    assert cli.main(args + ["--workers", "3", "-o", str(base2)]) == 0
    csv1 = (tmp_path / "run1.csv").read_text()
    csv2 = (tmp_path / "run2.csv").read_text()
    assert [l for l in csv1.splitlines() if not l.startswith("#")] == [
        l for l in csv2.splitlines() if not l.startswith("#")
    ]
    doc1 = json.loads((tmp_path / "run1.json").read_text())
    doc2 = json.loads((tmp_path / "run2.json").read_text())
    assert doc1["mean_N0"] == doc2["mean_N0"]
    assert doc1["master_seed"] == 21
    assert {"M", "T", "mean_N0", "stddev_N0", "master_seed"} <= set(doc1)


def test_evolve_rerun_is_bit_identical(tmp_path, capsys):
    path = write_singlet(tmp_path / "singlet.json")
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert cli.main(["evolve", str(path), "-T", "20", "-o", str(out1)]) == 0
    assert cli.main(["evolve", str(path), "-T", "20", "-o", str(out2)]) == 0
    body1 = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
    body2 = [l for l in out2.read_text().splitlines() if not l.startswith("#")]
    assert body1 == body2


def test_verify_bundled_fixtures_pass(capsys):
    assert cli.main(["verify", "--suite", "fixtures"]) == 0
    out = capsys.readouterr().out
    assert "instance-valid" in out


def test_verify_suite_selector(capsys):
    assert cli.main(["verify", "--suite", "lemma1"]) == 0
    out = capsys.readouterr().out
    assert "lemma1:spin-invariance" in out
    assert "dual:" not in out


def test_verify_runs_every_check(capsys):
    assert cli.main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("ok   ") for line in lines)
    assert {line.split()[1] for line in lines} == {
        "fixtures:instance-valid",
        "lemma1:spin-invariance",
        "lemma1:spin-squared-increment",
        "dual:clause-drift-identities",
        "bound:cumulative-energy-bound",
        "trajectory:channel-match-restricted",
        "trajectory:channel-match-extended",
    }


def test_run_suites_rejects_unknown_names():
    from qsatwalk import verify
    from qsatwalk.errors import QsatwalkError

    with pytest.raises(QsatwalkError, match=r"^unknown verify suite\(s\): \['lemma2'\]$"):
        verify.run_suites(["lemma1", "lemma2"])


def test_verify_flags_corrupted_normalization(tmp_path, capsys):
    bad = {
        "n": 2,
        "clauses": [{"i": 0, "j": 1, "amps": [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code = cli.main(["verify", "--suite", "fixtures", str(path)])
    assert code == 4
    captured = capsys.readouterr()
    assert "instance-normalization" in captured.out
    assert "instance-normalization" in captured.err


def test_verify_flags_a_missing_instance_file(tmp_path, capsys):
    code = cli.main(["verify", "--suite", "fixtures", str(tmp_path / "missing.json")])
    assert code == 4
    assert "FAIL fixtures:instance-read" in capsys.readouterr().out


def _fake_gaps(inst, T, M, seed):
    """`channel_match` with every gap met but a NaN at t = 15 in the zero frequency,
    and in the S mean a NaN at t = 10 before a positive gap at t = 20."""
    gaps = {name: -np.ones(T) for name in ("zero-frequency", "H mean", "S mean", "S2 mean")}
    gaps["zero-frequency"][15] = np.nan
    gaps["S mean"][[10, 20]] = np.nan, 1.0
    return gaps


def _fake_dual_sample(instances, states_per, seed):
    """`dual_sample` with three lawful clauses, the middle one's S^2 residual NaN."""
    from qsatwalk.channel import ClauseResiduals
    from qsatwalk.instance import ClauseForm

    tiny = np.full(states_per, 1e-12)
    return [ClauseResiduals(index=k, form=ClauseForm.RESTRICTED_TYPE_I, residual_S=tiny,
                            residual_S2=np.array([0.0, np.nan, 0.0]) if k == 1 else tiny) for k in range(3)]


def _nan_in_the_middle(values):
    """A stand-in for a function that returns each of `values` in turn."""
    values = iter(values)
    return lambda *args, **kwargs: next(values)


@pytest.mark.parametrize("suite, name, patch, detail", [
    ("trajectory", "channel-match-restricted", ("channel_match", _fake_gaps),
     "zero-frequency off at t=15; S mean off at t=10"),
    ("dual", "clause-drift-identities", ("dual_sample", _fake_dual_sample), "3 clauses, max residual nan"),
    ("bound", "cumulative-energy-bound", ("cumulative_excess", _nan_in_the_middle([-1.0, -1.0, np.nan, -1.0, -1.0])),
     "max excess over 5n^2: nan"),
], ids=["trajectory", "dual", "bound"])
def test_verify_fails_on_a_nan_in_the_middle(monkeypatch, capsys, suite, name, patch, detail):
    """A NaN among finite deviations fails its suite: each threshold is met only by a
    number, every maximum keeps a NaN, and the trajectory suite names each failing
    quantity at its first failing t."""
    from qsatwalk import verify

    monkeypatch.setattr(verify, *patch)
    assert cli.main(["verify", "--suite", suite]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert f"FAIL {suite}:{name}  {detail}" in lines


def test_lemma1_and_clause_residuals_keep_a_nan_in_the_middle(monkeypatch):
    """`lemma1_residuals` and `ClauseResiduals.max_residual` return NaN when a NaN comes
    after a finite value, where the builtin max would return the finite one."""
    from qsatwalk import densesim, verify
    from qsatwalk.channel import ClauseResiduals
    from qsatwalk.instance import ClauseForm

    residuals = ClauseResiduals(index=0, form=ClauseForm.TYPE_II, residual_S=np.zeros(3),
                                residual_S2=np.array([0.0, np.nan, 0.0]))
    assert np.isnan(residuals.max_residual)
    expectation, calls = densesim.expectation, []

    def nan_in_the_second_pair(a, state):
        calls.append(None)
        return np.nan if len(calls) == 6 else expectation(a, state)   # five reads per pair

    monkeypatch.setattr(densesim, "expectation", nan_in_the_second_pair)
    worst_s, worst_s2 = verify.lemma1_residuals(pairs=3, seed=1)
    assert len(calls) == 15 and np.isnan(worst_s) and worst_s2 <= 1e-9


@pytest.mark.parametrize("argv, code, stream, line", [
    (["decide", "nan.json", "--seed", "0"], 2, "err", "error: amplitude vector has squared norm nan"),
    (["spectrum", "nan.json"], 2, "err", "error: amplitude vector has squared norm nan"),
    (["verify", "--suite", "fixtures", "nan.json"], 4, "out", "FAIL fixtures:instance-normalization"),
], ids=["decide", "spectrum", "verify"])
def test_nan_amplitude_file_is_rejected(tmp_path, capsys, monkeypatch, argv, code, stream, line):
    """A NaN amplitude in a file that promises NO fails the clause normalization check."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nan.json").write_text(
        '{"n": 2, "clauses": [{"i": 0, "j": 1, "amps": [[NaN, 0], [0, 0], [0, 0], [1, 0]]}],'
        ' "promise": {"kind": "no", "c": 1.0}}')
    assert cli.main(argv) == code
    assert getattr(capsys.readouterr(), stream).startswith(line)


def test_report_contents(tmp_path, capsys):
    path = tmp_path / "no.json"
    save_instance(generate_no_instance(2, "complete_pair"), path)
    assert cli.main(["report", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 2 and doc["L"] == 4
    assert doc["spectrum"]["ground_degeneracy"] == 0
    assert doc["decision_params"]["restricted"]["T"] == 1568


def test_entry_point_runs():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "qsatwalk.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "qsatwalk" in proc.stdout


def test_import_leaves_process_pool_unloaded():
    """`import qsatwalk` leaves the process pool unloaded: it loads on first use."""
    import subprocess
    import sys

    code = ("import sys, qsatwalk; "
            "print([m for m in ('concurrent.futures.process',) if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
