"""The four benchmark workloads: inputs, set-up, timed batches and checks.

Each workload writes its inputs from the seed before anything is timed, runs
its timed work in batches (the harness times each batch and keeps the
median rate), and checks every output afterwards, outside the timed region.
An operation that raises or fails its check counts as failed.

    evolve-n8       channel.evolve on a planted restricted n=8, L=16 instance
    ensemble-small  trajectory.run_ensemble (T=50, operators H, S, S2) on the
                    three small instances of acceptance criterion 5
    wide-state      trajectory.run_ensemble, two trajectories at a time, on a
                    planted restricted n=18, L=36 instance
    decide-ref      decision.decide at c=1, L=4, n=2 on the complete-pair NO
                    instance and criterion 6's planted YES instance, and
                    classical.papadimitriou on the equality chain and
                    criterion 8's planted 2-CNF

Each batch returns its work and the seconds its timed calls took. The
throughput unit is the channel step, the trajectory step (M*T per
ensemble), or the decision (decide-ref times its walks apart).
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

import numpy as np

from qsatwalk import channel, classical, decision, densesim, instance, observables, trajectory
import calibrate
from spans import Tracer

# Checks from the acceptance criteria.
SPIN_TOL = 1e-9      # trS conserved; trS2[t+1] - trS2[t] = 2 trH[t] / L
SIGMA_BOUND = 5.0    # ensemble means within 5 standard errors of evolve
NORM_TOL = 1e-9      # final trajectory state has unit norm
REF_C, REF_L, REF_N = 1.0, 4, 2   # decide reference point: T=1568, N_int=1350
CHAIN_B = 4.0        # criterion-8 equality chain budget multiplier
PLANTED_B = 10.0


def seed_base(seed: int) -> int:
    """Non-negative integer used as the first entropy word of every draw."""
    return seed % 2**63


def dimacs_text(cnf: classical.CnfInstance) -> str:
    lines = [f"p cnf {cnf.n} {cnf.L}"]
    for clause in cnf.clauses:
        lits = [-(v + 1) if neg else v + 1 for v, neg in clause]
        lines.append(f"{lits[0]} {lits[1]} 0")
    return "\n".join(lines) + "\n"


def equality_chain(n: int) -> classical.CnfInstance:
    """x0 forced true and x_i == x_{i+1}: the walk's quadratic regime."""
    clauses = [((0, False), (0, False))]
    for i in range(n - 1):
        clauses.append(((i, True), (i + 1, False)))
        clauses.append(((i, False), (i + 1, True)))
    return classical.CnfInstance(n=n, clauses=tuple(clauses))


def planted_cnf(n: int, L: int, seed) -> classical.CnfInstance:
    """Random 2-CNF whose clauses all hold under a hidden random assignment."""
    rng = np.random.default_rng(seed)
    hidden = rng.integers(0, 2, size=n).astype(bool)
    clauses = []
    while len(clauses) < L:
        v, w = rng.choice(n, size=2, replace=False)
        neg_v, neg_w = bool(rng.integers(2)), bool(rng.integers(2))
        if hidden[v] != neg_v or hidden[w] != neg_w:
            clauses.append(((int(v), neg_v), (int(w), neg_w)))
    return classical.CnfInstance(n=n, clauses=tuple(clauses))


class Workload:
    """Base: subclasses define inputs, set-up, one batch, and the checks."""

    name = ""
    op_names: tuple = ()     # end-to-end rate names printed for this workload
    reference = calibrate.INTERPRETER        # gauges host speed around each batch
    setup_reference = calibrate.INTERPRETER  # and around each set-up

    def __init__(self, workdir: Path, seed: int, tiny: bool):
        self.dir = Path(workdir)
        self.base = seed_base(seed)
        self.tiny = tiny
        self.batches = 0
        self.errors: list[str] = []

    def cli_commands(self) -> list:
        """(argv after `python -m qsatwalk.cli`, expected exit code, stdout check)."""
        return []

    def op_rates(self, throughput: float, factor: float) -> dict:
        """Calibrated rates under the names users know; `factor` is the loop's host speed."""
        return {self.op_names[0]: throughput}


class EvolveN8(Workload):
    name = "evolve-n8"
    op_names = ("evolve_steps_per_s",)
    reference = calibrate.BLAS

    def __init__(self, workdir, seed, tiny):
        super().__init__(workdir, seed, tiny)
        self.n = 4 if tiny else 8
        self.steps_per_batch = 2
        self.series: list = []

    def make_inputs(self):
        inst = instance.generate_planted_restricted(self.n, 2 * self.n, [self.base, 1])
        instance.save_instance(inst, self.dir / "evolve.json")

    def setup(self, tracer):
        with tracer.span("instance.load"):
            inst = instance.load_instance(self.dir / "evolve.json")
        with tracer.span("channel.evolve"):
            channel.evolve(densesim.maximally_mixed(inst.n), inst, 0)

    def prepare(self):
        self.inst = instance.load_instance(self.dir / "evolve.json")
        self.rho = densesim.maximally_mixed(self.n)

    def batch_ops(self):
        return self.steps_per_batch

    def batch(self, tracer):
        k = self.steps_per_batch
        start = time.perf_counter()
        with tracer.span("channel.evolve", items=k):
            series = channel.evolve(self.rho, self.inst, k, snapshot_schedule=(k,))
        elapsed = time.perf_counter() - start
        self.rho = series.snapshots.pop(k)   # keep only the scalar series
        self.series.append(series)
        return k, elapsed

    def check(self):
        attempted = failed = 0
        if not self.series:
            return 0, 0
        trS0 = self.series[0].trS[0]
        L = self.inst.L
        for s in self.series:
            for t in range(s.steps):
                attempted += 1
                conserved = abs(s.trS[t + 1] - trS0) <= SPIN_TOL
                increment = abs(s.trS2[t + 1] - s.trS2[t] - 2.0 * s.trH[t] / L) <= SPIN_TOL
                if not (conserved and increment):
                    failed += 1
        if failed:
            self.errors.append(f"{failed} of {attempted} steps broke the spin identities")
        return attempted, failed

    def cli_commands(self):
        return [(["evolve", str(self.dir / "evolve.json"), "-T", "1",
                  "-o", str(self.dir / "cli-series.csv")], 0, None)]


@dataclasses.dataclass
class _SmallCase:
    label: str
    file: str
    inst: object = None
    ops: dict = None
    stats: list = dataclasses.field(default_factory=list)


class EnsembleSmall(Workload):
    name = "ensemble-small"
    op_names = ("trajectory_steps_per_s",)
    T = 50

    def __init__(self, workdir, seed, tiny):
        super().__init__(workdir, seed, tiny)
        self.M = 200 if tiny else 16
        self.cases = [
            _SmallCase("restricted-n4", "restricted-n4.json"),
            _SmallCase("extended-n3", "extended-n3.json"),
            _SmallCase("no-random-n3", "no-random-n3.json"),
        ]

    def make_inputs(self):
        insts = [
            instance.generate_planted_restricted(4, 5, seed=302),
            instance.generate_planted_extended(3, 4, 0.5, seed=303),
            instance.generate_no_instance(3, "random_certified", c_target=0.05, seed=304),
        ]
        for case, inst in zip(self.cases, insts):
            instance.save_instance(inst, self.dir / case.file)

    def setup(self, tracer):
        for case in self.cases:
            with tracer.span("instance.load"):
                inst = instance.load_instance(self.dir / case.file)
            with tracer.span("trajectory.run_ensemble"):
                trajectory.run_ensemble(inst, 0, 1, self.base)

    def prepare(self):
        for case in self.cases:
            case.inst = instance.load_instance(self.dir / case.file)
            s, s2 = observables.instance_spin_operators(case.inst)
            case.ops = {"H": observables.build_hamiltonian(case.inst), "S": s, "S2": s2}

    def batch_ops(self):
        return len(self.cases)

    def batch(self, tracer):
        master = self.base * 1_000_003 + self.batches
        start = time.perf_counter()
        for case in self.cases:
            with tracer.span("trajectory.run_ensemble", items=self.M * self.T):
                case.stats.append(trajectory.run_ensemble(
                    case.inst, self.T, self.M, master, operators=case.ops))
        return len(self.cases) * self.M * self.T, time.perf_counter() - start

    def check(self):
        """Pool every batch of a case, then hold it to criterion 5's 5-sigma rule."""
        attempted = failed = 0
        for case in self.cases:
            if not case.stats:
                continue
            attempted += len(case.stats)
            ok = all(st.n0.shape == (self.M,) and np.all((st.n0 >= 0) & (st.n0 <= self.T))
                     for st in case.stats)
            M = self.M * len(case.stats)
            zeros = sum(st.zero_frequency * st.M for st in case.stats)
            series = channel.evolve(densesim.maximally_mixed(case.inst.n), case.inst, self.T)
            p = 1.0 - series.trH[: self.T] / case.inst.L
            sigma = np.sqrt(np.maximum(p * (1.0 - p), 0.0) / M)
            ok = ok and bool(np.all(np.abs(zeros / M - p) <= SIGMA_BOUND * sigma + 1e-9))
            for name, exact in (("H", series.trH), ("S", series.trS), ("S2", series.trS2)):
                total = sum(st.operator_means[name] * st.M for st in case.stats)
                total_sq = sum(st.operator_stderr[name] ** 2 * st.M * (st.M - 1)
                               + st.M * st.operator_means[name] ** 2 for st in case.stats)
                mean = total / M
                se = np.sqrt(np.maximum(total_sq - M * mean**2, 0.0) / (M - 1) / M)
                ok = ok and bool(np.all(np.abs(mean - exact) <= SIGMA_BOUND * se + 1e-9))
            if not ok:
                failed += len(case.stats)
                self.errors.append(f"{case.label}: ensemble disagrees with evolve (M={M})")
        return attempted, failed

    def cli_commands(self):
        return [(["sample", str(self.dir / "restricted-n4.json"), "-T", str(self.T),
                  "-M", "20", "--seed", str(self.base), "-o", str(self.dir / "cli-sample")],
                 0, None)]


class WideState(Workload):
    name = "wide-state"
    op_names = ("trajectory_steps_per_s",)
    reference = setup_reference = calibrate.MEMORY

    def __init__(self, workdir, seed, tiny):
        super().__init__(workdir, seed, tiny)
        self.n = 8 if tiny else 18
        self.T = 10 if tiny else 40
        self.M = 2
        self.n0: list = []

    def make_inputs(self):
        inst = instance.generate_planted_restricted(self.n, 2 * self.n, [self.base, 3])
        instance.save_instance(inst, self.dir / "wide.json")

    def setup(self, tracer):
        with tracer.span("instance.load"):
            inst = instance.load_instance(self.dir / "wide.json")
        with tracer.span("trajectory.run_ensemble"):
            trajectory.run_ensemble(inst, 0, 1, self.base)

    def prepare(self):
        self.inst = instance.load_instance(self.dir / "wide.json")

    def batch_ops(self):
        return 1

    def batch(self, tracer):
        master = self.base * 1_000_003 + self.batches
        start = time.perf_counter()
        with tracer.span("trajectory.run_ensemble", items=self.M * self.T):
            stats = trajectory.run_ensemble(self.inst, self.T, self.M, master)
        elapsed = time.perf_counter() - start
        self.n0.append(stats.n0)
        return self.M * self.T, elapsed

    def check(self):
        attempted = len(self.n0) + 1
        failed = sum(not (n0.shape == (self.M,) and np.all((n0 >= 0) & (n0 <= self.T)))
                     for n0 in self.n0)
        try:
            rec = trajectory.run_trajectory(self.inst, self.T, [self.base, 4], keep_history=True)
            norm = float(np.linalg.norm(rec.final_state))
            ok = abs(norm - 1.0) <= NORM_TOL and rec.N0 == self.T - int(np.sum(rec.outcomes))
        except Exception as exc:  # a raising engine is a failed operation, not a crash
            norm, ok = float("nan"), False
            self.errors.append(f"run_trajectory raised {exc!r}")
        failed += not ok
        if failed:
            self.errors.append(f"{failed} of {attempted} wide-state checks failed (norm {norm})")
        return attempted, failed

    def cli_commands(self):
        return [(["sample", str(self.dir / "wide.json"), "-T", "5", "-M", "1",
                  "--seed", str(self.base), "-o", str(self.dir / "cli-wide")], 0, None)]


class DecideRef(Workload):
    name = "decide-ref"
    op_names = ("decisions_per_s", "walks_per_s")

    def __init__(self, workdir, seed, tiny):
        super().__init__(workdir, seed, tiny)
        self.cnf_n = 10 if tiny else 50
        self.verdicts: list = []      # (expected, Verdict)
        self.walks: list = []         # (cnf, assignment or None)
        self.walk_s = 0.0

    def make_inputs(self):
        no = instance.generate_no_instance(REF_N, "complete_pair")
        yes = instance.generate_planted_restricted(REF_N, REF_L, seed=602)
        yes = dataclasses.replace(yes, promise=instance.Promise(kind="yes", c=REF_C))
        instance.save_instance(no, self.dir / "no.json")
        instance.save_instance(yes, self.dir / "yes.json")
        (self.dir / "chain.cnf").write_text(dimacs_text(equality_chain(self.cnf_n)))
        (self.dir / "planted.cnf").write_text(
            dimacs_text(planted_cnf(self.cnf_n, 3 * self.cnf_n, seed=424242)))

    def _load(self, tracer):
        insts = []
        for name in ("no.json", "yes.json"):
            with tracer.span("instance.load"):
                insts.append(instance.load_instance(self.dir / name))
        cnfs = []
        for name in ("chain.cnf", "planted.cnf"):
            text = (self.dir / name).read_text()
            with tracer.span("classical.parse_dimacs"):
                cnfs.append(classical.parse_dimacs(text))
        return insts, cnfs

    def setup(self, tracer):
        self._load(tracer)
        with tracer.span("decision.decision_params"):
            decision.decision_params(REF_C, REF_L, REF_N)

    def prepare(self):
        (self.no, self.yes), (self.chain, self.planted) = self._load(Tracer(enabled=False))
        self.params = decision.decision_params(REF_C, REF_L, REF_N)

    def batch_ops(self):
        return 4   # two decisions and two walks

    def batch(self, tracer):
        """One round: a decision on each instance, then a walk on each formula.

        Only the decisions count as the batch's work and time. A walk's
        duration is a random hitting time with a heavy tail (on the chain its
        standard deviation exceeds its mean), which would swamp the decision
        rate; walks are timed apart, for walks_per_s.
        """
        k = self.batches
        start = time.perf_counter()
        for expected, inst, stream in (("NO", self.no, 0), ("YES", self.yes, 1)):
            with tracer.span("decision.decide"):
                v = decision.decide(inst, self.params, [self.base, stream, k])
            self.verdicts.append((expected, v))
        elapsed = time.perf_counter() - start
        start = time.perf_counter()
        for cnf, b, stream in ((self.chain, CHAIN_B, 2), (self.planted, PLANTED_B, 3)):
            with tracer.span("classical.papadimitriou"):
                self.walks.append((cnf, classical.papadimitriou(cnf, b, [self.base, stream, k])))
        self.walk_s += time.perf_counter() - start
        return 2, elapsed

    def check(self):
        attempted = len(self.verdicts) + len(self.walks)
        wrong = sum(v.decision != expected for expected, v in self.verdicts)
        bad = sum(a is not None and not classical.check_cnf(a, cnf) for cnf, a in self.walks)
        if wrong or bad:
            self.errors.append(f"{wrong} wrong verdicts, {bad} invalid assignments")
        return attempted, wrong + bad

    def op_rates(self, throughput, factor):
        return {
            "decisions_per_s": throughput,
            "walks_per_s": len(self.walks) / self.walk_s * factor,
        }

    def cli_commands(self):
        seed = str(self.base)
        return [
            (["decide", str(self.dir / "no.json"), "--seed", seed], 1, None),
            (["decide", str(self.dir / "yes.json"), "--seed", seed], 0, None),
            (["classical", str(self.dir / "chain.cnf"), "-b", str(CHAIN_B), "--seed", seed],
             None, self.chain_stdout_ok),
        ]

    def chain_stdout_ok(self, code: int, stdout: str) -> bool:
        """Exit 0 with a satisfying assignment, or exit 1 with UNSAT-NOT-FOUND."""
        line = stdout.strip()
        if code == 1:
            return line == "UNSAT-NOT-FOUND"
        if code != 0 or len(line) != self.cnf_n or set(line) - {"0", "1"}:
            return False
        return classical.check_cnf([c == "1" for c in line], equality_chain(self.cnf_n))


WORKLOADS = {w.name: w for w in (EvolveN8, EnsembleSmall, WideState, DecideRef)}
