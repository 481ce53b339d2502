"""Per-layer probes for the traced run: each layer's public functions on a fixed grid.

Every call is wrapped in a span; the per-layer metrics are reduced from the
spans of the probe phase alone, so they mean the same thing in the traced
run of every workload. Grid instances use fixed seeds. Only the CLI probe
depends on the workload: it runs the workload's own subcommand.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np

from qsatwalk import channel, classical, decision, densesim, instance, observables, trajectory
from workloads import CHAIN_B, REF_C, REF_L, REF_N, dimacs_text, equality_chain

TAIL_BEYOND = 10     # a tail percentile needs at least this many samples above it
CLI_REPEATS = 3


def median(values) -> float:
    return float(np.median(values))


def tail_percentile(values) -> tuple[float, float]:
    """(q, value) for the highest of p50..p99.9 with TAIL_BEYOND samples above it."""
    n = len(values)
    q = 50.0
    for cand in (75.0, 90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - cand / 100.0) >= TAIL_BEYOND:
            q = cand
    return q, float(np.percentile(values, q))


class Probes:
    """Runs the probe grid under a tracer and reduces the spans to metrics."""

    def __init__(self, tracer, tiny: bool, child_env: dict, root):
        self.tr = tracer
        self.tiny = tiny
        self.env = child_env
        self.root = root
        self.metrics: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def _put(self, name, value, unit):
        self.metrics[name] = (float(value), unit)

    def _med(self, span_name, metric, unit="s"):
        self._put(metric, median(self.tr.per_call(span_name, "probe")), unit)

    def run(self, workload) -> dict:
        with self.tr.run("probe:dense"):
            self.dense_layers()
        with self.tr.run("probe:trajectory"):
            self.trajectory_layer()
        with self.tr.run("probe:decision"):
            self.decision_layer()
        with self.tr.run("probe:classical"):
            self.classical_layer()
        with self.tr.run("probe:cli"):
            self.cli_layer(workload)
        return self.metrics

    # -- densesim, observables, channel --------------------------------------

    def dense_layers(self):
        tr = self.tr
        n = 4 if self.tiny else 8
        inst = instance.generate_planted_restricted(n, 2 * n, seed=800)
        rho = densesim.maximally_mixed(n)
        for _ in range(2):
            for c in inst.clauses:
                op4 = np.outer(c.amps, c.amps.conj())
                with tr.span("densesim.kron_embed"):
                    densesim.kron_embed(op4, c.i, c.j, n)
        for _ in range(3):
            with tr.span("observables.clause_projectors"):
                [observables.clause_projector(c, n) for c in inst.clauses]
            with tr.span("observables.spin_operators"):
                observables.instance_spin_operators(inst)
            with tr.span("observables.hamiltonian"):
                h = observables.build_hamiltonian(inst)
            with tr.span("densesim.hermitian_eig"):
                densesim.hermitian_eig(h)
            with tr.span("observables.ground_projector"):
                observables.ground_space_projector(h)
            with tr.span("channel.evolve_setup"):
                channel.evolve(rho, inst, 0)
        for c in inst.clauses[:4]:
            with tr.span("channel.apply_clause_channel"):
                channel.apply_clause_channel(rho, c)
        for _ in range(2):
            with tr.span("channel.apply_step_channel"):
                channel.apply_step_channel(rho, inst)
        for name, metric in (
            ("densesim.kron_embed", "densesim.kron_embed_s"),
            ("densesim.hermitian_eig", "densesim.hermitian_eig_s"),
            ("observables.clause_projectors", "observables.clause_projectors_s"),
            ("observables.spin_operators", "observables.spin_operators_s"),
            ("observables.hamiltonian", "observables.hamiltonian_s"),
            ("observables.ground_projector", "observables.ground_projector_s"),
            ("channel.apply_clause_channel", "channel.clause_update_s"),
            ("channel.apply_step_channel", "channel.step_s"),
            ("channel.evolve_setup", "channel.evolve_setup_s"),
        ):
            self._med(name, metric)
        setup_s = self.metrics["channel.evolve_setup_s"][0]
        steps = 2
        with tr.span("channel.evolve", items=steps) as sp:
            channel.evolve(rho, inst, steps)
        self._put("channel.evolve_step_s", (sp.duration - setup_s) / steps, "s")

        # size sweep, planted restricted with L = 2n (the ROADMAP grid)
        sweep = {4: 50, 6: 20, 7: 4, 8: 2}
        if self.tiny:
            sweep = {4: 10, 6: 2, 7: 1, 8: 1}
        for n, steps in sweep.items():
            inst_n = instance.generate_planted_restricted(n, 2 * n, seed=1000 + n)
            rho_n = densesim.maximally_mixed(n)
            with tr.run(f"probe:evolve-sweep:n{n}"):
                with tr.span("channel.evolve") as zero:
                    channel.evolve(rho_n, inst_n, 0)
                with tr.span("channel.evolve", items=steps) as full:
                    channel.evolve(rho_n, inst_n, steps)
            self._put(f"channel.evolve_step_s.n{n}", (full.duration - zero.duration) / steps, "s")

    # -- trajectory ----------------------------------------------------------

    def trajectory_layer(self):
        tr = self.tr
        rng = np.random.default_rng(900)
        calls = 200 if self.tiny else 2000
        with tr.span("trajectory.haar_unitary", items=calls):
            for _ in range(calls):
                trajectory.haar_unitary(rng)
        self._med("trajectory.haar_unitary", "trajectory.haar_unitary_s")

        n = 4 if self.tiny else 8
        inst = instance.generate_planted_restricted(n, 2 * n, seed=800)
        psi = trajectory.sample_initial_state(n, rng)
        calls = 20 if self.tiny else 200
        with tr.span("trajectory.trajectory_step", items=calls):
            for _ in range(calls):
                psi, _ = trajectory.trajectory_step(psi, inst, rng)
        self._med("trajectory.trajectory_step", "trajectory.step_s")

        steps = 100 if self.tiny else 1000
        with tr.span("trajectory.run_trajectory", items=steps):
            trajectory.run_trajectory(inst, steps, 901)
        self._med("trajectory.run_trajectory", "trajectory.run_trajectory_step_s")

        T, M = 50, (4 if self.tiny else 20)
        with tr.span("trajectory.run_ensemble", items=M * T):
            trajectory.run_ensemble(inst, T, M, 902)
        self._med("trajectory.run_ensemble", "trajectory.ensemble_step_s")

        # kernel cost per step without the clause-table build: (run(T) - run(0)) / T
        sweep = {4: 2000, 8: 1000, 12: 300, 16: 100}
        if self.tiny:
            sweep = {4: 50, 8: 20, 12: 5, 16: 2}
        for n, steps in sweep.items():
            inst_n = instance.generate_planted_restricted(n, 2 * n, seed=1000 + n)
            with tr.run(f"probe:trajectory-sweep:n{n}"):
                with tr.span("trajectory.run_trajectory") as zero:
                    trajectory.run_trajectory(inst_n, 0, 903)
                with tr.span("trajectory.run_trajectory", items=steps) as full:
                    trajectory.run_trajectory(inst_n, steps, 903)
            self._put(f"trajectory.step_s.n{n}", (full.duration - zero.duration) / steps, "s")

        # operator tracking and Haar-branch share on criterion 5's restricted n=4 case
        small = instance.generate_planted_restricted(4, 5, seed=302)
        s, s2 = observables.instance_spin_operators(small)
        ops = {"H": observables.build_hamiltonian(small), "S": s, "S2": s2}
        M = 10 if self.tiny else 100
        with tr.span("trajectory.run_ensemble", items=M * T) as plain:
            a = trajectory.run_ensemble(small, T, M, 904)
        with tr.span("trajectory.run_ensemble", items=M * T) as tracked:
            b = trajectory.run_ensemble(small, T, M, 905, operators=ops)
        self._put("trajectory.observables_share",
                  (tracked.duration - plain.duration) / tracked.duration, "ratio")
        zeros = float(np.sum(a.n0) + np.sum(b.n0))
        self._put("trajectory.outcome1_rate", 1.0 - zeros / (2 * M * T), "ratio")

    # -- decision ------------------------------------------------------------

    def decision_layer(self):
        tr = self.tr
        calls = 100 if self.tiny else 1000
        with tr.span("decision.decision_params", items=calls):
            for _ in range(calls):
                params = decision.decision_params(REF_C, REF_L, REF_N)
        self._med("decision.decision_params", "decision.params_s")

        cases = (
            ("NO", instance.generate_no_instance(REF_N, "complete_pair")),
            ("YES", instance.generate_planted_restricted(REF_N, REF_L, seed=602)),
        )
        runs = 2 if self.tiny else 20
        margins = []
        for k in range(runs):
            for stream, (expected, inst) in enumerate(cases):
                with tr.span("decision.decide"):
                    v = decision.decide(inst, params, [6000 + stream, k])
                margins.append(abs(v.N0 - params.N_int))
                self.attempted += 1
                if v.decision != expected:
                    self.failed += 1
                    self.notes.append(f"decide probe: {expected} instance gave {v.decision}")
        times = self.tr.per_call("decision.decide", "probe")
        q, tail = tail_percentile(times)
        self._put("decision.decide_s.p50", median(times), "s")
        self._put("decision.decide_s.tail", tail, "s")
        self._put("decision.decide_s.count", len(times), "count")
        self._put("decision.margin_min", min(margins), "count")
        self.notes.append(f"decision.decide_s.tail is p{q:g} of {len(times)}")

    # -- classical -----------------------------------------------------------

    def classical_layer(self):
        tr = self.tr
        n = 10 if self.tiny else 50
        chain = equality_chain(n)
        text = dimacs_text(chain)
        calls = 5 if self.tiny else 50
        with tr.span("classical.parse_dimacs", items=calls):
            for _ in range(calls):
                classical.parse_dimacs(text)
        self._med("classical.parse_dimacs", "classical.parse_dimacs_s")

        walks = 4 if self.tiny else 40
        found = 0
        for k in range(walks):
            with tr.span("classical.papadimitriou"):
                a = classical.papadimitriou(chain, CHAIN_B, [8002, k])
            self.attempted += 1
            if a is not None:
                found += 1
                if not classical.check_cnf(a, chain):
                    self.failed += 1
                    self.notes.append("walk probe returned a non-satisfying assignment")
        times = self.tr.per_call("classical.papadimitriou", "probe")
        q, tail = tail_percentile(times)
        self._put("classical.walk_s.p50", median(times), "s")
        self._put("classical.walk_s.tail", tail, "s")
        self._put("classical.walk_s.count", len(times), "count")
        self._put("classical.success_rate", found / walks, "ratio")
        self.notes.append(f"classical.walk_s.tail is p{q:g} of {len(times)}")

    # -- cli -----------------------------------------------------------------

    def _python(self, args, timeout=120):
        return subprocess.run([sys.executable, *args], cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=timeout)

    def cli_layer(self, workload):
        tr = self.tr
        for _ in range(CLI_REPEATS):
            with tr.span("cli.import"):
                proc = self._python(["-c", "import qsatwalk.cli"])
            self.attempted += 1
            if proc.returncode != 0:
                self.failed += 1
                self.notes.append(f"cli import failed: {proc.stderr.strip()[-200:]}")
        self._med("cli.import", "cli.import_s")

        ok = total = 0
        for _ in range(CLI_REPEATS):
            for argv, expected, stdout_ok in workload.cli_commands():
                with tr.span("cli.run"):
                    proc = self._python(["-m", "qsatwalk.cli", *argv])
                good = (proc.returncode == expected if stdout_ok is None
                        else stdout_ok(proc.returncode, proc.stdout))
                total += 1
                ok += good
                if not good:
                    self.notes.append(f"cli {argv[0]} exited {proc.returncode}: "
                                      f"{proc.stderr.strip()[-200:]}")
        self.attempted += total
        self.failed += total - ok
        self._med("cli.run", "cli.run_s")
        self._put("cli.exit_ok", ok / total, "ratio")
