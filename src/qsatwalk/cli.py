"""Command-line front end: generate, evolve, sample, decide, classical, spectrum, verify, report.

Exit-code protocol: 0 success (or YES verdict), 1 NO verdict / no assignment
found and nothing else, 2 usage or input errors (every `QsatwalkError` and
every `OSError`, reported by `main` as `error: <message>`), 3 capacity
breach (a `MemoryError` too, reported the same way), 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__, channel, decision, observables, verify
from .classical import assignment_string, papadimitriou, parse_dimacs
from .errors import InvalidPromise, QsatwalkError
from .instance import (
    clause_census,
    generate_no_instance,
    generate_planted_extended,
    generate_planted_restricted,
    load_instance,
    save_instance,
    Promise,
)
from .trajectory import run_ensemble, write_ensemble_csv, write_ensemble_summary

DENSITY_QUBIT_CAP = 12
VECTOR_QUBIT_CAP = 20

def _int_at_least(low: int, what: str):
    """argparse type: an integer >= low (seeds >= 0, as numpy requires; workers >= 1)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{what} must be an integer >= {low}, got {value}")
        return value
    parse.__name__ = what   # argparse's "invalid <name> value" message
    return parse


_seed = _int_at_least(0, "seed")


def _meta(seed=None, **params) -> dict:
    return {"seed": seed, "parameters": params, "version": f"qsatwalk {__version__}"}


def _attach_promise_c(inst, c):
    if c is None:
        return inst
    from dataclasses import replace

    kind = inst.promise.kind if inst.promise is not None else "yes"
    return replace(inst, promise=Promise(kind=kind, c=float(c)))


def _promise_doc(inst):
    return None if inst.promise is None else {"kind": inst.promise.kind, "c": inst.promise.c}


def _emit(text: str, path) -> None:
    """Write text to path when one is given, then print it: a failed write prints nothing."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
            fh.write("\n")
    print(text)


def _over_capacity(n: int, cap: int, what: str) -> bool:
    """Report on stderr, for exit code 3, a register wider than the engine's cap."""
    if n <= cap:
        return False
    print(f"error: n={n} exceeds the {what} capacity of {cap} qubits", file=sys.stderr)
    return True


def cmd_generate(args) -> int:
    sampled = args.kind in ("restricted", "extended", "no-random")
    if sampled and args.seed is None:
        raise QsatwalkError("--seed is required for sampled generation")
    if args.kind == "no-random" and _over_capacity(args.n, DENSITY_QUBIT_CAP, "certification"):
        return 3   # certifying a random NO instance diagonalizes the dense 2^n x 2^n H
    if args.kind == "restricted":
        inst = generate_planted_restricted(args.n, args.L, args.seed)
    elif args.kind == "extended":
        inst = generate_planted_extended(args.n, args.L, args.typeii_fraction, args.seed)
    elif args.kind == "no-complete-pair":
        inst = generate_no_instance(args.n, "complete_pair", seed=args.seed)
    else:
        inst = generate_no_instance(
            args.n,
            "random_certified",
            c_target=args.c_target,
            seed=args.seed,
            clause_count=args.L if args.L > 0 else None,
        )
    inst = _attach_promise_c(inst, args.promise_c)
    save_instance(inst, args.output)
    echo = {
        "kind": args.kind,
        "n": inst.n,
        "L": inst.L,
        "census": clause_census(inst),
        "promise": _promise_doc(inst),
        "path": args.output,
    }
    echo.update(_meta(seed=args.seed, kind=args.kind, n=args.n, L=args.L))
    print(json.dumps(echo, indent=1))
    return 0


def cmd_evolve(args) -> int:
    inst = load_instance(args.instance)
    if _over_capacity(inst.n, DENSITY_QUBIT_CAP, "density-matrix"):
        return 3
    series = channel.evolve(np.full(2**inst.n, 2.0**-inst.n), inst, args.steps)
    meta = _meta(seed=None, instance=args.instance, steps=args.steps)
    channel.write_series_csv(series, args.output, meta=meta)
    last = list(series.rows())[-1]
    print(f"{last[0]},{last[1]:.17g},{last[2]:.17g},{last[3]:.17g},{last[4]:.17g}")
    return 0


def cmd_sample(args) -> int:
    inst = load_instance(args.instance)
    if _over_capacity(inst.n, VECTOR_QUBIT_CAP, "state-vector"):
        return 3
    stats = run_ensemble(inst, args.steps, args.trajectories, args.seed, workers=args.workers)
    meta = _meta(
        seed=args.seed,
        instance=args.instance,
        T=args.steps,
        M=args.trajectories,
        workers=args.workers,
    )
    write_ensemble_csv(stats, args.output + ".csv", meta=meta)
    write_ensemble_summary(stats, args.output + ".json", extra={"version": meta["version"]})
    print(
        json.dumps(
            {"mean_N0": stats.mean_N0, "stddev_N0": stats.stddev_N0, "M": stats.M, "T": stats.T}
        )
    )
    return 0


def cmd_decide(args) -> int:
    inst = load_instance(args.instance)
    if _over_capacity(inst.n, VECTOR_QUBIT_CAP, "state-vector"):
        return 3
    if inst.promise is None or inst.promise.c is None:
        raise InvalidPromise("the decision procedure needs a promise gap c on the instance")
    variant = decision.Variant(args.variant)
    params = decision.decision_params(inst.promise.c, inst.L, inst.n, variant)
    verdict = decision.decide(inst, params, args.seed)
    _emit(decision.verdict_to_json(verdict), args.output)
    return 0 if verdict.decision == "YES" else 1


def cmd_classical(args) -> int:
    with open(args.cnf) as fh:
        inst = parse_dimacs(fh.read())
    result = papadimitriou(inst, args.budget, args.seed)
    if result is None:
        print("UNSAT-NOT-FOUND")
        return 1
    print(assignment_string(result))
    return 0


def cmd_spectrum(args) -> int:
    inst = load_instance(args.instance)
    if _over_capacity(inst.n, DENSITY_QUBIT_CAP, "operator"):
        return 3
    h = observables.build_hamiltonian(inst)
    data = observables.spectral_data(h)
    print("eigenvalue")
    for v in data.eigenvalues:
        print(f"{v:.12g}")
    print(f"min_eigenvalue {data.min_eigenvalue:.12g}")
    print(f"epsilon {data.epsilon:.12g}")
    print(f"ground_degeneracy {data.ground_degeneracy}")
    return 0


def cmd_verify(args) -> int:
    suites = args.suite or ["all"]
    results = verify.run_suites(suites, instance_paths=args.instances)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "ok  " if r.passed else "FAIL"
        detail = f"  {r.detail}" if r.detail else ""
        print(f"{status} {r.suite}:{r.name}{detail}")
    if failed:
        first = failed[0]
        print(f"verification failed: {first.suite}:{first.name}", file=sys.stderr)
        return 4
    return 0


def cmd_report(args) -> int:
    inst = load_instance(args.instance)
    doc = {
        "n": inst.n,
        "L": inst.L,
        "census": clause_census(inst),
        "promise": _promise_doc(inst),
        "planted_basis": inst.planted_basis is not None,
    }
    if inst.n <= DENSITY_QUBIT_CAP:
        data = observables.spectral_data(observables.build_hamiltonian(inst))
        doc["spectrum"] = {
            "min_eigenvalue": data.min_eigenvalue,
            "epsilon": data.epsilon,
            "ground_degeneracy": data.ground_degeneracy,
        }
    if inst.promise is not None and inst.promise.c is not None:
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            doc["decision_params"] = {
                variant.value: {
                    "f": p.f,
                    "T": p.T,
                    "N": p.N,
                    "N_int": p.N_int,
                    "p_worst": p.p_worst,
                    "q_worst": p.q_worst,
                }
                for variant in decision.Variant
                for p in [decision.decision_params(inst.promise.c, inst.L, inst.n, variant)]
            }
    doc.update(_meta(seed=None, instance=args.instance))
    _emit(json.dumps(doc, indent=1), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsatwalk",
        description="Measurement-walk simulator and decider for quantum 2-SAT",
    )
    parser.add_argument("--version", action="version", version=f"qsatwalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate an instance file")
    p.add_argument("--kind", required=True,
                   choices=["restricted", "extended", "no-complete-pair", "no-random"])
    p.add_argument("-n", type=int, required=True, help="qubit count")
    p.add_argument("-L", type=int, default=0, help="clause count")
    p.add_argument("--typeii-fraction", type=float, default=0.5)
    p.add_argument("--c-target", type=float, default=0.05)
    p.add_argument("--promise-c", type=float, default=None,
                   help="attach a promise gap to the generated instance")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evolve", help="exact channel evolution from the maximally mixed state")
    p.add_argument("instance")
    p.add_argument("-T", "--steps", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("sample", help="run a seeded trajectory ensemble")
    p.add_argument("instance")
    p.add_argument("-T", "--steps", type=int, required=True)
    p.add_argument("-M", "--trajectories", type=int, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--workers", type=_int_at_least(1, "workers"), default=1)
    p.add_argument("-o", "--output", required=True, help="basename for .csv and .json outputs")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("decide", help="run the decision procedure (exit 0 YES, 1 NO)")
    p.add_argument("instance")
    p.add_argument("--variant", choices=["restricted", "extended"], default="restricted")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("classical", help="random-walk baseline on a DIMACS 2-CNF file")
    p.add_argument("cnf")
    p.add_argument("-b", "--budget", type=float, default=10.0,
                   help="iteration budget multiplier (b * n^2 flips)")
    p.add_argument("--seed", type=_seed, required=True)
    p.set_defaults(func=cmd_classical)

    p = sub.add_parser("spectrum", help="eigenvalue table of the instance Hamiltonian")
    p.add_argument("instance")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="run self-check suites (exit 4 on failure)")
    p.add_argument("--suite", action="append",
                   choices=["all", *verify.SUITE_NAMES], default=None)
    p.add_argument("instances", nargs="*", default=[],
                   help="extra instance files to validate")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="summary report for an instance file")
    p.add_argument("instance")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QsatwalkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:      # numpy names the allocation it could not make
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
