"""Benchmark driver: set-up, timed loop, checks, traced run, and the result line.

One process, pinned to one core, runs one workload as a closed loop with
one client: each batch starts when the previous one has returned, and BLAS
runs on one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up time is the median over several fresh interpreters, each timed from
its start until it has imported qsatwalk, loaded the workload's files and
made one zero-step engine call. The throughput is the median of the batch
rates. Both are calibrated for the host's speed with the reference kernels
in calibrate.py; the raw figures are printed next to them. Outputs are
checked after the timed loop. With --trace 1 the loop runs a second time
with spans on (their cost is reported as trace.slowdown), then the
per-layer probes run; the last line then carries the per-layer metrics
instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when every operation
passed its check and 1 otherwise. A fuller record, with the environment and
(when traced) every span, is written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from probes import Probes
from spans import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the timed loop; at least one batch always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small sizes and two set-ups, for the benchmark's own tests")
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def git_commit() -> str:
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: v for k, v in sorted(os.environ.items())
                         if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def setup_once(args, workdir: Path, tracer: Tracer, run_id: str) -> float:
    """Seconds from spawning a fresh interpreter until it is ready for its first step."""
    cmd = [sys.executable, str(BENCH / "setup_child.py"), args.workload, str(workdir),
           str(args.seed), str(int(args.tiny)), str(args.trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    tracer.adopt(doc["spans"], run_id)
    return doc["ready"] - start


def timed_loop(wl, seconds: float, tracer: Tracer, label: str) -> tuple[list, int]:
    """Run batches until `seconds` have passed.

    Returns ([(raw batch rate, host speed factor)], ops lost to errors). The
    factor is the mean time of the workload's reference kernel, run just
    before and just after the batch, over its nominal time.
    """
    ref = wl.reference
    samples = []
    with tracer.run(f"{label}:reference"), tracer.span("bench.reference"):
        before = ref.time()
    end = time.perf_counter() + seconds
    while True:
        with tracer.run(f"{label}:{wl.batches}"), tracer.span("bench.batch"):
            try:
                work, elapsed = wl.batch(tracer)
            except Exception:  # the loop records a raising batch as failed work
                wl.errors.append(traceback.format_exc(limit=3))
                return samples, wl.batch_ops()
        wl.batches += 1
        with tracer.run(f"{label}:reference"), tracer.span("bench.reference"):
            after = ref.time()
        samples.append((work / elapsed, (before + after) / 2 / ref.nominal_s))
        before = after
        if time.perf_counter() >= end:
            return samples, 0


def calibrated_rate(samples) -> float:
    return float(np.median([rate * factor for rate, factor in samples])) if samples else 0.0


def print_table(title: str, table: dict) -> None:
    print(f"# {title}: span self time and counts")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"#   {name:34s} spans {row['spans']:6d}  calls {row['calls']:8d}  "
              f"total {row['total_s']:10.4f} s  self {row['self_s']:10.4f} s")


def run(args, workdir: Path) -> int:
    env = environment(args)
    print(f"# qsatwalk benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("# environment " + json.dumps(env, sort_keys=True))

    tracer = Tracer(enabled=bool(args.trace))
    wl = WORKLOADS[args.workload](workdir, args.seed, args.tiny)
    wl.make_inputs()

    attempted = failed = 0
    setups = []   # (raw seconds, host speed factor)
    ref = wl.setup_reference
    for k in range(2 if args.tiny else SETUP_REPEATS):
        run_id = f"setup:{k}"
        before = ref.time()
        with tracer.run(run_id), tracer.span("bench.setup"):
            try:
                raw = setup_once(args, workdir, tracer, run_id)
            except (RuntimeError, ValueError, KeyError, IndexError,
                    subprocess.TimeoutExpired) as exc:
                wl.errors.append(str(exc))
                attempted += 1
                failed += 1
                continue
        setups.append((raw, (before + ref.time()) / 2 / ref.nominal_s))

    wl.prepare()
    samples, lost = timed_loop(wl, args.seconds, Tracer(enabled=False), "loop")
    throughput = calibrated_rate(samples)
    factor = float(np.median([f for _, f in samples])) if samples else 1.0
    op_rates = wl.op_rates(throughput, factor) if samples else {}
    attempted += lost
    failed += lost

    layer: dict[str, tuple[float, str]] = {}
    notes: list[str] = []
    if args.trace:
        traced, lost = timed_loop(wl, args.seconds, tracer, "traced")
        attempted += lost
        failed += lost
        loop_table = tracer.self_times("traced")
        batch = loop_table.get("bench.batch", {"self_s": 0.0, "total_s": 1.0})
        layer["trace.slowdown"] = (throughput / calibrated_rate(traced) if traced else 0.0, "ratio")
        layer["trace.bench_self_share"] = (batch["self_s"] / batch["total_s"], "ratio")
        probes = Probes(tracer, args.tiny, child_env(), ROOT)
        layer.update(probes.run(wl))
        attempted += probes.attempted
        failed += probes.failed
        notes += probes.notes
        load = tracer.per_call("instance.load", "setup")
        layer["instance.load_s"] = (float(np.median(load)) if load else 0.0, "s")

    try:
        checked, bad = wl.check()
    except Exception:  # a check that cannot run fails every operation it covers
        wl.errors.append(traceback.format_exc(limit=3))
        checked = bad = max(1, wl.batches * wl.batch_ops())
    attempted += checked
    failed += bad
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = float(np.median([raw / f for raw, f in setups])) if setups else 0.0

    e2e = {
        "setup_s": (setup_s, "s"),
        "throughput": (throughput, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    uncalibrated = {
        "setup_s_raw": (float(np.median([r for r, _ in setups])) if setups else 0.0, "s"),
        "throughput_raw": (float(np.median([r for r, _ in samples])) if samples else 0.0, "1/s"),
        "host_speed_factor": (factor, "ratio"),
    }
    shown = {**{k: (v, "1/s") for k, v in op_rates.items()}, **e2e, **uncalibrated,
             "error_rate": (failed / attempted if attempted else 1.0, "ratio")}
    print(f"# set-up runs {len(setups)}, timed batches {len(samples)}, "
          f"{failed} of {attempted} operations failed")
    for name, (value, unit) in shown.items():
        print(f"metric {name} {value:.6g} {unit}")
    if args.trace:
        print(f"# {len(tracer.spans)} spans recorded")
        print_table("set-up", tracer.self_times("setup"))
        print_table("traced loop", tracer.self_times("traced"))
        print_table("probes", tracer.self_times("probe"))
        for name, (value, unit) in sorted(layer.items()):
            print(f"layer {name} {value:.6g} {unit}")
    for line in notes + wl.errors:
        print("# " + line.replace("\n", "\n# "))

    reported = layer if args.trace else e2e
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    record = {"environment": env, "result": result,
              "shown": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
              "batches": [{"rate": r, "host_speed_factor": f} for r, f in samples],
              "setups": [{"seconds": r, "host_speed_factor": f} for r, f in setups],
              "errors": wl.errors, "notes": notes}
    if args.trace:
        record["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        record["spans"] = tracer.dump()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
