"""Benchmark of the sinkdiv library: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload cloud-2d --seed 1 --seconds 36 --trace 0

Run from the repository root. The program is imported from ``src/``. The run
starts fresh worker processes one after another until their rounds have
used up ``--seconds`` (at least ``MIN_WORKERS``). A worker draws the inputs
from the seed, makes one warm-up call, reports that it is ready, then makes
one round of the workload's operations in a closed loop, timing every call
and checking every output. Many short-lived processes, not one, because the
speed of one Python process moves by ten percent and more with its memory
layout; a median over calls from many processes averages that out.

The last line of standard output is the result; the line before it describes
the run (machine, versions, thread counts, tracing overhead, failures).
With ``--trace 0`` the result holds the end-to-end metrics. With
``--trace 1`` each worker times one round untraced, then rebinds the
library's functions to record spans (see tracing.py) for a second round,
and the result holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# One worker thread per process; only the CLI call asks for more.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

MIN_WORKERS = 3
WORKER_TIMEOUT_S = 170



def load_spec() -> dict:
    """BENCHMARK.json: the workload names and every metric's name and unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv, spec):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


class Tally:
    """Operations attempted and failed; a failure is an exception, a solve
    that did not converge, or a check that rejected an output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures: dict[str, str] = {}

    def fail(self, name: str, detail, known: bool = False):
        self.failed += 1
        self.unexpected += not known
        self.failures.setdefault(name, str(detail)[:300])


def run_round(ops, tally: Tally, tracer=None) -> dict:
    """One pass over the operations; returns each metric's call times.
    With a ``tracer``, operations made only to check the library run untraced."""
    times: dict[str, list[float]] = {}
    for op in ops:
        with tracer.paused() if tracer and op.check_only else contextlib.nullcontext():
            call_op(op, tally, times)
        for chk in op.checks:
            tally.attempted += 1
            try:
                ok, err = chk.fn()
            except Exception as exc:  # a check on a missing result fails too
                ok, err = False, f"{type(exc).__name__}: {exc}"
            if not ok:
                tally.fail(chk.name, err, known=chk.known_fault)
    return times


def call_op(op, tally: Tally, times: dict) -> None:
    for _ in range(op.repeat):
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # any library error is a failed operation
            tally.fail(op.name, f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            continue
        elapsed = time.perf_counter() - t0
        if op.metric:
            times.setdefault(op.metric, []).append(elapsed / op.per_call(result))


def worker(args) -> int:
    """One measuring process: prints ``ready`` once set up, then one JSON line."""
    import sinkdiv as sd
    import tracing
    import workloads

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        inp = workloads.build(args.workload, args.seed, workdir)
        workloads.warm_up(inp)
        print("ready", flush=True)
        ops, _ = workloads.round_ops(inp)

        tally = Tally()
        report: dict = {}
        tracer = None
        if args.trace:
            t0 = time.perf_counter()
            run_round(ops, tally)
            report["untraced_round_s"] = time.perf_counter() - t0
            sd.reset_high_water()
            tracer = tracing.Tracer()
            tracer.install(sd)
        try:
            t0 = time.perf_counter()
            times = run_round(ops, tally, tracer)
            report["round_s"] = time.perf_counter() - t0
        finally:
            if tracer:
                tracer.uninstall()

        report.update(attempted=tally.attempted, failed=tally.failed,
                      unexpected=tally.unexpected, failures=tally.failures,
                      times=times)
        if tracer:
            path = os.path.join(
                OUT, f"spans-{args.workload}-worker{args.worker}.jsonl.gz")
            tracer.write(path)
            report.update(
                layer_rounds=[tracing.round_layers(tracer.spans, 0, len(tracer.spans))],
                high_water=sd.high_water(),
                traced=sorted(f"{layer}.{name}" for layer, name, _ in tracing.targets(sd)),
                spans=len(tracer.spans), spans_file=os.path.relpath(path, ROOT),
            )
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def start_worker(args, index: int, env) -> tuple[float, dict]:
    """Run one worker to completion; returns (seconds until ready, its report)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), "--worker", str(index)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise RuntimeError(f"worker {index} exited {code} before reporting")
    return ready, json.loads(rest.strip().splitlines()[-1])


def timed_subprocess(cmd, env) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return elapsed


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if not os.path.isdir(os.path.join(SRC, "sinkdiv")):
        print(f"error: no sinkdiv sources under {SRC}", file=sys.stderr)
        return 2
    for key in BLAS_ENV:
        os.environ.setdefault(key, "1")
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    if args.worker is not None:
        return worker(args)

    import numpy as np

    import tracing
    import workloads

    env = workloads.src_env()
    if args.trace:
        for old in glob.glob(os.path.join(OUT, f"spans-{args.workload}-worker*.jsonl.gz")):
            os.remove(old)
    ready, reports = [], []
    measured = 0.0
    while (len(reports) < MIN_WORKERS
           or measured + 0.5 * measured / len(reports) < args.seconds):
        r, report = start_worker(args, len(reports), env)
        ready.append(r)
        reports.append(report)
        measured += report["round_s"] + report.get("untraced_round_s", 0.0)

    times: dict[str, list[float]] = {}
    failures: dict[str, str] = {}
    for rep in reports:
        for name, values in rep["times"].items():
            times.setdefault(name, []).extend(values)
        failures.update(rep["failures"])
    info = {
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "threads": {"library": 1, "cli": workloads.CLI_THREADS,
                    "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}},
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "workers": len(reports), "ready_s": ready,
        "round_s": [rep["round_s"] for rep in reports],
        "failures": failures,
    }
    if args.trace:
        layer_rounds = [r for rep in reports for r in rep["layer_rounds"]]
        import_s = [timed_subprocess([sys.executable, "-c", "import sinkdiv.cli"], env)
                    for _ in range(MIN_WORKERS)]
        metrics = tracing.layer_metrics(layer_rounds, {
            "engine.peak_pair_buffer_bytes": max(
                rep["high_water"]["pair_buffer_bytes"] for rep in reports),
            "engine.peak_bytes": max(rep["high_water"]["peak_bytes"] for rep in reports),
            "cli.import_s": statistics.median(import_s),
        }, set(reports[0]["traced"]))
        overhead = [rep["round_s"] - rep["untraced_round_s"] for rep in reports]
        info.update(
            tracing_overhead_s=statistics.median(overhead),
            untraced_round_s=[rep["untraced_round_s"] for rep in reports],
            layer_self_s_sum=sum(v for k, v in metrics.items() if k.endswith(".self_s")),
            counts_repeat=all(r[k] == layer_rounds[0][k] for r in layer_rounds
                              for k in tracing.EXACT_COUNTS),
            spans=sum(rep["spans"] for rep in reports),
            spans_files=[rep["spans_file"] for rep in reports],
        )
        names = spec["per_layer"]
    else:
        # nothing is rebound in an untraced run, so tracing costs it nothing
        info["tracing_overhead_s"] = 0.0
        metrics = {"setup_s": statistics.median(ready)}
        for name, values in times.items():
            metrics[name] = statistics.median(values)
        info["calls"] = {name: len(v) for name, v in times.items()}
        info["worker_medians_s"] = {name: [statistics.median(rep["times"][name])
                                           for rep in reports if rep["times"].get(name)]
                                    for name in times}
        names = spec["end_to_end"]
    print(json.dumps({"run_info": info}))
    print(json.dumps({
        "correct": all(rep["unexpected"] == 0 for rep in reports),
        "attempted": sum(rep["attempted"] for rep in reports),
        "failed": sum(rep["failed"] for rep in reports),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in names if m["name"] in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
