"""Command-line interface: divergence values, particle flows, benchmarks.

Subcommands::

    sinkdiv divergence A B --loss sinkhorn --eps 0.1 --p 2
    sinkdiv flow A B --loss sinkhorn --eps 0.1 --p 1 --out DIR
    sinkdiv bench --sizes 100,1000 --loss sinkhorn --eps 0.1

``divergence`` prints a single JSON object; ``flow`` writes frame CSVs plus
a JSON manifest; ``bench`` prints timing rows as CSV. Exit codes: 0 on
success (including non-converged solves, which are reported in the JSON),
2 for invalid inputs or files, 3 for numerical failures.

Worker threads default to the ``SINKDIV_THREADS`` environment variable,
falling back to the host CPU count; :func:`main` sets the count for the
length of one command.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from statistics import mean, pstdev

from . import engine
from .costs import MmdKernelSpec
from .errors import InvalidInput, SinkdivError, _count
from .flows import FlowConfig, run_flow, write_trajectory
from .losses import LOSSES, MMD_KINDS, _loss_spec, evaluate
from .measures import load_csv, load_json, sample_unit_square
from .solver import SolverParams


def _resolve_threads(value: int | None) -> int:
    """``--threads``, else ``SINKDIV_THREADS``, else the CPU count."""
    if value is not None:
        return value
    env = os.environ.get("SINKDIV_THREADS")
    try:
        return int(env) if env else (os.cpu_count() or 1)
    except ValueError as exc:
        raise InvalidInput(f"SINKDIV_THREADS={env!r} is not an integer") from exc


def _numbers(text: str, kind, option: str) -> list:
    """The comma-separated entries of ``option``'s ``text``, parsed by ``kind``."""
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidInput(f"{option} must list comma-separated numbers, got {text!r}") from exc


def _load_measure(path: str, fmt: str):
    if fmt == "auto":
        fmt = "json" if str(path).endswith(".json") else "csv"
    return load_json(path) if fmt == "json" else load_csv(path)


def _loss_options(args) -> dict:
    """The solver parameters or the kernel that ``args.loss`` runs on, as the
    ``params=`` or ``kernel=`` keyword of :func:`losses.evaluate`: an MMD
    loss's own kernel at bandwidth ``--sigma``, else parameters from ``--eps``."""
    if args.loss in MMD_KINDS:
        return {"kernel": replace(_loss_spec(args.loss), sigma=args.sigma)}
    if args.eps is None:
        raise InvalidInput(f"--eps is required for loss {args.loss!r}")
    return {"params": SolverParams(epsilon=args.eps, p=args.p, tol=args.tol,
                                   max_iters=args.max_iters)}


def _divergence_payload(loss: str, args, value: float, infos: dict) -> dict:
    residual = max((i["residual"] for i in infos.values()), default=None)
    converged = all(i["converged"] for i in infos.values())
    return {
        "loss": loss,
        "value": value,
        "eps": None if loss in MMD_KINDS else args.eps,
        "p": None if loss in MMD_KINDS else args.p,
        "iterations": {k: i["iterations"] for k, i in infos.items()},
        "residual": residual,
        "converged": converged,
    }


def cmd_divergence(args) -> int:
    alpha = _load_measure(args.measure_a, args.format)
    beta = _load_measure(args.measure_b, args.format)
    value, _, _, infos = evaluate(args.loss, alpha, beta, **_loss_options(args))
    payload = _divergence_payload(args.loss, args, value, infos)
    print(json.dumps(payload, separators=(", ", ": ")))
    return 0


def cmd_flow(args) -> int:
    alpha = _load_measure(args.measure_a, args.format)
    beta = _load_measure(args.measure_b, args.format)
    record = None if args.record is None else _numbers(args.record, float, "--record")
    config = FlowConfig(
        loss=args.loss, dt=args.dt, t_end=args.t_end, record_times=record,
        seed=args.seed, **_loss_options(args),
    )
    traj = run_flow(alpha, beta, config)
    manifest = write_trajectory(traj, args.out)
    print(manifest)
    return 0


def cmd_bench(args) -> int:
    sizes = _numbers(args.sizes, int, "--sizes")
    if not sizes or any(n < 1 for n in sizes):
        raise InvalidInput(f"--sizes must list positive integers, got {args.sizes!r}")
    _count("--repeats", args.repeats, 1)
    options = _loss_options(args)
    rows = ["n,loss,mean_seconds,std_seconds,peak_bytes_estimate"]
    for n in sizes:
        alpha = sample_unit_square(n, seed=args.seed)
        beta = sample_unit_square(n, seed=args.seed + 1)
        engine.reset_high_water()
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            evaluate(args.loss, alpha, beta, **options)
            times.append(time.perf_counter() - t0)
        peak = engine.high_water()["peak_bytes"]
        rows.append(
            f"{n},{args.loss},{mean(times):.6g},{pstdev(times):.6g},{peak}"
        )
    print("\n".join(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinkdiv",
        description="Transport divergences, kernel losses, and particle flows "
                    "between discrete measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_measures=True):
        if with_measures:
            p.add_argument("measure_a", help="source measure file")
            p.add_argument("measure_b", help="target measure file")
            p.add_argument("--format", choices=["auto", "csv", "json"], default="auto",
                           help="measure file format (default: by extension)")
        p.add_argument("--loss", choices=list(LOSSES), default="sinkhorn")
        p.add_argument("--eps", type=float, default=None,
                       help="blur scale for transport losses (raw cost units)")
        p.add_argument("--p", type=int, choices=[1, 2], default=SolverParams.p,
                       help="cost exponent")
        p.add_argument("--sigma", type=float, default=MmdKernelSpec.sigma,
                       help="kernel bandwidth for mmd losses")
        p.add_argument("--tol", type=float, default=SolverParams.tol)
        p.add_argument("--max-iters", type=int, default=SolverParams.max_iters)
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (default: SINKDIV_THREADS or CPU count)")

    p_div = sub.add_parser("divergence", help="print a divergence value as JSON")
    add_common(p_div)
    p_div.set_defaults(fn=cmd_divergence)

    p_flow = sub.add_parser("flow", help="integrate a particle descent flow")
    add_common(p_flow)
    p_flow.add_argument("--dt", type=float, default=FlowConfig.dt)
    p_flow.add_argument("--t-end", type=float, default=FlowConfig.t_end)
    p_flow.add_argument("--record", type=str, default=None,
                        help="comma-separated snapshot times; 0 and --t-end are "
                             "always recorded (default: standard times clipped "
                             "to --t-end)")
    p_flow.add_argument("--seed", type=int, default=None)
    p_flow.add_argument("--out", required=True, help="output directory")
    p_flow.set_defaults(fn=cmd_flow)

    p_bench = sub.add_parser("bench", help="time loss evaluations, print CSV")
    add_common(p_bench, with_measures=False)
    p_bench.add_argument("--sizes", type=str, required=True,
                         help="comma-separated point counts")
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        previous = engine.set_threads(_resolve_threads(args.threads))
        try:
            return args.fn(args)
        finally:
            engine.set_threads(previous)
    except SinkdivError as exc:
        prefix = "numerical failure" if exc.exit_code == 3 else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
