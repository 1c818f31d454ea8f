"""Fast self-test of the benchmark itself (about fifteen seconds on two cores).

    python3 perfbench/selftest.py

Runs one round of every workload on tiny inputs and asserts that:

* every output check passes on the library's outputs, except the one check
  that fails because of a known library fault;
* every output check rejects a deliberately wrong output (a perturbed value,
  gradient, force, curve or trajectory);
* a traced round reports every layer group with nonzero counts, self times
  that add up to no more than the traced time, and counts that repeat;
* every metric BENCHMARK.json lists is produced;
* run.py exits non-zero, printing no result, where the sources are missing.

Exits 0 when all hold and 1 otherwise, listing what did not.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np

import run

sys.path.insert(0, run.SRC)

import sinkdiv as sd  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {"cloud-2d": {"n": 40}, "small-blur-1d": {"n": 100}, "flow-1d": {"n": 40}}

problems: list[str] = []


def expect(cond: bool, what: str) -> None:
    if not cond:
        problems.append(what)


def loss_value(res, key, fn):
    res[key] = dataclasses.replace(res[key], value=fn(res[key].value))


def gradient(res, fn):
    res["gradient"] = dataclasses.replace(res["gradient"],
                                          d_positions=fn(res["gradient"].d_positions))


def traj(res, key, **changes):
    res[key] = dataclasses.replace(res[key], **changes)


def last_frame(t, pos):
    return t.frames[:-1] + [(t.frames[-1][0], pos)]


def rising(curve):
    return curve[:-1] + [(curve[-1][0], curve[0][1] + 1e-6)]


def drop_frame_file(res):
    manifest = res["written"][0]
    with open(manifest, encoding="utf-8") as fh:
        first = json.load(fh)["frames"][0]["file"]
    os.remove(os.path.join(os.path.dirname(manifest), first))


# One wrong output per check: each must make its check fail.
MUTATIONS = {
    "gradient_finite": lambda r: gradient(r, lambda g: g * np.nan),
    "gradient_sum": lambda r: gradient(r, lambda g: g + 1e-3 / len(g)),
    "hausdorff_bounds": lambda r: loss_value(
        r, "hausdorff", lambda v: r["divergence"].value * 1.01 + 1e-6),
    "mmd_brute_force": lambda r: r.__setitem__("mmd", (r["mmd"][0], dataclasses.replace(
        r["mmd"][1], d_positions=r["mmd"][1].d_positions * (1 + 1e-8)))),
    "translation_identity": lambda r: r["cli"].__setitem__("value", r["cli"]["value"] + 1e-7),
    "cli_same_value": lambda r: r["cli"].__setitem__("value", r["cli"]["value"] * (1 + 1e-9)),
    "small_blur_vs_exact_w1": lambda r: loss_value(r, "divergence", lambda v: v + 0.05),
    "sinkhorn_flow_descends": lambda r: traj(
        r, "sinkhorn_flow", loss_curve=rising(r["sinkhorn_flow"].loss_curve)),
    "mmd_flow_descends": lambda r: traj(r, "mmd_flow", loss_curve=rising(r["mmd_flow"].loss_curve)),
    "sinkhorn_flow_finite": lambda r: traj(r, "sinkhorn_flow", frames=last_frame(
        r["sinkhorn_flow"], r["sinkhorn_flow"].final_positions * np.inf)),
    "mmd_flow_finite": lambda r: traj(r, "mmd_flow", frames=last_frame(
        r["mmd_flow"], r["mmd_flow"].final_positions + np.nan)),
    "flow_force_is_gradient": lambda r: gradient(r, lambda g: g * (1 + 1e-6)),
    "sinkhorn_flow_nears_target": lambda r: traj(r, "sinkhorn_flow", frames=last_frame(
        r["sinkhorn_flow"], r["sinkhorn_flow"].frames[0][1])),
    "mmd_flow_nears_target": lambda r: traj(r, "mmd_flow", frames=last_frame(
        r["mmd_flow"], r["mmd_flow"].frames[0][1])),
    "trajectories_written": drop_frame_file,
    "sinkhorn_force_vs_fd": lambda r: r.__setitem__(
        "s_force", (r["s_force"][0] * (1 + 1e-3), r["s_force"][1])),
    # the known fault fails already; feeding it the reference must pass instead
    "hausdorff_force_vs_fd": lambda r: r.__setitem__("h_force", (r["h_force"][1], r["h_force"][1])),
}

# The value-check mutation on the MMD value, in addition to its gradient.
EXTRA = {"mmd_brute_force": lambda r: r.__setitem__("mmd", (dataclasses.replace(
    r["mmd"][0], value=r["mmd"][0].value * (1 + 1e-8)), r["mmd"][1]))}


def one_round(ops):
    tally = run.Tally()
    run.run_round(ops, tally)
    return tally


def check_workload(name: str, workdir: str, names: dict) -> None:
    inp = workloads.build(name, 1, workdir, **TINY[name])
    ops, res = workloads.round_ops(inp)
    timed = {op.metric for op in ops if op.metric} | {"setup_s"}
    expect(timed == names["end_to_end"],
           f"{name}: timed metrics differ from BENCHMARK.json: {timed ^ names['end_to_end']}")
    tally = one_round(ops)
    expect(tally.unexpected == 0, f"{name}: unexpected failures {tally.failures}")
    saved = dict(res)
    for chk in (c for op in ops for c in op.checks):
        for table in (MUTATIONS, EXTRA):
            if chk.name not in table:
                expect(table is EXTRA, f"{name}: no mutation for check {chk.name}")
                continue
            res.clear()
            res.update({k: (dict(v) if isinstance(v, dict) else v) for k, v in saved.items()})
            table[chk.name](res)
            ok, _ = chk.fn()
            if chk.known_fault:
                expect(ok, f"{name}: {chk.name} rejects the reference itself")
            else:
                expect(not ok, f"{name}: {chk.name} accepted a wrong output")


def check_tracing(workdir: str, names: dict) -> None:
    inp = workloads.build("flow-1d", 2, workdir, **TINY["flow-1d"])
    ops, _ = workloads.round_ops(inp)
    one_round(ops)
    tracer = tracing.Tracer()
    sd.reset_high_water()
    tracer.install(sd)
    rounds = []
    try:
        for _ in range(2):
            lo = len(tracer.spans)
            run.run_round(ops, run.Tally(), tracer)
            rounds.append(tracing.round_layers(tracer.spans, lo, len(tracer.spans)))
    finally:
        tracer.uninstall()
    expect(sd.sinkhorn_divergence.__name__ == "sinkhorn_divergence"
           and not hasattr(sd.sinkhorn_divergence, "__wrapped__"), "uninstall left wrappers")
    hw = sd.high_water()
    traced = {f"{layer}.{name}" for layer, name, _ in tracing.targets(sd)}
    metrics = tracing.layer_metrics(rounds, {
        "engine.peak_pair_buffer_bytes": hw["pair_buffer_bytes"],
        "engine.peak_bytes": hw["peak_bytes"], "cli.import_s": 0.2}, traced)
    for key in ("costs.calls", "costs.entries", "engine.calls", "engine.pairs",
                "solver.cross_iterations", "solver.symmetric_iterations", "losses.calls",
                "flows.steps", "engine.kernel_grad_rows.calls",
                "engine.peak_bytes"):
        expect(metrics.get(key, 0) > 0, f"traced round: {key} is not positive")
    for r in rounds:
        layer_self = sum(v for k, v in r.items() if k.endswith(".self_s"))
        expect(layer_self <= r["traced.covered_s"] * (1 + 1e-9),
               "traced round: layer self times exceed the traced time")
    for key in tracing.EXACT_COUNTS:
        expect(rounds[0][key] == rounds[1][key], f"traced rounds: {key} does not repeat")
    expect(names["per_layer"] <= set(metrics),
           f"per-layer metrics not produced: {names['per_layer'] - set(metrics)}")
    # the check-only force operations, one flow step each, run untraced
    steps = inp.flow_steps + inp.mmd_flow_steps
    expect(metrics["flows.steps"] == steps,
           f"traced round: flows.steps is {metrics['flows.steps']}, not {steps}")


def check_contract() -> None:
    bare = os.path.join(run.OUT, f"bare-{os.getpid()}")
    try:
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cloud-2d",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "run.py without sources must fail without printing a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = run.load_spec()
    names = {key: {m["name"] for m in spec[key]} for key in ("end_to_end", "per_layer")}
    os.makedirs(run.OUT, exist_ok=True)
    workdir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    try:
        for name in workloads.WORKLOADS:
            os.makedirs(os.path.join(workdir, name), exist_ok=True)
            check_workload(name, os.path.join(workdir, name), names)
        os.makedirs(os.path.join(workdir, "trace"), exist_ok=True)
        check_tracing(os.path.join(workdir, "trace"), names)
        check_contract()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
