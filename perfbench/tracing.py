"""Span tracing from outside the library, and the per-layer metrics built on it.

``Tracer.install`` rebinds every public function defined in ``engine``,
``solver``, ``losses`` and ``flows``, and every ``*_block`` builder in
``costs``, in each loaded ``sinkdiv`` module that holds a reference to it.
Each call then records a span ``[name, parent, start, end, info]`` in memory;
``info`` holds the work the call did (tile entries built, pairs reduced,
iterations run, flow evaluations). ``uninstall`` puts the originals back.

Calls that happen inside a function the library binds under another name, or
reaches by a path this file does not rebind, land in the self time of the
nearest traced caller.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import statistics
import sys
import time
import types

LAYERS = ("engine", "solver", "losses", "flows")
REDUCTIONS = ("lse_rows", "lse_rows_with_grad", "exp_grad_rows", "kernel_rows",
              "kernel_grad_rows")

NAME, PARENT, START, END, INFO = range(5)


def _block_entries(args, kwargs, result):
    # every *_block builder takes (..., xs, ys) last
    return args[-2].shape[0] * args[-1].shape[0]


def _reduction_pairs(args, kwargs, result):
    plan = kwargs["plan"] if "plan" in kwargs else args[0]
    return plan.n_rows * plan.n_cols


def _iterations(args, kwargs, result):
    return result.iterations


def _flow_info(args, kwargs, result):
    config = kwargs["config"] if "config" in kwargs else args[2]
    return [config.loss, len(result.loss_curve)]


INFO_FNS = {
    "engine": {op: _reduction_pairs for op in REDUCTIONS},
    "solver": {"sinkhorn": _iterations, "sinkhorn_symmetric": _iterations},
    "flows": {"run_flow": _flow_info},
}


def targets(package) -> list[tuple[str, str, types.FunctionType]]:
    """``(layer, name, function)`` for every function the tracer rebinds."""
    out = []
    for layer in ("costs",) + LAYERS:
        mod = getattr(package, layer)
        for name, fn in vars(mod).items():
            if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                continue
            if name.startswith("_"):
                continue
            if layer == "costs" and not name.endswith("_block"):
                continue
            out.append((layer, name, fn))
    return out


class Tracer:
    """In-memory span recorder over the rebound library functions."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._package = None

    def _wrap(self, label, fn, info_fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [label, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if info_fn is not None:
                try:
                    span[INFO] = info_fn(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    span[INFO] = None  # a changed signature drops the count, not the run
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        self._package = package
        wrappers = {}
        for layer, name, fn in targets(package):
            info_fn = INFO_FNS.get(layer, {}).get(name)
            if layer == "costs":
                info_fn = _block_entries
            wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn, info_fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package.__name__
                                   or mod_name.startswith(package.__name__ + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside the block run on the originals and record nothing."""
        package = self._package
        self.uninstall()
        try:
            yield
        finally:
            self.install(package)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "parent": s[PARENT],
                                     "start": s[START], "end": s[END], "info": s[INFO]}))
                fh.write("\n")


def round_layers(spans, lo: int, hi: int) -> dict:
    """Per-layer counts and times of the spans ``spans[lo:hi]`` (one round)."""
    rows = spans[lo:hi]
    n = len(rows)
    dur = [s[END] - s[START] for s in rows]
    layer = [s[NAME].split(".", 1)[0] for s in rows]
    op = [s[NAME].split(".", 1)[1] for s in rows]
    parent = [s[PARENT] - lo if s[PARENT] >= lo else -1 for s in rows]
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    self_s = [dur[i] - child[i] for i in range(n)]

    def ancestor(i, pred):
        j = parent[i]
        while j >= 0:
            if pred(j):
                return j
            j = parent[j]
        return -1

    def total(values, pred):
        return sum(v for i, v in enumerate(values) if pred(i))

    def is_layer(name):
        return lambda i: layer[i] == name

    is_red = [layer[i] == "engine" and op[i] in REDUCTIONS for i in range(n)]
    top_cost = [layer[i] == "costs" and (parent[i] < 0 or layer[parent[i]] != "costs")
                for i in range(n)]
    info = [s[INFO] for s in rows]
    work = [v if isinstance(v, int) else 0 for v in info]  # entries, pairs or iterations

    m = {}
    m["costs.calls"] = sum(top_cost)
    m["costs.entries"] = total(work, lambda i: top_cost[i])
    m["costs.self_s"] = total(self_s, is_layer("costs"))
    m["costs.busy_s"] = total(dur, lambda i: top_cost[i])
    in_engine = [top_cost[i] and parent[i] >= 0 and layer[parent[i]] == "engine"
                 for i in range(n)]
    m["engine.entries"] = total(work, lambda i: in_engine[i])
    m["engine.calls"] = sum(is_red)
    m["engine.pairs"] = total(work, lambda i: is_red[i])
    m["engine.self_s"] = total(self_s, is_layer("engine"))
    m["engine.busy_s"] = total(dur, lambda i: is_red[i])
    for name in REDUCTIONS:
        sel = [is_red[i] and op[i] == name for i in range(n)]
        m[f"engine.{name}.calls"] = sum(sel)
        m[f"engine.{name}.pairs"] = total(work, lambda i: sel[i])
        m[f"engine.{name}.busy_s"] = total(dur, lambda i: sel[i])

    is_cross = [s[NAME] == "solver.sinkhorn" for s in rows]
    is_sym = [s[NAME] == "solver.sinkhorn_symmetric" for s in rows]
    m["solver.cross_calls"] = sum(is_cross)
    m["solver.cross_iterations"] = total(work, lambda i: is_cross[i])
    m["solver.symmetric_calls"] = sum(is_sym)
    m["solver.symmetric_iterations"] = total(work, lambda i: is_sym[i])
    m["solver.cross_busy_s"] = total(dur, lambda i: is_cross[i])
    m["solver.symmetric_busy_s"] = total(dur, lambda i: is_sym[i])
    m["solver.reductions"] = sum(
        1 for i in range(n)
        if is_red[i] and parent[i] >= 0 and (is_cross[parent[i]] or is_sym[parent[i]])
    )
    m["solver.self_s"] = total(self_s, is_layer("solver"))
    m["losses.calls"] = sum(1 for i in range(n) if layer[i] == "losses")
    m["losses.self_s"] = total(self_s, is_layer("losses"))

    flow_spans = [i for i in range(n) if rows[i][NAME] == "flows.run_flow" and info[i]]
    m["flows.steps"] = sum(info[i][1] - 1 for i in flow_spans)
    sink_flow = {i for i in flow_spans if info[i][0] == "sinkhorn"}
    m["flows.sinkhorn_evaluations"] = sum(info[i][1] for i in sink_flow)
    under = [ancestor(i, lambda j: j in sink_flow) >= 0 for i in range(n)]
    m["flows.sinkhorn_cross_iterations"] = total(work, lambda i: is_cross[i] and under[i])
    m["flows.sinkhorn_symmetric_iterations"] = total(work, lambda i: is_sym[i] and under[i])
    m["flows.self_s"] = total(self_s, is_layer("flows"))
    m["flows.write_trajectory_s"] = total(dur, lambda i: rows[i][NAME] == "flows.write_trajectory")
    # self times partition the time covered by top-level spans
    m["traced.covered_s"] = total(dur, lambda i: parent[i] < 0)
    return m


# Counts that must repeat exactly from round to round (and run to run).
EXACT_COUNTS = ("engine.pairs", "costs.entries", "solver.cross_iterations",
                "solver.symmetric_iterations")


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(per_round: list[dict], extra: dict, traced: set) -> dict:
    """Per-layer metrics from per-round aggregates: counts are per round (they
    repeat exactly), times are medians over rounds, rates are totals over all
    rounds. ``extra`` carries values measured outside the spans; ``traced``
    holds the span names that exist, so a removed reduction drops its rows."""
    med = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
    tot = {k: sum(r[k] for r in per_round) for k in per_round[0]}
    first = per_round[0]
    out = {
        "costs.calls": first["costs.calls"],
        "costs.entries": first["costs.entries"],
        "costs.self_s": med["costs.self_s"],
        "costs.entries_per_s": _ratio(tot["costs.entries"], tot["costs.busy_s"]),
        "engine.entries_per_pair": _ratio(first["engine.entries"], first["engine.pairs"]),
        "engine.calls": first["engine.calls"],
        "engine.pairs": first["engine.pairs"],
        "engine.self_s": med["engine.self_s"],
        "engine.pairs_per_s": _ratio(tot["engine.pairs"], tot["engine.busy_s"]),
    }
    for key in ("engine.peak_pair_buffer_bytes", "engine.peak_bytes"):
        if key in extra:
            out[key] = extra[key]
    for name in REDUCTIONS:
        if f"engine.{name}" not in traced:
            continue
        out[f"engine.{name}.calls"] = first[f"engine.{name}.calls"]
        out[f"engine.{name}.pairs_per_s"] = _ratio(tot[f"engine.{name}.pairs"],
                                                   tot[f"engine.{name}.busy_s"])
    iterations = first["solver.cross_iterations"] + first["solver.symmetric_iterations"]
    out.update({
        "solver.cross_calls": first["solver.cross_calls"],
        "solver.cross_iterations": first["solver.cross_iterations"],
        "solver.symmetric_calls": first["solver.symmetric_calls"],
        "solver.symmetric_iterations": first["solver.symmetric_iterations"],
        "solver.reductions_per_iteration": _ratio(first["solver.reductions"], iterations),
        "solver.ms_per_cross_iteration": 1e3 * _ratio(tot["solver.cross_busy_s"],
                                                      tot["solver.cross_iterations"]),
        "solver.ms_per_symmetric_iteration": 1e3 * _ratio(tot["solver.symmetric_busy_s"],
                                                          tot["solver.symmetric_iterations"]),
        "solver.self_s": med["solver.self_s"],
        "losses.calls": first["losses.calls"],
        "losses.self_s": med["losses.self_s"],
        "flows.steps": first["flows.steps"],
        "flows.cross_iterations_per_step": _ratio(first["flows.sinkhorn_cross_iterations"],
                                                  first["flows.sinkhorn_evaluations"]),
        "flows.symmetric_iterations_per_step": _ratio(
            first["flows.sinkhorn_symmetric_iterations"], first["flows.sinkhorn_evaluations"]),
        "flows.self_s": med["flows.self_s"],
        "flows.write_trajectory_s": med["flows.write_trajectory_s"],
    })
    if "cli.import_s" in extra:
        out["cli.import_s"] = extra["cli.import_s"]
    return out
