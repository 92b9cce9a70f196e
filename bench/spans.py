"""Spans around jmdp's layers, recorded from outside the package.

The layers are the modules cli, core, env, dp, incremental, fa and stats.
`instrument` wraps every public function defined in those modules, and the
MomentCollection2 / MomentCollectionN constructors, and rebinds each wrapper
in every loaded jmdp namespace that holds the original (cli, fa and
incremental import names directly, e.g. `from .dp import apply_t2`).

A span has a name, a start, an end and a parent, and spans stay in memory
until the run ends. Calls are single-threaded and strictly nested, so a span's
children never overlap and its self time is its duration minus the sum of its
children's durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc

LAYERS = ("cli", "core", "env", "dp", "incremental", "fa", "stats")
CONSTRUCTORS = {"MomentCollection2": "core.MomentCollection2",
                "MomentCollectionN": "core.MomentCollectionN"}
# Public functions that build an environment or a policy.
ENV_BUILDERS = {"env.build_crc", "env.build_wgw", "env.build_ring_chain",
                "env.build_indep_successors", "env.build_shared_successors",
                "env.build_hub_successors", "env.wgw_goal_policy",
                "env.load_env", "env.load_policy"}
MiB = 1024.0 * 1024.0


class Span:
    __slots__ = ("name", "start", "end", "parent", "result", "peak_bytes")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.result = None
        self.peak_bytes = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder that installs its wrappers into jmdp."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list = []

    def wrap(self, name: str, fn, keep_result: bool = False, alloc: bool = False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            own_tracemalloc = alloc and not tracemalloc.is_tracing()
            if own_tracemalloc:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if own_tracemalloc:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if keep_result:
                span.result = result
            return result

        return wrapper

    def _rebind(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "jmdp" or mod_name.startswith("jmdp.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def instrument(self) -> None:
        """Wrap every layer's public functions and the moment constructors."""
        # Results are kept only where a metric reads them (iterations, sizes).
        keep = {"dp.jipe2", "dp.jipe_n", "incremental.run_incremental",
                "stats.mc_state_block", "fa.projected_jipe2"}
        for layer in LAYERS:
            mod = importlib.import_module(f"jmdp.{layer}")
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                self._rebind(fn, self.wrap(name, fn, keep_result=name in keep,
                                           alloc=name == "fa.coupling_coefficient"))
        core = importlib.import_module("jmdp.core")
        for cls_name, span_name in CONSTRUCTORS.items():
            cls = getattr(core, cls_name)
            self._restore.append((cls, "__init__", cls.__init__))
            cls.__init__ = self.wrap(span_name, cls.__init__)

    def uninstrument(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced op
# ---------------------------------------------------------------------------

PER_LAYER = {
    "dp.apply_t2.calls": "count", "dp.apply_t2.ms_per_call": "ms",
    "dp.jipe2.iters": "count", "dp.jipe2.self_s": "s",
    "dp.jipe_n.iters": "count", "dp.jipe_n.ms_per_iter": "ms",
    "core.moments2.builds": "count", "core.moments2.s": "s",
    "core.momentsN.s": "s", "core.lambda_norm.calls": "count",
    "core.lambda_norm.s": "s",
    "incremental.run.s": "s", "incremental.updates_per_s": "1/s",
    "stats.mc_block.calls": "count", "stats.mc_block.s": "s",
    "stats.rollout_steps_per_s": "1/s", "stats.ecdf.self_s": "s",
    "fa.coupling.calls": "count", "fa.coupling.s": "s", "fa.coupling.peak_mb": "MiB",
    "fa.stationary.s": "s", "fa.project_sigma.ms_per_call": "ms",
    "fa.project_mu.ms_per_call": "ms", "fa.projected.iters": "count",
    "fa.projected.self_s": "s",
    "env.build.s": "s", "env.marginal.calls": "count",
    "cli.self_s": "s", "cli.bytes_written": "bytes",
    "trace.overhead_frac": "fraction",
    **{f"{layer}.self_share": "fraction" for layer in LAYERS},
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def op_metrics(spans: list, first: int, last: int, bytes_written: int) -> dict:
    """Per-layer metrics from spans[first:last], the spans of one traced op."""
    child_s = [0.0] * (last - first)
    for i in range(first, last):
        parent = spans[i].parent
        if parent >= first:
            child_s[parent - first] += spans[i].duration
    calls: dict = {}
    total: dict = {}
    self_s: dict = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i in range(first, last):
        span = spans[i]
        own = span.duration - child_s[i - first]
        calls[span.name] = calls.get(span.name, 0) + 1
        total[span.name] = total.get(span.name, 0.0) + span.duration
        self_s[span.name] = self_s.get(span.name, 0.0) + own
        layer_self[span.name.split(".", 1)[0]] += own

    def results(name):
        return [spans[i].result for i in range(first, last) if spans[i].name == name]

    jipe2_iters = sum(len(r.residual_trace) for r in results("dp.jipe2"))
    jipe_n_iters = sum(len(trace) for _, trace in results("dp.jipe_n"))
    updates = sum(r.num_updates for r in results("incremental.run_incremental"))
    steps = sum(b.num_rollouts * b.horizon * len(b.actions)
                for b in results("stats.mc_state_block"))
    norm_calls = calls.get("core.lambda_norm", 0) + calls.get("core.lambda_norm_n", 0)
    norm_s = total.get("core.lambda_norm", 0.0) + total.get("core.lambda_norm_n", 0.0)
    peaks = [spans[i].peak_bytes for i in range(first, last)
             if spans[i].name == "fa.coupling_coefficient"]
    layer_total = sum(layer_self.values())
    out = {
        "dp.apply_t2.calls": calls.get("dp.apply_t2", 0),
        "dp.apply_t2.ms_per_call": 1e3 * _ratio(total.get("dp.apply_t2", 0.0),
                                                calls.get("dp.apply_t2", 0)),
        "dp.jipe2.iters": jipe2_iters,
        "dp.jipe2.self_s": self_s.get("dp.jipe2", 0.0),
        "dp.jipe_n.iters": jipe_n_iters,
        "dp.jipe_n.ms_per_iter": 1e3 * _ratio(total.get("dp.jipe_n", 0.0), jipe_n_iters),
        "core.moments2.builds": calls.get("core.MomentCollection2", 0),
        "core.moments2.s": total.get("core.MomentCollection2", 0.0),
        "core.momentsN.s": total.get("core.MomentCollectionN", 0.0),
        "core.lambda_norm.calls": norm_calls,
        "core.lambda_norm.s": norm_s,
        "incremental.run.s": total.get("incremental.run_incremental", 0.0),
        "incremental.updates_per_s": _ratio(
            updates, total.get("incremental.run_incremental", 0.0)),
        "stats.mc_block.calls": calls.get("stats.mc_state_block", 0),
        "stats.mc_block.s": total.get("stats.mc_state_block", 0.0),
        "stats.rollout_steps_per_s": _ratio(
            steps, total.get("stats.mc_state_block", 0.0)),
        "stats.ecdf.self_s": self_s.get("stats.chebyshev_ecdf", 0.0),
        "fa.coupling.calls": calls.get("fa.coupling_coefficient", 0),
        "fa.coupling.s": total.get("fa.coupling_coefficient", 0.0),
        "fa.coupling.peak_mb": max(peaks, default=0) / MiB,
        "fa.stationary.s": total.get("fa.stationary_distribution", 0.0),
        "fa.project_sigma.ms_per_call": 1e3 * _ratio(
            total.get("fa.project_sigma_psd", 0.0), calls.get("fa.project_sigma_psd", 0)),
        "fa.project_mu.ms_per_call": 1e3 * _ratio(
            total.get("fa.project_mu", 0.0), calls.get("fa.project_mu", 0)),
        "fa.projected.iters": sum(r.iterations for r in results("fa.projected_jipe2")),
        "fa.projected.self_s": self_s.get("fa.projected_jipe2", 0.0),
        "env.build.s": sum(total.get(name, 0.0) for name in ENV_BUILDERS),
        "env.marginal.calls": calls.get("env.marginal_mdp", 0),
        "cli.self_s": layer_self["cli"],
        "cli.bytes_written": bytes_written,
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = _ratio(layer_self[layer], layer_total)
    return out
