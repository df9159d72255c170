"""The traced run: timing wrappers around each layer's public functions.

:func:`install` replaces every function in :data:`LAYER_FUNCTIONS` with
a wrapper that records one span per call — name, start, end, parent and
the id of the pass or request it belongs to — in memory.  A function is
replaced wherever it is looked up: on its class for methods, and in
every loaded ``repro`` module that holds it for plain functions (for
example ``analyze_nodes_batch`` as imported into ``harness.batch``).
Nothing in the program changes, and its own ``repro.obs`` tracer stays
off.  :func:`dump` writes the spans out when the traced process ends;
:func:`summarize` turns them into per-layer self times and counts.

This module imports ``repro`` only inside :func:`install`.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional

_current: contextvars.ContextVar = contextvars.ContextVar(
    "e2ebench_span", default=None)
_ids = itertools.count(1)

#: Finished spans: [id, name, start, end, parent id, trace id, work, hits]
SPANS: List[list] = []
#: Dump paths returned by ``CounterSession.mpi_finalize`` (sized at the end).
DUMP_PATHS: List[str] = []


def begin(name: str, root: bool = False, trace: Optional[int] = None):
    """Open a span.  A root span starts a new trace (a pass or request),
    or adds a stretch to ``trace`` when that is given."""
    parent = _current.get()
    sid = next(_ids)
    if root:
        pid, trace = 0, trace or sid
    elif parent is None:
        pid, trace = 0, 0          # outside any pass: not attributed
    else:
        pid, trace = parent[0], parent[5]
    rec = [sid, name, time.perf_counter(), 0.0, pid, trace, 1, 0]
    return rec, _current.set(rec)


def end(rec: list, token) -> None:
    rec[3] = time.perf_counter()
    _current.reset(token)
    SPANS.append(rec)


def timed(name: str, fn: Callable, work: Optional[Callable] = None,
          hit: Optional[Callable] = None, pre: Optional[Callable] = None,
          root: bool = False) -> Callable:
    """Wrap ``fn`` so each call records a span.

    ``work(args, kwargs, result)`` gives the call's work count (default
    1); ``hit(args, kwargs, result, state)`` flags a useful outcome such
    as a cache hit, with ``state = pre(args, kwargs)`` taken before the
    call.  Both run after the span has closed.
    """
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            rec, token = begin(name, root)
            try:
                return await fn(*args, **kwargs)
            finally:
                end(rec, token)
        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = pre(args, kwargs) if pre is not None else None
        rec, token = begin(name, root)
        try:
            result = fn(*args, **kwargs)
        finally:
            end(rec, token)
        if work is not None:
            rec[6] = work(args, kwargs, result)
        if hit is not None:
            rec[7] = int(hit(args, kwargs, result, state))
        return result
    return wrapper


def _memo_hits(args, kwargs):
    return args[0].hits.value


def _stash_dumps(args, kwargs, paths):
    DUMP_PATHS.extend(paths)
    return len(paths)


def _samples(args, kwargs, timeline):
    return sum(len(series) for series in timeline.samples.values())


#: (span name, module, class or None, attribute, work, hit, pre)
LAYER_FUNCTIONS = (
    ("npb.build_benchmark", "repro.npb.suite", None, "build_benchmark",
     None, None, None),
    ("compiler.compile_program", "repro.compiler.xlc", None,
     "compile_program", None, None, None),
    ("runtime.machine", "repro.runtime.machine", "Machine", "__init__",
     None, None, None),
    ("runtime.job", "repro.runtime.machine", "Job", "run",
     lambda a, k, r: len(list(a[0].program.comms())), None, None),
    ("node.run", "repro.node.soc", "ComputeNode", "run", None, None, None),
    ("core.pulse", "repro.node.soc", "ComputeNode", "pulse_events",
     None, None, None),
    ("mem.analyze", "repro.mem.hierarchy", "NodeMemoryModel", "analyze",
     None, None, None),
    ("mem.analyze_batch", "repro.mem.hierarchy", None,
     "analyze_nodes_batch", None, None, None),
    ("cpu.timing", "repro.cpu.pipeline", "PipelineModel",
     "compute_cycles", None, None, None),
    ("cpu.timing_batch", "repro.cpu.pipeline", "PipelineModel",
     "compute_cycles_batch", lambda a, k, r: len(a[1]), None, None),
    ("net.phase", "repro.runtime.mpi", "SimMPI", "run", None, None, None),
    ("core.dump_write", "repro.core.mpi_hooks", "CounterSession",
     "mpi_finalize", _stash_dumps, None, None),
    ("core.aggregate", "repro.core.mpi_hooks", "CounterSession",
     "aggregation", None, None, None),
    ("groups.eval", "repro.groups", "PerformanceGroup", "evaluate",
     None, None, None),
    ("obs.feed", "repro.obs.timeline", "NodeTimelineSampler", "feed",
     None, None, None),
    ("obs.branch", "repro.obs.timeline", "NodeTimelineSampler", "branch",
     None, None, None),
    ("obs.finish", "repro.obs.timeline", "NodeTimelineSampler", "finish",
     _samples, None, None),
    ("parallel.memo", "repro.parallel", "MemoizedFunction", "__call__",
     None, lambda a, k, r, before: a[0].hits.value > before, _memo_hits),
    ("checkpoint.get", "repro.checkpoint", "SharedCacheTier", "get",
     None, lambda a, k, r, s: r is not None, None),
    ("checkpoint.put", "repro.checkpoint", "SharedCacheTier", "put",
     None, None, None),
    ("checkpoint.evict", "repro.checkpoint", "SharedCacheTier", "evict",
     lambda a, k, r: r, None, None),
    ("harness.render", "repro.harness.report", "ExperimentResult",
     "render", None, None, None),
    ("harness.write_csv", "repro.__main__", None, "_write_csv",
     None, None, None),
    ("harness.batch", "repro.harness.batch", None, "run_points",
     None, None, None),
)

#: The service's own functions (only the traced server installs these).
SERVE_FUNCTIONS = (
    ("serve.request", "repro.serve.server", "SimulationService",
     "_handle_connection", True),
    ("serve.run_cached", "repro.serve.server", "SimulationService",
     "_run_cached", False),
    ("serve.runner", "repro.serve.server", None, "_execute_sweep", False),
)


def _replace_function(module_name: str, attr: str, wrapper_for) -> None:
    original = getattr(importlib.import_module(module_name), attr)
    wrapper = wrapper_for(original)
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def _replace(module_name, cls_name, attr, wrapper_for) -> None:
    if cls_name is None:
        _replace_function(module_name, attr, wrapper_for)
        return
    cls = getattr(importlib.import_module(module_name), cls_name)
    setattr(cls, attr, wrapper_for(cls.__dict__[attr]))


def install(serve: bool = False) -> None:
    """Wrap every layer function (and the service's, with ``serve``)."""
    for name, module, cls, attr, work, hit, pre in LAYER_FUNCTIONS:
        _replace(module, cls, attr,
                 lambda fn, n=name, w=work, h=hit, p=pre:
                 timed(n, fn, work=w, hit=h, pre=p))
    if not serve:
        return
    for name, module, cls, attr, root in SERVE_FUNCTIONS:
        _replace(module, cls, attr,
                 lambda fn, n=name, r=root: timed(n, fn, root=r))
    # the service hands work to a thread pool, which does not carry
    # context variables across; this one does, so spans in pool threads
    # keep their request as parent
    server = importlib.import_module("repro.serve.server")

    class ContextExecutor(server.ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(contextvars.copy_context().run, fn,
                                  *args, **kwargs)

    server.ThreadPoolExecutor = ContextExecutor


def dump(path: str) -> None:
    """Write the recorded spans (and dump sizes) as one JSON document."""
    sizes = 0
    for dump_path in DUMP_PATHS:
        try:
            sizes += os.path.getsize(dump_path)
        except OSError:
            pass
    with open(path, "w") as fh:
        json.dump({"spans": SPANS, "dump_bytes": sizes}, fh)


# ---------------------------------------------------------------------------
# span tree -> per-layer numbers
# ---------------------------------------------------------------------------
def _covered(start: float, stop: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, stop]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, stop)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: List[list]) -> Dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: Dict[int, list] = {}
    for rec in spans:
        children.setdefault(rec[4], []).append((rec[2], rec[3]))
    return {rec[0]: (rec[3] - rec[2])
            - _covered(rec[2], rec[3], children.get(rec[0], ()))
            for rec in spans}


def summarize(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, work, hits, self seconds, total seconds.

    Only spans inside a pass or request (trace id != 0) count.  Each
    root's own self time appears under its name, so the self times of
    all names add up to the roots' total duration.
    """
    spans = [rec for rec in spans if rec[5]]
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for rec in spans:
        agg = out.setdefault(rec[1], {"calls": 0, "work": 0, "hits": 0,
                                      "self_s": 0.0, "total_s": 0.0})
        agg["calls"] += 1
        agg["work"] += rec[6]
        agg["hits"] += rec[7]
        agg["self_s"] += own[rec[0]]
        agg["total_s"] += rec[3] - rec[2]
    return out


def request_self_ms(spans: List[list]) -> List[float]:
    """Per served sweep request: the service's own milliseconds.

    That is the request's server-side latency minus the runner and
    cache-tier time under it: the self time of ``serve.request`` plus
    ``serve.run_cached``.
    """
    spans = [rec for rec in spans if rec[5]]
    own = self_times(spans)
    per_trace: Dict[int, float] = {}
    served = set()
    for rec in spans:
        if rec[1] in ("serve.request", "serve.run_cached"):
            per_trace[rec[5]] = per_trace.get(rec[5], 0.0) + own[rec[0]]
        if rec[1] == "serve.run_cached":
            served.add(rec[5])
    return [per_trace[t] * 1000.0 for t in served]


def layer_metrics(agg: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """The benchmark's per-layer metrics from one pass's summary."""
    def self_s(*names):
        return sum(agg.get(n, {}).get("self_s", 0.0) for n in names)

    def field(name, key):
        return agg.get(name, {}).get(key, 0)

    comm_ops = field("runtime.job", "work")
    phases = field("net.phase", "calls")
    memo_calls = field("parallel.memo", "calls")
    gets = field("checkpoint.get", "calls")
    return {
        "compiler.lower_s": self_s("npb.build_benchmark",
                                   "compiler.compile_program"),
        "compiler.programs": field("compiler.compile_program", "calls"),
        "runtime.job_self_s": self_s("runtime.job"),
        "runtime.jobs": field("runtime.job", "calls"),
        "runtime.machine_s": self_s("runtime.machine"),
        "node.run_self_s": self_s("node.run"),
        "node.runs": field("node.run", "calls"),
        "mem.analyze_s": self_s("mem.analyze", "mem.analyze_batch"),
        "mem.analyze_calls": field("mem.analyze", "calls")
                             + field("mem.analyze_batch", "calls"),
        "cpu.timing_s": self_s("cpu.timing", "cpu.timing_batch"),
        "cpu.timing_rows": field("cpu.timing", "calls")
                           + field("cpu.timing_batch", "work"),
        "net.phase_s": self_s("net.phase"),
        "net.phases": phases,
        "net.phase_reuse": ((comm_ops - phases) / comm_ops
                            if comm_ops else 0.0),
        "core.pulse_s": self_s("core.pulse"),
        "core.pulses": field("core.pulse", "calls"),
        "core.dump_write_s": self_s("core.dump_write"),
        "core.dump_files": field("core.dump_write", "work"),
        "core.aggregate_s": self_s("core.aggregate"),
        "groups.eval_s": self_s("groups.eval"),
        "groups.evals": field("groups.eval", "calls"),
        "obs.sample_s": self_s("obs.feed", "obs.branch", "obs.finish"),
        "obs.samples": field("obs.finish", "work"),
        "parallel.memo_calls": memo_calls,
        "parallel.memo_hit_ratio": (field("parallel.memo", "hits")
                                    / memo_calls if memo_calls else 0.0),
        "checkpoint.get_s": self_s("checkpoint.get"),
        "checkpoint.put_s": self_s("checkpoint.put"),
        "checkpoint.evict_s": self_s("checkpoint.evict"),
        "checkpoint.hit_ratio": (field("checkpoint.get", "hits") / gets
                                 if gets else 0.0),
        "checkpoint.evicted": field("checkpoint.evict", "work"),
        "harness.render_s": self_s("harness.render", "harness.write_csv"),
        "harness.batch_s": self_s("harness.batch"),
    }
