"""lcfn benchmark: one closed-loop client driving lcfn from one process.

    python3 perfbench/run.py --workload order-batch --seed 1 --seconds 30 --trace 0

Run from the repository root (the directory holding ``src/lcfn``).  The
workload's inputs come from ``--seed`` alone.  With ``--trace 0`` the run
measures for ``--seconds`` and reports the end-to-end metrics; with
``--trace 1`` it replays a fixed pass of the workload untraced and then
traced, runs the layer panel (:mod:`layers`) and reports the per-layer
metrics, the tracing overhead among them.  Every answer is checked
against :mod:`oracle`.  End-to-end times are scaled to a reference
machine speed (:mod:`speed`); the raw ones are printed too.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans of a traced run are written to
``.perfbench/``.
"""
from __future__ import annotations

import argparse
import compileall
import copy
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array

from speed import LaunchRef, SpeedRef
from tracing import Hooks, NullTracer, Tracer
from workloads import WORKLOADS, child_env

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
SETUP_REPS = 5

_clock = time.perf_counter


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def environment() -> dict:
    try:
        from importlib.metadata import PackageNotFoundError, version
        numpy = version("numpy")
    except PackageNotFoundError:
        numpy = None
    return {"python": platform.python_version(),
            "math_fma": hasattr(math, "fma"),
            "numpy": numpy,
            "nproc": os.cpu_count(),
            "loadavg_start": list(os.getloadavg())}


def import_lcfn():
    """Import lcfn from this checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lcfn", "__init__.py")):
        raise BenchError(f"no lcfn sources under {src}; run from a checkout")
    compileall.compile_dir(src, quiet=1)  # the build step: byte-code once
    sys.path.insert(0, src)
    lcfn = importlib.import_module("lcfn")
    for mod in ("calculus", "variational", "scenarios", "cli", "expr",
                "quadrature", "core", "generator"):
        importlib.import_module(f"lcfn.{mod}")
    if not os.path.abspath(lcfn.__file__).startswith(src + os.sep):
        raise BenchError(f"imported lcfn from {lcfn.__file__}, not {src}")
    return lcfn


def timed_import() -> float:
    """Wall time of a fresh interpreter importing lcfn."""
    t0 = _clock()
    subprocess.run([sys.executable, "-c", "import lcfn"], env=child_env(ROOT),
                   cwd=ROOT, check=True)
    return _clock() - t0


def set_up(wl_cls, lcfn, seed, workdir, ref, launch_ref):
    """Draws the seeded inputs once, then times SETUP_REPS set-ups: each
    is a fresh-interpreter import of lcfn plus the workload's in-process
    build from the drawn inputs.  Returns the last built workload and the
    median set-up time, scaled to the reference speed and raw.  The import
    is scaled by reference launches around it, the build by the kernel."""
    drawn = wl_cls(lcfn, ROOT, seed, workdir)
    drawn.draw()
    scaled, raw = [], []
    wl = None
    for _ in range(SETUP_REPS):
        # Each build starts from the same state: the previous one's objects
        # freed and collected outside the timed region, the drawn inputs
        # (the benchmark's, not lcfn's) frozen out of the collector.
        wl = None
        gc.collect()
        gc.freeze()
        wl = copy.copy(drawn)
        before = launch_ref.sample()
        t_import = timed_import()
        after = launch_ref.sample()
        scale = ref.scale()
        t0 = _clock()
        wl.build()
        t_build = _clock() - t0
        raw.append(t_import + t_build)
        scaled.append(t_import * launch_ref.scale(before, after) + t_build * scale)
    return wl, (statistics.median(scaled), statistics.median(raw))


class Results:
    """Per-op latencies and verdict counts of a run, kept in flat arrays
    so that a long run adds nothing for the cyclic GC to walk."""

    def __init__(self):
        self.latency = array("d")  # scaled to the reference speed
        self.raw = array("d")
        self.weight = array("q")  # ops a latency stands for
        self.known = 0
        self.unexpected: list = []

    def add(self, ops):
        for op in ops:
            self.latency.append(op.latency * op.scale)
            self.raw.append(op.latency)
            self.weight.append(op.n)
            self.known += op.known
            self.unexpected.extend((op.kind, d) for d in op.fails)

    @property
    def attempted(self) -> int:
        return sum(self.weight)

    @property
    def failed(self) -> int:
        """Only unexpected failures; known defects are counted apart."""
        return len(self.unexpected)

    def busy_s(self, raw: bool = False) -> float:
        times = self.raw if raw else self.latency
        return math.fsum(t * n for t, n in zip(times, self.weight))

    def percentile(self, p: float, raw: bool = False) -> float:
        """Nearest-rank percentile, each latency weighted by its ops."""
        times = self.raw if raw else self.latency
        rank = max(1, math.ceil(p / 100.0 * self.attempted))
        seen = 0
        for latency, n in sorted(zip(times, self.weight)):
            seen += n
            if seen >= rank:
                return latency
        return max(times)

    def counts(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "known": self.known, "unexpected": len(self.unexpected)}


def end_to_end(wl, seconds, setup, ref) -> tuple[dict, dict, list]:
    tracer = NullTracer()
    wl.cycle(0, tracer)  # warm-up: caches fill, pages load; not measured
    wl.speed = ref
    n0 = len(ref.samples)
    res, i, t0 = Results(), 1, _clock()
    while True:  # whole cycles only, so every run has the same mix
        res.add(wl.cycle(i, tracer))
        i += 1
        if _clock() - t0 >= seconds:
            break
    wall = _clock() - t0
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # The CLI processes are what a user of cli-launch runs; elsewhere lcfn
    # runs inside this process.
    rss_kb = rss_children if wl.name == "cli-launch" else rss_self
    metrics = {
        "ops_per_s": (res.attempted / res.busy_s(), "1/s"),
        "latency_p50_ms": (res.percentile(50) * 1e3, "ms"),
        "latency_p90_ms": (res.percentile(90) * 1e3, "ms"),
        "setup_s": (setup[0], "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    raw = {"ops_per_s": res.attempted / res.busy_s(raw=True),
           "latency_p50_ms": res.percentile(50, raw=True) * 1e3,
           "latency_p90_ms": res.percentile(90, raw=True) * 1e3,
           "setup_s": setup[1],
           "speed_ref_ms": statistics.median(ref.samples[n0:]) * 1e3}
    info = {"cycles": i - 1, "wall_s": wall, "raw": raw, **res.counts()}
    return metrics, info, res.unexpected


def traced(wl, lcfn, seed) -> tuple[dict, dict, list]:
    import layers  # imports nothing from lcfn, but only traced runs need it
    plain = NullTracer()
    wl.cycle(0, plain)  # warm-up
    tracer = Tracer()
    hooks = Hooks(tracer, lcfn)
    with hooks:
        with tracer.span("scenarios.build_inputs"):
            wl.build()
    # The fixed pass runs each cycle untraced and then traced, so a drift
    # in machine speed falls on both sides of the overhead alike.
    n = wl.pass_cycles
    plain_res, res, plain_s, traced_s = Results(), Results(), 0.0, 0.0
    for i in range(1, n + 1):
        t0 = _clock()
        plain_res.add(wl.cycle(i, plain))
        t1 = _clock()
        with hooks:
            res.add(wl.cycle(i, tracer))
        plain_s += t1 - t0
        traced_s += _clock() - t1
    pass_spans = len(tracer.spans)
    pass_calls, pass_evals = tracer.quadrature_totals()
    pass_eval_calls = tracer.evaluate_totals()[0]
    if wl.name == "checker-sweep" and (pass_evals == 0 or pass_eval_calls == 0):
        raise BenchError("checker-sweep counted no integrand evaluations or "
                         "evaluate calls: a hook no longer sees the work")
    try:
        metrics, panel_failures = layers.panel(lcfn, tracer, hooks, seed,
                                               wl.workdir, ROOT)
    except RuntimeError as err:
        raise BenchError(str(err)) from None
    metrics["trace.overhead_frac"] = ((traced_s - plain_s) / plain_s, "fraction")
    metrics["trace.pass_spans"] = (pass_spans, "count")
    metrics["known_defect_frac"] = (res.known / res.attempted, "fraction")
    unexpected = res.unexpected + plain_res.unexpected + panel_failures
    info = {"pass_cycles": n, "pass_untraced_s": plain_s, "pass_traced_s": traced_s,
            "pass_quadrature_calls": pass_calls, "pass_integrand_evals": pass_evals,
            "pass_evaluate_calls": pass_eval_calls, **res.counts(),
            "unexpected": len(unexpected)}
    dump_trace(tracer, wl.name, seed)
    return metrics, info, unexpected


def dump_trace(tracer, name, seed):
    path = os.path.join(WORK, f"trace-{name}-s{seed}.json")
    rows = [{"id": s.sid, "name": s.name, "parent": s.parent, "op": s.op,
             "start": s.start, "end": s.end, "error": s.error,
             "evals": s.evals, "evaluate_calls": s.evaluate_calls,
             "evaluate_s": s.evaluate_s, "nodes": s.nodes}
            for s in tracer.spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("cli-launch", "order-batch", "checker-sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    env = environment()
    try:
        lcfn = import_lcfn()
    except (BenchError, ImportError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    # One CPU for this process and the CLI processes it starts, so the speed
    # kernel and the work it scales run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    kernel_ref, launch_ref = SpeedRef(), LaunchRef(child_env(ROOT), ROOT)
    wl_cls = WORKLOADS[args.workload]
    try:
        wl, setup = set_up(wl_cls, lcfn, args.seed, workdir, kernel_ref, launch_ref)
        wl.expect()
        # The inputs and oracle answers live for the whole run; keep the
        # cyclic GC from walking them again and again.
        gc.collect()
        gc.freeze()
        if args.trace:
            metrics, info, unexpected = traced(wl, lcfn, args.seed)
        else:
            ref = launch_ref if wl_cls.launches else kernel_ref
            metrics, info, unexpected = end_to_end(wl, args.seconds, setup, ref)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    for kind, detail in unexpected[:20]:
        print(f"FAILED {kind}: {detail}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:16.6g} {unit}")
    print(f"  failed {len(unexpected)} of {info['attempted']} attempted; "
          f"{info['known']} more hit a known defect")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": info["attempted"],
        "failed": len(unexpected),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
