"""Spans and counters recorded by the benchmark around calls into lcfn.

A span is (name, layer, start, end, parent, op id, error flag) and lives
in memory until the run ends.  Per-call ``lcfn.expr.evaluate`` records
would be too many to keep, so each one is folded into its parent span as
a count, a summed time and a summed node count.

Counting hooks replace ``evaluate`` and the quadrature entry points at
their import sites in ``lcfn.calculus`` and ``lcfn.variational``, never in
``lcfn.expr`` or ``lcfn.quadrature`` themselves, so recursion inside the
evaluator is not counted and the library's own modules stay untouched.
"""
from __future__ import annotations

import time
import types
from contextlib import contextmanager, nullcontext

_clock = time.perf_counter


class HookMissing(RuntimeError):
    """A name the hooks wrap is gone, so counts would silently read 0."""


class Span:
    __slots__ = ("sid", "name", "layer", "start", "end", "parent", "op",
                 "error", "evals", "evaluate_calls", "evaluate_s", "nodes")

    def __init__(self, sid, name, layer, parent, op):
        self.sid, self.name, self.layer = sid, name, layer
        self.parent, self.op = parent, op
        self.start = self.end = 0.0
        self.error = False
        self.evals = 0            # integrand evaluations inside a quadrature
        self.evaluate_calls = 0   # folded lcfn.expr.evaluate records
        self.evaluate_s = 0.0
        self.nodes = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op = 0

    @contextmanager
    def span(self, name: str):
        """A top-level span starts a new operation; nested spans share
        its op id."""
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self.op += 1
        s = Span(len(self.spans), name, name.split(".", 1)[0],
                 parent.sid if parent else None, self.op)
        self.spans.append(s)
        self._stack.append(s)
        s.start = _clock()
        try:
            yield s
        except BaseException:
            s.error = True
            raise
        finally:
            s.end = _clock()
            self._stack.pop()

    def record_evaluate(self, dt: float, nodes: int) -> None:
        s = self._stack[-1] if self._stack else None
        if s is None:
            return
        s.evaluate_calls += 1
        s.evaluate_s += dt
        s.nodes += nodes

    # -- summaries -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration minus the time of child spans and folded evaluate
        calls (children nest inside the parent, so their intervals are
        disjoint and the covered part is their sum)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - child[s.sid] - s.evaluate_s
                for s in self.spans]

    def layer_totals(self) -> dict:
        out: dict = {}
        selfs = self.self_times()
        for s, own in zip(self.spans, selfs):
            row = out.setdefault(s.layer, {"calls": 0, "self_s": 0.0, "errors": 0})
            row["calls"] += 1
            row["self_s"] += own
            row["errors"] += int(s.error)
        expr = out.setdefault("expr", {"calls": 0, "self_s": 0.0, "errors": 0})
        for s in self.spans:
            expr["calls"] += s.evaluate_calls
            expr["self_s"] += s.evaluate_s
        return out

    def evaluate_totals(self) -> tuple[int, float, int]:
        calls = sum(s.evaluate_calls for s in self.spans)
        secs = sum(s.evaluate_s for s in self.spans)
        nodes = sum(s.nodes for s in self.spans)
        return calls, secs, nodes

    def quadrature_totals(self) -> tuple[int, int]:
        qs = [s for s in self.spans if s.layer == "quadrature"]
        return len(qs), sum(s.evals for s in qs)

    def evals_under(self, root: Span, name: str | None = None) -> int:
        """Integrand evaluations in quadrature spans below ``root``, only
        in spans called ``name`` when given."""
        inside = {root.sid}
        total = 0
        for s in self.spans[root.sid + 1:]:
            if s.parent in inside:
                inside.add(s.sid)
                if s.layer == "quadrature" and name in (None, s.name):
                    total += s.evals
        return total


def count_nodes(e, cache: dict) -> int:
    key = id(e)
    hit = cache.get(key)
    if hit is not None and hit[0] is e:
        return hit[1]
    n = 1
    for field in ("arg", "left", "right"):
        child = getattr(e, field, None)
        if child is not None:
            n += count_nodes(child, cache)
    cache[key] = (e, n)  # keeps e alive so its id is not reused
    return n


# The names the hooks wrap; a refactor that removes one must update the
# benchmark, not read as a speed-up.
QUADRATURE_SITES = {
    "calculus": ("integrate_scalar", "gauss_legendre"),
    "variational": ("integrate_scalar", "adaptive_simpson"),
}
EVALUATE_SITES = ("calculus", "variational")


class Hooks:
    """Installs and removes the counting wrappers; use as a context
    manager around the traced part of a run."""

    def __init__(self, tracer: Tracer, lcfn_pkg):
        self.tracer = tracer
        self.pkg = lcfn_pkg
        self._saved: list[tuple[object, str, object]] = []
        self._nodes: dict = {}

    def __enter__(self):
        mods = {name: getattr(self.pkg, name, None)
                for name in set(QUADRATURE_SITES) | set(EVALUATE_SITES)}
        for name, mod in mods.items():
            if mod is None:
                raise HookMissing(f"lcfn.{name} is gone")
        for name in EVALUATE_SITES:
            if not callable(getattr(getattr(mods[name], "ex", None), "evaluate", None)):
                raise HookMissing(f"lcfn.{name} no longer calls ex.evaluate")
        for name, attrs in QUADRATURE_SITES.items():
            for attr in attrs:
                if not callable(getattr(mods[name], attr, None)):
                    raise HookMissing(f"lcfn.{name}.{attr} is gone")
        # Every site exists; only now swap, so a failure leaves lcfn intact.
        for name in EVALUATE_SITES:
            self._swap(mods[name], "ex", self._expr_proxy(mods[name].ex))
        for name, attrs in QUADRATURE_SITES.items():
            for attr in attrs:
                fn = getattr(mods[name], attr)
                self._swap(mods[name], attr, self._quad_wrapper(attr, fn))
        return self

    def __exit__(self, *exc):
        for obj, attr, old in reversed(self._saved):
            setattr(obj, attr, old)
        self._saved.clear()
        return False

    def _swap(self, obj, attr, new):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def _expr_proxy(self, ex):
        """A stand-in for the ``ex`` module alias whose ``evaluate`` is
        counted; every other attribute is the real module's."""
        real = ex.evaluate
        tracer, cache = self.tracer, self._nodes

        def evaluate(e, t, eps=None):
            t0 = _clock()
            try:
                return real(e, t, eps)
            finally:
                tracer.record_evaluate(_clock() - t0, count_nodes(e, cache))

        proxy = types.ModuleType(ex.__name__)
        proxy.__dict__.update(ex.__dict__)
        proxy.evaluate = evaluate
        return proxy

    def _quad_wrapper(self, attr, real):
        tracer = self.tracer
        name = f"quadrature.{attr}"

        def wrapper(fn, *args, **kwargs):
            with tracer.span(name) as s:
                def counted(x):
                    s.evals += 1
                    return fn(x)
                return real(counted, *args, **kwargs)

        return wrapper


class NullTracer:
    """The untraced stand-in: spans cost one method call and record nothing."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null
