"""Self-test of the benchmark: tiny runs of each workload, and planted
wrong answers that every oracle must count as failed.

    python3 perfbench/selftest.py        (from the repository root)
"""
from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import lcfn  # noqa: E402
import lcfn.cli  # noqa: E402,F401
import lcfn.scenarios  # noqa: E402,F401

import oracle as orc  # noqa: E402
import workloads as wls  # noqa: E402
from tracing import Hooks, HookMissing, NullTracer, Tracer  # noqa: E402

_SWAP = {"less": "greater", "greater": "less", "equal": "less",
         "positive": "negative", "negative": "zero", "zero": "positive",
         "local-min": "local-max", "local-max": "local-min"}


def corrupt(x):
    """A wrong answer of the same shape as x."""
    if isinstance(x, bool):
        return not x
    if isinstance(x, int):
        return x - 2 if x > 0 else x + 1
    if isinstance(x, float):
        return x * (1.0 + 1e-6) + 1e-6
    if isinstance(x, str):
        return _SWAP.get(x, x)
    if x is None:
        return 2
    if isinstance(x, (list, tuple)):
        if not x:
            return type(x)([None])
        return type(x)(corrupt(v) for v in x)
    if isinstance(x, dict):
        if "error" in x:
            return x
        return {k: v if k == "exit" else corrupt(v) for k, v in x.items()}
    return x


class Workdir:
    def __enter__(self):
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="selftest-",
                                     dir=os.path.join(ROOT, ".perfbench"))
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        return False


def make(name, workdir, seed=7):
    wl = wls.WORKLOADS[name](lcfn, ROOT, seed, workdir)
    wl.draw()
    wl.build()
    wl.expect()
    return wl


class TinyRuns(unittest.TestCase):
    def check_workload(self, name, cycles=1):
        with Workdir() as wd:
            wl = make(name, wd)
            ops = [op for i in range(cycles) for op in wl.cycle(i, NullTracer())]
            fails = [(op.kind, d) for op in ops for d in op.fails]
            self.assertEqual(fails, [])
            self.assertEqual({op.kind for op in ops},
                             set(getattr(wl, "KINDS", None) or getattr(wl, "OPS", None)
                                 or wl.VERBS))

            wl.corrupt = lambda kind, answer: corrupt(answer)
            bad = [op for i in range(cycles) for op in wl.cycle(i, NullTracer())]
            for op, wrong in zip(ops, bad):
                # Corrupting an answer that was already wrong on a known
                # defect may turn it right; every other one must fail.
                self.assertGreaterEqual(wrong.known + len(wrong.fails), op.n - op.known,
                                        f"planted wrong {op.kind} answer passed")

    def test_order_batch(self):
        self.check_workload("order-batch", cycles=3)

    def test_checker_sweep(self):
        self.check_workload("checker-sweep")

    def test_cli_launch(self):
        self.check_workload("cli-launch")

    def test_known_defects_stay_visible(self):
        with Workdir() as wd:
            wl = make("checker-sweep", wd)
            ops = wl.cycle(0, NullTracer())
            sqrt = [op for op in ops if op.kind == "integrate_sqrt"]
            self.assertEqual(sqrt[0].known, 1)


class Oracles(unittest.TestCase):
    def test_order_is_exact(self):
        a_m = 0.1
        b = (0.3, 1.0)
        c = (0.4, 0.0)  # 0.3 + 0.1 rounds to 0.4 but is not 0.4 exactly
        self.assertEqual(orc.order(b, c, a_m)[1], 1)
        self.assertEqual(orc.order(b, b, a_m), (0, None))

    def test_dirac_mass_matches_quadrature(self):
        n = 4
        val = orc.quad(lambda x: ((math.cos(math.pi * x / 0.2) + 1) / 2) ** n,
                       -0.2, 0.2)
        self.assertAlmostEqual(orc.dirac_mass(0.2, 1, 2), val, places=12)

    def test_term_library_closed_forms(self):
        comp = orc.component((1.5, ("sin", 2.0)), (-0.5, ("log", 1.0)),
                             (0.25, ("sqrt", 0.5)), (1.0, ("recip", 0.0)),
                             (2.0, ("tsin", 0.0)), (-1.0, ("exp", -0.5)))
        self.assertAlmostEqual(comp.integral(0.2, 1.7),
                               orc.quad(comp.value, 0.2, 1.7), places=12)
        h = 1e-5
        for t in (0.3, 1.1):
            self.assertAlmostEqual(comp.d1(t), (comp.value(t + h) - comp.value(t - h))
                                   / (2 * h), places=8)
            self.assertAlmostEqual(comp.d2(t), (comp.d1(t + h) - comp.d1(t - h))
                                   / (2 * h), places=6)
        tree = lcfn.expr.parse(comp.src())
        for t in (0.0, 0.7):
            self.assertAlmostEqual(lcfn.expr.evaluate(tree, t), comp.value(t),
                                   places=13)


class Tracing(unittest.TestCase):
    def test_hooks_count_and_restore(self):
        with Workdir() as wd:
            wl = make("checker-sweep", wd)
            tracer = Tracer()
            real = lcfn.calculus.integrate_scalar
            with Hooks(tracer, lcfn):
                wl.cycle(0, tracer)
            self.assertIs(lcfn.calculus.integrate_scalar, real)
            calls, evals = tracer.quadrature_totals()
            self.assertGreater(evals, 0)
            self.assertGreater(tracer.evaluate_totals()[0], 0)
            self.assertTrue(all(s.op > 0 for s in tracer.spans))

            again = Tracer()
            with Hooks(again, lcfn):
                wl.cycle(0, again)
            self.assertEqual(again.quadrature_totals(), (calls, evals))

    def test_missing_hook_site_fails_loudly(self):
        saved = lcfn.variational.adaptive_simpson
        del lcfn.variational.adaptive_simpson
        try:
            with self.assertRaises(HookMissing):
                with Hooks(Tracer(), lcfn):
                    pass
        finally:
            lcfn.variational.adaptive_simpson = saved
        self.assertIs(lcfn.calculus.ex, lcfn.expr)

    def test_self_time_excludes_children(self):
        tracer = Tracer()
        with tracer.span("calculus.outer"):
            with tracer.span("quadrature.inner"):
                sum(range(10000))
        outer, inner = tracer.self_times()
        total = tracer.spans[0].end - tracer.spans[0].start
        self.assertAlmostEqual(outer + inner, total, places=9)


class Contract(unittest.TestCase):
    def test_refuses_without_sources(self):
        with Workdir() as wd:
            shutil.copytree(HERE, os.path.join(wd, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), wd)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "order-batch",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=wd, capture_output=True, text=True, timeout=120)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
