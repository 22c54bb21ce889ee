"""The layer panel of a traced run: fixed probes of every lcfn module.

Timings are taken with the counting hooks off; counts are taken in a
second, hooked execution of the same call, so hook overhead never enters
a timing.  Every probe sits under a span named after its layer, which
the layer totals (``<layer>.calls``, ``.self_s``, ``.errors``) add up
together with the workload's own traced pass.
"""
from __future__ import annotations

import contextlib
import io
import math
import random
import re
import statistics
import subprocess
import sys
import time

import oracle as orc
import workloads as wls

_clock = time.perf_counter

LAYERS = ("import", "cli", "scenarios", "generator", "core", "expr",
          "quadrature", "calculus", "variational")
CLI_VERBS = tuple(v for v in wls.CliLaunch.VERBS if v != "integrate-sqrt")
CALC_CHECKS = ("ftc", "ibp", "square", "interchange", "integrate", "cumulative")
#: Scalar integrands passed to lcfn.quadrature with the benchmark's own
#: counting callable: (name, integrand, a, b, closed-form value).
QUAD_PANEL = (
    ("cubic", lambda t: t ** 3 + t, 0.0, 1.0, 0.75),
    ("sine", math.sin, 0.0, math.pi, 2.0),
    ("exp", math.exp, 0.0, 1.0, math.e - 1.0),
    ("runge", lambda t: 1.0 / (1.0 + 25.0 * t * t), -1.0, 1.0, 0.4 * math.atan(5.0)),
    ("sqrt_shift", lambda t: math.sqrt(t + 0.01), 0.0, 1.0,
     (2.0 / 3.0) * (1.01 ** 1.5 - 0.01 ** 1.5)),
    ("sqrt", math.sqrt, 0.0, 1.0, 2.0 / 3.0),
    ("t1000", lambda t: t ** 1000, 0.0, 2.0, 2.0 ** 1001 / 1001.0),
)
#: Panel integrands the current quadrature is known not to converge on
#: (benign integrals; ROADMAP item 5).
QUAD_KNOWN_NONCONVERGENT = ("sqrt", "t1000")


def median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = _clock()
        fn()
        times.append(_clock() - t0)
    return statistics.median(times)


def per_call(fn, items, reps: int = 3) -> float:
    """Median over reps of the mean time of fn over items."""
    def batch():
        for item in items:
            fn(item)
    return median_time(batch, reps) / len(items)


class Panel:
    def __init__(self, lcfn, tracer, hooks, seed, workdir, root):
        self.lcfn, self.tracer, self.hooks = lcfn, tracer, hooks
        self.seed, self.workdir, self.root = seed, workdir, root
        self.m: dict = {}
        self.failures: list = []

    def put(self, name, value, unit):
        self.m[name] = (value, unit)

    def counted(self, span_name, fn):
        """Run fn once with hooks on under a span; integrand evals below it."""
        with self.hooks:
            with self.tracer.span(span_name) as s:
                out = fn()
        return out, self.tracer.evals_under(s)

    # -- import ----------------------------------------------------------------
    def imports(self):
        env = wls.child_env(self.root)
        inter, lc, npy = [], [], []
        for _ in range(3):
            with self.tracer.span("import.interpreter"):
                t0 = _clock()
                subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
                inter.append(_clock() - t0)
            with self.tracer.span("import.lcfn"):
                proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                                       "import lcfn"], env=env, check=True,
                                      capture_output=True, text=True)
            cum = importtime(proc.stderr)
            if "lcfn" not in cum:
                raise RuntimeError("-X importtime reported no lcfn import")
            lc.append(cum["lcfn"])
            npy.append(cum.get("numpy", 0.0))
        self.put("import.interpreter_ms", statistics.median(inter) * 1e3, "ms")
        self.put("import.lcfn_ms", statistics.median(lc) / 1e3, "ms")
        self.put("import.numpy_ms", statistics.median(npy) / 1e3, "ms")

    # -- cli -------------------------------------------------------------------
    def cli(self):
        cl = wls.CliLaunch(self.lcfn, self.root, self.seed, self.workdir)
        cl.draw()
        cl.build()
        main = self.lcfn.cli.main
        mains, launches = [], []
        for verb in CLI_VERBS:
            argv = cl.argv(verb, 0)

            def run(argv=argv):
                with contextlib.redirect_stdout(io.StringIO()):
                    return main(argv)

            with self.tracer.span("cli.main"):
                t = median_time(run, 3)
            self.put(f"cli.main_ms.{verb}", t * 1e3, "ms")
            with self.tracer.span("cli.launch"):
                t0 = _clock()
                cl.launch(argv)
                launches.append(_clock() - t0)
            mains.append(t)
        self.put("cli.startup_share", 1.0 - math.fsum(mains) / math.fsum(launches),
                 "fraction")

    # -- scenarios and generator ------------------------------------------------
    def scenarios_generator(self):
        sc = self.lcfn.scenarios
        with self.tracer.span("scenarios.load_catalog"):
            t = median_time(sc.load_catalog, 5)
        self.put("scenarios.load_ms", t * 1e3, "ms")
        rng = random.Random(self.seed)
        cfgs = [wls.random_generator(rng) for _ in range(200)]
        Gen = self.lcfn.Generator
        with self.tracer.span("generator.build"):
            t = per_call(Gen.from_config, cfgs)
        self.put("generator.build_us", t * 1e6, "us")
        gens = [Gen.from_config(c) for c in cfgs[:20]]
        alphas = [(g, rng.random()) for g in gens for _ in range(50)]
        with self.tracer.span("generator.alpha_level"):
            t = per_call(lambda ga: ga[0].alpha_level(ga[1]), alphas)
        self.put("generator.alpha_level_ns", t * 1e9, "ns")

    # -- core ------------------------------------------------------------------
    def core(self):
        lc = self.lcfn
        ob = wls.OrderBatch(lc, self.root, self.seed, self.workdir)
        ob.draw()
        ob.build()
        ob.expect()
        probes = (
            ("core.compare_ns", "compare", lambda a: lc.compare(*a), 1e9),
            ("core.compare_near_tie_ns", "compare_near_tie",
             lambda a: lc.compare(*a), 1e9),
            ("core.cross_ns", "cross", lambda a: a[0].cross(a[1]), 1e9),
            ("core.cross_oracle_ns", "cross_oracle", lambda a: lc.cross_oracle(*a), 1e9),
            ("core.norm_ns", "norm", lambda a: a.norm(), 1e9),
            ("core.sign_class_ns", "sign_class", lambda a: a.sign_class(), 1e9),
            ("core.parse_element_us", "parse_element",
             lambda a: lc.parse_element(*a), 1e6),
        )
        for name, kind, fn, scale in probes:
            with self.tracer.span("core." + name.split(".")[1].rsplit("_", 1)[0]):
                t = per_call(fn, ob.args[kind])
            self.put(name, t * scale, name.rsplit("_", 1)[1])
        pairs = ob.args["compare_near_tie"]
        wrong = sum(int(lc.compare(*a)) != ob.exp["compare_near_tie"][k][0]
                    for k, a in enumerate(pairs))
        self.put("core.exact_disagree_frac", wrong / len(pairs), "fraction")

    # -- expr ------------------------------------------------------------------
    def expr(self):
        ex = self.lcfn.expr
        rng = random.Random(self.seed)
        srcs = [wls.shaped_component(rng, terms).src()
                for _ in range(4) for shape in wls.SHAPES for terms in shape[1:]]
        with self.tracer.span("expr.parse"):
            t = per_call(ex.parse, srcs)
        self.put("expr.parse_us", t * 1e6, "us")
        trees = [ex.parse(s) for s in srcs]
        with self.tracer.span("expr.differentiate"):
            t = per_call(ex.differentiate, trees)
        self.put("expr.differentiate_us", t * 1e6, "us")

    # -- quadrature --------------------------------------------------------------
    def quadrature(self):
        qd = self.lcfn.quadrature
        spec = qd.QuadratureSpec()
        evals, secs, nonconv = 0, 0.0, 0
        for name, fn, a, b, exact in QUAD_PANEL:
            count = [0]

            def counted(x, fn=fn, count=count):
                count[0] += 1
                return fn(x)

            t0 = _clock()
            try:
                with self.tracer.span("quadrature.panel"):
                    value = qd.integrate_scalar(counted, a, b, spec)
            except self.lcfn.errors.QuadratureNonConvergent:
                nonconv += 1
                if name not in QUAD_KNOWN_NONCONVERGENT:
                    self.failures.append(("quadrature.panel", f"{name} did not converge"))
            else:
                if not abs(value - exact) <= 1e-8 * max(1.0, abs(exact)):
                    self.failures.append(("quadrature.panel", f"{name}: {value} != {exact}"))
            with self.tracer.span("quadrature.panel"):
                gl = qd.gauss_legendre(counted, a, b, spec.nodes)
            if name in ("cubic", "sine", "exp") and not abs(gl - exact) <= 1e-12:
                self.failures.append(("quadrature.panel", f"{name}: GL {gl} != {exact}"))
            secs += _clock() - t0
            evals += count[0]
        self.put("quadrature.panel_evals", evals, "count")
        self.put("quadrature.panel_ms", secs * 1e3, "ms")
        self.put("quadrature.panel_nonconvergent", nonconv, "count")

    # -- calculus --------------------------------------------------------------
    def calculus(self):
        lc = self.lcfn
        catalog = lc.scenarios.load_catalog()
        rng = random.Random(self.seed)
        ich = [lc.scenarios.parse_scenario(wls.interchange_case(rng, f"i{k}", k)[0])
               for k in range(6)]
        calls = {
            "ftc": [lambda s=s: lc.ftc_check(s.f) for s in catalog],
            "ibp": [lambda s=s: lc.ibp_check(s.f, s.partner) for s in catalog],
            "square": [lambda s=s: lc.square_integral(s.f) for s in catalog],
            "interchange": [lambda s=s: lc.interchange_check(s.f, s.eps0) for s in ich],
            "integrate": [lambda s=s: lc.integrate(s.f) for s in catalog],
            "cumulative": [lambda s=s: lc.CumulativeIntegral(s.f) for s in catalog],
        }
        for check in CALC_CHECKS:
            fns = calls[check]
            with self.tracer.span(f"calculus.{check}"):
                times = [median_time(fn, 3) for fn in fns]
            evals = sum(self.counted(f"calculus.{check}", fn)[1] for fn in fns)
            self.put(f"calculus.{check}_ms", statistics.median(times) * 1e3, "ms")
            self.put(f"calculus.{check}_evals", evals, "count")

    # -- variational -----------------------------------------------------------
    def variational(self):
        lc, vr = self.lcfn, self.lcfn.variational
        cat = {s.name: s for s in lc.scenarios.load_catalog()}
        pairs = [cat["s09_dbr_pair"], cat["s10_dbr_perturbed"]]
        fns = [lambda s=s: vr.dbr_forward_check(s.f, s.partner) for s in pairs]
        with self.tracer.span("variational.dbr_forward"):
            times = [median_time(fn, 1) for fn in fns]
        evals = 0
        for fn, want in zip(fns, (True, False)):
            rep, n = self.counted("variational.dbr_forward", fn)
            evals += n
            if rep.passed is not want:
                self.failures.append(("variational.dbr_forward", f"passed {rep.passed}"))
        self.put("variational.dbr_forward_ms", statistics.median(times) * 1e3, "ms")
        self.put("variational.dbr_forward_evals", evals, "count")

        s06 = cat["s06_recovery_window"]
        with self.tracer.span("variational.lagrange_scan"):
            t0 = _clock()
            vr.lagrange_scan(s06.f)
            plain = _clock() - t0
        with self.hooks:
            with self.tracer.span("variational.lagrange_scan") as root:
                t0 = _clock()
                vr.lagrange_scan(s06.f)
                hooked = _clock() - t0
        total = self.tracer.evals_under(root)
        # adaptive_simpson has one caller in lcfn.variational: the kernel mass.
        kernel = self.tracer.evals_under(root, "quadrature.adaptive_simpson")
        self.put("variational.lagrange_scan_s", plain, "s")
        self.put("variational.lagrange_scan_evals", total, "count")
        self.put("variational.kernel_eval_share", kernel / total if total else 0.0,
                 "fraction")
        self.put("trace.lagrange_overhead_frac", (hooked - plain) / plain, "fraction")

        builds = [(eps, l, k) for eps in (0.1, 0.2) for l in (1, 2) for k in (1, 4, 16)]
        with self.tracer.span("variational.kernel_build"):
            t = per_call(lambda b: vr.DiracKernel.build(*b), builds, reps=1)
        evals = 0
        for b in builds:
            kern, n = self.counted("variational.kernel_build",
                                   lambda b=b: vr.DiracKernel.build(*b))
            evals += n
            want = orc.dirac_mass(*b)
            if not abs(kern.mass_norm - want) <= 1e-8 * want:
                self.failures.append(("variational.kernel_build",
                                      f"{b}: mass {kern.mass_norm} != {want}"))
        self.put("variational.kernel_build_ms", t * 1e3, "ms")
        self.put("variational.kernel_build_evals", evals / len(builds), "count")

        cases = [c for c in wls.catalog_cases() if c.name not in orc.DEGENERATE_CENTER]
        with self.tracer.span("variational.critical_points"):
            times = [median_time(lambda c=c: vr.critical_points(cat[c.name].f), 3)
                     for c in cases]
        for c in cases:
            pts = [(p.t_star, p.verdict.value) for p in vr.critical_points(cat[c.name].f)]
            if wls.points_status(pts, c) != wls.OK:
                self.failures.append(("variational.critical_points", f"{c.name}: {pts}"))
        self.put("variational.critical_points_ms", statistics.median(times) * 1e3, "ms")

    # -- totals ----------------------------------------------------------------
    def totals(self):
        calls, secs, nodes = self.tracer.evaluate_totals()
        self.put("expr.evaluate_calls", calls, "count")
        self.put("expr.nodes_visited", nodes, "count")
        self.put("expr.evaluate_ns_per_node", secs / nodes * 1e9 if nodes else 0.0, "ns")
        qcalls, qevals = self.tracer.quadrature_totals()
        self.put("quadrature.calls", qcalls, "count")
        self.put("quadrature.evals", qevals, "count")
        self.put("quadrature.evals_per_call", qevals / qcalls if qcalls else 0.0, "count")
        rows = self.tracer.layer_totals()
        for layer in LAYERS:
            row = rows.get(layer, {"calls": 0, "self_s": 0.0, "errors": 0})
            self.put(f"{layer}.calls", row["calls"], "count")
            self.put(f"{layer}.self_s", row["self_s"], "s")
            self.put(f"{layer}.errors", row["errors"], "count")
        if calls == 0 or qevals == 0:
            raise RuntimeError("the traced run counted no evaluate calls or "
                               "integrand evaluations: a hook no longer sees the work")


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)")


def importtime(stderr: str) -> dict:
    """Cumulative microseconds per top-level package from -X importtime."""
    out = {}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m and m.group(3) in ("lcfn", "numpy"):
            out[m.group(3)] = float(m.group(2))
    return out


def panel(lcfn, tracer, hooks, seed, workdir, root):
    """Run every probe; returns (metrics, unexpected failures)."""
    p = Panel(lcfn, tracer, hooks, seed, workdir, root)
    for step in (p.imports, p.cli, p.scenarios_generator, p.core, p.expr,
                 p.quadrature, p.calculus, p.variational, p.totals):
        step()
    return p.m, p.failures
