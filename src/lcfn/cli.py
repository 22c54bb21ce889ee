"""Command-line front end.

Exit codes, for CI triage:

    0  success (and, for verify verbs, the check passed)
    1  a mathematical check failed
    2  usage or configuration error
    3  quadrature did not converge

All JSON output is schema-versioned and byte-stable for a fixed
invocation: keys are sorted, grids and quadratures are deterministic, and
nothing timestamped is emitted.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys

from . import variational as vr
from .calculus import (
    deriv,
    ftc_check,
    ibp_check,
    integrate,
    interchange_check,
)
from .core import compare_with_tier, element_payload, parse_element
from .errors import EvalError, LcfnError, QuadratureNonConvergent
from .generator import Generator, load_generator
from .quadrature import QuadratureSpec
from .scenarios import parse_scenario

SCHEMA = 1
_TIER_LABEL = {1: "I", 2: "II", 3: "III"}

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NONCONVERGENT = 3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser(argv[0] if argv else None).parse_args(argv)
    except _UsageError:  # the full parser's usage lists every verb
        args = _build_parser().parse_args(argv)
    try:
        doc, failed = args.handler(args)
        _emit(doc, args)
    except QuadratureNonConvergent as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NONCONVERGENT
    except (LcfnError, OSError, json.JSONDecodeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_CHECK_FAILED if failed else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reads every negative float literal (-1e-3, -.5, -inf, -nan) as a
    value, not an option; subparsers inherit the class.  argparse's own
    pattern takes only -1 and -1.5, so -1e-3 parses on some Pythons only."""

    _NEGATIVE = re.compile(
        r"-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)\Z", re.I)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self._NEGATIVE


class _UsageError(Exception):
    pass


class _OneVerbParser(_Parser):
    """The parser of one verb.  Its usage would list that verb alone, so
    on any usage error it raises, and ``main`` parses again in full."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser(verb=None) -> argparse.ArgumentParser:
    """The ``lcfn`` parser with the subparser of ``verb`` only, when it
    names one, else with all of them: a launch builds the verb it runs."""
    one = verb in _VERBS
    parser = (_OneVerbParser if one else _Parser)(
        prog="lcfn",
        description="Arithmetic, order, calculus, and variational checks "
                    "for linearly correlated fuzzy numbers.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name in (verb,) if one else _VERBS:
        add_arguments, handler, help_ = _VERBS[name]
        p = sub.add_parser(name, help=help_) if help_ else sub.add_parser(name)
        add_arguments(p)
        p.set_defaults(handler=handler)
    return parser


def _common(p, scenario=False, quadrature=False):
    p.add_argument("--format", choices=("json", "text", "csv"),
                   default="json")
    p.add_argument("--out", default=None, help="write output to a file")
    if quadrature:
        p.add_argument("--tol", type=float, default=None,
                       help="quadrature absolute tolerance override")
    p.add_argument("--gen", default=None, help="generator config path")
    if scenario:
        p.add_argument("--scenario", default=None, help="scenario path")
        p.add_argument("--r", dest="r_src", default=None)
        p.add_argument("--q", dest="q_src", default=None)
        p.add_argument("--domain", nargs=2, type=float, default=None,
                       metavar=("A", "B"))


def _two_elements(p):
    _common(p)
    p.add_argument("left")
    p.add_argument("right")


def _one_element(p):
    _common(p)
    p.add_argument("element")


def _alpha_level_args(p):
    _common(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("element", nargs="?", default=None,
                   help="omit to query the generator itself")


def _differentiate_args(p):
    _common(p, scenario=True)
    p.add_argument("--at", type=float, required=True)


def _integrate_args(p):
    _common(p, scenario=True, quadrature=True)


def _critical_points_args(p):
    _common(p, scenario=True)
    p.add_argument("--grid", type=int, default=vr.SCAN_GRID)


def _verify_args(p):
    p.add_argument("what", choices=("lagrange", "dbr-forward",
                                    "dbr-reconstruct", "interchange",
                                    "ftc", "ibp"))
    _common(p, scenario=True, quadrature=True)
    # each defaults to None: the library default applies unless given
    p.add_argument("--eps0", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--l", dest="smoothness", type=int)
    p.add_argument("--k", dest="indices",
                   help="comma-separated mollifier index ladder")
    p.add_argument("--grid", type=int)


# -- argument plumbing ---------------------------------------------------------

def _generator(args) -> Generator:
    if args.gen is None:
        raise LcfnError("--gen is required for this verb")
    return load_generator(args.gen)


def _spec(args) -> QuadratureSpec:
    if args.tol is not None:
        return QuadratureSpec(abs_tol=args.tol)
    return QuadratureSpec()


def _function(args):
    """One scenario config, read from --scenario or made from
    --r/--q/--domain, never both; --gen overrides its generator, --eps0
    its eps0."""
    inline = [flag for flag, value in (("--r", args.r_src),
                                       ("--q", args.q_src),
                                       ("--domain", args.domain))
              if value is not None]
    if args.scenario and inline:
        raise LcfnError(f"--scenario cannot go with {', '.join(inline)}: the "
                        "scenario sets r, q and the domain (only --gen and "
                        "--eps0 override it)")
    override = load_generator(args.gen) if args.gen else None
    if args.scenario:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    elif args.r_src is None or args.q_src is None or args.domain is None:
        raise LcfnError("need --scenario or all of --r, --q, --domain")
    elif override is None:
        raise LcfnError("--gen is required with inline --r/--q")
    else:
        cfg = {"r": args.r_src, "q": args.q_src, "domain": list(args.domain)}
    if getattr(args, "eps0", None) is not None and isinstance(cfg, dict):
        cfg["eps0"] = args.eps0  # parse_scenario rejects a non-object cfg
    return parse_scenario(cfg, override)


def _doc(verb: str, **payload) -> dict:
    return {"schema": SCHEMA, "verb": verb, **payload}


# -- verb handlers -------------------------------------------------------------

def _cmd_compare(args):
    gen = _generator(args)
    left = parse_element(args.left, gen)
    right = parse_element(args.right, gen)
    result, tier = compare_with_tier(left, right)
    payload = {"left": element_payload(left),
               "right": element_payload(right),
               "result": result.name.lower()}
    if tier is not None:
        payload["tier"] = tier
    return _doc("compare", **payload), False


def _cmd_norm(args):
    b = parse_element(args.element, _generator(args))
    return _doc("norm", element=element_payload(b), norm=b.norm()), False


def _cmd_classify(args):
    b = parse_element(args.element, _generator(args))
    return _doc("classify", element=element_payload(b),
                **{"class": b.sign_class().value}), False


def _cmd_cross(args):
    gen = _generator(args)
    product = parse_element(args.left, gen).cross(parse_element(args.right, gen))
    return _doc("cross", result=element_payload(product)), False


def _cmd_alpha_level(args):
    gen = _generator(args)
    if args.element is None:
        lo, hi = gen.alpha_level(args.alpha)
    else:
        lo, hi = parse_element(args.element, gen).alpha_level(args.alpha)
    return _doc("alpha-level", alpha=args.alpha, interval=[lo, hi]), False


def _cmd_differentiate(args):
    scenario = _function(args)
    value = deriv(scenario.f, args.at)
    return _doc("differentiate", at=args.at,
                result=element_payload(value)), False


def _cmd_integrate(args):
    scenario = _function(args)
    value = integrate(scenario.f, _spec(args))
    return _doc("integrate", result=element_payload(value)), False


def _cmd_critical_points(args):
    scenario = _function(args)
    points = vr.critical_points(scenario.f, grid=args.grid)
    return _doc("critical-points",
                points=[p.to_dict() for p in points]), False


# verify options by dest: the flag and the checks that take it
_VERIFY_OPTIONS = {
    "epsilon": ("--epsilon", ("lagrange",)),
    "smoothness": ("--l", ("lagrange",)),
    "indices": ("--k", ("lagrange",)),
    "grid": ("--grid", ("lagrange", "dbr-reconstruct")),
    "eps0": ("--eps0", ("interchange",)),
}


def _cmd_verify(args):
    what = args.what
    given = {dest: getattr(args, dest) for dest in _VERIFY_OPTIONS
             if getattr(args, dest) is not None}
    for dest in given:
        flag, checks = _VERIFY_OPTIONS[dest]
        if what not in checks:
            raise LcfnError(f"verify {what} takes no {flag} "
                            f"(checks that do: {', '.join(checks)})")
    if "indices" in given:
        given["indices"] = _index_ladder(given["indices"])
    spec = _spec(args)
    scenario = _function(args)
    if what == "interchange":
        if scenario.eps0 is None:
            raise LcfnError(
                "interchange needs eps0: a scenario 'eps0' key or --eps0")
        report = interchange_check(scenario.f, scenario.eps0, spec)
    elif what == "ftc":
        report = ftc_check(scenario.f, spec)
    elif what == "ibp":
        report = ibp_check(scenario.f, _require_partner(scenario), spec)
    elif what == "dbr-forward":
        report = vr.dbr_forward_check(scenario.f, _require_partner(scenario),
                                      spec=spec)
    elif what == "dbr-reconstruct":
        report = vr.dbr_reconstruct(scenario.f, spec, **given).to_report()
    else:  # lagrange
        report = vr.lagrange_scan(scenario.f, spec=spec, **given)
    doc = _doc("verify", what=what, report=report.to_dict())
    return doc, not report.passed


# verb: (its arguments, its handler, its help line), in the order that
# `lcfn -h` lists them
_VERBS = {
    "compare": (_two_elements, _cmd_compare, "three-way order comparison"),
    "norm": (_one_element, _cmd_norm, None),
    "classify": (_one_element, _cmd_classify, None),
    "cross": (_two_elements, _cmd_cross,
              "interactive product of two elements"),
    "alpha-level": (_alpha_level_args, _cmd_alpha_level, None),
    "differentiate": (_differentiate_args, _cmd_differentiate, None),
    "integrate": (_integrate_args, _cmd_integrate, None),
    "critical-points": (_critical_points_args, _cmd_critical_points, None),
    "verify": (_verify_args, _cmd_verify, "run a theorem checker"),
}


def _index_ladder(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(k) for k in text.split(","))
    except ValueError:
        raise ValueError(
            f"--k needs comma-separated integers, got {text!r}") from None


def _require_partner(scenario):
    if scenario.partner is None:
        raise LcfnError("this check needs a scenario with a 'partner' entry")
    return scenario.partner


# -- output --------------------------------------------------------------------

def _emit(doc: dict, args) -> None:
    # json.dumps also checks, for every format, that each number is finite
    try:
        text = json.dumps(doc, sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
    except ValueError:
        lines = []
        _flatten(doc, "", lines)
        bad = [ln for ln in lines if ln.endswith((": inf", ": -inf", ": nan"))]
        raise EvalError(f"non-finite result: {', '.join(bad)}") from None
    fmt = getattr(args, "format", "json")
    if fmt == "text":
        text = _to_text(doc)
    elif fmt == "csv":
        text = _to_csv(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_text(doc: dict) -> str:
    lines = []
    if doc["verb"] == "compare":
        label = doc["result"].capitalize()
        if "tier" in doc:
            label += f" (tier {_TIER_LABEL[doc['tier']]})"
        lines.append(label)
    else:
        _flatten(doc, "", lines)
    return "\n".join(lines) + "\n"


def _flatten(node, prefix, lines):
    if isinstance(node, dict):
        for key in sorted(node):
            _flatten(node[key], f"{prefix}{key}.", lines)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            _flatten(item, f"{prefix}{i}.", lines)
    else:
        lines.append(f"{prefix[:-1]}: {node}")


def _to_csv(doc: dict) -> str:
    records = doc.get("report", {}).get("records")
    if not records:
        raise LcfnError("csv output is only available for grid reports")
    buf = io.StringIO()
    fields = sorted({key for rec in records for key in rec})
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    for rec in records:
        writer.writerow({k: rec.get(k, "") for k in fields})
    return buf.getvalue()


if __name__ == "__main__":
    sys.exit(main())
