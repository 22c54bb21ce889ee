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
from .scenarios import load_scenario, parse_scenario

SCHEMA = 1
_TIER_LABEL = {1: "I", 2: "II", 3: "III"}

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NONCONVERGENT = 3


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lcfn",
        description="Arithmetic, order, calculus, and variational checks "
                    "for linearly correlated fuzzy numbers.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, scenario=False, quadrature=False):
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

    p = sub.add_parser("compare", help="three-way order comparison")
    common(p)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_compare)

    for name, handler in (("norm", _cmd_norm), ("classify", _cmd_classify)):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("element")
        p.set_defaults(handler=handler)

    p = sub.add_parser("cross", help="interactive product of two elements")
    common(p)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_cross)

    p = sub.add_parser("alpha-level")
    common(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("element", nargs="?", default=None,
                   help="omit to query the generator itself")
    p.set_defaults(handler=_cmd_alpha_level)

    p = sub.add_parser("differentiate")
    common(p, scenario=True)
    p.add_argument("--at", type=float, required=True)
    p.set_defaults(handler=_cmd_differentiate)

    p = sub.add_parser("integrate")
    common(p, scenario=True, quadrature=True)
    p.set_defaults(handler=_cmd_integrate)

    p = sub.add_parser("critical-points")
    common(p, scenario=True)
    p.add_argument("--grid", type=int, default=vr.SCAN_GRID)
    p.set_defaults(handler=_cmd_critical_points)

    p = sub.add_parser("verify", help="run a theorem checker")
    p.add_argument("what", choices=("lagrange", "dbr-forward",
                                    "dbr-reconstruct", "interchange",
                                    "ftc", "ibp"))
    common(p, scenario=True, quadrature=True)
    p.add_argument("--eps0", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=vr.EPSILON)
    p.add_argument("--l", dest="smoothness", type=int, default=vr.SMOOTHNESS)
    p.add_argument("--k", dest="indices",
                   default=",".join(map(str, vr.DEFAULT_INDICES)),
                   help="comma-separated mollifier index ladder")
    p.add_argument("--grid", type=int, default=None)
    p.set_defaults(handler=_cmd_verify)

    return parser


# -- argument plumbing ---------------------------------------------------------

def _generator(args) -> Generator:
    if args.gen is None:
        raise LcfnError("--gen is required for this verb")
    return load_generator(args.gen)


def _spec(args) -> QuadratureSpec:
    if args.tol is not None:
        return QuadratureSpec(abs_tol=args.tol)
    return QuadratureSpec()


def _function(args, two_variable=False):
    """Scenario file or inline --r/--q/--domain; --gen overrides."""
    override = load_generator(args.gen) if args.gen else None
    if args.scenario:
        return load_scenario(args.scenario, override)
    if args.r_src is None or args.q_src is None or args.domain is None:
        raise LcfnError("need --scenario or all of --r, --q, --domain")
    if override is None:
        raise LcfnError("--gen is required with inline --r/--q")
    cfg = {"r": args.r_src, "q": args.q_src, "domain": list(args.domain)}
    if two_variable:
        if args.eps0 is None:
            raise LcfnError("inline interchange functions need --eps0")
        cfg["eps0"] = args.eps0
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


def _cmd_verify(args):
    what = args.what
    spec = _spec(args)
    if what == "interchange":
        scenario = _function(args, two_variable=True)
        if scenario.eps0 is None:
            raise LcfnError("interchange needs eps0 (scenario key or --eps0)")
        eps0 = args.eps0 if args.eps0 is not None else scenario.eps0
        report = interchange_check(scenario.f, eps0, spec)
    else:
        scenario = _function(args)
        if what == "ftc":
            report = ftc_check(scenario.f, spec)
        elif what == "ibp":
            report = ibp_check(scenario.f, _require_partner(scenario), spec)
        elif what == "dbr-forward":
            report = vr.dbr_forward_check(scenario.f,
                                          _require_partner(scenario),
                                          spec=spec)
        elif what == "dbr-reconstruct":
            grid = args.grid if args.grid is not None else vr.RECONSTRUCT_GRID
            report = vr.dbr_reconstruct(scenario.f, spec, grid=grid).to_report()
        else:  # lagrange
            indices = _index_ladder(args.indices)
            grid = args.grid if args.grid is not None else vr.LAGRANGE_GRID
            report = vr.lagrange_scan(scenario.f, epsilon=args.epsilon,
                                      smoothness=args.smoothness,
                                      indices=indices, grid=grid, spec=spec)
    doc = _doc("verify", what=what, report=report.to_dict())
    return doc, not report.passed


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
