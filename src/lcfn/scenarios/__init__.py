"""Scenario files: a generator, a domain, component expressions, and an
optional partner function for the pairwise checks.

Schema::

    {
      "name": "...",                     # optional
      "gen": {...},                      # generator config
      "domain": [a, b],
      "r": "expr", "q": "expr",          # the primary function f
      "partner": {"r": "...", "q": "..."},  # optional g for ibp / dbr
      "eps0": 1.0                        # optional; r/q may then use eps
    }

The shipped catalog is the fixed regression surface for the calculus and
variational checkers.
"""
from __future__ import annotations

import json

from ..calculus import FuzzyFunction
from ..errors import LcfnError
from ..generator import Generator
from ..value import Value


class Scenario(Value):
    """A parsed scenario file."""

    __slots__ = ("name", "gen", "domain", "f", "partner", "eps0")

    def __init__(self, name: str, gen: Generator,
                 domain: tuple[float, float], f: FuzzyFunction,
                 partner: FuzzyFunction | None, eps0: float | None):
        self._set(name, gen, domain, f, partner, eps0)


def parse_scenario(cfg: dict, gen_override: Generator | None = None) -> Scenario:
    if not isinstance(cfg, dict):
        raise LcfnError(
            f"scenario must be a JSON object, got {type(cfg).__name__}")
    if gen_override is not None:
        gen = gen_override
    elif "gen" in cfg:
        gen = Generator.from_config(cfg["gen"])
    else:
        raise LcfnError("scenario has no 'gen' and no generator was supplied")
    try:
        domain = cfg["domain"]
        if not isinstance(domain, (list, tuple)) or len(domain) != 2:
            raise LcfnError(
                f"scenario key 'domain' must be [a, b], got {domain!r}")
        domain = tuple(_number(v, "'domain' entry") for v in domain)
        eps0 = cfg.get("eps0")
        two_var = eps0 is not None
        f = FuzzyFunction.from_strings(_source(cfg, "r"), _source(cfg, "q"),
                                       gen, domain, two_variable=two_var)
        partner = cfg.get("partner")
        if partner is not None:
            if not isinstance(partner, dict):
                raise LcfnError("scenario key 'partner' must be an object, "
                                f"got {type(partner).__name__}")
            partner = FuzzyFunction.from_strings(
                _source(partner, "r"), _source(partner, "q"), gen, domain)
    except KeyError as missing:
        raise LcfnError(f"scenario is missing key {missing}") from None
    return Scenario(name=cfg.get("name", "scenario"), gen=gen, domain=domain,
                    f=f, partner=partner,
                    eps0=_number(eps0, "'eps0'") if two_var else None)


def _number(value, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise LcfnError(
            f"scenario {what} must be a number, got {value!r}") from None


def _source(cfg: dict, key: str) -> str:
    value = cfg[key]
    if not isinstance(value, str):
        raise LcfnError(f"scenario key {key!r} must be an expression "
                        f"string, got {value!r}")
    return value


def catalog_names() -> tuple[str, ...]:
    from importlib import resources  # no CLI verb reads the catalog
    files = resources.files(__name__)
    return tuple(sorted(p.name for p in files.iterdir()
                        if p.name.endswith(".json")))


def load_catalog() -> tuple[Scenario, ...]:
    from importlib import resources
    files = resources.files(__name__)
    out = []
    for name in catalog_names():
        cfg = json.loads(files.joinpath(name).read_text(encoding="utf-8"))
        out.append(parse_scenario(cfg))
    return tuple(out)


def catalog_scenario(name: str) -> Scenario:
    for scenario in load_catalog():
        if scenario.name == name:
            return scenario
    raise KeyError(name)
