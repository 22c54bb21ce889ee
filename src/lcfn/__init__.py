"""Linearly correlated fuzzy numbers: coordinate arithmetic on r + q*A,
a total order, componentwise calculus, and numeric harnesses for the
variational lemmas that order supports.

Each public name is imported from its submodule on first use (PEP 562)."""

import importlib

__version__ = "0.1.0"

#: The public names, by the submodule that defines them.
_EXPORTS = {
    "calculus": "CheckReport CumulativeIntegral FuzzyFunction deriv ftc_check "
                "ibp_check integrate interchange_check product_rule_check "
                "square_integral",
    "core": "LCFN Ordering SignClass annihilator_witness compare "
            "compare_with_tier cross_oracle element_payload format_element "
            "parse_element scalar_ge scalar_le",
    "generator": "Generator ValidationReport load_generator validate",
    "quadrature": "QuadratureSpec",
    "variational": "CriticalPoint DiracKernel ReconstructionResult Verdict "
                   "critical_points dbr_forward_check dbr_reconstruct "
                   "default_eta_catalog lagrange_point lagrange_scan "
                   "verify_local_order",
}
_OWNER = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "errors", "expr"}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _OWNER:
        # cache in the package namespace: later lookups skip this hook
        value = globals()[name] = getattr(
            importlib.import_module(f".{_OWNER[name]}", __name__), name)
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
