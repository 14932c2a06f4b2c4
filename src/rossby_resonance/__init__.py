"""Exact search, clustering and verification of resonant Rossby-wave triads.

Everything verdict-bearing runs in exact integer or rational arithmetic;
floating point appears only in presentation-layer statistics.

Importing the package loads none of its modules: each public name below is
loaded from its home module at its first use (PEP 562), so a command line
pays only for the modules it runs.
"""

_HOMES = {
    "cluster_graph": ("NO_SCALING_DETECTED", "SCALING_FAMILY_DETECTED", "Cluster", "build_components",
                      "flag_scaling", "order_clusters"),
    "exact_core": ("ResonantTriad", "TrivialInteractionError", "Wavenumber", "integer_roots",
                   "is_resonant", "quartic_coeffs", "sign_class"),
    "rational": ("residual", "sigma"),
    "partner_search": ("AngularHistogram", "EnumerationReport", "enumerate_lambda", "find_partners",
                       "histogram_to_csv", "naive_partner_oracle", "search_radius", "stats_anisotropy"),
    "verification": ("VerificationReport", "check_proof_identity", "generate_family",
                     "verify_axis_theorem", "verify_diophantine_lemma"),
}
_EXPORTS = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
