"""Exact Pin(2) representation-ring calculator: ideals, spectrum classes,
and Furuta-style bounds on spin intersection forms.

The public names below are loaded on first access (PEP 562), so importing
the package, or one layer of it, does not import the other layers.
"""

from importlib import import_module


class Pin2kError(Exception):
    """Base of every domain error the calculator raises."""


_HOMES = {
    "bounds": (
        "BoundaryData",
        "IntersectionForm",
        "Status",
        "Verdict",
        "bauer_chain_check",
        "bohr_lee_bound",
        "canonical_bauer_chain",
        "conjecture_11_8",
        "definite_bound",
        "emit_xi_table",
        "furuta_closed",
        "orbifold_bound",
        "parse_manifold",
        "relative_10_8",
        "rokhlin_consistency",
        "split_bound",
        "xi_bounds",
    ),
    "ideals": ("IdealForm", "ideal_from_generators", "ideal_product", "ideal_sum"),
    "ring": ("LaurentElem", "RingElem", "parse"),
    "spectra": (
        "FreeCell",
        "GroupSuspension",
        "RepSphere",
        "SpectrumClass",
        "SwfSpace",
        "TorusSuspension",
        "brieskorn_class",
        "brieskorn_kappa",
        "ideal_of",
        "psc_kappa",
        "s3_class",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted([*_HOMES, *_HOME])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOMES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
