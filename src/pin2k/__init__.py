"""Exact Pin(2) representation-ring calculator: ideals, spectrum classes,
and Furuta-style bounds on spin intersection forms.

The public names below are loaded on first access (PEP 562), so importing
the package, or one layer of it, does not import the other layers.  The
value classes of every layer derive from Record, defined here, rather than
from dataclasses, whose import (with inspect) and per-class code generation
would cost every CLI call more than the command itself.
"""

import sys
from importlib import import_module


class Pin2kError(Exception):
    """Base of every domain error the calculator raises: what it refuses, the
    CLI reports as an `error:` line with exit code 2.  Any other exception, a
    bare ValueError included, is a bug and exits 3."""


def _cap(message, amount, limit, error=Pin2kError):
    """Refuses an amount over limit with error, a Pin2kError: message names it
    where {} stands, or, if it has more digits than CPython converts to text,
    the power of two above it.  Every size limit of the package is refused here."""
    if amount > limit:
        try:
            amount = str(amount)
        except ValueError:
            amount = f"2^{amount.bit_length()}"
        raise error(f"{message.format(amount)} is over the limit of {limit}")


# How CPython's ValueError for an int/str conversion over
# sys.get_int_max_str_digits() begins.
_DIGIT_LIMIT_MESSAGE = "Exceeds the limit ("


def _int(text, what, error=Pin2kError):
    """int(text).  A text with more digits than CPython converts is refused
    through _cap as `what of N digits`, with error; any other ValueError is
    the caller's to word.  Every integer read from text is read here."""
    try:
        return int(text)
    except ValueError as err:
        if not str(err).startswith(_DIGIT_LIMIT_MESSAGE):
            raise
    _cap(f"{what} of {{}} digits", sum(ch.isdigit() for ch in text), sys.get_int_max_str_digits(), error)


class Record:
    """Base of the immutable value classes.

    A subclass names its fields in __slots__, in the order the constructor
    takes them, by position or by keyword, and the defaults of trailing
    fields in _defaults; a missing, surplus, unknown or repeated argument
    raises TypeError.  A subclass that checks or coerces its fields does so
    in its own __init__, which then calls super().__init__.  Instances are
    equal only to instances of the same class with equal fields, hash by
    their fields, print as Name(field=value, ...), and refuse assignment and
    deletion; _asdict returns the fields by name, and _replace a copy with
    some fields changed, validated by __init__ again.
    """

    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):  # else one positional argument per field
            cls = type(self).__name__
            if len(args) > len(names):
                raise TypeError(f"{cls}() takes {len(names)} arguments but {len(args)} were given")
            for key in kwargs:
                if key not in names or key in names[: len(args)]:
                    problem = "multiple values for" if key in names else "an unexpected keyword"
                    raise TypeError(f"{cls}() got {problem} argument {key!r}")
            fields = {**self._defaults, **dict(zip(names, args)), **kwargs}
            missing = [key for key in names if key not in fields]
            if missing:
                raise TypeError(f"{cls}() missing required argument {missing[0]!r}")
            args = [fields[key] for key in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since __setattr__ refuses
        return type(self), self._values()

    def _asdict(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})


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
        "parse_chain",
        "parse_manifold",
        "relative_10_8",
        "rokhlin_consistency",
        "split_bound",
        "xi_bounds",
    ),
    "ideals": ("IdealForm", "ideal_from_generators", "ideal_product", "ideal_sum"),
    "ring": ("LaurentElem", "RingElem", "parse"),
    "spectra": (
        "GroupSuspension",
        "RepSphere",
        "SpectrumClass",
        "SwfSpace",
        "TorusSuspension",
        "brieskorn_class",
        "brieskorn_kappa",
        "ideal_of",
        "psc_class",
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
