"""Admissibility checks for spin intersection forms p(-E8) + q*H.

Every check instantiates one exact inequality and returns a Verdict; all
comparisons run in exact integers.  The xi pipeline combines three
upper-bound routes (stored spin fillings, the orbifold bound over the
Neumann-Siebenmann invariant mu-bar of each family, and kappa computed
through the spectrum-class machinery) with lower bounds read off the
filling table.  Only the xi pipeline imports that machinery, and it
does so on first use, so the other checks load neither spectra nor ideals.

Filling table conventions: a stored filling (p, q) of a manifold Y also
yields, with reversed orientation, a filling (-p, q) of -Y.  A filling of
-Y with form (p', q') caps any filling of Y, giving xi(Y) <= q' - p' - 1;
only fillings with q > 0 count toward the lower bound, matching the
convention that xi maximizes p - q over forms with at least one hyperbolic
summand.
"""

import re
from enum import Enum
from functools import partial

from . import Pin2kError, Record, _cap, _int


class BoundsError(Pin2kError):
    pass


class UnknownManifoldError(BoundsError):
    pass


class MalformedChainError(BoundsError):
    pass


class Status(str, Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    INAPPLICABLE = "inapplicable"


class Verdict(Record):
    __slots__ = ("status", "inequality")


class IntersectionForm(Record):
    """p copies of -E8 (negative p means +E8) plus q hyperbolic summands."""

    __slots__ = ("p", "q")

    def __init__(self, p, q):
        if q < 0:
            raise BoundsError("q must be nonnegative")
        super().__init__(p, q)

    @property
    def b2(self):
        return 8 * abs(self.p) + 2 * self.q

    @property
    def signature(self):
        return -8 * self.p


class BoundaryData(Record):
    __slots__ = ("kappa", "kg_split", "name")
    _defaults = {"name": ""}


def _verdict(ok, text):
    return Verdict(Status.SATISFIED if ok else Status.VIOLATED, text)


def definite_bound(kappa0, kappa1, b2):
    """Negative-definite spin cobordism: kappa1 >= kappa0 + b2/8."""
    if b2 < 0 or b2 % 8:
        return Verdict(Status.INAPPLICABLE, f"b2 = {b2} is not a nonnegative multiple of 8")
    need = kappa0 + b2 // 8
    return _verdict(kappa1 >= need, f"{kappa1} >= {kappa0} + {b2}/8 = {need}")


def relative_10_8(kappa0, kappa1, p, q):
    """General spin cobordism: kappa1 + q >= kappa0 + p - 1."""
    if q < 0:
        return Verdict(Status.INAPPLICABLE, f"q = {q} but q >= 0 is required")
    return _verdict(
        kappa1 + q >= kappa0 + p - 1,
        f"{kappa1} + {q} >= {kappa0} + {p} - 1",
    )


def split_bound(kappa0, kappa1, p, q, y0_kg_split=True, parity_refined=False):
    """Sharper cobordism bound off a split start: kappa1 + q >= kappa0 + p + 1.

    With the parity refinement and q even the free term improves to + 2.
    """
    if q <= 0:
        return Verdict(Status.INAPPLICABLE, f"q = {q} but a hyperbolic summand is required")
    if not y0_kg_split:
        return Verdict(Status.INAPPLICABLE, "starting boundary is not split")
    bump = 2 if (parity_refined and q % 2 == 0) else 1
    return _verdict(
        kappa1 + q >= kappa0 + p + bump,
        f"{kappa1} + {q} >= {kappa0} + {p} + {bump}",
    )


def furuta_closed(p, q):
    """Closed-manifold 10/8 bound: q >= p + 1."""
    if q <= 0 or p < 0:
        return Verdict(Status.INAPPLICABLE, f"needs q > 0 and p >= 0, got p={p}, q={q}")
    return _verdict(q >= p + 1, f"{q} >= {p} + 1")


def conjecture_11_8(p, q):
    """Closed-manifold 11/8 conjecture: q >= 3p/2, checked as 2q >= 3p."""
    if q <= 0 or p < 0:
        return Verdict(Status.INAPPLICABLE, f"needs q > 0 and p >= 0, got p={p}, q={q}")
    return _verdict(2 * q >= 3 * p, f"{q} >= 3*{p}/2")


def orbifold_bound(p, q, b2plus_filling, mu_bar):
    """Orbifold-capped 10/8 bound: q + b2plus >= 1 + mu_bar + p."""
    if q < 1:
        return Verdict(Status.INAPPLICABLE, f"q = {q} but q >= 1 is required")
    if b2plus_filling < 0:
        return Verdict(Status.INAPPLICABLE, f"b2plus = {b2plus_filling} but b2plus >= 0 is required")
    return _verdict(
        q + b2plus_filling >= 1 + mu_bar + p,
        f"{q} + {b2plus_filling} >= 1 + {mu_bar} + {p}",
    )


def rokhlin_consistency(kappa0, kappa1, p):
    """kappa0 - kappa1 and p must have the same parity across a spin cobordism."""
    return _verdict(
        (kappa0 - kappa1 - p) % 2 == 0,
        f"{kappa0} - {kappa1} == {p} mod 2",
    )


def bohr_lee_bound(kappa):
    """Upper bound 2*kappa for the signature-defect invariant of the reverse."""
    return 2 * kappa


# -- decomposition chains -------------------------------------------------------


def bauer_chain_check(chain):
    """Check a decomposition of a closed spin manifold into pieces glued
    along homology spheres.

    chain is a list of (IntersectionForm, BoundaryData or None) pairs; entry
    i describes piece i and its outgoing boundary.  The last boundary may be
    None (the chain closes up, equivalent to a standard sphere).  Every
    inequality uses the split cobordism bound, so all interior boundaries
    must be flagged split; otherwise the check is inapplicable.  Violated
    means the decomposition cannot exist.
    """
    if not chain:
        raise MalformedChainError("empty chain")
    if any(boundary is None for _, boundary in chain[:-1]):
        raise MalformedChainError("only the final boundary may be omitted")
    s3 = BoundaryData(0, True, "S^3")
    incoming = s3
    failures = []
    for form, outgoing in chain:
        # an inapplicable piece voids the check, so it is reported before any violation
        if not incoming.kg_split:
            return Verdict(
                Status.INAPPLICABLE,
                f"boundary {incoming.name or '?'} is not split",
            )
        if form.q <= 0:
            return Verdict(Status.INAPPLICABLE, f"piece with q = {form.q} has no hyperbolic part")
        if outgoing is None:
            outgoing = s3
        step = split_bound(incoming.kappa, outgoing.kappa, form.p, form.q, True)
        if step.status is Status.VIOLATED:
            failures.append(step.inequality)
        incoming = outgoing
    if failures:
        return Verdict(Status.VIOLATED, "; ".join(failures))
    return Verdict(Status.SATISFIED, "all piecewise bounds hold")


# The chain is a list of r pieces: about 0.8 s to build and check at the cap.
MAX_PIECES = 10**5


def canonical_bauer_chain(r, non_split_at=None):
    """The standard decomposition: r - 1 pieces 2(-E8)+3H, one final 2(-E8)+2H.

    Interior boundaries get kappa 0 and are split unless non_split_at names
    one of them (1-based); any other non_split_at raises MalformedChainError,
    as does r outside 1..MAX_PIECES.
    """
    if r < 1:
        raise MalformedChainError("need at least one piece")
    _cap("{} pieces", r, MAX_PIECES, MalformedChainError)
    if non_split_at is not None and not 1 <= non_split_at < r:
        valid = f"1..{r - 1}" if r > 1 else "none, a 1-piece chain has no interior boundary"
        raise MalformedChainError(f"non-split boundary {non_split_at} is out of range (valid: {valid})")
    chain = []
    for i in range(1, r):
        split = non_split_at != i
        chain.append((IntersectionForm(2, 3), BoundaryData(0, split, f"Y{i}")))
    chain.append((IntersectionForm(2, 2), None))
    return chain


# The JSON kind of each field that a chain spells, and how messages name it.
_JSON_KINDS = {"p": int, "q": int, "kappa": int, "kg_split": bool, "name": str}
_KIND_NAMES = {int: "an integer", bool: "a boolean", str: "a string"}


def _record_from_json(cls, obj, where, *extra_keys):
    """The cls record whose fields the JSON object obj spells, by name;
    fields in cls._defaults may be left out, and extra_keys may appear too."""
    if not isinstance(obj, dict):
        raise MalformedChainError(f"{where} is not an object")
    for key in obj:
        if key not in cls.__slots__ and key not in extra_keys:
            raise MalformedChainError(f"{where}: unknown key {key!r}")
    fields = []
    for key in cls.__slots__:
        if key not in obj and key not in cls._defaults:
            raise MalformedChainError(f"{where}: {key!r} is missing")
        value, kind = obj.get(key, cls._defaults.get(key)), _JSON_KINDS[key]
        if type(value) is not kind:  # rejects true/false where an integer belongs
            raise MalformedChainError(f"{where}: {key!r} must be {_KIND_NAMES[kind]}")
        fields.append(value)
    try:
        return cls(*fields)
    except BoundsError as err:  # the record's own check, such as q >= 0
        raise MalformedChainError(f"{where}: {err}") from None


def _unique_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise MalformedChainError(f"bad chain JSON: repeated key {key!r}")
        obj[key] = value
    return obj


def parse_chain(text):
    """The chain that a JSON text spells, for bauer_chain_check.

    The text must be a list of objects with the fields of IntersectionForm
    and an optional "boundary": null, or an object with the fields of
    BoundaryData, "name" optional.  The keys must match exactly: any other
    key, a misspelt one say, or a repeated one, raises MalformedChainError
    rather than being ignored, as does anything else malformed.
    """
    import json

    read_int = partial(_int, what="bad chain JSON: an integer", error=MalformedChainError)
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys, parse_int=read_int)
    except json.JSONDecodeError as err:
        raise MalformedChainError(f"bad chain JSON: {err}") from None
    except RecursionError:
        raise MalformedChainError("bad chain JSON: nested too deeply") from None
    if not isinstance(raw, list):
        raise MalformedChainError("chain must be a JSON list of {p, q, boundary} objects")
    chain = []
    for i, entry in enumerate(raw):
        where = f"chain entry {i}"
        form = _record_from_json(IntersectionForm, entry, where, "boundary")
        boundary = entry.get("boundary")
        if boundary is not None:
            boundary = _record_from_json(BoundaryData, boundary, f"boundary of {where}")
        chain.append((form, boundary))
    return chain


# -- the xi pipeline -------------------------------------------------------------


class Manifold(Record):
    """A supported boundary: the standard sphere or an oriented Sigma(2,3,m).

    m is None for a whole-family query (generic index, no sporadic fillings).
    """

    __slots__ = ("sign", "family", "m")
    _defaults = {"sign": 1, "family": "S3", "m": None}

    def label(self):
        if self.family == "S3":
            return "S^3"
        body = f"Sigma(2,3,{self.m})" if self.m else f"Sigma(2,3,{self.family})"
        return body if self.sign > 0 else "-" + body


_MANIFOLD_RE = re.compile(r"^(-?)Sigma\(2,\s*3,\s*([0-9n+-]+)\)$")


def parse_manifold(text):
    from .spectra import FAMILIES, MAX_M, UnsupportedSeifertDataError, brieskorn_family

    text = text.strip()
    if text in ("S3", "S^3"):
        return Manifold()
    match = _MANIFOLD_RE.match(text)
    if not match:
        raise UnknownManifoldError(f"cannot parse manifold {text!r}")
    sign = -1 if match.group(1) else 1
    body = match.group(2)
    if body in FAMILIES:
        return Manifold(sign, body, None)
    try:
        m = _int(body, "m: an integer", UnknownManifoldError)
    except ValueError:
        raise UnknownManifoldError(f"cannot parse manifold {text!r}") from None
    try:
        family, _ = brieskorn_family(m)
    except UnsupportedSeifertDataError:
        raise UnknownManifoldError(f"unsupported manifold {text!r}") from None
    _cap("m = {}", m, MAX_M, UnsupportedSeifertDataError)
    return Manifold(sign, family, m)


# Stored spin fillings, one orientation each; reversal is derived.  Entries:
# (sign, family) or, for a sporadic filling, (sign, m) -> [(p, q, source)].
_FILLINGS = {
    (1, "S3"): [(0, 0, "four-ball"), (2, 3, "K3 minus a ball")],
    (-1, "12n-1"): [(0, 1, "nucleus N(2n)")],
    (-1, "12n-5"): [(1, 1, "-E10 plumbing")],
    (-1, "12n+1"): [(0, 1, "twisted H-plumbing")],
    (1, "12n+5"): [(1, 1, "-E8 + H plumbing")],
    (1, 11): [(2, 2, "K3 minus the nucleus")],
    (1, 7): [(1, 2, "K3 minus the -E10 plumbing")],
    (1, 13): [(0, 0, "homology ball")],
    (1, 25): [(0, 0, "homology ball")],
}


def _fillings(manifold):
    """All stored fillings of the given oriented manifold, reversals included."""
    return [
        (p, q, src) if sign == manifold.sign else (-p, q, "reversed " + src)
        for key in (manifold.family, manifold.m)
        for sign in (1, -1)
        for p, q, src in _FILLINGS.get((sign, key), ())
    ]


class XiBounds(Record):
    """Bounds on xi of one manifold: the lower bound, the three upper-bound
    routes, their minimum and the exact value where the bounds meet; None
    where a route or bound gives nothing."""

    __slots__ = ("manifold", "lower", "upper_filling", "upper_orbifold", "upper_kappa", "upper", "exact")

    def xi_text(self, equals=""):
        """xi as text: equals and the exact value, or the range from lower to upper."""
        return f"{equals}{self.exact}" if self.exact is not None else f"in [{self.lower}, {self.upper}]"


def xi_bounds(text) -> XiBounds:
    """Best stored/computed bounds on xi = max(p - q) over spin fillings of
    the manifold that text names, as parse_manifold reads it."""
    from .spectra import FAMILIES, family_kappa

    manifold = parse_manifold(text)
    row = FAMILIES.get(manifold.family)  # None only for S^3
    fillings = _fillings(manifold)
    lowers = [(p - q, src) for p, q, src in fillings if q > 0]
    lower, lower_src = max(lowers, key=lambda item: item[0], default=(None, None))
    # reversed, a filling (p, q) of Y is a filling (-p, q) of -Y, which caps Y
    up_fill = min((q + p - 1 for p, q, _ in fillings), default=None)
    # b2plus - 1 - mu_bar(Y), orbifold_bound's q + b2plus >= 1 + mu_bar + p solved
    # for p - q, with mu_bar(-Y) = -mu_bar(Y).  A filling of Y is capped by the
    # orbifold disk bundle that -Y bounds, the mapping cylinder of its Seifert
    # fibration.  The one that +Sigma(2,3,m) bounds has form (-1/(6m)), negative
    # definite, so b2plus = 1 for +Sigma and 0 for -Sigma (Y. Fukumoto, M. Furuta
    # and M. Ue, Topology Appl. 116 (2001)).
    up_orb = None if row is None else (manifold.sign + 1) // 2 - 1 - manifold.sign * row[-1]
    kappa = family_kappa(manifold.family, "+" if manifold.sign > 0 else "-")
    up_kappa = kappa - 1
    # a filling (p, q) of Y is a spin cobordism from the KG-split S^3 to Y, so
    # a stored one that fails the split bound is a wrong table, not the input
    for p, q, src in fillings:
        verdict = split_bound(0, kappa, p, q)
        if verdict.status is Status.VIOLATED:
            label = manifold.label()
            raise RuntimeError(f"the filling {src!r} ({p}, {q}) of {label} fails the split bound {verdict.inequality}")

    routes = {"filling": up_fill, "orbifold": up_orb, "kappa": up_kappa}
    route = min((r for r, u in routes.items() if u is not None), key=routes.get)  # the first of a tie
    upper = routes[route]
    if lower is not None and lower > upper:
        raise RuntimeError(
            f"lower bound {lower} of xi({manifold.label()}) from the filling {lower_src!r} "
            f"exceeds upper bound {upper} from the {route} route"
        )
    exact = lower if lower == upper else None
    return XiBounds(manifold, lower, up_fill, up_orb, up_kappa, upper, exact)


_XI_TABLE_ROWS = (
    "S3",
    "Sigma(2,3,12n-1)",
    "Sigma(2,3,11)",
    "-Sigma(2,3,12n-1)",
    "Sigma(2,3,12n-5)",
    "Sigma(2,3,7)",
    "-Sigma(2,3,12n-5)",
    "Sigma(2,3,12n+1)",
    "-Sigma(2,3,12n+1)",
    "Sigma(2,3,12n+5)",
    "-Sigma(2,3,12n+5)",
)


def xi_table_rows():
    return [xi_bounds(name) for name in _XI_TABLE_ROWS]


def emit_xi_table(rows):
    """Fixed-width report of xi rows, such as xi_table_rows(), under a header."""
    header = f"{'manifold':<20} {'lower':>6} {'up(fill)':>9} {'up(orb)':>8} {'up(kappa)':>10} {'upper':>6}  xi"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.manifold.label():<20} {_cell(row.lower):>6} {_cell(row.upper_filling):>9} "
            f"{_cell(row.upper_orbifold):>8} {row.upper_kappa:>10} {row.upper:>6}  {row.xi_text()}"
        )
    return "\n".join(lines)


def _cell(value):
    return "-" if value is None else str(value)
