"""Formal block model of the spaces and spectrum classes the calculator handles.

A space is a wedge of one non-free base block with finitely many free cells:

  RepSphere(t, l)    one-point compactification of t copies of the sign plane
                     plus l copies of the quaternions;
  GroupSuspension    unreduced suspension of the group acting on itself;
  TorusSuspension    unreduced suspension of the embedded torus orbit;
  free cell a        wedge summand S^a smashed with the free orbit (G_+),
                     stored as its degree a and printed as "S^a G+".

The base blocks carry their own suspension pair (t, l), and each kind one
count, suspended: 0 for RepSphere, 1 for the two unreduced suspensions.  A
spectrum class is a triple (space, m, n): the space formally de-suspended m
times by the sign plane and n times by the quaternions, with m an int and n
an exact rational whose denominator divides 16.  Every block rule reads the
count s = suspended.  Free cells contribute no ideal, and a base block gives
(w, z)^s * (z^l) = (2^l*w, z^(l+s)), as w*z^l = 2^l*w; so k = l + s, and a
class is KG-split iff s = 0.  The dual of a block is its partner across s
quaternionic de-suspensions.  Only ideal_of loads the ideals and ring layers.

Free cells absorb suspensions as plain degree shifts (a suspension by any
representation of real dimension r is an r-fold ordinary suspension on a
free space), which is what makes the duality bookkeeping below work.
"""

from fractions import Fraction
from functools import lru_cache

from . import Pin2kError, Record, _cap


class SpectraError(Pin2kError):
    pass


class UnsupportedBlockError(SpectraError):
    pass


class UnsupportedSeifertDataError(SpectraError):
    pass


class _Block(Record):
    """A base block; each kind carries its own suspension pair (t, l) and
    the count of unreduced suspensions in it, suspended."""

    __slots__ = ()

    def __init__(self, t=0, l=0):
        if type(t) is not int or type(l) is not int:
            raise UnsupportedBlockError(f"suspension pair must be ints, got t={t!r}, l={l!r}")
        if t < 0 or l < 0:
            raise UnsupportedBlockError("suspension pair must be nonnegative")
        super().__init__(t, l)

    def label(self):
        prefix = f"S^(C~^{self.t}) " if self.t else ""
        prefix += f"S^(H^{self.l}) " if self.l else ""
        return prefix + self.name


class RepSphere(_Block):
    __slots__ = ("t", "l")
    suspended = 0

    def label(self):
        return f"(C~^{self.t} + H^{self.l})^+" if (self.t or self.l) else "S^0"


class GroupSuspension(_Block):
    __slots__ = ("t", "l")
    name, suspended = "SuspG", 1


class TorusSuspension(_Block):
    __slots__ = ("t", "l")
    name, suspended = "SuspT", 1


# each block kind's partner under duality
_DUAL_KIND = {RepSphere: RepSphere, GroupSuspension: TorusSuspension, TorusSuspension: GroupSuspension}


class SwfSpace(Record):
    __slots__ = ("base", "free")

    def __init__(self, base, free=()):
        if not isinstance(base, _Block):
            raise UnsupportedBlockError(f"unsupported base block {base!r}")
        free = tuple(free)
        if not all(type(a) is int for a in free):
            raise UnsupportedBlockError("free cells must be int degrees")
        super().__init__(base, free)

    @property
    def level(self):
        return 2 * self.base.t

    def labels(self):
        return [self.base.label()] + [f"S^{a} G+" for a in self.free]


def ideal_of(space: SwfSpace):
    """The restriction-image ideal (2^l*w, z^(l+s)) of the space; free cells never contribute."""
    from .ideals import z_power_ideal

    return z_power_ideal(k_of(space), space.base.l)


def k_of(space: SwfSpace) -> int:
    return space.base.l + space.base.suspended


def _fraction(n):
    """n, an int or a Fraction, as a Fraction; a bool, a float, a str or
    anything else is refused."""
    if type(n) is not int and type(n) is not Fraction:
        raise UnsupportedBlockError(f"n must be an int or a Fraction, got {n!r}")
    return Fraction(n)


class SpectrumClass(Record):
    """Space with formal de-suspension counts (m sign planes, n quaternions)."""

    __slots__ = ("space", "m", "n")

    def __init__(self, space, m=0, n=0):
        if not isinstance(space, SwfSpace):
            raise UnsupportedBlockError(f"unsupported space {space!r}")
        if type(m) is not int:
            raise UnsupportedBlockError(f"m must be an int, got {m!r}")
        n = _fraction(n)
        if (16 * n).denominator != 1:
            raise UnsupportedBlockError("n must have denominator dividing 16")
        super().__init__(space, m, n)

    # -- invariants ------------------------------------------------------------

    def kappa(self) -> Fraction:
        return 2 * (Fraction(k_of(self.space)) - self.n)

    def is_floer_kg_split(self):
        return not self.space.base.suspended

    # -- suspension bookkeeping --------------------------------------------------

    def suspend(self, t=0, l=0):
        """Genuinely suspend the underlying space by t sign planes plus l quaternions."""
        if t < 0 or l < 0:
            raise UnsupportedBlockError("suspension counts must be nonnegative")
        base, shift = self.space.base, 2 * t + 4 * l
        free = tuple(a + shift for a in self.space.free)
        return SpectrumClass(SwfSpace(base._replace(t=base.t + t, l=base.l + l), free), self.m, self.n)

    def desuspend(self, t=0, l=0):
        """Formally de-suspend by t sign planes plus l quaternions (bumps m and n)."""
        if t < 0 or l < 0:
            raise UnsupportedBlockError("suspension counts must be nonnegative")
        return SpectrumClass(self.space, self.m + t, self.n + l)

    def normalize(self):
        """Canonical representative: base suspensions pushed into (m, n)."""
        base = self.space.base
        t, l = base.t, base.l
        if t == 0 and l == 0:
            return self
        stripped = base._replace(t=0, l=0)
        free = tuple(a - 2 * t - 4 * l for a in self.space.free)
        return SpectrumClass(SwfSpace(stripped, free), self.m - t, self.n - l)

    def dual(self):
        """Blockwise Spanier-Whitehead dual with suspension bookkeeping.

        A block goes to its partner in _DUAL_KIND across `suspended`
        quaternionic de-suspensions: the two unreduced suspensions swap, and
        representation spheres are self-dual with the indices negated.  Free
        cells in absolute degree c go to absolute degree -1 - c, so a cell
        of degree a in the normalized class goes to 4*suspended - 1 - a, an
        int since m is.
        """
        cls = self.normalize()
        base = cls.space.base
        new_m = -cls.m
        new_n = base.suspended - cls.n
        cells = []
        for a in cls.space.free:
            c = Fraction(a) - 2 * cls.m - 4 * cls.n
            cprime = -1 - c
            a_new = cprime + 2 * new_m + 4 * new_n
            cells.append(int(a_new))
        return SpectrumClass(SwfSpace(_DUAL_KIND[type(base)](), tuple(cells)), new_m, new_n)


def s3_class() -> SpectrumClass:
    return SpectrumClass(SwfSpace(RepSphere(0, 0)), 0, Fraction(0))


def psc_class(n_correction) -> SpectrumClass:
    """Class of a sphere-like flow with the given index correction n."""
    return SpectrumClass(SwfSpace(RepSphere(0, 0)), 0, _fraction(n_correction) / 2)


# Largest m that brieskorn_class accepts.  A class of Sigma(2,3,m) holds
# about m/12 free cells, and the reversed orientation at m = 10**6 already
# takes over a second to build.
MAX_M = 10**6


# The four families of Sigma(2, 3, m), gcd(m, 6) = 1, m >= 7: family -> (its
# smallest member, the base block and n of the "+" class, the degree of its free
# cells, how many free cells it has beyond the family index, and the
# Neumann-Siebenmann invariant mu-bar of the "+" sphere, constant on the family).
FAMILIES = {
    "12n-1": (11, GroupSuspension(), Fraction(0), 1, -1, 0),
    "12n-5": (7, GroupSuspension(), Fraction(1, 2), 1, -1, 1),
    "12n+1": (13, RepSphere(0, 1), Fraction(1), 3, 0, 0),
    "12n+5": (17, RepSphere(0, 1), Fraction(1, 2), 3, 0, -1),
}


_FAMILY_OF_RESIDUE = {row[0] % 12: family for family, row in FAMILIES.items()}


def brieskorn_family(m):
    """Family key and index n for Sigma(2, 3, m): m is one of 12n-1, 12n-5, 12n+1, 12n+5."""
    family = _FAMILY_OF_RESIDUE.get(m % 12)
    if family is None or m < FAMILIES[family][0]:
        raise UnsupportedSeifertDataError(f"unsupported Seifert data (2, 3, {m})")
    return family, (m + 6) // 12


def _checked_family(m, orientation):
    """brieskorn_family(m) once the orientation, m's type and the MAX_M cap are checked."""
    if orientation not in ("+", "-"):
        raise UnsupportedSeifertDataError(f"bad orientation {orientation!r}")
    if type(m) is not int:
        raise UnsupportedSeifertDataError(f"m must be an int, got {m!r}")
    _cap("m = {}", m, MAX_M, UnsupportedSeifertDataError)
    return brieskorn_family(m)


def brieskorn_class(m, orientation="+") -> SpectrumClass:
    """Spectrum class of Sigma(2, 3, m) with the chosen orientation.

    Positive orientation means bounding the negative-definite plumbing; the
    reversed orientation is computed as the dual class.  The two families
    with trivial base are stored in their quaternion-suspended form; use
    normalize() for the representative with negative cell degrees.
    """
    family, index = _checked_family(m, orientation)
    _, base, n, degree, extra, _ = FAMILIES[family]
    cls = SpectrumClass(SwfSpace(base, (degree,) * (index + extra)), 0, n)
    return cls if orientation == "+" else cls.dual()


# kappa = 2(k(base) - n) reads only the base block and n, which FAMILIES fixes
# per family and orientation (dual() maps both without reading the free cells),
# so kappa is constant on a family.
@lru_cache(maxsize=9)
def family_kappa(family, orientation) -> int:
    """kappa, as an int, of S^3 (family "S3") or of every Sigma(2, 3, m) in
    the family, with the chosen orientation.  It holds the package's one check
    that kappa is an integer, which only a wrong stored family or block fails."""
    cls = s3_class() if family == "S3" else brieskorn_class(FAMILIES[family][0], orientation)
    kappa = cls.kappa()
    if kappa.denominator != 1:
        label = "S^3" if family == "S3" else f"{orientation.strip('+')}Sigma(2,3,{family})"
        raise RuntimeError(f"kappa = {kappa} of {label} is not an integer")
    return int(kappa)


def brieskorn_kappa(m, orientation="+") -> int:
    family, _ = _checked_family(m, orientation)
    return family_kappa(family, orientation)
