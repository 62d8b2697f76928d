"""Canonical forms and decision procedures for finitely generated ideals.

An element lam*w + P(z) of the ring is treated as the pair (P, lam) in the
module Z[z] (+) Z*w, where z acts on the w-line by multiplication by 2 and
multiplying by w collapses everything onto the w-line.  An ideal is then a
sublattice of that module closed under the z-shift and the w-action, and it
admits a Hermite-style completed basis: at most one element per polynomial
degree, with positive leading coefficient, and one pure-w element d*w, where
d generates {lam : lam*w in I}.  e generates {w_multiplier(x) : x in I}; it
is the gcd over any generating set, since w_multiplier is multiplicative
and Z-linear.

Completion runs on pairs (P, beta) of a coefficient tuple and one bit.  The
w-multiplier c = 2*lam + P(2) of every member lies in e*Z, and e*w = w*x
lies in I, so modulo e*w a member is fixed by P and beta = c/e mod 2 (by P
alone when e = 0: then lam = -P(2)/2 and beta = 0).  beta is Z-linear, so
bits add mod 2 under the Z-combinations of completion; a z-shift doubles c,
so every shift has bit 0; and the w-action lands in Z*e*w.  The pair (0, 1)
is (e/2)*w, so d = e/2 if some element reduces to (0, 1), else d = e, and
d = 0 when e = 0.  The basis element with polynomial B and bit beta gets
lam = (e*beta - B(2))/2, reduced mod d when d != 0.  Completion raises
RuntimeError, as a bug and not a fault of the input, unless d | e and
e | 2d, which a wrong bit would break.

Completion terminates: same-degree elements merge by extended-gcd steps,
which never raise the polynomial degree; the z-shift of every kept element
is folded back in, but only below the maximal generator degree; and the
leading coefficient at each degree can only shrink along a divisor chain.

Membership is decided by strong reduction against the completed basis:
divide leading terms by the nearest basis pivot at or below the current
degree (shifting by powers of z), then reduce the leftover w-part mod d.

The completed basis is unique, so two ideals are equal iff their forms are
equal under ==.  The other invariants are read off it directly: k from e,
and the zw exponent from the polynomial parts.  Since w*R = Z*w, the
quotient R/(w) is Z[z] and the image of the ideal there is the ideal J of
Z[z] generated by the polynomial parts; so lam*z^k + mu*w lies in the ideal
for some mu iff lam*z^k lies in J.
"""

from bisect import bisect_right
from math import gcd

from . import Pin2kError, Record, _cap
from .ring import RingElem, w_pow, z_pow

K_MAX_DEFAULT = 64

# Bound on the largest generator degree that completion takes.  Its pool
# holds up to one element per degree, each as long as that degree, so
# `z^1024 + 1, 2` takes about 0.2 s and `z^2048 + 1, 2` 0.9 s (CPython 3.11
# on a 2-core Xeon).
MAX_DEGREE = 2**10


def xgcd(a, b):
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b), g >= 0; b must be nonzero.

    x is the inverse of a/g modulo |b|/g, so b divides g - x*a exactly.
    """
    g = gcd(a, b)
    x = pow(a // g, -1, abs(b) // g)
    return x, (g - x * a) // b, g


class IdealError(Pin2kError):
    pass


class NoWitnessError(IdealError):
    """No element x of the ideal satisfies w*x = 2^k*w for any k."""


class NotSwfLikeError(IdealError):
    """The w-multiplier subgroup has an odd factor, so no power of 2 lies in it."""


class NoWitnessBelowCapError(IdealError):
    """Search for an exponent witness exceeded the configured cap."""


class NoSuchKError(IdealError):
    """The ideal meets no line Z*z^k + Z*w with nonzero z-part, or none with k
    at or below the cap."""


class IdealForm(Record):
    """Completed canonical form of a finitely generated ideal.

    basis is sorted by polynomial degree with the pure-w element (if any)
    first; e and d are the w-line subgroup generators described in the
    module docstring.
    """

    __slots__ = ("basis", "e", "d")
    _defaults = {"basis": (), "e": 0, "d": 0}

    # -- queries --------------------------------------------------------------

    def is_zero(self):
        return not self.basis

    def _pivots(self):
        degrees = []
        table = {}
        for b in self.basis:
            if b.poly:
                degrees.append(b.degree)
                table[b.degree] = b
        return degrees, table

    def contains(self, x):
        return _reduce(x, *self._pivots(), self.d).is_zero()

    def k_invariant(self):
        return k_from_e(self.e)

    def is_kg_split(self):
        """True iff the ideal equals (z^k) for k its k-invariant."""
        try:
            k = self.k_invariant()
        except IdealError:
            return False
        return self == z_power_ideal(k)

    def nilpotence_exponent(self, k_max=K_MAX_DEFAULT):
        """Smallest k >= 0 with both w^k and z^k in the ideal."""
        for k in range(k_max + 1):
            if self.contains(w_pow(k)) and self.contains(z_pow(k)):
                return k
        raise NoWitnessBelowCapError(f"no exponent witness up to {k_max}")

    def zw_exponent(self, k_max=K_MAX_DEFAULT):
        """Minimal k such that the ideal contains lam*z^k + mu*w with lam != 0.

        By the R/(w) argument in the module docstring this is the least k
        with a nonzero multiple of z^k in J.  The lowest polynomial basis
        element b has the least degree of any nonzero element of J, so it
        generates J over Q; J thus holds some c*z^k iff b is a monomial c*z^j,
        and then the least such k is j.  NoSuchKError is raised when no k
        exists, and when the least one is above k_max.
        """
        if self.is_zero():
            raise NoSuchKError("zero ideal")
        low = next((b.poly for b in self.basis if b.poly), ())
        if not low or any(low[:-1]):
            raise NoSuchKError("no lam*z^k + mu*w with lam != 0 lies in the ideal")
        if len(low) > k_max + 1:
            raise NoSuchKError(f"no suitable power of z up to {k_max}")
        return len(low) - 1


def w_gcd(gens):
    """e of the ideal the ring elements gens generate: the gcd of their w-multipliers."""
    return gcd(*(g.w_multiplier() for g in gens))


def k_from_e(e):
    """Least k with some x in the ideal satisfying w*x = 2^k*w.

    Such x exists iff 2^k lies in the subgroup e*Z, so the answer is
    log2(e) when e is a power of two.
    """
    if e == 0:
        raise NoWitnessError("the w-multiplier subgroup is trivial")
    a = e.bit_length() - 1
    if e != 1 << a:
        try:
            name = str(e)
        except ValueError:  # more digits than CPython converts to text
            name = f"of {e.bit_length()} bits"
        raise NotSwfLikeError(f"w-multiplier generator {name} has an odd factor")
    return a


def _reduce(x, degrees, table, d):
    """Strong-reduce x against pivot table; the remainder is 0 iff x is a member."""
    while x.poly:
        e = x.degree
        idx = bisect_right(degrees, e) - 1
        if idx < 0:
            return x
        ep = degrees[idx]
        f = table[ep]
        a = x.poly[-1]
        c = f.poly[-1]
        if a % c:
            return x
        x = x - (a // c) * (z_pow(e - ep) * f)
    if d:
        return RingElem(x.wcoef % d, ())
    return x


def _sub(x, q, f, s):
    """x -= q*z^s*f on the coefficient list x, in place, then drop x's
    trailing zeros; z^s*f reaches no higher than x's top."""
    for i, c in enumerate(f, s):
        x[i] -= q * c
    while x and not x[-1]:
        x.pop()


def ideal_from_generators(gens):
    """Canonical completed form of the ideal generated by the ring elements gens."""
    gens = [g for g in gens if not g.is_zero()]
    max_deg = max((g.degree for g in gens if g.poly), default=-1)
    _cap("a generator of degree {}", max_deg, MAX_DEGREE, IdealError)
    e = w_gcd(gens)

    pool = {}  # polynomial degree -> (tuple, bit) with that degree, leading coeff > 0
    half = 0  # whether (0, 1), that is (e/2)*w, lies in the ideal
    work = [(g.poly, g.w_multiplier() // e & 1 if e else 0) for g in gens]

    def clamp(x, bit):
        # reduce the sub-leading coefficients of the list x below the current
        # pivots.  What the pool stores and what a merge pushes back onto work
        # pass through here, so the merges, which scale tails by cofactors,
        # never compound unclamped tails to astronomically many bits.  A work
        # element between two reduction steps needs none: an exact step adds
        # at most bits(a) + bits(pivot tail) to its next leading coefficient
        degrees = sorted(pool)
        for pos in range(len(x) - 2, -1, -1):
            idx = bisect_right(degrees, pos) - 1
            if idx < 0:
                break
            f, fbit = pool[degrees[idx]]
            q = x[pos] // f[-1]  # the leading term stays, so x keeps its length
            if q:
                _sub(x, q, f, pos - degrees[idx])
                if pos == degrees[idx]:  # a shift by s > 0 has bit 0
                    bit ^= q & fbit
        return tuple(x), bit

    def store(deg, x, bit):
        pool[deg] = entry = clamp(x, bit)
        # closing under the z-shift, bounded by max_deg; the w-action lands in Z*e*w
        if deg < max_deg:
            work.append(((0, *entry[0]), 0))
        return entry

    while work:
        x, bit = work.pop()
        x = list(x)
        while x:
            deg = len(x) - 1
            a = x[-1]
            entry = pool.get(deg)
            if entry is None:
                store(deg, x if a > 0 else [-c for c in x], bit)
                break
            f, fbit = entry
            c = f[-1]
            q, r = divmod(a, c)
            if not r:
                _sub(x, q, f, 0)
                bit ^= q & fbit
            else:
                u, v, g = xgcd(c, a)
                m, mbit = store(deg, [u * s + v * t for s, t in zip(f, x)], u & fbit ^ v & bit)
                rest = list(f)
                _sub(rest, c // g, m, 0)
                work.append(clamp(rest, fbit ^ c // g & mbit))
                _sub(x, a // g, m, 0)
                bit ^= a // g & mbit
        else:
            half |= bit  # x reduced to (0, bit)

    d = e // 2 if half else e
    if e % d if d else e:  # d | e, and 0 divides only 0
        raise RuntimeError(f"completion broke d | e (e = {e}, d = {d})")
    if e and 2 * d % e:
        raise RuntimeError(f"completion broke e | 2d (e = {e}, d = {d})")

    # one ascending walk prunes, clamps and builds the basis.  Each pivot below
    # max_deg pushed its z-shift, so there is a pivot at every degree from the
    # lowest up and each lead divides the one below; where two agree, the upper
    # pivot minus the lower one's shift reduces to (0, 0), or to (0, 1) when
    # half, against the lower pivots.  So a pivot is redundant iff its lead
    # equals the one below; the others get canonical tails (each sub-leading
    # coefficient c with 0 <= c < the lead of its pivot) against the kept
    # pivots below, which are final
    basis = [RingElem(d, ())] if d else []
    lead = 0
    for deg in sorted(pool):
        p, bit = pool[deg]
        if p[-1] == lead:
            del pool[deg]
            continue
        lead = p[-1]
        pool[deg] = p, bit = clamp(list(p), bit)
        lam = (e * bit - RingElem(0, p).w_multiplier()) // 2
        basis.append(RingElem(lam % d if d else lam, p))
    return IdealForm(tuple(basis), e, d)


def ideal_sum(i, j):
    return ideal_from_generators(i.basis + j.basis)


def ideal_product(i, j):
    return ideal_from_generators([a * b for a in i.basis for b in j.basis])


def z_power_ideal(k, l=None):
    """(2^l*w, z^k) in closed form, for l <= k <= l + 1; l = k, the default,
    gives (z^k), and l = k - 1 gives (w, z)*(z^l).  w*z^k = 2^k*w, so the form
    is (2^l*w, z^k) with e = 2^k and d = 2^l."""
    zk = z_pow(k)  # rejects k < 0 with the ring's message, before the shift can
    l = k if l is None else l
    if not l <= k <= l + 1:
        raise IdealError(f"(2^l*w, z^k) needs l <= k <= l + 1, got k = {k}, l = {l}")
    d = 1 << l
    return IdealForm((RingElem(d, ()), zk), d << (k - l), d)
