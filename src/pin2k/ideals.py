"""Canonical forms and decision procedures for finitely generated ideals.

An element lam*w + P(z) of the ring is treated as the pair (P, lam) in the
module Z[z] (+) Z*w, where z acts on the w-line by multiplication by 2 and
multiplying by w collapses everything onto the w-line.  An ideal is then a
sublattice of that module closed under the z-shift and the w-action, and it
admits a Hermite-style completed basis:

  * at most one basis element per polynomial degree, with positive leading
    coefficient; same-degree elements are merged by extended-gcd steps;
  * the z-shift of every kept element is folded back in;
  * a single pure-w element d*w records the subgroup {lam : lam*w in I}.
    Every w-image w*x = w_multiplier(x)*w of a member is a multiple of e*w,
    and e*w lies in I, so d starts at e and the w-action needs no closing.

Completion terminates: gcd merges never raise the polynomial degree, shifts
are only taken below the maximal generator degree, and the leading
coefficient at each degree can only shrink along a divisor chain.  Two
integers summarize the w-line:

  e  generates {w_multiplier(x) : x in I}  (the gcd over any generating set,
     since w_multiplier is multiplicative and Z-linear);
  d  generates {lam : lam*w in I};  d | e and e | 2d whenever I != 0 has a
     pure-w element, and completion raises IdealError if either fails.

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

from __future__ import annotations

from bisect import bisect_right
from math import gcd

from . import Pin2kError, Record
from .ring import RingElem, w_pow, z_pow

K_MAX_DEFAULT = 64

# Bound on the largest generator degree that completion takes.  Its pool
# holds up to one element per degree, each as long as that degree, so
# `z^1024 + 1, 2` takes about 0.6 s and `z^2048 + 1, 2` 2.5 s.
MAX_DEGREE = 2**10


def xgcd(a, b):
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b), g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


class IdealError(Pin2kError):
    pass


class NoWitnessError(IdealError):
    """No element x of the ideal satisfies w*x = 2^k*w for any k."""


class NotSwfLikeError(IdealError):
    """The w-multiplier subgroup has an odd factor, so no power of 2 lies in it."""


class NoWitnessBelowCapError(IdealError):
    """Search for an exponent witness exceeded the configured cap."""


class NoSuchKError(IdealError):
    """The ideal meets no line Z*z^k + Z*w with nonzero z-part below the cap."""


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
        and then the least such k is j.  Above k_max, NoSuchKError is raised.
        """
        if self.is_zero():
            raise NoSuchKError("zero ideal")
        low = next((b.poly for b in self.basis if b.poly), ())
        if low and not any(low[:-1]) and len(low) <= k_max + 1:
            return len(low) - 1
        raise NoSuchKError(f"no suitable power of z up to {k_max}")


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
        raise NotSwfLikeError(f"w-multiplier generator {e} has an odd factor")
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


def ideal_from_generators(gens):
    """Canonical completed form of the ideal generated by gens."""
    gens = [g if isinstance(g, RingElem) else RingElem(0, (g,)) for g in gens]
    gens = [g for g in gens if not g.is_zero()]
    max_deg = max((g.degree for g in gens if g.poly), default=-1)
    if max_deg > MAX_DEGREE:
        raise ValueError(f"a generator of degree {max_deg} is over the limit of {MAX_DEGREE}")
    e = w_gcd(gens)

    pool = {}  # polynomial degree -> element with that degree, leading coeff > 0
    d = e  # e*w = w*x for some x in I
    work = list(gens)

    def clamp(x):
        # reduce the sub-leading coefficients below the current pivots.  What
        # the pool stores and what a merge pushes back onto work pass through
        # here, so the xgcd merges, which scale tails by their cofactors,
        # never compound unclamped tails to astronomically many bits.  A work
        # element between two reduction steps needs none: an exact step adds
        # at most bits(a) + bits(pivot tail) to its next leading coefficient.
        degrees = sorted(pool)
        for pos in range(x.degree - 1, -1, -1):
            idx = bisect_right(degrees, pos) - 1
            if idx < 0:
                break
            b = x.poly[pos]  # the leading term stays, so x keeps its length
            if b:
                f = pool[degrees[idx]]
                x = x.sub_shifted(b // f.poly[-1], f, pos - degrees[idx])
        if d and x.wcoef:
            x = RingElem._make(x.wcoef % d, x.poly)
        return x

    def assigned(f):
        # closing under the z-shift, bounded by max_deg; the w-image of f and
        # z acting on pure-w elements both give multiples of d*w already
        if f.degree < max_deg:
            work.append(f.shift(1))

    while work:
        x = work.pop()
        while x.poly:
            deg = x.degree
            a = x.poly[-1]
            f = pool.get(deg)
            if f is None:
                if a < 0:
                    x = -x
                pool[deg] = clamp(x)
                assigned(pool[deg])
                x = RingElem()
                break
            c = f.poly[-1]
            if a % c == 0:
                x = x.sub_shifted(a // c, f, 0)
            else:
                u, v, g = xgcd(c, a)
                merged = clamp(u * f + v * x)
                pool[deg] = merged
                assigned(merged)
                work.append(clamp(f.sub_shifted(c // g, merged, 0)))
                x = x.sub_shifted(a // g, merged, 0)
        if x.wcoef:
            d = gcd(d, abs(x.wcoef))

    # ascending: drop each pivot that shifts of lower ones reduce to zero, and
    # give the others canonical tails (sub-leading coefficients in [0, pivot),
    # w-part mod d) against the lower pivots kept
    for deg in sorted(pool):
        lower = {k: v for k, v in pool.items() if k < deg}
        if _reduce(pool[deg], sorted(lower), lower, d).is_zero():
            del pool[deg]
        else:
            pool[deg] = clamp(pool[deg])
    degrees = sorted(pool)

    basis = []
    if d:
        basis.append(RingElem(d, ()))
    basis.extend(pool[deg] for deg in degrees)

    if d and e % d:
        raise IdealError(f"completion broke d | e (e = {e}, d = {d})")
    if e and 2 * d % e:
        raise IdealError(f"completion broke e | 2d (e = {e}, d = {d})")
    return IdealForm(tuple(basis), e, d)


def ideal_sum(i, j):
    return ideal_from_generators(i.basis + j.basis)


def ideal_product(i, j):
    return ideal_from_generators([a * b for a in i.basis for b in j.basis])


def z_power_ideal(k):
    """(z^k) in closed form: w*z^k = 2^k*w, so its form is (2^k*w, z^k) with e = d = 2^k."""
    zk = z_pow(k)  # rejects k < 0 with the ring's message, before the shift can
    d = 1 << k
    return IdealForm((RingElem(d, ()), zk), d, d)
