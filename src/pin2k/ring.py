"""Exact arithmetic in the representation ring of Pin(2).

The ring is Z[w, z] / (w^2 - 2w, z*w - 2w).  Its additive group is free
abelian on {1, z, z^2, ...} and w, so every element has a unique normal
form  lam*w + P(z)  with integer lam and integer polynomial P.  Both
relations act as rewrite rules (w^2 -> 2w, z*w -> 2w), which makes
normalization a single substitution pass; all coefficients are exact
Python integers, so powers like 2^k never overflow.

The two generator sets {w, z} and {c~, h} are related by w = 1 - c~ and
z = 2 - h.  The parser accepts both; storage is always in {w, z}.
"""

from functools import partial, reduce
from itertools import accumulate, compress
from math import comb
from operator import mul

from . import Pin2kError, Record, _cap, _int

# Bound on the bits of x^n, one more per coefficient, and of the powers that
# give its w-part.  `(1+z)^2046` takes about 1.6 s at this cap.
MAX_POWER_BITS = 2**22

# Bound on the schoolbook work of P^n, and of a product in the grammar,
# nonzero coefficients of one factor times coefficients of the other times
# bits, which a denser base reaches first: `(1 + z + ... + z^255)^45` (12 s)
# and `(1 + z + ... + z^15)^264` (3.5 s) are over it, `(1+z)^2046` (2047^3)
# just under it, and `(1+z)^2046*(1+z)^2046` (18 s) over it.  The powers and
# products of one expression share it too, so `(1+z)^2046+(1+z)^2046` is over it.
MAX_POWER_WORK = 2**33

# Bound on the work of restrict_s1: the sum over the nonzero coefficients c_k
# of (2k + 1) * (2k + bits(c_k)), its 2k + 1 binomial terms times their bits.
# `z^23169`, just under this cap, takes about 0.8 s and `z^2000` (work 1.6e7)
# 0.01 s; a dense polynomial of degree 800 (work 6.9e8) about 0.5 s.
MAX_RESTRICT_WORK = 2**31

# Bound on the coefficients that one expression's values hold, each counted
# as often as computing and reading it walks or copies them: a power's length,
# the two factors of a product, a negated value, the running total at each
# addition of a sum, and each item's value twice more for its readers (its
# text, its w-multiplier).  The work caps count bits, one a coefficient for a
# monomial's power, so `"+".join(["z^2000000"] * 100)` ran 12 s under them.
# The slowest inputs under this cap, such as `ideal k --gens` with two copies
# of `(z^932066+0)^2` or the 5788-factor `z*z*...*z`, take 0.7 to 1.3 s in
# process, less than `(1+z)^2046` on the same 2-vCPU Xeon.
MAX_COEFFICIENTS = 2**24


def _strip(coeffs):
    """The list coeffs as a tuple without trailing zeros; () is the zero polynomial.

    Pops the zeros off coeffs itself, so callers pass a list of their own.
    """
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_add(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return _strip(out)


def _poly_sub(p, q):
    """P - Q in one pass over Q, with no negated copy of it."""
    out = list(p)
    out += [0] * (len(q) - len(p))
    for i, c in enumerate(q):
        out[i] -= c
    return _strip(out)


def _poly_mul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _strip(out)


def _at_two(p):
    """P(2).  Horner's rule doubles an ever longer integer at each step, which
    is quadratic in the degree, so a long sum is split as
    P_low(2) + 2^h * P_high(2) and only short ones run Horner."""
    if len(p) > 64:
        h = len(p) // 2
        return _at_two(p[:h]) + (_at_two(p[h:]) << h)
    acc = 0
    for c in reversed(p):
        acc = acc * 2 + c
    return acc


class RingElem(Record):
    """Normal form lam*w + P(z); poly holds P's coefficients, low degree first.

    The constructor takes ints and bools for wcoef and the coefficients of
    poly (any iterable), stores them as int, refuses any other value with a
    TypeError and drops trailing zeros from poly.  A poly that is already a
    tuple of ints without trailing zeros is kept, not copied.  It sets the
    fields itself, not through Record.__init__, since every int operand is
    coerced through it.

    The results of +, -, unary -, *, ** and z_pow build through the
    unchecked _make instead.  They are normal forms by construction: their
    operands are RingElems, an int or bool operand having passed the
    constructor in _coerce, so every coefficient is an int, and _strip or a
    nonzero top coefficient leaves no trailing zero.  The constructor keeps
    every check, because every value from outside reaches a RingElem through
    it (a caller's arguments, the ideals' tables, the parser's literals), and
    _make would store a float or a padded tuple as it is.
    """

    __slots__ = ("wcoef", "poly")

    def __init__(self, wcoef=0, poly=()):
        object.__setattr__(self, "wcoef", wcoef if type(wcoef) is int else _as_int(wcoef, "wcoef"))
        if type(poly) is not tuple or not all(type(c) is int for c in poly) or (poly and not poly[-1]):
            if not hasattr(poly, "__iter__"):
                raise TypeError(f"RingElem poly must be an iterable, got {poly!r}")
            poly = _strip([_as_int(c, "poly coefficient") for c in poly])
        object.__setattr__(self, "poly", poly)

    @classmethod
    def _make(cls, wcoef, poly):
        """Trusted constructor for the results of ring operations: wcoef an
        int and poly a tuple of ints without trailing zeros, bound unchecked
        through the slot descriptors."""
        self = object.__new__(cls)
        _set_wcoef(self, wcoef)
        _set_poly(self, poly)
        return self

    # -- structure ----------------------------------------------------------

    @property
    def degree(self):
        """Degree of the polynomial part; -1 stands in for the zero polynomial."""
        return len(self.poly) - 1

    def is_zero(self):
        return self.wcoef == 0 and not self.poly

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElem._make(self.wcoef + other.wcoef, _poly_add(self.poly, other.poly))

    __radd__ = __add__

    def __neg__(self):
        return RingElem._make(-self.wcoef, tuple(-c for c in self.poly))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElem._make(self.wcoef - other.wcoef, _poly_sub(self.poly, other.poly))

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        # (lam*w + P)(mu*w + Q) = (2*lam*mu + lam*Q(2) + mu*P(2))*w + P*Q,
        # using w^2 = 2w and w*z^k = 2^k*w.
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        lam, mu = self.wcoef, other.wcoef
        wpart = 2 * lam * mu
        if lam:  # each P(2) only where the other side has a w-part to pair it with
            wpart += lam * _at_two(other.poly)
        if mu:
            wpart += mu * _at_two(self.poly)
        return RingElem._make(wpart, _poly_mul(self.poly, other.poly))

    __rmul__ = __mul__

    def _power_bounds(self, n):
        """Checks x^n against both caps before anything is multiplied and returns
        bounds on the length, the nonzero coefficients and the coefficient bits
        of its polynomial part, its work, and P(2) of x."""
        if not isinstance(n, int) or n < 0:
            raise Pin2kError("exponent must be a nonnegative integer")
        p2 = _at_two(self.poly)
        wmul = 2 * self.wcoef + p2
        # |coefficients of P^n| <= |P|_1^n and (a - 1).bit_length() = ceil(log2 a),
        # so a monomial's powers cost one bit a coefficient
        norm = max(sum(map(abs, self.poly)), 1)
        size, coef_bits = n * max(self.degree, 0) + 1, n * (norm - 1).bit_length() + 1
        bits = size * coef_bits + n * (max(abs(wmul), abs(p2), 1) - 1).bit_length()
        _cap("a power of up to {} bits", bits, MAX_POWER_BITS)
        # each product of the squaring pairs the nonzero coefficients of one
        # factor, of which a power P^k of a t-term P has at most C(t + k - 1, k),
        # with at most `size` of the other, all of at most `coef_bits` bits; a
        # monomial's one term keeps this under the bits cap
        terms = len(self.poly) - self.poly.count(0)
        terms = min(size, comb(terms + n - 1, n) if terms else 1)
        work = terms * size * coef_bits
        _cap("a power of work {}", work, MAX_POWER_WORK)
        return size, terms, coef_bits, work, p2

    def __pow__(self, n):
        # P^n by squaring.  The w-part follows from w*x^n = w_multiplier(x)^n*w
        # and w*P^n = P(2)^n*w; the difference is even since
        # w_multiplier(x) = 2*lam + P(2).
        *_, p2 = self._power_bounds(n)
        wpart = ((2 * self.wcoef + p2) ** n - p2**n) // 2
        if self.poly and not any(self.poly[:-1]):
            # c*z^m, whose power c^n*z^(mn) needs no product
            return RingElem._make(wpart, (0,) * (n * self.degree) + (self.poly[-1] ** n,))
        poly, base = (1,), self.poly
        while n:
            if n & 1:
                poly = _poly_mul(poly, base)
            n >>= 1
            if n:
                base = _poly_mul(base, base)
        return RingElem._make(wpart, poly)

    # -- homomorphisms and the w-line ---------------------------------------

    def augment(self):
        """Rank homomorphism to Z: both generators w and z map to 0."""
        return self.poly[0] if self.poly else 0

    def w_multiplier(self):
        """The unique integer c with w * self == c * w, namely 2*lam + P(2)."""
        return 2 * self.wcoef + _at_two(self.poly)

    def restrict_s1(self):
        """Restriction to the circle subgroup: w -> 0, z -> 2 - theta - 1/theta.

        Since z = -theta^-1 (theta - 1)^2, z^k goes to the sum over j = 0..2k
        of (-1)^(k+j) C(2k, j) theta^(k-j).
        """
        poly = self.poly
        work = sum((2 * k + 1) * (2 * k + poly[k].bit_length()) for k in compress(range(len(poly)), poly))
        _cap("a restriction of work {}", work, MAX_RESTRICT_WORK)
        out = {}
        for k, c in enumerate(poly):
            if c:
                term = c if k % 2 == 0 else -c  # the j = 0 term, times c
                for j in range(2 * k + 1):
                    out[k - j] = out.get(k - j, 0) + term
                    term = -term * (2 * k - j) // (j + 1)
        return LaurentElem(tuple(sorted((e, a) for e, a in out.items() if a)))

    # -- formatting ----------------------------------------------------------

    def __str__(self):
        terms = [(a, _monomial("z", i)) for i, a in enumerate(self.poly) if a]
        if self.wcoef:
            terms.append((self.wcoef, "w"))
        return _format_terms(terms)

    def __repr__(self):
        return f"RingElem({self})"


# the slot writers behind RingElem._make, looked up once: a direct slot write
# skips Record.__init__'s argument checks and the __setattr__ lookup
_set_wcoef = RingElem.__dict__["wcoef"].__set__
_set_poly = RingElem.__dict__["poly"].__set__


def _as_int(value, field):
    """An int or bool value as an int; anything else, a float or a str too, is refused."""
    if not isinstance(value, int):
        raise TypeError(f"RingElem {field} must be an int, got {value!r}")
    return int(value)


def _format_terms(terms):
    """Sum of (coefficient, monomial) terms, coefficients nonzero; "" is the monomial 1."""
    if not terms:
        return "0"
    pieces = []
    for idx, (a, mono) in enumerate(terms):
        mag = abs(a)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if idx == 0:
            pieces.append(body if a > 0 else "-" + body)
        else:
            pieces.append(("+ " if a > 0 else "- ") + body)
    return " ".join(pieces)


def _monomial(name, i):
    """name^i as a term prints it: "" for i = 0, name for i = 1."""
    return "" if i == 0 else name if i == 1 else f"{name}^{i}"


def _coerce(value):
    if isinstance(value, RingElem):
        return value
    if isinstance(value, int):
        return RingElem(0, (value,))
    return NotImplemented


ZERO = RingElem()
ONE = RingElem(0, (1,))
W = RingElem(1, ())
Z = RingElem(0, (0, 1))


def const(n):
    return RingElem(0, (n,))


def z_pow(k):
    if k < 0:
        raise Pin2kError("z exponent must be nonnegative")
    return RingElem._make(0, (0,) * k + (1,))


def w_pow(k):
    """w^k in normal form: 1 for k = 0, else 2^(k-1) * w."""
    if k < 0:
        raise Pin2kError("w exponent must be nonnegative")
    return ONE if k == 0 else RingElem(2 ** (k - 1), ())


# -- the alternate generator set {c~, h} -------------------------------------

CTILDE = ONE - W
H = const(2) - Z


class LaurentElem(Record):
    """Finitely supported integer Laurent polynomial in theta; terms is
    sorted ((exponent, coeff), ...) with every coeff nonzero."""

    __slots__ = ("terms",)
    _defaults = {"terms": ()}

    def __str__(self):
        return _format_terms([(c, _monomial("theta", e)) for e, c in self.terms])


# -- parsing ------------------------------------------------------------------


class ParseError(Pin2kError):
    """Syntax error in the element grammar; offset is a byte offset."""

    def __init__(self, message, text, pos):
        self.offset = len(text[:pos].encode("utf-8"))
        super().__init__(f"{message} at byte {self.offset}")


_IDENTS = {"w": W, "z": Z, "c~": CTILDE, "h": H}
_DIGITS = "0123456789"

# Bound on open parentheses plus pending unary minus signs.  The parser
# recurses up to five frames per level, so this keeps it well inside
# Python's default recursion limit of 1000, however deep the caller's stack.
MAX_NESTING = 100


class _Tokens:
    def __init__(self, text, items=False):
        self.text = text
        self.items = []  # (kind, value, position)
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in _DIGITS:
                j = i
                while j < n and text[j] in _DIGITS:
                    j += 1
                value = _int(text[i:j], "integer literal", partial(ParseError, text=text, pos=i))
                self.items.append(("int", value, i))
                i = j
            elif ch == "c" and i + 1 < n and text[i + 1] == "~":
                self.items.append(("ident", "c~", i))
                i += 2
            elif ch in ("w", "z", "h"):
                self.items.append(("ident", ch, i))
                i += 1
            elif ch in "+-*^()" or items and ch == ",":
                self.items.append((ch, ch, i))
                i += 1
            else:
                raise ParseError(f"unexpected character {ch!r}", text, i)
        self.items.append(("end", None, n))
        self.pos = 0
        self.depth = 0
        self.work = 0  # of the powers and products read so far
        self.coefficients = 0  # of the values read so far, as MAX_COEFFICIENTS counts them

    def check_work(self):
        """Refuses the expression, before any of it is computed, once the
        powers and products read so far together pass the work cap, or the
        values read so far the coefficient cap."""
        _cap("an expression of work {}", self.work, MAX_POWER_WORK)
        _cap("an expression of {} coefficients", self.coefficients, MAX_COEFFICIENTS)

    def peek(self):
        return self.items[self.pos]

    def next(self):
        tok = self.items[self.pos]
        self.pos += 1
        return tok

    def enter(self, pos):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING}", self.text, pos)

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            found = "end of input" if tok[0] == "end" else repr(tok[1])
            raise ParseError(f"expected {kind!r}, found {found}", self.text, tok[2])
        return tok


def parse(text, items=False):
    """Parse an expression over integers, w, z, c~, h with + - * ^ and parens;
    with items, the list of the comma-separated expressions of text, empty
    ones skipped, which share one work cap and one coefficient cap."""
    toks = _Tokens(text, items)
    makes, kind = [], None
    while kind != "end":
        if not items or toks.peek()[0] not in (",", "end"):  # else an empty item
            make, length, *_ = _parse_sum(toks)
            toks.coefficients += 2 * length  # its readers
            makes.append(make)
        kind, value, pos = toks.next()
        if kind not in (",", "end"):  # "," is a token only with items
            raise ParseError(f"trailing input {value!r}", text, pos)
    toks.check_work()
    values = [make() for make in makes]
    return values if items else values[0]


def _parse_sum(toks):
    """A sum as a factor, bounded by its terms' bounds: the longest term's
    length, the terms' nonzero coefficients (at most that length) and the
    largest term's bits plus the bits of the number of terms."""
    factors, signs = [_parse_product(toks)], [1]
    while toks.peek()[0] in ("+", "-"):
        signs.append(1 if toks.next()[0] == "+" else -1)
        factors.append(_parse_product(toks))
    if len(factors) == 1:
        return factors[0]

    def make():  # a loop, so that a long flat sum does not recurse
        total = ZERO
        for (term, *_), sign in zip(factors, signs):
            total = total + term() if sign > 0 else total - term()
        return total

    running = list(accumulate((factor[1] for factor in factors), max))
    toks.coefficients += sum(running)  # each addition copies the running total
    length = running[-1]
    terms = min(sum(factor[2] for factor in factors), length)
    return make, length, terms, max(factor[3] for factor in factors) + len(factors).bit_length()


def _factor(x):
    """x as a factor, which every grammar level returns: a thunk and the
    length, the nonzero coefficients and the coefficient bits of its
    polynomial part.  A power, a product or a sum is parsed into its thunk
    and the bounds on these, and passes through parentheses as it is, so
    that a product is refused before its factors' powers are taken.  The
    checks run as the text is parsed, so a thunk raises nothing."""
    p = x.poly
    return (lambda: x), len(p), len(p) - p.count(0), max(map(abs, p), default=0).bit_length()


def _parse_product(toks):
    """A product as a factor, bounded before anything in it is multiplied.
    The running product P*Q is bounded from the bounds of P and Q: length
    len(P) + len(Q) - 1, or 0 if either is 0; at most terms(P) * terms(Q)
    nonzero coefficients, and no more than that length; coefficient bits
    bits(P) + bits(Q) + bits(len(Q))."""
    factors = [_parse_unary(toks)]
    _, length, terms, bits = factors[0]
    while toks.peek()[0] == "*":
        toks.next()
        factors.append(_parse_unary(toks))
        _, length_rhs, terms_rhs, bits_rhs = factors[-1]
        # the schoolbook work of P*Q, as for powers: each nonzero coefficient of
        # P meets every coefficient of Q, in a sum of at most len(Q) products
        # that has at most the new bits
        bits += bits_rhs + length_rhs.bit_length()
        work = terms * length_rhs * bits
        _cap("a product of work {}", work, MAX_POWER_WORK)
        toks.work += work
        toks.coefficients += length + length_rhs
        toks.check_work()
        length = length + length_rhs - 1 if length and length_rhs else 0
        terms = min(terms * terms_rhs, length)
    if len(factors) == 1:
        return factors[0]
    # one fold, so that a long chain does not recurse
    return (lambda: reduce(mul, (make() for make, *_ in factors))), length, terms, bits


def _parse_unary(toks):
    if toks.peek()[0] == "-":
        toks.enter(toks.next()[2])
        make, *bounds = _parse_unary(toks)
        toks.depth -= 1
        toks.coefficients += bounds[0]
        return (lambda: -make()), *bounds
    return _parse_power(toks)


def _parse_power(toks):
    """A power x^n waits for its product's check as partial(pow, x, n), its
    work counted in toks.  A chain x^a^b, or a power (x^a)^b of one, is the
    one power x^(a*b), bounded and counted once as that power, and x^1 is x."""
    factor = _parse_atom(toks)
    n = 1
    while toks.peek()[0] == "^":
        toks.next()
        n *= toks.expect("int")[1]
    if n == 1:
        return factor
    if type(factor[0]) is partial:
        base, inner = factor[0].args
        n *= inner
        size, *_, work, _ = base._power_bounds(inner)
        toks.work -= work
        toks.coefficients -= size
    else:
        toks.check_work()
        base = factor[0]()
    *bounds, work, _ = base._power_bounds(n)
    toks.work += work
    toks.coefficients += bounds[0]
    return partial(pow, base, n), *bounds


def _parse_atom(toks):
    kind, val, pos = toks.next()
    if kind == "int":
        return _factor(const(val))
    if kind == "ident":
        return _factor(_IDENTS[val])
    if kind == "(":
        toks.enter(pos)
        factor = _parse_sum(toks)
        toks.expect(")")
        toks.depth -= 1
        return factor
    if kind == "end":
        raise ParseError("unexpected end of input", toks.text, pos)
    raise ParseError(f"unexpected token {val!r}", toks.text, pos)
