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

from __future__ import annotations

import sys

from . import Pin2kError, Record

# Bound on the bits of x^n, one more per coefficient, and of the powers that
# give its w-part.  `(1+z)^2046` takes about 1.6 s at this cap; a denser base
# takes longer, `(1 + z + ... + z^255)^45` about 12 s.
MAX_POWER_BITS = 2**22


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


def _poly_mul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _strip(out)


def _poly_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


class RingElem(Record):
    """Normal form lam*w + P(z); poly holds P's coefficients, low degree first.

    The constructor coerces wcoef and the coefficients of poly (any
    iterable) to int and drops trailing zeros from poly.  A poly that is
    already a tuple of ints without trailing zeros is kept, not copied.  It
    sets the fields itself, not through Record.__init__, since every ring
    operation builds one.
    """

    __slots__ = ("wcoef", "poly")

    def __init__(self, wcoef=0, poly=()):
        object.__setattr__(self, "wcoef", int(wcoef))
        if type(poly) is not tuple or not all(type(c) is int for c in poly) or (poly and not poly[-1]):
            poly = _strip([int(c) for c in poly])
        object.__setattr__(self, "poly", poly)

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
        return RingElem(self.wcoef + other.wcoef, _poly_add(self.poly, other.poly))

    __radd__ = __add__

    def __neg__(self):
        return RingElem(-self.wcoef, tuple(-c for c in self.poly))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        # (lam*w + P)(mu*w + Q) = (2*lam*mu + lam*Q(2) + mu*P(2))*w + P*Q,
        # using w^2 = 2w and w*z^k = 2^k*w.
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        lam, mu = self.wcoef, other.wcoef
        wpart = 2 * lam * mu + lam * _poly_eval(other.poly, 2) + mu * _poly_eval(self.poly, 2)
        return RingElem(wpart, _poly_mul(self.poly, other.poly))

    __rmul__ = __mul__

    def __pow__(self, n):
        # P^n by squaring.  The w-part follows from w*x^n = w_multiplier(x)^n*w
        # and w*P^n = P(2)^n*w; the difference is even since
        # w_multiplier(x) = 2*lam + P(2).
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        p2 = _poly_eval(self.poly, 2)
        wmul = 2 * self.wcoef + p2
        # |coefficients of P^n| <= |P|_1^n and (a - 1).bit_length() = ceil(log2 a),
        # so a monomial's powers cost one bit a coefficient
        norm = max(sum(map(abs, self.poly)), 1)
        bits = (n * max(self.degree, 0) + 1) * (n * (norm - 1).bit_length() + 1)
        bits += n * (max(abs(wmul), abs(p2), 1) - 1).bit_length()
        if bits > MAX_POWER_BITS:
            raise ValueError(f"a power of up to {bits} bits is over the limit of {MAX_POWER_BITS}")
        wpart = (wmul**n - p2**n) // 2
        poly, base = (1,), self.poly
        while n:
            if n & 1:
                poly = _poly_mul(poly, base)
            n >>= 1
            if n:
                base = _poly_mul(base, base)
        return RingElem(wpart, poly)

    # -- homomorphisms and the w-line ---------------------------------------

    def augment(self):
        """Rank homomorphism to Z: both generators w and z map to 0."""
        return self.poly[0] if self.poly else 0

    def w_multiplier(self):
        """The unique integer c with w * self == c * w, namely 2*lam + P(2)."""
        return 2 * self.wcoef + _poly_eval(self.poly, 2)

    def restrict_s1(self):
        """Restriction to the circle subgroup: w -> 0, z -> 2 - theta - 1/theta.

        Since z = -theta^-1 (theta - 1)^2, z^k goes to the sum over j = 0..2k
        of (-1)^(k+j) C(2k, j) theta^(k-j).
        """
        out = {}
        for k, c in enumerate(self.poly):
            if c:
                term = c if k % 2 == 0 else -c  # the j = 0 term, times c
                for j in range(2 * k + 1):
                    out[k - j] = out.get(k - j, 0) + term
                    term = -term * (2 * k - j) // (j + 1)
        return LaurentElem(tuple(sorted((e, a) for e, a in out.items() if a)))

    # -- formatting ----------------------------------------------------------

    def __str__(self):
        terms = []
        for i, a in enumerate(self.poly):
            if a:
                terms.append((a, _z_monomial(i)))
        if self.wcoef:
            terms.append((self.wcoef, "w"))
        return _format_terms(terms)

    def __repr__(self):
        return f"RingElem({self})"


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


def _z_monomial(i):
    if i == 0:
        return ""
    if i == 1:
        return "z"
    return f"z^{i}"


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
        raise ValueError("z exponent must be nonnegative")
    return RingElem(0, (0,) * k + (1,))


def w_pow(k):
    """w^k in normal form: 1 for k = 0, else 2^(k-1) * w."""
    if k < 0:
        raise ValueError("w exponent must be nonnegative")
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
        return _format_terms([(c, _theta_monomial(e)) for e, c in self.terms])


def _theta_monomial(e):
    if e == 0:
        return ""
    if e == 1:
        return "theta"
    return f"theta^{e}"


# -- parsing ------------------------------------------------------------------


class ParseError(Pin2kError, ValueError):
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


def _digit_limit():
    """CPython's cap on the digits of an int converted from or to text; 0 is none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


class _Tokens:
    def __init__(self, text):
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
                limit = _digit_limit()
                if limit and j - i > limit:
                    raise ParseError(f"integer literal has {j - i} digits, over the limit of {limit}", text, i)
                self.items.append(("int", int(text[i:j]), i))
                i = j
            elif ch == "c" and i + 1 < n and text[i + 1] == "~":
                self.items.append(("ident", "c~", i))
                i += 2
            elif ch in ("w", "z", "h"):
                self.items.append(("ident", ch, i))
                i += 1
            elif ch in "+-*^()":
                self.items.append((ch, ch, i))
                i += 1
            else:
                raise ParseError(f"unexpected character {ch!r}", text, i)
        self.items.append(("end", None, n))
        self.pos = 0
        self.depth = 0

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


def parse(text):
    """Parse an expression over integers, w, z, c~, h with + - * ^ and parens."""
    toks = _Tokens(text)
    value = _parse_sum(toks)
    tok = toks.peek()
    if tok[0] != "end":
        raise ParseError(f"trailing input {tok[1]!r}", text, tok[2])
    return value


def _parse_sum(toks):
    value = _parse_product(toks)
    while toks.peek()[0] in ("+", "-"):
        op = toks.next()[0]
        rhs = _parse_product(toks)
        value = value + rhs if op == "+" else value - rhs
    return value


def _parse_product(toks):
    value = _parse_unary(toks)
    while toks.peek()[0] == "*":
        toks.next()
        value = value * _parse_unary(toks)
    return value


def _parse_unary(toks):
    if toks.peek()[0] == "-":
        toks.enter(toks.next()[2])
        value = -_parse_unary(toks)
        toks.depth -= 1
        return value
    return _parse_power(toks)


def _parse_power(toks):
    value = _parse_atom(toks)
    while toks.peek()[0] == "^":
        toks.next()
        tok = toks.expect("int")
        value = value ** tok[1]
    return value


def _parse_atom(toks):
    kind, val, pos = toks.next()
    if kind == "int":
        return const(val)
    if kind == "ident":
        return _IDENTS[val]
    if kind == "(":
        toks.enter(pos)
        value = _parse_sum(toks)
        toks.expect(")")
        toks.depth -= 1
        return value
    if kind == "end":
        raise ParseError("unexpected end of input", toks.text, pos)
    raise ParseError(f"unexpected token {val!r}", toks.text, pos)
