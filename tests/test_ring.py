import hashlib
import random
import re
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pin2k import Pin2kError, ring
from pin2k.ring import (
    CTILDE,
    H,
    MAX_COEFFICIENTS,
    MAX_POWER_BITS,
    MAX_POWER_WORK,
    MAX_RESTRICT_WORK,
    ONE,
    W,
    Z,
    ZERO,
    LaurentElem,
    ParseError,
    RingElem,
    const,
    parse,
    w_pow,
    z_pow,
)

from oracles import mul_matrix_oracle, random_pair

coeffs = st.integers(min_value=-9, max_value=9)
polys = st.lists(coeffs, max_size=7).map(tuple)
elems = st.builds(RingElem, coeffs, polys)
# rational points at which to compare Laurent polynomials in theta
THETAS = (Fraction(2), Fraction(-3, 5), Fraction(7, 2))


def as_pair(x):
    return x.poly, x.wcoef


def at(laurent, theta):
    return sum(c * theta**e for e, c in laurent.terms)


class TestParse:
    def test_relations(self):
        assert parse("w*z") == 2 * W
        assert parse("w*w") == 2 * W
        assert parse("0") == ZERO
        assert parse("(1 - w)*(1 - w)") == ONE

    def test_mixed_generators(self):
        assert parse("c~") == ONE - W
        assert parse("h") == const(2) - Z
        assert parse("c~*h") == const(2) - Z  # c~ absorbs into h

    def test_powers_and_unary(self):
        assert parse("z^3") == z_pow(3)
        assert parse("-z + w") == W - Z
        assert parse("2*z^2 - 3") == RingElem(0, (-3, 0, 2))
        assert parse("w^0") == ONE

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("w +", 3),
            ("(z", 2),
            ("z^", 2),
            ("q", 0),
            ("1 ** 2", 3),
            ("z^-1", 2),
            ("\uff11\uff12", 0),  # fullwidth digits
            ("z^\u00b2", 2),  # superscript two
            ("(\u00b2)", 1),
            ("2 + \u0663", 4),  # Arabic-Indic digit three
            ("(" * 101 + "1" + ")" * 101, 100),
            ("-" * 101 + "1", 100),
            ("-(" * 50 + "-1" + ")" * 50, 100),
        ],
    )
    def test_errors_carry_byte_offsets(self, text, offset):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.offset == offset

    def test_digit_runs_up_to_the_int_str_limit(self):
        assert parse("9" * 4300) == const(10**4300 - 1)
        with pytest.raises(ParseError, match="integer literal of 5000 digits is over the limit of 4300 at byte 4"):
            parse("z + " + "7" * 5000)

    def test_nesting_up_to_the_limit(self):
        assert parse("(" * 100 + "z" + ")" * 100) == Z
        assert parse("-" * 100 + "z") == Z
        assert parse("-(" * 50 + "z" + ")" * 50) == Z
        assert parse(" + ".join(["(((z)))"] * 200)) == 200 * Z  # depth is per level, not per input

    def test_format_roundtrip_examples(self):
        for text in ["0", "1", "-1", "z", "-z", "w", "3 - 2*z + z^2 - 4*w", "2*w"]:
            assert str(parse(text)) == text

    @given(elems)
    def test_parse_format_identity(self, x):
        assert parse(str(x)) == x

    def test_rearranged_expressions_normalize_identically(self):
        rng = random.Random(20240811)
        for _ in range(300):
            a, b = _equivalent_expressions(rng)
            assert parse(a) == parse(b), (a, b)

    def test_seeded_expression_corpus_digest(self):
        # pins the value or the error of 5,000 seeded expressions: sums,
        # differences and products, some raised to a power, negated, or
        # broken by one inserted character; the digest was written before
        # the ring operations returned through RingElem._make
        lines = []
        for text in _expression_corpus(random.Random(20261019), 5000):
            try:
                lines.append(repr(parse(text)))
            except Pin2kError as error:
                lines.append(f"{type(error).__name__}: {error}")
        assert sum(line.startswith("ParseError") for line in lines) == 411
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "d9bfbffdb84dfc79b252c9ff0acf5ff14e7121ddc234f6b191fa0c9c6b7855aa"


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["w", "z", "c~", "h", str(rng.randint(0, 9))])
    op = rng.choice(["+", "-", "*"])
    left = _random_tree(rng, depth - 1)
    right = _random_tree(rng, depth - 1)
    return (op, left, right)


def _render(tree, swap):
    if isinstance(tree, str):
        return tree
    op, left, right = tree
    a, b = _render(left, swap), _render(right, swap)
    if swap and op in "+*":
        a, b = b, a
    return f"({a} {op} {b})"


def _expression_corpus(rng, n):
    for _ in range(n):
        text = _render(_random_tree(rng, rng.randint(1, 6)), rng.random() < 0.5)
        r = rng.random()
        if r < 0.2:
            text = f"({text})^{rng.randint(0, 5)}"
        elif r < 0.3:
            text = "-" + text
        elif r < 0.4:
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice("()+-*^~q ") + text[i:]
        yield text


def _equivalent_expressions(rng):
    tree = _random_tree(rng, rng.randint(1, 4))
    return _render(tree, False), _render(tree, True)


class TestArithmetic:
    def test_spec_products(self):
        assert (W + Z) * Z == RingElem(2, (0, 0, 1))
        assert Z * W == 2 * W
        assert w_pow(3) == RingElem(4, ())
        assert z_pow(0) == ONE

    @given(elems, elems, elems)
    def test_ring_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * ONE == x
        assert x + ZERO == x
        assert (x + (-x)).is_zero()
        assert x - y == x + (-y)

    @given(elems, elems)
    def test_mul_matches_matrix_oracle(self, x, y):
        assert as_pair(x * y) == mul_matrix_oracle(as_pair(x), as_pair(y))

    def test_mul_matrix_oracle_random_sweep(self):
        rng = random.Random(7)
        for _ in range(500):
            xp = random_pair(rng)
            yp = random_pair(rng)
            x = RingElem(xp[1], xp[0])
            y = RingElem(yp[1], yp[0])
            assert as_pair(x * y) == mul_matrix_oracle(xp, yp)

    def test_constructor_strips_and_coerces(self):
        x = RingElem(True, [1, False, 0, 0])
        assert (x.wcoef, x.poly) == (1, (1,))
        assert type(x.wcoef) is int and type(x.poly) is tuple and type(x.poly[0]) is int
        assert RingElem(0, (0, 0)).poly == () and RingElem(0, (0, 0)) == ZERO
        assert RingElem(0, (c for c in (2, 3, 0))) == RingElem(0, (2, 3))
        padded = (3, 0, 0)
        assert RingElem(1, padded).poly == (3,) and padded == (3, 0, 0)
        normal = (3, 0, 4)
        assert RingElem(1, normal).poly is normal

    def test_constructor_refuses_non_integers(self):
        # int() once truncated these: RingElem(1.5, ()) was RingElem(1, ())
        # and RingElem(0, ["3"]) was 3
        cases = [
            ((1.5, ()), "wcoef must be an int, got 1.5"),
            (("1", ()), "wcoef must be an int, got '1'"),
            ((0, [Fraction(7, 2)]), "poly coefficient must be an int, got Fraction(7, 2)"),
            ((0, ["3"]), "poly coefficient must be an int, got '3'"),
            ((0, (1, 2.0)), "poly coefficient must be an int, got 2.0"),
            ((0, 5), "poly must be an iterable, got 5"),
        ]
        for args, message in cases:
            with pytest.raises(TypeError, match=f"^RingElem {re.escape(message)}$"):
                RingElem(*args)

    @given(elems, elems, st.one_of(coeffs, st.booleans()), st.integers(0, 40))
    def test_operations_stay_in_normal_form(self, x, y, n, k):
        # the operations return through the trusted _make, so each result
        # must be the normal form the validating constructor would build
        results = [x + y, x - y, -x, x * y, x - x, x + (-x), z_pow(k)]
        results += [x + n, n + x, x - n, n - x, x * n, n * x]
        results += [z_pow(2) - z_pow(2), W - W, (Z + 1) * (Z - 1) + 1, True * Z, Z + False, -(W * 0)]
        results += [3 - Z, Z - True, False * Z, True - W]
        for r in results:
            assert_normal(r)
        assert n - x == -(x - n) and x - n == x + (-n)
        assert (z_pow(2) - z_pow(2)) == ZERO and (Z + 1) * (Z - 1) + 1 == z_pow(2)

    @given(st.one_of(elems, st.just(ZERO), st.builds(RingElem, coeffs)), st.integers(0, 8))
    def test_power_is_the_repeated_product(self, x, n):
        product = ONE
        for _ in range(n):
            product = product * x
        assert x**n == product

    @given(coeffs, coeffs.filter(bool), st.integers(0, 6), st.integers(0, 8))
    def test_monomial_power_is_the_repeated_product(self, lam, c, m, n):
        # lam*w + c*z^m takes its power in closed form, without a product
        x = RingElem(lam, (0,) * m + (c,))
        product = ONE
        for _ in range(n):
            product = product * x
        assert x**n == product
        assert_normal(x**n)

    def test_negative_exponents_are_refused(self):
        for refuse, message in [
            (lambda: z_pow(-1), "z exponent must be nonnegative"),
            (lambda: w_pow(-1), "w exponent must be nonnegative"),
            (lambda: Z**-1, "exponent must be a nonnegative integer"),
        ]:
            with pytest.raises(Pin2kError, match=f"^{message}$"):
                refuse()

    def test_power_size_cap(self):
        # 2^k has k + 1 bits, and its w-part is 2^k - 2^k, so it counts 2k + 1
        assert (const(2) ** 2097151).poly == (2**2097151,)
        with pytest.raises(Pin2kError, match=f"^a power of up to 4194305 bits is over the limit of {MAX_POWER_BITS}$"):
            const(2) ** 2097152
        # each of these is cheap to compute uncapped; tests/test_cli.py runs
        # the ones that are not in a subprocess with bounded memory
        for x, n in [(Z, 2097152), (W, 4194304), (ONE + Z, 2047), (const(3) - 2 * W, 2 * 10**6)]:
            with pytest.raises(Pin2kError, match="over the limit"):
                x**n
        # powers of 0 and of units cost nothing however large the exponent
        assert ZERO ** 10**12 == ZERO and ONE ** 10**12 == ONE and (-ONE) ** (10**12 + 1) == -ONE
        assert CTILDE ** (10**12 + 1) == CTILDE
        # ^ chains left to right, and a chain or a power in parentheses is the
        # one power it equals, checked as that power: 3^600000^2 is 3^1200000
        assert parse("2^3^2") == const(64) and parse("z^2^3") == parse("(z^2)^3") == z_pow(6)
        assert parse("((1+z)^2)^0^5") == ONE and parse("0^0^3") == ONE and parse("(-z^2)^3") == -z_pow(6)
        assert parse("2^4000000^0") == ONE  # 2^0, though 2^4000000 is over the cap
        message = f"^a power of up to 4800001 bits is over the limit of {MAX_POWER_BITS}$"
        for text in ("3^1200000", "3^600000^2", "(3^600000)^2", "((3^2)^300000)^2"):
            with pytest.raises(Pin2kError, match=message):
                parse(text)
        # a size with more digits than CPython prints is named by the power of
        # two above it, so the message still names the power cap
        message = rf"^a power of up to 2\^\d+ bits is over the limit of {MAX_POWER_BITS}$"
        for text in ("2^" + "9" * 4300, "w^" + "9" * 4300, "2^" + "9" * 3000 + "^" + "9" * 3000):
            with pytest.raises(Pin2kError, match=message):
                parse(text)

    def test_power_work_cap(self):
        # the work bound counts the nonzero coefficients of the powers, at
        # most C(t + n - 1, n) for t terms: a sparse base of high degree is
        # cheap and answered, a dense one of the same size refused
        dense, sparse = RingElem(0, (1,) * 16), ONE + z_pow(1000)
        with pytest.raises(Pin2kError, match=f"^a power of work 16583823697 is over the limit of {MAX_POWER_WORK}$"):
            dense**264
        assert (sparse**50).poly == tuple(comb(50, k // 1000) if k % 1000 == 0 else 0 for k in range(50001))

    def test_product_work_cap(self):
        # a product in the grammar is checked before its factors' powers are
        # taken, from the bounds of the power cap: (1+z)^2046 has at most 2047
        # nonzero coefficients of at most 2047 bits, so 2047 * 2047 * (2 * 2047 + 11)
        message = f"^a product of work 17200807945 is over the limit of {MAX_POWER_WORK}$"
        with pytest.raises(Pin2kError, match=message):
            parse("(1+z)^2046*(1+z)^2046")
        with pytest.raises(Pin2kError, match=message):
            parse("-(1+z)^2046*(1+z)^2046*z")
        # the power of a monomial has one nonzero coefficient, whatever its
        # degree; counted as 100001, this product would be over the cap
        assert parse("z^100000*(1+z)^400").poly == (0,) * 100000 + parse("(1+z)^400").poly
        assert parse("-(1+z)^2^2*-w") == parse("(1+z)^4") * W
        # a sum is bounded by its terms: the longest length, the nonzero
        # coefficients up to that length, and the largest bits plus the bits
        # of the number of terms, so 2047 * 2047 * (2 * (2047 + 2) + 11)
        message = f"^a product of work 17217568781 is over the limit of {MAX_POWER_WORK}$"
        with pytest.raises(Pin2kError, match=message):
            parse("((1+z)^2046+0)*((1+z)^2046+0)")
        assert parse("(z^3 - (1+z)^2 + 4)*(2 - w)") == (z_pow(3) - (ONE + Z) ** 2 + 4) * (2 - W)
        assert parse("+".join(["1"] * 10**4)) == RingElem(0, (10**4,))
        # x^1 is x, so a power of one computes no base: each of these is
        # refused at once as the same product without the ^1, where computing
        # both bases first took 2.2 to 2.7 s
        for text, work in [
            ("((1+z)^2046+0)^1*((1+z)^2046+0)^1", 17217568781),
            ("(-(1+z)^2046)^1*(-(1+z)^2046)^1", 17200807945),
        ]:
            start = time.perf_counter()
            with pytest.raises(Pin2kError, match=f"^a product of work {work} is over the limit of {MAX_POWER_WORK}$"):
                parse(text)
            assert time.perf_counter() - start < 1, text
        # the powers and products of the whole expression share the work cap,
        # each counted once, as the power it becomes in a chain or in
        # parentheses; the total is checked before a product multiplies, before
        # the base of a power is computed and before the value is, so the sum
        # of 100 copies of (1+z)^2046 (about 2 minutes) stops at its third
        two = 2 * 2047**3
        for text, work in [
            ("(1+z)^2046+(1+z)^2046", two),
            ("+".join(["(1+z)^2046"] * 100), two),
            ("(1+z)^2046+((1+z)^1023)^2", two),
            ("(1+z)^2046*z^2", 2047**3 + 3 + 2047 * 3 * (2047 + 1 + 2)),
            ("(1+z)^1500*(1+z)^1500", 2 * 1501**3 + 1501 * 1501 * (2 * 1501 + 11)),
            ("(1-z)^2047*1", 2048**3 + 2048 * 1 * (2048 + 1 + 1)),
            # a chain is bounded by its running product before anything in it
            # is multiplied: 2001 terms of 1001 + 1001 + 10 bits after the
            # first product.  This took that product, about 1 s, before the
            # third factor refused it.
            (
                "(1+z)^1000*(1+z)^1000*(1+z)^1000",
                3 * 1001**3 + 1001 * 1001 * (2 * 1001 + 10) + 2001 * 1001 * (2 * 1001 + 10 + 1001 + 10),
            ),
        ]:
            with pytest.raises(Pin2kError, match=f"^an expression of work {work} is over the limit of {MAX_POWER_WORK}$"):
                parse(text)
        # these stay answered: (1-z)^2047 is at the cap, and (1+z)^2046 just
        # under it; tests/test_cli.py runs (1+z)^1023*(1+z)^1023
        binomials = tuple(comb(2046, k) for k in range(2047))
        for text in ("(1+z)^2046", "((1+z)^2046+0)^1"):
            assert parse(text) == RingElem(0, binomials), text
        assert parse("(1+z)^2046*z") == RingElem(0, (0, *binomials))
        assert parse("(1-z)^2047") == RingElem(0, tuple((-1) ** k * comb(2047, k) for k in range(2048)))

    def test_coefficient_cap(self):
        # the work caps count bits, one a coefficient for a monomial's power,
        # but each value is walked or copied coefficient by coefficient, so
        # long values ran for seconds under them (the first input below took
        # 12 s, its 100 items as one --gens list 20.7 s in `ideal k`).  The
        # values of one expression share a cap on their coefficients, checked
        # before the base of each power is computed, after each product and
        # at the end, so each of these is refused before anything is
        # computed.  z^2000000 has 2000001 coefficients.
        two_million = "z^2000000"
        for text, items, count in [
            # the tenth power: nine powers before it
            ("+".join([two_million] * 100), False, 9 * 2000001),
            (",".join([two_million] * 100), True, 9 * 2000001),
            # eight powers, a running total of 2000001 at each of 8 additions,
            # and twice the value for its readers
            ("+".join([two_million] * 8), False, (8 + 8 + 2) * 2000001),
            # four powers, then each product's two factors: the third product
            # is refused
            ("*".join([two_million] * 4), False, 4 * 2000001 + (2 + 3 + 4) * 2000001 - 3),
            # 0 has no coefficient; one power, 49 negations, the two additions
            # and the readers
            ("0" + "-" * 50 + two_million, False, (1 + 49 + 1 + 2) * 2000001),
            # one power, the running total at each of 1001 additions, the readers
            ("z^100000" + "+1" * 1000, False, (1 + 1001 + 2) * 100001),
        ]:
            start = time.perf_counter()
            message = f"^an expression of {count} coefficients is over the limit of {MAX_COEFFICIENTS}$"
            with pytest.raises(Pin2kError, match=message):
                parse(text, items)
            assert time.perf_counter() - start < 0.5, text
        # a chain is counted by its running product: 6000 factors z, which
        # took 0.6 to 0.7 s before this cap, are over it, and 5788 under it
        with pytest.raises(Pin2kError, match=r"^an expression of \d+ coefficients is over the limit"):
            parse("*".join(["z"] * 6000))
        # these stay answered
        assert parse(two_million) == z_pow(2000000)
        assert parse("*".join(["z^2"] * 3000)) == z_pow(6000)
        assert parse("+".join(f"z^{k}" for k in range(4000))) == RingElem(0, (1,) * 4000)
        assert parse(",".join([two_million] * 2), items=True) == [z_pow(2000000)] * 2

    def test_big_integers_do_not_overflow(self):
        x = z_pow(40) + W
        y = x * x
        assert (W * y).wcoef == y.w_multiplier()
        assert z_pow(200).w_multiplier() == 2 ** 200


def assert_normal(x):
    # the trusted constructor binds what it is given, so the ring operations
    # and powers must hand it the normal form the validating constructor would
    assert type(x.wcoef) is int and type(x.poly) is tuple
    assert all(type(c) is int for c in x.poly) and (not x.poly or x.poly[-1] != 0)
    assert x == RingElem(x.wcoef, x.poly)


class TestHomomorphisms:
    def test_augment_examples(self):
        assert W.augment() == 0
        assert ONE.augment() == 1
        assert parse("3 + 5*z + 7*w").augment() == 3

    def test_restrict_examples(self):
        assert W.restrict_s1() == LaurentElem(())
        assert Z.restrict_s1() == LaurentElem(((-1, -1), (0, 2), (1, -1)))
        assert parse("z^2").restrict_s1() == LaurentElem(((-2, 1), (-1, -4), (0, 6), (1, -4), (2, 1)))
        # z^3 = -theta^-3 (theta - 1)^6
        assert parse("z^3").restrict_s1() == LaurentElem(
            ((-3, -1), (-2, 6), (-1, -15), (0, 20), (1, -15), (2, 6), (3, -1))
        )
        assert H.restrict_s1() == LaurentElem(((-1, 1), (1, 1)))  # h = 2 - z -> theta + 1/theta
        assert CTILDE.restrict_s1() == LaurentElem(((0, 1),))  # c~ = 1 - w -> 1

    def test_restriction_over_the_work_cap_raises_first(self):
        # (2k + 1)^2 passes 2^31 at k = 23170, so z^23170 is refused before a
        # single binomial is summed, and z^2000 (work 1.6e7) is answered
        message = r"^a restriction of work \d+ is over the limit of 2147483648$"
        assert MAX_RESTRICT_WORK == 2**31
        with pytest.raises(Pin2kError, match=message):
            z_pow(23170).restrict_s1()
        with pytest.raises(Pin2kError, match=message):
            RingElem(0, (1,) * 1000 + (2**10**6,)).restrict_s1()
        assert z_pow(2000).restrict_s1().terms[0] == (-2000, 1)

    @given(elems, elems)
    def test_both_maps_are_ring_homomorphisms(self, x, y):
        assert (x * y).augment() == x.augment() * y.augment()
        assert (x + y).augment() == x.augment() + y.augment()
        for t in THETAS:
            assert at(x.restrict_s1(), t) == sum(c * (2 - t - 1 / t) ** k for k, c in enumerate(x.poly))
            assert at((x * y).restrict_s1(), t) == at(x.restrict_s1(), t) * at(y.restrict_s1(), t)
            assert at((x + y).restrict_s1(), t) == at(x.restrict_s1(), t) + at(y.restrict_s1(), t)

    def test_w_multiplier_examples(self):
        assert z_pow(5).w_multiplier() == 32
        assert ZERO.w_multiplier() == 0
        # w*(3 + z) = 3w + 2w, so the multiplier is 5
        assert parse("3 + z").w_multiplier() == 5

    @given(elems)
    def test_w_multiplier_matches_multiplication(self, x):
        assert W * x == RingElem(x.w_multiplier(), ())

    def test_w_multiplier_of_long_polynomials(self):
        # P(2) splits a long sum into halves; each length below crosses the
        # point where it stops splitting, or splits unevenly
        rng = random.Random(65)
        for n in (63, 64, 65, 66, 127, 128, 129, 130, 257, 1000):
            for cmax in (1, 2**70):
                x = RingElem(rng.randint(-9, 9), [rng.randint(-cmax, cmax) for _ in range(n - 1)] + [1])
                assert x.w_multiplier() == 2 * x.wcoef + sum(c << k for k, c in enumerate(x.poly)), (n, cmax)

    def test_long_products_evaluate_only_what_they_read(self):
        # P(2) was Horner's rule, quadratic in the degree: these took about
        # 33 s and 2.3 s; a product with no w-part evaluates neither side
        start = time.perf_counter()
        assert parse("z^800000 + 1").w_multiplier() == 2**800000 + 1
        assert parse("(z^200000 + 1) * 3") == RingElem(0, (3,) + (0,) * 199999 + (3,))
        assert parse("(z^200000 + 1) * (3 + w)").wcoef == 2**200000 + 1
        elapsed = time.perf_counter() - start
        assert elapsed < 1, f"took {elapsed:.2f}s"

    def test_power_takes_p_at_two_of_its_base_twice(self, monkeypatch):
        # the parser's check and the power's own each take P(2) of the base,
        # and the power's w-part reuses its check's; a third walk took 58 ms
        # of ring eval '(z^932066+0)^2'
        walks, depth, real = [], [0], ring._at_two

        def counted(p):
            if not depth[0]:  # the halves of a long sum are not walks of their own
                walks.append(len(p))
            depth[0] += 1
            try:
                return real(p)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(ring, "_at_two", counted)
        assert parse("(z^100+1)^2") == RingElem(0, (1,) + (0,) * 99 + (2,) + (0,) * 99 + (1,))
        assert walks == [2, 2, 101, 101]  # z, then z^100 + 1


class TestBasisChange:
    def test_generator_images(self):
        assert CTILDE == ONE - W
        assert H == const(2) - Z
        assert CTILDE * CTILDE == ONE  # the relation c~^2 = 1
        assert CTILDE * H == H  # the relation c~ h = h

    def test_spec_product(self):
        assert parse("c~*h") == const(2) - Z
