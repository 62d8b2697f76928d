import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pin2k.ring import (
    CTILDE,
    H,
    MAX_POWER_BITS,
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
        with pytest.raises(ParseError, match="integer literal has 5000 digits, over the limit of 4300 at byte 4"):
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

    def test_operations_stay_in_normal_form(self):
        # the constructor keeps the tuples the operations build, so those must be normal
        for x in (z_pow(2) - z_pow(2), W - W, (Z + 1) * (Z - 1) + 1, True * Z, Z + False, -(W * 0)):
            assert not x.poly or x.poly[-1] != 0, x
            assert all(type(c) is int for c in (x.wcoef, *x.poly)), x
        assert (z_pow(2) - z_pow(2)) == ZERO and (Z + 1) * (Z - 1) + 1 == z_pow(2)

    @given(st.one_of(elems, st.just(ZERO), st.builds(RingElem, coeffs)), st.integers(0, 8))
    def test_power_is_the_repeated_product(self, x, n):
        product = ONE
        for _ in range(n):
            product = product * x
        assert x**n == product

    def test_power_size_cap(self):
        # 2^k has k + 1 bits, and its w-part is 2^k - 2^k, so it counts 2k + 1
        assert (const(2) ** 2097151).poly == (2**2097151,)
        with pytest.raises(ValueError, match=f"^a power of up to 4194305 bits is over the limit of {MAX_POWER_BITS}$"):
            const(2) ** 2097152
        # each of these is cheap to compute uncapped; tests/test_cli.py runs
        # the ones that are not in a subprocess with bounded memory
        for x, n in [(Z, 2097152), (W, 4194304), (ONE + Z, 2047), (const(3) - 2 * W, 2 * 10**6)]:
            with pytest.raises(ValueError, match="over the limit"):
                x**n
        # powers of 0 and of units cost nothing however large the exponent
        assert ZERO ** 10**12 == ZERO and ONE ** 10**12 == ONE and (-ONE) ** (10**12 + 1) == -ONE
        assert CTILDE ** (10**12 + 1) == CTILDE

    def test_big_integers_do_not_overflow(self):
        x = z_pow(40) + W
        y = x * x
        assert (W * y).wcoef == y.w_multiplier()
        assert z_pow(200).w_multiplier() == 2 ** 200


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


class TestBasisChange:
    def test_generator_images(self):
        assert CTILDE == ONE - W
        assert H == const(2) - Z
        assert CTILDE * CTILDE == ONE  # the relation c~^2 = 1
        assert CTILDE * H == H  # the relation c~ h = h

    def test_spec_product(self):
        assert parse("c~*h") == const(2) - Z
