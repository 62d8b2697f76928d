import random
import re
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pin2k import Pin2kError
from pin2k.ideals import (
    MAX_DEGREE,
    IdealError,
    NoSuchKError,
    NotSwfLikeError,
    NoWitnessBelowCapError,
    NoWitnessError,
    ideal_from_generators,
    ideal_product,
    ideal_sum,
    xgcd,
    z_power_ideal,
)
from pin2k.ring import ONE, W, Z, RingElem, parse, w_pow, z_pow

import completion_corpus
from oracles import (
    ideal_member_oracle,
    random_combination,
    random_generator_set,
    random_pair,
    shift_raw,
    wmult_subgroup_oracle,
    zw_exponent_oracle,
)

AUG = ideal_from_generators([W, Z])

GOLDEN = Path(__file__).parent / "golden"


def gens_to_elems(raw):
    return [RingElem(lam, poly) for poly, lam in raw]


class TestCanonicalForm:
    def test_augmentation_ideal(self):
        assert [str(b) for b in AUG.basis] == ["w", "z"]
        assert (AUG.e, AUG.d) == (2, 1)

    def test_zero_ideal(self):
        empty = ideal_from_generators([])
        assert empty.basis == ()
        assert (empty.e, empty.d) == (0, 0)
        assert empty.contains(RingElem())
        assert not empty.contains(ONE)

    def test_mixed_generators_complete(self):
        form = ideal_from_generators([parse("z^2"), parse("2*z"), parse("4")])
        assert [str(b) for b in form.basis] == ["4*w", "4", "2*z", "z^2"]
        assert (form.e, form.d) == (4, 4)

    def test_one_form_per_w_line_branch(self):
        # completion carries the w-line as one bit, beta = c/e mod 2, and
        # reads d off it at the end: d = e (odd or even), d = e/2 when some
        # element reduced to (0, 1), and d = 0 when e = 0
        cases = {
            "3": "IdealForm(basis=(RingElem(3*w), RingElem(3)), e=3, d=3)",
            "z^2, 2*z, 4": "IdealForm(basis=(RingElem(4*w), RingElem(4), RingElem(2*z), RingElem(z^2)), e=4, d=4)",
            "w, z": "IdealForm(basis=(RingElem(w), RingElem(z)), e=2, d=1)",
            "z - 2": "IdealForm(basis=(RingElem(-2 + z),), e=0, d=0)",
            "": "IdealForm(basis=(), e=0, d=0)",
        }
        for text, want in cases.items():
            assert repr(ideal_from_generators([parse(t) for t in text.split(",") if t])) == want, text

    def test_golden_corpus_covers_every_nonzero_w_line_branch(self):
        branches = set()
        for line in golden_forms("ideal_forms.txt") + golden_forms("ideal_forms_high.txt"):
            e, d = map(int, re.search(r"e=(\d+), d=(\d+)\)$", line).groups())
            if "basis=()" not in line:
                branches.add("e = 0" if not e else "d = e/2" if 2 * d == e else f"d = e {('even', 'odd')[e % 2]}")
        assert branches == {"d = e odd", "d = e even", "d = e/2", "e = 0"}, branches

    def test_z_power_ideal_matches_completion(self):
        # z_power_ideal writes (z^k) down in closed form, without completing it
        for k in range(65):
            assert z_power_ideal(k) == ideal_from_generators([z_pow(k)]), k
        with pytest.raises(Pin2kError, match="^z exponent must be nonnegative$"):
            z_power_ideal(-1)
        # (2^l*w, z^k) for l <= k <= l + 1, which spectra's block ideals read
        for l in range(6):
            for k in (l, l + 1):
                assert z_power_ideal(k, l) == ideal_from_generators([RingElem(2**l, ()), z_pow(k)]), (k, l)
        for k, l in [(3, 1), (1, 2)]:
            with pytest.raises(IdealError, match=r"^\(2\^l\*w, z\^k\) needs l <= k <= l \+ 1"):
                z_power_ideal(k, l)

    def test_generator_degree_cap(self):
        # a pool of up to MAX_DEGREE elements of up to MAX_DEGREE coefficients
        assert MAX_DEGREE == 1024
        assert ideal_from_generators([z_pow(1024), W]).basis[-1] == z_pow(1024)
        with pytest.raises(IdealError, match="^a generator of degree 1025 is over the limit of 1024$"):
            ideal_from_generators([z_pow(1025), 2])

    def test_generator_order_is_irrelevant(self):
        a = ideal_from_generators([W, Z])
        b = ideal_from_generators([Z, W])
        assert a == b

    def test_rearranged_generating_sets_share_the_form(self):
        # the form depends only on the ideal: permuting the generators,
        # replacing g by g + r*h for a ring element r, and adding members
        # leave it unchanged.  One form per draw is checked against the oracles
        rng = random.Random(99)
        for _ in range(200):
            raw = random_generator_set(rng, max_deg=8)
            gens = gens_to_elems(raw)
            form = ideal_from_generators(gens)
            mixed = list(gens)
            rng.shuffle(mixed)
            if len(mixed) >= 2:
                r = RingElem(rng.randint(-2, 2), tuple(rng.randint(-2, 2) for _ in range(rng.randint(2, 4))))
                mixed[0] = mixed[0] + r * mixed[1]
                mixed.append(random_combination(rng, raw[:2]))
            if mixed:
                mixed.append(Z * mixed[-1])
            assert ideal_from_generators(mixed) == form, (gens, mixed)
            assert form.e == wmult_subgroup_oracle(raw), raw
            for b in form.basis:
                assert ideal_member_oracle(raw, (b.poly, b.wcoef)), (raw, b)

    def test_subgroup_invariants(self):
        rng = random.Random(5)
        for _ in range(200):
            raw = random_generator_set(rng)
            form = ideal_from_generators(gens_to_elems(raw))
            assert form.e == wmult_subgroup_oracle(raw)
            if form.basis:
                assert form.d != 0 or form.e == 0
                if form.d:
                    assert form.e % form.d == 0
                if form.e:
                    assert (2 * form.d) % form.e == 0
                # d*w is a member and (d/2)*w is not: completion seeds d with e,
                # so a seed too small fails the first check, and one too large
                # the second wherever d stays at the seed
                assert ideal_member_oracle(raw, ((), form.d)), raw
                if form.d and form.d == form.e and form.d % 2 == 0:
                    assert not ideal_member_oracle(raw, ((), form.d // 2)), raw

    def test_oracles_agree_at_degree_16(self):
        # the tests above stop at degree 4 and the golden corpus at 12
        rng = random.Random(16)
        for _ in range(30):
            raw = random_generator_set(rng, max_deg=16, cmax=9)
            gens = gens_to_elems(raw)
            form = ideal_from_generators(gens)
            assert form.e == wmult_subgroup_oracle(raw), raw
            for b in form.basis:
                assert ideal_member_oracle(raw, (b.poly, b.wcoef)), (raw, b)
            for g in gens:
                assert form.contains(g), (raw, g)


big = st.integers(min_value=-(2**600), max_value=2**600)


@given(big, big.filter(bool))
@example(6, 3)  # |b| == g, so the modulus is 1
@example(6, -3)
@example(0, -5)
@example(-7, 12)
@example(9, 9)
def test_xgcd_cofactors(a, b):
    x, y, g = xgcd(a, b)
    assert x * a + y * b == g == gcd(a, b) >= 0


def golden_form_inputs():
    """The 300 seeded generating sets of golden/ideal_forms.txt: degree up to
    12, every other set shifted by z^s (1 <= s <= 4), coefficients up to 1000
    in one set of five and up to 1, 3 or 9 otherwise."""
    rng = random.Random(2024)
    for i in range(300):
        s = rng.randint(1, 4) if i % 2 else 0
        cmax = 1000 if i % 5 == 3 else rng.choice((1, 3, 9))
        raw = random_generator_set(rng, max_deg=rng.randint(0, 12 - s), cmax=cmax)
        yield gens_to_elems([shift_raw(g, s) for g in raw])


def golden_high_inputs():
    """The 28 seeded generating sets of golden/ideal_forms_high.txt: one
    generator of degree 13 to 18 and one or two more of degree at most that,
    coefficients up to 9 and 1000 in turn; then twelve more of the same shape
    with a top degree of 19 to 24 and coefficients up to 9."""
    rng = random.Random(1318)
    for i in range(28):
        deg = 13 + i % 6 if i < 16 else 19 + i % 6
        cmax = 1000 if i % 2 and i < 16 else 9
        lead = rng.choice((-1, 1)) * rng.randint(1, cmax)
        top = (tuple(rng.randint(-cmax, cmax) for _ in range(deg)) + (lead,), rng.randint(-cmax, cmax))
        yield gens_to_elems([top] + [random_pair(rng, deg, cmax, cmax) for _ in range(rng.randint(1, 2))])


def golden_form_lines(inputs):
    for gens in inputs:
        yield f"{', '.join(map(str, gens)) or '(none)'}\t{ideal_from_generators(gens)!r}"


def golden_forms(name):
    lines = (GOLDEN / name).read_text().splitlines()
    return [line for line in lines if not line.startswith("#")]


class TestGoldenForms:
    # the completed form is unique, so any correct completion reproduces the
    # files, which an earlier version of completion wrote

    def test_canonical_forms_match_the_corpus(self):
        expected = golden_forms("ideal_forms.txt")
        assert len(expected) == 300
        for i, (got, want) in enumerate(zip(golden_form_lines(golden_form_inputs()), expected)):
            assert got == want, i

    def test_canonical_forms_match_the_corpus_above_degree_12(self):
        expected = golden_forms("ideal_forms_high.txt")
        assert len(expected) == 28
        for i, (got, want) in enumerate(zip(golden_form_lines(golden_high_inputs()), expected)):
            assert got == want, i


def oracle_problem(raw, form):
    """What the oracles find wrong with form as the completion of the raw
    generators, or None: e, each basis element's membership, each
    generator's membership in the ideal of the basis, and d."""
    if form.e != wmult_subgroup_oracle(raw):
        return f"e = {form.e}, the oracle's is {wmult_subgroup_oracle(raw)}"
    basis = [(b.poly, b.wcoef) for b in form.basis]
    for pair in basis:
        if not ideal_member_oracle(raw, pair):
            return f"the basis element {RingElem(pair[1], pair[0])} is not a member"
    for pair in raw:
        if not ideal_member_oracle(basis, pair):
            return f"the generator {RingElem(pair[1], pair[0])} is not in the ideal of the basis"
    # d*w is a member, and d is e or e/2; d = e/2 exactly where (e/2)*w is a member
    half = form.e % 2 == 0 and ideal_member_oracle(raw, ((), form.e // 2))
    if form.d != (form.e // 2 if half else form.e):
        return f"d = {form.d} with e = {form.e}"
    return None


class TestCompletionCorpus:
    # the digest that tests/completion_corpus.py prints
    DIGEST = "6e9815ecea556eaa9cf28a049021db78f1b0412e98b7ad40238f75e9248f023a"

    def test_forms_match_the_digest(self):
        sets = list(completion_corpus.corpus())
        forms = completion_corpus.forms(sets)
        digest = completion_corpus.digest(forms)
        if digest == self.DIGEST:
            return
        for i, (raw, form) in enumerate(zip(sets, forms)):
            problem = oracle_problem(raw, form)
            assert problem is None, f"set {i}, {gens_to_elems(raw)}: {form!r} is wrong: {problem}"
        pytest.fail(f"each form passes the oracles, so only their spelling changed; the digest is now {digest}")

    def test_oracle_problem_names_a_wrong_form(self):
        raw = [((0, 1), 0), ((), 2)]  # z and 2*w
        form = ideal_from_generators(gens_to_elems(raw))
        assert (oracle_problem(raw, form), form) == (None, z_power_ideal(1))
        assert oracle_problem(raw, form._replace(e=4)) == "e = 4, the oracle's is 2"
        assert oracle_problem(raw, form._replace(d=1)) == "d = 1 with e = 2"
        assert oracle_problem(raw, form._replace(basis=(W, Z))) == "the basis element w is not a member"
        wrong = form._replace(basis=(2 * W, Z**2))
        assert oracle_problem(raw, wrong) == "the generator z is not in the ideal of the basis"


class TestMembership:
    def test_examples(self):
        assert AUG.contains(z_pow(3))
        assert not z_power_ideal(2).contains(2 * W)
        assert z_power_ideal(2).contains(RingElem(4, ()))
        assert AUG.contains(RingElem())

    def test_oracle_agreement_random(self):
        rng = random.Random(123)
        for _ in range(300):
            raw = random_generator_set(rng)
            gens = gens_to_elems(raw)
            form = ideal_from_generators(gens)
            if rng.random() < 0.5 and gens:
                x = random_combination(rng, raw)
            else:
                poly, lam = random_pair(rng)
                x = RingElem(lam, poly)
            expected = ideal_member_oracle(raw, (x.poly, x.wcoef))
            assert form.contains(x) == expected, (raw, x)
        # the benchmark's shape: 1 to 3 generators of degree <= 6 with c <= 9,
        # and elements of degree <= 40, two in three of them members shifted by z^j
        members = 0
        for _ in range(60):
            raw = [random_pair(rng, 6, 9, 9) for _ in range(rng.randint(1, 3))]
            form = ideal_from_generators(gens_to_elems(raw))
            if rng.random() < 2 / 3:
                x = random_combination(rng, raw) * z_pow(rng.randint(0, 34))
            else:
                poly, lam = random_pair(rng, 40, 9, 9)
                x = RingElem(lam, poly)
            expected = ideal_member_oracle(raw, (x.poly, x.wcoef))
            assert form.contains(x) == expected, (raw, x)
            members += expected
        assert 30 < members < 60  # both verdicts, as in the benchmark's mix
        # up to degree 16: one or two generators with c <= 3, and three in four
        # elements members, since the oracle takes about 10 ms to refuse one
        # there and under 2 ms to accept one
        members = 0
        for _ in range(100):
            raw = [random_pair(rng, 16, 3, 3) for _ in range(rng.randint(1, 2))]
            form = ideal_from_generators(gens_to_elems(raw))
            if rng.random() < 3 / 4:
                x = random_combination(rng, raw)
            else:
                poly, lam = random_pair(rng, 16, 9, 9)
                x = RingElem(lam, poly)
            expected = ideal_member_oracle(raw, (x.poly, x.wcoef))
            assert form.contains(x) == expected, (raw, x)
            members += expected
        assert 60 < members < 95
        # up to degree 32: one generator of degree 24 to 32 with c <= 3, in half
        # the sets with a second of degree <= 8 (two of degree 32 take about
        # 0.1 s to complete), and three in four elements members
        members, degrees = 0, set()
        for _ in range(40):
            degree = rng.randint(24, 32)
            lead = rng.choice((-1, 1)) * rng.randint(1, 3)
            raw = [(tuple(rng.randint(-3, 3) for _ in range(degree)) + (lead,), rng.randint(-3, 3))]
            if rng.random() < 1 / 2:
                raw.append(random_pair(rng, 8, 3, 3))
            degrees.add(degree)
            form = ideal_from_generators(gens_to_elems(raw))
            if rng.random() < 3 / 4:
                x = random_combination(rng, raw)
            else:
                poly, lam = random_pair(rng, 32, 9, 9)
                x = RingElem(lam, poly)
            expected = ideal_member_oracle(raw, (x.poly, x.wcoef))
            assert form.contains(x) == expected, (raw, x)
            members += expected
        assert 32 in degrees and 20 < members < 40


class TestEqualsSumProduct:
    def test_equals_examples(self):
        assert ideal_from_generators([W, Z]) == ideal_from_generators([Z, W])
        assert z_power_ideal(1) != AUG
        square = ideal_product(AUG, AUG)
        assert square == ideal_from_generators([2 * W, z_pow(2)])

    def test_sum_examples(self):
        assert ideal_sum(z_power_ideal(1), ideal_from_generators([W])) == AUG
        assert ideal_sum(AUG, z_power_ideal(0)) == z_power_ideal(0)

    def test_monomial_products(self):
        for a in range(0, 4):
            for b in range(0, 4):
                assert ideal_product(z_power_ideal(a), z_power_ideal(b)) == z_power_ideal(a + b)

    def test_unit_is_neutral(self):
        rng = random.Random(17)
        for _ in range(100):
            form = ideal_from_generators(gens_to_elems(random_generator_set(rng)))
            assert ideal_product(form, z_power_ideal(0)) == form
            assert ideal_sum(form, ideal_from_generators([])) == form

    def test_structural_equality_matches_mutual_containment(self):
        rng = random.Random(31)
        equal = 0
        for _ in range(150):
            a = ideal_from_generators(gens_to_elems(random_generator_set(rng)))
            b = ideal_from_generators(gens_to_elems(random_generator_set(rng)))
            mutual = all(b.contains(x) for x in a.basis) and all(a.contains(x) for x in b.basis)
            assert (a == b) == mutual, (a, b)
            equal += mutual
        assert 0 < equal < 150


class TestKInvariant:
    def test_examples(self):
        for l in range(6):
            assert z_power_ideal(l).k_invariant() == l
        assert AUG.k_invariant() == 1
        assert z_power_ideal(0).k_invariant() == 0

    def test_no_witness(self):
        with pytest.raises(NoWitnessError):
            ideal_from_generators([parse("z - 2")]).k_invariant()

    def test_not_power_of_two(self):
        form = ideal_from_generators([parse("3*z")])
        with pytest.raises(NotSwfLikeError):
            form.k_invariant()
        # brute enumeration: no small multiple of 3z has w-multiplier a power of 2
        rng = random.Random(3)
        for _ in range(500):
            q = RingElem(rng.randint(-4, 4), tuple(rng.randint(-4, 4) for _ in range(4)))
            wm = abs((q * parse("3*z")).w_multiplier())
            assert wm == 0 or (wm & (wm - 1)) != 0  # never a power of two

    def test_monotone_under_inclusion(self):
        rng = random.Random(41)
        for _ in range(200):
            small = ideal_from_generators(gens_to_elems(random_generator_set(rng)))
            extra = gens_to_elems(random_generator_set(rng, max_gens=2))
            big = ideal_from_generators(list(small.basis) + extra)
            try:
                ks = small.k_invariant()
                kb = big.k_invariant()
            except (NoWitnessError, NotSwfLikeError):
                continue
            assert kb <= ks

    def test_suspension_law(self):
        rng = random.Random(43)
        for _ in range(200):
            form = ideal_from_generators(gens_to_elems(random_generator_set(rng)))
            suspended = ideal_product(form, z_power_ideal(1))
            assert suspended.e == 2 * form.e
            try:
                assert suspended.k_invariant() == form.k_invariant() + 1
            except (NoWitnessError, NotSwfLikeError):
                with pytest.raises((NoWitnessError, NotSwfLikeError)):
                    suspended.k_invariant()

    def test_product_subadditive(self):
        rng = random.Random(47)
        for _ in range(150):
            a = ideal_from_generators(gens_to_elems(random_generator_set(rng)))
            b = ideal_from_generators(gens_to_elems(random_generator_set(rng)))
            try:
                ka, kb = a.k_invariant(), b.k_invariant()
            except (NoWitnessError, NotSwfLikeError):
                continue
            assert ideal_product(a, b).k_invariant() <= ka + kb


class TestSplitness:
    def test_examples(self):
        assert z_power_ideal(2).is_kg_split()
        assert not AUG.is_kg_split()
        assert not ideal_product(AUG, z_power_ideal(1)).is_kg_split()
        assert z_power_ideal(0).is_kg_split()
        assert not ideal_from_generators([]).is_kg_split()

    def test_split_implies_zw_exponent_matches_k(self):
        rng = random.Random(53)
        checked = 0
        for _ in range(300):
            form = ideal_from_generators(gens_to_elems(random_generator_set(rng)))
            if form.is_kg_split():
                assert form.zw_exponent(16) == form.k_invariant()
                checked += 1
        assert checked > 10


class TestExponents:
    def test_nilpotence_examples(self):
        assert z_power_ideal(0).nilpotence_exponent() == 0
        assert AUG.nilpotence_exponent() == 1
        # w^k = 2^(k-1) w lands in (z^3) only once 8 | 2^(k-1)
        assert ideal_from_generators([z_pow(3)]).nilpotence_exponent() == 4

    def test_nilpotence_search_by_membership(self):
        form = ideal_from_generators([z_pow(3)])
        hits = [k for k in range(9) if form.contains(w_pow(k)) and form.contains(z_pow(k))]
        assert hits == [4, 5, 6, 7, 8]

    def test_nilpotence_cap(self):
        with pytest.raises(NoWitnessBelowCapError):
            ideal_from_generators([parse("z - 2")]).nilpotence_exponent(5)

    def test_zw_examples(self):
        for k in range(5):
            assert z_power_ideal(k).zw_exponent() == k
            if k:
                two_sided = ideal_from_generators([w_pow(k), z_pow(k)])
                assert two_sided.zw_exponent() == k
        assert z_power_ideal(0).zw_exponent() == 0
        assert AUG.zw_exponent() == 1

    def test_zw_errors(self):
        with pytest.raises(NoSuchKError, match="^zero ideal$"):
            ideal_from_generators([]).zw_exponent(8)
        with pytest.raises(NoSuchKError, match="^no suitable power of z up to 8$"):
            ideal_from_generators([parse("z - 2")]).zw_exponent(8)
        with pytest.raises(NoSuchKError, match="^no suitable power of z up to 2$"):
            z_power_ideal(3).zw_exponent(2)
        with pytest.raises(NoSuchKError, match="^no suitable power of z up to 64$"):
            ideal_from_generators([W]).zw_exponent()

    def test_zw_monomial_and_non_monomial_families(self):
        for k in range(8):
            # {3*z^k, 2*w}: the polynomial parts have gcd z^k over Q
            gens = [((0,) * k + (3,), 0), ((), 2)]
            form = ideal_from_generators(gens_to_elems(gens))
            assert form.zw_exponent() == zw_exponent_oracle(gens, 64) == k
            with pytest.raises(NoSuchKError):
                form.zw_exponent(k - 1)
            # {z^k + 2*z^(k+1), 4*w}: gcd z^k*(1 + 2z) over Q, never a monomial
            gens = [((0,) * k + (1, 2), 0), ((), 4)]
            form = ideal_from_generators(gens_to_elems(gens))
            assert zw_exponent_oracle(gens, 64) is None
            with pytest.raises(NoSuchKError):
                form.zw_exponent()

    def test_zw_oracle_agreement_random(self):
        rng = random.Random(59)
        answered = set()
        for _ in range(400):
            # shifting every generator by z^s makes nonzero answers common
            s = rng.randint(0, 3) if rng.random() < 0.5 else 0
            raw = random_generator_set(rng, max_deg=rng.randint(0, 8 - s), cmax=rng.randint(1, 9))
            raw = [shift_raw(g, s) for g in raw]
            form = ideal_from_generators(gens_to_elems(raw))
            for cap in (0, 2, 16, 64):
                expected = zw_exponent_oracle(raw, cap)
                if expected is None:
                    with pytest.raises(NoSuchKError):
                        form.zw_exponent(cap)
                else:
                    assert form.zw_exponent(cap) == expected, (raw, cap)
                    answered.add(expected)
        assert {0, 1, 2, 3} <= answered
