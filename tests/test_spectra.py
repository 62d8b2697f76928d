import random
from fractions import Fraction
from math import gcd

import pytest

from pin2k import ideals
from pin2k.ideals import ideal_product, z_power_ideal
from pin2k.ring import ONE, W, Z
from pin2k.ideals import ideal_from_generators
from pin2k.spectra import (
    FAMILIES,
    MAX_M,
    GroupSuspension,
    RepSphere,
    SpectrumClass,
    SwfSpace,
    TorusSuspension,
    UnsupportedBlockError,
    UnsupportedSeifertDataError,
    brieskorn_class,
    brieskorn_family,
    brieskorn_kappa,
    family_kappa,
    ideal_of,
    k_of,
    psc_class,
    s3_class,
)

from oracles import mu_bar

AUG = ideal_from_generators([W, Z])

FAMILY_KAPPA = {"12n-1": (2, 0), "12n-5": (1, 1), "12n+1": (0, 0), "12n+5": (1, -1)}
SUPPORTED_M = [m for m in range(7, 120) if m % 2 and m % 3]


def space(base, *cells):
    return SwfSpace(base, cells)


class TestBlockIdeals:
    def test_rep_sphere_examples(self):
        assert ideal_of(space(RepSphere(3, 2))) == z_power_ideal(2)
        assert ideal_of(space(RepSphere(0, 0))) == z_power_ideal(0)

    def test_rep_sphere_matches_iterated_suspension(self):
        # references by completion alone: ideal_of reads (z^l) off
        # z_power_ideal's closed form
        for t in range(5):
            for l in range(5):
                expected = ideal_from_generators([ONE])
                for _ in range(l):
                    expected = ideal_product(expected, ideal_from_generators([Z]))
                assert ideal_of(space(RepSphere(t, l))) == expected
                assert k_of(space(RepSphere(t, l))) == l

    def test_closed_forms_match_completion(self):
        # ideal_of, k_of and splitness are closed forms in l; check them
        # against completed ideals and the invariants read off those
        for l in range(9):
            sphere = ideal_from_generators([Z**l])
            suspended = ideal_product(AUG, sphere)
            for t in range(9):
                for base, expected in [
                    (RepSphere(t, l), sphere),
                    (GroupSuspension(t, l), suspended),
                    (TorusSuspension(t, l), suspended),
                ]:
                    cls = SpectrumClass(space(base, 1, 3))
                    assert ideal_of(cls.space) == expected, base
                    assert k_of(cls.space) == expected.k_invariant(), base
                    assert cls.is_floer_kg_split() == expected.is_kg_split(), base

    def test_unreduced_suspensions(self):
        assert ideal_of(space(GroupSuspension())) == AUG
        assert ideal_of(space(TorusSuspension())) == AUG
        assert k_of(space(GroupSuspension())) == 1
        assert k_of(space(TorusSuspension())) == 1

    def test_suspended_group_block(self):
        suspended = ideal_of(space(GroupSuspension(0, 1)))
        assert suspended == ideal_product(AUG, ideal_from_generators([Z]))
        assert suspended.k_invariant() == 2

    def test_free_cells_are_invisible(self):
        rng = random.Random(2)
        for _ in range(50):
            base = rng.choice(
                [RepSphere(rng.randint(0, 3), rng.randint(0, 3)), GroupSuspension(), TorusSuspension()]
            )
            cells = tuple(rng.randint(-3, 5) for _ in range(rng.randint(0, 4)))
            bare = SwfSpace(base)
            wedged = SwfSpace(base, cells)
            assert ideal_of(bare) == ideal_of(wedged)
            cls = SpectrumClass(wedged, 0, Fraction(1, 2))
            assert cls.kappa() == SpectrumClass(bare, 0, Fraction(1, 2)).kappa()

    def test_labels(self):
        assert RepSphere(1, 2).label() == "(C~^1 + H^2)^+"
        assert RepSphere(0, 0).label() == "S^0"
        assert GroupSuspension(1, 2).label() == "S^(C~^1) S^(H^2) SuspG"
        assert GroupSuspension().label() == "SuspG"
        assert TorusSuspension(0, 3).label() == "S^(H^3) SuspT"
        assert TorusSuspension(2, 0).label() == "S^(C~^2) SuspT"
        assert space(GroupSuspension(), 1, -2).labels() == ["SuspG", "S^1 G+", "S^-2 G+"]

    def test_level_is_even(self):
        assert space(RepSphere(3, 1)).level == 6
        assert space(GroupSuspension(2, 0)).level == 4

    def test_bad_blocks_rejected(self):
        with pytest.raises(UnsupportedBlockError):
            SwfSpace(1)
        for bad in (True, 1.0, "1"):
            with pytest.raises(UnsupportedBlockError, match="^free cells must be int degrees$"):
                space(RepSphere(), 0, bad)
        with pytest.raises(UnsupportedBlockError):
            RepSphere(-1, 0)
        for kind, args in [(RepSphere, (0.5, 1)), (RepSphere, (0, 1.0)), (GroupSuspension, (True,))]:
            with pytest.raises(UnsupportedBlockError, match="^suspension pair must be ints, got t="):
                kind(*args)
        for m in (1.5, Fraction(1), "0", True):
            with pytest.raises(UnsupportedBlockError, match="^m must be an int, got "):
                SpectrumClass(space(GroupSuspension(), 1), m, 0)
        # n is exact: a str, a float, a bool or None is refused, not converted
        for n in ("x", "1/2", 0.5, True, None):
            with pytest.raises(UnsupportedBlockError, match="^n must be an int or a Fraction, got "):
                SpectrumClass(space(RepSphere()), 0, n)
            with pytest.raises(UnsupportedBlockError, match="^n must be an int or a Fraction, got "):
                psc_class(n)
        with pytest.raises(UnsupportedBlockError):
            SpectrumClass(space(RepSphere(0, 0)), 0, Fraction(1, 3))
        # a class holds a space, not a bare block: this ended in an AttributeError from kappa()
        with pytest.raises(UnsupportedBlockError, match=r"^unsupported space RepSphere\(t=0, l=1\)$"):
            SpectrumClass(RepSphere(0, 1))


class TestKappaAndSuspension:
    def test_kappa_anchor_values(self):
        assert s3_class().kappa() == 0
        assert SpectrumClass(space(GroupSuspension()), 0, 0).kappa() == 2
        assert SpectrumClass(space(TorusSuspension()), 0, 1).kappa() == 0

    def test_psc(self):
        assert psc_class(0).kappa() == 0
        assert psc_class(2).kappa() == -2
        assert psc_class(-1).kappa() == 1
        assert psc_class(Fraction(1, 4)).kappa() == Fraction(-1, 4)
        assert psc_class(2).n == 1

    def test_suspend_changes_kappa_as_expected(self):
        cls = SpectrumClass(space(GroupSuspension(), 1), 0, 0)
        assert cls.suspend(l=1).kappa() == cls.kappa() + 2
        assert cls.suspend(t=1).kappa() == cls.kappa()
        assert cls.desuspend(l=1).kappa() == cls.kappa() - 2

    def test_matched_moves_preserve_kappa_and_class(self):
        rng = random.Random(11)
        for _ in range(60):
            base = rng.choice([RepSphere(0, rng.randint(0, 2)), GroupSuspension(), TorusSuspension()])
            cells = tuple(rng.randint(-2, 4) for _ in range(rng.randint(0, 2)))
            cls = SpectrumClass(SwfSpace(base, cells), rng.randint(-2, 2), Fraction(rng.randint(-4, 4), 2))
            moved = cls.suspend(l=1).desuspend(l=1)
            assert moved.kappa() == cls.kappa()
            assert moved.normalize() == cls.normalize()
            moved = cls.suspend(t=1).desuspend(t=1)
            assert moved.normalize() == cls.normalize()

    def test_desuspend_of_suspension_is_identity_on_canonical_form(self):
        cls = s3_class()
        assert cls.suspend(l=2).desuspend(l=2).normalize() == cls.normalize()

    def test_one_call_suspends_by_both_counts(self):
        cls = SpectrumClass(space(TorusSuspension(1, 0), -1, 2), 1, Fraction(1, 2))
        assert cls.suspend(t=1, l=2) == cls.suspend(l=2).suspend(t=1) == cls.suspend(t=1).suspend(l=2)
        assert cls.suspend(t=1, l=2).space == space(TorusSuspension(2, 2), 9, 12)
        assert cls.desuspend(t=1, l=2) == SpectrumClass(cls.space, 2, Fraction(5, 2))
        assert cls.suspend() == cls.desuspend() == cls

    def test_negative_counts_raise(self):
        cls = SpectrumClass(space(GroupSuspension(), 1))
        for move in (cls.suspend, cls.desuspend):
            for counts in ({"t": -1}, {"l": -1}, {"t": 2, "l": -1}):
                with pytest.raises(UnsupportedBlockError, match="^suspension counts must be nonnegative$"):
                    move(**counts)

    def test_suspension_invariance_of_kappa_under_normalization(self):
        cls = SpectrumClass(space(GroupSuspension(2, 3), 1, 5), 1, Fraction(3, 2))
        assert cls.normalize().kappa() == cls.kappa()
        assert cls.normalize().space.base == GroupSuspension(0, 0)


class TestDuality:
    def test_dual_of_group_is_torus_with_shift(self):
        dual = SpectrumClass(space(GroupSuspension()), 0, 0).dual()
        assert dual.space.base == TorusSuspension()
        assert (dual.m, dual.n) == (0, 1)

    def test_printed_dual_forms(self):
        minus11 = brieskorn_class(11, "-")
        assert minus11.space.base == TorusSuspension()
        assert (minus11.m, minus11.n) == (0, 1)
        minus23 = brieskorn_class(23, "-")
        assert minus23.space.free == (2,)
        minus13 = brieskorn_class(13, "-")
        assert minus13.space.base == RepSphere(0, 0)
        assert minus13.space.free == (0,)
        assert (minus13.m, minus13.n) == (0, 0)
        minus17 = brieskorn_class(17, "-")
        assert minus17.space.free == (0,)
        assert (minus17.m, minus17.n) == (0, Fraction(1, 2))

    def test_dual_is_an_involution(self):
        for m in SUPPORTED_M[:20]:
            for orient in "+-":
                cls = brieskorn_class(m, orient)
                assert cls.dual().dual().normalize() == cls.normalize()

    def test_dual_is_read_off_the_normal_form(self):
        # on the normalized class the base kind goes to its partner, m to -m,
        # n to suspended - n and each cell a to 4*suspended - 1 - a
        partner = {RepSphere: RepSphere, GroupSuspension: TorusSuspension, TorusSuspension: GroupSuspension}
        rng = random.Random(23)
        for _ in range(500):
            kind = rng.choice(list(partner))
            cells = [rng.randint(-40, 40) for _ in range(rng.randint(0, 20))]
            base = kind(rng.randint(0, 3), rng.randint(0, 3))
            cls = SpectrumClass(space(base, *cells), rng.randint(-3, 3), Fraction(rng.randint(-64, 64), 16))
            norm, s = cls.normalize(), kind.suspended
            free = tuple(4 * s - 1 - a for a in norm.space.free)
            assert cls.dual() == SpectrumClass(space(partner[kind](), *free), -norm.m, s - norm.n), cls

    def test_kappa_duality_inequality(self):
        for m in SUPPORTED_M:
            cls = brieskorn_class(m, "+")
            assert cls.kappa() + cls.dual().kappa() >= 0


class TestBrieskorn:
    def test_family_classification(self):
        assert brieskorn_family(11) == ("12n-1", 1)
        assert brieskorn_family(7) == ("12n-5", 1)
        assert brieskorn_family(13) == ("12n+1", 1)
        assert brieskorn_family(17) == ("12n+5", 1)
        assert brieskorn_family(595) == ("12n-5", 50)
        # the rule written out: m >= 7 with gcd(m, 6) = 1 is 12n-1, 12n-5, 12n+1
        # or 12n+5 for exactly one family, and m + offset = 12n
        offsets = {"12n-1": 1, "12n-5": 5, "12n+1": -1, "12n+5": -5}
        for m in range(-30, 20001):
            if m < 7 or gcd(m, 6) != 1:
                with pytest.raises(UnsupportedSeifertDataError):
                    brieskorn_family(m)
                continue
            expected = [(family, (m + off) // 12) for family, off in offsets.items() if (m + off) % 12 == 0]
            assert [brieskorn_family(m)] == expected, m

    def test_kappa_table_anchors(self):
        assert brieskorn_kappa(11, "+") == 2
        assert brieskorn_kappa(11, "-") == 0
        assert brieskorn_kappa(7, "+") == 1
        assert brieskorn_kappa(7, "-") == 1
        assert brieskorn_kappa(13, "+") == 0
        assert brieskorn_kappa(17, "-") == -1

    def test_kappa_of_every_sphere_is_an_int(self):
        # spectra checks once that kappa is an integer and hands out the int
        for family, (smallest, *_) in FAMILIES.items():
            for orient in "+-":
                assert type(brieskorn_kappa(smallest, orient)) is int, (family, orient)
        assert type(family_kappa("S3", "+")) is int
        assert family_kappa("S3", "+") == 0

    def test_mu_bar_column_is_the_plumbing_invariant(self):
        # the oracle reads mu-bar off the plumbing that (2, 3, m) alone fixes
        for m in range(7, 602):
            if m % 2 and m % 3:
                family, _ = brieskorn_family(m)
                assert FAMILIES[family][-1] == mu_bar(m), (m, family)

    def test_brieskorn_kappa_reads_the_family_table(self):
        for m in SUPPORTED_M:
            family, _ = brieskorn_family(m)
            plus, minus = FAMILY_KAPPA[family]
            assert brieskorn_kappa(m, "+") == plus, m
            assert brieskorn_kappa(m, "-") == minus, m

    def test_splitness(self):
        assert s3_class().is_floer_kg_split()
        for m, expected in [(11, False), (7, False), (13, True), (17, True)]:
            assert brieskorn_class(m, "+").is_floer_kg_split() == expected
            assert brieskorn_class(m, "-").is_floer_kg_split() == expected

    def test_kappa_mod_2_is_orientation_independent(self):
        for m in SUPPORTED_M:
            a = brieskorn_kappa(m, "+")
            b = brieskorn_kappa(m, "-")
            assert (a - b) % 2 == 0

    def test_kappa_is_read_off_the_family(self):
        # brieskorn_kappa evaluates one member per family; this is the
        # invariance that shortcut rests on
        for m in range(7, 4001):
            if m % 2 and m % 3:
                for orient in "+-":
                    assert brieskorn_kappa(m, orient) == brieskorn_class(m, orient).kappa(), (m, orient)

    def test_classes_run_no_completion(self, monkeypatch):
        # k, kappa, splitness and the block ideal are closed forms in the
        # base block, so no class completes an ideal, not even the first one
        # of a family; every completion, ideal_product's included, looks
        # ideal_from_generators up in pin2k.ideals, so counting there sees all
        calls = []

        def counted(gens):
            calls.append(gens)
            return ideal_from_generators(gens)

        monkeypatch.setattr(ideals, "ideal_from_generators", counted)
        for m in range(7, 602):
            if m % 2 and m % 3:
                for orient in "+-":
                    cls = brieskorn_class(m, orient)
                    cls.kappa()
                    cls.is_floer_kg_split()
                    ideal_of(cls.space)
        assert calls == []

    def test_unsupported_inputs(self):
        for function in (brieskorn_class, brieskorn_kappa):
            for bad in (5, 1, 9, 15, 4, -7):
                with pytest.raises(UnsupportedSeifertDataError, match=rf"^unsupported Seifert data \(2, 3, {bad}\)$"):
                    function(bad, "+")
            with pytest.raises(UnsupportedSeifertDataError, match="^bad orientation 'x'$"):
                function(11, "x")
            with pytest.raises(UnsupportedSeifertDataError, match="^bad orientation 'x'$"):
                function(9, "x")  # the orientation is checked first
            # the rule SpectrumClass applies to its m: an equal float or text is no int
            for bad in (7.0, "7"):
                with pytest.raises(UnsupportedSeifertDataError, match=f"^m must be an int, got {bad!r}$"):
                    function(bad, "+")

    def test_m_limit(self):
        assert brieskorn_kappa(MAX_M - 3, "+") == 0  # 999997 = 12n + 1
        for function in (brieskorn_class, brieskorn_kappa):
            for orient in ("+", "-"):
                with pytest.raises(UnsupportedSeifertDataError, match="^m = 1000001 is over the limit of 1000000$"):
                    function(MAX_M + 1, orient)
                # an m past CPython's digit limit is named by the power of two above it
                with pytest.raises(UnsupportedSeifertDataError, match=r"^m = 2\^16610 is over the limit of 1000000$"):
                    function(10**5000 + 1, orient)

    def test_block_count_grows_with_the_index(self):
        assert brieskorn_class(11, "+").space.free == ()
        assert brieskorn_class(23, "+").space.free == (1,)
        assert brieskorn_class(35, "+").space.free == (1, 1)
        assert brieskorn_class(25, "+").space.free == (3, 3)
