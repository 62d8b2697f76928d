import json

import pytest

from pin2k import bounds
from pin2k.bounds import (
    BoundaryData,
    BoundsError,
    IntersectionForm,
    MalformedChainError,
    Manifold,
    Status,
    UnknownManifoldError,
    Verdict,
    bauer_chain_check,
    bohr_lee_bound,
    canonical_bauer_chain,
    conjecture_11_8,
    definite_bound,
    furuta_closed,
    orbifold_bound,
    parse_chain,
    parse_manifold,
    relative_10_8,
    rokhlin_consistency,
    split_bound,
    xi_bounds,
    xi_table_rows,
)
from pin2k.spectra import FAMILIES, UnsupportedSeifertDataError, family_kappa

from oracles import mu_bar


def kappa_of(manifold):
    return family_kappa(manifold.family, "+" if manifold.sign > 0 else "-")


class TestForms:
    def test_invariants(self):
        form = IntersectionForm(2, 3)
        assert form.b2 == 22 and form.signature == -16
        assert IntersectionForm(-1, 1).b2 == 10
        assert IntersectionForm(-1, 1).signature == 8
        with pytest.raises(BoundsError, match="^q must be nonnegative$"):
            IntersectionForm(0, -1)


class TestCobordismBounds:
    def test_definite(self):
        assert definite_bound(0, 1, 8).status is Status.SATISFIED
        assert definite_bound(0, 0, 8).status is Status.VIOLATED
        assert definite_bound(0, 0, 0).status is Status.SATISFIED
        assert definite_bound(0, 0, 4).status is Status.INAPPLICABLE

    def test_relative(self):
        assert relative_10_8(0, 0, 2, 1).status is Status.SATISFIED
        assert relative_10_8(0, 0, 3, 1).status is Status.VIOLATED
        assert relative_10_8(2, 0, 0, 0).status is Status.VIOLATED
        # no form has a negative q: no verdict rather than a Violated one
        assert relative_10_8(0, 0, -3, -5) == Verdict(Status.INAPPLICABLE, "q = -5 but q >= 0 is required")

    def test_split(self):
        assert split_bound(0, 0, 2, 3).status is Status.SATISFIED
        assert split_bound(0, 0, 2, 2).status is Status.VIOLATED
        assert split_bound(0, -1, 2, 2, parity_refined=True).status is Status.VIOLATED
        assert split_bound(0, 0, 2, 2, y0_kg_split=False).status is Status.INAPPLICABLE
        assert split_bound(0, 0, 2, 0).status is Status.INAPPLICABLE

    def test_split_parity_refinement_only_bites_for_even_q(self):
        assert split_bound(0, 1, 2, 2, parity_refined=True).status is Status.VIOLATED
        assert split_bound(0, 2, 2, 2, parity_refined=True).status is Status.SATISFIED
        assert split_bound(0, 1, 2, 3, parity_refined=True).status is Status.SATISFIED

    def test_closed(self):
        assert furuta_closed(2, 3).status is Status.SATISFIED
        assert furuta_closed(2, 2).status is Status.VIOLATED
        assert furuta_closed(0, 1).status is Status.SATISFIED
        assert conjecture_11_8(2, 3).status is Status.SATISFIED
        assert conjecture_11_8(2, 2).status is Status.VIOLATED
        assert conjecture_11_8(0, 1).status is Status.SATISFIED
        # exact rational comparison: q = 3, p = 2 sits exactly on 3p/2
        assert conjecture_11_8(4, 6).status is Status.SATISFIED
        assert conjecture_11_8(4, 5).status is Status.VIOLATED
        assert conjecture_11_8(3, 5).status is Status.SATISFIED
        assert conjecture_11_8(3, 4).status is Status.VIOLATED

    def test_grid_matches_closed_bound(self):
        for p in range(0, 21):
            for q in range(1, 41):
                grid = split_bound(0, 0, p, q).status
                closed = furuta_closed(p, q).status
                assert grid == closed, (p, q)

    def test_monotone_in_kappa1_and_q(self):
        for p in range(0, 8):
            for q in range(1, 12):
                for k1 in range(-3, 4):
                    if relative_10_8(0, k1, p, q).status is Status.SATISFIED:
                        assert relative_10_8(0, k1 + 1, p, q).status is Status.SATISFIED
                        assert relative_10_8(0, k1, p, q + 1).status is Status.SATISFIED
                    if split_bound(0, k1, p, q).status is Status.SATISFIED:
                        assert split_bound(0, k1 + 1, p, q).status is Status.SATISFIED
                        assert split_bound(0, k1, p, q + 1).status is Status.SATISFIED

    def test_orbifold(self):
        # the stored Seifert data for the first family: b2+ = 1, mu-bar = 0
        assert orbifold_bound(1, 1, 1, 0).status is Status.SATISFIED
        assert orbifold_bound(2, 1, 1, 0).status is Status.VIOLATED  # p - q >= 1 excluded
        assert orbifold_bound(1, 1, 0, 0).status is Status.VIOLATED  # reversed orientation
        assert orbifold_bound(1, 0, 1, 0).status is Status.INAPPLICABLE
        # no filling has a negative b2plus: no verdict rather than a Violated one
        assert orbifold_bound(0, 1, -4, 0) == Verdict(Status.INAPPLICABLE, "b2plus = -4 but b2plus >= 0 is required")

    def test_rokhlin(self):
        assert rokhlin_consistency(0, 1, 1).status is Status.SATISFIED
        assert rokhlin_consistency(0, 0, 1).status is Status.VIOLATED
        assert rokhlin_consistency(0, 0, 2).status is Status.SATISFIED

    def test_bohr_lee(self):
        assert bohr_lee_bound(0) == 0
        assert bohr_lee_bound(2) == 4
        assert bohr_lee_bound(-1) == -2


class TestBauerChains:
    def test_canonical_chain_is_excluded(self):
        for r in range(1, 6):
            verdict = bauer_chain_check(canonical_bauer_chain(r))
            assert verdict.status is Status.VIOLATED, r

    def test_k3_piece_is_fine(self):
        verdict = bauer_chain_check([(IntersectionForm(2, 3), None)])
        assert verdict.status is Status.SATISFIED

    def test_non_split_boundary_disables_the_check(self):
        for r in range(2, 6):
            for spot in range(1, r):
                verdict = bauer_chain_check(canonical_bauer_chain(r, non_split_at=spot))
                assert verdict.status is Status.INAPPLICABLE, (r, spot)

    def test_chain_with_generous_kappa_is_still_excluded(self):
        chain = [
            (IntersectionForm(2, 3), BoundaryData(5, True, "Y1")),
            (IntersectionForm(2, 3), BoundaryData(9, True, "Y2")),
            (IntersectionForm(2, 2), None),
        ]
        assert bauer_chain_check(chain).status is Status.VIOLATED

    def test_inapplicable_piece_outranks_an_earlier_violation(self):
        violated = (IntersectionForm(9, 1), BoundaryData(0, True, "Y1"))
        assert bauer_chain_check([violated, (IntersectionForm(2, 0), None)]) == Verdict(
            Status.INAPPLICABLE, "piece with q = 0 has no hyperbolic part"
        )
        chain = [violated, (IntersectionForm(2, 3), BoundaryData(0, False, "Y2")), (IntersectionForm(2, 3), None)]
        assert bauer_chain_check(chain) == Verdict(Status.INAPPLICABLE, "boundary Y2 is not split")
        chain[1] = (IntersectionForm(2, 3), BoundaryData(0, True, "Y2"))
        assert bauer_chain_check(chain) == Verdict(Status.VIOLATED, "0 + 1 >= 0 + 9 + 1")

    def test_parse_chain_reads_each_record_by_its_fields(self):
        # an entry's keys are IntersectionForm's fields and "boundary", a
        # boundary's are BoundaryData's with "name" optional; so a chain's
        # records, written out by _asdict, read back as the same chain
        chain = canonical_bauer_chain(3, non_split_at=2)
        echo = [{**form._asdict(), "boundary": None if b is None else b._asdict()} for form, b in chain]
        assert parse_chain(json.dumps(echo)) == chain
        assert parse_chain('[{"q": 3, "p": 2, "boundary": {"kg_split": false, "kappa": -1}}]') == [
            (IntersectionForm(2, 3), BoundaryData(-1, False))
        ]

    def test_malformed(self):
        with pytest.raises(MalformedChainError):
            bauer_chain_check([])
        with pytest.raises(MalformedChainError):
            bauer_chain_check([(IntersectionForm(2, 3), None), (IntersectionForm(2, 2), None)])
        with pytest.raises(MalformedChainError):
            canonical_bauer_chain(0)
        # a count past CPython's digit limit is named by the power of two above it
        with pytest.raises(MalformedChainError, match=r"^2\^16610 pieces is over the limit of 100000$"):
            canonical_bauer_chain(10**5000)
        for r, spot in ((3, 0), (3, 3), (3, 7), (1, 1)):
            with pytest.raises(MalformedChainError, match="out of range"):
                canonical_bauer_chain(r, non_split_at=spot)


EXACT_XI = {
    "S3": -1,
    "Sigma(2,3,11)": 0,
    "Sigma(2,3,7)": -1,
    "Sigma(2,3,13)": -1,
    "-Sigma(2,3,13)": -1,
    "Sigma(2,3,25)": -1,
    "-Sigma(2,3,25)": -1,
    "Sigma(2,3,12n+1)": -1,
    "-Sigma(2,3,12n+1)": -1,
    "Sigma(2,3,12n+5)": 0,
    "-Sigma(2,3,12n+5)": -2,
    "-Sigma(2,3,12n-1)": -1,
    "-Sigma(2,3,12n-5)": 0,
}


class TestXi:
    def test_exact_determinations(self):
        for name, value in EXACT_XI.items():
            row = xi_bounds(name)
            assert row.exact == value, name

    def test_open_intervals(self):
        row = xi_bounds("Sigma(2,3,12n-1)")
        assert (row.lower, row.upper, row.exact) == (-1, 0, None)
        row = xi_bounds("Sigma(2,3,23)")
        assert (row.lower, row.upper, row.exact) == (-1, 0, None)
        row = xi_bounds("Sigma(2,3,12n-5)")
        assert (row.lower, row.upper, row.exact) == (-2, -1, None)

    def test_upper_bound_routes(self):
        # filling, orbifold-method and kappa-method uppers per family and
        # orientation, and for the rows the golden table leaves out
        expected = {
            "Sigma(2,3,12n-1)": (0, 0, 1),
            "-Sigma(2,3,12n-1)": (0, -1, -1),
            "Sigma(2,3,12n-5)": (-1, -1, 0),
            "-Sigma(2,3,12n-5)": (1, 0, 0),
            "Sigma(2,3,12n+1)": (0, 0, -1),
            "-Sigma(2,3,12n+1)": (0, -1, -1),
            "Sigma(2,3,12n+5)": (1, 1, 0),
            "-Sigma(2,3,12n+5)": (-1, -2, -2),
            "Sigma(2,3,13)": (-1, 0, -1),
            "-Sigma(2,3,13)": (-1, -1, -1),
            "Sigma(2,3,25)": (-1, 0, -1),
            "-Sigma(2,3,25)": (-1, -1, -1),
            "-Sigma(2,3,11)": (-1, -1, -1),
            "-Sigma(2,3,7)": (0, 0, 0),
        }
        for name, (filling, orbifold, kappa) in expected.items():
            row = xi_bounds(name)
            assert row.upper_filling == filling, name
            assert row.upper_orbifold == orbifold, name
            assert row.upper_kappa == kappa, name

    def test_consistency_of_bounds(self):
        for row in xi_table_rows():
            if row.lower is not None:
                assert row.lower <= row.upper
            assert (row.exact is not None) == (row.lower == row.upper)

    def test_parse_manifold(self):
        assert parse_manifold("S3") == Manifold()
        assert parse_manifold("Sigma(2,3,11)") == Manifold(1, "12n-1", 11)
        assert parse_manifold("-Sigma(2,3,12n-5)") == Manifold(-1, "12n-5", None)
        with pytest.raises(UnknownManifoldError):
            parse_manifold("Sigma(2,3,9)")
        with pytest.raises(UnknownManifoldError):
            parse_manifold("lens(7,1)")
        # m is capped where it is read, after the family check: 1000003 = 12n - 5
        # is over the cap, 1000002 is in no family
        with pytest.raises(UnsupportedSeifertDataError, match=r"^m = 1000003 is over the limit of 1000000$"):
            parse_manifold("Sigma(2,3,1000003)")
        with pytest.raises(UnknownManifoldError, match=r"^unsupported manifold 'Sigma\(2,3,1000002\)'$"):
            parse_manifold("Sigma(2,3,1000002)")
        assert parse_manifold("-Sigma(2,3,999997)") == Manifold(-1, "12n+1", 999997)


class TestStoredFillings:
    """The stored fillings against the package's own theorems: a typo in a
    table would otherwise be pinned by the golden xi table as if it were right."""

    MANIFOLDS = [parse_manifold(name) for name in bounds._XI_TABLE_ROWS] + [
        parse_manifold(f"{sign}Sigma(2,3,{m})") for m in (7, 11, 13, 25) for sign in ("", "-")
    ]

    def test_each_filling_passes_the_bounds(self):
        # a filling (p, q) of Y is a spin cobordism from the KG-split S^3 to Y
        checked = 0
        for manifold in self.MANIFOLDS:
            kappa = kappa_of(manifold)
            for p, q, source in bounds._fillings(manifold):
                where = (manifold.label(), source)
                assert relative_10_8(0, kappa, p, q).status is Status.SATISFIED, where
                assert rokhlin_consistency(0, kappa, p).status is Status.SATISFIED, where
                if q > 0:
                    assert split_bound(0, kappa, p, q).status is Status.SATISFIED, where
                checked += 1
        assert checked == 30

    @pytest.mark.parametrize(
        "y,piece,complement",
        [
            ("Sigma(2,3,11)", "nucleus N(2n)", "K3 minus the nucleus"),
            ("Sigma(2,3,7)", "-E10 plumbing", "K3 minus the -E10 plumbing"),
        ],
    )
    def test_complementary_fillings_glue_to_k3(self, y, piece, complement):
        # forms add when two pieces are glued along a homology sphere: a
        # filling of -Y and one of Y make a closed spin manifold
        def filling(name, source):
            (form,) = [(p, q) for p, q, src in bounds._fillings(parse_manifold(name)) if src == source]
            return form

        (p1, q1), (p2, q2) = filling("-" + y, piece), filling(y, complement)
        assert (p1 + p2, q1 + q2) == filling("S3", "K3 minus a ball") == (2, 3)
        assert furuta_closed(p1 + p2, q1 + q2).status is Status.SATISFIED


class TestNeumannSiebenmann:
    """The orbifold route and the parity of kappa and of every stored filling
    against mu-bar, which tests/oracles.py computes from the plumbing of
    Sigma(2, 3, m) alone; mu_bar(-Y) = -mu_bar(Y), and b2plus of the orbifold
    cap is 1 for +Sigma and 0 for -Sigma."""

    @staticmethod
    def mu_bar_of(manifold):
        if manifold.family == "S3":
            return 0
        return manifold.sign * mu_bar(manifold.m or FAMILIES[manifold.family][0])

    def test_orbifold_upper_is_the_largest_p_minus_q_orbifold_bound_allows(self):
        for family in FAMILIES:
            for sign, b2plus in ((1, 1), (-1, 0)):
                manifold = Manifold(sign, family, None)
                upper, mu = xi_bounds(manifold).upper_orbifold, self.mu_bar_of(manifold)
                assert upper == b2plus - 1 - mu, (sign, family)
                for q in (1, 2, 5):
                    where = (sign, family, q)
                    assert orbifold_bound(upper + q, q, b2plus, mu).status is Status.SATISFIED, where
                    assert orbifold_bound(upper + 1 + q, q, b2plus, mu).status is Status.VIOLATED, where
        assert xi_bounds("S3").upper_orbifold is None

    def test_kappa_and_fillings_have_the_parity_of_mu_bar(self):
        # Rokhlin: a spin filling (p, q) of Y has signature -8p, and mu-bar
        # reduces mod 2 to the Rokhlin invariant, so p = mu_bar(Y) mod 2
        checked = 0
        for manifold in TestStoredFillings.MANIFOLDS:
            mu = self.mu_bar_of(manifold)
            assert (kappa_of(manifold) - mu) % 2 == 0, manifold.label()
            for p, q, source in bounds._fillings(manifold):
                assert (p - mu) % 2 == 0, (manifold.label(), source)
                checked += 1
        assert checked == 30
