"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
report.  All comparisons are exact; the two timed criteria assert their
wall-clock budgets.
"""

import random
import time
from pathlib import Path

from pin2k import cli
from pin2k.bounds import Status, bauer_chain_check, canonical_bauer_chain, furuta_closed, split_bound, xi_bounds
from pin2k.ideals import (
    NotSwfLikeError,
    NoWitnessError,
    ideal_from_generators,
    ideal_product,
    z_power_ideal,
)
from pin2k.ring import ONE, W, Z, ZERO, RingElem
from pin2k.spectra import (
    GroupSuspension,
    RepSphere,
    SwfSpace,
    TorusSuspension,
    brieskorn_class,
    brieskorn_family,
    ideal_of,
    k_of,
    psc_class,
)

from oracles import ideal_member_oracle, random_combination, random_generator_set, random_pair

GOLDEN = Path(__file__).parent / "golden"

ALL_M = [m for m in range(7, 602) if m % 2 and m % 3]

FAMILY_KAPPA = {"12n-1": (2, 0), "12n-5": (1, 1), "12n+1": (0, 0), "12n+5": (1, -1)}

SPLIT_FAMILIES = {"12n-1": False, "12n-5": False, "12n+1": True, "12n+5": True}


def report(criterion, message):
    print(f"[criterion {criterion}] PASS - {message}")


def test_criterion_1_family_kappa_table():
    start = time.monotonic()
    checked = 0
    for m in ALL_M:
        family, _ = brieskorn_family(m)
        plus, minus = FAMILY_KAPPA[family]
        assert brieskorn_class(m, "+").kappa() == plus, m
        assert brieskorn_class(m, "-").kappa() == minus, m
        checked += 2
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"family sweep took {elapsed:.2f}s"
    report(1, f"kappa matches the family table on {checked} oriented manifolds in {elapsed:.2f}s")


def test_criterion_2_splitness_classification():
    assert psc_class(0).is_floer_kg_split()
    mismatches = 0
    for m in ALL_M:
        family, _ = brieskorn_family(m)
        for orient in "+-":
            if brieskorn_class(m, orient).is_floer_kg_split() != SPLIT_FAMILIES[family]:
                mismatches += 1
    assert mismatches == 0
    report(2, f"splitness classification exact on {2 * len(ALL_M)} manifolds plus the sphere")


def test_criterion_3_block_ideal_anchors():
    for t in range(11):
        for l in range(11):
            space = SwfSpace(RepSphere(t, l))
            assert ideal_of(space) == z_power_ideal(l), (t, l)
            assert k_of(space) == l, (t, l)
    aug = ideal_from_generators([W, Z])
    for base in (GroupSuspension(), TorusSuspension()):
        space = SwfSpace(base)
        assert ideal_of(space) == aug
        assert k_of(space) == 1
    report(3, "rep-sphere ideals are (z^l) with k = l for t, l <= 10; both cones give (w, z), k = 1")


def test_criterion_4_membership_oracle_equivalence():
    rng = random.Random(20250808)
    start = time.monotonic()
    disagreements = 0
    cases = 0
    while cases < 1000:
        raw = random_generator_set(rng)
        gens = [RingElem(lam, poly) for poly, lam in raw]
        form = ideal_from_generators(gens)
        for _ in range(4):
            if rng.random() < 0.5 and raw:
                x = random_combination(rng, raw)
            else:
                poly, lam = random_pair(rng, max_deg=6, cmax=4, wmax=4)
                x = RingElem(lam, poly)
            if form.contains(x) != ideal_member_oracle(raw, (x.poly, x.wcoef)):
                disagreements += 1
            cases += 1
    elapsed = time.monotonic() - start
    assert disagreements == 0
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.2f}s"
    report(4, f"membership agrees with the lattice oracle on {cases} cases in {elapsed:.2f}s")


def test_criterion_5_property_suites():
    rng = random.Random(777)

    for _ in range(1000):
        x = _random_elem(rng)
        y = _random_elem(rng)
        z = _random_elem(rng)
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * ONE == x and x + ZERO == x

    monotone = suspension = subadditive = split_zw = 0
    guard = 0
    while min(monotone, suspension, subadditive, split_zw) < 1000:
        guard += 1
        assert guard < 60000, "random case generation stalled"
        form = ideal_from_generators(
            [RingElem(lam, poly) for poly, lam in random_generator_set(rng)]
        )

        if monotone < 1000:
            extra = [RingElem(lam, poly) for poly, lam in random_generator_set(rng, max_gens=2)]
            bigger = ideal_from_generators(list(form.basis) + extra)
            try:
                ks, kb = form.k_invariant(), bigger.k_invariant()
                assert kb <= ks
                monotone += 1
            except (NoWitnessError, NotSwfLikeError):
                pass

        if suspension < 1000:
            suspended = ideal_product(form, z_power_ideal(1))
            assert suspended.e == 2 * form.e
            try:
                assert suspended.k_invariant() == form.k_invariant() + 1
                suspension += 1
            except (NoWitnessError, NotSwfLikeError):
                pass

        if subadditive < 1000:
            other = ideal_from_generators(
                [RingElem(lam, poly) for poly, lam in random_generator_set(rng)]
            )
            try:
                total = form.k_invariant() + other.k_invariant()
                assert ideal_product(form, other).k_invariant() <= total
                subadditive += 1
            except (NoWitnessError, NotSwfLikeError):
                pass

        if split_zw < 1000:
            candidate = rng.choice(
                [
                    form,
                    z_power_ideal(rng.randint(0, 4)),
                    ideal_product(z_power_ideal(rng.randint(0, 2)), form),
                ]
            )
            if candidate.is_kg_split():
                assert candidate.zw_exponent(16) == candidate.k_invariant()
                split_zw += 1

    report(
        5,
        "1000-case suites: ring axioms, k monotonicity, k(z*I) = k(I) + 1, "
        "product subadditivity, split => zw exponent equals k",
    )


def _random_elem(rng):
    poly, lam = random_pair(rng, max_deg=6, cmax=9, wmax=9)
    return RingElem(lam, poly)


def test_criterion_6_duality():
    family_sums = {"12n-1": 2, "12n-5": 2, "12n+1": 0, "12n+5": 0}
    for m in ALL_M:
        family, _ = brieskorn_family(m)
        total = brieskorn_class(m, "+").kappa() + brieskorn_class(m, "-").kappa()
        assert total >= 0, m
        assert total == family_sums[family], m
    report(6, "kappa(Y) + kappa(-Y) >= 0 with the exact family sums across the database")


def test_criterion_7_xi_table(capsys):
    code = cli.main(["xi", "table"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / "xi_table.txt").read_bytes()

    uppers = {
        ("Sigma(2,3,12n-1)", "orb"): 0,
        ("-Sigma(2,3,12n-1)", "orb"): -1,
        ("Sigma(2,3,12n-5)", "orb"): -1,
        ("-Sigma(2,3,12n-5)", "orb"): 0,
        ("Sigma(2,3,12n+1)", "orb"): 0,
        ("-Sigma(2,3,12n+1)", "orb"): -1,
        ("Sigma(2,3,12n+5)", "orb"): 1,
        ("-Sigma(2,3,12n+5)", "orb"): -2,
        ("Sigma(2,3,12n-1)", "kappa"): 1,
        ("-Sigma(2,3,12n-1)", "kappa"): -1,
        ("Sigma(2,3,12n-5)", "kappa"): 0,
        ("-Sigma(2,3,12n-5)", "kappa"): 0,
        ("Sigma(2,3,12n+1)", "kappa"): -1,
        ("-Sigma(2,3,12n+1)", "kappa"): -1,
        ("Sigma(2,3,12n+5)", "kappa"): 0,
        ("-Sigma(2,3,12n+5)", "kappa"): -2,
    }
    for (name, method), value in uppers.items():
        row = xi_bounds(name)
        got = row.upper_orbifold if method == "orb" else row.upper_kappa
        assert got == value, (name, method)

    exact = {
        "S3": -1,
        "Sigma(2,3,11)": 0,
        "Sigma(2,3,7)": -1,
        "Sigma(2,3,12n+1)": -1,
        "-Sigma(2,3,12n+1)": -1,
        "Sigma(2,3,12n+5)": 0,
        "-Sigma(2,3,12n+5)": -2,
        "-Sigma(2,3,12n-1)": -1,
        "-Sigma(2,3,12n-5)": 0,
    }
    for name, value in exact.items():
        assert xi_bounds(name).exact == value, name
    report(7, "xi table is byte-stable and reproduces all upper bounds and determinations")


def test_criterion_8_closed_bound_recovery():
    for p in range(0, 21):
        for q in range(1, 41):
            assert split_bound(0, 0, p, q).status == furuta_closed(p, q).status, (p, q)
    assert split_bound(0, 0, 2, 3).status is Status.SATISFIED
    assert split_bound(0, 0, 2, 2).status is Status.VIOLATED
    report(8, "split bound at kappa = 0 equals the closed 10/8 bound on the full grid")


def test_criterion_9_chain_exclusion():
    for r in range(1, 11):
        assert bauer_chain_check(canonical_bauer_chain(r)).status is Status.VIOLATED, r
    for r in range(2, 11):
        for spot in (1, r - 1):
            verdict = bauer_chain_check(canonical_bauer_chain(r, non_split_at=spot))
            assert verdict.status is Status.INAPPLICABLE, (r, spot)
    report(9, "canonical chains excluded for r = 1..10; non-split boundaries inapplicable")
