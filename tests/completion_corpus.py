"""The seeded completion corpus: 1,000 generating sets and the sha256 over
the repr of their completed forms, one line per set.

    python tests/completion_corpus.py

prints that digest, which tests/test_ideals.py compares with the one it
holds.  The forms are unique, so a new digest means either a wrong form or
a new spelling of the same forms; the test tells the two apart with the
oracles of tests/oracles.py.
"""

import hashlib
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def corpus():
    """The raw (poly, lam) generating sets: up to 4 generators of degree at
    most 10, with coefficients up to 1, 3, 9 and 1000 in turn and w-parts in
    one set of two."""
    from oracles import random_pair

    rng = random.Random(1013)
    for i in range(1000):
        cmax = (1, 3, 9, 1000)[i % 4]
        wmax = cmax if i % 8 < 4 else 0
        yield [random_pair(rng, 10, cmax, wmax) for _ in range(rng.randint(0, 4))]


def forms(sets):
    from pin2k.ideals import ideal_from_generators
    from pin2k.ring import RingElem

    return [ideal_from_generators([RingElem(lam, poly) for poly, lam in raw]) for raw in sets]


def digest(forms):
    return hashlib.sha256("\n".join(map(repr, forms)).encode()).hexdigest()


if __name__ == "__main__":
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    print(digest(forms(corpus())))
