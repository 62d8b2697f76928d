"""Value semantics of the immutable records every layer builds on pin2k.Record."""

import copy
import pickle
from fractions import Fraction

import pytest

from pin2k.bounds import BoundaryData, IntersectionForm, Manifold, Status, Verdict, XiBounds, xi_bounds
from pin2k.ideals import IdealForm, ideal_from_generators
from pin2k.ring import LaurentElem, RingElem, parse
from pin2k.spectra import (
    GroupSuspension,
    RepSphere,
    SpectrumClass,
    SwfSpace,
    TorusSuspension,
    UnsupportedBlockError,
    brieskorn_class,
)

# One instance of each record class, with the repr it must print.
REPRS = [
    (RingElem(3, (1, 0, 2)), "RingElem(1 + 2*z^2 + 3*w)"),
    (LaurentElem(((-1, 2), (0, 1))), "LaurentElem(terms=((-1, 2), (0, 1)))"),
    (
        ideal_from_generators([parse("w"), parse("z")]),
        "IdealForm(basis=(RingElem(w), RingElem(z)), e=2, d=1)",
    ),
    (RepSphere(1, 2), "RepSphere(t=1, l=2)"),
    (GroupSuspension(), "GroupSuspension(t=0, l=0)"),
    (TorusSuspension(0, 3), "TorusSuspension(t=0, l=3)"),
    (SwfSpace(RepSphere(), [1]), "SwfSpace(base=RepSphere(t=0, l=0), free=(1,))"),
    (
        SpectrumClass(SwfSpace(GroupSuspension()), 1, Fraction(1, 2)),
        "SpectrumClass(space=SwfSpace(base=GroupSuspension(t=0, l=0), free=()), m=1, n=Fraction(1, 2))",
    ),
    (Verdict(Status.VIOLATED, "0 >= 1"), "Verdict(status=<Status.VIOLATED: 'violated'>, inequality='0 >= 1')"),
    (IntersectionForm(2, 3), "IntersectionForm(p=2, q=3)"),
    (BoundaryData(1, False, "Y1"), "BoundaryData(kappa=1, kg_split=False, name='Y1')"),
    (Manifold(-1, "12n-5"), "Manifold(sign=-1, family='12n-5', m=None)"),
    (
        xi_bounds("S3"),
        "XiBounds(manifold=Manifold(sign=1, family='S3', m=None), lower=-1, upper_filling=-1, "
        "upper_orbifold=None, upper_kappa=-1, upper=-1, exact=-1)",
    ),
]
RECORDS = [record for record, _ in REPRS]


def test_every_record_class_is_covered():
    classes = {type(record) for record in RECORDS}
    assert len(classes) == len(RECORDS) == 13
    assert XiBounds in classes and IdealForm in classes


@pytest.mark.parametrize("record,text", REPRS, ids=lambda value: type(value).__name__)
def test_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", RECORDS, ids=lambda value: type(value).__name__)
def test_equal_values_have_equal_hashes(record):
    twin = copy.deepcopy(record)
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    assert pickle.loads(pickle.dumps(record)) == record
    assert len({record, twin}) == 1


@pytest.mark.parametrize("record", RECORDS, ids=lambda value: type(value).__name__)
def test_assignment_and_deletion_raise(record):
    name = record.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.no_such_field = 0
    assert not hasattr(record, "__dict__")


def test_equality_needs_the_same_class():
    assert GroupSuspension() != TorusSuspension()
    assert GroupSuspension(1, 2) != RepSphere(1, 2)
    assert RingElem(0, (1,)) != 1
    assert 1 != RingElem(0, (1,))
    assert RingElem(0, (1,)) != (0, (1,))
    assert RingElem(0, (1,)) == RingElem(0, [1, 0])
    assert SwfSpace(RepSphere(), [1]) != SwfSpace(RepSphere(), [2])


def test_free_cells_are_stored_as_a_tuple():
    space = SwfSpace(RepSphere(), [1])
    assert space.free == (1,)
    assert type(space.free) is tuple


def test_replace_revalidates():
    block = RepSphere(1, 2)
    assert block._replace(l=5) == RepSphere(1, 5)
    assert block == RepSphere(1, 2)
    with pytest.raises(UnsupportedBlockError):
        block._replace(t=-1)
    with pytest.raises(TypeError):
        block._replace(x=1)


def test_suspend_and_normalize_results():
    cls = SpectrumClass(SwfSpace(GroupSuspension(), (1, 3)), 1, Fraction(1, 2))
    suspended = cls.suspend(l=2).suspend(t=1)
    assert suspended == SpectrumClass(SwfSpace(GroupSuspension(1, 2), (11, 13)), 1, Fraction(1, 2))
    assert suspended.normalize() == SpectrumClass(SwfSpace(GroupSuspension(), (1, 3)), 0, Fraction(-3, 2))
    assert brieskorn_class(29, "+").normalize() == SpectrumClass(SwfSpace(RepSphere(), (-1, -1)), 0, Fraction(-1, 2))


# The number of leading fields each record class requires; the rest default.
REQUIRED = {
    RingElem: 0,
    LaurentElem: 0,
    IdealForm: 0,
    RepSphere: 0,
    GroupSuspension: 0,
    TorusSuspension: 0,
    SwfSpace: 1,
    SpectrumClass: 1,
    Verdict: 2,
    IntersectionForm: 2,
    BoundaryData: 2,
    Manifold: 0,
    XiBounds: 7,
}


def fields(record):
    return dict(zip(record.__slots__, record._values()))


@pytest.mark.parametrize("record", RECORDS, ids=lambda value: type(value).__name__)
def test_keywords_bind_like_positions(record):
    cls, values, names = type(record), record._values(), record.__slots__
    assert cls(*values) == record
    assert cls(**fields(record)) == record
    assert cls(values[0], **dict(zip(names[1:], values[1:]))) == record
    assert cls(**dict(reversed(fields(record).items()))) == record


def test_defaults():
    assert set(REQUIRED) == {type(record) for record in RECORDS}
    assert BoundaryData(1, False) == BoundaryData(1, False, "")
    assert Manifold() == Manifold(1, "S3", None) == Manifold(family="S3")
    assert IdealForm() == IdealForm((), 0, 0) == IdealForm(d=0)
    assert LaurentElem() == LaurentElem(())
    assert RingElem() == RingElem(0, ())
    for block in (RepSphere, GroupSuspension, TorusSuspension):
        assert block() == block(0, 0) == block(l=0) and block(1) == block(1, 0)
    space = SwfSpace(RepSphere())
    assert space == SwfSpace(RepSphere(), ())
    assert SpectrumClass(space) == SpectrumClass(space, 0, Fraction(0))
    for record in RECORDS:
        # every field after the required ones has a default
        cls = type(record)
        assert isinstance(cls(*record._values()[: REQUIRED[cls]]), cls)


@pytest.mark.parametrize("record", RECORDS, ids=lambda value: type(value).__name__)
def test_bad_arguments_raise_type_error(record):
    cls, values, names = type(record), record._values(), record.__slots__
    required = REQUIRED[cls]
    if required:
        with pytest.raises(TypeError):
            cls(*values[: required - 1])
        with pytest.raises(TypeError):
            cls(**{name: value for name, value in fields(record).items() if name != names[required - 1]})
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values, no_such_field=0)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(values[0], **fields(record))
