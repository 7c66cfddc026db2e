"""The immutable records (record.Record) of every public record class.

Each class gets the same treatment: equality and hashing over its fields
and its class, no assignment or deletion, keyword and default
construction, replace, its constructor's checks, and a repr pinned to the
text the package printed when these classes were frozen dataclasses.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from slopecert import (
    AffineSlopeMap,
    AtomKnot,
    Cabling,
    CableSpaceModel,
    Check,
    CheckReport,
    DiameterCertificate,
    FPAbelianGroup,
    Framing,
    FramingChange,
    IntMatrix,
    KnotDescription,
    LevelRecord,
    PrimitiveClass,
    SNFResult,
    Slope,
    TransferCertificate,
    cable_space_homology,
)
from slopecert.cli import RunConfig
from slopecert.rational import Rational
from slopecert.record import Record
from slopecert.slopes import INF, NEG_INF
from slopecert.verify import Verification

E1 = PrimitiveClass(1, 0)
E2 = PrimitiveClass(0, 1)
ONE = IntMatrix(1, 1, (1,))
MAP = AffineSlopeMap(1, 2, Fraction(2))
BASE = AtomKnot(frozenset({Fraction(1, 2)}), True, False, False, True, None)
CABLING = Cabling(1, 2, 1, None, None)
MODEL = cable_space_homology(1, 2)

# One instance of every record class, built with keywords, and the keywords.
SAMPLES = {
    PrimitiveClass: dict(a=2, b=3),
    Slope: dict(rep=PrimitiveClass(2, 3)),
    Framing: dict(mu=E1, lambda_=PrimitiveClass(3, 1), sign=-1),
    FramingChange: dict(epsilon=-1, h=3),
    IntMatrix: dict(rows=1, cols=2, entries=(1, 2)),
    SNFResult: dict(U=ONE, D=IntMatrix(1, 1, (6,)), V=ONE),
    FPAbelianGroup: dict(
        n_generators=2, diag=(1, 5), coordinate_map=IntMatrix(2, 2, (1, 0, 0, 1))
    ),
    CableSpaceModel: {f: getattr(MODEL, f) for f in CableSpaceModel._fields},
    Check: dict(name="eq-meridian", ok=False, detail="coordinate 0"),
    CheckReport: dict(checks=(Check("eq-boundary", True),)),
    AffineSlopeMap: dict(epsilon=-1, q=3, u=Fraction(5, 2)),
    TransferCertificate: dict(model=None, map=MAP, witnesses={"slopes": ()}),
    AtomKnot: dict(
        strict_numerical_slopes=frozenset({Fraction(1, 2)}), meridionally_small=True,
        is_round=False, is_cable=False, ambient_pi1_cyclic=True, complementary_meridian=None,
    ),
    Cabling: dict(p=3, q=2, orientation=-1, f_outer=None, f_inner=None),
    KnotDescription: dict(base=BASE, cablings=(CABLING,)),
    LevelRecord: dict(slopes=(Fraction(4),)),
    DiameterCertificate: dict(
        description=KnotDescription(BASE), gitk=False, ambient=None, base_slopes=(),
        levels=(), routes={}, primary_route="none", d_lower=NEG_INF, reason="no route",
        tags=(),
    ),
    Verification: dict(kind="transfer_certificate", certificate=None, report=CheckReport(())),
    RunConfig: dict(command="snf", inputs=("m.txt",), p=None, q=None, orientation=1,
                    format="json", emit=None),
}

# The repr of each sample as the frozen dataclasses printed it.
REPRS = {
    PrimitiveClass: "PrimitiveClass(a=2, b=3)",
    Slope: "Slope(2, 3)",
    Framing: "Framing(mu=PrimitiveClass(a=1, b=0), lambda_=PrimitiveClass(a=3, b=1), sign=-1)",
    FramingChange: "FramingChange(epsilon=-1, h=3)",
    IntMatrix: "IntMatrix(rows=1, cols=2, entries=(1, 2))",
    SNFResult: "SNFResult(U=IntMatrix(rows=1, cols=1, entries=(1,)), "
    "D=IntMatrix(rows=1, cols=1, entries=(6,)), V=IntMatrix(rows=1, cols=1, entries=(1,)))",
    FPAbelianGroup: "FPAbelianGroup(n_generators=2, diag=(1, 5), "
    "coordinate_map=IntMatrix(rows=2, cols=2, entries=(1, 0, 0, 1)))",
    CableSpaceModel: "CableSpaceModel(p=1, q=2, orientation=1, "
    "f_outer=Framing(mu=PrimitiveClass(a=1, b=0), lambda_=PrimitiveClass(a=0, b=1), sign=-1), "
    "f_inner=Framing(mu=PrimitiveClass(a=1, b=0), lambda_=PrimitiveClass(a=0, b=1), sign=1), "
    "zeta=-1, t=Rational(1, 1))",
    Check: "Check(name='eq-meridian', ok=False, detail='coordinate 0')",
    CheckReport: "CheckReport(checks=(Check(name='eq-boundary', ok=True, detail=''),))",
    AffineSlopeMap: "AffineSlopeMap(epsilon=-1, q=3, u=Rational(5, 2))",
    TransferCertificate: "TransferCertificate(model=None, "
    "map=AffineSlopeMap(epsilon=1, q=2, u=Rational(2, 1)), witnesses={'slopes': ()})",
    AtomKnot: "AtomKnot(strict_numerical_slopes=frozenset({Rational(1, 2)}), "
    "meridionally_small=True, is_round=False, is_cable=False, ambient_pi1_cyclic=True, "
    "complementary_meridian=None)",
    Cabling: "Cabling(p=3, q=2, orientation=-1, f_outer=None, f_inner=None)",
    KnotDescription: "KnotDescription(base=AtomKnot(strict_numerical_slopes="
    "frozenset({Rational(1, 2)}), meridionally_small=True, is_round=False, is_cable=False, "
    "ambient_pi1_cyclic=True, complementary_meridian=None), cablings=(Cabling(p=1, q=2, "
    "orientation=1, f_outer=None, f_inner=None),))",
    LevelRecord: "LevelRecord(slopes=(Fraction(4, 1),))",
    DiameterCertificate: "DiameterCertificate(description=KnotDescription(base=AtomKnot("
    "strict_numerical_slopes=frozenset({Rational(1, 2)}), meridionally_small=True, "
    "is_round=False, is_cable=False, ambient_pi1_cyclic=True, complementary_meridian=None), "
    "cablings=()), gitk=False, ambient=None, base_slopes=(), levels=(), routes={}, "
    "primary_route='none', d_lower=NEG_INF, reason='no route', tags=())",
    Verification: "Verification(kind='transfer_certificate', certificate=None, "
    "report=CheckReport(checks=()))",
    RunConfig: "RunConfig(command='snf', inputs=('m.txt',), p=None, q=None, orientation=1, "
    "format='json', emit=None)",
}

# One field of each sample and another value for it.
CHANGES = {
    PrimitiveClass: ("b", 5),
    Slope: ("rep", PrimitiveClass(1, 4)),
    Framing: ("sign", 1),
    FramingChange: ("h", -2),
    IntMatrix: ("entries", (3, 4)),
    SNFResult: ("D", IntMatrix(1, 1, (2,))),
    FPAbelianGroup: ("diag", (1, 0)),
    CableSpaceModel: ("zeta", 1),
    Check: ("detail", "other"),
    CheckReport: ("checks", ()),
    AffineSlopeMap: ("u", Fraction(-1, 3)),
    TransferCertificate: ("witnesses", {}),
    AtomKnot: ("is_cable", True),
    Cabling: ("orientation", 1),
    KnotDescription: ("cablings", ()),
    LevelRecord: ("slopes", None),
    DiameterCertificate: ("reason", ""),
    Verification: ("kind", "diameter_certificate"),
    RunConfig: ("orientation", -1),
}

CLASSES = list(SAMPLES)
# Records that hold a dict cannot be hashed, as with the dataclasses.
UNHASHABLE = {TransferCertificate, DiameterCertificate}


def sample(cls):
    return cls(**SAMPLES[cls])


def test_every_record_class_has_a_sample():
    assert len(CLASSES) == 19
    assert all(issubclass(cls, Record) for cls in CLASSES)
    assert set(CHANGES) == set(REPRS) == set(CLASSES)
    for cls in CLASSES:
        assert tuple(SAMPLES[cls]) == cls._fields


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_fields_are_equal_records_with_equal_hashes(cls):
    a, b = sample(cls), sample(cls)
    assert a is not b
    assert a == b and not a != b
    if cls not in UNHASHABLE:
        assert hash(a) == hash(b)
        assert hash(a) == hash(tuple(getattr(a, f) for f in cls._fields))
    # A class with the same fields and values is another type of record.
    twin = type(cls.__name__, (cls,), {})(**SAMPLES[cls])
    assert a != twin and twin != a
    assert cls.__eq__(a, twin) is NotImplemented
    assert a != tuple(SAMPLES[cls].values())


def test_records_of_different_classes_with_equal_values_differ():
    assert PrimitiveClass(1, 2) != FramingChange(1, 2)
    assert Check("x", True) != Check("x", True, "detail")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_records_are_immutable(cls):
    record = sample(cls)
    for field in cls._fields:
        with pytest.raises(AttributeError, match="cannot assign to field %r" % field):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match="cannot delete field %r" % field):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == sample(cls)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_is_the_dataclass_repr(cls):
    assert repr(sample(cls)) == REPRS[cls]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_positional_construction_and_copies(cls):
    record = sample(cls)
    assert vars(record).keys() == set(cls._fields)
    assert cls(*SAMPLES[cls].values()) == record
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_replace(cls):
    record = sample(cls)
    same = record.replace()
    assert same == record and same is not record
    field, new = CHANGES[cls]
    changed = record.replace(**{field: new})
    assert type(changed) is cls and changed != record
    assert getattr(changed, field) == new
    assert all(getattr(changed, f) == getattr(record, f) for f in cls._fields if f != field)
    assert record == sample(cls)
    with pytest.raises(TypeError):
        record.replace(no_such_field=1)


def test_replace_runs_the_constructor_checks():
    with pytest.raises(ValueError, match=r"not a primitive class: gcd\(2, 4\) != 1"):
        PrimitiveClass(1, 4).replace(a=2)
    with pytest.raises(ValueError, match=r"not a cabling \(q must be at least 2\)"):
        MODEL.replace(q=1)
    # Values the constructor normalizes come out normalized.
    # A Rational, equal to the Fraction and the int of the same value.
    u = MAP.replace(u=Fraction(3)).u
    assert type(u) is Rational and u == Fraction(3) == 3
    slopes = BASE.replace(strict_numerical_slopes=[1, Fraction(1, 2)]).strict_numerical_slopes
    assert {type(v) for v in slopes} == {Rational}
    assert slopes == frozenset({Fraction(1), Fraction(1, 2)})
    assert KnotDescription(BASE).replace(cablings=[(1, 2)]).cablings == (CABLING,)


def test_cable_space_model_caches_in_its_dict():
    model = cable_space_homology(3, 5)
    images = model.basis_images
    assert model.__dict__["basis_images"] is images
    assert model.basis_images is images
    # a replaced model computes its own
    assert "basis_images" not in model.replace().__dict__


def test_a_replaced_model_gets_a_fresh_check_report():
    model = cable_space_homology(3, 5)  # its construction checked it once
    report = model.__dict__["report"]
    assert report.ok and model.report is report
    same = model.replace()
    assert "report" not in same.__dict__
    assert same.report == report and same.report is not report
    broken = model.replace(zeta=-model.zeta)
    assert not broken.report.ok
    assert model.report is report


def test_defaults():
    assert Check("x", True).detail == ""
    assert AtomKnot() == AtomKnot(frozenset(), False, False, False, False, None)
    assert Cabling(1, 2) == Cabling(p=1, q=2, orientation=1, f_outer=None, f_inner=None)
    assert KnotDescription(BASE).cablings == ()
    assert LevelRecord().slopes is None
    cert = DiameterCertificate(*list(SAMPLES[DiameterCertificate].values())[:8])
    assert (cert.reason, cert.tags) == ("", ())
    assert RunConfig("verify") == RunConfig(
        command="verify", inputs=(), p=None, q=None, orientation=1, format="text",
        emit=None)


@pytest.mark.parametrize("make, error, message", [
    (lambda: PrimitiveClass(1.0, 2), TypeError, "coordinates must be integers"),
    (lambda: PrimitiveClass(2, 4), ValueError, r"not a primitive class: gcd\(2, 4\) != 1"),
    (lambda: Slope(PrimitiveClass(1, -1)), ValueError,
     r"representative \(1, -1\) is not canonical"),
    (lambda: Framing(E1, E1, 1), ValueError, r"not a basis: det\(mu, lambda\) = 0"),
    (lambda: Framing(E1, E2, 0), ValueError, "sign must be \\+1 or -1, got 0"),
    (lambda: FramingChange(0, 1), ValueError, "epsilon must be \\+1 or -1"),
    (lambda: FramingChange(1, Fraction(1, 2)), TypeError, "h must be an integer"),
    (lambda: IntMatrix(-1, 0, ()), ValueError, "matrix dimensions must be nonnegative"),
    (lambda: IntMatrix(1, 2, (1,)), ValueError, "entry count does not match dimensions"),
    (lambda: IntMatrix(1, 1, (True,)), TypeError, "matrix must be integral"),
    (lambda: FPAbelianGroup(2, (0,), ONE), ValueError,
     "diagonal length must equal generator count"),
    (lambda: FPAbelianGroup(2, (0, 0), ONE), ValueError,
     "coordinate map must be square of generator size"),
    (lambda: FPAbelianGroup(1, (0,), IntMatrix(1, 1, (2,))), ValueError,
     "coordinate map must be unimodular"),
    (lambda: FPAbelianGroup(1, (-2,), ONE), ValueError, "invariant factors must be nonnegative"),
    (lambda: FPAbelianGroup(2, (0, 2), IntMatrix.identity(2)), ValueError,
     "free factors must come last"),
    (lambda: FPAbelianGroup(2, (2, 3), IntMatrix.identity(2)), ValueError,
     "invariant factors must form a divisibility chain"),
    (lambda: MODEL.replace(p=2), ValueError, "cabling curve not simple"),
    (lambda: MODEL.replace(orientation=0), ValueError, "orientation must be \\+1 or -1"),
    (lambda: AffineSlopeMap(0, 2, 0), ValueError, "epsilon must be \\+1 or -1"),
    (lambda: AffineSlopeMap(1, 1, 0), ValueError, "q must be an integer >= 2"),
    (lambda: AtomKnot(frozenset({INF}), meridionally_small=True), ValueError,
     "meridian slope declared as a boundary slope of a meridionally small knot"),
    (lambda: AtomKnot(frozenset({Fraction(1)}), is_round=True), ValueError,
     "a round knot has no strict boundary slopes"),
    (lambda: AtomKnot(is_round=True), ValueError,
     "a round base requires its complementary meridian"),
    (lambda: AtomKnot(complementary_meridian=Slope(E1)), ValueError,
     "complementary meridian is gluing data of a round base only"),
    (lambda: Cabling(1.5, 2), ValueError, "p and q must be integers"),
    (lambda: KnotDescription(BASE, ((2, 4),)), ValueError, "cabling curve not simple"),
])
def test_constructor_checks(make, error, message):
    with pytest.raises(error, match=message):
        make()
