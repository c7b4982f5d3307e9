"""The immutable records: no assignment, equality and hashing by value,
readable reprs, and the validation of the two that check their input."""

from fractions import Fraction

import pytest

from normord.laguerre import DxOperator
from normord.report import IdentityReport
from normord.series import SumCertificate
from oracles import ExplicitGraph

# (class, positional args, the same args by keyword)
RECORDS = [
    (SumCertificate, (3, Fraction(1, 2), Fraction(1, 9)),
     {"terms": 3, "ratio_cap": Fraction(1, 2), "tail_bound": Fraction(1, 9)}),
    (IdentityReport, ("x", {"r": 1}, "numeric", "pass", {}, 0.5, 50, "1/10"),
     {"identity": "x", "parameters": {"r": 1}, "mode": "numeric",
      "status": "pass", "details": {}, "elapsed": 0.5, "precision": 50,
      "tolerance": "1/10"}),
    (ExplicitGraph, ((1,), 2, (0,), 1),
     {"steps": (1,), "weight": 2, "free_out": (0,), "free_in": 1}),
    (DxOperator, (2, 1), {"r": 2, "M": 1}),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls,args,kwargs", RECORDS, ids=IDS)
def test_record_is_immutable(cls, args, kwargs):
    record = cls(*args)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert [getattr(record, name) for name in kwargs] == list(args)


@pytest.mark.parametrize("cls,args,kwargs", RECORDS, ids=IDS)
def test_equal_inputs_compare_and_hash_equal(cls, args, kwargs):
    a, b = cls(*args), cls(**kwargs)
    assert a == b
    if cls is IdentityReport:  # holds dicts, so unhashable, as it always was
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert a != cls(args[0] + args[0], *args[1:])  # first field changed


@pytest.mark.parametrize("cls,args,kwargs", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, args, kwargs):
    text = repr(cls(*args))
    assert text.startswith(cls.__name__ + "(")
    for name, value in kwargs.items():
        assert f"{name}={value!r}" in text


def test_defaults():
    rep = IdentityReport("x", {}, "exact", "pass")
    assert (rep.details, rep.elapsed, rep.precision, rep.tolerance) == (
        {}, 0.0, None, None)
    assert rep.details is not IdentityReport("x", {}, "exact", "pass").details


@pytest.mark.parametrize("build,message", [
    (lambda: IdentityReport("x", {}, "numeric", "pass", {}, 0.0),
     "numeric reports must record precision and tolerance"),
    (lambda: IdentityReport("x", {}, "numeric", "pass", precision=50),
     "numeric reports must record precision and tolerance"),
    (lambda: IdentityReport("x", {}, "exact", "maybe"), "unknown status 'maybe'"),
    (lambda: IdentityReport("x", {}, "quantum", "pass"), "unknown mode 'quantum'"),
    (lambda: DxOperator(0, 1), "need r >= 1 and M >= 0"),
    (lambda: DxOperator(1, -1), "need r >= 1 and M >= 0"),
])
def test_validation_errors_unchanged(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
