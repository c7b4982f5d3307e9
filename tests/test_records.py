"""The immutable records: no assignment, equality and hashing by value,
readable reprs, and the validation of the three that check their input."""

from fractions import Fraction
from pathlib import Path

import pytest

from normord.cli import Config
from normord.closedform import DEFAULT_PRECISION, DEFAULT_TOLERANCE
from normord.graphs import BuildingBlock, CoeffTable, ExplicitGraph
from normord.laguerre import DxOperator
from normord.report import IdentityReport
from normord.series import SumCertificate

# (class, positional args, the same args by keyword)
RECORDS = [
    (SumCertificate, (3, Fraction(1, 2), Fraction(1, 9)),
     {"terms": 3, "ratio_cap": Fraction(1, 2), "tail_bound": Fraction(1, 9)}),
    (IdentityReport, ("x", {"r": 1}, "numeric", "pass", {}, 0.5, 50, "1/10"),
     {"identity": "x", "parameters": {"r": 1}, "mode": "numeric",
      "status": "pass", "details": {}, "elapsed": 0.5, "precision": 50,
      "tolerance": "1/10"}),
    (BuildingBlock, (1, 2, Fraction(1, 3)),
     {"out_lines": 1, "in_lines": 2, "weight": Fraction(1, 3)}),
    (CoeffTable, (2, (((1, 1), 3),)), {"n": 2, "table": (((1, 1), 3),)}),
    (ExplicitGraph, ((1,), 2, (0,), 1),
     {"steps": (1,), "weight": 2, "free_out": (0,), "free_in": 1}),
    (DxOperator, (2, 1), {"r": 2, "M": 1}),
    (Config, (3, 60, Fraction(1, 10**40), Path("cache"), "table"),
     {"lambda_order": 3, "precision": 60, "tolerance": Fraction(1, 10**40),
      "cache_dir": Path("cache"), "fmt": "table"}),
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
    cfg = Config(cache_dir=Path("c"))
    assert cfg == Config(8, DEFAULT_PRECISION, DEFAULT_TOLERANCE, Path("c"), "json")


def test_config_cache_dir_defaults_to_the_env_var(monkeypatch, tmp_path):
    monkeypatch.setenv("NORMORD_CACHE_DIR", str(tmp_path))
    assert Config().cache_dir == tmp_path


@pytest.mark.parametrize("build,message", [
    (lambda: IdentityReport("x", {}, "numeric", "pass", {}, 0.0),
     "numeric reports must record precision and tolerance"),
    (lambda: IdentityReport("x", {}, "numeric", "pass", precision=50),
     "numeric reports must record precision and tolerance"),
    (lambda: IdentityReport("x", {}, "exact", "maybe"), "unknown status 'maybe'"),
    (lambda: IdentityReport("x", {}, "quantum", "pass"), "unknown mode 'quantum'"),
    (lambda: DxOperator(0, 1), "need r >= 1 and M >= 0"),
    (lambda: DxOperator(1, -1), "need r >= 1 and M >= 0"),
    (lambda: Config(fmt="xml"), "unknown output format 'xml'"),
    (lambda: Config(lambda_order=-1), "lambda order must be >= 0"),
    (lambda: Config(precision=29), "precision must be at least 30 digits"),
    (lambda: Config(tolerance=Fraction(0)), "tolerance must be positive"),
    (lambda: Config(precision=30, tolerance=Fraction(1, 10**21)),
     "tolerance tighter than the precision supports "
     "(need tolerance >= 10^-(precision-10))"),
])
def test_validation_errors_unchanged(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
