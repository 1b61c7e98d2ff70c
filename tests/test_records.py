"""The library's value types: value `==`, `hash` and `repr` over their fields, immutability, and defaults."""

import pickle
from fractions import Fraction as F

import pytest

from aurea import (
    Classification,
    ConvergenceCertificate,
    LatticeTrace,
    LimitEstimate,
    NestingReport,
    OffsetReport,
    OrbitReport,
    PeriodicSeed,
    QuadraticSurd,
    RatioParams,
    RecurrenceParams,
    RiccatiParams,
    SequenceWindow,
    SubstitutionReport,
)

PHI = QuadraticSurd(F(1, 2), F(1, 2), 5)
PSI = QuadraticSurd(F(1, 2), F(-1, 2), 5)
GOLDEN = RatioParams(F(1), F(1))

# (type, its fields in order as keywords, one field given another value, the repr)
CASES = [
    (
        RecurrenceParams, dict(w0=F(0), w1=F(1), p=F(1), q=F(-1)), dict(q=F(2)),
        "RecurrenceParams(w0=Fraction(0, 1), w1=Fraction(1, 1), p=Fraction(1, 1), q=Fraction(-1, 1))",
    ),
    (
        SequenceWindow, dict(start=-1, values=(F(1), F(0))), dict(start=0),
        "SequenceWindow(start=-1, values=(Fraction(1, 1), Fraction(0, 1)))",
    ),
    (
        RiccatiParams, dict(p=F(7, 3), q=F(5, 2), branch="minus"), dict(branch="plus"),
        "RiccatiParams(p=Fraction(7, 3), q=Fraction(5, 2), branch='minus')",
    ),
    (
        Classification, dict(kind="forbidden", depth=3), dict(depth=4),
        "Classification(kind='forbidden', depth=3)",
    ),
    (
        OrbitReport, dict(trajectory=(F(1), F(1, 2)), pole_step=None, classification=Classification("regular")),
        dict(pole_step=2),
        "OrbitReport(trajectory=(Fraction(1, 1), Fraction(1, 2)), pole_step=None, "
        "classification=Classification(kind='regular', depth=None))",
    ),
    (
        SubstitutionReport,
        dict(t_values=(F(0), F(1)), ratio_values=(F(0),), orbit_matches=(True,), closed_form_matches=(True, True),
             pole_step=None),
        dict(orbit_matches=(False,)),
        "SubstitutionReport(t_values=(Fraction(0, 1), Fraction(1, 1)), ratio_values=(Fraction(0, 1),), "
        "orbit_matches=(True,), closed_form_matches=(True, True), pole_step=None)",
    ),
    (
        RatioParams, dict(r=F(3, 2), s=F(2, 3), parity="odd"), dict(s=F(1)),
        "RatioParams(r=Fraction(3, 2), s=Fraction(2, 3), parity='odd')",
    ),
    (
        ConvergenceCertificate, dict(M=F(1, 2), c=F(1, 6), epsilon=F(1, 10**6), N=32), dict(N=33),
        "ConvergenceCertificate(M=Fraction(1, 2), c=Fraction(1, 6), epsilon=Fraction(1, 1000000), N=32)",
    ),
    (
        LimitEstimate,
        dict(params=GOLDEN, direction="backward", steps=60, ratio=F(-1, 2), target=PSI, claimed=-PHI),
        dict(claimed=None),
        "LimitEstimate(params=RatioParams(r=Fraction(1, 1), s=Fraction(1, 1), parity='standard'), "
        "direction='backward', steps=60, ratio=Fraction(-1, 2), target=QuadraticSurd(1/2, -1/2, 5), "
        "claimed=QuadraticSurd(-1/2, -1/2, 5))",
    ),
    (
        NestingReport, dict(n_max=5, convergent_failures=(), ordering_failures=(2,)), dict(ordering_failures=()),
        "NestingReport(n_max=5, convergent_failures=(), ordering_failures=(2,))",
    ),
    (
        PeriodicSeed,
        dict(period=F(3), kind=GOLDEN, offsets=(F(0), F(1)), seed_pairs=((F(1), F(1)), (F(2), F(1)))),
        dict(period=F(2)),
        "PeriodicSeed(period=Fraction(3, 1), kind=RatioParams(r=Fraction(1, 1), s=Fraction(1, 1), "
        "parity='standard'), offsets=(Fraction(0, 1), Fraction(1, 1)), "
        "seed_pairs=((Fraction(1, 1), Fraction(1, 1)), (Fraction(2, 1), Fraction(1, 1))))",
    ),
    (
        LatticeTrace,
        dict(offset=F(1, 4), n_start=-2, values=(F(1), F(2)), ratios=(F(1, 2),), ratio_undefined_at=None),
        dict(ratio_undefined_at=1),
        "LatticeTrace(offset=Fraction(1, 4), n_start=-2, values=(Fraction(1, 1), Fraction(2, 1)), "
        "ratios=(Fraction(1, 2),), ratio_undefined_at=None)",
    ),
    (
        OffsetReport,
        dict(offset=F(0), target=PHI, epsilon=F(1, 1000), first_step=7, ratio=F(13, 8), horizon=512,
             certificate=ConvergenceCertificate(F(1, 2), F(1, 6), F(1, 1000), 17)),
        dict(first_step=None),
        "OffsetReport(offset=Fraction(0, 1), target=QuadraticSurd(1/2, 1/2, 5), epsilon=Fraction(1, 1000), "
        "first_step=7, ratio=Fraction(13, 8), horizon=512, certificate=ConvergenceCertificate(M=Fraction(1, 2), "
        "c=Fraction(1, 6), epsilon=Fraction(1, 1000), N=17))",
    ),
]


@pytest.mark.parametrize("cls, fields, changed, text", CASES, ids=[case[0].__name__ for case in CASES])
def test_value_semantics(cls, fields, changed, text):
    value = cls(*fields.values())
    same = cls(**fields)
    other = cls(**{**fields, **changed})
    assert value == same and not value != same and hash(value) == hash(same) == hash(tuple(fields.values()))
    assert value != other and not value == other
    assert value != tuple(fields.values())
    assert repr(value) == text
    assert pickle.loads(pickle.dumps(value)) == value
    for name, field in fields.items():
        assert getattr(value, name) == field
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == same and repr(value) == text


def test_defaults():
    assert RiccatiParams(F(1), F(1)).branch == "plus"
    assert RatioParams(F(1), F(1)).parity == "standard"
    assert Classification("regular").depth is None
    trace = LatticeTrace(F(0), 0, (F(1),))
    assert trace.ratios is None and trace.ratio_undefined_at is None
    assert LimitEstimate(GOLDEN, "forward", 5, F(8, 5), PHI).claimed is None
    assert OffsetReport(F(0), PHI, F(1, 10), None, None, 0).certificate is None


@pytest.mark.parametrize(
    "make, derived",
    [
        (lambda: RiccatiParams(F(7, 3), F(5, 2), "minus"), {"sign": -1, "_shift": F(-7, 3)}),
        (lambda: RiccatiParams(F(7, 3), F(5, 2)), {"sign": 1, "_shift": F(7, 3)}),
        (lambda: RatioParams(F(3, 2), F(2, 3), "odd"), {"sign": -1}),
    ],
)
def test_derived_attributes_stay_out_of_equality_and_repr(make, derived):
    value, twin = make(), make()
    for name, expected in derived.items():
        assert getattr(value, name) == expected
        assert f"{name}=" not in repr(value)
        object.__setattr__(twin, name, 0)
    assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)


@pytest.mark.parametrize("cls, fields, changed, text", CASES, ids=[case[0].__name__ for case in CASES])
def test_constructor_refuses_what_a_written_signature_refuses(cls, fields, changed, text):
    first, *_ = fields
    values = list(fields.values())
    bad_calls = [
        lambda: cls(**{name: value for name, value in fields.items() if name != first}),  # a required field left out
        lambda: cls(**fields, bogus=1),  # an unknown keyword
        lambda: cls(values[0], **fields),  # the first field by position and by keyword
        lambda: cls(*values, values[-1]),  # one positional argument too many
    ]
    for call in bad_calls:
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("name", ["a", "_a", "extra"])
def test_quadratic_surd_refuses_assignment(name):
    value = QuadraticSurd(1, 1, 5)
    before = hash(value)
    with pytest.raises(AttributeError):
        setattr(value, name, F(7))
    assert value == QuadraticSurd(1, 1, 5) and hash(value) == before and (value.a, value.b, value.d) == (1, 1, 5)
    assert repr(value) == "QuadraticSurd(1, 1, 5)"
