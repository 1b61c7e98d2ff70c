"""The cut of a fixed surd: `exact._cut(value, bits)` against the sign core and sympy, and its fallback count.

`_cut` brackets value*2**bits between L = floor(value*2**bits) and L + 1
once, and places a rational r = n/m by one product against that bracket; only
an r with r*2**bits in [L, L + 1) goes to `_difference_sign`.  The hardest
inputs are the bracket's own ends L/2**bits and (L + 1)/2**bits, rationals
just inside and outside them, and convergents of the surd, whose distance
from it shrinks like 1/q**2.  `_floor`, which gives L, is checked on its own
against the sign core: L <= value < L + 1.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from aurea import exact  # noqa: E402
from aurea.exact import GOLDEN_RATIO, QuadraticSurd, _cut, _difference_sign, _floor  # noqa: E402
from aurea.fibfunc import PeriodicSeed, verify_convergence  # noqa: E402
from aurea.limits import RatioParams, nesting_check  # noqa: E402

PROPERTY = settings(max_examples=300, deadline=None)

parts = st.fractions(min_value=-40, max_value=40, max_denominator=60)
# squares among them make a rational-valued surd, b == 0 after construction
radicands = st.integers(2, 60) | st.sampled_from([5, 1000003])


def convergents(value: QuadraticSurd, count: int) -> list[Fraction]:
    """The first continued-fraction convergents of value, each term read off `_floor` of the exact remainder."""
    out, (h0, h1), (k0, k1) = [], (0, 1), (1, 0)
    x = value
    for _ in range(count):
        term = _floor(x.a, x.b, x.d)
        h0, h1 = h1, term * h1 + h0
        k0, k1 = k1, term * k1 + k0
        out.append(Fraction(h1, k1))
        if x == term:
            break
        x = 1 / (x - term)
    return out


@st.composite
def cut_cases(draw):
    """(value, bits, r): r a bracket end, a rational within 2**-(bits + 40) of one, a convergent, or any fraction."""
    value = QuadraticSurd(draw(parts), draw(parts | st.just(Fraction(0))), draw(radicands))
    bits = draw(st.integers(0, 200))
    kind = draw(st.sampled_from(["end", "near end", "convergent", "free"]))
    if kind == "free":
        return value, bits, draw(st.integers(-50, 50) | parts)
    if kind == "convergent":
        steps = convergents(value, 40)
        return value, bits, steps[draw(st.integers(0, len(steps) - 1))]
    end = Fraction(_floor(value.a * 2**bits, value.b * 2**bits, value.d) + draw(st.integers(0, 1)), 2**bits)
    if kind == "end":
        return value, bits, end
    return value, bits, end + Fraction(draw(st.sampled_from([-1, 1])), 2 ** (bits + 40) * draw(st.integers(1, 99)))


@PROPERTY
@given(a=parts, b=parts | st.just(Fraction(0)), d=radicands, scale=st.integers(0, 200))
@example(a=Fraction(1, 2), b=Fraction(-1, 2), d=5, scale=0)
@example(a=Fraction(-3), b=Fraction(0), d=7, scale=10)
def test_floor_brackets_the_value(a, b, d, scale):
    """floor(x) <= x < floor(x) + 1 for x = (a + b*sqrt(d))*2**scale, each side decided by the sign core."""
    value = QuadraticSurd(a, b, d)
    a, b, d = value.a * 2**scale, value.b * 2**scale, value.d
    low = _floor(a, b, d)
    assert _difference_sign(low, 0, a, b, d) <= 0 < _difference_sign(low + 1, 0, a, b, d)


@PROPERTY
@given(case=cut_cases())
@example(case=(GOLDEN_RATIO - 1, 10, Fraction(_floor(Fraction(-1, 2) * 2**10, Fraction(1, 2) * 2**10, 5), 2**10)))
@example(case=(QuadraticSurd(Fraction(-7, 3), Fraction(-5, 11), 50), 64, Fraction(-1, 3)))  # a negative surd
@example(case=(QuadraticSurd(Fraction(5, 3)), 70, Fraction(5, 3)))  # b == 0, r == value
@example(case=(QuadraticSurd(Fraction(5, 3)), 0, Fraction(5, 3) - Fraction(1, 10**30)))
def test_cut_matches_the_sign_core(case):
    value, bits, r = case
    assert _cut(value, bits)(r) == _difference_sign(r, 0, value.a, value.b, value.d)


@settings(max_examples=100, deadline=None)
@given(case=cut_cases())
@example(case=(GOLDEN_RATIO, 0, Fraction(1)))
@example(case=(-GOLDEN_RATIO, 100, convergents(-GOLDEN_RATIO, 60)[-1]))
def test_cut_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    value, bits, r = case
    difference = sympy.Rational(str(r)) - sympy.Rational(str(value.a)) - sympy.Rational(str(value.b)) * sympy.sqrt(value.d)
    if not difference.is_Rational:
        difference = difference.evalf(15, strict=True, maxn=4000)
    assert _cut(value, bits)(r) == int(sympy.sign(difference))


def _sign_core_calls(monkeypatch, run) -> int:
    """Number of calls to `exact._difference_sign` during run()."""
    calls, real = [], exact._difference_sign

    def counting(*args):
        calls.append(1)
        return real(*args)

    with monkeypatch.context() as patch:
        patch.setattr(exact, "_difference_sign", counting)
        run()
    return len(calls)


def test_a_rational_inside_the_bracket_reaches_the_sign_core(monkeypatch):
    """The counter sees the fallback: 1024*F(8)/F(9) = 1024*21/34 and 1024*(φ - 1) share the floor 632."""
    cut = _cut(GOLDEN_RATIO - 1, 10)
    assert _sign_core_calls(monkeypatch, lambda: cut(Fraction(21, 34))) == 1
    assert _sign_core_calls(monkeypatch, lambda: cut(Fraction(1, 2)) + cut(Fraction(2, 3))) == 0


def test_batch_comparisons_never_reach_the_sign_core(monkeypatch):
    """nesting_check(600) places 601 convergents of φ - 1, and verify_convergence the golden ratios up to
    the first within 10**-80 of φ, at n = 192, against both ends, each by one product against a bracket."""
    assert _sign_core_calls(monkeypatch, lambda: nesting_check(600).passed) == 0
    seed = PeriodicSeed(1, RatioParams(1, 1), (0,), ((Fraction(1), Fraction(1)),))
    reports = []
    assert _sign_core_calls(monkeypatch, lambda: reports.extend(verify_convergence(seed, Fraction(1, 10**80), 600))) == 0
    assert reports[0].first_step == 192
