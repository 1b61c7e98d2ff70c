"""Ordering and equality of a quadratic surd against a rational or another surd, with sympy as the oracle.

A surd a + b*sqrt(d) compared with an int or Fraction x is decided from the
sign of (a - x) + b*sqrt(d) on cross-multiplied integers, and compared with
a surd of the same field from the differences of the parts.  The hardest
inputs are near-ties: x = a + b*p/q with p/q a continued-fraction convergent
of sqrt(d), whose distance from the surd shrinks like 1/q**2, or a second
surd a2 + b2*sqrt(d) with a2 = a1 + (b1 - b2)*p/q.  sympy decides
each sign on its own, exactly for a rational value and by `evalf(strict=True)`
otherwise, which raises rather than return a digit it cannot certify.

Near-ties at large radicands come from `isqrt` brackets instead: an end of the
bracket of b*sqrt(d) at scale 10**k, so the rational is within 10**-k of the
surd.  `abs_lt`/`abs_le` are checked against sympy's sign of bound - |value|,
for rational and surd values and bounds.
"""

import operator
from fractions import Fraction
from math import isqrt

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from aurea.exact import GOLDEN_RATIO, DomainError, QuadraticSurd, abs_le, abs_lt  # noqa: E402

PROPERTY = settings(max_examples=300, deadline=None)

parts = st.fractions(min_value=-40, max_value=40, max_denominator=60)
radicands = st.integers(2, 60) | st.sampled_from([8, 12, 50])


def convergents(d: int, max_bits: int = 300) -> list[Fraction]:
    """Continued-fraction convergents of sqrt(d) up to a max_bits-bit denominator; [sqrt(d)] for a square."""
    a0 = isqrt(d)
    out = [Fraction(a0)]
    if a0 * a0 == d:
        return out
    m, den, a = 0, 1, a0
    h0, h1, k0, k1 = 1, a0, 0, 1
    while k1.bit_length() < max_bits:
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        out.append(Fraction(h1, k1))
    return out


def sympy_sign(a: Fraction, b: Fraction, d: int, x: Fraction | int) -> int:
    """sympy's sign of (a + b*sqrt(d)) - x."""
    value = sympy.Rational(str(a)) + sympy.Rational(str(b)) * sympy.sqrt(d) - sympy.Rational(str(x))
    if not value.is_Rational:
        value = value.evalf(15, strict=True, maxn=4000)
    return int(sympy.sign(value))


@st.composite
def rationals_near(draw, a: Fraction, b: Fraction, d: int):
    """An int, an arbitrary fraction, or a near-tie a + b*p/q with p/q a convergent of sqrt(d)."""
    kind = draw(st.sampled_from(["int", "fraction", "near_tie"]))
    if kind == "int":
        return draw(st.integers(-300, 300))
    if kind == "fraction":
        return draw(st.fractions(min_value=-(10**4), max_value=10**4, max_denominator=10**6))
    steps = convergents(d)
    return a + b * steps[draw(st.integers(0, len(steps) - 1))]


@st.composite
def surd_and_rational(draw):
    a, b, d = draw(parts), draw(parts), draw(radicands)
    return a, b, d, draw(rationals_near(a, b, d))


@st.composite
def surd_pairs(draw):
    """(a1, b1, a2, b2, d): a2 drawn freely or the near-tie a1 + (b1 - b2)*p/q, p/q a convergent of sqrt(d)."""
    a1, b1, b2, d = draw(parts), draw(parts), draw(parts), draw(radicands)
    if draw(st.booleans()):
        return a1, b1, draw(parts), b2, d
    steps = convergents(d)
    return a1, b1, a1 + (b1 - b2) * steps[draw(st.integers(0, len(steps) - 1))], b2, d


def _checks(surd: QuadraticSurd, x: Fraction | int | QuadraticSurd, expected: int) -> None:
    assert surd.sign() == sympy_sign(surd.a, surd.b, surd.d, 0)
    assert (surd < x, surd <= x, surd > x, surd >= x) == (expected < 0, expected <= 0, expected > 0, expected >= 0)
    assert (surd == x, surd != x) == (expected == 0, expected != 0)
    assert (x > surd, x >= surd, x < surd, x <= surd) == (expected < 0, expected <= 0, expected > 0, expected >= 0)
    assert (x == surd, x != surd) == (expected == 0, expected != 0)


@PROPERTY
@given(case=surd_and_rational())
@example(case=(Fraction(1, 2), Fraction(1, 2), 5, Fraction(1, 2) + Fraction(1, 2) * convergents(5)[-1]))
@example(case=(Fraction(-7, 3), Fraction(5, 11), 50, Fraction(-7, 3) + Fraction(5, 11) * convergents(50)[-2]))
@example(case=(Fraction(3), Fraction(-2), 12, Fraction(3) - 2 * convergents(12)[-1]))
@example(case=(Fraction(0), Fraction(-1, 7), 8, 0))
@example(case=(Fraction(5, 2), Fraction(1, 3), 36, Fraction(9, 2)))  # sqrt(36) = 6: a tie, so ==
@example(case=(Fraction(-4), Fraction(0), 7, -4))
def test_rational_comparisons_match_sympy(case):
    """<, <=, >, >=, == and != in both operand orders, and sign(), against sympy's decision."""
    a, b, d, x = case
    _checks(QuadraticSurd(a, b, d), x, sympy_sign(a, b, d, x))


@PROPERTY
@given(a=parts, b=parts, d=st.sampled_from([4, 9, 25, 36, 49]), zero_b=st.booleans())
def test_a_rational_valued_surd_equals_and_hashes_like_its_value(a, b, d, zero_b):
    """b == 0 after construction, either given so or because d is a square."""
    surd = QuadraticSurd(a, 0, 7) if zero_b else QuadraticSurd(a, b, d)
    value = a if zero_b else a + b * isqrt(d)
    assert surd.is_rational and surd.b == 0
    assert surd == value and value == surd and not surd != value
    assert hash(surd) == hash(value)
    if value.denominator == 1:
        assert surd == int(value) and int(value) == surd and hash(surd) == hash(int(value))
    assert surd != value + Fraction(1, 10**40) and surd < value + Fraction(1, 10**40)


@PROPERTY
@given(case=surd_pairs())
@example(case=(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2) + Fraction(3, 2) * convergents(5)[-1], Fraction(-1), 5))
@example(case=(Fraction(-7, 3), Fraction(5, 11), Fraction(-7, 3) - Fraction(2, 11) * convergents(50)[-2], Fraction(7, 11), 50))
@example(case=(Fraction(3), Fraction(-2), Fraction(1, 4), Fraction(-2), 12))  # equal b: the difference is rational
@example(case=(Fraction(5, 2), Fraction(1, 3), Fraction(9, 2), Fraction(0), 36))  # sqrt(36) = 6: a tie, so ==
@example(case=(Fraction(1), Fraction(2), Fraction(1), Fraction(2), 8))  # the same surd
def test_surd_comparisons_match_sympy(case):
    """Two surds of one field: <, <=, >, >=, == and != in both operand orders against sympy's sign of their difference."""
    a1, b1, a2, b2, d = case
    _checks(QuadraticSurd(a1, b1, d), QuadraticSurd(a2, b2, d), sympy_sign(a1 - a2, b1 - b2, d, 0))


@PROPERTY
@given(a=parts, b=parts, d=radicands, x=parts, shape=st.sampled_from([(0, 7), (1, 9), (-3, 4), (2, 25)]))
def test_a_rational_valued_surd_orders_against_any_field(a, b, d, x, shape):
    """x + c*sqrt(e) with e a square (or c = 0) is rational, so it orders against a surd of any radicand."""
    c, e = shape
    rational = QuadraticSurd(x, c, e)
    assert rational.is_rational
    _checks(QuadraticSurd(a, b, d), rational, sympy_sign(a, b, d, x + c * isqrt(e)))


@pytest.mark.parametrize("d1, d2", [(2, 3), (5, 12), (50, 7)])
def test_irrational_surds_of_different_fields_do_not_order(d1, d2):
    """12 = 4*3 and 50 = 25*2 reduce to other square-free radicands than their partner's."""
    x, y = QuadraticSurd(1, 1, d1), QuadraticSurd(Fraction(-1, 3), 2, d2)
    for first, second in ((x, y), (y, x)):
        for order in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(DomainError):
                order(first, second)
        assert not first == second and first != second


def sympy_value(x: QuadraticSurd | Fraction | int) -> sympy.Expr:
    if isinstance(x, QuadraticSurd):
        return sympy.Rational(str(x.a)) + sympy.Rational(str(x.b)) * sympy.sqrt(x.d)
    return sympy.Rational(str(x))


def sympy_abs_margin(value: QuadraticSurd | Fraction | int, bound: QuadraticSurd | Fraction | int) -> int:
    """sympy's sign of bound - |value|."""
    margin = sympy_value(bound) - sympy.Abs(sympy_value(value))
    if not margin.is_Rational:
        margin = margin.evalf(15, strict=True, maxn=4000)
    return int(sympy.sign(margin))


def _abs_checks(value: QuadraticSurd | Fraction | int, bound: QuadraticSurd | Fraction | int) -> None:
    margin = sympy_abs_margin(value, bound)
    assert (abs_lt(value, bound), abs_le(value, bound)) == (margin > 0, margin >= 0)


@st.composite
def values_and_bounds(draw):
    """A rational or surd value and bound of one field; the bound drawn freely, or |value| or -|value|."""
    d = draw(radicands)

    def operand():
        return draw(parts) if draw(st.booleans()) else QuadraticSurd(draw(parts), draw(parts), d)

    value = operand()
    kind = draw(st.sampled_from(["free", "abs", "negated abs"]))
    return value, operand() if kind == "free" else abs(value) if kind == "abs" else -abs(value)


@PROPERTY
@given(case=values_and_bounds())
@example(case=(-GOLDEN_RATIO, GOLDEN_RATIO))  # bound == |value|: abs_le holds, abs_lt does not
@example(case=(GOLDEN_RATIO - 1, GOLDEN_RATIO - 1))
@example(case=(Fraction(1, 2), -GOLDEN_RATIO))  # a negative bound holds nothing
@example(case=(QuadraticSurd(0, 0, 5), QuadraticSurd(0, 0, 7)))  # 0 <= 0
@example(case=(Fraction(-3, 2), GOLDEN_RATIO))  # rational value, surd bound
@example(case=(GOLDEN_RATIO - 2, Fraction(1, 2)))  # surd value, rational bound
def test_abs_bounds_match_sympy(case):
    _abs_checks(*case)


def bracket_end(a: Fraction, b: Fraction, d: int, k: int, above: bool) -> Fraction:
    """A rational within 10**-k of a + b*sqrt(d), b != 0, d a non-square: a + sign(b)*m/(den(b)*10**k).

    m is isqrt(num(b)**2*d*10**(2k)), the floor of |num(b)|*sqrt(d)*10**k, or that plus one.
    """
    m = isqrt(b.numerator**2 * d * 10 ** (2 * k)) + int(above)
    return a + (1 if b > 0 else -1) * Fraction(m, b.denominator * 10**k)


@st.composite
def near_ties(draw):
    """(a, b, d, r): d a non-square up to 10**6 and r within 10**-k of a + b*sqrt(d), k <= 60, or of its negation."""
    a, b = draw(parts), draw(parts.filter(bool))
    d = draw(st.integers(2, 10**6).filter(lambda d: isqrt(d) ** 2 != d))
    r = bracket_end(a, b, d, draw(st.integers(0, 60)), draw(st.booleans()))
    return a, b, d, -r if draw(st.booleans()) else r


PRIME_36 = 68719476767  # the first prime above 2**36


@settings(max_examples=200, deadline=None)
@given(case=near_ties())
@example(case=(Fraction(1, 2), Fraction(1, 3), PRIME_36, bracket_end(Fraction(1, 2), Fraction(1, 3), PRIME_36, 60, False)))
@example(case=(Fraction(-5, 7), Fraction(-2), PRIME_36, bracket_end(Fraction(-5, 7), Fraction(-2), PRIME_36, 60, True)))
def test_near_tie_orderings_and_abs_bounds_match_sympy(case):
    """All four orderings in both operand orders, sign(), and abs_lt/abs_le with either side as the bound."""
    a, b, d, r = case
    surd = QuadraticSurd(a, b, d)
    _checks(surd, r, sympy_sign(a, b, d, r))
    _abs_checks(r, surd)
    _abs_checks(surd, r)
