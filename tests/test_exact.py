import math
import operator
import random
import sys
from fractions import Fraction

import pytest

from aurea.exact import (
    GOLDEN_RATIO,
    DomainError,
    QuadraticSurd,
    abs_le,
    abs_lt,
    decimal_str,
    format_rational,
    parse_rational,
    quadratic_roots,
    sqrt_decomposition,
    surd_sign,
)
from aurea.exact import _from_coprime


def _coprime_pairs(rng, count):
    """Coprime (n, d), d != 0, of either sign and from 1 to 3000 bits, edge pairs first."""
    pairs = [(0, 1), (0, -1), (1, 1), (-1, -1), (5, -3), (-5, 3), (2**3000 + 1, -(2**3001))]
    while len(pairs) < count:
        bits = rng.choice((4, 64, 3000))
        n, d = rng.randint(-(2**bits), 2**bits), rng.randint(-(2**bits), 2**bits)
        if d and math.gcd(n, d) == 1:
            pairs.append((n, d))
    return pairs


def test_from_coprime_is_the_fraction_the_constructor_builds():
    """The gcd-free builder against Fraction(n, d): fields, equality, hash, order and arithmetic."""
    rng = random.Random(19)
    others = [Fraction(-7, 12), Fraction(3), Fraction(2**70 + 1, 3**40)]
    for n, d in _coprime_pairs(rng, 400):
        built, ref = _from_coprime(n, d), Fraction(n, d)
        assert isinstance(built, Fraction) and type(built) is Fraction
        assert (built.numerator, built.denominator) == (ref.numerator, ref.denominator)
        assert built == ref and hash(built) == hash(ref)
        assert format_rational(built) == format_rational(ref)
        assert (built < 0, built > 1, -built) == (ref < 0, ref > 1, -ref)
        for other in others:
            assert (built < other, other < built) == (ref < other, other < ref)
            assert built + other == ref + other and built * other == ref * other
            assert built / other == ref / other
            if n:
                assert other / built == other / ref


def test_parse_format_round_trip():
    for text in ["-3/2", "7/1", "0/1", "355/113"]:
        assert format_rational(parse_rational(text)) == text
    assert parse_rational("5") == 5
    assert format_rational(Fraction(4, 8)) == "1/2"


def test_format_rational_of_a_fraction_is_its_numerator_over_its_denominator():
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    @settings(max_examples=300, deadline=None)
    @given(st.fractions() | st.builds(Fraction, st.integers(), st.integers(min_value=1)))
    @example(Fraction(0))
    @example(_from_coprime(-(2**3000 + 1), 2**3001))
    def check(value):
        assert format_rational(value) == f"{value.numerator}/{value.denominator}"

    check()


class _Half(Fraction):
    """A Fraction subclass: format_rational reads it through its numerator and denominator properties."""


def test_format_rational_of_other_values():
    cases = [(7, "7/1"), (-3, "-3/1"), (0, "0/1"), (True, "1/1"), (False, "0/1"), ("4/8", "1/2"), (" -6/4 ", "-3/2"),
             ("5", "5/1"), (_Half(3, 6), "1/2"), (_Half(-4), "-4/1")]
    assert [format_rational(value) for value, _ in cases] == [text for _, text in cases]
    with pytest.raises(TypeError):
        format_rational(1.5)
    with pytest.raises(ValueError):
        format_rational("1.5")


def test_format_rational_past_the_str_limit_raises_the_interpreter_error():
    """bench/workloads matches "string conversion" in the message to count a refused request."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("no int-to-str limit in this interpreter")
    for value in (Fraction(10**limit, 3), _from_coprime(7, 10**limit), 10**limit, _Half(10**limit)):
        with pytest.raises(ValueError, match="string conversion"):
            format_rational(value)


def test_parse_rejects_garbage():
    for bad in ["", "one half", "1/0", "2//3", "1e3", "1.5", "1_000"]:
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_rational_arithmetic_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    x = Fraction(-7, 11)
    assert x * 1 == x
    assert Fraction(355, 113) / Fraction(355, 113) == 1
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0)


def test_rational_field_axioms_randomised():
    rng = random.Random(101)

    def rand():
        return Fraction(rng.randint(-50, 50), rng.randint(1, 20))

    for _ in range(300):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a != 0:
            assert a * (1 / a) == 1


def test_sqrt_decomposition():
    assert sqrt_decomposition(Fraction(9)) == (3, 1)
    assert sqrt_decomposition(8) == (2, 2)
    coeff, d = sqrt_decomposition(Fraction(19, 12))
    assert d == 57 and coeff == Fraction(1, 6)
    assert coeff * coeff * d == Fraction(19, 12)
    with pytest.raises(DomainError):
        sqrt_decomposition(Fraction(-1))


def test_surd_canonicalisation():
    assert QuadraticSurd(1, 1, 8) == QuadraticSurd(1, 2, 2)
    assert QuadraticSurd(3, 1, 9) == Fraction(6)  # radicand collapses
    assert QuadraticSurd(2, 0, 7) == Fraction(2)
    assert hash(QuadraticSurd(2, 0, 7)) == hash(Fraction(2))
    assert str(QuadraticSurd(Fraction(3, 2), 0, 7)) == "3/2"  # a rational value prints as its Fraction
    assert str(QuadraticSurd(1, 1, 4)) == "3"
    with pytest.raises(DomainError):
        QuadraticSurd(1, 1, 0)


def test_golden_identity():
    phi = GOLDEN_RATIO
    assert phi * phi == phi + 1
    assert phi * phi == QuadraticSurd(Fraction(3, 2), Fraction(1, 2), 5)
    assert phi * (1 / phi) == 1
    assert float(phi) == (1 + math.sqrt(5)) / 2


def test_silver_identity():
    r = QuadraticSurd(1, 1, 2)
    assert r * r == QuadraticSurd(3, 2, 2)
    assert r * r == 2 * r + 1
    assert float(QuadraticSurd(1, -1, 2)) == 1 - math.sqrt(2)


def test_mixed_radicands():
    a = QuadraticSurd(1, 1, 2)
    b = QuadraticSurd(1, 1, 3)
    with pytest.raises(DomainError):
        a + b
    # rational-valued surds mix with anything
    assert a + QuadraticSurd(4, 0, 3) == QuadraticSurd(5, 1, 2)
    assert a != b


TWO_OPERAND_RUNS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "abs_lt": abs_lt,
    "abs_le": abs_le,
}


@pytest.mark.parametrize("name", sorted(TWO_OPERAND_RUNS))
@pytest.mark.parametrize("left, right", [(2, 3), (3, 2)])
def test_two_irrational_fields_never_mix(name, left, right):
    """Every operator, ordering and abs bound refuses sqrt(left) against sqrt(right), and == reads them unequal."""
    x, y = QuadraticSurd(1, 1, left), QuadraticSurd(1, 1, right)
    with pytest.raises(DomainError, match=f"incompatible radicands {left} and {right}"):
        TWO_OPERAND_RUNS[name](x, y)
    assert not x == y


@pytest.mark.parametrize("name", sorted(TWO_OPERAND_RUNS))
def test_a_rational_valued_surd_mixes_with_any_field(name):
    """A rational-valued surd, radicand 2 once built, acts as its Fraction on either side of a surd of Q(sqrt(3))."""
    four, y = QuadraticSurd(4, 0, 3), QuadraticSurd(1, -1, 3)
    assert four.d == 2
    run = TWO_OPERAND_RUNS[name]
    assert run(four, y) == run(Fraction(4), y)
    assert run(y, four) == run(y, Fraction(4))


def test_surd_division_and_inverse():
    a = QuadraticSurd(3, -2, 5)
    assert a / a == 1
    assert (1 / a) * a == 1
    with pytest.raises(ZeroDivisionError):
        a / QuadraticSurd(0, 0, 5)


def test_surd_operators_match_sympy():
    """+, -, * and / of a surd with a surd, an int or a Fraction, on either side, against sympy's exact value."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2016)

    def fraction():
        return Fraction(rng.randint(-50, 50), rng.randint(1, 30))

    def exact(value):
        if isinstance(value, QuadraticSurd):
            return sympy.Rational(str(value.a)) + sympy.Rational(str(value.b)) * sympy.sqrt(value.d)
        return sympy.Rational(str(value))

    for _ in range(60):
        d = rng.choice([1, 2, 3, 5, 8, 12, 1000003])
        x = QuadraticSurd(fraction(), fraction(), d)
        y = rng.choice([QuadraticSurd(fraction(), fraction(), d), QuadraticSurd(fraction()), rng.randint(-3, 3), fraction()])
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for left, right in ((x, y), (y, x)):
                if op is operator.truediv and exact(right) == 0:
                    with pytest.raises(ZeroDivisionError):
                        op(left, right)
                    continue
                got = op(left, right)
                assert isinstance(got, QuadraticSurd)
                assert sympy.expand(sympy.radsimp(exact(got) - op(exact(left), exact(right)))) == 0, (op, left, right)
    for op in (operator.sub, operator.mul, operator.truediv):
        with pytest.raises(DomainError):
            op(QuadraticSurd(1, 1, 2), QuadraticSurd(1, 1, 3))
    with pytest.raises(ZeroDivisionError):
        1 / QuadraticSurd(0, 0, 7)


def test_surd_pow():
    phi = GOLDEN_RATIO
    # phi**n = F(n)*phi + F(n-1)
    assert phi**5 == 5 * phi + 3
    assert phi**0 == 1
    assert phi**-1 == phi - 1
    assert phi**-3 == (phi - 1) ** 3


def test_quadratic_roots_examples():
    phi_pair = quadratic_roots(1, 1)
    assert phi_pair[0] == GOLDEN_RATIO
    assert phi_pair[1] == QuadraticSurd(Fraction(1, 2), Fraction(-1, 2), 5)
    assert quadratic_roots(1, 2) == (QuadraticSurd(2), QuadraticSurd(-1))
    plus, minus = quadratic_roots(2, 1)
    assert plus == QuadraticSurd(1, 1, 2) and minus == QuadraticSurd(1, -1, 2)
    for root in (plus, minus):
        assert root * root - 2 * root - 1 == 0
    with pytest.raises(DomainError):
        quadratic_roots(0, Fraction(-1, 8))


def test_root_sum_and_product_randomised():
    rng = random.Random(202)
    for _ in range(100):
        p = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        q = Fraction(rng.randint(1, 40), rng.randint(1, 9))
        hi, lo = quadratic_roots(p, q)
        assert hi + lo == p
        assert hi * lo == -q
        assert (hi - lo).sign() > 0


def test_quadratic_roots_match_the_decomposed_discriminant_formula():
    """Both roots equal p/2 ± (coeff/2)*sqrt(d), (coeff, d) = sqrt_decomposition(p*p + 4*q), field by field.

    The discriminant is drawn as s*s*m/(t*t*n), so square factors occur in its
    numerator and its denominator, and it is a rational square when m = n = 1.
    """
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    def formula(p, q):
        coeff, d = sqrt_decomposition(p * p + 4 * q)
        return QuadraticSurd(p / 2, coeff / 2, d), QuadraticSurd(p / 2, -coeff / 2, d)

    pairs = st.builds(
        lambda p, s, m, t, n: (p, (Fraction(s * s * m, t * t * n) - p * p) / 4),
        st.fractions(min_value=-40, max_value=40, max_denominator=40),
        st.integers(1, 40),
        st.integers(1, 300),
        st.integers(1, 40),
        st.integers(1, 300),
    )

    @settings(max_examples=300, deadline=None)
    @given(pairs)
    @example((Fraction(3), Fraction(10)))  # disc 49
    @example((Fraction(1, 3), Fraction(2, 9)))  # disc 1
    @example((Fraction(0), Fraction(9, 16)))  # disc 9/4
    @example((Fraction(0), Fraction(45, 32)))  # disc 45/8 = (3/2)**2 * 5/2
    @example((Fraction(1), Fraction(1)))
    def check(pair):
        assert quadratic_roots(*pair) == formula(*pair)

    check()


def test_sign_examples():
    assert (GOLDEN_RATIO - 1).sign() == 1
    assert QuadraticSurd(Fraction(1, 2), Fraction(-1, 2), 5).sign() == -1
    assert QuadraticSurd(0, 0, 5).sign() == 0
    assert surd_sign(Fraction(-3, 7)) == -1
    assert surd_sign(0) == 0


def test_sign_agrees_with_float_on_random_surds():
    rng = random.Random(303)
    radicands = [2, 3, 5, 6, 7, 10, 11, 13]
    for _ in range(1000):
        a = Fraction(rng.randint(-60, 60), rng.randint(1, 30))
        b = Fraction(rng.randint(-60, 60), rng.randint(1, 30))
        d = rng.choice(radicands)
        x = QuadraticSurd(a, b, d)
        approx = float(a) + float(b) * math.sqrt(d)
        if abs(approx) > 1e-9:
            assert x.sign() == (1 if approx > 0 else -1)
        else:
            assert x.sign() == 0 or abs(float(x)) < 1e-6


def test_ordering():
    one = QuadraticSurd(1)
    assert one < GOLDEN_RATIO < 2
    assert sorted([GOLDEN_RATIO, one, -GOLDEN_RATIO]) == [-GOLDEN_RATIO, one, GOLDEN_RATIO]
    assert abs(-GOLDEN_RATIO) == GOLDEN_RATIO


def test_abs_bounds():
    phi = GOLDEN_RATIO
    assert abs_lt(phi - Fraction(161803, 100000), Fraction(1, 10000))
    assert not abs_lt(phi - 1, Fraction(1, 2))
    assert abs_le(Fraction(1, 2), Fraction(1, 2))
    assert not abs_lt(Fraction(1, 2), Fraction(1, 2))


FOREIGN_OPERANDS = {"str": "1", "float": 1.5, "None": None, "object": object()}
BINARY_OPERATORS = [operator.add, operator.sub, operator.mul, operator.truediv,
                    operator.lt, operator.le, operator.gt, operator.ge]


@pytest.mark.parametrize("foreign", sorted(FOREIGN_OPERANDS))
@pytest.mark.parametrize("op", BINARY_OPERATORS, ids=lambda op: op.__name__)
def test_a_foreign_operand_raises_type_error_in_either_order(op, foreign):
    """A str, float, None or plain object is no operand: each side returns NotImplemented, and == is False."""
    other = FOREIGN_OPERANDS[foreign]
    for left, right in ((GOLDEN_RATIO, other), (other, GOLDEN_RATIO)):
        with pytest.raises(TypeError):
            op(left, right)
        assert (left == right, left != right) == (False, True)


def test_decimal_rendering():
    assert decimal_str(GOLDEN_RATIO, 10) == "1.6180339887"
    assert decimal_str(Fraction(1, 3), 5) == "0.33333"
    assert decimal_str(Fraction(2, 3), 5) == "0.66667"
    assert decimal_str(Fraction(-5, 4), 2) == "-1.25"
    assert decimal_str(Fraction(-1, 10**9), 3) == "0.000"  # no negative zero
    assert decimal_str(-GOLDEN_RATIO, 10) == "-1.6180339887"
    assert decimal_str(QuadraticSurd(2, 0, 7), 4) == "2.0000"


def test_decimal_rounds_a_surd_just_past_a_half_unit():
    # v exceeds 5e-13 by less than 1e-60, so it rounds up at 12 digits; two
    # truncated square-root approximations both sit below the half-unit
    t = Fraction(math.isqrt(2 * 10**120), 10**60)
    v = QuadraticSurd(Fraction(5, 10**13) - t, 1, 2)
    assert (v - Fraction(5, 10**13)).sign() == 1
    assert decimal_str(v, 12) == "0.000000000001"
    assert decimal_str(-v, 12) == "-0.000000000001"


def test_decimal_matches_sympy_floor():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20160)
    for _ in range(300):
        digits = rng.randint(0, 60)
        a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        b = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        d = rng.choice([2, 3, 5, 7, 10, 11, 13, 1009, 99991])
        if rng.random() < 0.3:  # put the value within 1e-40 of a rounding boundary
            half = Fraction(2 * rng.randint(-10**6, 10**6) + 1, 2 * 10**digits)
            b = Fraction(rng.choice([-1, 1]), 10**rng.randint(20, 40))
            a = half - b * Fraction(math.isqrt(d * 10**100), 10**50)
        value = QuadraticSurd(a, b, d)
        exact = sympy.Rational(str(value.a)) + sympy.Rational(str(value.b)) * sympy.sqrt(value.d)
        # floor of a 300-digit evaluation: sympy.floor on the exact sum settles
        # for too few digits within 1e-80 of an integer
        units = int(sympy.floor(sympy.N(abs(exact) * 10**digits + sympy.Rational(1, 2), 300)))
        whole, frac = divmod(units, 10**digits)
        sign = "-" if value.sign() < 0 and units else ""
        expected = f"{sign}{whole}" + (f".{frac:0{digits}d}" if digits else "")
        assert decimal_str(value, digits) == expected, (a, b, d, digits)


def test_serialisation_record():
    rec = GOLDEN_RATIO.to_record()
    assert rec == {"a": "1/2", "b": "1/2", "d": 5}
    assert parse_rational(rec["a"]) == Fraction(1, 2)


def test_conjugate_and_norm():
    x = QuadraticSurd(Fraction(3, 2), Fraction(-1, 4), 5)
    assert x + x.conjugate() == 2 * Fraction(3, 2)
    assert x * x.conjugate() == x.norm()
