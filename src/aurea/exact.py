"""Exact arithmetic substrate: arbitrary-precision rationals and quadratic surds.

Rationals are plain reduced `fractions.Fraction` values; this module adds
their canonical "num/den" wire format, and exact arithmetic, sign evaluation
and decimal rendering for elements a + b*sqrt(d) of a real quadratic field.
One operand reader, `_parts`, reads two ints, Fractions or surds as parts
in the one field they share, and is the one place that decides that field.
An arithmetic operator builds its one result from those parts (`_operator`);
the orderings, `abs_lt`/`abs_le`, `surd_sign` and `decimal_str` take a sign
from one sign core, `_difference_sign`, in integers, building no surd.  A
power reads one pair of the `horadam` kernel (see `__pow__`).  One primitive,
`_floor`, the exact floor of a + b*sqrt(d) from one `isqrt`, decides the sign
core's irrational case, renders `decimal_str` and brackets `_cut`: a caller
that compares many rationals with one fixed surd brackets it once between
consecutive multiples of 2**-bits, and decides each comparison outside that
bracket with one integer product; only one inside reaches the sign core.
`_Record` is the one base of every library value type, `QuadraticSurd` included.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt, lcm, sqrt

__all__ = [
    "DomainError",
    "GOLDEN_RATIO",
    "QuadraticSurd",
    "abs_le",
    "abs_lt",
    "as_rational",
    "decimal_str",
    "format_rational",
    "parse_rational",
    "quadratic_roots",
    "sqrt_decomposition",
    "surd_sign",
]

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")

# Branch, parity and direction names.  riccati and limits export them; they
# live here so that the CLI parser can read them without loading either.
PLUS = "plus"
MINUS = "minus"
STANDARD = "standard"
ODD = "odd"
FORWARD = "forward"
BACKWARD = "backward"


class DomainError(Exception):
    """An operation was asked to leave its mathematical domain."""


class _Record:
    """Immutable value over the fields its subclass annotates, in order.

    The constructor binds arguments to the fields as a written signature
    would; a value on an annotation line, such as `depth: int | None = None`,
    is that field's default.  `==`, `hash` and `repr` read the fields the way
    a frozen dataclass's do.  A type that converts or validates its arguments
    (`RecurrenceParams`, `RiccatiParams`, `RatioParams`, `PeriodicSeed`,
    `QuadraticSurd`) writes its own `__init__` and stores its fields, and any
    derived attribute (unannotated, so outside `==`, `hash` and `repr`), with
    `self.__dict__.update`.  Assignment and deletion raise AttributeError.
    """

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        named = fields[len(args):]  # the fields a keyword may still give
        if len(args) > len(fields) or len(values) < len(fields) or not set(named).issuperset(kwargs):
            unknown = [name for name in kwargs if name not in named]
            missing = [name for name in fields if name not in values]
            raise TypeError(f"{type(self).__qualname__}({', '.join(fields)}) got {len(args)} positional arguments, "
                            f"unknown or repeated keywords {unknown}, missing {missing}")
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def as_rational(value: Fraction | int | str) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def parse_rational(text: str) -> Fraction:
    """Parse a "num/den" literal (a bare integer is accepted) into a reduced Fraction.

    Exactly `[+-]?[0-9]+(/[0-9]+)?` after stripping whitespace: no decimal
    point, exponent or digit separator, so no literal costs more than its digits.
    """
    match = _RATIONAL.fullmatch(text.strip())
    try:
        if match is None:
            raise ValueError("not of the form num/den")
        return Fraction(int(match[1]), int(match[2] or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational literal {text!r}") from exc


def format_rational(value: Fraction | int) -> str:
    """Canonical "num/den" form with the denominator always spelled out, e.g. "-3/2", "7/1".

    A plain Fraction is read through the slots `_from_coprime` writes, so
    the call costs little more than the two int-to-str conversions.
    """
    if type(value) is Fraction:
        return f"{value._numerator}/{value._denominator}"
    value = as_rational(value)
    return f"{value.numerator}/{value.denominator}"


def _from_coprime(numerator: int, denominator: int) -> Fraction:
    """numerator/denominator for coprime ints, denominator nonzero, with no gcd.

    `Fraction(n, d)` runs gcd(n, d) on every call; callers that already know
    the pair is coprime build the value here, through the `_numerator` and
    `_denominator` slots every supported Python version has.  The sign moves
    to the numerator, so the result is the canonical Fraction.
    """
    if denominator < 0:
        numerator, denominator = -numerator, -denominator
    value = object.__new__(Fraction)
    value._numerator = numerator
    value._denominator = denominator
    return value


def _square_split(n: int) -> tuple[int, int]:
    """Write n = s*s*d with d square-free.

    Trial division; adequate for the small radicands arising from quadratic
    discriminants of modest rational coefficients.
    """
    s, d, f = 1, 1, 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            s *= f ** (e // 2)
            if e % 2:
                d *= f
        f += 1 if f == 2 else 2
    return s, d * n  # leftover n has no factor below its square root


def sqrt_decomposition(value: Fraction | int) -> tuple[Fraction, int]:
    """Express sqrt(value) as coeff*sqrt(d) with d a square-free integer.

    d == 1 exactly when value is the square of a rational.
    """
    value = as_rational(value)
    if value < 0:
        raise DomainError(f"square root of negative value {value}")
    if value == 0:
        return Fraction(0), 1
    s, d = _square_split(value.numerator * value.denominator)
    return Fraction(s, value.denominator), d


def _difference_sign(a, b, c, e, d: int) -> int:
    """Exact sign of (a - c) + (b - e)*sqrt(d) for int or Fraction parts, decided in integers with no surd built.

    Times the positive a_den*c_den*b_den*e_den it is p + r*sqrt(d) for the ints p and r below.  For r != 0
    that is irrational, so never 0, and positive exactly when its `_floor` is >= 0.
    """
    ad, bd, cd, ed = a.denominator, b.denominator, c.denominator, e.denominator
    p = (a.numerator * cd - c.numerator * ad) * bd * ed
    r = (b.numerator * ed - e.numerator * bd) * ad * cd
    if r == 0:
        return (p > 0) - (p < 0)
    return 1 if _floor(p, r, d) >= 0 else -1


def _floor(a, b, d: int) -> int:
    """Exact floor of a + b*sqrt(d) for int or Fraction parts, sqrt(d) irrational unless b == 0.

    Over a common denominator Q > 0 the value is (P + r*sqrt(d))/Q with ints P
    and r, and r*sqrt(d) = ±sqrt(R), R = r*r*d zero or a non-square, so the
    floor is (P + isqrt(R)) // Q, or (P - isqrt(R) - 1) // Q for r < 0.
    """
    q = lcm(a.denominator, b.denominator)
    p = a.numerator * (q // a.denominator)
    r = b.numerator * (q // b.denominator)
    s = isqrt(r * r * d)
    return (p + s) // q if r >= 0 else (p - s - 1) // q


def _cut(value: QuadraticSurd, bits: int):
    """r -> sign(r - value) for a rational r = n/m, m > 0, exact, against one value read many times.

    L = floor(value*2**bits) is computed once, so L < value*2**bits < L + 1,
    strictly, as an irrational value is no multiple of 2**-bits.  Then
    n*2**bits <= L*m puts r below value and n*2**bits >= (L + 1)*m puts it
    above, each decided by one product; only an r with r*2**bits in (L, L + 1)
    reaches the sign core.  A rational-valued value is compared directly.
    """
    a, b, d = value.a, value.b, value.d
    if b == 0:
        return lambda r: (r > a) - (r < a)
    low = _floor(a * (1 << bits), b * (1 << bits), d)

    def sign(r) -> int:
        scaled, m = r.numerator << bits, r.denominator
        below = low * m
        if scaled <= below:
            return -1
        if scaled >= below + m:
            return 1
        return _difference_sign(r, 0, a, b, d)

    return sign


def _parts(x: object, y: object) -> tuple[Fraction | int, Fraction | int, Fraction | int, Fraction | int, int] | None:
    """(a, b, c, e, d) of x = a + b*sqrt(d) and y = c + e*sqrt(d), each an int, Fraction or surd; None for another type.

    d is x's radicand when x is irrational, else y's; an int or Fraction reads as radicand 2, the one a
    rational-valued surd has.  Two irrational surds share a field only when their radicands are equal.
    """
    parts = []
    for value in (x, y):
        if isinstance(value, QuadraticSurd):
            parts += value.a, value.b, value.d
        elif isinstance(value, (int, Fraction)):
            parts += value, 0, 2
        else:
            return None
    a, b, dx, c, e, dy = parts
    if b and e and dx != dy:
        raise DomainError(f"incompatible radicands {dx} and {dy}")
    return a, b, c, e, dx if b else dy


def _read(x, y) -> tuple[Fraction | int, Fraction | int, Fraction | int, Fraction | int, int]:
    """`_parts` of two public arguments, each a surd or read by `as_rational`, so a "num/den" str is accepted."""
    return _parts(*[value if isinstance(value, QuadraticSurd) else as_rational(value) for value in (x, y)])


def _ordering(test):
    """A QuadraticSurd ordering: test(sign) on the exact sign of self - other; NotImplemented for a foreign type."""
    def compare(self, other: object) -> bool:
        parts = _parts(self, other)
        return NotImplemented if parts is None else test(_difference_sign(*parts))
    return compare


def _operator(formula):
    """A QuadraticSurd arithmetic operator whose one result has the rational parts formula(*_parts(self, other)).

    A foreign operand type gives NotImplemented.
    """
    def apply(self, other: object) -> QuadraticSurd:
        parts = _parts(self, other)
        return NotImplemented if parts is None else QuadraticSurd(*formula(*parts), parts[4])
    return apply


def _quotient(a, b, c, e, d: int) -> tuple[Fraction, Fraction]:
    """Parts of (a + b*sqrt(d))/(c + e*sqrt(d)) = ((a*c - b*e*d) + (b*c - a*e)*sqrt(d))/(c*c - e*e*d).

    One of a, c is a Fraction, so no quotient here is a float.
    """
    n = c * c - e * e * d
    if n == 0:
        raise ZeroDivisionError("division by zero surd")
    return (a * c - b * e * d) / n, (b * c - a * e) / n


class QuadraticSurd(_Record):
    """Exact element a + b*sqrt(d) of the real quadratic field Q(sqrt(d)).

    The radicand is reduced to its square-free part on construction; when the
    value collapses to a rational (b == 0) the radicand is irrelevant and is
    normalised to 2.  Values with different radicands only mix when at least
    one side is rational-valued.
    """

    a: Fraction
    b: Fraction
    d: int

    def __init__(self, a: Fraction | int | str, b: Fraction | int | str = 0, d: int = 2) -> None:
        a, b = as_rational(a), as_rational(b)
        if not isinstance(d, int) or d < 1:
            raise DomainError(f"radicand must be a positive integer, got {d!r}")
        s, d = _square_split(d)
        b *= s
        if d == 1:
            a, b = a + b, Fraction(0)
        if b == 0:
            d = 2
        self.__dict__.update(a=a, b=b, d=d)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise DomainError(f"{self} is irrational")
        return self.a

    def to_record(self) -> dict:
        """Serialisable form: rational parts as "num/den" strings plus the radicand."""
        return {"a": format_rational(self.a), "b": format_rational(self.b), "d": self.d}

    def conjugate(self) -> QuadraticSurd:
        return QuadraticSurd(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        return self.a * self.a - self.b * self.b * self.d

    def sign(self) -> int:
        """Exact sign, decided in integers without floating point."""
        return _difference_sign(self.a, self.b, 0, 0, self.d)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if not isinstance(other, QuadraticSurd):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    __lt__ = _ordering(lambda sign: sign < 0)
    __le__ = _ordering(lambda sign: sign <= 0)
    __gt__ = _ordering(lambda sign: sign > 0)
    __ge__ = _ordering(lambda sign: sign >= 0)

    def __neg__(self) -> QuadraticSurd:
        return QuadraticSurd(-self.a, -self.b, self.d)

    def __abs__(self) -> QuadraticSurd:
        return -self if self.sign() < 0 else self

    __add__ = __radd__ = _operator(lambda a, b, c, e, d: (a + c, b + e))
    __sub__ = _operator(lambda a, b, c, e, d: (a - c, b - e))
    __rsub__ = _operator(lambda a, b, c, e, d: (c - a, e - b))
    __mul__ = __rmul__ = _operator(lambda a, b, c, e, d: (a * c + b * e * d, a * e + b * c))
    __truediv__ = _operator(_quotient)
    __rtruediv__ = _operator(lambda a, b, c, e, d: _quotient(c, e, a, b, d))

    def __pow__(self, exponent: int) -> QuadraticSurd:
        """x**n = U(n)*x - N*U(n-1), N the norm, U(0), U(1) = 0, 1, U(k+2) = 2a*U(k+1) - N*U(k): one `terms` pair."""
        if not isinstance(exponent, int):
            return NotImplemented
        n = self.norm()
        if n == 0:  # x = 0
            if exponent < 0:
                raise ZeroDivisionError("division by zero surd")
            return QuadraticSurd(1 if exponent == 0 else 0)
        from .horadam import terms  # deferred: horadam imports this module
        u_prev, u = terms(2 * self.a, -n, 0, 1, exponent - 1, exponent)
        return QuadraticSurd(u * self.a - n * u_prev, u * self.b, self.d)

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * sqrt(self.d)

    def __repr__(self) -> str:
        return f"QuadraticSurd({self.a}, {self.b}, {self.d})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        op = "+" if self.b > 0 else "-"
        return f"{self.a} {op} {abs(self.b)}*sqrt({self.d})"


def surd_sign(value: QuadraticSurd | Fraction | int) -> int:
    """Exact sign in {-1, 0, 1} of a rational or quadratic surd: the sign core on its parts against 0."""
    return _difference_sign(*_read(value, 0))


def _bound_signs(value, bound) -> tuple[int, int]:
    """Exact signs of value - bound and value + bound, by the sign core on the parts `_read` gives them."""
    a, b, c, e, d = _read(value, bound)
    return _difference_sign(a, b, c, e, d), _difference_sign(a, b, -c, -e, d)


def abs_lt(value: QuadraticSurd | Fraction | int, bound: QuadraticSurd | Fraction | int) -> bool:
    """Exact |value| < bound, as value - bound < 0 < value + bound, with no surd built."""
    below, above = _bound_signs(value, bound)
    return below < 0 < above


def abs_le(value: QuadraticSurd | Fraction | int, bound: QuadraticSurd | Fraction | int) -> bool:
    """Exact |value| <= bound, as value - bound <= 0 <= value + bound, with no surd built."""
    below, above = _bound_signs(value, bound)
    return below <= 0 <= above


def quadratic_roots(p: Fraction | int | str, q: Fraction | int | str) -> tuple[QuadraticSurd, QuadraticSurd]:
    """Both roots of x**2 - p*x - q = 0, larger root first.

    Requires a positive discriminant p*p + 4*q; when the discriminant is the
    square of a rational both roots come back rational-valued (b == 0).
    """
    p, q = as_rational(p), as_rational(q)
    disc = p * p + 4 * q
    if disc <= 0:
        raise DomainError(f"discriminant {disc} is not positive")
    half_p, half_root = p / 2, Fraction(1, 2 * disc.denominator)
    d = disc.numerator * disc.denominator  # sqrt(disc) = sqrt(d)/den; each constructor splits d
    return QuadraticSurd(half_p, half_root, d), QuadraticSurd(half_p, -half_root, d)


def decimal_str(value: QuadraticSurd | Fraction | int, digits: int = 12) -> str:
    """Correctly rounded fixed-point decimal rendering, half away from zero.

    The rounded magnitude in units of the last digit is the exact `_floor`
    of |value|*10**digits + 1/2.
    """
    if digits < 0:
        raise ValueError("digits must be nonnegative")
    a, b, c, e, d = _read(value, 0)
    negative = _difference_sign(a, b, c, e, d) < 0
    if negative:
        a, b = -a, -b
    scale = 10**digits
    units = _floor(a * scale + Fraction(1, 2), b * scale, d)
    sign = "-" if negative and units > 0 else ""
    whole, frac = divmod(units, scale)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{digits}d}"


GOLDEN_RATIO = QuadraticSurd(Fraction(1, 2), Fraction(1, 2), 5)
