"""Reference arithmetic for checking the library's outputs.

Everything here is written from the mathematics, not from the library: Lucas
sequences by integer fast doubling on cleared denominators, Riccati orbits by
integer Moebius-matrix powers, surds as plain (a, b, d) triples that are never
factored, and decimals by integer square roots with a bracketing error bound.
None of these functions imports `aurea`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_RATIONAL = re.compile(r"(-?)(0|[1-9][0-9]*)/([1-9][0-9]*)")
_REDUCED_CHECK_BITS = 65536  # math.gcd is quadratic; above this only the value is compared


class Mismatch(AssertionError):
    """A library output disagreed with its reference value."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# integers and rationals


def parse_int(text: str) -> int:
    """Decimal text of any length to int, without the interpreter's str-size limit."""
    if len(text) <= 4000:
        return int(text)
    half = len(text) // 2
    return parse_int(text[:-half]) * 10**half + parse_int(text[-half:])


def parse_fraction(text: str) -> tuple[int, int]:
    """A canonical "num/den" rendering to its (num, den) pair; anything else is a mismatch."""
    match = _RATIONAL.fullmatch(text)
    expect(match is not None, f"not a canonical num/den literal: {text[:60]!r}")
    sign, num, den = match.groups()
    n, d = parse_int(num), parse_int(den)
    return (-n if sign else n), d


def check_fraction(text: str, num: int, den: int) -> int:
    """Check a "num/den" rendering against the unreduced reference num/den; returns its bit size."""
    if den < 0:
        num, den = -num, -den
    got_n, got_d = parse_fraction(text)
    expect(got_n * den == num * got_d, f"value {text[:60]} differs from reference")
    bits = max(got_n.bit_length(), got_d.bit_length())
    if bits <= _REDUCED_CHECK_BITS:
        expect(math.gcd(got_n, got_d) == 1, f"{text[:60]} is not in lowest terms")
    return bits


def check_rational(text: str, value: Fraction) -> int:
    return check_fraction(text, value.numerator, value.denominator)


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


# ---------------------------------------------------------------------------
# Lucas sequences and two-term recurrences


def lucas_pair(P: int, Q: int, n: int) -> tuple[int, int]:
    """(U(n), U(n+1)) of U(k+2) = P*U(k+1) - Q*U(k), U(0) = 0, U(1) = 1, for integer P, Q and n >= 0.

    Fast doubling: U(2k) = U(k)*(2*U(k+1) - P*U(k)), U(2k+1) = U(k+1)**2 - Q*U(k)**2.
    """
    u, v = 0, 1
    for bit in bin(n)[2:]:
        u, v = u * (2 * v - P * u), v * v - Q * u * u
        if bit == "1":
            u, v = v, P * v - Q * u
    return u, v


def horadam(w0: Fraction, w1: Fraction, p: Fraction, q: Fraction, n: int) -> tuple[int, int]:
    """w(n) of w(k+2) = p*w(k+1) - q*w(k) for any integer n, as an unreduced (num, den) pair.

    With D = lcm(den p, den q), D**k * U(k) is an integer Lucas sequence for
    (D*p, D*D*q), and w(n) = w1*U(n) - q*w0*U(n-1), U(-m) = -U(m)/q**m.
    """
    D = _lcm(p.denominator, q.denominator)
    P, Q = int(D * p), int(D * D * q)
    a0, b0, a1, b1 = w0.numerator, w0.denominator, w1.numerator, w1.denominator
    if n == 0:
        return a0, b0
    if n > 0:
        u, u_next = lucas_pair(P, Q, n - 1)  # D**(k-1) * U(k) for k = n-1, n
        num = a1 * q.denominator * b0 * u_next - q.numerator * a0 * b1 * D * u
        return num, b1 * q.denominator * b0 * D ** (n - 1)
    m = -n
    u, u_next = lucas_pair(P, Q, m)
    num = (a0 * b1 * u_next - a1 * b0 * D * u) * q.denominator**m
    return num, b0 * b1 * D**m * q.numerator**m


def ratio(pair_hi: tuple[int, int], pair_lo: tuple[int, int]) -> tuple[int, int]:
    """hi/lo for two (num, den) pairs."""
    return pair_hi[0] * pair_lo[1], pair_hi[1] * pair_lo[0]


def riccati_term(p: Fraction, q: Fraction, plus: bool, x0: Fraction, n: int) -> tuple[int, int]:
    """x(n) of x -> q/(±p + x) as (num, den): the n-th power of [[0, q], [1, ±p]], scaled to integers."""
    D = _lcm(p.denominator, q.denominator)
    P = int(D * p) if plus else -int(D * p)
    base = (0, int(D * q), D, P)
    acc = (1, 0, 0, 1)
    k = n
    while k:
        if k & 1:
            acc = _mat_mul(acc, base)
        base = _mat_mul(base, base)
        k >>= 1
    r, s = x0.numerator, x0.denominator
    return acc[0] * r + acc[1] * s, acc[2] * r + acc[3] * s


def _mat_mul(x: tuple, y: tuple) -> tuple:
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def riccati_orbit(p: Fraction, q: Fraction, plus: bool, x0: Fraction, n: int) -> list[tuple[int, int]]:
    """x(0) .. x(n) of x -> q/(±p + x) by integer projective stepping, never reduced."""
    D = _lcm(p.denominator, q.denominator)
    P = int(D * p) if plus else -int(D * p)
    Q = int(D * q)
    a, b = x0.numerator, x0.denominator
    out = [(a, b)]
    for _ in range(n):
        a, b = Q * b, D * a + P * b
        out.append((a, b))
    return out


def recurrence_run(first: Fraction, second: Fraction, A: Fraction, B: Fraction, lo: int, hi: int) -> list[Fraction]:
    """Values f(lo) .. f(hi), hi > lo, of f(k+2) = A*f(k+1) + B*f(k) with f(0), f(1) = first, second.

    The first two come from `horadam`, the rest by stepping the definition.
    """
    out = [Fraction(*horadam(first, second, A, -B, k)) for k in (lo, lo + 1)]
    for _ in range(hi - lo - 1):
        out.append(A * out[-1] + B * out[-2])
    return out


# ---------------------------------------------------------------------------
# quadratic surds a + b*sqrt(d), kept as plain triples


def surd_from_record(record: dict) -> tuple[Fraction, Fraction, int]:
    a, b, d = record["a"], record["b"], record["d"]
    expect(isinstance(d, int) and d >= 1, f"bad radicand {d!r}")
    return Fraction(*parse_fraction(a)), Fraction(*parse_fraction(b)), d


def surd_sign(a: Fraction, b: Fraction, d: int) -> int:
    """Exact sign of a + b*sqrt(d)."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa or sb
    if sa == 0:
        return sb
    lhs, rhs = a * a, b * b * d
    if lhs == rhs:
        return 0
    return sa if lhs > rhs else sb


def surd_equal(x: tuple, y: tuple) -> bool:
    """Value equality of two triples, whatever their radicands."""
    (a1, b1, d1), (a2, b2, d2) = x, y
    return a1 == a2 and (b1 > 0) == (b2 > 0) and (b1 < 0) == (b2 < 0) and b1 * b1 * d1 == b2 * b2 * d2


def surd_add(x: tuple, y: tuple) -> tuple:
    return x[0] + y[0], x[1] + y[1], x[2]


def surd_mul(x: tuple, y: tuple) -> tuple:
    (a1, b1, d), (a2, b2, _) = x, y
    return a1 * a2 + b1 * b2 * d, a1 * b2 + a2 * b1, d


def surd_inv(x: tuple) -> tuple:
    a, b, d = x
    norm = a * a - b * b * d
    return a / norm, -b / norm, d


def is_root(x: tuple, A: Fraction, B: Fraction) -> bool:
    """x*x == A*x + B for x = a + b*sqrt(d) with sqrt(d) irrational or b == 0."""
    a, b, d = x
    rational = a * a + b * b * d - A * a - B
    irrational = 2 * a * b - A * b
    if b != 0 and _is_square(d):
        return rational + irrational * math.isqrt(d) == 0
    return rational == 0 and irrational == 0


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def is_rational_square(value: Fraction) -> bool:
    return value >= 0 and _is_square(value.numerator) and _is_square(value.denominator)


def decimal(a: Fraction, b: Fraction, d: int, digits: int) -> str:
    """a + b*sqrt(d) rounded half away from zero to `digits` places, from integer square roots.

    X = |value| * 10**(digits + guard) is bracketed between integer bounds
    L and L + 2; the guard grows until both ends round to the same string.
    """
    negative = surd_sign(a, b, d) < 0
    if negative:
        a, b = -a, -b
    guard = 12
    while True:
        scale = 10 ** (digits + guard)
        # floor(a*scale) + floor(b*sqrt(d)*scale) <= X <= that + 2
        part_a = (a.numerator * scale) // a.denominator
        square = b * b * d * scale * scale
        root = math.isqrt(square.numerator // square.denominator)
        part_b = root if b >= 0 else -root - 1
        low = part_a + part_b
        unit, half = 10**guard, 10**guard // 2
        lo_units, hi_units = (low + half) // unit, (low + 2 + half) // unit
        if lo_units == hi_units:
            break
        guard *= 2
    sign = "-" if negative and lo_units > 0 else ""
    whole, frac = divmod(lo_units, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}" if digits else f"{sign}{whole}"
