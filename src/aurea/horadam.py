"""Two-term linear recurrences over exact rationals, all in one "+" form.

Every stepping question in the library is a run of

    u(k+2) = A*u(k+1) + B*u(k),    B != 0,

read by `terms`, the one value reader (a window of one term, of the pair at
one index, or wider), and `ratios`, the one ratio stream u(k+1)/u(k);
`fast_term` is `horadam_term` under its older name.  Each parameter type
lowers to (A, B) in exactly one place, its `plus_form` method:

    RecurrenceParams  w(n+2) = p*w(n+1) - q*w(n)               ->  (p, -q)
    RatioParams       f(n+2) = ±r*f(n+1) + s*f(n)              ->  (±r, s)
    RiccatiParams     x -> q/(±p + x), its Lucas closed forms  ->  (p, q)

`fundamental_lucas` and `lucas_window` take (A, B) directly, so no silent
sign flip can creep in between the canonical Horadam form and the closed
forms.  The linearising substitution x(n) = t(n)/t(n+1) runs the same kernel
on (p/q, 1/q).

The kernel steps plain ints.  `_start` takes D = lcm(den A, den B) and
E = lcm(den u(0), den u(1)); then u(k) = w(k) / (E*D**k), where

    w(k+2) = (A*D)*w(k+1) + (B*D**2)*w(k),    w(0) = E*u(0),  w(1) = E*D*u(1),

is an integer recurrence, so each returned term costs one reduction at the
end instead of a gcd-reduced Fraction at every step.  `terms` reaches its
start by powering the companion matrix (0, 1, Q, P) = [[0, 1], [Q, P]] of
the cleared recurrence, P = A*D and Q = B*D**2, which maps (w(k), w(k+1)) to
(w(k+1), w(k+2)): `_start` squares that one matrix once per bit below the
top bit of |lo| and applies each power whose bit is set in |lo| to the pair
(w(0), w(1)).
`terms` steps one term at a time only through the window; `ratios` steps
the cleared coefficients from index 0 without end.  A negative start is
reached by powering the companion's adjugate (P, -1, -Q, 0), -Q times its
inverse, and the run from it steps forward as from any other start, so one
integer path serves indices of either sign.

One int stepper, `_steps`, serves windows and ratio streams alike, and it
steps one shape, the paper's map z -> alpha/(beta*z + gamma), whose
linearisation makes every ratio stream here one of its orbits: on an int
vector (x, y, c), (x, y) -> (alpha*y, beta*x + gamma*y) and c -> c*D.  Each
image is divided by its content, which divides the small -alpha*beta, the
det of [[0, alpha], [beta, gamma]], so every step takes one gcd with that
small int as an operand.  The start's content, gcd(c, x, y), is the one gcd
that may have only big operands, as at a window far out.  A window, one
term included, runs `_start`'s (1, Q, P) on c = E*D**lo, or
E*(-Q/D)**(-lo) for lo < 0, with u(k) = x/c and u(k+1) = y/(c*D); the
common factor of a term x/c divides a power of E*Q, so `_coprime`, by gcds
against E*Q, reduces it.  As every yield is content-free, the ints at an
index are the same up to sign from any start.  A ratio stream is an orbit
run on c = 0 as coprime pairs: `_orbit` clears its (alpha, beta, gamma) and
seed to ints once, stops before the first infinite point, reporting its
index, and `exact._from_coprime` builds each reduced Fraction without a
gcd.  t(k)/t(k+1) of a recurrence is the orbit of (1, B, A); `ratios`
steps it from (u(0), u(1)) without end, reading each pair upside down.
`terms` reduces every term it reads; `riccati.substitution_check` reduces
only its t window and reads its Lucas window and its map's pairs as ints.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import islice, takewhile
from math import gcd, lcm
from operator import itemgetter

from .exact import DomainError, _from_coprime, _Record, as_rational

__all__ = [
    "FIBONACCI",
    "RecurrenceParams",
    "SequenceWindow",
    "fast_term",
    "fundamental_lucas",
    "horadam_term",
    "lucas_window",
    "negative_symmetry_check",
    "window",
]


class RecurrenceParams(_Record):
    """Seeds and coefficients of w(n+2) = p*w(n+1) - q*w(n); q != 0 keeps it invertible."""

    w0: Fraction
    w1: Fraction
    p: Fraction
    q: Fraction

    def __init__(self, w0, w1, p, q) -> None:
        w0, w1, p, q = as_rational(w0), as_rational(w1), as_rational(p), as_rational(q)
        if q == 0:
            raise DomainError("q = 0 makes the recurrence non-invertible")
        self.__dict__.update(w0=w0, w1=w1, p=p, q=q)

    def plus_form(self) -> tuple[Fraction, Fraction]:
        """(A, B) = (p, -q) of the "+" form u(k+2) = A*u(k+1) + B*u(k)."""
        return self.p, -self.q


FIBONACCI = RecurrenceParams(0, 1, 1, -1)


class SequenceWindow(_Record):
    """Contiguous run of terms; start may be negative."""

    start: int
    values: tuple[Fraction, ...]


def _start(A, B, a, b, lo: int) -> tuple[tuple[int, ...], int]:
    """`_steps`' arguments for u(lo), u(lo+1), ... of u(k+2) = A*u(k+1) + B*u(k) from (a, b), and E*Q.

    With D = lcm(den A, den B) and E = lcm(den a, den b), u(k) = w(k) / (E*D**k)
    where w(k+2) = P*w(k+1) + Q*w(k), P = A*D and Q = B*D**2 are ints.  The
    arguments are (1, Q, P), whose step takes (w(k), w(k+1)) to
    (w(k+1), w(k+2)), the pair (x, y) and c at lo, and D, so u(k) = x/c and
    u(k+1) = y/(c*D) at every yield (x, y, c, g).  The pair is reached from
    (w(0), w(1)) by powering that step's matrix C = (0, 1, Q, P), or, for
    lo < 0, its adjugate (P, -1, -Q, 0), which is -Q times the inverse of C;
    then c is E*(-Q/D)**(-lo), an int that may be negative.  That one matrix
    M is squared once per bit below the top bit of |lo|, |lo|.bit_length() - 1
    times, and M**(2**i) is applied to the pair for each bit i set in |lo|,
    low bit first: powers of one matrix commute, so the ints are those of
    M**|lo| applied once.  A term's denominator divides a power of E*Q at
    either sign.
    """
    D = lcm(A.denominator, B.denominator)
    E = lcm(a.denominator, b.denominator)
    P, Q = A.numerator * (D // A.denominator), B.numerator * (D // B.denominator) * D
    x, y = a.numerator * (E // a.denominator), b.numerator * (E // b.denominator) * D
    m00, m01, m10, m11 = (0, 1, Q, P) if lo >= 0 else (P, -1, -Q, 0)
    k = abs(lo)
    while k:
        if k & 1:
            x, y = m00 * x + m01 * y, m10 * x + m11 * y
        k >>= 1
        if k:
            m00, m01, m10, m11 = (
                m00 * m00 + m01 * m10, m00 * m01 + m01 * m11, m10 * m00 + m11 * m10, m10 * m01 + m11 * m11
            )
    c = E * D**lo if lo >= 0 else E * (-Q // D) ** -lo
    return (1, Q, P, x, y, c, D), E * Q


def _coprime(n: int, d: int, m: int) -> tuple[int, int]:
    """n/d in lowest terms, for d != 0 whose primes all divide m, by gcds against the small m.

    A common factor t is stripped as its largest power t**(2**j) that divides
    both, so the rounds stay logarithmic in the common factor's size.
    """
    if not n:
        return 0, 1
    t = gcd(m, n, d)
    while t > 1:
        s = t * t
        while not (n % s or d % s):
            t, s = s, s * s
        n, d = n // t, d // t
        t = gcd(m, n, d)
    return n, d


def _steps(alpha, beta, gamma, x, y, c=0, D=1) -> Iterator[tuple[int, int, int, int]]:
    """(x, y, c, g): the start over gcd(c, x, y), then each image (alpha*y, beta*x + gamma*y, c*D) over g, its content.

    M = [[0, alpha], [beta, gamma]] steps (x, y); det M = -alpha*beta is
    nonzero, and D divides it unless c = 0.  g divides det M: a prime power
    in g divides det*(x, y), the adjugate of M times the image, so it
    divides det unless its prime divides both x and y; then the prime does
    not divide c, so the power divides D.  One gcd against |det| keeps every
    yield content-free, and g is 1 at the start.  With c = 0 the pairs are
    coprime points of the map z -> alpha/(beta*z + gamma).
    """
    g = gcd(c, x, y)
    if g > 1:
        x, y, c = x // g, y // g, c // g
    det, g = abs(alpha * beta), 1
    while True:
        yield x, y, c, g
        x, y, c = alpha * y, beta * x + gamma * y, c * D
        g = gcd(det, x, y, c)
        if g > 1:
            x, y, c = x // g, y // g, c // g


def _ints(*values) -> list[int]:
    """Rationals times the lcm of their denominators: ints in the same ratios."""
    D = lcm(*(value.denominator for value in values))
    return [value.numerator * (D // value.denominator) for value in values]


def _orbit(coefficients: tuple, x, y, count: int) -> tuple[list[Fraction], int | None]:
    """At most `count` points of z -> alpha/(beta*z + gamma) from x/y, ending before the first infinite one.

    They come with its index (a zero denominator, or a 0/0 seed), or None; `coefficients` is (alpha, beta, gamma).
    """
    pairs = islice(_steps(*_ints(*coefficients), *_ints(x, y)), count)
    values = [_from_coprime(a, b) for a, b, _, _ in takewhile(itemgetter(1), pairs)]
    return values, (len(values) if len(values) < count else None)


def ratios(A, B, a, b) -> Iterator[Fraction | None]:
    """u(k+1)/u(k) for k = 0, 1, 2, ..., None where u(k) = 0: the pairs (u(k), u(k+1)) of z -> 1/(B*z + A) from a/b."""
    return (_from_coprime(y, x) if x else None for x, y, _, _ in _steps(*_ints(1, B, A), *_ints(a, b)))


def terms(A, B, a, b, lo: int, hi: int) -> list[Fraction]:
    """u(lo) .. u(hi) inclusive, at indices of either sign: one run of `_steps` from `_start`.

    Each term x/c it reads is reduced by `_coprime` against E*Q.
    """
    if hi < lo:
        return []
    start, m = _start(A, B, a, b, lo)
    return [_from_coprime(*_coprime(x, c, m)) for x, _, c, _ in islice(_steps(*start), hi - lo + 1)]


def horadam_term(params: RecurrenceParams, n: int) -> Fraction:
    """Exact n-th term, at n of either sign: the window of one term."""
    return terms(*params.plus_form(), params.w0, params.w1, n, n)[0]


fast_term = horadam_term  # the older name; horadam_term already reaches n in |n|.bit_length() - 1 squarings


def window(params: RecurrenceParams, start: int, length: int) -> SequenceWindow:
    """Terms w(start) .. w(start + length - 1)."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    values = terms(*params.plus_form(), params.w0, params.w1, start, start + length - 1)
    return SequenceWindow(start, tuple(values))


def fundamental_lucas(A: Fraction | int | str, B: Fraction | int | str, n: int) -> Fraction:
    """Term of u(n+2) = A*u(n+1) + B*u(n) with u(0) = 0, u(1) = 1, extended to negative n by inversion."""
    return lucas_window(A, B, n, n)[0]


def lucas_window(A: Fraction | int | str, B: Fraction | int | str, lo: int, hi: int) -> list[Fraction]:
    """Values u(lo) .. u(hi) of the "+" form recurrence, inclusive."""
    if lo > hi:
        raise ValueError("empty window")
    A, B = as_rational(A), as_rational(B)
    if B == 0:
        raise DomainError("B = 0 gives a degenerate recurrence")
    return terms(A, B, Fraction(0), Fraction(1), lo, hi)


def negative_symmetry_check(params: RecurrenceParams, n_max: int) -> tuple[int, ...]:
    """Indices 1 <= n <= n_max where w(-n) != (-1)**(n+1) * w(n).

    The mirror relation holds for Fibonacci-like instances where the backward
    division is by +-1; the returned tuple is empty exactly when it holds
    throughout the probed range.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    values = terms(*params.plus_form(), params.w0, params.w1, -n_max, n_max)
    backward, forward = values[n_max::-1], values[n_max:]  # backward[n] = w(-n), forward[n] = w(n)
    return tuple(
        n for n in range(1, n_max + 1) if backward[n] != (forward[n] if n % 2 else -forward[n])
    )
