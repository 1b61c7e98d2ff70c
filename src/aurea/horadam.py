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

One int stepper, `_steps`, serves windows and quotient streams alike.  It
steps an int vector (x, y, c) by (x, y) -> (alpha*y, beta*x + gamma*y) and
c -> c*D, and divides each image by its content, which divides the small
-alpha*beta, the det of [[0, alpha], [beta, gamma]], so every step takes one
gcd with that small int as an operand.  The start's content, gcd(c, x, y), is
the one gcd that may have only big operands, as at a window far out.  Its
one loop reads each value off the vector and writes the reduced Fraction's
slots itself, so a value costs its step and its reduction and no Python
call.  A window, one term included, runs `_start`'s (1, Q, P) on c = E*D**lo,
or E*(-Q/D)**(-lo) for lo < 0, with u(k) = x/c and u(k+1) = y/(c*D); the
common factor of a term x/c divides a power of E*Q, so gcds against E*Q
strip it.  As every vector is content-free, the ints at an index are the
same up to sign from any start.  A quotient stream runs on c = 0, the pairs
(u(k), u(k+1)) as coprime ints, stepped by the recurrence's (1, B, A) and
seed cleared to ints once: `_orbit` reads u(k)/u(k+1), ending before the
first zero u(k+1) and reporting its index, and `ratios` reads u(k+1)/u(k),
CHUNK pairs per resumption up to the count its reader needs.  Every orbit in
the library is such a stream: x(n) = t(n)/t(n+1) makes a Riccati orbit the
quotients of the map's linearisation.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from operator import itemgetter

from .exact import DomainError, _Record, as_rational

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
    u(k+1) = y/(c*D) at every vector (x, y, c) it steps.  The pair is reached from
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


def _steps(alpha, beta, gamma, x, y, c, D, m, *, sizes, upside_down=False) -> Iterator[tuple[list, tuple]]:
    """(values, (x, y, c)) for each size in `sizes`: that many more values read off the vector, and the last one read.

    Value k is read off (x, y, c) after k steps (x, y, c) -> (alpha*y, beta*x + gamma*y, c*D), the start
    taken over gcd(c, x, y).  M = [[0, alpha], [beta, gamma]] steps (x, y); det M = -alpha*beta is nonzero,
    and D divides it unless c = 0.  A step's content g divides det M: a prime power in g divides
    det*(x, y), the adjugate of M times the image, so it divides det unless its prime divides both x and
    y; then the prime does not divide c, so the power divides D.  One gcd against |det| keeps every
    vector content-free.  With c != 0 the value is the term x/c, whose common factor divides a power of
    m: a factor t is stripped as its largest power t**(2**j) dividing both, so the rounds of gcds against
    m stay logarithmic in its size.  With c = 0, where D and m are 1 and unread, it is the point x/y of
    z -> alpha/(beta*z + gamma), a chunk ending before the first infinite one, or, `upside_down`, y/x,
    None where x = 0.
    """
    g = gcd(c, x, y)
    if g > 1:
        x, y, c = x // g, y // g, c // g
    det, read, new = abs(alpha * beta), 0, object.__new__
    for size in sizes:
        values = []
        for i in range(read, read + size):
            if i:
                x, y, c = alpha * y, beta * x + gamma * y, c * D
                g = gcd(det, x, y, c)
                if g > 1:
                    x, y, c = x // g, y // g, c // g
            if c:
                n, d = x, c
                if n:
                    t = gcd(m, n, d)
                    while t > 1:
                        s = t * t
                        while not (n % s or d % s):
                            t, s = s, s * s
                        n, d = n // t, d // t
                        t = gcd(m, n, d)
                else:
                    d = 1
            elif upside_down:
                if not x:
                    values.append(None)
                    continue
                n, d = y, x
            else:
                if not y:
                    break
                n, d = x, y
            if d < 0:
                n, d = -n, -d
            value = new(Fraction)
            value._numerator = n
            value._denominator = d
            values.append(value)
        yield values, (x, y, c)
        read += size


def _ints(*values) -> list[int]:
    """Rationals times the lcm of their denominators: ints in the same ratios."""
    D = lcm(*(value.denominator for value in values))
    return [value.numerator * (D // value.denominator) for value in values]


def _orbit(A, B, a, b, count: int) -> tuple[list[Fraction], int | None]:
    """u(k)/u(k+1) of u(k+2) = A*u(k+1) + B*u(k) from (a, b) for k < count, ending before the first zero u(k+1).

    They come with that k, 0 also for a = b = 0, or None.
    """
    (values, _), = _steps(*_ints(1, B, A), *_ints(a, b), 0, 1, 1, sizes=(count,))
    return values, (len(values) if len(values) < count else None)


CHUNK = 64  # values a ratio stream steps per resumption of `_steps`


def ratios(A, B, a, b, count: int) -> Iterator[Fraction | None]:
    """u(k+1)/u(k) for k = 0 .. count - 1, None where u(k) = 0: `_orbit`'s pairs read upside down.

    They are stepped CHUNK at a time, the last chunk trimmed to the count, so a reader that stops early
    has had fewer than CHUNK more stepped and none past the count.
    """
    sizes = chain(repeat(CHUNK, count // CHUNK), (count % CHUNK,))
    chunks = _steps(*_ints(1, B, A), *_ints(a, b), 0, 1, 1, sizes=sizes, upside_down=True)
    return chain.from_iterable(map(itemgetter(0), chunks))


def terms(A, B, a, b, lo: int, hi: int) -> list[Fraction]:
    """u(lo) .. u(hi) inclusive, at indices of either sign: one chunk of `_steps` from `_start`."""
    if hi < lo:
        return []
    start, m = _start(A, B, a, b, lo)
    (values, _), = _steps(*start, m, sizes=(hi - lo + 1,))
    return values


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
