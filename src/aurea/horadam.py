"""Two-term linear recurrences over exact rationals, all in one "+" form.

Every stepping question in the library is a run of

    u(k+2) = A*u(k+1) + B*u(k),    B != 0,

walked by `walk` (to one index, backward when the index is negative) and
`terms` (a contiguous window).  Each parameter type lowers to (A, B) in
exactly one place, its `plus_form` method:

    RecurrenceParams  w(n+2) = p*w(n+1) - q*w(n)               ->  (p, -q)
    RatioParams       f(n+2) = ±r*f(n+1) + s*f(n)              ->  (±r, s)
    RiccatiParams     x -> q/(±p + x), its Lucas closed forms  ->  (p, q)

`fundamental_lucas` and `lucas_window` take (A, B) directly, so no silent
sign flip can creep in between the canonical Horadam form and the closed
forms.  The linearising substitution x(n) = t(n)/t(n+1) runs the same kernel
on (p/q, 1/q).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import DomainError, as_rational

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


@dataclass(frozen=True)
class RecurrenceParams:
    """Seeds and coefficients of w(n+2) = p*w(n+1) - q*w(n); q != 0 keeps it invertible."""

    w0: Fraction
    w1: Fraction
    p: Fraction
    q: Fraction

    def __post_init__(self) -> None:
        for name in ("w0", "w1", "p", "q"):
            object.__setattr__(self, name, as_rational(getattr(self, name)))
        if self.q == 0:
            raise DomainError("q = 0 makes the recurrence non-invertible")

    def plus_form(self) -> tuple[Fraction, Fraction]:
        """(A, B) = (p, -q) of the "+" form u(k+2) = A*u(k+1) + B*u(k)."""
        return self.p, -self.q


FIBONACCI = RecurrenceParams(0, 1, 1, -1)


@dataclass(frozen=True)
class SequenceWindow:
    """Contiguous run of terms; start may be negative."""

    start: int
    values: tuple[Fraction, ...]


def walk(A, B, a, b, n: int) -> tuple:
    """(u(n), u(n+1)) of u(k+2) = A*u(k+1) + B*u(k) from (u(0), u(1)) = (a, b).

    Negative n steps backward with u(k) = (u(k+2) - A*u(k+1)) / B.
    """
    if n >= 0:
        for _ in range(n):
            a, b = b, A * b + B * a
    else:
        for _ in range(-n):
            a, b = (b - A * a) / B, a
    return a, b


def terms(A, B, a, b, lo: int, hi: int) -> list:
    """u(lo) .. u(hi) inclusive of the same recurrence.

    Terms below index 0 are the ones met on the walk down from (u(0), u(1));
    the rest come from one walk up to max(lo, 0) and forward steps, so no term
    is stepped twice.
    """
    if hi < lo:
        return []
    below = []  # u(-1), u(-2), .., u(lo)
    x, y = a, b
    for _ in range(-lo):
        x, y = walk(A, B, x, y, -1)
        below.append(x)
    values = below[::-1][: hi - lo + 1]
    if hi >= 0:
        start = max(lo, 0)
        a, b = walk(A, B, a, b, start)
        values.append(a)
        for _ in range(hi - start):
            a, b = b, A * b + B * a
            values.append(a)
    return values


def horadam_term(params: RecurrenceParams, n: int) -> Fraction:
    """Exact n-th term; negative indices use the inverted recurrence w(n) = (p*w(n+1) - w(n+2))/q."""
    return walk(*params.plus_form(), params.w0, params.w1, n)[0]


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


def _mat_mul(x: tuple, y: tuple) -> tuple:
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def fast_term(params: RecurrenceParams, n: int) -> Fraction:
    """Same value as horadam_term in O(log|n|) big-number steps via companion-matrix powering."""
    if n == 0:
        return params.w0
    A, B = params.plus_form()
    one, zero = Fraction(1), Fraction(0)
    if n > 0:
        base = (A, B, one, zero)
    else:
        # inverse of [[A, B], [1, 0]] (determinant -B)
        base = (zero, one, 1 / B, -A / B)
    result = (one, zero, zero, one)
    k = abs(n)
    while k:
        if k & 1:
            result = _mat_mul(result, base)
        base = _mat_mul(base, base)
        k >>= 1
    # [w(n+1), w(n)]^T = M^n [w1, w0]^T
    return result[2] * params.w1 + result[3] * params.w0


def negative_symmetry_check(params: RecurrenceParams, n_max: int) -> tuple[int, ...]:
    """Indices 1 <= n <= n_max where w(-n) != (-1)**(n+1) * w(n).

    The mirror relation holds for Fibonacci-like instances where the backward
    division is by +-1; the returned tuple is empty exactly when it holds
    throughout the probed range.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    A, B = params.plus_form()
    forward = terms(A, B, params.w0, params.w1, 0, n_max)
    backward = terms(A, B, params.w0, params.w1, -n_max, 0)[::-1]  # backward[n] = w(-n)
    return tuple(
        n for n in range(1, n_max + 1) if backward[n] != (forward[n] if n % 2 else -forward[n])
    )
