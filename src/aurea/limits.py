"""Ratio dynamics of two-term recurrences: Cauchy certificates, limit targets,
and continued-fraction convergents.

A recurrence f(n+2) = ±r*f(n+1) + s*f(n) induces the ratio map
g -> 1/(±r + s*g) on g(n) = f(n)/f(n+1), which is the Riccati map with
p = r/s and q = 1/s.  Increasing-index ratios f(n+1)/f(n) approach the
dominant root of x**2 = ±r*x + s; decreasing-index ratios approach the
conjugate root (1 - φ in the Fibonacci case), not the sign-flipped dominant
root that is sometimes quoted, so backward estimates carry both values.

The odd form is the standard form with alternating signs, f(n) = (-1)**n*h(n)
with h standard, so its ratios and their limits are the standard ones negated;
`RatioParams.sign` applies that at the boundary.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import log, log1p

from .exact import (
    BACKWARD,
    FORWARD,
    GOLDEN_RATIO,
    ODD,
    STANDARD,
    DomainError,
    QuadraticSurd,
    _cut,
    _Record,
    as_rational,
    quadratic_roots,
)
from .horadam import terms
from .riccati import MINUS, PLUS, OrbitReport, RiccatiParams, closed_form_term, iterate_orbit

__all__ = [
    "BACKWARD",
    "FORWARD",
    "ODD",
    "STANDARD",
    "ConvergenceCertificate",
    "LimitEstimate",
    "NestingReport",
    "RatioParams",
    "certificate",
    "cf_convergent",
    "closed_form_ratio",
    "difference_identity_check",
    "dominant_root",
    "limit_estimate",
    "nesting_check",
    "ratio_orbit",
]

# bits of the largest power certificate() computes; a search near it takes under a second
_CERTIFICATE_BITS = 1 << 22


class RatioParams(_Record):
    """Positive coefficients of f(n+2) = ±r*f(n+1) + s*f(n); parity picks the sign."""

    r: Fraction
    s: Fraction
    parity: str

    def __init__(self, r, s, parity=STANDARD) -> None:
        r, s = as_rational(r), as_rational(s)
        if r <= 0 or s <= 0:
            raise DomainError(f"r and s must be positive, got r={r}, s={s}")
        if parity not in (STANDARD, ODD):
            raise DomainError(f"parity must be {STANDARD!r} or {ODD!r}, got {parity!r}")
        # sign: +1 standard, -1 odd, so f(n+2) = sign*r*f(n+1) + s*f(n)
        self.__dict__.update(r=r, s=s, parity=parity, sign=1 if parity == STANDARD else -1)

    def riccati(self) -> RiccatiParams:
        """The induced ratio map as a Riccati instance (p = r/s, q = 1/s)."""
        return RiccatiParams(self.r / self.s, 1 / self.s, PLUS if self.sign > 0 else MINUS)

    def middle_coefficient(self) -> Fraction:
        return self.sign * self.r

    def plus_form(self) -> tuple[Fraction, Fraction]:
        """(A, B) = (±r, s) of the "+" form u(k+2) = A*u(k+1) + B*u(k)."""
        return self.middle_coefficient(), self.s


def ratio_orbit(params: RatioParams, g0: Fraction | int | str, n: int) -> OrbitReport:
    """Exact orbit of g -> 1/(±r + s*g); poles are reported via the orbit status."""
    return iterate_orbit(params.riccati(), g0, n)


def closed_form_ratio(g0: Fraction | int | str, n: int) -> Fraction:
    """(F(n) + F(n-1)*g0) / (F(n+1) + F(n)*g0): the golden map's orbit without iteration."""
    return closed_form_term(RiccatiParams(1, 1, PLUS), g0, n)


class ConvergenceCertificate(_Record):
    """Exact Cauchy certificate for the golden ratio map g -> 1/(1 + g).

    For a seed pair with f0 >= 0 and fk > 0 the certificate guarantees
    |g(m) - g(n)| < tail_bound(n) for all m > n >= 2, where
    tail_bound(n) = c/(1 + M)**(n - 2); N is the least index from which the
    tail bound stays below epsilon.
    """

    M: Fraction
    c: Fraction
    epsilon: Fraction
    N: int

    def tail_bound(self, n: int) -> Fraction:
        if n < 2:
            raise ValueError("the tail bound starts at index 2")
        return self.c / (1 + self.M) ** (n - 2)


def certificate(
    f0: Fraction | int | str,
    fk: Fraction | int | str,
    epsilon: Fraction | int | str,
) -> ConvergenceCertificate:
    """Build the certificate for the ratio orbit seeded by g0 = f0/fk.

    M = fk/(fk + f0) is the orbit's positive floor after one step and
    c = |f0*f0 + f0*fk - fk*fk| / ((2*fk + f0)*(fk + f0)) equals |g2 - g1|
    exactly; both are computed in exact rationals.  N is first estimated as
    2 + (log c - log epsilon)/log(1 + M), then moved to the least index whose
    tail bound is below epsilon by the exact integer test
    c_num*eps_den*v**(N-2) < eps_num*c_den*u**(N-2), where 1 + M = u/v; that
    costs O(log N) big-number multiplications per test, not a scan of N steps.
    A search whose powers would pass 2**22 bits raises DomainError.
    """
    f0, fk, epsilon = as_rational(f0), as_rational(fk), as_rational(epsilon)
    if not (f0 >= 0 and fk > 0):
        raise DomainError("certificate requires f0 >= 0 and fk > 0")
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    M = fk / (fk + f0)
    c = abs(f0 * f0 + f0 * fk - fk * fk) / ((2 * fk + f0) * (fk + f0))
    u, v = (1 + M).numerator, (1 + M).denominator
    lhs, rhs = c.numerator * epsilon.denominator, epsilon.numerator * c.denominator

    def below(n: int) -> bool:
        return lhs * v ** (n - 2) < rhs * u ** (n - 2)

    # logs of the ints, since a Fraction this small or large under/overflows a float
    excess, rate = log(lhs) - log(rhs), log1p(M)
    if rate == 0 or excess * u.bit_length() > rate * _CERTIFICATE_BITS:
        raise DomainError("certificate index N is past the exact search budget")
    N = max(2, 3 + int(excess / rate))
    while not below(N):
        N += 1
    while N > 2 and below(N - 1):
        N -= 1
    return ConvergenceCertificate(M, c, epsilon, N)


def difference_identity_check(orbit: Sequence[Fraction]) -> tuple[bool, ...]:
    """Exact check of g(n+1) - g(n) = -(g(n) - g(n-1)) / ((1+g(n))(1+g(n-1))) at interior indices."""
    results = []
    for i in range(1, len(orbit) - 1):
        lhs = orbit[i + 1] - orbit[i]
        rhs = -(orbit[i] - orbit[i - 1]) / ((1 + orbit[i]) * (1 + orbit[i - 1]))
        results.append(lhs == rhs)
    return tuple(results)


def dominant_root(r: Fraction | int | str, s: Fraction | int | str) -> QuadraticSurd:
    """Positive root (r + sqrt(r*r + 4*s))/2 of x**2 = r*x + s."""
    r, s = as_rational(r), as_rational(s)
    if r <= 0 or s <= 0:
        raise DomainError("r and s must be positive")
    return quadratic_roots(r, s)[0]


class LimitEstimate(_Record):
    """Final consecutive-term ratio of a recurrence run, next to its exact limit.

    `target` is the root the ratios provably approach.  For the backward
    direction `claimed` carries the sign-flipped dominant root often quoted
    for decreasing arguments; it is attached for comparison, never asserted.
    """

    params: RatioParams
    direction: str
    steps: int
    ratio: Fraction
    target: QuadraticSurd
    claimed: QuadraticSurd | None = None


def limit_estimate(
    params: RatioParams,
    seed: tuple[Fraction | int | str, Fraction | int | str],
    direction: str,
    n: int,
) -> LimitEstimate:
    """Iterate the two-term recurrence n steps and report the last ratio f(j+1)/f(j).

    Forward runs extend the recurrence upward, backward runs invert it
    downward; either way the reported ratio is taken at the final index pair.
    """
    if direction not in (FORWARD, BACKWARD):
        raise DomainError(f"direction must be {FORWARD!r} or {BACKWARD!r}, got {direction!r}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    steps = n if direction == FORWARD else -n
    a, b = terms(*params.plus_form(), as_rational(seed[0]), as_rational(seed[1]), steps, steps + 1)
    if a == 0:
        raise DomainError(f"ratio undefined: the term at the final index vanished after {n} steps")
    ratio = b / a
    rho, conjugate = quadratic_roots(params.r, params.s)
    sign = params.sign  # odd-form ratios are the standard ones negated
    if direction == FORWARD:
        return LimitEstimate(params, direction, n, ratio, sign * rho)
    return LimitEstimate(params, direction, n, ratio, sign * conjugate, -sign * rho)


def cf_convergent(m: int) -> Fraction:
    """m-term truncation of the all-ones continued fraction [0; 1, 1, ..., 1].

    Folding it bottom-up gives F(m)/F(m+1), read here off the Fibonacci pair.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    return Fraction(*terms(1, 1, 0, 1, m, m + 1))


class NestingReport(_Record):
    """Outcome of checking the canonical orbit against Fibonacci convergents."""

    n_max: int
    convergent_failures: tuple[int, ...]
    ordering_failures: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.convergent_failures and not self.ordering_failures


def nesting_check(n_max: int) -> NestingReport:
    """For the canonical orbit g0 = 0: g(n) = F(n)/F(n+1) exactly, straddling
    the limit with alternating order (even n below φ - 1, odd n above)."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    convergent_failures = []
    ordering_failures = []
    fib = [f.numerator for f in terms(1, 1, 0, 1, 0, n_max + 1)]
    # F(n)/F(n+1) is further than 1/(3*F(n+1)**2) from φ - 1, so a bracket of
    # width 2**-bits below 1/(256*F(n_max+1)**2) decides every side by one product
    above_limit = _cut(GOLDEN_RATIO - 1, 2 * fib[-1].bit_length() + 8)
    orbit = ratio_orbit(RatioParams(1, 1), 0, n_max).trajectory
    for n, g in enumerate(orbit):
        if g.numerator * fib[n + 1] != g.denominator * fib[n]:  # g == F(n)/F(n+1), cross-multiplied
            convergent_failures.append(n)
        if (above_limit(g) < 0) != (n % 2 == 0):  # g never equals the irrational limit
            ordering_failures.append(n)
    return NestingReport(n_max, tuple(convergent_failures), tuple(ordering_failures))
