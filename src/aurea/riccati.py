"""Orbits, closed forms, forbidden sets and fixed points of x(n+1) = q/(±p + x(n)).

The substitution x(n) = t(n)/t(n+1) turns the map into the linear recurrence
t(n+1) = (p/q)*t(n) + (1/q)*t(n-1), which is what makes an exact closed form
in terms of fundamental Lucas numbers possible.  `substitution_check` replays
that derivation step by step as a verifiable identity.  The closed form reads
one sequence s(k) = u(k+1) + u(k)*sign*x0, u the fundamental Lucas sequence of
the "+" form (p, q): the value x(k) = sign*q*s(k-1)/s(k), refused at the first
zero of s, and the forbidden set, the values -sign*u(m+1)/u(m).

An initial value's fate is decided by its orbit alone: `iterate_orbit` is the
one stepper, and `classify_initial` reads its classification, so x0 is
forbidden at depth m exactly when the orbit meets the pole at step m.

Each orbit here, and the step where it meets its pole, is read off
`horadam._orbit` from a matrix: the map's own (0, q, 1, sign*p), the closed
form's (0, 1, q, p) for s(k-1)/s(k), and the t-recurrence's (0, 1, 1/q, p/q).
No step runs a gcd of two big ints.

The minus branch is the plus branch conjugated by x -> -x, as -q/(x - p) =
q/(p + (-x)); `RiccatiParams.sign` applies that negation at the boundary.
The paper's closed forms for both branches are kept as test oracles.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

from .exact import MINUS, PLUS, DomainError, QuadraticSurd, _Record, as_rational, quadratic_roots
from .horadam import _orbit, lucas_window, ratios, terms

__all__ = [
    "MINUS",
    "PLUS",
    "Classification",
    "OrbitReport",
    "RiccatiParams",
    "SubstitutionReport",
    "classify_initial",
    "closed_form_term",
    "closed_form_trajectory",
    "fixed_points",
    "forbidden_set",
    "iterate_orbit",
    "substitution_check",
]


class RiccatiParams(_Record):
    """Positive coefficients and branch sign of the map x -> q/(±p + x)."""

    p: Fraction
    q: Fraction
    branch: str

    def __init__(self, p, q, branch=PLUS) -> None:
        p, q = as_rational(p), as_rational(q)
        if p <= 0 or q <= 0:
            raise DomainError(f"p and q must be positive, got p={p}, q={q}")
        if branch not in (PLUS, MINUS):
            raise DomainError(f"branch must be {PLUS!r} or {MINUS!r}, got {branch!r}")
        sign = 1 if branch == PLUS else -1  # +1 plus, -1 minus: x -> q/(x + sign*p)
        # _shift = sign*p, computed once for the pole, apply and the orbit
        self.__dict__.update(p=p, q=q, branch=branch, sign=sign, _shift=sign * p)

    def plus_form(self) -> tuple[Fraction, Fraction]:
        """(A, B) = (p, q) of the "+" form u(k+2) = A*u(k+1) + B*u(k) behind the closed forms."""
        return self.p, self.q

    def pole(self) -> Fraction:
        """The unique input with a vanishing denominator (also the depth-1 forbidden value)."""
        return -self._shift

    def denominator_at(self, x):
        return x + self._shift

    def apply(self, x):
        """One map step; works for rationals and quadratic surds alike."""
        den = self.denominator_at(x)
        if den == 0:
            raise DomainError(f"map undefined at the pole {self.pole()}")
        return self.q / den


class Classification(_Record):
    """Status of an initial value: regular, fixed_point, or forbidden at a finite depth."""

    kind: str
    depth: int | None = None

    def label(self) -> str:
        if self.kind == "forbidden":
            return f"forbidden_depth({self.depth})"
        return self.kind


REGULAR = Classification("regular")
FIXED_POINT = Classification("fixed_point")


class OrbitReport(_Record):
    trajectory: tuple[Fraction, ...]
    pole_step: int | None
    classification: Classification

    @property
    def completed(self) -> bool:
        return self.pole_step is None

    def status(self) -> str:
        if self.pole_step is None:
            return "completed"
        return f"pole_at_step({self.pole_step})"


def iterate_orbit(params: RiccatiParams, x0: Fraction | int | str, n: int) -> OrbitReport:
    """Exact trajectory x0 .. xn; hitting the pole is a reported status, not a failure."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    x0 = as_rational(x0)
    trajectory, pole_step = _orbit((0, params.q, 1, params._shift), x0, 1, n + 1)
    if pole_step is not None:
        classification = Classification("forbidden", pole_step)
    elif params.denominator_at(x0) == 0:
        classification = Classification("forbidden", 1)  # n == 0 at the pole itself
    elif params.apply(x0) == x0:
        classification = FIXED_POINT
    else:
        classification = REGULAR
    return OrbitReport(tuple(trajectory), pole_step, classification)


def closed_form_trajectory(params: RiccatiParams, x0: Fraction | int | str, n: int) -> list[Fraction]:
    """Orbit values x0 .. xn from the closed form x(k) = sign*q*s(k-1)/s(k).

    x0 is forbidden at depth k exactly when s(k) = 0; the first such k <= n is refused.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    x0 = as_rational(x0)
    # g -> 1/(p + q*g) takes s(k-1)/s(k) to s(k)/s(k+1), infinite where s(k+1) = 0
    s_ratios, stop = _orbit((0, 1, params.q, params.p), 1, params.p + params.sign * x0, n)
    if stop is not None:
        raise DomainError(f"initial value {x0} is forbidden at depth {stop + 1}")
    q = params.sign * params.q
    return [x0] + [q * ratio for ratio in s_ratios]


def closed_form_term(params: RiccatiParams, x0: Fraction | int | str, n: int) -> Fraction:
    """The n-th orbit value from the closed form alone (no iteration of the map)."""
    return closed_form_trajectory(params, x0, n)[n]


def fixed_points(params: RiccatiParams) -> tuple[QuadraticSurd, QuadraticSurd]:
    """Both exact fixed points, larger first; rational-valued when the discriminant is a square.

    They solve x**2 + sign*p*x - q = 0, so the minus branch's pair (-b, -a)
    negates the plus branch's (a, b).
    """
    return quadratic_roots(-params.sign * params.p, params.q)


def forbidden_set(params: RiccatiParams, depth: int) -> list[Fraction]:
    """Backward orbit of the pole: the initial values whose trajectory dies within `depth` steps.

    element(m) = -sign*u(m+1)/u(m), the x0 with s(m) = 0; element(1) is the
    pole, and element(m+1) = q/element(m) + pole is the preimage C03 checks.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    u_ratios = list(islice(ratios(params.p, params.q, 1, params.p), depth))  # u(m+1)/u(m) from m = 1, all positive
    return [-ratio for ratio in u_ratios] if params.branch == PLUS else u_ratios


def classify_initial(
    params: RiccatiParams,
    x0: Fraction | int | str | QuadraticSurd,
    depth: int,
) -> Classification:
    """fixed_point, forbidden_depth(m) with m <= depth, or regular up to the probed depth.

    A rational x0 is classified by its orbit to `depth`.  Membership in the
    forbidden set is only semi-decided, so "regular" is relative to `depth`.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if isinstance(x0, QuadraticSurd):
        if not x0.is_rational:  # the forbidden set is rational, irrational values never meet it
            return FIXED_POINT if params.apply(x0) == x0 else REGULAR
        x0 = x0.as_fraction()
    return iterate_orbit(params, x0, depth).classification


class SubstitutionReport(_Record):
    """Step-by-step audit of the linearising substitution x(n) = t(n)/t(n+1)."""

    t_values: tuple[Fraction, ...]
    ratio_values: tuple[Fraction, ...]
    orbit_matches: tuple[bool, ...]
    closed_form_matches: tuple[bool, ...]
    pole_step: int | None

    status = OrbitReport.status  # one formatter for every run that may meet the pole

    @property
    def passed(self) -> bool:
        return all(self.orbit_matches) and all(self.closed_form_matches)


def substitution_check(
    params: RiccatiParams,
    t0: Fraction | int | str,
    t1: Fraction | int | str,
    n: int,
) -> SubstitutionReport:
    """Build the linear t-sequence, form x(k) = t(k)/t(k+1), and verify both identities.

    Per step this checks x(k) against the iterated orbit of x0 = t0/t1 and
    t(k) against its scaled-Lucas closed form (t0*u(k+1) + (q*t1 - p*t0)*u(k)) / q**k.
    A vanishing t(k+1) maps to the orbit's pole at step k.

    The orbit check compares two orbits of x0, the t-recurrence's ratio map
    z -> 1/(p/q + z/q) and the Riccati map, and never reads `t_values`: a
    wrong t(k) leaves `orbit_matches` all True and `ratio_values` those of
    the true sequence, and only `closed_form_matches` fails at k.
    """
    if params.branch != PLUS:
        raise DomainError("the substitution derivation applies to the plus branch")
    if n < 0:
        raise ValueError("n must be nonnegative")
    t0, t1 = as_rational(t0), as_rational(t1)
    if t1 == 0:
        raise DomainError("t1 = 0 leaves x0 = t0/t1 undefined")

    A, B = params.p / params.q, 1 / params.q
    t_values = terms(A, B, t0, t1, 0, n + 1)

    # t(k)*q**k == t0*u(k+1) + c*u(k), decided on ints: the right side is
    # num/den unreduced, and q**k is carried as its parts qn**k and qd**k
    u = lucas_window(*params.plus_form(), 0, n + 2)
    c = params.q * t1 - params.p * t0
    a_num, a_den, c_num, c_den = t0.numerator, t0.denominator, c.numerator, c.denominator
    qn, qd = params.q.numerator, params.q.denominator
    qn_k = qd_k = 1
    closed_form_matches = []
    for t, u0, u1 in zip(t_values, u, u[1:]):
        num = a_num * c_den * u1.numerator * u0.denominator + c_num * a_den * u0.numerator * u1.denominator
        den = a_den * c_den * u0.denominator * u1.denominator
        closed_form_matches.append(t.numerator * qn_k * den == t.denominator * qd_k * num)
        qn_k *= qn
        qd_k *= qd

    orbit = iterate_orbit(params, t0 / t1, n)
    ratio_values, pole_step = _orbit((0, 1, B, A), t0, t1, n + 1)  # t(k)/t(k+1); t(k+1) = 0 is the pole at step k
    orbit_matches = [
        k < len(orbit.trajectory) and value == orbit.trajectory[k] for k, value in enumerate(ratio_values)
    ]
    if pole_step != orbit.pole_step:
        # the two pole accounts must agree; disagreement is a failed check
        orbit_matches.append(False)
    return SubstitutionReport(
        tuple(t_values),
        tuple(ratio_values),
        tuple(orbit_matches),
        tuple(closed_form_matches),
        pole_step,
    )
