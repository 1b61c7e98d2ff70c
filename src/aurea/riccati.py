"""Orbits, closed forms, forbidden sets and fixed points of x(n+1) = q/(±p + x(n)).

The substitution x(n) = t(n)/t(n+1) turns the map into the linear recurrence
t(n+1) = (p/q)*t(n) + (1/q)*t(n-1), which is what makes an exact closed form
in terms of fundamental Lucas numbers possible.  `substitution_check` replays
that derivation and decides its identities for every step from a few terms.
The closed form reads one sequence s(k) = u(k+1) + u(k)*sign*x0, u the
fundamental Lucas sequence of the "+" form (p, q): the value
x(k) = sign*q*s(k-1)/s(k), refused at the first zero of s, and the forbidden
set, the values -sign*u(m+1)/u(m).

An initial value's fate is decided by its orbit alone: `iterate_orbit` is the
one stepper, and `classify_initial` reads its classification, so x0 is
forbidden at depth m exactly when the orbit meets the pole at step m.

The map's matrix (q, 1, sign*p) is written once, in `iterate_orbit`, which
reads the orbit and the step where it meets its pole off `horadam._orbit` of
z -> alpha/(beta*z + gamma).  The closed form and `substitution_check` read
that one orbit: s(k-1)/s(k) steps by z -> 1/(q*z + p), and x = sign*q*z
turns that step into the map's own, so the closed form's values are the
orbit's and its refusal depth is the orbit's pole step.  `substitution_check`
reads its t window from `horadam.terms`, so the kernel's clearing scale stays
inside `horadam`.  No step runs a gcd of two big ints.

The minus branch is the plus branch conjugated by x -> -x, as -q/(x - p) =
q/(p + (-x)); `RiccatiParams.sign` applies that negation at the boundary.
The paper's closed forms for both branches are kept as test oracles.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

from .exact import MINUS, PLUS, DomainError, QuadraticSurd, _Record, as_rational, quadratic_roots
from .horadam import _orbit, ratios, terms

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
    trajectory, pole_step = _orbit((params.q, 1, params._shift), x0, 1, n + 1)
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
    """Orbit values x0 .. xn of the closed form x(k) = sign*q*s(k-1)/s(k), which are `iterate_orbit`'s.

    s(k) = 0 exactly when x(k-1) is the pole, so the first depth k <= n where
    the orbit meets the pole is refused.
    """
    orbit = iterate_orbit(params, x0, n)
    if orbit.pole_step is not None:
        raise DomainError(f"initial value {orbit.trajectory[0]} is forbidden at depth {orbit.pole_step}")
    return list(orbit.trajectory)


def closed_form_term(params: RiccatiParams, x0: Fraction | int | str, n: int) -> Fraction:
    """The n-th orbit value of the closed form, refused as `closed_form_trajectory` refuses."""
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
    A, B = params.plus_form()
    u_ratios = list(islice(ratios(A, B, 1, A), depth))  # u(m+1)/u(m) from m = 1, all positive
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
    """Audit of the linearising substitution x(n) = t(n)/t(n+1), each identity decided for every step."""

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
    """Build the linear t-sequence, form x(k) = t(k)/t(k+1), and decide both identities for every k.

    The window t(0) .. t(n+1) is `terms` of (p/q, 1/q) from (t0, t1), and the
    map's orbit of x0 = t0/t1 is `iterate_orbit`'s; the window's pole is at
    the first k <= n with t(k+1) = 0.  Each identity holds at every k or at
    none (the closure of C-finite sequences):

    - q**k*t(k) - t0*u(k+1) - (q*t1 - p*t0)*u(k) runs u's recurrence
      u(k+2) = p*u(k+1) + q*u(k), so it vanishes at every k when it does at
      k = 0 and 1, which read t(0), t(1) and u(0), u(1), u(2) = 0, 1, p.
      `closed_form_matches` repeats that one decision.
    - t(k)/t(k+1) and the orbit are orbits of one Möbius map from one point,
      so `ratio_values` is the orbit before the window's pole, each value
      matching.  One False is appended when the window and the orbit meet
      the pole at different steps.
    """
    if params.branch != PLUS:
        raise DomainError("the substitution derivation applies to the plus branch")
    if n < 0:
        raise ValueError("n must be nonnegative")
    t0, t1 = as_rational(t0), as_rational(t1)
    if t1 == 0:
        raise DomainError("t1 = 0 leaves x0 = t0/t1 undefined")

    p, q = params.plus_form()
    t = terms(p / q, 1 / q, t0, t1, 0, n + 1)
    orbit = iterate_orbit(params, t0 / t1, n)
    pole_step = next((k for k in range(n + 1) if not t[k + 1]), None)
    ratio_values = orbit.trajectory[:pole_step]
    orbit_matches = (True,) * len(ratio_values) + ((False,) if pole_step != orbit.pole_step else ())
    u, shift = (0, 1, p), q * t1 - p * t0
    holds = all(q**k * t[k] == t0 * u[k + 1] + shift * u[k] for k in (0, 1))
    return SubstitutionReport(tuple(t), ratio_values, orbit_matches, (holds,) * (n + 2), pole_step)
