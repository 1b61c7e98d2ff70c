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
`horadam._orbit` of z -> alpha/(beta*z + gamma) from (alpha, beta, gamma):
the map's own (q, 1, sign*p), in `substitution_check` too, and the closed
form's (1, q, p) for s(k-1)/s(k).  `substitution_check` streams its t and
Lucas windows as ints from `horadam._steps`.  No step runs a gcd of two
big ints.

The minus branch is the plus branch conjugated by x -> -x, as -q/(x - p) =
q/(p + (-x)); `RiccatiParams.sign` applies that negation at the boundary.
The paper's closed forms for both branches are kept as test oracles.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, lcm

from .exact import MINUS, PLUS, DomainError, QuadraticSurd, _from_coprime, _Record, as_rational, quadratic_roots
from .horadam import _coprime, _ints, _orbit, _start, _steps, ratios

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
    """Orbit values x0 .. xn from the closed form x(k) = sign*q*s(k-1)/s(k).

    x0 is forbidden at depth k exactly when s(k) = 0; the first such k <= n is refused.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    x0 = as_rational(x0)
    A, B = params.plus_form()
    # g -> 1/(A + B*g) takes s(k-1)/s(k) to s(k)/s(k+1), infinite where s(k+1) = 0
    s_ratios, stop = _orbit((1, B, A), 1, A + params.sign * x0, n)
    if stop is not None:
        raise DomainError(f"initial value {x0} is forbidden at depth {stop + 1}")
    # each ratio x/y is coprime with y > 0, so the only common factors of sign*q*x and q_den*y
    # are gcd(q, y) and gcd(q_den, x), each a gcd with one of q's small parts
    q, q_den = params.sign * params.q.numerator, params.q.denominator
    values = [x0]
    for ratio in s_ratios:
        x, y = ratio.numerator, ratio.denominator
        g = gcd(q, y) * gcd(q_den, x)
        values.append(_from_coprime(q * x // g, q_den * y // g))
    return values


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

    The t window t(0) .. t(n+1) and the Lucas window u(0) .. u(n+2) stream
    from `horadam._steps` as ints, t(k) = a(k)/c(k) and u(k) = a_u(k)/c_u(k),
    with c(k+1) = c(k)*D/g(k+1) and c_u(k+1) = c_u(k)*D_u/g_u(k+1); only the
    reported t(k) are reduced.  Per k, each identity is one integer equation:

    - x(k) = t(k)/t(k+1), with x(k) = x/y in lowest terms read off the
      map's own orbit of x0 = t0/t1, `horadam._orbit` of (q, 1, p):
      x*g(k+1)*a(k+1) == y*D*a(k) on the link c(k+1)*g(k+1) == c(k)*D,
      which read the pairs of t(k) and t(k+1).  A zero t(k+1) is the pole
      at step k, and the orbit must meet its pole there too.
    - q**k*t(k) = t0*u(k+1) + (q*t1 - p*t0)*u(k).  `_start` gives both
      windows one int (1, Q, P), and the t-recurrence's D is q*D_u, so
      s(k) = q**k*c_u(k)/c(k) moves by g(k+1)/g_u(k+1) per step, and the
      identity is
      a(k)*s(k)*L*D_u == T0*a_u(k+1)*g_u(k+1) + C*a_u(k)*D_u, where
      t0 = T0/L and q*t1 - p*t0 = C/L.  It reads a(k) and, for k > 0, the
      link from c(k-1) to c(k), so it holds for the reported t(k).

    `ratio_values[k]` is the orbit's value where x(k) matches, and
    t(k)/t(k+1) where it does not.
    """
    if params.branch != PLUS:
        raise DomainError("the substitution derivation applies to the plus branch")
    if n < 0:
        raise ValueError("n must be nonnegative")
    t0, t1 = as_rational(t0), as_rational(t1)
    if t1 == 0:
        raise DomainError("t1 = 0 leaves x0 = t0/t1 undefined")

    p, q = params.plus_form()
    (t_start, m), (u_start, _) = _start(p / q, 1 / q, t0, t1, 0), _start(p, q, 0, 1, 0)
    D, Du = t_start[-1], u_start[-1]
    shift = q * t1 - p * t0
    T0, C = _ints(t0, shift)
    LDu = lcm(t0.denominator, shift.denominator) * Du
    xs, orbit_pole = _orbit((q, 1, p), t0, t1, n + 1)
    t_window, u_window = islice(_steps(*t_start), n + 2), _steps(*u_start)
    a, _, c, _ = next(t_window)
    ua, _, sn, _ = next(u_window)
    sd = c  # s(0) = c_u(0)/c(0)

    t_values, ratio_values, orbit_matches, closed_form_matches = [_from_coprime(*_coprime(a, c, m))], [], [], []
    pole_step = None
    linked = True  # c(k) == c(k-1)*D/g(k); c(0) starts the chain
    for k in range(n + 2):
        ua_next, _, _, ug = next(u_window)
        closed_form_matches.append(linked and a * sn * LDu == sd * (T0 * ua_next * ug + C * ua * Du))
        if k > n:
            break
        a_next, _, c_next, g = next(t_window)
        t = _from_coprime(*_coprime(a_next, c_next, m))
        linked = c_next * g == c * D
        if pole_step is None:  # x(k) = t(k)/t(k+1)
            if not a_next:
                pole_step = k
            elif k < len(xs) and linked and xs[k].numerator * g * a_next == xs[k].denominator * D * a:
                ratio_values.append(xs[k])
                orbit_matches.append(True)
            else:
                ratio_values.append(t_values[-1] / t)
                orbit_matches.append(False)
        t_values.append(t)
        if g != ug:
            sn, sd = sn * g, sd * ug
        a, c, ua = a_next, c_next, ua_next
    if pole_step != orbit_pole:
        orbit_matches.append(False)  # the two pole accounts must agree
    return SubstitutionReport(
        tuple(t_values),
        tuple(ratio_values),
        tuple(orbit_matches),
        tuple(closed_form_matches),
        pole_step,
    )
