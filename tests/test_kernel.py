"""Differential tests for the integer recurrence kernel in `aurea.horadam`.

`terms` (the one value reader) and `fast_term` clear denominators once in
`_start`, which squares the integer companion matrix, or below 0 its
adjugate, and applies its powers to the pair at 0 to reach a window's start;
they step ints forward from there, a window of one term included, and
`ratios` steps the same ints from index 0;
here they are checked against a plain-Fraction stepper that does none of
this, on seeds whose denominators differ from each other and from the
coefficients'.

The ratio streams on coprime int pairs (`ratios`, `iterate_orbit`, the
closed form, `forbidden_set`, `ratio_trace` and `substitution_check`) are
checked the same way, and `horadam._orbit`, the quotient reader all of them
but `ratios` and `forbidden_set` read, against a Fraction stepper of
z -> alpha/(beta*z + gamma), read as the quotients of the recurrence
(A, B) = (gamma/alpha, beta/alpha).  `horadam._steps`, the one int stepper
under all of them and under the windows, is checked against plain powers of
that map's matrix [[0, alpha], [beta, gamma]].  `substitution_check`, which
decides its identities from the first terms of its window, is checked
against a per-step Fraction formulation, and a wrong t(0) or t(1) planted
into its window fails the closed form at every k.  A count of
`Fraction.__new__` calls that must not grow with n keeps a per-step gcd from
coming back; a count of horadam's own gcd calls holds every pair step to one,
a count of Python-level calls that is the same at n = 50 and n = 500 keeps a
per-value call out of windows and orbits, and one per chunk out of counted
ratio streams; tracemalloc peaks keep `_start`'s power loop from squaring past
the top bit of the index and a counted ratio stream to one chunk at a time.

`QuadraticSurd.__pow__` and `golden_power_trace` read their powers off the
same kernel; they are checked against repeated multiplication, and a count
of `QuadraticSurd` constructions keeps the orderings, `abs_lt`/`abs_le` and
powers from building intermediate surds, and a count of radicand splits
holds each arithmetic operator to the one surd it returns, and
`quadratic_roots` to its two roots.
"""

import gc
import sys
import tracemalloc
from fractions import Fraction
from itertools import islice, repeat
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from aurea.exact import GOLDEN_RATIO, QuadraticSurd, abs_le, abs_lt, quadratic_roots  # noqa: E402
from aurea import exact, fibfunc, horadam, riccati  # noqa: E402
from aurea.fibfunc import PeriodicSeed, ratio_trace, verify_convergence  # noqa: E402
from aurea.horadam import (  # noqa: E402
    RecurrenceParams,
    fast_term,
    horadam_term,
    lucas_window,
    ratios,
    terms,
    window,
)
from aurea.limits import ODD, STANDARD, RatioParams, cf_convergent, nesting_check, ratio_orbit  # noqa: E402
from aurea.riccati import (  # noqa: E402
    MINUS,
    PLUS,
    RiccatiParams,
    closed_form_trajectory,
    forbidden_set,
    iterate_orbit,
    substitution_check,
)

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)
nonzero = rationals.filter(lambda x: x != 0)
index = st.integers(-150, 150)

PROPERTY = settings(max_examples=60, deadline=None)


def reference(A, B, a, b, lo, hi):
    """{k: u(k)} for u(k+2) = A*u(k+1) + B*u(k), one Fraction step at a time."""
    values = {0: Fraction(a), 1: Fraction(b)}
    for k in range(2, hi + 2):
        values[k] = A * values[k - 1] + B * values[k - 2]
    for k in range(-1, lo - 1, -1):
        values[k] = (values[k + 2] - A * values[k + 1]) / B
    return values


def _canonical(value):
    """A reduced Fraction with a positive denominator, the only form Fraction(n, d) ever builds."""
    return type(value) is Fraction and value.denominator > 0 and gcd(value.numerator, value.denominator) == 1


@PROPERTY
@given(A=rationals, B=nonzero, a=rationals, b=rationals, n=index, m=index)
@example(A=Fraction(2, 3), B=Fraction(-5, 9), a=Fraction(1, 4), b=Fraction(-5, 6), n=-150, m=150)
@example(A=Fraction(-7, 2), B=Fraction(3, 8), a=Fraction(-3, 4), b=Fraction(1, 6), n=-1, m=0)
@example(A=Fraction(0), B=Fraction(1, 2), a=Fraction(0), b=Fraction(1), n=-120, m=150)  # A = 0: every even u(k) = 0
@example(A=Fraction(0), B=Fraction(-9, 4), a=Fraction(5, 6), b=Fraction(0), n=37, m=150)  # every odd u(k) = 0
@example(A=Fraction(3, 2), B=Fraction(2, 5), a=Fraction(1, 1000003), b=Fraction(5, 7), n=-150, m=150)  # a large prime in E
@example(A=Fraction(7, 3), B=Fraction(-5, 2), a=Fraction(1, 4), b=Fraction(5, 6), n=-150, m=150)  # 2 divides P and Q
@example(A=Fraction(7, 3), B=Fraction(-5, 2), a=Fraction(1, 4), b=Fraction(5, 6), n=97, m=97)  # a 1-term window
@example(A=Fraction(7, 3), B=Fraction(-5, 2), a=Fraction(1, 4), b=Fraction(5, 6), n=-98, m=-97)  # a 2-term window
@example(A=Fraction(0), B=Fraction(1, 6), a=Fraction(0), b=Fraction(1), n=100, m=101)  # a 2-term window from u = 0
@example(A=Fraction(3, 2), B=Fraction(2, 5), a=Fraction(1, 4), b=Fraction(5, 6), n=-151, m=-149)  # B > 0, odd lo: c < 0
def test_pairs_and_terms_match_the_fraction_stepper(A, B, a, b, n, m):
    lo, hi = min(n, m), max(n, m)
    ref = reference(A, B, a, b, lo, hi)
    assert terms(A, B, a, b, n, n + 1) == [ref[n], ref[n + 1]]
    values = terms(A, B, a, b, lo, hi)
    assert values == [ref[k] for k in range(lo, hi + 1)]
    assert all(_canonical(value) for value in values)


@PROPERTY
@given(w0=rationals, w1=rationals, p=rationals, q=nonzero, n=index)
@example(w0=Fraction(1, 4), w1=Fraction(5, 6), p=Fraction(7, 3), q=Fraction(5, 2), n=-150)
def test_fast_term_matches_the_fraction_stepper(w0, w1, p, q, n):
    ref = reference(p, -q, w0, w1, min(n, 0), max(n, 0))
    assert fast_term(RecurrenceParams(w0, w1, p, q), n) == ref[n]


@settings(max_examples=15, deadline=None)
@given(
    w0=rationals,
    w1=rationals,
    p=st.fractions(min_value=-4, max_value=4, max_denominator=5),
    q=st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(lambda x: x != 0),
    n=st.integers(-2000, 2000),
)
def test_one_term_equals_the_middle_of_a_three_term_window_far_out(w0, w1, p, q, n):
    """A 1-term read and a 3-term window power to different starts and reduce their terms alike."""
    params = RecurrenceParams(w0, w1, p, q)
    assert horadam_term(params, n) == window(params, n - 1, 3).values[1]


# coefficients whose cleared Q = B*D**2 has squared primes, so a step's common factor is a prime power
squared = st.sampled_from([Fraction(4), Fraction(-12), Fraction(9, 4), Fraction(-18, 25), Fraction(8, 9), Fraction(-1, 49)])


@PROPERTY
@given(
    A=rationals,
    B=nonzero | squared,
    a=rationals,
    b=rationals,
    scale=st.integers(-36, 36).filter(bool),
    count=st.integers(0, 120),
)
@example(A=Fraction(2, 3), B=Fraction(-5, 9), a=Fraction(0), b=Fraction(1, 4), scale=1, count=40)
@example(A=Fraction(1), B=Fraction(-1), a=Fraction(1), b=Fraction(1), scale=1, count=12)  # u(2) = 0, period 6
@example(A=Fraction(2), B=Fraction(-4), a=Fraction(1), b=Fraction(2), scale=6, count=30)  # u(2) = 0, Q = -4
@example(A=Fraction(3), B=Fraction(-12), a=Fraction(-1), b=Fraction(5, 3), scale=-18, count=80)
@example(A=Fraction(0), B=Fraction(9, 4), a=Fraction(0), b=Fraction(1), scale=12, count=20)  # every even u(k) = 0
def test_ratios_match_the_fraction_stepper(A, B, a, b, scale, count):
    """u(k+1)/u(k) for k = 0 .. count, and None at every k with u(k) = 0; seeds scaled by a common factor."""
    a, b = scale * a, scale * b
    ref = reference(A, B, a, b, 0, count)
    expected = [ref[k + 1] / ref[k] if ref[k] != 0 else None for k in range(count + 1)]
    got = list(ratios(A, B, a, b, count + 1))
    assert got == expected
    assert all(ratio is None or _canonical(ratio) for ratio in got)


def _mobius_reference(coefficients, x, y, count):
    """(points, stop) of z -> alpha/(beta*z + gamma) from x/y, one Fraction step at a time."""
    alpha, beta, gamma = coefficients
    points, num, den = [], Fraction(x), Fraction(y)
    for k in range(count):
        if den == 0:
            return points, k
        z = num / den
        points.append(z)
        num, den = alpha, beta * z + gamma
    return points, None


def _pulled_back_pole(coefficients, steps):
    """(x, y) whose orbit is infinite at step `steps`: 1/0 taken back `steps` times by the adjugate matrix."""
    alpha, beta, gamma = coefficients
    x, y = Fraction(1), Fraction(0)
    for _ in range(steps):
        x, y = gamma * x - alpha * y, -beta * x
    return x, y


entry = rationals | st.integers(-9, 9) | squared


def _recurrence(A, B, a, b, scale, count):
    """The test's arguments for t(k)/t(k+1) of t(k+2) = A*t(k+1) + B*t(k), the orbit of (1, B, A), from scaled seeds."""
    return dict(coefficients=(1, B, A), x=scale * a, y=scale * b, count=count + 1)


@PROPERTY
@given(coefficients=st.tuples(entry, entry, entry), x=entry, y=entry, count=st.integers(0, 120), pole_at=st.integers(0, 40))
@example(**_recurrence(Fraction(2, 3), Fraction(-5, 9), Fraction(0), Fraction(1, 4), 1, 40), pole_at=3)  # x(0) = 0
@example(**_recurrence(1, -1, 1, 1, 1, 12), pole_at=0)  # u(2) = 0: period 6, infinite at step 1
@example(**_recurrence(2, -4, 1, 2, 6, 30), pole_at=30)  # u(2) = 0 with a common factor 6 in the seed
@example(**_recurrence(3, -12, -1, Fraction(5, 3), -18, 80), pole_at=7)
@example(**_recurrence(0, Fraction(9, 4), 0, 1, 12, 20), pole_at=2)  # every even u(k) = 0
@example(**_recurrence(0, Fraction(9, 4), 1, 0, -4, 20), pole_at=5)  # every odd u(k) = 0: an infinite seed
@example(**_recurrence(Fraction(5, 2), -3, 0, 0, 1, 20), pole_at=4)  # all zero: 0/0 ends at once
@example(coefficients=(Fraction(8, 9), 1, Fraction(-4, 27)), x=Fraction(1, 2), y=1, count=0, pole_at=0)  # count = 0
@example(coefficients=(Fraction(8, 9), 1, Fraction(-4, 27)), x=Fraction(1, 2), y=1, count=60, pole_at=25)  # det < 0
@example(coefficients=(-1, 3, 5), x=-4, y=6, count=40, pole_at=17)  # int entries, det > 0
def test_orbit_matches_the_mobius_stepper(coefficients, x, y, count, pole_at):
    """The points and stop of a drawn seed and of one pulled back from infinity by `pole_at` steps.

    z -> alpha/(beta*z + gamma) is z -> 1/(B*z + A) for (A, B) = (gamma/alpha, beta/alpha), whose orbit
    from x/y is the quotients u(k)/u(k+1) of u(k+2) = A*u(k+1) + B*u(k) from (x, y).
    """
    alpha, beta, gamma = coefficients
    assume(alpha * beta != 0)
    A, B = Fraction(gamma) / alpha, Fraction(beta) / alpha
    for seed in ((x, y), _pulled_back_pole(coefficients, pole_at)):
        points, stop = horadam._orbit(A, B, *seed, count)
        assert (points, stop) == _mobius_reference(coefficients, *seed, count)
        assert all(_canonical(z) for z in points)
    if pole_at < count:  # a Möbius map of finite order may meet infinity before `pole_at`, never after it
        assert horadam._orbit(A, B, *_pulled_back_pole(coefficients, pole_at), count)[1] <= pole_at


small_int = st.integers(-9, 9)


@PROPERTY
@given(
    coefficients=st.tuples(small_int, small_int, small_int),
    x=st.integers(-10**6, 10**6),
    y=st.integers(-10**6, 10**6),
    c=st.just(0) | st.integers(1, 10**6),
    scale=st.integers(1, 10**4),
    count=st.integers(1, 40),
    d=st.integers(1, 200),
)
@example(coefficients=(2, 2, 0), x=2, y=2, c=1, scale=1, count=10, d=4)  # 2 divides x and y but not c: the content comes from D
@example(coefficients=(1, 3, 0), x=0, y=0, c=5, scale=7, count=10, d=3)  # a zero pair: (0, 0, 1) throughout
@example(coefficients=(1, -90, 14), x=3, y=-60, c=12, scale=1, count=30, d=6)  # _start's (1, Q, P) of (7/3, -5/2)
@example(coefficients=(-1, 3, 5), x=-4, y=6, c=0, scale=6, count=40, d=1)  # c = 0: coprime pairs
@example(coefficients=(1, 1, 0), x=1, y=0, c=0, scale=3, count=12, d=1)  # c = 0 from an infinite point: 1/0, 0/1, 1/0, ...
def test_steps_yield_the_content_free_matrix_powers(coefficients, x, y, c, scale, count, d):
    """After k steps `_steps` has read (M**k*(x, y), c*D**k) over its content, for D = gcd(d, det M), a divisor of det M.

    M = [[0, alpha], [beta, gamma]], so det M = -alpha*beta.  Chunks of one value each expose the vector
    at every k.  The content g of the image of the vector before divides det M, and the vector is that
    image over g.  The value read off it is x/(c*D**k) for c != 0, reduced by gcds against m = c*D, whose
    primes are all those of c*D**k, and x/y for c = 0, which ends its chunk empty where y = 0.
    """
    alpha, beta, gamma = coefficients
    det = -alpha * beta
    assume(det != 0)
    assume(x or y or c)
    D = gcd(d, det)
    ref, previous = (scale * x, scale * y, scale * c), None
    chunks = horadam._steps(*coefficients, *ref, D, scale * c * D or 1, sizes=repeat(1))
    for values, step in islice(chunks, count):
        content = gcd(*ref)
        assert step == tuple(value // content for value in ref)
        assert gcd(*step) == 1
        if previous is not None:
            px, py, pc = previous
            image = (alpha * py, beta * px + gamma * py, pc * D)
            g = gcd(*image)
            assert det % g == 0
            assert step == tuple(value // g for value in image)
        if ref[2] or ref[1]:
            assert values == [Fraction(ref[0], ref[2] or ref[1])]
            assert _canonical(values[0])
        else:
            assert values == []
        previous = step
        ref = (alpha * ref[1], beta * ref[0] + gamma * ref[1], ref[2] * D)


def test_steps_read_the_start_once_whatever_the_chunks():
    """A chunk of 0 reads nothing and steps nothing; a chunk of 1 reads the vector it is at; the next chunk steps first."""
    A, B, a, b = Fraction(7, 3), Fraction(-5, 2), Fraction(1, 4), Fraction(5, 6)
    start, m = horadam._start(A, B, a, b, 3)
    chunks = list(horadam._steps(*start, m, sizes=(0, 1, 0, 0, 2, 1)))
    assert [values for values, _ in chunks] == [[], terms(A, B, a, b, 3, 3), [], [], terms(A, B, a, b, 4, 5), terms(A, B, a, b, 6, 6)]
    (_, at_start), = horadam._steps(*start, m, sizes=(1,))
    assert [vector for _, vector in chunks[:4]] == [at_start] * 4
    (_, at_5), = horadam._steps(*horadam._start(A, B, a, b, 5)[0], m, sizes=(0,))
    assert chunks[4][1] in (at_5, tuple(-v for v in at_5))
    assert terms(A, B, a, b, 3, 2) == [] and horadam._orbit(A, B, a, b, 0) == ([], None)


def test_an_orbit_from_an_infinite_seed_has_no_points():
    """x/0 is infinite at index 0, so the orbit ends before its first point; the chunk still holds the seed's vector."""
    assert horadam._orbit(Fraction(15, 2), Fraction(9, 2), 7, 0, 10) == ([], 0)  # z -> (2/3)/(3*z + 5)
    assert horadam._orbit(Fraction(5, 2), Fraction(3, 2), 0, 0, 10) == ([], 0)  # 0/0 ends at once too
    (values, vector), = horadam._steps(2, 3, 5, -7, 0, 0, 1, 1, sizes=(10,))
    assert values == [] and vector == (-1, 0, 0)


def _orbit_reference(p, q, sign, x0, n):
    """(trajectory, pole_step) of x -> q/(x + sign*p), one Fraction step at a time."""
    trajectory, x = [x0], x0
    for step in range(1, n + 1):
        if x + sign * p == 0:
            return trajectory, step
        x = q / (x + sign * p)
        trajectory.append(x)
    return trajectory, None


def _pole_preimages(p, q, sign, depth):
    """x0 forbidden at depths 1 .. depth: the pole, then x -> q/x - sign*p, the inverse map, from it."""
    x, found = -sign * p, []
    while len(found) < depth and x != 0:
        found.append(x)
        x = q / x - sign * p
    return found


positive = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)
# prime powers in both parts, so the step's det = qn*qd*sd**2 holds squared and cubed primes
prime_power = st.sampled_from([Fraction(4, 27), Fraction(8, 9), Fraction(27, 8), Fraction(9, 4), Fraction(1, 16), Fraction(25, 2)])


@PROPERTY
@given(
    p=positive | prime_power,
    q=positive | prime_power,
    branch=st.sampled_from([PLUS, MINUS]),
    x0=rationals,
    depth=st.integers(1, 40),
    n=st.integers(0, 60),
)
@example(p=Fraction(4, 27), q=Fraction(8, 9), branch=PLUS, x0=Fraction(1, 2), depth=40, n=60)
@example(p=Fraction(4, 27), q=Fraction(8, 9), branch=MINUS, x0=Fraction(-2, 3), depth=40, n=60)
def test_iterate_orbit_matches_the_fraction_stepper(p, q, branch, x0, depth, n):
    """The trajectory and pole step of x0 and of a point forbidden at `depth`, against a Fraction stepper."""
    params = RiccatiParams(p, q, branch)
    starts = [x0] + _pole_preimages(p, q, params.sign, depth)[-1:]
    for start in starts:
        report = iterate_orbit(params, start, n)
        trajectory, pole_step = _orbit_reference(p, q, params.sign, start, n)
        assert report.trajectory == tuple(trajectory)
        assert report.pole_step == pole_step
        assert all(_canonical(x) for x in report.trajectory)


@pytest.mark.parametrize("branch", [PLUS, MINUS])
@pytest.mark.parametrize("p, q", [(Fraction(4, 27), Fraction(8, 9)), (Fraction(7, 3), Fraction(5, 2)), (Fraction(1), Fraction(1))])
def test_iterate_orbit_meets_the_pole_at_every_depth(p, q, branch):
    params = RiccatiParams(p, q, branch)
    preimages = _pole_preimages(p, q, params.sign, 60)
    assert len(preimages) == 60  # the inverse map keeps the pole's sign, so 0 never turns up
    for depth, x0 in enumerate(preimages, start=1):
        report = iterate_orbit(params, x0, 60)
        assert report.pole_step == depth
        assert report.classification.label() == f"forbidden_depth({depth})"
        assert report.trajectory == tuple(_orbit_reference(p, q, params.sign, x0, 60)[0])


def _ratio_trace_reference(A, B, f0, f1, n_min, n_max):
    """(values, ratios, undefined_at) of ratio_trace, from the Fraction stepper."""
    ref = reference(A, B, f0, f1, n_min, n_max + 1)
    values = tuple(ref[n] for n in range(n_min, n_max + 2))
    found = []
    for n in range(n_min, n_max + 1):
        if ref[n + 1] == 0:
            return values, tuple(found), n
        found.append(ref[n] / ref[n + 1])
    return values, tuple(found), None


ratio_coefficient = st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=5)


@PROPERTY
@given(
    f0=rationals,
    f1=rationals,
    r=ratio_coefficient,
    s=ratio_coefficient,
    parity=st.sampled_from([STANDARD, ODD]),
    n_min=st.integers(-60, 0),
    width=st.integers(0, 60),
)
@example(f0=Fraction(0), f1=Fraction(2, 3), r=Fraction(1), s=Fraction(1), parity=STANDARD, n_min=0, width=5)  # g(0) = 0
@example(f0=Fraction(0), f1=Fraction(2, 3), r=Fraction(3, 2), s=Fraction(2, 5), parity=ODD, n_min=-7, width=9)  # f(0) = 0
@example(f0=Fraction(1), f1=Fraction(1), r=Fraction(1), s=Fraction(1), parity=ODD, n_min=-4, width=10)  # f(2) = 0
@example(f0=Fraction(5, 3), f1=Fraction(0), r=Fraction(7, 4), s=Fraction(4, 3), parity=STANDARD, n_min=-60, width=60)
def test_ratio_trace_matches_the_fraction_stepper(f0, f1, r, s, parity, n_min, width):
    if f0 == 0 and f1 == 0:
        return
    seed = PeriodicSeed(1, RatioParams(r, s, parity), (0,), ((f0, f1),))
    trace = ratio_trace(seed, 0, n_min, n_min + width)
    A = r if parity == STANDARD else -r
    assert (trace.values, trace.ratios, trace.ratio_undefined_at) == _ratio_trace_reference(A, s, f0, f1, n_min, n_min + width)
    assert all(_canonical(g) for g in trace.ratios)


def _substitution_reference(params, t0, t1, n):
    """substitution_check's earlier Fraction formulation: t(k)/t(k+1) per step, the closed form as a Fraction."""
    t_values = terms(params.p / params.q, 1 / params.q, t0, t1, 0, n + 1)
    u = lucas_window(params.p, params.q, 0, n + 2)
    c = params.q * t1 - params.p * t0
    closed_form_matches = tuple(t_values[k] == (t0 * u[k + 1] + c * u[k]) / params.q**k for k in range(n + 2))
    trajectory, orbit_pole = _orbit_reference(params.p, params.q, 1, t0 / t1, n)
    ratio_values, orbit_matches, pole_step = [], [], None
    for k in range(n + 1):
        if t_values[k + 1] == 0:
            pole_step = k
            break
        ratio_values.append(t_values[k] / t_values[k + 1])
        orbit_matches.append(k < len(trajectory) and ratio_values[k] == trajectory[k])
    if pole_step != orbit_pole:
        orbit_matches.append(False)
    return tuple(t_values), tuple(ratio_values), tuple(orbit_matches), closed_form_matches, pole_step


def _report_fields(report):
    return report.t_values, report.ratio_values, report.orbit_matches, report.closed_form_matches, report.pole_step


@PROPERTY
@given(p=positive | prime_power, q=positive | prime_power, t0=rationals, t1=nonzero, n=st.integers(0, 80))
@example(p=Fraction(1), q=Fraction(1), t0=Fraction(-2), t1=Fraction(1), n=6)  # t(3) = 0: the pole at step 2
@example(p=Fraction(4, 27), q=Fraction(8, 9), t0=Fraction(-4, 27), t1=Fraction(1), n=20)  # t(2) = 0
@example(p=Fraction(7, 3), q=Fraction(5, 2), t0=Fraction(0), t1=Fraction(3, 4), n=40)  # x(0) = 0
@example(p=Fraction(7, 3), q=Fraction(5, 2), t0=Fraction(1, 3), t1=Fraction(2, 5), n=200)  # the decision against the probe to 200
def test_substitution_check_matches_the_fraction_formulation(p, q, t0, t1, n):
    params = RiccatiParams(p, q, PLUS)
    report = substitution_check(params, t0, t1, n)
    assert _report_fields(report) == _substitution_reference(params, t0, t1, n)
    assert report.passed
    assert all(_canonical(x) for x in report.ratio_values)


@PROPERTY
@given(p=positive | prime_power, q=positive | prime_power, t0=rationals, t1=nonzero)
@example(p=Fraction(2), q=Fraction(4), t0=Fraction(1), t1=Fraction(1))
def test_substitution_windows_share_one_companion_and_scale_by_q(p, q, t0, t1):
    """The t window of (p/q, 1/q) and the Lucas window of (p, q) step one int (1, Q, P), and D_t = q*D_u.

    This pins `_start`'s clearing scale D = lcm(den A, den B): for each prime
    the valuation of lcm(den p/q, den 1/q) is that of q plus that of
    lcm(den p, den q).  Nothing outside `horadam` relies on it, as
    `substitution_check` reads its window through `terms`.  A clearing by the
    least D with A*D and B*D**2 integral breaks it: at p = 2, q = 4 the t
    window's least D is 2, against q*D_u = 4.
    """
    t_start, u_start = horadam._start(p / q, 1 / q, t0, t1, 0)[0], horadam._start(p, q, 0, 1, 0)[0]
    assert t_start[:3] == u_start[:3]
    assert t_start[-1] == q * u_start[-1]


SUBST_MAP, SUBST_SEED = RiccatiParams(Fraction(7, 3), Fraction(5, 2), PLUS), (Fraction(1, 3), Fraction(2, 5))


def _plant(monkeypatch, planted, wrong=lambda t: t + 1):
    """substitution_check's `terms`, with t(planted) of the window it reads made wrong, by default t + 1."""
    real = riccati.terms

    def planted_terms(*args):
        values = real(*args)
        values[planted] = wrong(values[planted])
        return values

    monkeypatch.setattr(riccati, "terms", planted_terms)


@pytest.mark.parametrize("planted", [0, 1])
def test_substitution_check_fails_exactly_at_a_planted_t_value(monkeypatch, planted):
    """A wrong t(0) or t(1), the terms the closed-form decision reads, fails it at every k.

    The orbit identity reads the map's own orbit, so it still holds.
    """
    n = 30
    true = terms(SUBST_MAP.p / SUBST_MAP.q, 1 / SUBST_MAP.q, *SUBST_SEED, 0, n + 1)
    _plant(monkeypatch, planted)
    report = substitution_check(SUBST_MAP, *SUBST_SEED, n)
    assert report.t_values[planted] == true[planted] + 1
    assert report.closed_form_matches == (False,) * (n + 2)
    assert all(report.orbit_matches) and not report.passed


def test_substitution_check_fails_where_the_pole_accounts_differ(monkeypatch):
    """A t(6) planted as 0 puts the window's pole at step 5, where the map's orbit has none.

    The steps before it match, the disagreeing pole accounts append one
    False, and the closed form, decided from t(0) and t(1), holds.
    """
    n = 20
    _plant(monkeypatch, 6, lambda t: Fraction(0))
    report = substitution_check(SUBST_MAP, *SUBST_SEED, n)
    assert report.pole_step == 5
    assert report.orbit_matches == (True,) * 5 + (False,)
    assert report.closed_form_matches == (True,) * (n + 2)
    assert not report.passed


small = st.fractions(min_value=-5, max_value=5, max_denominator=5)
EDGE_CASE = dict(A=Fraction(3, 2), B=Fraction(-1, 3), a=Fraction(1, 2), b=Fraction(2, 3), width=3)


def _at_binary_edges(test):
    """One explicit example per start 2**k - 1 and 2**k, where the power loop's bit pattern turns over."""
    for start in (1, 2, 3, 4, 7, 8, 255, 256, 1023, 1024, 2047, 2048):
        test = example(**EDGE_CASE, start=start)(test)
    return test


@settings(max_examples=25, deadline=None)
@given(A=small, B=small.filter(lambda x: x != 0), a=small, b=small, start=st.integers(1, 3000), width=st.integers(0, 8))
@_at_binary_edges
def test_powered_start_equals_the_stepped_slice(A, B, a, b, start, width):
    """A window away from 0 reaches its start by matrix powers; a window from `start` indices lower steps across it.

    Above 0 that window starts at 0; below 0 it starts at its own power of the adjugate.
    """
    lo, hi = start, start + width
    assert terms(A, B, a, b, lo, hi) == terms(A, B, a, b, 0, hi)[lo:]
    lo, hi = -start - width, -start
    assert terms(A, B, a, b, lo, hi) == terms(A, B, a, b, lo - start, hi)[start:]


@PROPERTY
@given(A=rationals, B=nonzero, a=rationals, b=rationals, lo=st.integers(-150, -1), offset=st.integers(0, 300))
@example(A=Fraction(3, 2), B=Fraction(2, 5), a=Fraction(1, 4), b=Fraction(5, 6), lo=-151, offset=151)  # c < 0 from lo, c > 0 from k = 0
def test_the_ints_at_an_index_do_not_depend_on_the_start(A, B, a, b, lo, offset):
    """The vector a run from a negative lo reads last at k = lo + offset is, up to sign, the one a run from k reads first.

    Every vector is content-free, so its (x, y, c) is fixed up to sign by
    u(k) = x/c and u(k+1) = y/(c*D); a run from the adjugate's power steps
    the same ints at k >= 0 as a run from 0.
    """
    k = lo + offset
    start, m = horadam._start(A, B, a, b, lo)
    (_, (x, y, c)), = horadam._steps(*start, m, sizes=(offset + 1,))
    start, m = horadam._start(A, B, a, b, k)
    (_, at_k), = horadam._steps(*start, m, sizes=(1,))
    assert at_k in ((x, y, c), (-x, -y, -c))


@pytest.mark.parametrize("lo", [2**17, 2**17 + 1, -(2**17), 3 * 2**16, 10**5])
def test_the_power_loop_stops_squaring_at_the_top_bit(lo):
    """_start's peak memory stays within 6.5 times the pair it returns, so no square past |lo|'s top bit is taken.

    That square is never applied, so it changes no value, only the cost: it
    builds M**(2**t), t = |lo|.bit_length(), whose four entries are up to
    twice the pair's size, next to M**(2**(t-1)), and took the peak to 7.5
    to 11 times the pair at these indices, against about 5 without it.  An
    index all of whose bits are set, such as 2**17 - 1, is left out: there
    the last applied power is about as large as that square, and the peak is
    6 times the pair either way.
    """
    tracemalloc.start()
    try:
        (_, _, _, x, y, _, _), _ = horadam._start(1, 1, 0, 1, lo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * (sys.getsizeof(x) + sys.getsizeof(y))


@pytest.mark.parametrize(
    "lo, hi",
    [(-9, -4), (-1, -1), (-5, 0), (-1, 1), (-6, 7), (0, 0), (3, 3), (2, 9), (0, -1), (-3, -4), (5, 4)],
)
def test_terms_windows(lo, hi):
    A, B, a, b = Fraction(3, 4), Fraction(-5, 6), Fraction(1, 4), Fraction(-1, 6)
    ref = reference(A, B, a, b, min(lo, 0), max(hi, 1))
    assert terms(A, B, a, b, lo, hi) == [ref[k] for k in range(lo, hi + 1)]


def _fibs(count):
    values = [0, 1]
    while len(values) < count:
        values.append(values[-1] + values[-2])
    return values


def test_int_inputs_return_the_int_values():
    fib = _fibs(402)
    assert terms(1, 1, 0, 1, 400, 401) == [fib[400], fib[401]]
    assert terms(1, 1, 0, 1, -7, -6) == [13, -8]
    assert terms(1, 1, 0, 1, 0, 401) == fib
    assert terms(2, -1, 3, 5, 0, 5) == [3, 5, 7, 9, 11, 13]
    for m in (1, 2, 10, 400):
        assert cf_convergent(m) == Fraction(fib[m], fib[m + 1])
    assert nesting_check(60).passed


def _first_hit_oracle(A, B, f0, f1, target, eps, horizon):
    """The formulation verify_convergence replaced: abs_lt(ratio - target, eps) per step of horadam.ratios."""
    first_step, achieved = None, None
    for n, ratio in enumerate(ratios(A, B, f0, f1, horizon + 1)):
        if ratio is not None:
            achieved = ratio
            if abs_lt(ratio - target, eps):
                first_step = n
                break
    return first_step, achieved


# the sweep workload's ratio coefficients, each with a seed pair whose f(0) vanishes
SWEEP_SEEDS = [
    (Fraction(1), Fraction(1), STANDARD, Fraction(0), Fraction(2, 3)),
    (Fraction(3, 2), Fraction(2, 5), ODD, Fraction(0), Fraction(5, 3)),
    (Fraction(2), Fraction(3, 4), STANDARD, Fraction(0), Fraction(1, 2)),
    (Fraction(5, 3), Fraction(1, 2), STANDARD, Fraction(0), Fraction(4)),
    (Fraction(7, 4), Fraction(4, 3), ODD, Fraction(0), Fraction(1, 3)),
]


def _with_sweep_edges(test):
    """At the far end of the sweep ranges (horizon 600, eps 10**-80, so never within eps for most
    seeds), and on seeds whose f(2) vanishes: f(1) = -s*f(0)/(±r)."""
    for r, s, parity, f0, f1 in SWEEP_SEEDS:
        test = example(f0=f0, f1=f1, r=r, s=s, parity=parity, eps=Fraction(1, 10**80), horizon=600)(test)
        sign = 1 if parity == STANDARD else -1
        test = example(f0=Fraction(1), f1=-s / (sign * r), r=r, s=s, parity=parity, eps=Fraction(1, 10), horizon=600)(test)
    return test


@PROPERTY
@given(
    f0=rationals,
    f1=rationals,
    r=st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=5),
    s=st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=5),
    parity=st.sampled_from([STANDARD, ODD]),
    eps=st.sampled_from([Fraction(1, 10), Fraction(1, 10**4), Fraction(3, 10**9)])
    | st.integers(1, 80).map(lambda k: Fraction(1, 10**k)),
    horizon=st.just(60) | st.integers(0, 600),
)
@example(f0=Fraction(1, 4), f1=Fraction(5, 6), r=Fraction(1), s=Fraction(1), parity=STANDARD, eps=Fraction(1, 10**12), horizon=60)
@_with_sweep_edges
def test_verify_convergence_matches_the_fraction_stepper(f0, f1, r, s, parity, eps, horizon):
    """first_step and ratio against a plain Fraction stepper and against the per-step abs_lt formulation."""
    if f0 == 0 and f1 == 0:
        return
    kind = RatioParams(r, s, parity)
    (report,) = verify_convergence(PeriodicSeed(1, kind, (0,), ((f0, f1),)), eps, horizon=horizon)
    A = r if parity == STANDARD else -r
    ref = reference(A, s, f0, f1, 0, horizon + 1)
    first_step, achieved = None, None
    for n in range(horizon + 1):
        if ref[n] != 0:
            achieved = ref[n + 1] / ref[n]
            if abs_lt(achieved - report.target, eps):
                first_step = n
                break
    assert (report.first_step, report.ratio) == (first_step, achieved)
    assert (report.first_step, report.ratio) == _first_hit_oracle(A, s, f0, f1, report.target, eps, horizon)


def _nesting_oracle(n_max):
    """The formulation nesting_check replaced: a reduced Fraction per convergent and (g - limit).sign()."""
    limit = GOLDEN_RATIO - 1
    fib = terms(1, 1, 0, 1, 0, n_max + 1)
    convergent_failures, ordering_failures = [], []
    for n, g in enumerate(ratio_orbit(RatioParams(1, 1), 0, n_max).trajectory):
        if g != Fraction(fib[n], fib[n + 1]):
            convergent_failures.append(n)
        if (g - limit).sign() != (-1 if n % 2 == 0 else 1):
            ordering_failures.append(n)
    return tuple(convergent_failures), tuple(ordering_failures)


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 50, 51, 137, 600])
def test_nesting_check_matches_the_surd_formulation(n_max):
    report = nesting_check(n_max)
    assert (report.convergent_failures, report.ordering_failures) == _nesting_oracle(n_max)
    assert report.passed


def _surds_built(monkeypatch, run):
    """Number of QuadraticSurd constructions during run()."""
    built = []
    init = QuadraticSurd.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(QuadraticSurd, "__init__", counting)
        run()
    return len(built)


def test_verify_convergence_builds_no_surd_per_step(monkeypatch):
    """epsilon = 10**-400 is never reached by n = 500, so every step compares; the surd count stays flat."""
    seed = PeriodicSeed(1, RatioParams(1, 1), (0,), ((Fraction(1), Fraction(1)),))
    eps = Fraction(1, 10**400)
    counts = [_surds_built(monkeypatch, lambda: verify_convergence(seed, eps, horizon=h)) for h in (50, 500)]
    assert counts[0] == counts[1]
    (report,) = verify_convergence(seed, eps, horizon=500)
    assert report.first_step is None


def test_nesting_check_builds_no_surd_per_step(monkeypatch):
    counts = [_surds_built(monkeypatch, lambda: nesting_check(n)) for n in (50, 500)]
    assert counts[0] == counts[1]


R = QuadraticSurd(Fraction(3, 2), Fraction(-2, 5), 1000003)
S = QuadraticSurd(Fraction(1, 7), Fraction(4, 3), 1000003)
ONE_SURD_RUNS = {
    "r + s": lambda: R + S,
    "r + 2": lambda: R + 2,
    "r - s": lambda: R - S,
    "2 - r": lambda: 2 - R,
    "r - 2": lambda: R - 2,
    "r * s": lambda: R * S,
    "3 * r": lambda: 3 * R,
    "r / s": lambda: R / S,
    "1 / r": lambda: 1 / R,
    "r / 2": lambda: R / 2,
}


def _radicands_split(monkeypatch, run) -> list[int]:
    """The radicands `exact._square_split` is called on while run() runs, in order."""
    split, calls = exact._square_split, []

    def counting(n):
        calls.append(n)
        return split(n)

    monkeypatch.setattr(exact, "_square_split", counting)
    run()
    return calls


@pytest.mark.parametrize("name", sorted(ONE_SURD_RUNS))
def test_each_surd_operator_splits_one_radicand(monkeypatch, name):
    """An operator reads an int, Fraction or surd operand as its parts and builds only its result."""
    assert len(_radicands_split(monkeypatch, ONE_SURD_RUNS[name])) == 1


def test_quadratic_roots_splits_the_discriminant_once_per_root(monkeypatch):
    """The discriminant 68719476767, a 36-bit prime, is split by each root's constructor and nowhere else."""
    disc = 68719476767
    assert _radicands_split(monkeypatch, lambda: quadratic_roots(1, Fraction(disc - 1, 4))) == [disc, disc]


PSI = QuadraticSurd(Fraction(2, 3), Fraction(-1, 7), 5)
NO_SURD_RUNS = {
    "surd < surd": lambda: PSI < GOLDEN_RATIO,
    "surd <= surd": lambda: GOLDEN_RATIO <= PSI,
    "surd > surd": lambda: GOLDEN_RATIO > PSI,
    "surd >= surd": lambda: PSI >= GOLDEN_RATIO,
    "Fraction < surd": lambda: Fraction(13, 8) < GOLDEN_RATIO,
    "Fraction <= surd": lambda: Fraction(13, 8) <= GOLDEN_RATIO,
    "Fraction > surd": lambda: Fraction(13, 8) > GOLDEN_RATIO,
    "Fraction >= surd": lambda: Fraction(13, 8) >= GOLDEN_RATIO,
    "int < surd": lambda: 1 < GOLDEN_RATIO,
    "int <= surd": lambda: 1 <= GOLDEN_RATIO,
    "int > surd": lambda: 1 > GOLDEN_RATIO,
    "int >= surd": lambda: 1 >= GOLDEN_RATIO,
    "abs_lt": lambda: abs_lt(PSI, Fraction(1, 10**6)),
    "abs_le": lambda: abs_le(PSI, Fraction(1, 2)),
    "abs_lt surd bound": lambda: abs_lt(PSI, GOLDEN_RATIO),
    "abs_le surd bound": lambda: abs_le(PSI, GOLDEN_RATIO),
    "abs_lt Fraction value, surd bound": lambda: abs_lt(Fraction(1, 2), GOLDEN_RATIO),
}


@pytest.mark.parametrize("name", sorted(NO_SURD_RUNS))
def test_orderings_and_abs_bounds_build_no_surd(monkeypatch, name):
    assert _surds_built(monkeypatch, NO_SURD_RUNS[name]) == 0


@pytest.mark.parametrize("sign", [1, -1])
def test_a_power_builds_as_many_surds_at_any_exponent(monkeypatch, sign):
    counts = [_surds_built(monkeypatch, lambda: PSI ** (sign * n)) for n in (10, 1000)]
    assert counts[0] == counts[1]


def _power_by_multiplication(x: QuadraticSurd, n: int) -> QuadraticSurd:
    """x**n as |n| products by x, or by 1 / x for negative n."""
    step, power = (x if n >= 0 else 1 / x), QuadraticSurd(1)
    for _ in range(abs(n)):
        power = power * step
    return power


@settings(max_examples=150, deadline=None)
@given(a=rationals, b=rationals, d=st.integers(1, 30), n=st.integers(-40, 40))
@example(a=Fraction(-3, 2), b=Fraction(0), d=7, n=9)  # rational: x**2 = 2a*x - a*a, a double root
@example(a=Fraction(2), b=Fraction(1, 3), d=9, n=-7)  # d square: the rational 3
@example(a=Fraction(1, 2), b=Fraction(1, 2), d=5, n=-40)
@example(a=Fraction(5, 4), b=Fraction(-2, 3), d=12, n=1)
def test_surd_power_matches_repeated_multiplication(a, b, d, n):
    x = QuadraticSurd(a, b, d)
    assume(x != 0)
    assert x**n == _power_by_multiplication(x, n)


def test_zero_bool_and_non_int_exponents():
    zero = QuadraticSurd(0, 0, 5)
    assert zero**0 == 1 and zero**3 == 0 and (zero**3).is_rational
    with pytest.raises(ZeroDivisionError):
        zero**-1
    assert GOLDEN_RATIO**True == GOLDEN_RATIO and GOLDEN_RATIO**False == 1
    for exponent in (Fraction(1, 2), 2.0):
        with pytest.raises(TypeError):
            GOLDEN_RATIO**exponent


def test_golden_power_trace_matches_multiplication_by_phi():
    power = _power_by_multiplication(GOLDEN_RATIO, -60)
    expected = []
    for _ in range(121):
        expected.append(power)
        power = power * GOLDEN_RATIO
    assert fibfunc.golden_power_trace(-60, 60) == expected
    assert fibfunc.golden_power_trace(7, 7) == [13 * GOLDEN_RATIO + 8]


def _fractions_built(monkeypatch, run):
    """Number of Fraction.__new__ calls during run() that reduce their result.

    Fraction(n, d) and Fraction(text) run a gcd there.  Calls that run none
    are not counted: on 3.10 and 3.11 Fraction's operators build their
    already reduced results with _normalize=False, and on 3.12 and later an
    int operand is first converted by Fraction(k).  `horadam._steps` writes a
    value's slots and does not call __new__ at all.
    """
    built = []
    new = Fraction.__new__

    def counting(cls, numerator=0, denominator=None, **kwargs):
        if isinstance(numerator, str) or denominator is not None and kwargs.get("_normalize", True):
            built.append(1)
        return new(cls, numerator, denominator, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", counting)
        run()
    return len(built)


MINUS_MAP = RiccatiParams(Fraction(7, 3), Fraction(5, 2), MINUS)
PLUS_MAP = RiccatiParams(Fraction(7, 3), Fraction(5, 2), PLUS)
GOLDEN_SEED = PeriodicSeed(1, RatioParams(1, 1), (0,), ((Fraction(1), Fraction(1)),))
ODD_SEED = PeriodicSeed(1, RatioParams(Fraction(3, 2), Fraction(2, 5), ODD), (0,), ((Fraction(1, 4), Fraction(5, 6)),))
NEVER = Fraction(1, 10**400)  # no golden ratio is this close by n = 500, so every step compares

PER_STEP_RUNS = {
    "iterate_orbit": lambda n: len(iterate_orbit(MINUS_MAP, Fraction(1, 2), n).trajectory) == n + 1,
    "closed_form_trajectory": lambda n: len(closed_form_trajectory(MINUS_MAP, Fraction(1, 2), n)) == n + 1,
    "forbidden_set": lambda n: len(forbidden_set(PLUS_MAP, n)) == n,
    "verify_convergence": lambda n: verify_convergence(GOLDEN_SEED, NEVER, horizon=n)[0].first_step is None,
    "ratio_trace": lambda n: len(ratio_trace(ODD_SEED, 0, -n, n).ratios) == 2 * n + 1,
    "substitution_check": lambda n: substitution_check(PLUS_MAP, Fraction(1, 3), Fraction(2, 5), n).passed,
}
# the window ratio_trace reads: it reduces its terms with small gcds of its own, counted
# per term by the window guards below; substitution_check's `terms` window is not
# memoized, so its steps and reductions are counted with its pairs
WINDOWS = [(fibfunc, "terms")]


def _memoized(function):
    """function with each result computed once per argument tuple, and handed out as a fresh list."""
    cache = {}

    def lookup(*args):
        if args not in cache:
            cache[args] = function(*args)
        return list(cache[args])

    return lookup


def _memoize_windows(monkeypatch):
    for module, window in WINDOWS:
        monkeypatch.setattr(module, window, _memoized(getattr(module, window)))


@pytest.mark.parametrize("name", sorted(PER_STEP_RUNS))
def test_ratio_streams_build_no_fraction_per_step(monkeypatch, name):
    """The Fraction count is the same at n = 50 and n = 500: no step builds one through the gcd."""
    run = PER_STEP_RUNS[name]
    _memoize_windows(monkeypatch)
    assert run(50) and run(500)  # and fills the windows' caches
    counts = [_fractions_built(monkeypatch, lambda: run(n)) for n in (50, 500)]
    assert counts[0] == counts[1]


def _python_calls(run) -> int:
    """Number of Python-level calls during run(), each resumption of a generator included.

    The collector is run first and held off during run(), so no finalizer of an earlier test's garbage
    is counted.
    """
    calls = 0

    def count(frame, event, arg) -> None:
        nonlocal calls
        calls += event == "call"

    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


READS = {
    "terms": lambda n: terms(Fraction(7, 3), Fraction(-5, 2), Fraction(1, 4), Fraction(5, 6), 0, n),
    "iterate_orbit": lambda n: iterate_orbit(PLUS_MAP, Fraction(1, 2), n),
}


@pytest.mark.parametrize("name", sorted(READS))
def test_values_are_read_with_no_call_per_value(name):
    """The Python call count of a window and of an orbit is the same at n = 50 and n = 500: no value costs a call."""
    run = READS[name]
    run(50)  # a first call may fill a cache
    assert _python_calls(lambda: run(50)) == _python_calls(lambda: run(500))


def test_a_counted_ratio_stream_costs_one_call_per_chunk():
    """The first n ratios, counted, cost one resumption of the stepper per CHUNK of them, and no call per value.

    So 500 take 500 // CHUNK - 50 // CHUNK more calls than 50, where a call per value would take 450 more.
    """

    def run(n):
        return list(ratios(Fraction(7, 3), Fraction(-5, 2), Fraction(1, 4), Fraction(5, 6), n))

    run(50)
    calls = [_python_calls(lambda: run(n)) for n in (50, 500)]
    assert calls[1] - calls[0] == 500 // horadam.CHUNK - 50 // horadam.CHUNK


def test_a_counted_ratio_stream_holds_one_chunk():
    """Reading 4000 Fibonacci ratios one at a time peaks below 2*CHUNK times the last one's size.

    A chunk is built whole before its first value is read, so the peak holds a whole chunk: chunks that
    doubled in length held 2048 values at once by the end of this read.
    """
    tracemalloc.start()
    try:
        for last in ratios(1, 1, 0, 1, 4000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sys.getsizeof(last) + sys.getsizeof(last.numerator) + sys.getsizeof(last.denominator)
    assert peak < 2 * horadam.CHUNK * size


@pytest.mark.parametrize("n", [50, 500])
def test_a_counted_ratio_stream_steps_no_pair_past_its_count(monkeypatch, n):
    """verify_convergence and forbidden_set give `ratios` the count they can read, one gcd per pair stepped.

    So a seed that never converges steps the n + 1 pairs to its horizon n, and forbidden_set the n of its
    depth; one that converges at first_step has stepped fewer than CHUNK pairs past it.
    """
    assert _gcds_run(monkeypatch, lambda: verify_convergence(GOLDEN_SEED, NEVER, horizon=n)) == n + 1
    assert _gcds_run(monkeypatch, lambda: forbidden_set(PLUS_MAP, n)) == n
    reports = []
    stepped = _gcds_run(monkeypatch, lambda: reports.extend(verify_convergence(GOLDEN_SEED, Fraction(1, 10**9), n)))
    first = reports[0].first_step
    assert first + 1 <= stepped < first + 1 + horadam.CHUNK


@pytest.mark.parametrize("zero_at", [0, 63, 64, 128])
def test_a_ratio_stream_reads_none_at_a_zero_term_and_goes_on(zero_at):
    """u(zero_at) = 0 at the stream's start, at the last value of its first chunk and at the first of its second and third.

    The seeds F(zero_at), -F(zero_at - 1) of u(k+2) = u(k+1) + u(k) make u(k) = (-1)**(zero_at - 1)*F(k - zero_at)
    by d'Ocagne's identity, zero exactly at zero_at; the stream reads None there and the ratios after it.
    """
    fib = terms(1, 1, 0, 1, -1, 200)  # fib[k + 1] = F(k)
    a, b = fib[zero_at + 1], -fib[zero_at]
    ref = reference(Fraction(1), Fraction(1), a, b, 0, 200)
    assert ref[zero_at] == 0
    expected = [ref[k + 1] / ref[k] if ref[k] else None for k in range(200)]
    assert list(ratios(1, 1, a, b, 200)) == expected


def _gcds_run(monkeypatch, run, big=0):
    """Number of calls to horadam's gcd during run(); all but `big` of them must have an operand of at most 64 bits.

    An operand's size is its bit length; a zero operand does not count, as
    gcd(0, x, y) = gcd(x, y) is a gcd of x and y.
    """
    calls, real = [], horadam.gcd

    def counting(*args):
        calls.append(min((abs(arg).bit_length() for arg in args if arg), default=0))
        return real(*args)

    with monkeypatch.context() as patch:
        patch.setattr(horadam, "gcd", counting)
        run()
    assert sum(size > 64 for size in calls) == big
    return len(calls)


@pytest.mark.parametrize("n", [50, 500])
def test_one_gcd_per_pair_stepped(monkeypatch, n):
    """One small gcd per coprime pair read, the first reducing the start.

    n ratios read n pairs, and x0 .. xn read n + 1, the closed form's too, as
    it reads the orbit; ratio_trace over [0, n] reads n + 1, and its window is memoized
    and filled first, so only the pair steps are counted.  substitution_check
    reads the orbit's n + 1 pairs and the `terms` window t(0) .. t(n+1): one
    gcd per vector stepped, the first reducing the start, and one more per
    reported t(k), reducing it, one each here, 3*n + 5 in all.
    """

    def stream():
        return list(ratios(Fraction(7, 3), Fraction(-5, 2), Fraction(1, 4), Fraction(5, 6), n))

    _memoize_windows(monkeypatch)
    ratio_trace(ODD_SEED, 0, 0, n)
    assert _gcds_run(monkeypatch, stream) == n
    assert _gcds_run(monkeypatch, lambda: iterate_orbit(MINUS_MAP, Fraction(1, 2), n)) == n + 1
    assert _gcds_run(monkeypatch, lambda: closed_form_trajectory(MINUS_MAP, Fraction(1, 2), n)) == n + 1
    assert _gcds_run(monkeypatch, lambda: ratio_trace(ODD_SEED, 0, 0, n)) == n + 1
    assert _gcds_run(monkeypatch, lambda: substitution_check(PLUS_MAP, Fraction(1, 3), Fraction(2, 5), n)) == 3 * n + 5


# each run with the number of its windows that start far out, at u(k) with |k| >= 250
WINDOW_RUNS = {
    "lucas_window(0, 1/2)": (lambda n: lucas_window(0, Fraction(1, 2), 0, n), 0),
    "lucas_window(0, 1/6)": (lambda n: lucas_window(0, Fraction(1, 6), 0, n), 0),
    "lucas_window(0, 1/2) far out": (lambda n: lucas_window(0, Fraction(1, 2), n, 2 * n), 1),  # from u(n) = 0
    "lucas_window(1/2, 1/4)": (lambda n: lucas_window(Fraction(1, 2), Fraction(1, 4), 0, n), 0),
    "terms(7/3, -5/2) across 0": (lambda n: terms(Fraction(7, 3), Fraction(-5, 2), Fraction(1, 4), Fraction(5, 6), -n // 2, n // 2), 1),
    "terms(7/3, -5/2) below 0": (lambda n: terms(Fraction(7, 3), Fraction(-5, 2), Fraction(1, 4), Fraction(5, 6), -2 * n, -n), 1),
    "terms(7/3, -5/2) far out": (lambda n: terms(Fraction(7, 3), Fraction(-5, 2), Fraction(1, 4), Fraction(5, 6), n, 2 * n), 1),
    "terms(3/2, 2/5) from 1/1000003": (lambda n: terms(Fraction(3, 2), Fraction(2, 5), Fraction(1, 1000003), Fraction(5, 7), 0, n), 0),
}


@pytest.mark.parametrize("name", sorted(WINDOW_RUNS))
def test_window_terms_take_a_bounded_number_of_small_gcds(monkeypatch, name):
    """A window far out takes one gcd of big ints, at its start; the rest have an operand of at most 64 bits.

    Their number per term does not grow with n.  The start's gcd(c, x, y)
    makes the vector content-free; then every term steps it and strips the
    term's common factor, a power of the small E*Q.  Without the short-cut
    for a zero term, or without either division that keeps the vector
    content-free, the count per term grows by about a fifth from n = 500 to
    n = 4000 on the A = 0 windows.
    """
    run, far = WINDOW_RUNS[name]
    per_term = [_gcds_run(monkeypatch, lambda: run(n), far) / n for n in (500, 4000)]
    assert per_term[1] <= 1.05 * per_term[0]


@pytest.mark.parametrize("e", [1, 7, 1000, 4097])
def test_coprime_strips_a_common_factor_in_logarithmically_many_rounds(monkeypatch, e):
    """6**e is stripped from a window term as its largest square-power factors, one gcd per round, not one round per 6.

    The term is x/c of the content-free vector (x, 1, c) read with m = 6; the one gcd more is the start's.
    """
    reduced = []

    def read(x, c):
        (values, _), = horadam._steps(1, 1, 0, x, 1, c, 1, 6, sizes=(1,))
        reduced.extend(values)

    calls = _gcds_run(monkeypatch, lambda: read(5 * 6**e, 2**e * 3 ** (2 * e)))
    assert reduced == [Fraction(5, 3**e)]
    assert calls <= e.bit_length() + 2
    assert _gcds_run(monkeypatch, lambda: read(0, 6**e)) == 1
    assert reduced[1] == 0 and reduced[1].denominator == 1
    negative = _gcds_run(monkeypatch, lambda: read(5 * 6**e, -(2**e) * 3 ** (2 * e)))
    assert reduced[2] == Fraction(-5, 3**e) and negative == calls  # the sign of c changes no round
