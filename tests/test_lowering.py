"""Property tests for the lowering of every recurrence to the one "+" form kernel.

Each parameter convention gets its own reference stepper here, written out
in that convention's own signs, so a sign slip where a parameter type is
converted to (A, B) fails against the reference instead of cancelling out.
The conjugacy properties check what lets the library carry one branch and
one parity: the minus branch is the plus branch under x -> -x, and the odd
form is the standard form with alternating signs.  The closed-form
properties check the one sequence s(k) that `riccati` reads its closed form
and forbidden set from, against the paper's formula, the iterated map's pole
step and the pole's preimage chain; the root formula checks the fixed points
that `classify_initial` reads off the orbit.
"""

import re
from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from test_riccati import paper_plus_closed_form  # noqa: E402

from aurea.exact import DomainError, QuadraticSurd  # noqa: E402
from aurea.fibfunc import PeriodicSeed, extend, ratio_trace  # noqa: E402
from aurea.horadam import (  # noqa: E402
    RecurrenceParams,
    _orbit,
    fast_term,
    fundamental_lucas,
    horadam_term,
    lucas_window,
    window,
)
from aurea.limits import BACKWARD, FORWARD, ODD, STANDARD, RatioParams, limit_estimate, ratio_orbit  # noqa: E402
from aurea.riccati import (  # noqa: E402
    MINUS,
    PLUS,
    RiccatiParams,
    classify_initial,
    closed_form_trajectory,
    fixed_points,
    forbidden_set,
    iterate_orbit,
)

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=7)
nonzero = rationals.filter(lambda x: x != 0)
positive = st.fractions(min_value=Fraction(1, 7), max_value=9, max_denominator=7)
index = st.integers(-80, 80)

PROPERTY = settings(max_examples=60, deadline=None)


def canonical_terms(w0, w1, p, q, lo, hi):
    """{k: w(k)} for w(k+2) = p*w(k+1) - q*w(k), stepped out from k = 0 both ways."""
    values = {0: w0, 1: w1}
    for k in range(2, hi + 1):
        values[k] = p * values[k - 1] - q * values[k - 2]
    for k in range(-1, lo - 1, -1):
        values[k] = (p * values[k + 1] - values[k + 2]) / q
    return values


def plus_terms(u0, u1, A, B, lo, hi):
    """{k: u(k)} for u(k+2) = A*u(k+1) + B*u(k)."""
    values = {0: u0, 1: u1}
    for k in range(2, hi + 1):
        values[k] = A * values[k - 1] + B * values[k - 2]
    for k in range(-1, lo - 1, -1):
        values[k] = (values[k + 2] - A * values[k + 1]) / B
    return values


def ratio_terms(f0, f1, r, s, parity, lo, hi):
    """{k: f(k)} for f(k+2) = r*f(k+1) + s*f(k), or -r*f(k+1) + s*f(k) for the odd form."""
    values = {0: f0, 1: f1}
    for k in range(2, hi + 1):
        middle = r * values[k - 1]
        values[k] = (middle if parity == STANDARD else -middle) + s * values[k - 2]
    for k in range(-1, lo - 1, -1):
        middle = r * values[k + 1]
        values[k] = (values[k + 2] - (middle if parity == STANDARD else -middle)) / s
    return values


@PROPERTY
@given(w0=rationals, w1=rationals, p=rationals, q=nonzero, n=index, m=index)
def test_horadam_matches_the_canonical_stepper(w0, w1, p, q, n, m):
    params = RecurrenceParams(w0, w1, p, q)
    lo, hi = min(n, m), max(n, m)
    reference = canonical_terms(w0, w1, p, q, lo, hi)
    assert horadam_term(params, n) == reference[n]
    assert fast_term(params, n) == reference[n]
    run = window(params, lo, hi - lo + 1)
    assert run.start == lo
    assert list(run.values) == [reference[k] for k in range(lo, hi + 1)]
    assert all(type(value) is Fraction for value in run.values)


@PROPERTY
@given(A=rationals, B=nonzero, n=index, m=index)
def test_fundamental_lucas_matches_the_plus_stepper(A, B, n, m):
    lo, hi = min(n, m), max(n, m)
    reference = plus_terms(Fraction(0), Fraction(1), A, B, lo, hi)
    assert fundamental_lucas(A, B, n) == reference[n]
    assert lucas_window(A, B, lo, hi) == [reference[k] for k in range(lo, hi + 1)]


@PROPERTY
@given(
    f0=rationals,
    f1=rationals,
    r=positive,
    s=positive,
    parity=st.sampled_from([STANDARD, ODD]),
    n_min=st.integers(-80, 0),
    n_max=st.integers(1, 80),
    n=index,
    m=index,
)
def test_lattices_match_the_ratio_stepper(f0, f1, r, s, parity, n_min, n_max, n, m):
    kind = RatioParams(r, s, parity)
    seed = PeriodicSeed(1, kind, (0,), ((f0, f1),))
    reference = ratio_terms(f0, f1, r, s, parity, min(n_min, n, m), max(n_max, n + 1, m + 1))
    (trace,) = extend(seed, n_min, n_max)
    assert list(trace.values) == [reference[k] for k in range(n_min, n_max + 1)]
    if f0 == 0 and f1 == 0:
        return
    lo, hi = min(n, m), max(n, m)
    ratios = ratio_trace(seed, 0, lo, hi)
    assert list(ratios.values) == [reference[k] for k in range(lo, hi + 2)]
    zeros = [k for k in range(lo, hi + 1) if reference[k + 1] == 0]
    assert ratios.ratio_undefined_at == (zeros[0] if zeros else None)
    stop = zeros[0] if zeros else hi + 1
    assert list(ratios.ratios) == [reference[k] / reference[k + 1] for k in range(lo, stop)]


@PROPERTY
@given(
    f0=rationals,
    f1=rationals,
    r=positive,
    s=positive,
    parity=st.sampled_from([STANDARD, ODD]),
    n=st.integers(0, 80),
)
def test_limit_estimate_matches_the_ratio_stepper_both_ways(f0, f1, r, s, parity, n):
    params = RatioParams(r, s, parity)
    reference = ratio_terms(f0, f1, r, s, parity, -n, n + 1)
    for direction, last in ((FORWARD, n), (BACKWARD, -n)):
        if reference[last] == 0:
            with pytest.raises(DomainError):
                limit_estimate(params, (f0, f1), direction, n)
        else:
            estimate = limit_estimate(params, (f0, f1), direction, n)
            assert estimate.ratio == reference[last + 1] / reference[last]


def _closed_form_or_refusal(params, x0, n):
    """closed_form_trajectory's values and None, or None and the text of its refusal."""
    try:
        return closed_form_trajectory(params, x0, n), None
    except DomainError as exc:
        return None, str(exc)


@PROPERTY
@given(
    p=positive,
    q=positive,
    x0=rationals,
    forbidden=st.integers(0, 10),
    n=st.integers(0, 40),
    depth=st.integers(1, 12),
)
def test_minus_branch_is_the_plus_branch_under_negation(p, q, x0, forbidden, n, depth):
    minus, plus = RiccatiParams(p, q, MINUS), RiccatiParams(p, q, PLUS)
    if forbidden:
        x0 = forbidden_set(minus, forbidden)[-1]
    orbit, mirror = iterate_orbit(minus, x0, n), iterate_orbit(plus, -x0, n)
    assert orbit.trajectory == tuple(-x for x in mirror.trajectory)
    assert orbit.pole_step == mirror.pole_step
    assert orbit.classification == mirror.classification
    values, refusal = _closed_form_or_refusal(minus, x0, n)
    mirror_values, mirror_refusal = _closed_form_or_refusal(plus, -x0, n)
    if mirror_refusal is None:
        assert refusal is None and values == [-x for x in mirror_values] == list(orbit.trajectory)
    else:  # the same depth, named with the caller's x0
        assert refusal == mirror_refusal.replace(f"initial value {-x0} ", f"initial value {x0} ")
    assert forbidden_set(minus, depth) == [-x for x in forbidden_set(plus, depth)]
    assert minus.pole() == -plus.pole()
    a, b = fixed_points(plus)
    assert fixed_points(minus) == (-b, -a)
    assert classify_initial(minus, x0, depth) == classify_initial(plus, -x0, depth)


@PROPERTY
@given(
    f0=rationals,
    f1=rationals,
    r=positive,
    s=positive,
    direction=st.sampled_from([FORWARD, BACKWARD]),
    n=st.integers(0, 60),
)
def test_odd_form_is_the_standard_form_with_alternating_signs(f0, f1, r, s, direction, n):
    odd, standard = RatioParams(r, s, ODD), RatioParams(r, s, STANDARD)
    try:
        mirror = limit_estimate(standard, (f0, -f1), direction, n)
    except DomainError:
        with pytest.raises(DomainError):
            limit_estimate(odd, (f0, f1), direction, n)
    else:
        estimate = limit_estimate(odd, (f0, f1), direction, n)
        assert estimate.ratio == -mirror.ratio
        assert estimate.target == -mirror.target
        assert estimate.claimed == (None if mirror.claimed is None else -mirror.claimed)
    orbit, mirror_orbit = ratio_orbit(odd, f0, n), ratio_orbit(standard, -f0, n)
    assert orbit.trajectory == tuple(-g for g in mirror_orbit.trajectory)
    assert orbit.pole_step == mirror_orbit.pole_step


@PROPERTY
@given(
    p=positive,
    q=positive,
    branch=st.sampled_from([PLUS, MINUS]),
    x0=rationals,
    forbidden=st.integers(0, 12),
    n=st.integers(0, 40),
)
def test_closed_form_is_the_papers_plus_branch_formula(p, q, branch, x0, forbidden, n):
    """The minus branch goes through the conjugacy: its orbit of x0 is the plus formula's orbit of -x0, negated."""
    params = RiccatiParams(p, q, branch)
    if forbidden:
        x0 = forbidden_set(params, forbidden)[-1]
    sign = 1 if branch == PLUS else -1
    values, depth = paper_plus_closed_form(p, q, sign * x0, n)
    if depth is None:
        assert closed_form_trajectory(params, x0, n) == [sign * x for x in values]
    else:
        with pytest.raises(DomainError, match=f"^initial value {re.escape(str(x0))} is forbidden at depth {depth}$"):
            closed_form_trajectory(params, x0, n)


@PROPERTY
@given(
    p=positive,
    q=positive,
    branch=st.sampled_from([PLUS, MINUS]),
    x0=rationals,
    forbidden=st.integers(0, 14),
    n=st.integers(1, 12),
)
@example(p=Fraction(7, 3), q=Fraction(5, 2), branch=PLUS, x0=Fraction(0), forbidden=5, n=5)
@example(p=Fraction(7, 3), q=Fraction(5, 2), branch=MINUS, x0=Fraction(0), forbidden=6, n=5)
@example(p=Fraction(7, 3), q=Fraction(5, 2), branch=PLUS, x0=Fraction(0), forbidden=1, n=1)
def test_forbidden_depth_is_where_the_iterated_orbit_meets_the_pole(p, q, branch, x0, forbidden, n):
    """classify_initial says forbidden_depth(m), and the closed form refuses at depth m
    (its s(m) = 0), exactly when iterate_orbit hits the pole at step m."""
    params = RiccatiParams(p, q, branch)
    if forbidden:
        x0 = forbidden_set(params, forbidden)[-1]
    orbit = iterate_orbit(params, x0, n)
    label = classify_initial(params, x0, n).label()
    if orbit.pole_step is None:
        assert not label.startswith("forbidden")
        assert closed_form_trajectory(params, x0, n) == list(orbit.trajectory)
    else:
        assert label == f"forbidden_depth({orbit.pole_step})"
        with pytest.raises(DomainError, match=f" is forbidden at depth {orbit.pole_step}$"):
            closed_form_trajectory(params, x0, n)


def _multiplied_closed_form(params, x0, n):
    """The closed form with one Fraction multiply per value, sign*q*s(k-1)/s(k), or the text of its refusal."""
    A, B = params.plus_form()
    s_ratios, stop = _orbit((1, B, A), 1, A + params.sign * x0, n)
    if stop is not None:
        return None, f"initial value {x0} is forbidden at depth {stop + 1}"
    return [x0] + [params.sign * params.q * ratio for ratio in s_ratios], None


@PROPERTY
@given(
    p=positive,
    q=positive | st.sampled_from([Fraction(6, 35), Fraction(35, 6), Fraction(12)]),
    branch=st.sampled_from([PLUS, MINUS]),
    x0=rationals,
    beyond=st.sampled_from([None, -1, 0, 1]),
    n=st.integers(0, 40),
)
@example(p=Fraction(7, 3), q=Fraction(5, 2), branch=MINUS, x0=Fraction(1, 2), beyond=None, n=30)
@example(p=Fraction(1), q=Fraction(6, 35), branch=PLUS, x0=Fraction(0), beyond=0, n=1)
def test_closed_form_values_equal_the_multiplied_ratios(p, q, branch, x0, beyond, n):
    """Each value, reduced with gcds against q's parts, is the reduced Fraction sign*q*ratio.

    An x0 forbidden at depth n + beyond (n - 1, n or n + 1) is refused with the same text, or runs.
    """
    params = RiccatiParams(p, q, branch)
    if beyond is not None and n + beyond >= 1:
        x0 = forbidden_set(params, n + beyond)[-1]
    values, refusal = _closed_form_or_refusal(params, x0, n)
    assert (values, refusal) == _multiplied_closed_form(params, x0, n)
    for value in values or ():
        assert value.denominator > 0 and gcd(value.numerator, value.denominator) == 1


@st.composite
def riccati_and_candidate(draw):
    """A map, square discriminants included, and an x0 near or at one of its fixed points."""
    branch = draw(st.sampled_from([PLUS, MINUS]))
    p = draw(positive)
    if draw(st.booleans()):
        q = draw(positive)
    else:  # q = a*(p + a) puts the rational a among the roots of x**2 + p*x - q
        a = draw(positive)
        q = a * (p + a)
    params = RiccatiParams(p, q, branch)
    root = draw(st.sampled_from(fixed_points(params)))
    x0 = draw(
        st.one_of(
            st.just(root),
            nonzero.map(lambda shift: root + shift),
            rationals,
            st.builds(QuadraticSurd, rationals, nonzero, st.sampled_from([2, 3, 5, 6, 7])),  # other radicands
        )
    )
    return params, x0


@PROPERTY
@given(case=riccati_and_candidate(), depth=st.integers(1, 20))
@example(case=(RiccatiParams(1, 2, PLUS), Fraction(1)), depth=3)
@example(case=(RiccatiParams(1, 2, PLUS), QuadraticSurd(-2)), depth=3)
@example(case=(RiccatiParams(1, 2, MINUS), Fraction(2)), depth=3)
@example(case=(RiccatiParams(1, 2, MINUS), Fraction(1)), depth=3)
def test_classify_says_fixed_point_exactly_at_the_roots(case, depth):
    """The orbit's test apply(x0) == x0 agrees with the roots of x**2 + sign*p*x - q."""
    params, x0 = case
    is_root = any(root == x0 for root in fixed_points(params))
    assert (classify_initial(params, x0, depth).kind == "fixed_point") == is_root


@PROPERTY
@given(p=positive, q=positive, branch=st.sampled_from([PLUS, MINUS]), depth=st.integers(1, 30))
def test_forbidden_set_is_the_preimage_chain_of_the_pole(p, q, branch, depth):
    pole = -p if branch == PLUS else p  # the zero of the map's denominator x + p or x - p
    chain = [pole]
    while len(chain) < depth:
        chain.append(q / chain[-1] + pole)
    assert forbidden_set(RiccatiParams(p, q, branch), depth) == chain
