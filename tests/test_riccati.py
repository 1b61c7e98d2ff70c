import random
import re
from fractions import Fraction

import pytest

from aurea.exact import DomainError, QuadraticSurd
from aurea.horadam import lucas_window
from aurea.riccati import (
    RiccatiParams,
    classify_initial,
    closed_form_term,
    closed_form_trajectory,
    fixed_points,
    forbidden_set,
    iterate_orbit,
    substitution_check,
)

GOLDEN_PLUS = RiccatiParams(1, 1, "plus")
GOLDEN_MINUS = RiccatiParams(1, 1, "minus")


def _random_params(rng):
    den = rng.randint(1, 3)
    p = Fraction(rng.randint(1, 10 * den), den)
    den = rng.randint(1, 3)
    q = Fraction(rng.randint(1, 10 * den), den)
    return RiccatiParams(p, q, rng.choice(["plus", "minus"]))


def test_params_validation():
    with pytest.raises(DomainError):
        RiccatiParams(0, 1, "plus")
    with pytest.raises(DomainError):
        RiccatiParams(1, Fraction(-1, 2), "plus")
    with pytest.raises(DomainError):
        RiccatiParams(1, 1, "sideways")


def test_orbit_golden_plus():
    report = iterate_orbit(GOLDEN_PLUS, 1, 4)
    assert list(report.trajectory) == [1, Fraction(1, 2), Fraction(2, 3), Fraction(3, 5), Fraction(5, 8)]
    assert report.completed and report.status() == "completed"
    assert report.classification.label() == "regular"


def test_orbit_hits_pole():
    report = iterate_orbit(GOLDEN_PLUS, -2, 5)
    assert report.pole_step == 2
    assert list(report.trajectory) == [-2, -1]
    assert report.status() == "pole_at_step(2)"
    assert report.classification.label() == "forbidden_depth(2)"


def test_orbit_at_pole_with_zero_steps():
    report = iterate_orbit(GOLDEN_PLUS, -1, 0)
    assert report.completed
    assert report.classification.label() == "forbidden_depth(1)"


def test_orbit_golden_minus():
    report = iterate_orbit(GOLDEN_MINUS, 3, 3)
    assert list(report.trajectory) == [3, Fraction(1, 2), -2, Fraction(-1, 3)]


def test_orbit_detects_rational_fixed_point():
    params = RiccatiParams(1, 2, "plus")  # fixed points 1 and -2
    report = iterate_orbit(params, 1, 3)
    assert report.classification.label() == "fixed_point"
    assert set(report.trajectory) == {Fraction(1)}


def test_closed_form_examples():
    assert closed_form_term(GOLDEN_PLUS, 1, 3) == Fraction(3, 5)
    assert closed_form_term(GOLDEN_MINUS, 3, 1) == Fraction(1, 2)
    for params in (GOLDEN_PLUS, GOLDEN_MINUS, RiccatiParams(3, 7, "minus")):
        assert closed_form_term(params, Fraction(9, 4), 0) == Fraction(9, 4)


def test_closed_form_equals_orbit_randomised():
    rng = random.Random(47)
    checked = 0
    while checked < 40:
        params = _random_params(rng)
        den = rng.randint(1, 3)
        x0 = Fraction(rng.randint(-10 * den, 10 * den), den)
        orbit = iterate_orbit(params, x0, 60)
        if not orbit.completed:
            continue
        assert closed_form_trajectory(params, x0, 60) == list(orbit.trajectory)
        n = rng.randint(0, 60)
        assert closed_form_term(params, x0, n) == orbit.trajectory[n]
        checked += 1


def test_closed_form_rejects_forbidden_seed():
    with pytest.raises(DomainError):
        closed_form_term(GOLDEN_PLUS, -2, 5)


def paper_plus_closed_form(p, q, x0, n):
    """The paper's plus-branch closed form, kept here as an oracle for the library's
    x(k) = sign*q*s(k-1)/s(k):

        x(k) = q*(u(k) + u(k-1)*x0) / (u(k+1) + u(k)*x0)

    with u the "+" form sequence u(k+2) = p*u(k+1) + q*u(k), u(0) = 0, u(1) = 1,
    stepped here one Fraction at a time from u(-1) = 1/q.  Returns x(0) .. x(n),
    or the values before the first vanishing denominator together with its depth k.
    """
    u = [1 / Fraction(q), Fraction(0), Fraction(1)]  # u[j] = u(j - 1)
    while len(u) < n + 3:
        u.append(p * u[-1] + q * u[-2])
    values = []
    for k in range(n + 1):
        den = u[k + 2] + u[k + 1] * x0
        if den == 0:
            return values, k
        values.append(q * (u[k + 1] + u[k] * x0) / den)
    return values, None


def paper_minus_closed_form(p, q, x0, n):
    """The paper's minus-branch closed form, kept here as an oracle for the library's
    conjugated plus branch:

        x(k) = (q*u(-k) + u(-(k-1))*x0) / (q*u(-(k+1)) + u(-k)*x0)

    with u the "+" form sequence u(k+2) = p*u(k+1) + q*u(k), u(0) = 0, u(1) = 1,
    taken to negative index by backward recursion, never by a sign-symmetry
    shortcut.  Returns x(0) .. x(n), or the values before the first vanishing
    denominator together with its depth k.
    """
    u = [Fraction(1), Fraction(0)]  # u[j] = u(1 - j)
    while len(u) < n + 3:
        u.append((u[-2] - p * u[-1]) / q)
    values = []
    for k in range(n + 1):
        den = q * u[k + 2] + u[k + 1] * x0
        if den == 0:
            return values, k
        values.append((q * u[k + 1] + u[k] * x0) / den)
    return values, None


def test_minus_branch_matches_the_papers_closed_form():
    rng = random.Random(73)
    refused = 0
    for trial in range(60):
        params = _random_params(rng)
        params = RiccatiParams(params.p, params.q, "minus")
        if trial % 3 == 0:
            x0 = forbidden_set(params, rng.randint(1, 12))[-1]
        else:
            den = rng.randint(1, 3)
            x0 = Fraction(rng.randint(-10 * den, 10 * den), den)
        n = rng.randint(0, 40)
        values, depth = paper_minus_closed_form(params.p, params.q, x0, n)
        if depth is None:
            assert closed_form_trajectory(params, x0, n) == values
        else:
            refused += 1
            with pytest.raises(DomainError, match=f"^initial value {re.escape(str(x0))} is forbidden at depth {depth}$"):
                closed_form_trajectory(params, x0, n)
    assert refused >= 10


def test_minus_branch_refusal_names_the_callers_seed():
    x0 = forbidden_set(GOLDEN_MINUS, 3)[2]
    assert x0 == Fraction(3, 2)
    with pytest.raises(DomainError, match=r"^initial value 3/2 is forbidden at depth 3$"):
        closed_form_trajectory(GOLDEN_MINUS, x0, 10)


def test_fixed_points_examples():
    plus = fixed_points(GOLDEN_PLUS)
    assert plus[0] == QuadraticSurd(Fraction(-1, 2), Fraction(1, 2), 5)
    assert plus[1] == QuadraticSurd(Fraction(-1, 2), Fraction(-1, 2), 5)
    minus = fixed_points(GOLDEN_MINUS)
    assert minus[0] == QuadraticSurd(Fraction(1, 2), Fraction(1, 2), 5)
    assert fixed_points(RiccatiParams(1, 2, "plus")) == (QuadraticSurd(1), QuadraticSurd(-2))


def test_fixed_point_absorption_randomised():
    rng = random.Random(59)
    for _ in range(50):
        params = _random_params(rng)
        for point in fixed_points(params):
            assert params.apply(point) == point


def test_forbidden_set_examples():
    assert forbidden_set(GOLDEN_PLUS, 4) == [-1, -2, Fraction(-3, 2), Fraction(-5, 3)]
    assert forbidden_set(GOLDEN_MINUS, 3) == [1, 2, Fraction(3, 2)]
    assert forbidden_set(RiccatiParams(1, 2, "plus"), 2) == [-1, -3]


def test_forbidden_set_recursion_randomised():
    rng = random.Random(61)
    for _ in range(25):
        params = _random_params(rng)
        elements = forbidden_set(params, 12)
        assert elements[0] == params.pole()
        for m in range(len(elements) - 1):
            assert params.apply(elements[m + 1]) == elements[m]


def test_forbidden_plus_matches_lucas_ratios():
    u = lucas_window(1, 1, 1, 51)
    elements = forbidden_set(GOLDEN_PLUS, 50)
    for m in range(1, 51):
        assert elements[m - 1] == -u[m] / u[m - 1]


def test_forbidden_orbit_poles_at_matching_depth():
    rng = random.Random(67)
    for _ in range(10):
        params = _random_params(rng)
        for m, element in enumerate(forbidden_set(params, 8), start=1):
            report = iterate_orbit(params, element, 10)
            if m == 1:
                # the pole itself dies on the first application
                assert report.pole_step == 1 or report.classification.depth == 1
            else:
                assert report.pole_step == m
            with pytest.raises(DomainError, match=f"depth {m}"):
                closed_form_trajectory(params, element, 10)


def test_classify_examples():
    assert classify_initial(GOLDEN_PLUS, Fraction(-5, 3), 10).label() == "forbidden_depth(4)"
    surd = QuadraticSurd(Fraction(-1, 2), Fraction(1, 2), 5)
    assert classify_initial(GOLDEN_PLUS, surd, 5).label() == "fixed_point"
    assert classify_initial(GOLDEN_PLUS, 7, 10).label() == "regular"
    assert classify_initial(RiccatiParams(1, 2, "plus"), 1, 4).label() == "fixed_point"
    assert classify_initial(GOLDEN_PLUS, QuadraticSurd(1, 1, 7), 4).label() == "regular"


def test_substitution_check_fibonacci_seed():
    report = substitution_check(GOLDEN_PLUS, 0, 1, 6)
    assert list(report.t_values) == [0, 1, 1, 2, 3, 5, 8, 13]
    assert report.passed and report.pole_step is None


def test_substitution_check_scaled_lucas():
    params = RiccatiParams(1, 2, "plus")
    report = substitution_check(params, 0, 1, 5)
    assert report.passed
    u = lucas_window(1, 2, 0, 6)
    for k in range(7):
        assert report.t_values[k] == Fraction(2) ** (1 - k) * u[k]


def test_substitution_check_base_case():
    report = substitution_check(GOLDEN_PLUS, 1, 1, 0)
    assert report.passed and report.ratio_values == (Fraction(1),)


def test_substitution_check_reports_pole():
    report = substitution_check(GOLDEN_PLUS, -2, 1, 6)
    assert report.pole_step == 2
    assert all(report.orbit_matches) and all(report.closed_form_matches)


def test_substitution_check_randomised():
    rng = random.Random(71)
    checked = 0
    while checked < 20:
        den = rng.randint(1, 3)
        p = Fraction(rng.randint(1, 8 * den), den)
        q = Fraction(rng.randint(1, 8 * den), den)
        params = RiccatiParams(p, q, "plus")
        t0 = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
        t1 = Fraction(rng.randint(1, 8), rng.randint(1, 3))
        report = substitution_check(params, t0, t1, 30)
        if report.pole_step is not None:
            continue
        assert report.passed
        checked += 1


def test_substitution_check_input_validation():
    with pytest.raises(DomainError):
        substitution_check(GOLDEN_MINUS, 0, 1, 3)
    with pytest.raises(DomainError):
        substitution_check(GOLDEN_PLUS, 1, 0, 3)
