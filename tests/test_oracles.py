"""The library's public readers against `bench/oracles.py`, which never imports `aurea`.

The oracles are written from the mathematics alone: Riccati orbits by
unreduced integer projective steps and Moebius-matrix powers, two-term
recurrences by integer Lucas fast doubling, and decimals by integer square
roots with a bracketing error bound.  So a fault in the library's one kernel
(`horadam._start`, `_steps`, `_orbit`) cannot hide here by agreeing with
itself, as it can in the library's own cross-checks.

Each oracle value is an unreduced (num, den) pair; a library value matches
it when the cross-multiplied pairs agree and the library's Fraction is in
lowest terms with a positive denominator.  A Riccati orbit stops at the first
oracle pair with denominator 0: its index is the step where the orbit meets
the pole, and the depth at which the closed form refuses x0.
"""

import importlib.util
import re
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from aurea.exact import DomainError, QuadraticSurd, decimal_str  # noqa: E402
from aurea.horadam import FIBONACCI, RecurrenceParams, horadam_term, lucas_window, terms, window  # noqa: E402
from aurea.riccati import (  # noqa: E402
    MINUS,
    PLUS,
    Classification,
    RiccatiParams,
    closed_form_term,
    closed_form_trajectory,
    forbidden_set,
    iterate_orbit,
)


def _load_oracles():
    """bench/oracles.py as a module of its own, loaded by path so that no sys.path entry or bench file changes."""
    path = Path(__file__).resolve().parent.parent / "bench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("_reference_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()

PROPERTY = settings(max_examples=150, deadline=None)

positive = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)
rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)
seeds = rationals | st.just(Fraction(0))
nonzero = rationals.filter(lambda x: x != 0)
coefficients = rationals | st.just(Fraction(0))  # A = 0 and p = 0 included


def matches(value: Fraction, pair: tuple[int, int]) -> bool:
    """value equals the unreduced pair num/den, and is itself in lowest terms with a positive denominator."""
    num, den = pair
    reduced = value.denominator > 0 and gcd(value.numerator, value.denominator) == 1
    return reduced and value.numerator * den == num * value.denominator


def _oracle_orbit(params: RiccatiParams, x0: Fraction, n: int) -> tuple[list[tuple[int, int]], int | None]:
    """The oracle's pairs x(0) .. x(n) before the first with denominator 0, and that pair's index, or None."""
    pairs = oracles.riccati_orbit(params.p, params.q, params.branch == PLUS, x0, n)
    for k, (_, den) in enumerate(pairs):
        if den == 0:
            return pairs[:k], k
    return pairs, None


@st.composite
def orbit_cases(draw):
    """(params, x0, n, depth): x0 free, or forbidden at depth n - 1, n or n + 1 (depth None when free)."""
    params = RiccatiParams(draw(positive), draw(positive), draw(st.sampled_from([PLUS, MINUS])))
    n = draw(st.integers(0, 40))
    depth = draw(st.sampled_from([None, n - 1, n, n + 1]))
    if depth is None or depth < 1:
        return params, draw(rationals), n, None
    return params, forbidden_set(params, depth)[-1], n, depth


GOLDEN = RiccatiParams(1, 1, PLUS)


@PROPERTY
@given(case=orbit_cases())
@example(case=(GOLDEN, Fraction(-1), 0, None))  # the pole itself, no step taken
@example(case=(GOLDEN, Fraction(-1), 1, 1))
@example(case=(RiccatiParams(Fraction(7, 3), Fraction(5, 2), MINUS), Fraction(1, 2), 0, None))
def test_iterate_orbit_matches_the_oracle_orbit(case):
    params, x0, n, depth = case
    pairs, pole = _oracle_orbit(params, x0, n)
    if depth is not None:
        assert pole == (depth if depth <= n else None)  # forbidden_set names the oracle's depth
    report = iterate_orbit(params, x0, n)
    assert report.pole_step == pole
    assert len(report.trajectory) == len(pairs)
    assert all(matches(value, pair) for value, pair in zip(report.trajectory, pairs))
    if pole is not None:
        assert report.classification == Classification("forbidden", pole)


@PROPERTY
@given(case=orbit_cases())
@example(case=(GOLDEN, Fraction(-1), 0, None))
@example(case=(GOLDEN, Fraction(-1), 1, 1))
def test_closed_form_matches_the_oracle_orbit_and_term(case):
    """Values against the stepped oracle, x(n) against its matrix power, and the refusal at the oracle's pole."""
    params, x0, n, _ = case
    pairs, pole = _oracle_orbit(params, x0, n)
    if pole is not None:
        message = f"^initial value {re.escape(str(x0))} is forbidden at depth {pole}$"
        with pytest.raises(DomainError, match=message):
            closed_form_trajectory(params, x0, n)
        with pytest.raises(DomainError, match=message):
            closed_form_term(params, x0, n)
        return
    values = closed_form_trajectory(params, x0, n)
    assert len(values) == n + 1
    assert all(matches(value, pair) for value, pair in zip(values, pairs))
    assert matches(closed_form_term(params, x0, n), oracles.riccati_term(params.p, params.q, params.branch == PLUS, x0, n))


@PROPERTY
@given(w0=seeds, w1=seeds, p=coefficients, q=nonzero, start=st.integers(-40, 40), length=st.integers(0, 20))
@example(w0=Fraction(0), w1=Fraction(0), p=Fraction(1), q=Fraction(-1), start=-5, length=10)  # zero seeds
@example(w0=Fraction(1, 3), w1=Fraction(2, 7), p=Fraction(0), q=Fraction(5, 2), start=-12, length=25)  # A = 0
@example(w0=Fraction(0), w1=Fraction(1), p=Fraction(1), q=Fraction(-1), start=-30, length=1)
def test_window_matches_the_oracle_recurrence(w0, w1, p, q, start, length):
    values = window(RecurrenceParams(w0, w1, p, q), start, length).values
    assert len(values) == length
    assert all(matches(value, oracles.horadam(w0, w1, p, q, start + i)) for i, value in enumerate(values))


whole = st.integers(-9, 9).map(Fraction)
RATIONAL_CASE = RecurrenceParams(Fraction(1, 3), Fraction(-2, 7), Fraction(5, 4), Fraction(-3, 2))


def _at_far_binary_edges(test):
    """Examples at n = 0 and n = ±2**k, ±(2**k ± 1), where the bits of |n| that the power loop reads turn over."""
    edges = [0] + [sign * (2**k + d) for k in (1, 6, 12) for d in (-1, 0, 1) for sign in (1, -1)]
    for n in edges:
        test = example(params=FIBONACCI, n=n)(test)
        test = example(params=RATIONAL_CASE, n=n)(test)
    return test


@PROPERTY
@given(
    params=st.builds(RecurrenceParams, seeds, seeds, whole | coefficients, whole.filter(bool) | nonzero),
    n=st.integers(-5000, 5000),
)
@_at_far_binary_edges
def test_far_terms_match_the_oracle_recurrence(params, n):
    """horadam_term and the pair terms reads at n, far past the windows above, against the oracle's Lucas doubling."""
    w0, w1, p, q = params.w0, params.w1, params.p, params.q
    assert matches(horadam_term(params, n), oracles.horadam(w0, w1, p, q, n))
    pair = terms(p, -q, w0, w1, n, n + 1)
    assert all(matches(value, oracles.horadam(w0, w1, p, q, k)) for value, k in zip(pair, (n, n + 1), strict=True))


@PROPERTY
@given(A=coefficients, B=nonzero, lo=st.integers(-40, 40), width=st.integers(1, 20))
@example(A=Fraction(0), B=Fraction(3, 2), lo=-9, width=18)  # A = 0: every other term vanishes
@example(A=Fraction(1), B=Fraction(1), lo=-20, width=40)
def test_lucas_window_matches_the_oracle_run(A, B, lo, width):
    hi = lo + width
    values = lucas_window(A, B, lo, hi)
    expected = oracles.recurrence_run(Fraction(0), Fraction(1), A, B, lo, hi)
    assert all(matches(value, (e.numerator, e.denominator)) for value, e in zip(values, expected, strict=True))


@PROPERTY
@given(a=rationals, b=seeds, d=st.integers(1, 60), digits=st.integers(0, 60))
@example(a=Fraction(5, 2), b=Fraction(0), d=1, digits=0)  # a tie, away from zero
@example(a=Fraction(-1, 2), b=Fraction(0), d=1, digits=0)
@example(a=Fraction(-1, 3), b=Fraction(0), d=1, digits=0)  # rounds to zero, no sign
@example(a=Fraction(1, 2), b=Fraction(1, 2), d=5, digits=40)
@example(a=Fraction(1, 2), b=Fraction(-1, 2), d=5, digits=40)
@example(a=Fraction(0), b=Fraction(1), d=49, digits=3)  # a square radicand
def test_decimal_str_matches_the_oracle_decimal(a, b, d, digits):
    value = QuadraticSurd(a, b, d)
    assert decimal_str(value, digits) == oracles.decimal(value.a, value.b, value.d, digits)
    assert decimal_str(a, digits) == oracles.decimal(a, Fraction(0), 1, digits)
