"""The certificate's N against a brute-force scan of its definition, and the cost of finding it.

N is the least n >= 2 with tail_bound(n) = c/(1 + M)**(n - 2) < epsilon;
`certificate` estimates it from logs and fixes it up with exact tests, and the
scan here walks n up one step at a time instead.  The estimate lands on N or
next to it, so the fix-up makes at most three exact tests; a profiler counts them.
"""

import sys
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from aurea.exact import DomainError  # noqa: E402
from aurea.limits import certificate  # noqa: E402


def scanned_N(f0, fk, epsilon):
    M = fk / (fk + f0)
    c = abs(f0 * f0 + f0 * fk - fk * fk) / ((2 * fk + f0) * (fk + f0))
    n, bound = 2, c
    while bound >= epsilon:
        n, bound = n + 1, bound / (1 + M)
    return n


@settings(max_examples=60, deadline=None)
@given(
    f0=st.fractions(min_value=0, max_value=4, max_denominator=4),
    fk=st.fractions(min_value=Fraction(1, 2), max_value=4, max_denominator=4),
    digits=st.integers(0, 300),
    mantissa=st.integers(1, 99),
)
@example(f0=Fraction(1), fk=Fraction(1), digits=0, mantissa=1)
@example(f0=Fraction(0), fk=Fraction(1), digits=1, mantissa=5)  # epsilon equals c = 1/2
@example(f0=Fraction(1), fk=Fraction(1), digits=1, mantissa=2)  # c = 1/6 < epsilon = 1/5: N = 2, below the log estimate
def test_certificate_N_matches_the_scan(f0, fk, digits, mantissa):
    epsilon = Fraction(mantissa, 10**digits)
    assert certificate(f0, fk, epsilon).N == scanned_N(f0, fk, epsilon)


def _exact_tests(f0, fk, epsilon) -> int:
    """Calls to certificate's exact test `below`; a profiler stops the search with AssertionError past the third."""
    calls = 0

    def count(frame, event, arg) -> None:
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "below" and frame.f_globals["__name__"] == "aurea.limits":
            calls += 1
            if calls > 3:
                raise AssertionError(f"certificate({f0}, {fk}, {epsilon}) made more than 3 exact tests")

    sys.setprofile(count)
    try:
        certificate(f0, fk, epsilon)
    except DomainError:  # past the search budget: refused before any exact test
        pass
    finally:
        sys.setprofile(None)
    return calls


@settings(max_examples=100, deadline=None)
@given(
    f0=st.fractions(min_value=0, max_value=10, max_denominator=10),
    fk=st.fractions(min_value=Fraction(1, 10), max_value=10, max_denominator=10),
    digits=st.integers(0, 400),
    mantissa=st.integers(1, 99),
)
@example(f0=Fraction(1), fk=Fraction(1), digits=9, mantissa=1)  # N = 49
@example(f0=Fraction(0), fk=Fraction(1), digits=80, mantissa=1)  # N = 267
@example(f0=Fraction(1), fk=Fraction(1), digits=1, mantissa=2)  # N = 2, below the log estimate
def test_certificate_finds_N_in_at_most_three_exact_tests(f0, fk, digits, mantissa):
    """No search walks N one step at a time from a poor estimate: each exact test powers big ints."""
    assert _exact_tests(f0, fk, Fraction(mantissa, 10**digits)) <= 3
