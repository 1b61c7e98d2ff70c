"""Differential tests for the integer recurrence kernel in `aurea.horadam`.

`walk`, `terms` and `fast_term` clear denominators once, power the integer
companion matrix to a window's start and step ints from there, and `ratios`
steps the same ints from index 0; here they are
checked against a plain-Fraction stepper that does none of this, on seeds
whose denominators differ from each other and from the coefficients'.
"""

from fractions import Fraction
from itertools import islice

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from aurea.exact import GOLDEN_RATIO, QuadraticSurd, abs_lt  # noqa: E402
from aurea.fibfunc import PeriodicSeed, verify_convergence  # noqa: E402
from aurea.horadam import RecurrenceParams, fast_term, horadam_term, ratios, terms, walk  # noqa: E402
from aurea.limits import ODD, STANDARD, RatioParams, cf_convergent, nesting_check, ratio_orbit  # noqa: E402

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


@PROPERTY
@given(A=rationals, B=nonzero, a=rationals, b=rationals, n=index, m=index)
@example(A=Fraction(2, 3), B=Fraction(-5, 9), a=Fraction(1, 4), b=Fraction(-5, 6), n=-150, m=150)
@example(A=Fraction(-7, 2), B=Fraction(3, 8), a=Fraction(-3, 4), b=Fraction(1, 6), n=-1, m=0)
def test_walk_and_terms_match_the_fraction_stepper(A, B, a, b, n, m):
    lo, hi = min(n, m), max(n, m)
    ref = reference(A, B, a, b, lo, hi)
    assert walk(A, B, a, b, n) == (ref[n], ref[n + 1])
    values = terms(A, B, a, b, lo, hi)
    assert values == [ref[k] for k in range(lo, hi + 1)]
    assert all(type(value) is Fraction for value in values)


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
def test_fast_term_equals_horadam_term_far_out(w0, w1, p, q, n):
    params = RecurrenceParams(w0, w1, p, q)
    assert fast_term(params, n) == horadam_term(params, n)


@PROPERTY
@given(A=rationals, B=nonzero, a=rationals, b=rationals, count=st.integers(0, 120))
@example(A=Fraction(2, 3), B=Fraction(-5, 9), a=Fraction(0), b=Fraction(1, 4), count=40)
@example(A=Fraction(1), B=Fraction(-1), a=Fraction(1), b=Fraction(1), count=12)  # u(2) = 0, period 6
def test_ratios_match_the_fraction_stepper(A, B, a, b, count):
    """u(k+1)/u(k) for k = 0 .. count, and None at every k with u(k) = 0."""
    ref = reference(A, B, a, b, 0, count)
    expected = [ref[k + 1] / ref[k] if ref[k] != 0 else None for k in range(count + 1)]
    assert list(islice(ratios(A, B, a, b), count + 1)) == expected


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
    """A window away from 0 reaches its start by matrix powers; the window from 0 steps every term."""
    lo, hi = start, start + width
    assert terms(A, B, a, b, lo, hi) == terms(A, B, a, b, 0, hi)[lo:]
    lo, hi = -start - width, -start
    assert terms(A, B, a, b, lo, hi) == terms(A, B, a, b, lo, 0)[: hi - lo + 1]


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
    assert walk(1, 1, 0, 1, 400) == (fib[400], fib[401])
    assert walk(1, 1, 0, 1, -7) == (13, -8)
    assert terms(1, 1, 0, 1, 0, 401) == fib
    assert terms(2, -1, 3, 5, 0, 5) == [3, 5, 7, 9, 11, 13]
    for m in (1, 2, 10, 400):
        assert cf_convergent(m) == Fraction(fib[m], fib[m + 1])
    assert nesting_check(60).passed


def _first_hit_oracle(A, B, f0, f1, target, eps, horizon):
    """The formulation verify_convergence replaced: abs_lt(ratio - target, eps) per step of horadam.ratios."""
    first_step, achieved = None, None
    for n, ratio in zip(range(horizon + 1), ratios(A, B, f0, f1)):
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
