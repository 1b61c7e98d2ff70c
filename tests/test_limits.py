import random
import time
from fractions import Fraction

import pytest

from aurea import limits
from aurea.exact import GOLDEN_RATIO, DomainError, QuadraticSurd, abs_le, abs_lt, quadratic_roots
from aurea.limits import (
    RatioParams,
    certificate,
    cf_convergent,
    closed_form_ratio,
    difference_identity_check,
    dominant_root,
    limit_estimate,
    nesting_check,
    ratio_orbit,
)

STD = RatioParams(1, 1, "standard")
ODD = RatioParams(1, 1, "odd")


def _fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_ratio_orbit_examples():
    assert list(ratio_orbit(STD, 0, 4).trajectory) == [0, 1, Fraction(1, 2), Fraction(2, 3), Fraction(3, 5)]
    assert list(ratio_orbit(RatioParams(1, 2, "standard"), 1, 3).trajectory) == [
        1,
        Fraction(1, 3),
        Fraction(3, 5),
        Fraction(5, 11),
    ]
    assert ratio_orbit(STD, -1, 3).pole_step == 1


def test_ratio_orbit_odd_map():
    # odd parity iterates g -> 1/(-r + s*g)
    report = ratio_orbit(ODD, 3, 3)
    assert list(report.trajectory) == [3, Fraction(1, 2), -2, Fraction(-1, 3)]


def test_closed_form_ratio_examples():
    assert closed_form_ratio(0, 4) == Fraction(3, 5)
    assert closed_form_ratio(Fraction(-9, 5), 0) == Fraction(-9, 5)
    assert closed_form_ratio(-3, 2) == 2


def test_certificate_golden_example():
    cert = certificate(1, 1, Fraction(1, 10**6))
    assert cert.M == Fraction(1, 2)
    assert cert.c == Fraction(1, 6)
    assert cert.N == 32
    assert cert.tail_bound(32) < Fraction(1, 10**6) < cert.tail_bound(31)


def test_certificate_zero_seed():
    cert = certificate(0, 1, Fraction(1, 100))
    assert cert.M == 1 and cert.c == Fraction(1, 2)


def test_certificate_minimality_base_case():
    assert certificate(1, 1, 1).N == 2


def test_certificate_rejects_bad_hypotheses():
    with pytest.raises(DomainError):
        certificate(1, 0, Fraction(1, 10))
    with pytest.raises(DomainError):
        certificate(-1, 2, Fraction(1, 10))
    with pytest.raises(DomainError):
        certificate(1, 1, 0)


def _case2_orbit(f0, fk, length):
    values = [Fraction(f0) / fk]
    for _ in range(length):
        values.append(1 / (1 + values[-1]))
    return values


@pytest.mark.parametrize("digits, N", [(3, 15), (100, 566), (1000, 5677), (6000, 34071)])
def test_certificate_N_for_the_golden_seed(digits, N):
    assert certificate(1, 1, Fraction(1, 10**digits)).N == N


@pytest.mark.parametrize("k", [1, 5, 40, 300])
@pytest.mark.parametrize("nudge, extra", [(0, 3), (Fraction(1, 10**30), 2), (Fraction(-1, 10**30), 3)])
def test_certificate_N_at_the_boundary(k, nudge, extra):
    # (1, 1) gives c = 1/6 and 1 + M = 3/2, so tail_bound(k + 2) = c*(2/3)**k; an
    # epsilon a hair off it has a log estimate that the exact test must correct
    epsilon = Fraction(1, 6) * Fraction(2, 3) ** k * (1 + nudge)
    assert certificate(1, 1, epsilon).N == k + extra


def test_certificate_far_epsilon_is_prompt():
    # the N search is logarithmic: C12's 5 s budget, not a scan of 170364 steps
    start = time.perf_counter()
    cert = certificate(1, 1, Fraction(1, 10**30000))
    elapsed = time.perf_counter() - start
    assert cert.N == 170364
    assert cert.tail_bound(cert.N) < cert.epsilon <= cert.tail_bound(cert.N - 1)
    assert elapsed < 5.0, f"certificate took {elapsed:.2f}s"


def test_certificate_refuses_a_search_past_its_budget():
    with pytest.raises(DomainError):
        certificate(1, 1, Fraction(1, 10**600_000))
    with pytest.raises(DomainError):
        certificate(10**400, 1, Fraction(1, 10))  # M = 1/(10**400 + 1) underflows a float


def test_certificate_cauchy_soundness_randomised():
    # |g(m) - g(n)| < tail(n) for all 2 <= n < m <= N + 50, exactly in rationals
    rng = random.Random(83)
    phi_minus_1 = GOLDEN_RATIO - 1
    for _ in range(100):
        f0 = Fraction(rng.randint(0, 12), rng.randint(1, 6))
        fk = Fraction(rng.randint(1, 12), rng.randint(1, 6))
        cert = certificate(f0, fk, Fraction(1, 10**6))
        top = cert.N + 50
        orbit = _case2_orbit(f0, fk, top)
        for n in range(2, top):
            bound = cert.tail_bound(n)
            for m in range(n + 1, top + 1):
                assert abs(orbit[m] - orbit[n]) < bound
            assert abs_le(orbit[n] - phi_minus_1, bound)


def test_contraction_toward_limit():
    phi = GOLDEN_RATIO
    rng = random.Random(89)
    for _ in range(10):
        g = Fraction(rng.randint(0, 20), rng.randint(1, 10))
        for _ in range(40):
            nxt = 1 / (1 + g)
            lhs = abs(nxt - (phi - 1))
            rhs = abs(g - (phi - 1)) / phi
            assert (rhs - lhs).sign() >= 0
            g = nxt


def test_difference_identity():
    for g0 in (Fraction(0), Fraction(1, 3)):
        orbit = ratio_orbit(STD, g0, 9).trajectory
        checks = difference_identity_check(orbit)
        assert len(checks) == 8 and all(checks)
    assert difference_identity_check(ratio_orbit(STD, 0, 1).trajectory) == ()


def test_dominant_root_examples():
    assert dominant_root(1, 1) == GOLDEN_RATIO
    assert dominant_root(1, 2) == 2
    root = dominant_root(2, 1)
    assert root == QuadraticSurd(1, 1, 2)
    assert root * root == 2 * root + 1


def test_dominant_root_equation_randomised():
    rng = random.Random(97)
    for _ in range(100):
        r = Fraction(rng.randint(1, 30), rng.randint(1, 10))
        s = Fraction(rng.randint(1, 30), rng.randint(1, 10))
        root = dominant_root(r, s)
        assert root * root - r * root - s == 0
        assert root.sign() > 0


def test_limit_estimate_forward_standard():
    est = limit_estimate(STD, (1, 1), "forward", 40)
    assert est.target == GOLDEN_RATIO and est.claimed is None
    assert abs_lt(est.ratio - est.target, Fraction(1, 10**15))


def test_limit_estimate_forward_odd_matches_alternating_oracle():
    est = limit_estimate(ODD, (0, 1), "forward", 40)
    assert est.target == -GOLDEN_RATIO
    assert abs_lt(est.ratio - est.target, Fraction(1, 10**15))
    # oracle: terms are (-1)**(n+1) * F(n)
    a, b = Fraction(0), Fraction(1)
    for n in range(40):
        assert a == (-1) ** (n + 1) * _fib(n)
        a, b = b, -b + a
    assert (a, b) == ((-1) ** 41 * _fib(40), _fib(41))
    assert est.ratio == b / a


def test_limit_estimate_backward_reports_both_values():
    est = limit_estimate(STD, (0, 1), "backward", 40)
    assert est.target == quadratic_roots(1, 1)[1]  # 1 - phi
    assert est.claimed == -GOLDEN_RATIO
    assert abs_lt(est.ratio - est.target, Fraction(1, 10**15))
    # oracle: backward Fibonacci gives -F(n-1)/F(n)
    assert est.ratio == Fraction(-_fib(39), _fib(40))


def test_limit_estimate_backward_odd():
    est = limit_estimate(ODD, (0, 1), "backward", 40)
    assert est.target == GOLDEN_RATIO - 1
    assert est.claimed == GOLDEN_RATIO
    assert abs_lt(est.ratio - est.target, Fraction(1, 10**15))


def test_limit_estimate_general_coefficients():
    for r, s in [(1, 2), (2, 1), (Fraction(3, 2), Fraction(1, 2))]:
        est = limit_estimate(RatioParams(r, s, "standard"), (1, 1), "forward", 60)
        assert abs_lt(est.ratio - est.target, Fraction(1, 10**9))


def test_limit_estimate_vanishing_endpoint():
    # odd (1,1) from seed (1,1) has a zero term two steps in
    with pytest.raises(DomainError):
        limit_estimate(ODD, (1, 1), "forward", 2)


def test_cf_convergent_examples():
    assert cf_convergent(1) == 1
    assert cf_convergent(3) == Fraction(2, 3)
    assert cf_convergent(10) == Fraction(55, 89)
    for m in range(1, 31):
        assert cf_convergent(m) == Fraction(_fib(m), _fib(m + 1))
    with pytest.raises(ValueError):
        cf_convergent(0)


def test_nesting_check():
    report = nesting_check(5)
    assert report.passed and report.n_max == 5
    assert nesting_check(1).passed
    # spot-check the ordering it certifies: 1 > phi-1 > 1/2
    phi_minus_1 = GOLDEN_RATIO - 1
    assert (Fraction(1) - phi_minus_1).sign() > 0
    assert (Fraction(1, 2) - phi_minus_1).sign() < 0


def _plant_ratio(monkeypatch, planted):
    """nesting_check's orbit, with g(planted) made g(planted) + 1."""
    real = limits.ratio_orbit

    def planted_orbit(*args):
        report = real(*args)
        trajectory = list(report.trajectory)
        trajectory[planted] += 1
        return type(report)(tuple(trajectory), report.pole_step, report.classification)

    monkeypatch.setattr(limits, "ratio_orbit", planted_orbit)


def _plant_fibonacci(monkeypatch, planted):
    """nesting_check's Fibonacci window, with F(planted) made F(planted) + 1."""
    real = limits.terms

    def planted_terms(*args):
        values = real(*args)
        values[planted] += 1
        return values

    monkeypatch.setattr(limits, "terms", planted_terms)


@pytest.mark.parametrize(
    "plant, planted, convergent_failures, ordering_failures",
    [
        (_plant_ratio, 6, (6,), (6,)),  # 8/13 + 1 is above phi - 1, where an even n must be below
        (_plant_ratio, 7, (7,), ()),  # 13/21 + 1 stays above phi - 1
        (_plant_fibonacci, 9, (8, 9), ()),  # F(9) is read by g(8) = F(8)/F(9) and g(9) = F(9)/F(10)
    ],
    ids=["g6", "g7", "F9"],
)
def test_nesting_check_fails_exactly_at_a_planted_value(monkeypatch, plant, planted, convergent_failures, ordering_failures):
    plant(monkeypatch, planted)
    report = nesting_check(20)
    assert (report.convergent_failures, report.ordering_failures) == (convergent_failures, ordering_failures)
    assert not report.passed


def test_case1_negative_seed_consistency():
    rng = random.Random(103)
    phi = GOLDEN_RATIO
    checked = 0
    while checked < 10:
        g0 = Fraction(rng.randint(-40, -1), rng.randint(1, 6))
        orbit = ratio_orbit(STD, g0, 60)
        if not orbit.completed or orbit.classification.label() != "regular":
            continue
        for n in (0, 7, 23, 60):
            assert closed_form_ratio(g0, n) == orbit.trajectory[n]
        reciprocal = 1 / orbit.trajectory[60]
        assert abs_lt(reciprocal - phi, Fraction(1, 10**9))
        checked += 1


def test_params_validation():
    with pytest.raises(DomainError):
        RatioParams(0, 1, "standard")
    with pytest.raises(DomainError):
        RatioParams(1, 1, "weird")
    with pytest.raises(DomainError):
        limit_estimate(STD, (1, 1), "sideways", 5)
