"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS line once its assertions hold (visible with
`pytest -s` or `pytest -rA`; with plain `pytest -v` the per-test PASSED line
serves the same purpose).
"""

import random
import time
from fractions import Fraction

from aurea.exact import GOLDEN_RATIO, abs_le, abs_lt, quadratic_roots
from aurea.fibfunc import PeriodicSeed, extend
from aurea.horadam import FIBONACCI, fast_term, lucas_window
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
from aurea.riccati import (
    RiccatiParams,
    closed_form_term,
    closed_form_trajectory,
    fixed_points,
    forbidden_set,
    iterate_orbit,
    substitution_check,
)
from test_riccati import paper_minus_closed_form, paper_plus_closed_form

EPS_9 = Fraction(1, 10**9)
EPS_6 = Fraction(1, 10**6)


def _report(number, message):
    print(f"ACCEPTANCE {number:02d}: PASS - {message}")


def _fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _random_riccati(rng):
    den = rng.randint(1, 3)
    p = Fraction(rng.randint(1, 10 * den), den)
    den = rng.randint(1, 3)
    q = Fraction(rng.randint(1, 10 * den), den)
    return RiccatiParams(p, q, rng.choice(["plus", "minus"]))


def test_c01_closed_form_oracle_equivalence():
    rng = random.Random(20260809)
    cases = 0
    for _ in range(10 * 500):  # capped: a kernel that reports a pole for every seed fails, not hangs
        params = _random_riccati(rng)
        den = rng.randint(1, 3)
        x0 = Fraction(rng.randint(-10 * den, 10 * den), den)
        orbit = iterate_orbit(params, x0, 300)
        if not orbit.completed or params.apply(x0) == x0:
            continue  # keep only regular seeds
        assert closed_form_trajectory(params, x0, 300) == list(orbit.trajectory)
        paper = paper_plus_closed_form if params.branch == "plus" else paper_minus_closed_form
        assert paper(params.p, params.q, x0, 300) == (list(orbit.trajectory), None)
        n = rng.randint(0, 300)
        assert closed_form_term(params, x0, n) == orbit.trajectory[n]
        cases += 1
        if cases == 500:
            break
    assert cases == 500, f"{cases} of 500 cases in {10 * 500} draws"
    _report(1, "closed form equals the iterated orbit and the paper's formula exactly for 500 cases, n <= 300")


def test_c02_substitution_derivation():
    rng = random.Random(20260810)
    cases = 0
    for _ in range(10 * 100):  # capped: a kernel that reports a pole for every seed fails, not hangs
        den = rng.randint(1, 3)
        p = Fraction(rng.randint(1, 10 * den), den)
        q = Fraction(rng.randint(1, 10 * den), den)
        params = RiccatiParams(p, q, "plus")
        t0 = Fraction(rng.randint(-10, 10), rng.randint(1, 3))
        t1 = Fraction(rng.choice([x for x in range(-10, 11) if x != 0]), rng.randint(1, 3))
        report = substitution_check(params, t0, t1, 100)
        if report.pole_step is not None:
            continue
        assert report.passed
        cases += 1
        if cases == 100:
            break
    assert cases == 100, f"{cases} of 100 cases in {10 * 100} draws"
    # the (t0, t1) = (0, 1) seed reproduces t(n) = q**(1-n) * u(n) exactly
    params = RiccatiParams(Fraction(3, 2), Fraction(5, 3), "plus")
    report = substitution_check(params, 0, 1, 100)
    assert report.passed
    u = lucas_window(params.p, params.q, 0, 101)
    for n in range(102):
        if n <= 100:
            assert report.t_values[n] == params.q ** (1 - n) * u[n]
    _report(2, "substitution check holds for every step in 100 cases, incl. t(n) = q**(1-n)*u(n)")


def test_c03_forbidden_set_structure():
    golden = RiccatiParams(1, 1, "plus")
    elements = forbidden_set(golden, 10)
    assert elements[:4] == [-1, -2, Fraction(-3, 2), Fraction(-5, 3)]
    for m in range(1, 11):
        assert elements[m - 1] == Fraction(-_fib(m + 1), _fib(m))
    rng = random.Random(20260811)
    for _ in range(40):
        params = _random_riccati(rng)
        chain = forbidden_set(params, 10)
        assert chain[0] == params.pole()
        for m in range(len(chain) - 1):
            assert params.apply(chain[m + 1]) == chain[m]
    _report(3, "forbidden sets equal -F(m+1)/F(m) on the golden map and map back exactly")


def test_c04_fixed_points():
    rng = random.Random(20260812)
    for _ in range(50):
        params = _random_riccati(rng)
        for point in fixed_points(params):
            assert params.apply(point) == point
    plus = fixed_points(RiccatiParams(1, 1, "plus"))
    assert plus[0] == quadratic_roots(-1, 1)[0]
    assert plus[0].to_record() == {"a": "-1/2", "b": "1/2", "d": 5}
    assert plus[1].to_record() == {"a": "-1/2", "b": "-1/2", "d": 5}
    _report(4, "fixed points absorb the map exactly in Q(sqrt(d)) for 50 cases")


def test_c05_golden_limit_certificate():
    cert = certificate(1, 1, EPS_6)
    assert (cert.M, cert.c, cert.N) == (Fraction(1, 2), Fraction(1, 6), 32)
    omega_32, omega_31 = cert.tail_bound(32), cert.tail_bound(31)
    assert omega_32 < EPS_6 < omega_31
    assert Fraction(869, 10**9) < omega_32 < Fraction(870, 10**9)
    assert Fraction(130, 10**8) < omega_31 < Fraction(131, 10**8)

    phi = GOLDEN_RATIO
    limit = phi - 1
    std = RatioParams(1, 1, "standard")
    rng = random.Random(20260813)
    for case in range(100):
        f0 = Fraction(rng.randint(0, 10), rng.randint(1, 5))
        fk = Fraction(rng.randint(1, 10), rng.randint(1, 5))
        cert = certificate(f0, fk, EPS_6)
        orbit = [f0 / fk]
        for _ in range(max(cert.N + 50, 51)):
            orbit.append(1 / (1 + orbit[-1]))
        for n in range(2, cert.N + 51):
            assert abs_le(orbit[n] - limit, cert.tail_bound(n))
        # reciprocal-level check: the lattice ratio f(xi+(n+1)k)/f(xi+nk) at n = 50
        assert abs_lt(1 / orbit[50] - phi, EPS_9)
        if case < 5:
            seed = PeriodicSeed(1, std, (0,), ((f0, fk),))
            values = extend(seed, 0, 51)[0].values
            assert values[51] / values[50] == 1 / orbit[50]
    _report(5, "certificate (1,1,1e-6) = (1/2, 1/6, 32); |g(n) - (phi-1)| <= tail(n); ratio within 1e-9 by n = 50")


def test_c06_case1_negative_seeds():
    rng = random.Random(20260814)
    phi = GOLDEN_RATIO
    std = RatioParams(1, 1, "standard")
    cases = 0
    for _ in range(10 * 50):  # capped: a kernel that reports a pole for every seed fails, not hangs
        g0 = Fraction(rng.randint(-100, -1), rng.randint(1, 10))
        orbit = ratio_orbit(std, g0, 60)
        if not orbit.completed:
            continue
        for n in range(61):
            assert closed_form_ratio(g0, n) == orbit.trajectory[n]
        assert abs_lt(1 / orbit.trajectory[60] - phi, EPS_9)
        cases += 1
        if cases == 50:
            break
    assert cases == 50, f"{cases} of 50 cases in {10 * 50} draws"
    _report(6, "50 negative seeds: closed form equals orbit; reciprocal within 1e-9 of phi by n = 60")


def test_c07_general_dominant_root():
    assert dominant_root(1, 2) == Fraction(2)
    pell_root = dominant_root(2, 1)
    assert pell_root * pell_root == 2 * pell_root + 1
    for r, s in [(1, 2), (2, 1)]:
        est = limit_estimate(RatioParams(r, s, "standard"), (1, 1), "forward", 60)
        assert est.target == dominant_root(r, s)
        assert abs_lt(est.ratio - est.target, EPS_9)
    _report(7, "rho(1,2) = 2 and rho(2,1) = 1+sqrt(2) exact; forward ratios within 1e-9 by n = 60")


def test_c08_odd_variant():
    odd = RatioParams(1, 1, "odd")
    est = limit_estimate(odd, (0, 1), "forward", 60)
    assert est.target == -GOLDEN_RATIO
    assert abs_lt(est.ratio - est.target, EPS_9)
    a, b = Fraction(0), Fraction(1)
    for n in range(61):
        assert a == (-1) ** (n + 1) * _fib(n)  # alternating-sign oracle per step
        a, b = b, -b + a
    _report(8, "odd ratios reach -phi within 1e-9 by n = 60, matching the (-1)**(n+1)*F(n) oracle")


def test_c09_backward_direction():
    std = RatioParams(1, 1, "standard")
    est = limit_estimate(std, (0, 1), "backward", 60)
    conjugate = quadratic_roots(1, 1)[1]  # 1 - phi
    assert est.target == conjugate
    assert abs_lt(est.ratio - est.target, EPS_9)
    assert est.ratio == Fraction(-_fib(59), _fib(60))  # backward Fibonacci oracle
    # the report carries the often-quoted -phi next to the computed value, and
    # nothing here asserts the ratios approach it
    assert est.claimed == -GOLDEN_RATIO
    assert est.claimed != est.target
    _report(9, "backward ratios reach 1-phi within 1e-9 by n = 60; -phi displayed alongside, not asserted")


def test_c10_continued_fractions():
    for m in range(1, 201):
        assert cf_convergent(m) == Fraction(_fib(m), _fib(m + 1))
    assert nesting_check(100).passed
    _report(10, "cf convergents equal F(m)/F(m+1) for m <= 200; canonical orbit alternates around phi-1 for n <= 100")


def test_c11_difference_identity():
    rng = random.Random(20260815)
    std = RatioParams(1, 1, "standard")
    cases = 0
    for _ in range(10 * 100):  # capped: a kernel that reports a pole for every seed fails, not hangs
        g0 = Fraction(rng.randint(-60, 60), rng.randint(1, 8))
        length = rng.randint(3, 200)
        orbit = ratio_orbit(std, g0, length)
        if not orbit.completed:
            continue
        assert all(difference_identity_check(orbit.trajectory))
        cases += 1
        if cases == 100:
            break
    assert cases == 100, f"{cases} of 100 cases in {10 * 100} draws"
    _report(11, "the exact step-difference identity holds on 100 random standard orbits up to length 200")


def test_c12_performance_sanity():
    start = time.perf_counter()
    big = fast_term(FIBONACCI, 1_000_000)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"fast term took {elapsed:.2f}s"
    assert big > 0
    a, b = 0, 1
    for _ in range(10_000):
        a, b = b, a + b
    assert fast_term(FIBONACCI, 10_000) == a
    _report(12, f"Fibonacci term 1,000,000 in {elapsed:.2f}s (< 5s); matches iteration at n = 10,000")
