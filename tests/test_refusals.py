"""The library's documented refusals and edge values, called in-process.

Each row is one call and what it must give: an exception of that type with
that message, or a value.  The CLI maps `DomainError` to exit 2 and
`ValueError` to exit 3, so the type is part of the contract.
"""

from fractions import Fraction

import pytest

from aurea import (
    FIBONACCI,
    FORWARD,
    GOLDEN_RATIO,
    ConvergenceCertificate,
    DomainError,
    PeriodicSeed,
    RatioParams,
    RiccatiParams,
    certificate,
    classify_initial,
    closed_form_trajectory,
    decimal_str,
    dominant_root,
    extend,
    fixed_points,
    forbidden_set,
    golden_power_trace,
    iterate_orbit,
    limit_estimate,
    lucas_window,
    negative_symmetry_check,
    nesting_check,
    parse_seed,
    quadratic_roots,
    ratio_trace,
    sqrt_decomposition,
    substitution_check,
    surd_sign,
    verify_convergence,
    window,
)

SEED = PeriodicSeed(1, RatioParams(1, 1), (0,), ((0, 1),))
GOLDEN = RiccatiParams(1, 1)

CASES = {
    "apply-at-pole": (lambda: GOLDEN.apply(-1), DomainError("map undefined at the pole -1")),
    "irrational-as-fraction": (lambda: GOLDEN_RATIO.as_fraction(), DomainError("1/2 + 1/2*sqrt(5) is irrational")),
    "seed-without-offsets": (
        lambda: PeriodicSeed(1, RatioParams(1, 1), (), ()),
        DomainError("at least one offset is required"),
    ),
    "seed-repeated-offset": (
        lambda: PeriodicSeed(1, RatioParams(1, 1), (0, 0), ((1, 1), (1, 2))),
        DomainError("offsets must be strictly increasing"),
    ),
    "extend-without-f1": (
        lambda: extend(SEED, 0, 0),
        ValueError("range must cover the seed pair: n_min <= 0 and n_max >= 1"),
    ),
    "extend-without-f0": (
        lambda: extend(SEED, 1, 3),
        ValueError("range must cover the seed pair: n_min <= 0 and n_max >= 1"),
    ),
    "verify-epsilon-0": (lambda: verify_convergence(SEED, 0), DomainError("epsilon must be positive")),
    "dominant-root-r-0": (lambda: dominant_root(0, 1), DomainError("r and s must be positive")),
    "roots-discriminant-0": (lambda: quadratic_roots(2, -1), DomainError("discriminant 0 is not positive")),
    "decimal-negative-digits": (lambda: decimal_str(GOLDEN_RATIO, -1), ValueError("digits must be nonnegative")),
    "ratio-trace-empty": (lambda: ratio_trace(SEED, 0, 5, 3), ValueError("empty range")),
    "verify-negative-horizon": (
        lambda: verify_convergence(SEED, Fraction(1, 10), -1),
        ValueError("horizon must be nonnegative"),
    ),
    "golden-power-trace-empty": (lambda: golden_power_trace(3, 2), ValueError("empty range")),
    "seed-header-token-without-equals": (
        lambda: parse_seed("k=1 kind=standard r=1 s\n0 0 1"),
        ValueError("malformed header token 's'"),
    ),
    "seed-header-token-without-value": (
        lambda: parse_seed("k= kind=standard r=1 s=1\n0 1 1\n"),
        ValueError("malformed header token 'k='"),
    ),
    "seed-header-alone": (
        lambda: parse_seed("k=1 kind=standard r=1 s=1"),
        ValueError("seed data lists no offsets"),
    ),
    "window-negative-length": (lambda: window(FIBONACCI, 0, -1), ValueError("length must be nonnegative")),
    "lucas-window-empty": (lambda: lucas_window(1, 1, 3, 2), ValueError("empty window")),
    "negative-symmetry-n-max": (
        lambda: negative_symmetry_check(FIBONACCI, -1),
        ValueError("n_max must be nonnegative"),
    ),
    "tail-bound-below-2": (
        lambda: ConvergenceCertificate(Fraction(1), Fraction(1), Fraction(1, 10), 5).tail_bound(1),
        ValueError("the tail bound starts at index 2"),
    ),
    "limit-estimate-negative-n": (
        lambda: limit_estimate(RatioParams(1, 1), (0, 1), FORWARD, -1),
        ValueError("n must be nonnegative"),
    ),
    "nesting-negative-n-max": (lambda: nesting_check(-1), ValueError("n_max must be nonnegative")),
    "certificate-fk-0": (
        lambda: certificate(1, 0, Fraction(1, 10)),
        DomainError("certificate requires f0 >= 0 and fk > 0"),
    ),
    "certificate-f0-0-fk-0": (
        lambda: certificate(0, 0, Fraction(1, 10)),
        DomainError("certificate requires f0 >= 0 and fk > 0"),
    ),
    "orbit-negative-n": (lambda: iterate_orbit(GOLDEN, 0, -1), ValueError("n must be nonnegative")),
    "closed-form-negative-n": (lambda: closed_form_trajectory(GOLDEN, 0, -1), ValueError("n must be nonnegative")),
    "forbidden-set-depth-0": (lambda: forbidden_set(GOLDEN, 0), ValueError("depth must be at least 1")),
    "classify-depth-0": (lambda: classify_initial(GOLDEN, 0, 0), ValueError("depth must be at least 1")),
    "substitution-negative-n": (lambda: substitution_check(GOLDEN, 0, 1, -1), ValueError("n must be nonnegative")),
    "sqrt-of-0": (lambda: sqrt_decomposition(0), (Fraction(0), 1)),
    "golden-fixed-point": (lambda: str(fixed_points(GOLDEN)[0]), "-1/2 + 1/2*sqrt(5)"),  # README's quick taste
    "sign-of-minus-phi": (lambda: surd_sign(-GOLDEN_RATIO), -1),
}


@pytest.mark.parametrize("call, expected", CASES.values(), ids=CASES.keys())
def test_documented_refusal_or_value(call, expected):
    if not isinstance(expected, Exception):
        assert call() == expected
        return
    with pytest.raises(type(expected)) as raised:
        call()
    assert (type(raised.value), str(raised.value)) == (type(expected), str(expected))
