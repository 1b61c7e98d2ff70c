import random
import re
from fractions import Fraction

import pytest

from aurea.exact import GOLDEN_RATIO, DomainError, abs_lt
from aurea.fibfunc import (
    PeriodicSeed,
    dump_seed,
    extend,
    golden_power_trace,
    load_seed,
    parse_seed,
    ratio_trace,
    verify_convergence,
)
from aurea.limits import RatioParams, certificate, ratio_orbit

STD = RatioParams(1, 1, "standard")
ODD = RatioParams(1, 1, "odd")


def _seed(kind, pairs, period=1):
    offsets = tuple(Fraction(i) * period / len(pairs) for i in range(len(pairs)))
    return PeriodicSeed(period, kind, offsets, tuple(pairs))


def test_seed_validation():
    with pytest.raises(DomainError):
        PeriodicSeed(0, STD, (0,), ((1, 1),))
    with pytest.raises(DomainError):
        PeriodicSeed(1, STD, (0, Fraction(1, 2), Fraction(1, 4)), ((1, 1),) * 3)
    with pytest.raises(DomainError):
        PeriodicSeed(1, STD, (Fraction(3, 2),), ((1, 1),))
    with pytest.raises(DomainError):
        PeriodicSeed(1, STD, (0,), ())


def test_extend_standard_both_directions():
    trace = extend(_seed(STD, [(1, 1)]), -3, 5)[0]
    assert list(trace.values) == [-1, 1, 0, 1, 1, 2, 3, 5, 8]
    assert trace.n_start == -3
    assert trace.value_at(0) == 1 and trace.value_at(-1) == 0
    for outside in (-4, 6):  # n_start - 1 and one past the end
        with pytest.raises(IndexError, match=re.escape(f"n = {outside} out of range [-3, 5]")):
            trace.value_at(outside)


def test_extend_odd_forward():
    trace = extend(_seed(ODD, [(0, 1)]), 0, 5)[0]
    assert list(trace.values) == [0, 1, -1, 2, -3, 5]


def test_extend_requires_seed_window():
    with pytest.raises(ValueError):
        extend(_seed(STD, [(1, 1)]), 1, 5)


def test_offsets_evolve_independently():
    seed = PeriodicSeed(
        Fraction(1, 2),
        STD,
        (Fraction(0), Fraction(1, 4)),
        ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(-5))),
    )
    both = extend(seed, -4, 6)
    solo_first = extend(PeriodicSeed(Fraction(1, 2), STD, (0,), ((1, 1),)), -4, 6)[0]
    solo_second = extend(
        PeriodicSeed(Fraction(1, 2), STD, (Fraction(1, 4),), ((2, -5),)), -4, 6
    )[0]
    assert both[0].values == solo_first.values
    assert both[1].values == solo_second.values


def test_functional_equation_residual_is_zero():
    rng = random.Random(113)
    for parity in ("standard", "odd"):
        kind = RatioParams(
            Fraction(rng.randint(1, 6), rng.randint(1, 3)),
            Fraction(rng.randint(1, 6), rng.randint(1, 3)),
            parity,
        )
        f0 = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        f1 = Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 3))
        trace = extend(_seed(kind, [(f0, f1)]), -8, 12)[0]
        rr = kind.middle_coefficient()
        values = trace.values
        for i in range(len(values) - 2):
            assert values[i + 2] == rr * values[i + 1] + kind.s * values[i]


def test_extend_round_trip_recovers_seed():
    rng = random.Random(127)
    for _ in range(10):
        kind = RatioParams(
            Fraction(rng.randint(1, 5), rng.randint(1, 2)),
            Fraction(rng.randint(1, 5), rng.randint(1, 2)),
            rng.choice(["standard", "odd"]),
        )
        f0 = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        f1 = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        trace = extend(_seed(kind, [(f0, f1)]), 0, 9)[0]
        deep = PeriodicSeed(1, kind, (0,), ((trace.value_at(8), trace.value_at(9)),))
        back = extend(deep, -8, 1)[0]
        assert back.value_at(-8) == f0 and back.value_at(-7) == f1


def test_ratio_trace_examples():
    trace = ratio_trace(_seed(STD, [(1, 1)]), 0, 0, 3)
    assert list(trace.ratios) == [1, Fraction(1, 2), Fraction(2, 3), Fraction(3, 5)]
    trace = ratio_trace(_seed(STD, [(0, 1)]), 0, 0, 2)
    assert list(trace.ratios) == [0, 1, Fraction(1, 2)]
    with pytest.raises(DomainError):
        ratio_trace(_seed(STD, [(0, 0)]), 0, 0, 2)


@pytest.mark.parametrize("index", [-1, 3])
def test_ratio_trace_refuses_an_offset_index_out_of_range(index):
    seed = _seed(STD, [(0, 1), (1, 2), (2, 1)])
    message = f"offset index {index} out of range (seed has 3 offsets)"
    with pytest.raises(ValueError, match=re.escape(message)):
        ratio_trace(seed, index, 0, 3)


def test_ratio_trace_reports_undefined_index():
    # odd (1,1) from (1,1): values 1, 1, 0, ... so g(1) = 1/0 is undefined
    trace = ratio_trace(_seed(ODD, [(1, 1)]), 0, 0, 5)
    assert trace.ratio_undefined_at == 1
    assert list(trace.ratios) == [1]


def test_ratio_trace_matches_ratio_orbit():
    rng = random.Random(131)
    checked = 0
    while checked < 15:
        kind = RatioParams(
            Fraction(rng.randint(1, 6), rng.randint(1, 3)),
            Fraction(rng.randint(1, 6), rng.randint(1, 3)),
            rng.choice(["standard", "odd"]),
        )
        f0 = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        f1 = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        trace = ratio_trace(_seed(kind, [(f0, f1)]), 0, 0, 25)
        orbit = ratio_orbit(kind, f0 / f1, 25)
        if trace.ratio_undefined_at is not None:
            assert orbit.pole_step == trace.ratio_undefined_at
            assert list(trace.ratios) == list(orbit.trajectory)[: len(trace.ratios)]
        else:
            assert list(trace.ratios) == list(orbit.trajectory)
            checked += 1


def test_verify_standard_offsets_converge():
    seed = PeriodicSeed(3, STD, (0, 1, 2), ((1, 1), (2, 1), (1, 5)))
    reports = verify_convergence(seed, Fraction(1, 10**9))
    assert [r.offset for r in reports] == [0, 1, 2]
    for report in reports:
        assert report.converged and report.first_step <= 60
        assert report.target == GOLDEN_RATIO
        assert report.certificate is not None
        assert report.first_step <= report.certificate.N
        assert abs_lt(report.ratio - report.target, report.epsilon)


def test_verify_odd_converges_to_negated_root():
    report = verify_convergence(_seed(ODD, [(0, 1)]), Fraction(1, 10**6))[0]
    assert report.target == -GOLDEN_RATIO
    assert report.converged


@pytest.mark.parametrize("f0, f1", [(-1, -2), (0, 1), (0, -1)])
def test_verify_flipped_sign_pair_gets_certificate(f0, f1):
    eps = Fraction(1, 10**6)
    report = verify_convergence(_seed(STD, [(f0, f1)]), eps)[0]
    assert report.certificate == certificate(abs(f0), abs(f1), eps)  # f(xi) = 0 still gets one
    assert report.converged


def test_verify_mixed_sign_seed_iterates_without_certificate():
    report = verify_convergence(_seed(STD, [(1, -1)]), Fraction(1, 10**6))[0]
    assert report.certificate is None
    assert report.converged  # recovers and still reaches the golden ratio


def test_verify_degenerate_lattice():
    with pytest.raises(DomainError):
        verify_convergence(_seed(STD, [(0, 0)]), Fraction(1, 100))


def test_verify_non_golden_coefficients_have_no_certificate():
    seed = _seed(RatioParams(2, 1, "standard"), [(1, 1)])
    report = verify_convergence(seed, Fraction(1, 10**9))[0]
    assert report.certificate is None
    assert report.converged and report.first_step <= 60


@pytest.mark.parametrize("epsilon, first_step, ratio", [
    (Fraction(1, 3), 3, Fraction(11, 5)),  # the ratio 5/3 at n = 2 is target - epsilon
    (Fraction(1, 5), 4, Fraction(21, 11)),  # the ratio 11/5 at n = 3 is target + epsilon
])
def test_verify_is_strict_at_both_ends_of_a_rational_target(epsilon, first_step, ratio):
    """r = 1, s = 2 has the rational target 2; from (1, 1) the ratios are 1, 3, 5/3, 11/5, 21/11, ..."""
    (report,) = verify_convergence(_seed(RatioParams(1, 2), [(1, 1)]), epsilon)
    assert report.target == 2
    assert (report.first_step, report.ratio) == (first_step, ratio)


def test_golden_power_trace_is_exact_witness():
    phi = GOLDEN_RATIO
    powers = golden_power_trace(-5, 10)
    for i in range(len(powers) - 1):
        assert powers[i + 1] / powers[i] == phi
    for i in range(len(powers) - 2):
        assert powers[i + 2] == powers[i + 1] + powers[i]


def test_seed_text_round_trip(tmp_path):
    seed = PeriodicSeed(
        Fraction(1, 2),
        RatioParams(Fraction(3, 2), 1, "odd"),
        (0, Fraction(1, 4)),
        ((Fraction(1), Fraction(1)), (Fraction(-2, 3), Fraction(5))),
    )
    text = dump_seed(seed)
    assert parse_seed(text) == seed
    path = tmp_path / "seed.txt"
    path.write_text(text + "\n# trailing comment\n", encoding="utf-8")
    assert load_seed(str(path)) == seed


def test_parse_seed_errors():
    with pytest.raises(ValueError):
        parse_seed("")
    with pytest.raises(ValueError):
        parse_seed("k=1 kind=standard r=1\n0 1 1\n")  # missing s
    with pytest.raises(ValueError):
        parse_seed("k=1 kind=standard r=1 s=1\n0 1\n")  # short line
    with pytest.raises(DomainError):
        parse_seed("k=1 kind=standard r=-1 s=1\n0 1 1\n")  # negative coefficient


@pytest.mark.parametrize(
    "header, message",
    [
        ("k=1 kind=weird r=1 s=1", "kind must be 'standard' or 'odd', got 'weird'"),
        ("k=1 kind=standard r=1 s=1 bogus=3", "unknown header key 'bogus'"),
        ("k=1 kind=standard r=1 s=1 r=2", "repeated header key 'r'"),
        ("k=1 kind=odd kind=standard r=1 s=1", "repeated header key 'kind'"),
    ],
)
def test_parse_seed_refuses_a_malformed_header(header, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_seed(header + "\n0 1 1\n")


def test_parse_seed_zero_coefficient_is_a_domain_error():
    with pytest.raises(DomainError, match="must be positive"):
        parse_seed("k=1 kind=standard r=0 s=1\n0 1 1\n")
