"""Period-k lattice recurrences.

A real function satisfying f(x + 2k) = ±r*f(x + k) + s*f(x) couples values
only along the lattices {ξ + n*k}, so a sampled function is completely
described by one independent two-term recurrence per offset ξ.  This module
extends those lattices exactly in both directions, traces the ratio orbits
g(n) = f(ξ + n*k) / f(ξ + (n+1)*k), and verifies per offset that the
consecutive ratios f(ξ + (n+1)*k) / f(ξ + n*k) reach the predicted quadratic
root.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import DomainError, QuadraticSurd, _cut, _Record, as_rational, format_rational
from .horadam import _orbit, ratios, terms
from .limits import ODD, STANDARD, ConvergenceCertificate, RatioParams, certificate, dominant_root

__all__ = [
    "LatticeTrace",
    "OffsetReport",
    "PeriodicSeed",
    "dump_seed",
    "extend",
    "golden_power_trace",
    "load_seed",
    "parse_seed",
    "ratio_trace",
    "verify_convergence",
]


class PeriodicSeed(_Record):
    """Sampled seed data for a period-k recurrence.

    Each offset ξ in [0, k) carries the pair (f(ξ), f(ξ + k)); the lattices
    evolve independently.  The period may be any positive rational.
    """

    period: Fraction
    kind: RatioParams
    offsets: tuple[Fraction, ...]
    seed_pairs: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, period, kind, offsets, seed_pairs) -> None:
        period = as_rational(period)
        offsets = tuple(as_rational(x) for x in offsets)
        seed_pairs = tuple((as_rational(a), as_rational(b)) for a, b in seed_pairs)
        if period <= 0:
            raise DomainError(f"period must be positive, got {period}")
        if not offsets:
            raise DomainError("at least one offset is required")
        if len(offsets) != len(seed_pairs):
            raise DomainError("offsets and seed pairs must pair up one to one")
        previous = None
        for offset in offsets:
            if not (0 <= offset < period):
                raise DomainError(f"offset {offset} outside [0, {period})")
            if previous is not None and offset <= previous:
                raise DomainError("offsets must be strictly increasing")
            previous = offset
        self.__dict__.update(period=period, kind=kind, offsets=offsets, seed_pairs=seed_pairs)


class LatticeTrace(_Record):
    """Values f(ξ + n*k) along one offset lattice, with optional ratio data."""

    offset: Fraction
    n_start: int
    values: tuple[Fraction, ...]
    ratios: tuple[Fraction, ...] | None = None
    ratio_undefined_at: int | None = None

    def value_at(self, n: int) -> Fraction:
        """f(ξ + n*k); an n outside the trace is refused, not read from the other end."""
        last = self.n_start + len(self.values) - 1
        if not self.n_start <= n <= last:
            raise IndexError(f"n = {n} out of range [{self.n_start}, {last}]")
        return self.values[n - self.n_start]


def extend(seed: PeriodicSeed, n_min: int, n_max: int) -> list[LatticeTrace]:
    """Exact lattice values f(ξ + n*k) for n_min <= n <= n_max on every offset.

    Forward values follow the functional equation, backward values its
    inversion f(x) = (f(x + 2k) - (±r)*f(x + k)) / s.
    """
    if not (n_min <= 0 and n_max >= 1):
        raise ValueError("range must cover the seed pair: n_min <= 0 and n_max >= 1")
    A, B = seed.kind.plus_form()
    return [
        LatticeTrace(offset, n_min, tuple(terms(A, B, f0, f1, n_min, n_max)))
        for offset, (f0, f1) in zip(seed.offsets, seed.seed_pairs)
    ]


def ratio_trace(seed: PeriodicSeed, offset_index: int, n_min: int = 0, n_max: int = 32) -> LatticeTrace:
    """Ratios g(n) = f(ξ + n*k) / f(ξ + (n+1)*k) over [n_min, n_max] for one offset.

    The ratio list stops at the first vanishing denominator; that index is
    reported.  An identically zero lattice is degenerate.  The index counts
    from 0; a negative one is refused, not read from the end.
    """
    if not 0 <= offset_index < len(seed.offsets):
        raise ValueError(f"offset index {offset_index} out of range (seed has {len(seed.offsets)} offsets)")
    if n_min > n_max:
        raise ValueError("empty range")
    offset = seed.offsets[offset_index]
    f0, f1 = seed.seed_pairs[offset_index]
    if f0 == 0 and f1 == 0:
        raise DomainError(f"degenerate all-zero lattice at offset {offset}")
    A, B = seed.kind.plus_form()
    values = terms(A, B, f0, f1, n_min, n_max + 1)
    ratio_values, stop = _orbit(A, B, values[0], values[1], n_max + 1 - n_min)
    undefined_at = None if stop is None else n_min + stop
    return LatticeTrace(offset, n_min, tuple(values), tuple(ratio_values), undefined_at)


class OffsetReport(_Record):
    """Per-offset convergence report for the consecutive ratios f(ξ+(n+1)k)/f(ξ+nk)."""

    offset: Fraction
    target: QuadraticSurd
    epsilon: Fraction
    first_step: int | None
    ratio: Fraction | None
    horizon: int
    certificate: ConvergenceCertificate | None = None

    @property
    def converged(self) -> bool:
        return self.first_step is not None


def verify_convergence(
    seed: PeriodicSeed,
    epsilon: Fraction | int | str,
    horizon: int = 512,
) -> list[OffsetReport]:
    """For every offset, find the first n with |f(ξ+(n+1)k)/f(ξ+nk) - target| < epsilon.

    The target is the dominant root of x**2 = r*x + s, negated for the odd
    form; each ratio is compared exactly, and strictly, with the interval
    (target - epsilon, target + epsilon).  Each end is built and bracketed
    once per call between consecutive multiples of 2**-bits, bits being the
    bit length of epsilon's denominator plus 64, so a ratio outside both
    brackets is placed by one integer product per end; only a ratio inside a
    bracket reaches the exact sign core.
    Golden seeds with a definite sign pattern additionally carry the Cauchy
    certificate bounding the same tail.  Seeds outside that pattern are
    iterated to the horizon and reported as-is.
    """
    epsilon = as_rational(epsilon)
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    kind = seed.kind
    target = kind.sign * dominant_root(kind.r, kind.s)
    bits = epsilon.denominator.bit_length() + 64
    above_low, above_high = _cut(target - epsilon, bits), _cut(target + epsilon, bits)
    A, B = kind.plus_form()
    reports = []
    for offset, (f0, f1) in zip(seed.offsets, seed.seed_pairs):
        if f0 == 0 and f1 == 0:
            raise DomainError(f"degenerate all-zero lattice at offset {offset}")
        cert = None
        if kind.parity == STANDARD and kind.r == 1 and kind.s == 1 and f1 != 0 and f0 * f1 >= 0:
            cert = certificate(abs(f0), abs(f1), epsilon)  # -f has the same ratios as f
        first_step = None
        achieved = None
        for n, ratio in enumerate(ratios(A, B, f0, f1, horizon + 1)):
            if ratio is not None:
                achieved = ratio
                if above_low(ratio) > 0 > above_high(ratio):
                    first_step = n
                    break
        reports.append(OffsetReport(offset, target, epsilon, first_step, achieved, horizon, cert))
    return reports


def golden_power_trace(n_min: int, n_max: int) -> list[QuadraticSurd]:
    """Powers φ**n = F(n)*φ + F(n-1) for n_min <= n <= n_max, exact in Q(sqrt(5)), off one Fibonacci window.

    φ**2 = φ + 1, so this trace satisfies the standard period equation with
    consecutive ratio exactly φ at every lattice point; it is the exponential
    witness f(x) = φ**(x/k) restricted to one lattice (the offset prefactor
    cancels from every ratio).
    """
    if n_min > n_max:
        raise ValueError("empty range")
    fib = terms(1, 1, 0, 1, n_min - 1, n_max)
    return [QuadraticSurd(f / 2 + f_prev, f / 2, 5) for f_prev, f in zip(fib, fib[1:])]


def parse_seed(text: str) -> PeriodicSeed:
    """Parse the line-oriented seed format.

    Header line, then one offset per line, rationals in "num/den" form:

        k=<rational> kind=<standard|odd> r=<rational> s=<rational>
        <xi> <f_xi> <f_xi_plus_k>

    Blank lines and lines starting with '#' are skipped.  Each header key
    appears exactly once; an unknown or repeated key, or another kind, is a
    parse error (ValueError), while r = 0 stays a domain error.
    """
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty seed data")
    keys = ("k", "kind", "r", "s")
    header: dict[str, str] = {}
    for token in lines[0].split():
        key, sep, value = token.partition("=")
        if not sep or not value:
            raise ValueError(f"malformed header token {token!r}")
        if key not in keys:
            raise ValueError(f"unknown header key {key!r}")
        if key in header:
            raise ValueError(f"repeated header key {key!r}")
        header[key] = value
    missing = set(keys) - header.keys()
    if missing:
        raise ValueError(f"header missing {sorted(missing)}")
    if header["kind"] not in (STANDARD, ODD):  # a malformed literal (exit 3), like an unknown --parity
        raise ValueError(f"kind must be {STANDARD!r} or {ODD!r}, got {header['kind']!r}")
    kind = RatioParams(header["r"], header["s"], header["kind"])
    offsets = []
    pairs = []
    for line in lines[1:]:
        fields = line.split()
        if len(fields) != 3:
            raise ValueError(f"expected 'xi f_xi f_xi_k', got {line!r}")
        offsets.append(as_rational(fields[0]))
        pairs.append((as_rational(fields[1]), as_rational(fields[2])))
    if not offsets:
        raise ValueError("seed data lists no offsets")
    return PeriodicSeed(as_rational(header["k"]), kind, tuple(offsets), tuple(pairs))


def load_seed(path: str) -> PeriodicSeed:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_seed(handle.read())


def dump_seed(seed: PeriodicSeed) -> str:
    """Canonical text form accepted by parse_seed."""
    lines = [
        "k={} kind={} r={} s={}".format(
            format_rational(seed.period),
            seed.kind.parity,
            format_rational(seed.kind.r),
            format_rational(seed.kind.s),
        )
    ]
    for offset, (f0, f1) in zip(seed.offsets, seed.seed_pairs):
        lines.append(f"{format_rational(offset)} {format_rational(f0)} {format_rational(f1)}")
    return "\n".join(lines) + "\n"
