"""The benchmark's workloads: request decks generated from a seed, the calls
each request makes into `aurea`, and the check of each output.

A deck interleaves the kinds of a workload round-robin, in rounds of 256
requests per kind, drawn as a run reaches them.  Within a round the j-th request
of a kind draws its size quantile from stratum bitrev(j) of 256, jittered by the
seed, so every prefix of the deck covers the size range evenly and two seeds
give runs of nearly the same cost while their inputs differ.  No request occurs
twice in a deck: a draw that repeats one is drawn again, first within its
stratum and then over the whole range, so a cache keyed on inputs never hits
on a repeat.  A kind whose inputs run out ends the deck: sweep's `nesting` has
551, about 1.4 times the most a 20 s run used at the seed (404 per kind).  The
library only ever sees the generated inputs.

Why each workload exists:

- jump: one far term per request, indices log-uniform in 1.5e3..2.5e4 for
  stepping and up to 5e5 for matrix powering, with integer and rational
  coefficients.  Discrete shapes (coefficients, signs, parity) follow the
  size stratum, so cost does not swing with the seed.
  Big-integer stepping and powering dominate and the surd layer is idle, so a
  single integer kernel, Lucas doubling and denominator clearing show here;
  horadam.busy_ms and limits.busy_ms move ops_per_s and latency_p90_ms, and
  exact.busy_ms is only the render stage.  Far terms pass the interpreter's
  4300-digit int->str limit, where `format_rational` raises: such a request
  is refused, not failed.  Its value is still checked, and the check also
  proves the value is past the limit.  The defect shows in refused_ratio
  and exact.errors.  Refused requests are not counted in ops_per_s.
- sweep: every term up to n in 50..600 with small rational coefficients.  The
  same recurrence layer used as a stream, so a doubling-based rewrite that
  slows stepping shows here; riccati.busy_ms and fibfunc.busy_ms move
  latency_p50_ms.
- surd: many small quadratic-field requests whose discriminants carry a prime
  of 12..36 bits (log-uniform height).  Trial division in `_square_split` on
  every surd construction dominates and the recurrence kernel is idle;
  exact.busy_ms moves ops_per_s.
- cli: one `python -m aurea.cli` process at a time over the README command
  mix in json and csv.  The only place interpreter start, import, argparse
  and emit are measured; cli.spawn_ms and cli.import_ms move latency_p50_ms,
  and compute gains elsewhere bypass it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

import oracles as O
from oracles import expect

from aurea.exact import QuadraticSurd, abs_lt, decimal_str, format_rational, quadratic_roots, sqrt_decomposition
from aurea.fibfunc import PeriodicSeed, extend, parse_seed, ratio_trace, verify_convergence
from aurea.horadam import RecurrenceParams, fast_term, horadam_term, lucas_window, window
from aurea.limits import RatioParams, certificate, cf_convergent, dominant_root, limit_estimate, nesting_check
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

STRATA = 256
STRATA_BITS = 8


@dataclass(frozen=True)
class Kind:
    """One request type: make(rng, u) -> (size n, args); run(tracer, *args) -> output;
    check(args, output) -> operand bits, raising oracles.Mismatch on a wrong output."""

    name: str
    make: Callable
    run: Callable
    check: Callable


class Workload:
    def __init__(self, name: str, kinds: tuple[Kind, ...], trace_requests: int) -> None:
        self.name = name
        self.kinds = kinds
        self.by_name = {kind.name: kind for kind in kinds}
        self.trace_requests = trace_requests  # requests in each pass of a traced run
        self.warmup_requests = len(kinds)  # the deck's first stratum: one small request per kind

    def deck(self, seed: int) -> "Deck":
        """Specs (kind, n, args) for one run; the same seed gives the same deck."""
        return Deck(self.kinds, random.Random(f"{self.name}:{seed}"))

    def setup(self, workdir: str) -> None:
        """Prepare a scratch directory for requests that need files; nothing by default."""

    def prepare(self, spec: tuple) -> None:
        """Untimed work one request needs before it runs; nothing by default."""

    def execute(self, spec: tuple, tracer):
        return self.by_name[spec[0]].run(tracer, *spec[2])

    def check(self, spec: tuple, output) -> int:
        return self.by_name[spec[0]].check(spec[2], output)


class Deck:
    """The distinct requests of one run, generated a round at a time; deck[i]
    raises IndexError past the point where some kind has no new input left."""

    STRATUM_TRIES = 64
    RANGE_TRIES = 4096

    def __init__(self, kinds: tuple[Kind, ...], rng: random.Random) -> None:
        self.kinds, self.rng = kinds, rng
        self.specs: list[tuple] = []
        self.seen: set[str] = set()
        self.exhausted = False

    def __getitem__(self, i: int) -> tuple:
        while i >= len(self.specs) and not self.exhausted:
            self._draw_round()
        return self.specs[i]

    def _draw_round(self) -> None:
        for j in range(STRATA):
            stratum = int(format(j, f"0{STRATA_BITS}b")[::-1], 2)
            for kind in self.kinds:
                spec = self._draw(kind, stratum)
                if spec is None:
                    self.exhausted = True
                    return
                self.specs.append(spec)

    def _draw(self, kind: Kind, stratum: int) -> tuple | None:
        for attempt in range(self.STRATUM_TRIES + self.RANGE_TRIES):
            u = (stratum + self.rng.random()) / STRATA if attempt < self.STRATUM_TRIES else self.rng.random()
            n, args = kind.make(self.rng, u)
            spec = (kind.name, n, args)
            key = repr(spec)
            if key not in self.seen:
                self.seen.add(key)
                return spec
        return None


# ---------------------------------------------------------------------------
# shared helpers


def _loguniform(u: float, lo: int, hi: int) -> int:
    return round(lo * (hi / lo) ** u)


def _pick(options, u: float):
    """A discrete shape chosen by the request's size stratum, so cost-setting
    choices are spread evenly and do not change from seed to seed."""
    return options[int(u * STRATA) % len(options)]


def _small(rng: random.Random, hi: int = 9, den: int = 6, positive: bool = False) -> F:
    num = rng.randint(1, hi)
    if not positive and rng.random() < 0.5:
        num = -num
    return F(num, rng.randint(1, den))


class Refused:
    """A value `format_rational` would not render because it passes the
    interpreter's int->str digit limit; the check still compares the value."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value


def refused(output) -> bool:
    """Whether a request's output holds a value refused at the int->str limit."""
    return isinstance(output, list) and any(isinstance(item, Refused) for item in output)


def _over_str_limit(value) -> bool:
    limit = sys.get_int_max_str_digits()
    return limit > 0 and max(abs(value.numerator), value.denominator) >= 10**limit


def _render(tracer, values) -> list:
    try:
        with tracer.span("exact"):
            texts = [format_rational(v) for v in values]
    except ValueError as exc:
        if "string conversion" not in str(exc):
            raise
        return [Refused(v) for v in values]
    tracer.rendered(texts)
    return texts


def _record(tracer, surd: QuadraticSurd) -> dict:
    with tracer.span("exact"):
        record = surd.to_record()
    tracer.rendered((record["a"], record["b"]))
    tracer.peak("exact.radicand_bits_max", record["d"].bit_length())
    return record


def _check_one(text, num: int, den: int) -> int:
    if isinstance(text, Refused):
        value = text.value
        expect(value.numerator * den == num * value.denominator, "refused value differs from reference")
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return O.check_fraction(text, num, den)


def _check_all(texts, pairs) -> int:
    texts, pairs = list(texts), list(pairs)
    expect(len(texts) == len(pairs), f"{len(texts)} values where {len(pairs)} were expected")
    if refused(texts):
        expect(any(_over_str_limit(t.value) for t in texts), "refused to render values within the int->str limit")
    return max((_check_one(t, *pair) for t, pair in zip(texts, pairs)), default=0)


def _middle(r: F, parity: str) -> F:
    return r if parity == "standard" else -r


def check_certificate(f0: F, fk: F, eps: F, rendered: list) -> int:
    """(M, c, N) against g1, |g2 - g1| of the golden orbit from g0 = f0/fk and
    the least N with c/(1+M)**(N-2) < eps, decided in integers."""
    M_text, c_text, N = rendered
    g1 = 1 / (1 + f0 / fk)
    g2 = 1 / (1 + g1)
    c = abs(g2 - g1)
    bits = max(O.check_rational(M_text, g1), O.check_rational(c_text, c))
    u, v = (1 + g1).numerator, (1 + g1).denominator

    def below(n: int) -> bool:
        return c.numerator * v ** (n - 2) * eps.denominator < eps.numerator * c.denominator * u ** (n - 2)

    expect(isinstance(N, int) and N >= 2 and below(N) and (N == 2 or not below(N - 1)), f"certificate N={N}")
    return bits


# ---------------------------------------------------------------------------
# jump: one far term per request

# (p, q) of w(n+2) = p*w(n+1) - q*w(n)
INT_COEFFS = ((1, -1), (2, -1), (3, -1), (1, -2), (3, 2))
UNIT_COEFFS = ((1, -1), (2, -1), (3, -1))  # |q| = 1 keeps far negative terms integral
RATIONAL_COEFFS = ((F(7, 3), F(-5, 2)), (F(3, 2), F(2, 5)), (F(5, 3), F(-7, 4)), (F(1, 2), F(-3, 2)),
                   (F(9, 4), F(1, 3)), (F(4, 3), F(-2, 3)))


def _make_term(lo: int, hi: int, coeffs):
    def make(rng, u):
        p, q = (F(c) for c in _pick(coeffs, u))
        if p.denominator == 1 == q.denominator:
            w0, w1 = F(rng.randint(0, 3)), F(rng.randint(1, 4))
        else:
            w0, w1 = _small(rng), _small(rng)
        n = _loguniform(u, lo, hi) * _pick((1, -1, -1, 1), u)
        return abs(n), (w0, w1, p, q, n)

    return make


def _run_term(term):
    def run(tr, w0, w1, p, q, n):
        with tr.span("horadam"):
            value = term(RecurrenceParams(w0, w1, p, q), n)
        tr.add("horadam.index_sum", abs(n))
        tr.bits("horadam", value)
        return _render(tr, [value])

    return run


def _check_term(args, out):
    return _check_all(out, [O.horadam(*args)])


RICCATI_COEFFS = ((F(1), F(1)), (F(7, 3), F(5, 2)), (F(2), F(3)), (F(3, 2), F(5, 4)), (F(1, 2), F(2, 3)))


def _make_riccati(lo: int, hi: int):
    def make(rng, u):
        p, q = _pick(RICCATI_COEFFS, u)
        plus = _pick((True, False, False, True), u)
        x0 = _small(rng, 7, 4, positive=True)
        n = _loguniform(u, lo, hi)
        return n, (p, q, "plus" if plus else "minus", x0 if plus else -x0, n)

    return make


def _run_closed_term(tr, p, q, branch, x0, n):
    with tr.span("riccati"):
        value = closed_form_term(RiccatiParams(p, q, branch), x0, n)
    tr.add("riccati.steps", n)
    tr.bits("riccati", value)
    return _render(tr, [value])


def _check_closed_term(args, out):
    p, q, branch, x0, n = args
    return _check_all(out, [O.riccati_term(p, q, branch == "plus", x0, n)])


def _make_cf(rng, u):
    m = _loguniform(u, 1500, 25_000)
    return m, (m,)


def _run_cf(tr, m):
    with tr.span("limits"):
        value = cf_convergent(m)
    tr.bits("limits", value)
    return _render(tr, [value])


def _check_cf(args, out):
    return _check_all(out, [O.lucas_pair(1, -1, args[0])])  # F(m)/F(m+1)


def _make_estimate(direction: str):
    def make(rng, u):
        n = _loguniform(u, 1500, 25_000)
        parity = _pick(("standard", "odd", "odd", "standard"), u)
        seed = (F(0), F(rng.randint(1, 5)))  # f(0) = 0 keeps every term nonzero
        return n, (F(_pick((1, 2, 3), u)), F(1), parity, seed, direction, n)

    return make


def _run_estimate(tr, r, s, parity, seed, direction, n):
    with tr.span("limits"):
        est = limit_estimate(RatioParams(r, s, parity), seed, direction, n)
    tr.bits("limits", est.ratio)
    out = _render(tr, [est.ratio])
    out.append(_record(tr, est.target))
    out.append(None if est.claimed is None else _record(tr, est.claimed))
    return out


def _check_estimate(args, out):
    r, s, parity, (f0, f1), direction, n = args
    rr, forward, standard = _middle(r, parity), direction == "forward", parity == "standard"

    def f(k):
        return O.horadam(f0, f1, rr, -s, k)

    bits = _check_all(out[:1], [O.ratio(f(n + 1), f(n)) if forward else O.ratio(f(1 - n), f(-n))])
    # the roots of x**2 = rr*x + s have opposite signs, so a sign picks one
    target = O.surd_from_record(out[1])
    expect(O.is_root(target, rr, s) and O.surd_sign(*target) == (1 if forward == standard else -1), "target")
    if forward:
        expect(out[2] is None, "a forward estimate carries no claimed value")
    else:
        claimed = O.surd_from_record(out[2])
        expect(O.is_root(claimed, -rr, s) and O.surd_sign(*claimed) == (-1 if standard else 1), "claimed")
    return bits


def _make_certificate(rng, u):
    k = _loguniform(u, 100, 1200)
    f0, fk = _pick(((0, 1), (1, 1), (1, 2), (2, 1), (3, 2)), u)
    return k, (F(f0), F(fk), F(rng.randint(1, 9), 10**k))


def _run_certificate(tr, f0, fk, eps):
    with tr.span("limits"):
        cert = certificate(f0, fk, eps)
    tr.add("limits.cert_N_sum", cert.N)
    return _render(tr, [cert.M, cert.c]) + [cert.N]


def _check_certificate(args, out):
    return check_certificate(*args, out)


JUMP = Workload(
    "jump",
    (
        Kind("horadam_int", _make_term(1500, 25_000, INT_COEFFS), _run_term(horadam_term), _check_term),
        Kind("horadam_rat", _make_term(150, 2000, RATIONAL_COEFFS), _run_term(horadam_term), _check_term),
        Kind("fast_int", _make_term(10_000, 500_000, UNIT_COEFFS), _run_term(fast_term), _check_term),
        Kind("fast_rat", _make_term(500, 6000, RATIONAL_COEFFS), _run_term(fast_term), _check_term),
        Kind("closed_form", _make_riccati(60, 700), _run_closed_term, _check_closed_term),
        Kind("cf", _make_cf, _run_cf, _check_cf),
        Kind("estimate_fwd", _make_estimate("forward"), _run_estimate, _check_estimate),
        Kind("estimate_bwd", _make_estimate("backward"), _run_estimate, _check_estimate),
        Kind("certificate", _make_certificate, _run_certificate, _check_certificate),
    ),
    trace_requests=180,
)


# ---------------------------------------------------------------------------
# sweep: every term up to a moderate n


def _run_orbit(tr, p, q, branch, x0, n):
    with tr.span("riccati"):
        report = iterate_orbit(RiccatiParams(p, q, branch), x0, n)
    tr.add("riccati.steps", n)
    tr.bits("riccati", report.trajectory)
    return _render(tr, report.trajectory) + [report.status()]


def _run_trajectory(tr, p, q, branch, x0, n):
    with tr.span("riccati"):
        values = closed_form_trajectory(RiccatiParams(p, q, branch), x0, n)
    tr.add("riccati.steps", n)
    tr.bits("riccati", values)
    return _render(tr, values) + ["completed"]


def _check_orbit(args, out):
    p, q, branch, x0, n = args
    expect(out[-1] == "completed", f"orbit status {out[-1]}")
    return _check_all(out[:-1], O.riccati_orbit(p, q, branch == "plus", x0, n))


def _make_subst(rng, u):
    p, q = _pick(RICCATI_COEFFS, u)
    n = _loguniform(u, 50, 600)
    return n, (p, q, F(rng.randint(0, 6), rng.randint(1, 4)), _small(rng, 6, 4, True), n)


def _run_subst(tr, p, q, t0, t1, n):
    with tr.span("riccati"):
        report = substitution_check(RiccatiParams(p, q, "plus"), t0, t1, n)
    tr.add("riccati.steps", n)
    tr.bits("riccati", report.t_values)
    return {"passed": report.passed, "t": _render(tr, report.t_values), "x": _render(tr, report.ratio_values)}


def _check_subst(args, out):
    p, q, t0, t1, n = args
    expect(out["passed"] is True, "substitution check did not pass")
    t_ref = O.recurrence_run(t0, t1, p / q, 1 / q, 0, n + 1)
    _check_all(out["x"], O.riccati_orbit(p, q, True, t0 / t1, n))
    return _check_all(out["t"], [(v.numerator, v.denominator) for v in t_ref])


def _make_window(rng, u):
    length = _loguniform(u, 50, 600)
    p, q = _pick(RATIONAL_COEFFS, u)
    return length, (_small(rng), _small(rng), p, q, rng.randint(-40, 40), length)


def _run_window(tr, w0, w1, p, q, start, length):
    with tr.span("horadam"):
        values = window(RecurrenceParams(w0, w1, p, q), start, length).values
    tr.add("horadam.index_sum", abs(start) + length)
    tr.bits("horadam", values)
    return _render(tr, values)


def _check_window(args, out):
    w0, w1, p, q, start, length = args
    return _check_all(out, [O.horadam(w0, w1, p, q, k) for k in range(start, start + length)])


def _make_lucas(rng, u):
    lo = rng.randint(-40, 0)
    span = _loguniform(u, 50, 600)
    p, q = _pick(RATIONAL_COEFFS, u)
    return span, (p, -q, lo, lo + span)


def _run_lucas(tr, A, B, lo, hi):
    with tr.span("horadam"):
        values = lucas_window(A, B, lo, hi)
    tr.add("horadam.index_sum", abs(lo) + hi - lo)
    tr.bits("horadam", values)
    return _render(tr, values)


def _check_lucas(args, out):
    A, B, lo, hi = args
    return _check_all(out, [O.horadam(F(0), F(1), A, -B, k) for k in range(lo, hi + 1)])


# (r, s, parity) of f(n+2) = ±r*f(n+1) + s*f(n); the golden case gets certificates
RATIO_COEFFS = ((F(1), F(1), "standard"), (F(3, 2), F(2, 5), "odd"), (F(2), F(3, 4), "standard"),
                (F(1), F(1), "standard"), (F(5, 3), F(1, 2), "standard"), (F(7, 4), F(4, 3), "odd"))


def _make_seed(rng, u) -> tuple:
    """(period, r, s, parity, offsets, seed pairs) of a PeriodicSeed."""
    count = _pick((1, 2, 3, 2), u)
    period = F(rng.randint(1, 4))
    offsets = tuple(period * F(i, count) for i in range(count))
    r, s, parity = _pick(RATIO_COEFFS, u)
    pairs = tuple((F(rng.randint(0, 5), rng.randint(1, 3)), _small(rng, 5, 3, True)) for _ in range(count))
    return period, r, s, parity, offsets, pairs


def _seed(period, r, s, parity, offsets, pairs) -> PeriodicSeed:
    return PeriodicSeed(period, RatioParams(r, s, parity), offsets, pairs)


def _lattice(seed_args, lo: int, hi: int, pair) -> list[F]:
    _, r, s, parity, _, _ = seed_args
    return O.recurrence_run(pair[0], pair[1], _middle(r, parity), s, lo, hi)


def _make_extend(rng, u):
    span = _loguniform(u, 50, 600)
    return span, (_make_seed(rng, u), -(span // 4), span - span // 4)


def _run_extend(tr, seed_args, nmin, nmax):
    with tr.span("fibfunc"):
        traces = extend(_seed(*seed_args), nmin, nmax)
    values = [v for trace in traces for v in trace.values]
    tr.add("fibfunc.lattice_terms", len(values))
    tr.bits("fibfunc", values)
    return _render(tr, values)


def _check_extend(args, out):
    seed_args, nmin, nmax = args
    ref = [v for pair in seed_args[5] for v in _lattice(seed_args, nmin, nmax, pair)]
    return _check_all(out, [(v.numerator, v.denominator) for v in ref])


def _make_trace(rng, u):
    span = _loguniform(u, 50, 600)
    seed_args = _make_seed(rng, u)
    return span, (seed_args, rng.randrange(len(seed_args[4])), -(span // 4), span - span // 4)


def _run_trace(tr, seed_args, index, nmin, nmax):
    with tr.span("fibfunc"):
        trace = ratio_trace(_seed(*seed_args), index, nmin, nmax)
    tr.add("fibfunc.lattice_terms", len(trace.values))
    tr.bits("fibfunc", trace.values)
    return {"values": _render(tr, trace.values), "ratios": _render(tr, trace.ratios),
            "undefined_at": trace.ratio_undefined_at}


def _check_trace(args, out):
    seed_args, index, nmin, nmax = args
    values = _lattice(seed_args, nmin, nmax + 1, seed_args[5][index])
    ratios, undefined_at = [], None
    for n in range(nmin, nmax + 1):
        if values[n + 1 - nmin] == 0:
            undefined_at = n
            break
        ratios.append(values[n - nmin] / values[n + 1 - nmin])
    expect(out["undefined_at"] == undefined_at, "first vanishing denominator")
    _check_all(out["ratios"], [(v.numerator, v.denominator) for v in ratios])
    return _check_all(out["values"], [(v.numerator, v.denominator) for v in values])


VERIFY_HORIZON = 600


def _make_verify(rng, u):
    digits = _loguniform(u, 10, 80)
    return digits, (_make_seed(rng, u), F(1, 10**digits))


def _run_verify(tr, seed_args, eps):
    with tr.span("fibfunc"):
        reports = verify_convergence(_seed(*seed_args), eps, VERIFY_HORIZON)
    out = []
    for report in reports:
        tr.add("fibfunc.lattice_terms", VERIFY_HORIZON if report.first_step is None else report.first_step + 1)
        cert = report.certificate
        if cert is not None:
            tr.add("limits.cert_N_sum", cert.N)
        out.append(
            {
                "target": _record(tr, report.target),
                "first_step": report.first_step,
                "ratio": None if report.ratio is None else _render(tr, [report.ratio])[0],
                "certificate": None if cert is None else _render(tr, [cert.M, cert.c]) + [cert.N],
            }
        )
    return out


def _check_verify(args, out):
    seed_args, eps = args
    _, r, s, parity, _, pairs = seed_args
    rr = _middle(r, parity)
    expect(len(out) == len(pairs), "one report per offset")
    bits = 0
    for report, (f0, f1) in zip(out, pairs):
        target = O.surd_from_record(report["target"])
        expect(O.is_root(target, rr, s) and O.surd_sign(*target) == (1 if parity == "standard" else -1), "target")
        stop = VERIFY_HORIZON if report["first_step"] is None else report["first_step"]
        values = _lattice(seed_args, 0, stop + 1, (f0, f1))
        first, last = None, None
        for n in range(stop + 1):
            a, b = values[n], values[n + 1]
            if a == 0:
                continue
            last = b / a
            diff = (last - target[0], -target[1], target[2])
            if O.surd_sign(eps - diff[0], -diff[1], diff[2]) > 0 and O.surd_sign(eps + diff[0], diff[1], diff[2]) > 0:
                first = n
                break
        expect(first == report["first_step"], f"first step {report['first_step']}, reference {first}")
        if last is not None:
            bits = max(bits, O.check_rational(report["ratio"], last))
        golden = (r, s, parity) == (1, 1, "standard")
        certified = golden and ((f0 >= 0 and f1 > 0) or (f0 <= 0 and f1 < 0))
        expect((report["certificate"] is not None) == certified, "certificate presence")
        if certified:
            check_certificate(abs(f0), abs(f1), eps, report["certificate"])
    return bits


def _make_nesting(rng, u):
    n = _loguniform(u, 50, 600)
    return n, (n,)


def _run_nesting(tr, n_max):
    with tr.span("limits"):
        report = nesting_check(n_max)
    return [list(report.convergent_failures), list(report.ordering_failures)]


def _check_nesting(args, out):
    expect(out == [[], []], f"nesting failures {out}")
    return O.lucas_pair(1, -1, args[0] + 1)[1].bit_length()


SWEEP = Workload(
    "sweep",
    (
        Kind("orbit", _make_riccati(50, 600), _run_orbit, _check_orbit),
        Kind("closed_form", _make_riccati(50, 600), _run_trajectory, _check_orbit),
        Kind("substitution", _make_subst, _run_subst, _check_subst),
        Kind("window", _make_window, _run_window, _check_window),
        Kind("lucas_window", _make_lucas, _run_lucas, _check_lucas),
        Kind("extend", _make_extend, _run_extend, _check_extend),
        Kind("ratio_trace", _make_trace, _run_trace, _check_trace),
        Kind("verify", _make_verify, _run_verify, _check_verify),
        Kind("nesting", _make_nesting, _run_nesting, _check_nesting),
    ),
    trace_requests=1200,
)


# ---------------------------------------------------------------------------
# surd: small quadratic-field requests with large prime radicands

PRIME_BITS = (12, 36)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # exact below 3.3e24


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for w in _WITNESSES:
        if n % w == 0:
            return n == w
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for w in _WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _field(rng, u) -> tuple[int, tuple]:
    """x**2 = p*x + q, p and q positive, with discriminant k*P/c**2 for a prime P
    whose bit length is the u-quantile of PRIME_BITS.

    Returns (bits of P, (p, q, k*P, c)); the roots are p/2 ± sqrt(k*P)/(2c).
    """
    bits = round(PRIME_BITS[0] + (PRIME_BITS[1] - PRIME_BITS[0]) * u)
    while True:
        prime = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_prime(prime):
            break
    k, a, c = rng.randint(1, 12), rng.randint(1, 20), rng.randint(1, 6)
    return bits, (F(a, c), F(k * prime - a * a, 4 * c * c), k * prime, c)


def _roots(field) -> tuple[tuple, tuple]:
    p, _, rad, c = field
    return (p / 2, F(1, 2 * c), rad), (p / 2, F(-1, 2 * c), rad)


def _make_field(rng, u):
    bits, field = _field(rng, u)
    return bits, (field,)


def _run_roots(tr, field):
    with tr.span("exact"):
        roots = quadratic_roots(field[0], field[1])
    tr.bits("exact", roots)
    return [_record(tr, r) for r in roots]


def _check_roots(args, out):
    field = args[0]
    for record, ref in zip(out, _roots(field)):
        root = O.surd_from_record(record)
        expect(O.is_root(root, field[0], field[1]) and O.surd_equal(root, ref), f"root {record}")
    return field[2].bit_length()


def _make_decomposition(rng, u):
    bits, field = _field(rng, u)
    square = _small(rng, positive=True)
    return bits, (field[2] * square * square / (field[3] * field[3]),)


def _run_decomposition(tr, value):
    with tr.span("exact"):
        coeff, d = sqrt_decomposition(value)
    tr.bits("exact", coeff)
    tr.peak("exact.radicand_bits_max", d.bit_length())
    return _render(tr, [coeff]) + [d]


def _check_decomposition(args, out):
    value, (coeff_text, d) = args[0], out
    coeff = F(*O.parse_fraction(coeff_text))
    expect(isinstance(d, int) and d >= 1 and coeff >= 0 and coeff * coeff * d == value, "sqrt decomposition")
    expect((d == 1) == O.is_rational_square(value), "d == 1 exactly for rational squares")
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _make_arith(rng, u):
    bits, field = _field(rng, u)
    return bits, (field, _small(rng))


def _run_arith(tr, field, shift):
    with tr.span("exact"):
        r1, r2 = quadratic_roots(field[0], field[1])
        y = (r1 + shift) / (r2 - shift)
        z = y * y - r1 * r2
        less = z < r1
    tr.bits("exact", z)
    return [_record(tr, z), less]


def _check_arith(args, out):
    field, shift = args
    r1, r2 = _roots(field)
    y = O.surd_mul(O.surd_add(r1, (shift, 0, r1[2])), O.surd_inv(O.surd_add(r2, (-shift, 0, r2[2]))))
    z = O.surd_add(O.surd_mul(y, y), (field[1], 0, r1[2]))  # r1*r2 = -q
    got = O.surd_from_record(out[0])
    expect(O.surd_equal(got, z), "surd arithmetic")
    expect(out[1] == (O.surd_sign(z[0] - r1[0], z[1] - r1[1], r1[2]) < 0), "surd comparison")
    return field[2].bit_length()


def _make_abs_lt(rng, u):
    bits, field = _field(rng, u)
    p, _, rad, c = field
    approx = F(float(p / 2) + rad**0.5 / (2 * c))
    return bits, (field, approx, F(rng.randint(1, 9), 10 ** rng.randint(8, 16)))


def _run_abs_lt(tr, field, approx, eps):
    with tr.span("exact"):
        r1, _ = quadratic_roots(field[0], field[1])
        inside = abs_lt(r1 - approx, eps)
    return [inside]


def _check_abs_lt(args, out):
    field, approx, eps = args
    a, b, d = _roots(field)[0]
    a -= approx
    inside = O.surd_sign(eps - a, -b, d) > 0 and O.surd_sign(eps + a, b, d) > 0
    expect(out == [inside], "abs_lt")
    return field[2].bit_length()


def _make_decimal(rng, u):
    bits, field = _field(rng, u)
    return bits, (field, _loguniform(rng.random(), 12, 200))


def _run_decimal(tr, field, digits):
    a, b, rad = _roots(field)[0]
    with tr.span("exact"):
        text = decimal_str(QuadraticSurd(a, b, rad), digits)
    tr.rendered([text])
    return [text]


def _check_decimal(args, out):
    field, digits = args
    expect(out == [O.decimal(*_roots(field)[0], digits)], "decimal rendering")
    return field[2].bit_length()


def _make_fixed(rng, u):
    bits, field = _field(rng, u)
    return bits, (field, _pick(("plus", "minus"), u))


def _run_fixed(tr, field, branch):
    with tr.span("riccati"):
        points = fixed_points(RiccatiParams(field[0], field[1], branch))
    tr.bits("riccati", points)
    return [_record(tr, x) for x in points]


def _check_fixed(args, out):
    (p, q, _, _), branch = args
    big, small = (O.surd_from_record(record) for record in out)
    # x == q/(±p + x)  <=>  x*x == ∓p*x + q
    middle = -p if branch == "plus" else p
    expect(O.is_root(big, middle, q) and O.is_root(small, middle, q), "fixed point equation")
    expect(big[2] == small[2] and O.surd_sign(big[0] - small[0], big[1] - small[1], big[2]) > 0, "fixed point order")
    return args[0][2].bit_length()


def _forbidden_element(p: F, q: F, branch: str, m: int) -> F:
    """The initial value that reaches the pole at step m: the pole's (m-1)-th preimage."""
    pole = -p if branch == "plus" else p
    x = pole
    for _ in range(m - 1):
        x = q / x + pole
    return x


def _make_classify(rng, u):
    bits, field = _field(rng, u)
    p, q, rad, c = field
    branch, mode = _pick(("plus", "minus"), u), _pick(("fixed", "shifted", "forbidden", "forbidden"), u)
    depth = rng.randint(4, 24)
    if mode == "forbidden":
        m = rng.randint(1, depth)
        return bits, (field, branch, _forbidden_element(p, q, branch, m), depth, f"forbidden_depth({m})")
    # fixed points solve x**2 ± p*x - q = 0; the larger is pole/2 + sqrt(k*P)/(2c)
    surd = ((-p if branch == "plus" else p) / 2, F(1, 2 * c), rad)
    if mode == "fixed":
        return bits, (field, branch, surd, depth, "fixed_point")
    return bits, (field, branch, (surd[0] + 1, surd[1], rad), depth, "regular")


def _run_classify(tr, field, branch, x0, depth, _expected):
    if isinstance(x0, tuple):
        with tr.span("exact"):
            x0 = QuadraticSurd(*x0)
    with tr.span("riccati"):
        label = classify_initial(RiccatiParams(field[0], field[1], branch), x0, depth).label()
    tr.add("riccati.steps", depth)
    return [label]


def _check_classify(args, out):
    expect(out == [args[4]], f"classification {out}, expected {args[4]}")
    return args[0][2].bit_length()


def _make_rho(rng, u):
    bits, field = _field(rng, u)
    return bits, (field, _loguniform(rng.random(), 12, 60))


def _run_rho(tr, field, digits):
    with tr.span("limits"):
        root = dominant_root(field[0], field[1])
    tr.bits("limits", root)
    with tr.span("exact"):
        text = decimal_str(root, digits)
    tr.rendered([text])
    return [_record(tr, root), text]


def _check_rho(args, out):
    field, digits = args
    root, ref = O.surd_from_record(out[0]), _roots(field)[0]
    expect(O.is_root(root, field[0], field[1]) and O.surd_equal(root, ref), "dominant root")
    expect(out[1] == O.decimal(*ref, digits), "dominant root decimal")
    return field[2].bit_length()


SURD = Workload(
    "surd",
    (
        Kind("roots", _make_field, _run_roots, _check_roots),
        Kind("decomposition", _make_decomposition, _run_decomposition, _check_decomposition),
        Kind("arith", _make_arith, _run_arith, _check_arith),
        Kind("abs_lt", _make_abs_lt, _run_abs_lt, _check_abs_lt),
        Kind("decimal", _make_decimal, _run_decimal, _check_decimal),
        Kind("fixed_points", _make_fixed, _run_fixed, _check_fixed),
        Kind("classify", _make_classify, _run_classify, _check_classify),
        Kind("dominant_root", _make_rho, _run_rho, _check_rho),
    ),
    trace_requests=1024,
)


# ---------------------------------------------------------------------------
# cli: one `python -m aurea.cli` process per request


class CliFailure(RuntimeError):
    """The CLI process exited with an unexpected code or timed out."""


CLI_TIMEOUT_S = 60


def _rats(values) -> str:
    return ";".join(format_rational(v) for v in values)


def _flatten(record: dict, prefix: str = "") -> dict[str, str]:
    """The CLI's CSV column convention, applied to a JSON record."""
    flat = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, name + "."))
        elif isinstance(value, list):
            flat[name] = ";".join(str(item) for item in value)
        elif isinstance(value, bool):
            flat[name] = "true" if value else "false"
        else:
            flat[name] = "" if value is None else str(value)
    return flat


def _cli_horadam(rng, u):
    lo = rng.randint(-10, 10)
    hi = lo + _loguniform(u, 1, 60)
    params = (F(rng.randint(-3, 3)), F(rng.randint(1, 4)), F(rng.randint(1, 3)), F(rng.choice((-1, 1, 2))))
    fast = rng.random() < 0.3
    argv = ["horadam", *(f"--{k}={format_rational(v)}" for k, v in zip(("w0", "w1", "p", "q"), params)), f"--n={lo}..{hi}"]
    return argv + ["--fast"] * fast, (params, lo, hi, fast)


def _expect_horadam(params, lo, hi, fast):
    rp = RecurrenceParams(*params)
    values = [fast_term(rp, k) for k in range(lo, hi + 1)] if fast else window(rp, lo, hi - lo + 1).values
    return [{"result.terms": _rats(values)}]


def _riccati_argv(command, p, q, branch, *rest):
    return ["riccati", command, f"--p={format_rational(p)}", f"--q={format_rational(q)}", f"--branch={branch}", *rest]


def _cli_orbit(rng, u):
    _, (p, q, branch, x0, _) = _make_riccati(1, 2)(rng, u)
    n = _loguniform(u, 2, 60)
    return _riccati_argv("orbit", p, q, branch, f"--x0={format_rational(x0)}", f"--n={n}"), (p, q, branch, x0, n)


def _expect_orbit(p, q, branch, x0, n):
    report = iterate_orbit(RiccatiParams(p, q, branch), x0, n)
    return [{"result.trajectory": _rats(report.trajectory), "result.status": report.status()}]


def _cli_solve(rng, u):
    argv, args = _cli_orbit(rng, u)
    argv[1] = "solve"
    return argv, args


def _expect_solve(p, q, branch, x0, n):
    values = closed_form_trajectory(RiccatiParams(p, q, branch), x0, n)
    return [{"result.closed_form": _rats(values), "result.orbit": _rats(values), "result.match": "true"}]


def _cli_forbidden_seed(rng, u):
    p, q, branch = _small(rng, 7, 4, True), _small(rng, 7, 4, True), rng.choice(("plus", "minus"))
    depth = rng.randint(1, 8)
    x0 = _forbidden_element(p, q, branch, depth)
    return _riccati_argv("solve", p, q, branch, f"--x0={format_rational(x0)}", f"--n={depth + 2}"), ()


def _expect_error():
    return None  # exit 2, nothing on stdout


def _cli_forbidden(rng, u):
    p, q = _small(rng, 7, 4, True), _small(rng, 7, 4, True)
    branch, depth = rng.choice(("plus", "minus")), _loguniform(u, 1, 30)
    return _riccati_argv("forbidden", p, q, branch, f"--depth={depth}"), (p, q, branch, depth)


def _expect_forbidden(p, q, branch, depth):
    return [{"result.elements": _rats(forbidden_set(RiccatiParams(p, q, branch), depth))}]


def _cli_classify(rng, u):
    _, (field, branch, x0, depth, label) = _make_classify(rng, u * 0.25)
    p, q = field[0], field[1]
    if isinstance(x0, tuple):
        value = f"--surd={format_rational(x0[0])},{format_rational(x0[1])},{x0[2]}"
    else:
        value = f"--x0={format_rational(x0)}"
    return _riccati_argv("classify", p, q, branch, value, f"--depth={depth}"), (label,)


def _expect_classify(label):
    return [{"result.classification": label}]


def _cli_subst(rng, u):
    _, (p, q, t0, t1, _) = _make_subst(rng, 0.0)
    n = _loguniform(u, 2, 40)
    argv = ["riccati", "subst-check", f"--p={format_rational(p)}", f"--q={format_rational(q)}",
            f"--t0={format_rational(t0)}", f"--t1={format_rational(t1)}", f"--n={n}"]
    return argv, (p, q, t0, t1, n)


def _expect_subst(p, q, t0, t1, n):
    report = substitution_check(RiccatiParams(p, q, "plus"), t0, t1, n)
    return [{"result.passed": "true", "result.t_values": _rats(report.t_values)}]


def _cli_certificate(rng, u):
    f0, fk, eps = F(rng.randint(0, 5)), F(rng.randint(1, 5)), F(1, 10 ** _loguniform(u, 3, 60))
    argv = ["limits", "certificate", f"--f0={f0}", f"--fk={fk}", f"--eps={format_rational(eps)}"]
    return argv, (f0, fk, eps)


def _expect_certificate(f0, fk, eps):
    cert = certificate(f0, fk, eps)
    return [{"result.M": format_rational(cert.M), "result.c": format_rational(cert.c), "result.N": str(cert.N)}]


def _cli_rho(rng, u):
    r, s, digits = _small(rng, 9, 4, True), _small(rng, 9, 4, True), _loguniform(u, 4, 60)
    return ["limits", "rho", f"--r={format_rational(r)}", f"--s={format_rational(s)}", f"--digits={digits}"], (r, s, digits)


def _expect_rho(r, s, digits):
    root = dominant_root(r, s)
    record = root.to_record()
    return [{"result.rho.a": record["a"], "result.rho.b": record["b"], "result.rho.d": str(record["d"]),
             "result.decimal": decimal_str(root, digits)}]


def _cli_cf(rng, u):
    m, digits = _loguniform(u, 1, 200), rng.randint(4, 40)
    return ["limits", "cf", f"--m={m}", f"--digits={digits}"], (m, digits)


def _expect_cf(m, digits):
    value = cf_convergent(m)
    return [{"result.convergent": format_rational(value), "result.decimal": decimal_str(value, digits)}]


def _cli_estimate(rng, u):
    direction = rng.choice(("forward", "backward"))
    _, (r, s, parity, seed, _, _) = _make_estimate(direction)(rng, 0.0)
    n = _loguniform(u, 2, 80)
    argv = ["limits", "estimate", f"--r={r}", f"--s={s}", f"--parity={parity}", f"--direction={direction}",
            f"--n={n}", f"--seed0={seed[0]}", f"--seed1={seed[1]}"]
    return argv, (r, s, parity, seed, direction, n)


def _expect_estimate(r, s, parity, seed, direction, n):
    est = limit_estimate(RatioParams(r, s, parity), seed, direction, n)
    return [{"result.ratio": format_rational(est.ratio), "result.estimate": decimal_str(est.ratio, 12),
             "result.target_decimal": decimal_str(est.target, 12)}]


def _seed_file_text(seed_args) -> str:
    period, r, s, parity, offsets, pairs = seed_args
    lines = [f"k={format_rational(period)} kind={parity} r={format_rational(r)} s={format_rational(s)}"]
    lines += [" ".join(format_rational(v) for v in (xi, *pair)) for xi, pair in zip(offsets, pairs)]
    return "\n".join(lines) + "\n"


def _seed_path(seed_args) -> str:
    return f"seeds/{hashlib.sha1(_seed_file_text(seed_args).encode()).hexdigest()[:16]}.txt"


def _parsed_seed(seed_args) -> PeriodicSeed:
    """The seed as the library reads the file the CLI is given."""
    return parse_seed(_seed_file_text(seed_args))


def _cli_extend(rng, u):
    seed_args, nmax = _make_seed(rng, u), _loguniform(u, 1, 60)
    nmin = -rng.randint(0, 10)
    argv = ["fibfunc", "extend", f"--seed-file={_seed_path(seed_args)}", f"--nmin={nmin}", f"--nmax={nmax}"]
    return argv, (seed_args, nmin, nmax)


def _expect_extend(seed_args, nmin, nmax):
    return [{"result.values": _rats(t.values)} for t in extend(_parsed_seed(seed_args), nmin, nmax)]


def _cli_trace(rng, u):
    seed_args, nmax = _make_seed(rng, u), _loguniform(u, 1, 60)
    return ["fibfunc", "trace", f"--seed-file={_seed_path(seed_args)}", f"--nmax={nmax}"], (seed_args, nmax)


def _expect_trace(seed_args, nmax):
    seed = _parsed_seed(seed_args)
    return [{"result.ratios": _rats(ratio_trace(seed, i, 0, nmax).ratios)} for i in range(len(seed.offsets))]


def _cli_verify(rng, u):
    seed_args, digits = _make_seed(rng, u), _loguniform(u, 2, 30)
    argv = ["fibfunc", "verify", f"--seed-file={_seed_path(seed_args)}", f"--eps=1/{10**digits}", "--max-steps=200"]
    return argv, (seed_args, digits)


def _expect_verify(seed_args, digits):
    reports = verify_convergence(_parsed_seed(seed_args), F(1, 10**digits), 200)
    return [{"result.first_step": "" if r.first_step is None else str(r.first_step),
             "result.target_decimal": decimal_str(r.target, 12)} for r in reports]


def _cli_kind(name: str, make: Callable, expected: Callable, exit_code: int = 0) -> Kind:
    def make_spec(rng, u):
        argv, args = make(rng, u)
        fmt = _pick(("json", "csv"), u)
        return len(argv), (tuple(argv) + (f"--format={fmt}",), fmt, exit_code, args)

    def check(spec_args, out):
        _, fmt, _, args = spec_args
        want = expected(*args)
        if want is None:
            expect(out == "", "a refused command printed records")
            return 0
        if fmt == "json":
            rows = [_flatten(json.loads(line)) for line in out.splitlines()]
        else:
            rows = list(csv.DictReader(io.StringIO(out)))
        expect(len(rows) == len(want), f"{len(rows)} records where {len(want)} were expected")
        for row, fields in zip(rows, want):
            for key, value in fields.items():
                expect(row.get(key) == value, f"{name}: {key} = {str(row.get(key))[:60]}, expected {value[:60]}")
        return 0

    return Kind(name, make_spec, None, check)


class CliWorkload(Workload):
    """Requests are CLI processes run from a scratch directory holding the seed files."""

    def setup(self, workdir):
        self.workdir = workdir
        os.makedirs(os.path.join(workdir, "seeds"), exist_ok=True)
        self.warmup_requests = 1  # one process start warms the file cache; more would only add time
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src")))

    def prepare(self, spec):
        argv, _, _, args = spec[2]
        if argv[0] == "fibfunc":
            path = os.path.join(self.workdir, _seed_path(args[0]))
            if not os.path.exists(path):
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(_seed_file_text(args[0]))

    def execute(self, spec, tracer):
        argv, _, exit_code, _ = spec[2]
        with tracer.span("cli"):
            try:
                proc = subprocess.run([sys.executable, "-m", "aurea.cli", *argv], cwd=self.workdir, env=self.env,
                                      capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired as exc:
                raise CliFailure(f"timed out after {CLI_TIMEOUT_S} s") from exc
        tracer.add("cli.stdout_bytes", len(proc.stdout))
        if proc.returncode != exit_code:
            raise CliFailure(f"exit {proc.returncode}, expected {exit_code}: {proc.stderr.strip()[-200:]}")
        return proc.stdout


CLI = CliWorkload(
    "cli",
    (
        _cli_kind("horadam", _cli_horadam, _expect_horadam),
        _cli_kind("riccati_orbit", _cli_orbit, _expect_orbit),
        _cli_kind("riccati_solve", _cli_solve, _expect_solve),
        _cli_kind("riccati_forbidden", _cli_forbidden, _expect_forbidden),
        _cli_kind("riccati_classify", _cli_classify, _expect_classify),
        _cli_kind("riccati_subst_check", _cli_subst, _expect_subst),
        _cli_kind("limits_certificate", _cli_certificate, _expect_certificate),
        _cli_kind("limits_rho", _cli_rho, _expect_rho),
        _cli_kind("limits_cf", _cli_cf, _expect_cf),
        _cli_kind("limits_estimate", _cli_estimate, _expect_estimate),
        _cli_kind("fibfunc_extend", _cli_extend, _expect_extend),
        _cli_kind("fibfunc_trace", _cli_trace, _expect_trace),
        _cli_kind("fibfunc_verify", _cli_verify, _expect_verify),
        _cli_kind("forbidden_seed", _cli_forbidden_seed, _expect_error, exit_code=2),
    ),
    trace_requests=56,
)

WORKLOADS = {w.name: w for w in (JUMP, SWEEP, SURD, CLI)}
