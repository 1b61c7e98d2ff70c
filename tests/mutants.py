"""Mutation gate: every listed one-line mutant of src/aurea must fail the test suite.

Run it from any directory, with the test extras installed:

    python tests/mutants.py

The checkout is copied once to a temporary directory, without .git and
caches.  For each entry of MUTANTS, `old` must occur exactly once in its
file; it is replaced by `new`, the suite runs in the copy as

    python -m pytest -x -q -p no:cacheprovider --hypothesis-seed=0 tests/KILLER
    python -m pytest -x -q -p no:cacheprovider --hypothesis-seed=0 tests

the second only when the first passes, and the file is restored.  KILLER is
the entry's test file that kills it, run first so that a mutant caught late
in name order does not wait for every file before it; one pytest run on
`tests/KILLER tests` would not do, since pytest collects overlapping paths
in tree order.  Only the library's own tests run: a mutant must be killed by
them, not by the benchmark's smoke deck under bench/, whose requests may
change.  Hypothesis' example database is removed before each run, so every
run draws the same examples and the set of killed mutants is reproducible.
A mutant is killed when either run fails, so the whole suite still decides
one whose KILLER no longer kills it.  A run that does not end within
TIMEOUT_S seconds is no kill: it fails the gate with a TIMEOUT line, since a
suite that hangs on a broken kernel hangs Tier-1 too.  The copy is needed
because pyproject's `pythonpath = ["src"]` puts the checkout's own src/
first, so no PYTHONPATH can point pytest at a mutated tree.

Exit status 0 when every mutant is killed; 1 when one survives, times out or
no longer applies, each named on stderr.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
TIMEOUT_S = 600  # a run past this fails the gate with a TIMEOUT line

# (file under src/aurea, old, new, why, killer): each a one-line change that breaks a documented
# behaviour, and the file under tests/ that kills it
MUTANTS = [
    (
        "limits.py",
        "while N > 2 and below(N - 1):",
        "while N > 3 and below(N - 1):",
        "certificate's downward fix-up stops at N = 3 where the answer is 2, as for certificate(1, 1, 1/5)",
        "test_certificate.py",
    ),
    (
        "fibfunc.py",
        "if above_low(ratio) > 0 > above_high(ratio):",
        "if above_low(ratio) >= 0 > above_high(ratio):",
        "verify_convergence counts a ratio equal to target - eps as inside; differs only at a rational target",
        "test_fibfunc.py",
    ),
    (
        "exact.py",
        "if scaled >= below + m:",
        "if scaled > below + m:",
        "_cut sends its upper bracket end (L + 1)/2**bits to the sign core: same answers, one more sign-core call",
        "test_cut.py",
    ),
    (
        "exact.py",
        "if scaled <= below:",
        "if scaled < below:",
        "_cut sends its lower bracket end L/2**bits to the sign core: same answers, one more sign-core call",
        "test_cut.py",
    ),
    (
        "riccati.py",
        "return self._shift / self.q, 1 / self.q",
        "return self.p / self.q, 1 / self.q",
        "the map's linearisation drops the branch sign, so iterate_orbit steps the plus branch's map on the minus "
        "branch too",
        "test_riccati.py",
    ),
    (
        "riccati.py",
        "is forbidden at depth {orbit.pole_step}",
        "is forbidden at depth {orbit.pole_step + 1}",
        "the closed form's refusal names a depth one past the orbit's pole step",
        "test_riccati.py",
    ),
    (
        "horadam.py",
        "return values, (len(values) if len(values) < count else None)",
        "return values, (len(values) + 1 if len(values) < count else None)",
        "_orbit reports the pole one step after the last finite point",
        "test_riccati.py",
    ),
    (
        "horadam.py",
        "if not y:",
        "if not x:",
        "_orbit stops at the finite point 0 instead of the infinite point",
        "test_riccati.py",
    ),
    (
        "horadam.py",
        "g = gcd(det, x, y, c)",
        "g = gcd(det, x, c)",
        "_steps divides y by a content that was taken without it",
        "test_riccati.py",
    ),
    (
        "horadam.py",
        "else (P, -1, -Q, 0)",
        "else (P, 1, -Q, 0)",
        "_start powers a wrong adjugate, so every window below 0 starts from the wrong pair",
        "test_horadam.py",
    ),
    (
        "horadam.py",
        "if k:",
        "if True:",
        "_start squares its matrix once more after the index's top bit: the same values at a higher cost, "
        "which only test_kernel's tracemalloc guard on _start's peak sees",
        "test_kernel.py",
    ),
    (
        "fibfunc.py",
        "offset <= previous",
        "offset < previous",
        "PeriodicSeed accepts a repeated offset",
        "test_refusals.py",
    ),
    (
        "fibfunc.py",
        "(n_min <= 0 and n_max >= 1):",
        "(n_min <= 0 and n_max >= 0):",
        "extend returns a lattice that lacks the seed's f(xi + k)",
        "test_refusals.py",
    ),
    (
        "fibfunc.py",
        "f0 * f1 >= 0",
        "f0 * f1 > 0",
        "verify_convergence drops the golden certificate of a seed with f(xi) = 0, such as (0, 1)",
        "test_fibfunc.py",
    ),
    (
        "cli.py",
        "args.digits > 1000",
        "args.digits > 999",
        "--digits refuses 1000, the documented maximum",
        "test_cli.py",
    ),
    (
        "cli.py",
        'params.pop("offset_index", None)',
        'params.get("offset_index", None)',
        "fibfunc trace echoes the offset index next to the offset it selects",
        "test_cli.py",
    ),
    (
        "limits.py",
        "convergent_failures.append(n)",
        "pass",
        "nesting_check passes an orbit value that is not F(n)/F(n+1)",
        "test_limits.py",
    ),
    (
        "limits.py",
        "ordering_failures.append(n)",
        "pass",
        "nesting_check passes an orbit value on the wrong side of phi - 1",
        "test_limits.py",
    ),
    (
        "exact.py",
        "float(self.a) + float(self.b)",
        "float(self.a) - float(self.b)",
        "float() of a surd is the float of its conjugate",
        "test_exact.py",
    ),
    (
        "exact.py",
        "return str(self.a)",
        "return repr(self.a)",
        "str() of a rational-valued surd prints Fraction(3, 2) instead of 3/2",
        "test_exact.py",
    ),
    (
        "exact.py",
        "if disc <= 0:",
        "if disc < 0:",
        "quadratic_roots passes a zero discriminant on, and the refusal names radicand 0, not the discriminant",
        "test_refusals.py",
    ),
    (
        "exact.py",
        "d = disc.numerator * disc.denominator",
        "d = disc.numerator",
        "quadratic_roots drops the discriminant's denominator from the radicand, so sqrt(5/4) reads sqrt(5)/4",
        "test_exact.py",
    ),
    (
        "fibfunc.py",
        "if not sep or not value:",
        "if not sep:",
        "parse_seed accepts a header token with an empty value, such as 'k='",
        "test_refusals.py",
    ),
    (
        "cli.py",
        "if hi < lo:",
        "if hi < lo - 1:",
        "horadam --n accepts the empty range lo..lo-1",
        "test_cli.py",
    ),
    (
        "limits.py",
        "if not (f0 >= 0 and fk > 0):",
        "if not (f0 >= 0 and fk >= 0):",
        "certificate accepts fk = 0: (1, 0) names the search budget and (0, 0) divides by zero",
        "test_refusals.py",
    ),
    (
        "riccati.py",
        "if not t[k + 1]), None)",
        "if not t[k]), None)",
        "substitution_check puts the window's pole one step early, at step 0 when t0 = 0",
        "test_riccati.py",
    ),
    (
        "riccati.py",
        "q**k * t[k] == t0 * u[k + 1]",
        "t[k] == t0 * u[k + 1]",
        "substitution_check's closed-form decision drops q**k, so it fails wherever q*t1 != t1",
        "test_riccati.py",
    ),
    (
        "riccati.py",
        "if pole_step != orbit.pole_step else ()",
        "if pole_step == orbit.pole_step else ()",
        "substitution_check fails where the window and the orbit meet the pole at the same step",
        "test_riccati.py",
    ),
    (
        "limits.py",
        "3 + int(excess / rate)",
        "3 + int(excess * rate)",
        "certificate's log estimate of N lands far below N, so its exact fix-up walks N up one power at a time",
        "test_certificate.py",
    ),
    (
        "exact.py",
        "return a, b, c, e, dx if b else dy",
        "return a, b, c, e, dy if b else dx",
        "_parts takes the field from the rational side, so a surd meets an int or a rational-valued surd in Q(sqrt(2))",
        "test_exact.py",
    ),
    (
        "exact.py",
        "if b and e and dx != dy:",
        "if e and dx != dy:",
        "_parts refuses a rational-valued surd on the left of a surd whose radicand is not 2",
        "test_exact.py",
    ),
    (
        "exact.py",
        "return 1 if p > 0 else -1",
        "return -1",
        "the sign core calls an irrational difference whose rational part outweighs its surd part negative, as 2 - phi",
        "test_exact.py",
    ),
    (
        "exact.py",
        "if p and (p > 0) != (r > 0) and p * p > r * r * d:",
        "if p and p * p > r * r * d:",
        "the sign core squares both parts of a difference whose parts share a sign: the same signs at the cost of "
        "two products, which only test_cut's count of products with the radicand sees",
        "test_cut.py",
    ),
    (
        "horadam.py",
        "n, d = -n, -d",
        "n, d = n, -d",
        "a value read over a negative denominator drops that sign instead of moving it to the numerator",
        "test_horadam.py",
    ),
    (
        "horadam.py",
        "t, s = s, s * s",
        "s = s * s",
        "a window term's common factor is stripped one factor t per round, not as its largest square power: "
        "the same terms in rounds linear in the factor's size, which test_kernel's count of gcds sees",
        "test_kernel.py",
    ),
    (
        "horadam.py",
        "(count % CHUNK,)",
        "(CHUNK,)",
        "a counted ratio stream fills its last chunk, stepping and handing out ratios past its count",
        "test_kernel.py",
    ),
    (
        "horadam.py",
        "_steps(*_ints(1, B, A), *_ints(a, b), 0, 1, 1, sizes=(count,))",
        "_steps(*_ints(1, A, B), *_ints(a, b), 0, 1, 1, sizes=(count,))",
        "the quotient reader swaps A and B, so every orbit but one with A = B steps the wrong recurrence",
        "test_riccati.py",
    ),
    (
        "horadam.py",
        "for i in range(read, read + size):",
        "for i in range(read, read - size):",
        "every read of _steps is empty, so every orbit reports a pole at step 0 and every window is empty",
        "test_horadam.py",
    ),
    (
        "fibfunc.py",
        "if period <= 0:",
        "if period < 0:",
        "PeriodicSeed lets period 0 through to the offset check, which refuses it as 'offset 0 outside [0, 0)'",
        "test_fibfunc.py",
    ),
]


def _mutate(path: Path, old: str, new: str) -> str | None:
    """Write the mutant into path and return the original text, or None when `old` does not occur exactly once."""
    text = path.read_text()
    if text.count(old) != 1:
        return None
    path.write_text(text.replace(old, new))
    return text


def _run_suite(checkout: Path, killer: str) -> tuple[str, str]:
    """(verdict, how): tests/killer is run in the checkout, and then, if it passes, all of tests/.

    The verdict is "killed" when a run fails, "TIMEOUT" when one does not end, and "SURVIVED" otherwise.
    """
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    for target in (f"tests/{killer}", "tests"):
        shutil.rmtree(checkout / ".hypothesis", ignore_errors=True)
        try:
            result = subprocess.run(
                [*PYTEST, target], cwd=checkout, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return "TIMEOUT", f"{target} did not end in {TIMEOUT_S} s"
        lines = result.stdout.strip().splitlines()
        how = f"{target}: {lines[-1] if lines else f'exit {result.returncode}'}"
        if result.returncode != 0:
            return "killed", how
    return "SURVIVED", how


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="aurea-mutants-") as scratch:
        checkout = Path(scratch) / "checkout"
        ignore = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__", "*.egg-info")
        shutil.copytree(ROOT, checkout, ignore=ignore)
        started = time.perf_counter()
        for number, (name, old, new, why, killer) in enumerate(MUTANTS, 1):
            path = checkout / "src" / "aurea" / name
            label = f"mutant {number} ({name}: {why})"
            original = _mutate(path, old, new)
            if original is None:
                failures.append(f"{label}: {old!r} does not occur exactly once")
                continue
            clock = time.perf_counter()
            try:
                verdict, how = _run_suite(checkout, killer)
            finally:
                path.write_text(original)
            print(f"{verdict:8} {time.perf_counter() - clock:6.1f} s  {label}: {how}", flush=True)
            if verdict != "killed":
                failures.append(f"{label}: {verdict}, {how}")
        print(f"{len(MUTANTS)} mutants in {time.perf_counter() - started:.1f} s", flush=True)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
