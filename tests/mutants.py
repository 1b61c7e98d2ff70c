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
one whose KILLER no longer kills it.  The copy is needed because
pyproject's `pythonpath = ["src"]` puts the checkout's own src/ first, so no
PYTHONPATH can point pytest at a mutated tree.

Exit status 0 when every mutant is killed; 1 when one survives or no longer
applies, each named on stderr.
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
TIMEOUT_S = 600  # a mutant that hangs the suite is killed too, but reported as such

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
        "_orbit((params.q, 1, params._shift), x0, 1, n + 1)",
        "_orbit((params.q, 1, params.p), x0, 1, n + 1)",
        "iterate_orbit steps the plus branch's map on the minus branch too",
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
        "takewhile(itemgetter(1), pairs)",
        "takewhile(itemgetter(0), pairs)",
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
]


def _mutate(path: Path, old: str, new: str) -> str | None:
    """Write the mutant into path and return the original text, or None when `old` does not occur exactly once."""
    text = path.read_text()
    if text.count(old) != 1:
        return None
    path.write_text(text.replace(old, new))
    return text


def _run_suite(checkout: Path, killer: str) -> tuple[bool, str]:
    """(killed, how): tests/killer is run in the checkout, and then, if it passes, all of tests/."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    for target in (f"tests/{killer}", "tests"):
        shutil.rmtree(checkout / ".hypothesis", ignore_errors=True)
        try:
            result = subprocess.run(
                [*PYTEST, target], cwd=checkout, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return True, f"{target} timed out after {TIMEOUT_S} s"
        lines = result.stdout.strip().splitlines()
        how = f"{target}: {lines[-1] if lines else f'exit {result.returncode}'}"
        if result.returncode != 0:
            return True, how
    return False, how


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
                killed, how = _run_suite(checkout, killer)
            finally:
                path.write_text(original)
            print(f"{'killed ' if killed else 'SURVIVED'} {time.perf_counter() - clock:6.1f} s  {label}: {how}", flush=True)
            if not killed:
                failures.append(f"{label} survived the suite")
        print(f"{len(MUTANTS)} mutants in {time.perf_counter() - started:.1f} s", flush=True)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
