"""Mutation gate: every listed one-line mutant of src/aurea must fail the test suite.

Run it from any directory, with the test extras installed:

    python tests/mutants.py

The checkout is copied once to a temporary directory, without .git and
caches.  For each entry of MUTANTS, `old` must occur exactly once in its
file; it is replaced by `new`, the suite runs in the copy as

    python -m pytest -x -q -p no:cacheprovider --hypothesis-seed=0 tests

and the file is restored.  Only the library's own tests run: a mutant must be
killed by them, not by the benchmark's smoke deck under bench/, whose
requests may change.  Hypothesis' example database is removed before
each run, so every run draws the same examples and the set of killed mutants
is reproducible.  A mutant is killed when the suite fails.  The copy is
needed because pyproject's `pythonpath = ["src"]` puts the checkout's own
src/ first, so no PYTHONPATH can point pytest at a mutated tree.

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
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "tests"]
TIMEOUT_S = 600  # a mutant that hangs the suite is killed too, but reported as such

# (file under src/aurea, old, new, why): each a one-line change that breaks a documented behaviour
MUTANTS = [
    (
        "limits.py",
        "while N > 2 and below(N - 1):",
        "while N > 3 and below(N - 1):",
        "certificate's downward fix-up stops at N = 3 where the answer is 2, as for certificate(1, 1, 1/5)",
    ),
    (
        "fibfunc.py",
        "if above_low(ratio) > 0 > above_high(ratio):",
        "if above_low(ratio) >= 0 > above_high(ratio):",
        "verify_convergence counts a ratio equal to target - eps as inside; differs only at a rational target",
    ),
    (
        "exact.py",
        "if scaled >= below + m:",
        "if scaled > below + m:",
        "_cut sends its upper bracket end (L + 1)/2**bits to the sign core: same answers, one more sign-core call",
    ),
    (
        "exact.py",
        "if scaled <= below:",
        "if scaled < below:",
        "_cut sends its lower bracket end L/2**bits to the sign core: same answers, one more sign-core call",
    ),
    (
        "riccati.py",
        "_orbit((params.q, 1, params._shift), x0, 1, n + 1)",
        "_orbit((params.q, 1, params.p), x0, 1, n + 1)",
        "iterate_orbit steps the plus branch's map on the minus branch too",
    ),
    (
        "riccati.py",
        "is forbidden at depth {orbit.pole_step}",
        "is forbidden at depth {orbit.pole_step + 1}",
        "the closed form's refusal names a depth one past the orbit's pole step",
    ),
    (
        "horadam.py",
        "return values, (len(values) if len(values) < count else None)",
        "return values, (len(values) + 1 if len(values) < count else None)",
        "_orbit reports the pole one step after the last finite point",
    ),
    (
        "horadam.py",
        "takewhile(itemgetter(1), pairs)",
        "takewhile(itemgetter(0), pairs)",
        "_orbit stops at the finite point 0 instead of the infinite point",
    ),
    (
        "horadam.py",
        "g = gcd(det, x, y, c)",
        "g = gcd(det, x, c)",
        "_steps divides y by a content that was taken without it",
    ),
    (
        "horadam.py",
        "else (P, -1, -Q, 0)",
        "else (P, 1, -Q, 0)",
        "_start powers a wrong adjugate, so every window below 0 starts from the wrong pair",
    ),
    (
        "fibfunc.py",
        "offset <= previous",
        "offset < previous",
        "PeriodicSeed accepts a repeated offset",
    ),
    (
        "fibfunc.py",
        "(n_min <= 0 and n_max >= 1):",
        "(n_min <= 0 and n_max >= 0):",
        "extend returns a lattice that lacks the seed's f(xi + k)",
    ),
    (
        "fibfunc.py",
        "f0 * f1 >= 0",
        "f0 * f1 > 0",
        "verify_convergence drops the golden certificate of a seed with f(xi) = 0, such as (0, 1)",
    ),
    (
        "cli.py",
        "args.digits > 1000",
        "args.digits > 999",
        "--digits refuses 1000, the documented maximum",
    ),
    (
        "cli.py",
        'params.pop("offset_index", None)',
        'params.get("offset_index", None)',
        "fibfunc trace echoes the offset index next to the offset it selects",
    ),
]


def _mutate(path: Path, old: str, new: str) -> str | None:
    """Write the mutant into path and return the original text, or None when `old` does not occur exactly once."""
    text = path.read_text()
    if text.count(old) != 1:
        return None
    path.write_text(text.replace(old, new))
    return text


def _run_suite(checkout: Path) -> tuple[bool, str]:
    """(killed, how) for one run of the suite in the checkout."""
    shutil.rmtree(checkout / ".hypothesis", ignore_errors=True)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    try:
        result = subprocess.run(PYTEST, cwd=checkout, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return True, f"timed out after {TIMEOUT_S} s"
    lines = result.stdout.strip().splitlines()
    return result.returncode != 0, lines[-1] if lines else f"exit {result.returncode}"


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="aurea-mutants-") as scratch:
        checkout = Path(scratch) / "checkout"
        ignore = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__", "*.egg-info")
        shutil.copytree(ROOT, checkout, ignore=ignore)
        started = time.perf_counter()
        for number, (name, old, new, why) in enumerate(MUTANTS, 1):
            path = checkout / "src" / "aurea" / name
            label = f"mutant {number} ({name}: {why})"
            original = _mutate(path, old, new)
            if original is None:
                failures.append(f"{label}: {old!r} does not occur exactly once")
                continue
            clock = time.perf_counter()
            try:
                killed, how = _run_suite(checkout)
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
