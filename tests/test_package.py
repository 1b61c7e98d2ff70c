"""The package surface: `aurea` re-exports every module's `__all__` and nothing twice.

`riccati` reads the recurrence kernel only through its value readers, so the
kernel's clearing scale stays private to `horadam`.
"""

import ast
from pathlib import Path

import aurea
from aurea import exact, fibfunc, horadam, limits, riccati

MODULES = (exact, fibfunc, horadam, limits, riccati)

# aurea.__all__ when it was a hand-written list; every one of these stays importable
EARLIER_NAMES = (
    "GOLDEN_RATIO", "FIBONACCI", "Classification", "ConvergenceCertificate", "DomainError",
    "LatticeTrace", "LimitEstimate", "NestingReport", "OffsetReport", "OrbitReport", "PeriodicSeed",
    "QuadraticSurd", "RatioParams", "RecurrenceParams", "RiccatiParams", "SequenceWindow",
    "SubstitutionReport", "abs_le", "abs_lt", "certificate", "cf_convergent", "classify_initial",
    "closed_form_ratio", "closed_form_term", "closed_form_trajectory", "decimal_str",
    "difference_identity_check", "dominant_root", "dump_seed", "extend", "fast_term", "fixed_points",
    "forbidden_set", "format_rational", "fundamental_lucas", "golden_power_trace", "horadam_term",
    "iterate_orbit", "limit_estimate", "load_seed", "lucas_window", "negative_symmetry_check",
    "nesting_check", "parse_rational", "parse_seed", "quadratic_roots", "ratio_orbit", "ratio_trace",
    "sqrt_decomposition", "substitution_check", "surd_sign", "verify_convergence", "window",
)


def test_earlier_names_still_import_from_the_package():
    assert len(EARLIER_NAMES) == len(set(EARLIER_NAMES)) == 53
    namespace = {}
    exec("from aurea import *", namespace)
    for name in EARLIER_NAMES:
        assert name in aurea.__all__
        assert namespace[name] is getattr(aurea, name)


def test_all_lists_each_name_once():
    assert len(aurea.__all__) == len(set(aurea.__all__))


def test_all_is_the_union_of_the_module_lists():
    assert set(aurea.__all__) == {name for module in MODULES for name in module.__all__}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(aurea, name) is getattr(module, name)
    for name in ("PLUS", "MINUS", "STANDARD", "ODD", "FORWARD", "BACKWARD", "as_rational"):
        assert name in aurea.__all__


def test_riccati_reads_the_kernel_through_its_readers_alone():
    tree = ast.parse(Path(riccati.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "horadam" and node.level == 1
        for alias in node.names
    }
    assert imported and imported <= {"_orbit", "ratios", "terms"}
