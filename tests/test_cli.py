import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from aurea.cli import main
from aurea.exact import decimal_str, parse_rational
from golden import (
    GOLDEN_COMMANDS,
    GOLDEN_PATH,
    GOLDEN_SEEDS,
    HELP_PATH,
    SRC,
    _golden_argvs,
    _golden_run,
    _help_argvs,
    _help_run,
    help_text_key,
)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    return [json.loads(line) for line in out.splitlines()]


def test_rho_example(capsys):
    records = run_json(capsys, ["limits", "rho", "--r", "1", "--s", "1", "--digits", "10"])
    assert records == [
        {
            "command": "limits rho",
            "params": {"r": "1/1", "s": "1/1", "digits": 10},
            "result": {"rho": {"a": "1/2", "b": "1/2", "d": 5}, "decimal": "1.6180339887"},
        }
    ]


def test_forbidden_example(capsys):
    records = run_json(capsys, ["riccati", "forbidden", "--p", "1", "--q", "1", "--branch", "plus", "--depth", "4"])
    assert records[0]["result"]["elements"] == ["-1/1", "-2/1", "-3/2", "-5/3"]


def test_certificate_example(capsys):
    records = run_json(capsys, ["limits", "certificate", "--f0", "1", "--fk", "1", "--eps", "1/1000000"])
    assert records[0]["result"] == {"M": "1/2", "c": "1/6", "N": 32}


def test_repeated_runs_are_byte_identical(capsys):
    argv = ["riccati", "solve", "--p", "2", "--q", "3", "--branch", "minus", "--x0", "5/4", "--n", "12"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second and first


def test_output_rationals_round_trip(capsys):
    records = run_json(capsys, ["riccati", "orbit", "--p", "1", "--q", "1", "--branch", "plus", "--x0", "1", "--n", "6"])
    for text in records[0]["result"]["trajectory"]:
        assert parse_rational(text) is not None


def test_horadam_range_and_fast(capsys):
    slow = run_json(capsys, ["horadam", "--w0", "0", "--w1", "1", "--p", "1", "--q=-1", "--n", "0..7"])
    assert slow[0]["result"]["terms"] == ["0/1", "1/1", "1/1", "2/1", "3/1", "5/1", "8/1", "13/1"]
    fast = run_json(capsys, ["horadam", "--w0", "0", "--w1", "1", "--p", "1", "--q=-1", "--n", "0..7", "--fast"])
    assert fast[0]["result"]["terms"] == slow[0]["result"]["terms"]
    single = run_json(capsys, ["horadam", "--w0", "0", "--w1", "1", "--p", "1", "--q=-1", "--n=-4"])
    assert single[0]["result"] == {"start": -4, "terms": ["-3/1"]}
    # --fast is only echoed: the whole record is the same with and without it
    for argv in (
        ["--w0", "0", "--w1", "1", "--p", "1", "--q=-1", "--n", "0..7"],
        ["--w0", "1/2", "--w1=-3/4", "--p", "2/3", "--q", "5/7", "--n=-6..4"],
        ["--w0", "0", "--w1", "1", "--p", "1", "--q=-1", "--n", "5000"],
    ):
        (plain,) = run_json(capsys, ["horadam", *argv])
        (fast,) = run_json(capsys, ["horadam", *argv, "--fast"])
        assert (plain["params"].pop("fast"), fast["params"].pop("fast")) == (False, True)
        assert fast == plain


def test_orbit_reports_pole_with_exit_zero(capsys):
    records = run_json(capsys, ["riccati", "orbit", "--p", "1", "--q", "1", "--branch", "plus", "--x0=-2", "--n", "5"])
    result = records[0]["result"]
    assert result["status"] == "pole_at_step(2)"
    assert result["classification"] == "forbidden_depth(2)"
    assert result["trajectory"] == ["-2/1", "-1/1"]


def test_solve_matches_and_forbidden_seed_exits_2(capsys):
    records = run_json(capsys, ["riccati", "solve", "--p", "1", "--q", "1", "--branch", "plus", "--x0", "1", "--n", "4"])
    assert records[0]["result"]["match"] is True
    code, out, err = run_cli(capsys, ["riccati", "solve", "--p", "1", "--q", "1", "--branch", "plus", "--x0=-2", "--n", "5"])
    assert code == 2 and not out and "initial value -2 is forbidden at depth 2" in err


@pytest.mark.parametrize(
    "argv", [argv for argv in _golden_argvs() if argv[:2] == ["riccati", "solve"] and "json" in argv], ids=" ".join
)
def test_solve_steps_the_orbit_once(monkeypatch, argv):
    """The closed form is the orbit itself, so its record's orbit is not stepped a second time."""
    import aurea.riccati as riccati

    calls = []
    orbit = riccati._orbit
    monkeypatch.setattr(riccati, "_orbit", lambda *args: calls.append(args) or orbit(*args))
    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[" ".join(argv)]
    assert _golden_run(argv) == (expected["exit_code"], expected["stdout"])
    assert len(calls) == 1


def test_classify_surd(capsys):
    records = run_json(
        capsys,
        ["riccati", "classify", "--p", "1", "--q", "1", "--branch", "plus", "--surd=-1/2,1/2,5", "--depth", "5"],
    )
    assert records[0]["result"]["classification"] == "fixed_point"


def test_classify_requires_a_value(capsys):
    code, _, err = run_cli(capsys, ["riccati", "classify", "--p", "1", "--q", "1", "--branch", "plus", "--depth", "5"])
    assert code == 3 and "x0" in err


def test_classify_refuses_both_values(capsys):
    argv = ["riccati", "classify", "--p", "1", "--q", "1", "--branch", "plus", "--depth", "5"]
    code, out, err = run_cli(capsys, argv + ["--x0", "1", "--surd=-1/2,1/2,5"])
    assert code == 3 and not out and "--x0" in err


@pytest.mark.parametrize("surd", ["1,1,0", "1,1,-3", "1,1,x", "1,1", "1,1,5_0", "1,1,1/2"])
def test_malformed_surd_exits_3(capsys, surd):
    """A radicand that is not a positive integer is a malformed literal like any other, not a domain condition."""
    argv = ["riccati", "classify", "--p", "1", "--q", "1", "--branch", "plus", "--depth", "3", f"--surd={surd}"]
    code, out, err = run_cli(capsys, argv)
    assert code == 3 and not out and err.startswith("error: ")


def test_subst_check_record(capsys):
    records = run_json(capsys, ["riccati", "subst-check", "--p", "1", "--q", "1", "--t0", "0", "--t1", "1", "--n", "6"])
    result = records[0]["result"]
    assert result["t_values"] == ["0/1", "1/1", "1/1", "2/1", "3/1", "5/1", "8/1", "13/1"]
    assert result["passed"] is True and result["status"] == "completed"


def test_estimate_backward_shows_target_and_claimed(capsys):
    records = run_json(
        capsys,
        [
            "limits", "estimate", "--r", "1", "--s", "1",
            "--parity", "standard", "--direction", "backward",
            "--n", "60", "--seed0", "0", "--seed1", "1", "--digits", "10",
        ],
    )
    result = records[0]["result"]
    assert result["target"] == {"a": "1/2", "b": "-1/2", "d": 5}
    assert result["claimed"] == {"a": "-1/2", "b": "-1/2", "d": 5}
    assert result["target_decimal"] == "-0.6180339887"
    assert result["claimed_decimal"] == "-1.6180339887"
    assert result["estimate"] == "-0.6180339887"


def test_estimate_forward_has_no_claimed(capsys):
    records = run_json(
        capsys,
        ["limits", "estimate", "--r", "2", "--s", "1", "--parity", "standard", "--direction", "forward", "--n", "40"],
    )
    result = records[0]["result"]
    assert result["claimed"] is None
    assert result["target"] == {"a": "1/1", "b": "1/1", "d": 2}


def test_cf_record(capsys):
    records = run_json(capsys, ["limits", "cf", "--m", "10", "--digits", "6"])
    assert records[0]["result"] == {"convergent": "55/89", "decimal": "0.617978"}


def test_csv_format(capsys):
    code, out, err = run_cli(capsys, ["--format", "csv", "limits", "cf", "--m", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("command,")
    assert "2/3" in lines[1]
    code, out2, _ = run_cli(capsys, ["limits", "cf", "--m", "3", "--format", "csv"])
    assert out2 == out


@pytest.mark.parametrize(
    "argv, fmt, digits",
    [
        (["--format", "csv", "limits", "cf", "--m", "3"], "csv", 12),
        (["--digits", "5", "limits", "cf", "--m", "3"], "json", 5),
        (["--format", "csv", "limits", "cf", "--m", "3", "--format", "json"], "json", 12),
        (["--format", "json", "limits", "cf", "--m", "3", "--format", "csv"], "csv", 12),
        (["--digits", "5", "limits", "cf", "--m", "3", "--digits", "7"], "json", 7),
        (["--digits", "7", "--format", "csv", "limits", "cf", "--m", "3", "--digits", "4"], "csv", 4),
        (["--digits", "1", "limits", "cf", "--m", "3"], "json", 1),  # both ends of the documented 1..1000
        (["limits", "cf", "--m", "3", "--format", "csv", "--digits", "1000"], "csv", 1000),
    ],
)
def test_leaf_output_flags_override_top_level(capsys, argv, fmt, digits):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    decimal = decimal_str(Fraction(2, 3), digits)
    if fmt == "json":
        assert json.loads(out)["result"] == {"convergent": "2/3", "decimal": decimal}
    else:
        assert out.splitlines()[1] == f"limits cf,3,{digits},2/3,{decimal}"


@pytest.mark.parametrize("digits", ["0", "1001"])
@pytest.mark.parametrize("top_level", [True, False])
def test_digits_out_of_range_exits_3(capsys, digits, top_level):
    flag = ["--digits", digits]
    argv = flag + ["limits", "cf", "--m", "3"] if top_level else ["limits", "cf", "--m", "3"] + flag
    code, out, err = run_cli(capsys, argv)
    assert code == 3 and not out and "--digits" in err


@pytest.mark.parametrize(
    "w0, n, message",
    [
        ("zero", "3", "invalid rational literal 'zero'"),
        ("0", "x", "--n must be an index or an inclusive range like 0..7, got 'x'"),
        ("0", "1..x", "--n must be an index or an inclusive range like 0..7, got '1..x'"),
        ("0", "5..3", "empty index range '5..3'"),
        ("0", "3..2", "empty index range '3..2'"),
    ],
    ids=["w0", "n", "n-range", "n-empty-range", "n-range-one-below"],
)
def test_bad_rational_exits_3(capsys, w0, n, message):
    code, _, err = run_cli(capsys, ["horadam", "--w0", w0, "--w1", "1", "--p", "1", "--q", "1", "--n", n])
    assert (code, err) == (3, f"error: {message}\n")


@pytest.mark.parametrize(
    "command, message",
    [
        ("riccati orbit --p 0 --q 1 --branch plus --x0 zz --n 3", "invalid rational literal 'zz'"),
        ("riccati classify --p 0 --q 1 --branch plus --surd=1,1,0 --depth 3", "radicand must be a positive integer, got 0"),
        ("limits estimate --r -1 --s 1 --parity standard --direction forward --n 3 --seed0 x", "invalid rational literal 'x'"),
        ("horadam --w0 0 --w1 1 --p 1 --q 0 --n x", "--n must be an index or an inclusive range like 0..7, got 'x'"),
    ],
)
def test_malformed_literal_exits_3_before_a_domain_condition(capsys, command, message):
    """Each command also has a flag out of domain (p = 0, r < 0, q = 0): argument errors come first."""
    assert run_cli(capsys, command.split()) == (3, "", f"error: {message}\n")


HORADAM = ["horadam", "--w0", "0", "--w1", "1", "--p", "1", "--q", "-1"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["limits", "cf", "--m", "1_0"], "--m"),
        (["limits", "cf", "--m", "\u0661\u0660"], "--m"),  # Arabic-Indic 10
        (["limits", "cf", "--m", " 10"], "--m"),
        (["limits", "cf", "--m", "10", "--digits", "1_2"], "--digits"),
        (["riccati", "orbit", "--p", "1", "--q", "1", "--branch", "plus", "--x0", "1/2", "--n", "1_0"], "--n"),
        (["riccati", "forbidden", "--p", "1", "--q", "1", "--branch", "plus", "--depth", "\uff13"], "--depth"),  # fullwidth 3
        (["fibfunc", "trace", "--seed-file", "unread.json", "--nmax", "3_2"], "--nmax"),
        (HORADAM + ["--n", "1_0"], "--n"),
        (HORADAM + ["--n", "\u0663..\u0665"], "--n"),  # Arabic-Indic 3..5
        (HORADAM + ["--n", "3..1_0"], "--n"),
        (HORADAM + ["--n", "3.. 5"], "--n"),
    ],
    ids=["underscore", "arabic-indic", "space", "digits", "riccati-n", "fullwidth", "fibfunc", "horadam-index",
         "horadam-range", "horadam-range-end", "horadam-space"],
)
def test_integer_flags_take_only_ascii_digits(capsys, argv, flag):
    """int() would read each of these as a number; an integer flag takes [+-]?[0-9]+ only, and names itself."""
    code, out, err = run_cli(capsys, argv)
    assert code == 3 and not out and flag in err


def test_signed_ascii_integers_still_parse(capsys):
    assert run_json(capsys, ["limits", "cf", "--m", "+3"])[0]["params"]["m"] == 3
    record = run_json(capsys, HORADAM + ["--n=-3..+2"])[0]
    assert record["result"]["start"] == -3 and len(record["result"]["terms"]) == 6
    assert record["params"]["n"] == "-3..2"
    assert run_json(capsys, HORADAM + ["--n", "03"])[0]["params"]["n"] == "3"


def test_unknown_option_exits_3(capsys):
    code, _, err = run_cli(capsys, ["limits", "cf", "--m", "3", "--bogus"])
    assert code == 3


def test_domain_error_exits_2(capsys):
    code, _, err = run_cli(capsys, ["riccati", "orbit", "--p", "0", "--q", "1", "--branch", "plus", "--x0", "1", "--n", "3"])
    assert code == 2 and "positive" in err


def test_help_exits_0(capsys):
    assert run_cli(capsys, ["--help"])[0] == 0


@pytest.fixture
def seed_file(tmp_path):
    path = tmp_path / "seed.txt"
    path.write_text(
        "k=3/1 kind=standard r=1/1 s=1/1\n0/1 1/1 1/1\n1/1 2/1 1/1\n2/1 1/1 5/1\n",
        encoding="utf-8",
    )
    return str(path)


def test_fibfunc_extend_per_offset_records(capsys, seed_file):
    records = run_json(capsys, ["fibfunc", "extend", "--seed-file", seed_file, "--nmin=-2", "--nmax", "4"])
    assert [r["params"]["offset"] for r in records] == ["0/1", "1/1", "2/1"]
    assert records[0]["result"]["values"] == ["1/1", "0/1", "1/1", "1/1", "2/1", "3/1", "5/1"]


def test_fibfunc_trace_single_offset(capsys, seed_file):
    records = run_json(capsys, ["fibfunc", "trace", "--seed-file", seed_file, "--nmax", "3", "--offset-index", "0"])
    assert len(records) == 1
    assert records[0]["params"] == {
        "seed_file": seed_file, "k": "3/1", "kind": "standard", "r": "1/1", "s": "1/1", "offset": "0/1",
        "nmin": 0, "nmax": 3,
    }  # the offset replaces the index in the echo
    assert records[0]["result"]["ratios"] == ["1/1", "1/2", "2/3", "3/5"]


@pytest.mark.parametrize("flag, index", [(["--offset-index=-1"], -1), (["--offset-index", "5"], 5)])
def test_fibfunc_trace_offset_index_out_of_range_exits_3(capsys, seed_file, flag, index):
    code, out, err = run_cli(capsys, ["fibfunc", "trace", "--seed-file", seed_file, *flag])
    assert (code, out) == (3, "")
    assert err == f"error: offset index {index} out of range (seed has 3 offsets)\n"


def test_fibfunc_verify_reports(capsys, seed_file):
    records = run_json(capsys, ["fibfunc", "verify", "--seed-file", seed_file, "--eps", "1/1000000000"])
    assert len(records) == 3
    for record in records:
        result = record["result"]
        assert result["converged"] is True and result["first_step"] <= 60
        assert result["target"] == {"a": "1/2", "b": "1/2", "d": 5}
        assert result["certificate"] is not None
        assert parse_rational(result["certificate"]["M"]) > 0


def test_fibfunc_degenerate_seed_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("k=1/1 kind=standard r=1/1 s=1/1\n0/1 0/1 0/1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, ["fibfunc", "verify", "--seed-file", str(path), "--eps", "1/10"])
    assert code == 2 and "degenerate" in err


def test_fibfunc_missing_file_exits_3(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["fibfunc", "extend", "--seed-file", str(tmp_path / "none.txt"), "--nmin", "0", "--nmax", "2"])
    assert code == 3


def test_fibfunc_malformed_seed_exits_3(capsys, tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("k=1/1 kind=standard r=1/1 s=1/1\n0/1 1/1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, ["fibfunc", "extend", "--seed-file", str(path), "--nmin", "0", "--nmax", "2"])
    assert code == 3


@pytest.mark.parametrize(
    "header, code, message",
    [
        ("k=1 kind=weird r=1 s=1", 3, "error: kind must be 'standard' or 'odd', got 'weird'\n"),
        ("k=1 kind=standard r=1 s=1 bogus=3", 3, "error: unknown header key 'bogus'\n"),
        ("k=1 kind=standard r=1 s=1 s=2", 3, "error: repeated header key 's'\n"),
        ("k=1 kind=standard r=0 s=1", 2, "error: r and s must be positive, got r=0, s=1\n"),
    ],
)
def test_fibfunc_seed_header_exit_codes(capsys, tmp_path, header, code, message):
    """A malformed header is a parse error (exit 3) like an unknown --parity; r=0 stays a domain error."""
    path = tmp_path / "seed.txt"
    path.write_text(header + "\n0/1 1/1 1/1\n", encoding="utf-8")
    result = run_cli(capsys, ["fibfunc", "extend", "--seed-file", str(path), "--nmin", "0", "--nmax", "2"])
    assert result == (code, "", message)


# Golden output: every command in golden.py, compared byte for byte with
# golden_cli.json.  Regenerate only for an intended output change:
#   python tests/golden.py --write


@pytest.mark.parametrize("argv", _golden_argvs(), ids=" ".join)
def test_golden_output(argv):
    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[" ".join(argv)]
    code, out = _golden_run(argv)
    assert out == expected["stdout"]
    assert code == expected["exit_code"]


@pytest.mark.parametrize("argv", _help_argvs(), ids=" ".join)
def test_help_text(argv):
    expected = json.loads(HELP_PATH.read_text(encoding="utf-8"))[" ".join(argv)]
    code, out = _help_run(argv)
    assert help_text_key(out) == help_text_key(expected["stdout"])
    assert code == expected["exit_code"] == 0


@pytest.mark.parametrize(
    "command",
    [
        "limits rho --r 1 --s 1 --digits 10 --format json",
        "riccati solve --p 1 --q 1 --branch plus --x0=-2 --n 5 --format csv",
        "limits certificate --f0 one --fk 1 --eps 1/10 --format json",
    ],
)
def test_module_entry_point_in_a_process(command):
    """`python -m aurea.cli` gives golden stdout, and exit codes 0, 2 and 3 reach the process status."""
    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[command]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "aurea.cli", *command.split()], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.stdout == expected["stdout"]
    assert proc.returncode == expected["exit_code"]


# Start-up: a process loads `exact` and only the library modules its command
# runs.  Each probe is a fresh `python -S`, so no module that `site` preloads
# hides a missing deferred import or a module loaded for nothing.

_MODULES_AFTER_MAIN = """
import sys
from aurea.cli import main
status = main(sys.argv[1:])
sys.stderr.write("modules: " + " ".join(sys.modules))
sys.exit(status)
"""

# the first golden command of each of the 13 leaves
LEAF_COMMANDS = {command.split(" --")[0]: command for command in reversed(GOLDEN_COMMANDS)}

LIBRARY_LOADED = {
    "horadam": {"exact", "horadam"},
    "riccati": {"exact", "horadam", "riccati"},
    "limits": {"exact", "horadam", "riccati", "limits"},
    "fibfunc": {"exact", "horadam", "riccati", "limits", "fibfunc"},
}


def _modules_loaded(args, cwd):
    proc = subprocess.run(
        [sys.executable, "-S", *args], cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.rpartition("modules: ")[2].split())


@pytest.mark.parametrize("leaf, fmt", [*((leaf, "json") for leaf in sorted(LEAF_COMMANDS)), ("limits rho", "csv")])
def test_a_command_loads_only_the_modules_it_runs(tmp_path, leaf, fmt):
    for name, text in GOLDEN_SEEDS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [*LEAF_COMMANDS[leaf].split(), "--format", fmt]
    modules = _modules_loaded(["-c", _MODULES_AFTER_MAIN, *argv], tmp_path)
    expected = {"aurea", "aurea.cli"} | {f"aurea.{name}" for name in LIBRARY_LOADED[leaf.split()[0]]}
    assert {name for name in modules if name.startswith("aurea")} == expected
    assert not modules & {"dataclasses", "typing", "json" if fmt == "csv" else "csv"}


def test_importing_the_package_loads_no_module(tmp_path):
    code = "import sys, aurea; sys.stderr.write('modules: ' + ' '.join(sys.modules))"
    assert {name for name in _modules_loaded(["-c", code], tmp_path) if name.startswith("aurea")} == {"aurea"}


# Exit codes over all 13 leaves, each run built from the leaf's golden command:
# dropping a required flag or adding an unknown one exits 3 and names the flag;
# dropping any other flag the golden command gives still succeeds.

REQUIRED_FLAGS = {
    "horadam": "--w0 --w1 --p --q --n",
    "riccati solve": "--p --q --branch --x0 --n",
    "riccati orbit": "--p --q --branch --x0 --n",
    "riccati forbidden": "--p --q --branch --depth",
    "riccati classify": "--p --q --branch --depth --surd",  # one of --x0 and --surd
    "riccati subst-check": "--p --q --t0 --t1 --n",
    "limits certificate": "--f0 --fk --eps",
    "limits rho": "--r --s",
    "limits cf": "--m",
    "limits estimate": "--r --s --parity --direction --n",
    "fibfunc extend": "--seed-file --nmin --nmax",
    "fibfunc trace": "--seed-file",
    "fibfunc verify": "--seed-file --eps",
}


@pytest.fixture
def golden_dir(tmp_path, monkeypatch):
    for name, text in GOLDEN_SEEDS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)


def _error_words(err):
    """The words of the last stderr line; the usage line above it names every flag."""
    return err.splitlines()[-1].replace(",", " ").split()


@pytest.mark.parametrize("leaf", sorted(LEAF_COMMANDS))
def test_dropped_required_flag_and_unknown_flag_exit_3(capsys, golden_dir, leaf):
    words, *flags = LEAF_COMMANDS[leaf].split(" --")
    flags = ["--" + flag for flag in flags]  # "--n 0..7", "--q=-1", "--fast"
    names = [re.split("[ =]", flag)[0] for flag in flags]
    required = REQUIRED_FLAGS[leaf].split()
    assert set(required) <= set(names)
    for index, name in enumerate(names):
        argv = [*words.split(), *(word for flag in flags[:index] + flags[index + 1:] for word in flag.split())]
        code, out, err = run_cli(capsys, argv)
        if name in required:
            assert (code, out) == (3, "") and name in _error_words(err), argv
        else:
            assert code == 0, argv
    code, out, err = run_cli(capsys, [*LEAF_COMMANDS[leaf].split(), "--bogus"])
    assert (code, out) == (3, "") and "--bogus" in _error_words(err)
