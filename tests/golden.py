"""Golden CLI output: the exit code and stdout of every command below, in json and csv,
and of `--help` at the top level, on each command group and on each of the 13 leaves.

`golden_cli.json` and `golden_help.json` hold them, captured once, and
`test_cli.py` compares each run with them byte for byte, so a refactor of the
library or of the parser cannot change what the CLI prints.  This file needs
only the standard library, so the same replay runs where pytest is not installed:

    python tests/golden.py --check    # list each differing command, exit 1 if any
    python tests/golden.py --write    # regenerate, only for an intended output change (below Python 3.13)
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

GOLDEN_PATH = Path(__file__).with_name("golden_cli.json")
HELP_PATH = Path(__file__).with_name("golden_help.json")
SRC = Path(__file__).resolve().parent.parent / "src"

GOLDEN_SEEDS = {
    "seed.txt": "k=3/1 kind=standard r=1/1 s=1/1\n0/1 1/1 1/1\n1/1 2/1 1/1\n2/1 1/1 5/1\n",
    "odd.txt": "k=1/2 kind=odd r=3/2 s=2/3\n0/1 1/1 -2/1\n1/4 3/5 0/1\n",
}

GOLDEN_COMMANDS = [
    # the README examples
    "horadam --w0 0 --w1 1 --p 1 --q=-1 --n 0..7",
    "horadam --w0 0 --w1 1 --p 1 --q=-1 --n 90 --fast",
    "riccati orbit --p 1 --q 1 --branch plus --x0=-2 --n 5",
    "riccati solve --p 1 --q 1 --branch plus --x0 1 --n 10",
    "riccati forbidden --p 1 --q 1 --branch plus --depth 4",
    "riccati classify --p 1 --q 1 --branch plus --surd=-1/2,1/2,5 --depth 10",
    "riccati subst-check --p 1 --q 2 --t0 0 --t1 1 --n 6",
    "limits certificate --f0 1 --fk 1 --eps 1/1000000",
    "limits rho --r 1 --s 1 --digits 10",
    "limits cf --m 10",
    "limits estimate --r 1 --s 1 --parity standard --direction backward --n 60 --seed0 0 --seed1 1",
    "fibfunc extend --seed-file seed.txt --nmin=-3 --nmax 8",
    "fibfunc trace --seed-file seed.txt --nmax 20",
    "fibfunc verify --seed-file seed.txt --eps 1/1000000000",
    # rational coefficients, negative indices, the minus branch and the odd form
    "horadam --w0 1/2 --w1=-3/4 --p 2/3 --q 5/7 --n=-6..4",
    "horadam --w0 1/2 --w1=-3/4 --p 2/3 --q 5/7 --n=-6..4 --fast",
    "horadam --w0 2 --w1 1 --p 1 --q=-1 --n=-9",
    "riccati solve --p 2 --q 3 --branch minus --x0 5/4 --n 12",
    "riccati solve --p 7/3 --q 5/2 --branch minus --x0=-1/3 --n 8",
    "riccati solve --p 1 --q 1 --branch plus --x0=-2 --n 5",
    "riccati classify --p 1 --q 1 --branch plus --x0=-5/3 --depth 10",
    "riccati subst-check --p 3/2 --q 1/2 --t0 1 --t1=-2 --n 8",
    "riccati subst-check --p 1 --q 1 --t0 1 --t1=-1 --n 4",
    "riccati subst-check --p 1 --q 1 --t0 0 --t1 0 --n 3",
    "limits certificate --f0 2/3 --fk 5/4 --eps 1/1000",
    "limits certificate --f0 one --fk 1 --eps 1/10",
    "limits rho --r 3/2 --s 1/3",
    "limits cf --m 1",
    "limits estimate --r 1 --s 1 --parity odd --direction forward --n 30 --seed0 1 --seed1 2",
    "limits estimate --r 3/2 --s 1/3 --parity odd --direction backward --n 25 --seed0 1 --seed1=-1",
    "limits estimate --r 2 --s 1 --parity standard --direction forward --n 40",
    "fibfunc trace --seed-file seed.txt --nmin=-5 --nmax 6",
    "fibfunc extend --seed-file odd.txt --nmin=-4 --nmax 5",
    "fibfunc trace --seed-file odd.txt --nmin=-3 --nmax 4",
    "fibfunc verify --seed-file odd.txt --eps 1/1000 --max-steps 200",
]


def _golden_argvs():
    return [[*command.split(), "--format", fmt] for command in GOLDEN_COMMANDS for fmt in ("json", "csv")]


def _help_argvs():
    """`--help` at the top level, on each command group and on each leaf of GOLDEN_COMMANDS."""
    leaves = dict.fromkeys(command.split(" --")[0] for command in GOLDEN_COMMANDS)
    groups = dict.fromkeys(leaf.split()[0] for leaf in leaves if " " in leaf)
    return [["--help"], *([*words.split(), "--help"] for words in [*groups, *leaves])]


def _golden_run(argv):
    """(exit code, stdout) of one in-process run, in a directory holding the seed files."""
    from aurea.cli import main as cli_main  # deferred: run as a script, this file puts src/ on the path first

    with tempfile.TemporaryDirectory() as workdir:
        for name, text in GOLDEN_SEEDS.items():
            Path(workdir, name).write_text(text, encoding="utf-8")
        cwd = os.getcwd()
        out, err = io.StringIO(), io.StringIO()
        try:
            os.chdir(workdir)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(argv)
        finally:
            os.chdir(cwd)
    return code, out.getvalue()


def _help_run(argv):
    """(exit code, stdout) of one `--help` run at 80 columns: argparse wraps help
    to the width it reads from COLUMNS, so a pinned text must fix it."""
    with mock.patch.dict(os.environ, COLUMNS="80"):
        return _golden_run(argv)


def help_text_key(text):
    """What a help text is compared by.  Python 3.13's argparse wraps some long
    usage lines at other points than 3.10-3.12 (the pins' version), with the same
    words in the same order, so from 3.13 on runs of whitespace count as one space."""
    return text if sys.version_info < (3, 13) else " ".join(text.split())


def _pinned(runs, key):
    return {command: (run["exit_code"], key(run["stdout"])) for command, run in runs.items()}


def main(args=None) -> int:
    parser = argparse.ArgumentParser(
        description="Replay the golden CLI runs and help texts against their pins, or rewrite them."
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="list each command whose exit code or stdout differs")
    mode.add_argument("--write", action="store_true", help="rewrite the pins from this checkout's output")
    options = parser.parse_args(args)
    differing = []
    for path, argvs, run, key, kind in (
        (GOLDEN_PATH, _golden_argvs(), _golden_run, lambda text: text, "golden runs"),
        (HELP_PATH, _help_argvs(), _help_run, help_text_key, "help texts"),
    ):
        runs = {}
        for argv in argvs:
            code, out = run(argv)
            runs[" ".join(argv)] = {"exit_code": code, "stdout": out}
        if options.write:
            path.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(f"wrote {len(runs)} {kind} to {path.name}")
            continue
        expected, actual = _pinned(json.loads(path.read_text(encoding="utf-8")), key), _pinned(runs, key)
        commands = expected.keys() | actual.keys()
        mismatched = sorted(command for command in commands if expected.get(command) != actual.get(command))
        differing += mismatched
        print(f"{len(commands) - len(mismatched)} of {len(commands)} {kind} match")
    for command in differing:
        print(f"differs: {command}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main())
