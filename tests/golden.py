"""Golden CLI output: the exit code and stdout of every command below, in json and csv.

`golden_cli.json` holds them, captured once, and `test_cli.py` compares each
run with it byte for byte, so a refactor of the library cannot change what
the CLI prints.  This file needs only the standard library, so the same
replay runs where pytest is not installed:

    python tests/golden.py --check    # list each differing command, exit 1 if any
    python tests/golden.py --write    # regenerate, only for an intended output change
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden_cli.json")
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


def main(args=None) -> int:
    parser = argparse.ArgumentParser(description="Replay the golden CLI runs against golden_cli.json, or rewrite it.")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="list each command whose exit code or stdout differs")
    mode.add_argument("--write", action="store_true", help="rewrite golden_cli.json from this checkout's output")
    options = parser.parse_args(args)
    runs = {}
    for argv in _golden_argvs():
        code, out = _golden_run(argv)
        runs[" ".join(argv)] = {"exit_code": code, "stdout": out}
    if options.write:
        GOLDEN_PATH.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(runs)} golden runs to {GOLDEN_PATH.name}")
        return 0
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    commands = golden.keys() | runs.keys()
    differing = sorted(command for command in commands if golden.get(command) != runs.get(command))
    for command in differing:
        print(f"differs: {command}")
    print(f"{len(commands) - len(differing)} of {len(commands)} golden runs match")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main())
