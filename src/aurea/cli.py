"""Command-line surface: every operation reachable as a subcommand with
machine-readable output (JSON lines by default, CSV on request).

Each of the 13 leaves declares its flags once, in its row of `_COMMANDS`.
`build_parser` builds the argparse tree from the table; `main` parses each
rational and surd flag in row order before the handler runs, and echoes
every flag that is not None, in row order, then `digits` where the row says
so, as the record's `params`.  A
handler holds the library call and its `result`, and only what the table
cannot say: the `seed` pair of `limits estimate`, the per-offset records of
`fibfunc`.

Records hold plain library values (`Fraction`, `QuadraticSurd`, int, str,
bool, None and lists of these); `_emit` alone writes the wire form, a
rational as "num/den" and a surd as `{a, b, d}`, after `main` puts the
command name first in each record.

Exit codes: 0 success, 2 domain error (pole, forbidden seed, degenerate
input), 3 argument or parse error.  Argument errors come first: every flag's
literal is parsed before the library runs, so a command with a malformed
literal exits 3 even when another of its flags is out of domain.  Records go
to stdout, diagnostics to stderr.  Output is deterministic for identical
arguments.

One process runs one command, so each handler imports the library modules
it calls when it runs, and `_emit` the one output format it writes: a
process loads `exact` and only the modules its command needs.  The table
names handlers, never library objects, for the same reason.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from .exact import (
    BACKWARD,
    FORWARD,
    MINUS,
    ODD,
    PLUS,
    STANDARD,
    DomainError,
    QuadraticSurd,
    decimal_str,
    format_rational,
    parse_rational,
)

__all__ = ["main", "run"]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argument errors exit 3, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(3)


def _parse_surd(text: str) -> QuadraticSurd:
    fields = text.split(",")
    if len(fields) != 3:
        raise ValueError(f"expected 'a,b,d', got {text!r}")
    a, b, d = (parse_rational(field) for field in fields)
    # a malformed literal (exit 3); the library's DomainError would read as a domain condition
    if d.denominator != 1 or d < 1:
        raise ValueError(f"radicand must be a positive integer, got {d}")
    return QuadraticSurd(a, b, int(d))


_INT_LITERAL = re.compile(r"[+-]?[0-9]+")


def _int(text: str) -> int:
    """An ASCII integer literal [+-]?[0-9]+; int() alone also takes "1_0", spaces and non-ASCII digits."""
    if not _INT_LITERAL.fullmatch(text):
        raise ValueError(f"invalid int literal {text!r}")
    return int(text)


_int.__name__ = "int"  # argparse names the type in its message: "invalid int value: '1_0'"


def _parse_index_range(text: str) -> tuple[int, int, str]:
    """`--n`: either a single index "7" or an inclusive range "0..7"; returns (start, count, canonical text)."""
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo = _int(lo_text)
        hi = _int(hi_text) if dots else lo
    except ValueError:
        raise ValueError(f"--n must be an index or an inclusive range like 0..7, got {text!r}") from None
    if hi < lo:
        raise ValueError(f"empty index range {text!r}")
    return lo, hi - lo + 1, f"{lo}..{hi}" if dots else str(lo)


# ---------------------------------------------------------------------------
# wire format


def _wire(value):
    """Wire form of a library value: "num/den" for a Fraction, {a, b, d} for a surd."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, QuadraticSurd):
        return value.to_record()
    return value


def _flatten(record: dict, prefix: str = "") -> dict[str, str]:
    flat: dict[str, str] = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        value = _wire(value)
        if isinstance(value, dict):
            flat.update(_flatten(value, name + "."))
        elif isinstance(value, (list, tuple)):
            flat[name] = ";".join(str(_wire(item)) for item in value)
        elif isinstance(value, bool):
            flat[name] = "true" if value else "false"
        elif value is None:
            flat[name] = ""
        else:
            flat[name] = str(value)
    return flat


def _emit(records: list[dict], fmt: str) -> str:
    """The whole output text, built before anything is written so a failed
    conversion leaves stdout empty."""
    if fmt == "json":
        import json

        return "".join(json.dumps(record, default=_wire) + "\n" for record in records)
    import csv
    import io

    rows = [_flatten(record) for record in records]
    fieldnames = list(dict.fromkeys(key for row in rows for key in row))
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=fieldnames, restval="", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


# ---------------------------------------------------------------------------
# handlers: each takes the parsed arguments and the default `params` echo; a
# handler of one record returns its `result`, a fibfunc handler its records


def _cmd_horadam(args, params) -> dict:
    from .horadam import RecurrenceParams, window

    start, count, params["n"] = _parse_index_range(args.n)  # before the library runs; echoed as parsed
    return {"start": start, "terms": window(RecurrenceParams(args.w0, args.w1, args.p, args.q), start, count).values}


def _cmd_riccati_orbit(args, params) -> dict:
    from .riccati import RiccatiParams, iterate_orbit

    report = iterate_orbit(RiccatiParams(args.p, args.q, args.branch), args.x0, args.n)
    return {
        "trajectory": report.trajectory,
        "status": report.status(),
        "classification": report.classification.label(),
    }


def _cmd_riccati_solve(args, params) -> dict:
    from .riccati import RiccatiParams, closed_form_trajectory, iterate_orbit

    riccati = RiccatiParams(args.p, args.q, args.branch)
    closed = closed_form_trajectory(riccati, args.x0, args.n)
    orbit = iterate_orbit(riccati, args.x0, args.n)
    return {
        "closed_form": closed,
        "orbit": orbit.trajectory,
        "status": orbit.status(),
        "match": list(closed) == list(orbit.trajectory),
    }


def _cmd_riccati_forbidden(args, params) -> dict:
    from .riccati import RiccatiParams, forbidden_set

    return {"elements": forbidden_set(RiccatiParams(args.p, args.q, args.branch), args.depth)}


def _cmd_riccati_classify(args, params) -> dict:
    from .riccati import RiccatiParams, classify_initial

    value = args.x0 if args.surd is None else args.surd
    return {"classification": classify_initial(RiccatiParams(args.p, args.q, args.branch), value, args.depth).label()}


def _cmd_riccati_subst_check(args, params) -> dict:
    from .riccati import RiccatiParams, substitution_check

    report = substitution_check(RiccatiParams(args.p, args.q, PLUS), args.t0, args.t1, args.n)
    return {
        "t_values": report.t_values,
        "ratios": report.ratio_values,
        "status": report.status(),
        "orbit_match": all(report.orbit_matches),
        "closed_form_match": all(report.closed_form_matches),
        "passed": report.passed,
    }


def _cmd_limits_certificate(args, params) -> dict:
    from .limits import certificate

    cert = certificate(args.f0, args.fk, args.eps)
    return {"M": cert.M, "c": cert.c, "N": cert.N}


def _cmd_limits_rho(args, params) -> dict:
    from .limits import dominant_root

    root = dominant_root(args.r, args.s)
    return {"rho": root, "decimal": decimal_str(root, args.digits)}


def _cmd_limits_cf(args, params) -> dict:
    from .limits import cf_convergent

    value = cf_convergent(args.m)
    return {"convergent": value, "decimal": decimal_str(value, args.digits)}


def _cmd_limits_estimate(args, params) -> dict:
    from .limits import RatioParams, limit_estimate

    # the two seed flags are echoed as one pair, in their place before digits
    digits = params.pop("digits")
    seed = params["seed"] = (params.pop("seed0"), params.pop("seed1"))
    params["digits"] = digits
    estimate = limit_estimate(RatioParams(args.r, args.s, args.parity), seed, args.direction, args.n)
    claimed = estimate.claimed
    return {
        "ratio": estimate.ratio,
        "estimate": decimal_str(estimate.ratio, digits),
        "target": estimate.target,
        "target_decimal": decimal_str(estimate.target, digits),
        "error_decimal": decimal_str(abs(estimate.ratio - estimate.target), digits),
        "claimed": claimed,
        "claimed_decimal": None if claimed is None else decimal_str(claimed, digits),
    }


def _fibfunc_record(params: dict, seed, offset: Fraction, result: dict) -> dict:
    """One offset's record; its echo is the seed file, the seed's header and the
    offset, then the leaf's other flags (`**params` sets seed_file again, in place)."""
    kind = seed.kind
    echo = {"seed_file": params["seed_file"], "k": seed.period, "kind": kind.parity, "r": kind.r, "s": kind.s}
    return {"params": {**echo, "offset": offset, **params}, "result": result}


def _cmd_fibfunc_extend(args, params) -> list[dict]:
    from .fibfunc import extend, load_seed

    seed = load_seed(args.seed_file)
    return [
        _fibfunc_record(params, seed, trace.offset, {"n_start": trace.n_start, "values": trace.values})
        for trace in extend(seed, args.nmin, args.nmax)
    ]


def _cmd_fibfunc_trace(args, params) -> list[dict]:
    from .fibfunc import load_seed, ratio_trace

    seed = load_seed(args.seed_file)
    params.pop("offset_index", None)  # each record echoes its offset instead
    indices = range(len(seed.offsets)) if args.offset_index is None else [args.offset_index]
    traces = (ratio_trace(seed, index, args.nmin, args.nmax) for index in indices)
    return [
        _fibfunc_record(
            params, seed, trace.offset, {"ratios": trace.ratios or [], "undefined_at": trace.ratio_undefined_at}
        )
        for trace in traces
    ]


def _cmd_fibfunc_verify(args, params) -> list[dict]:
    from .fibfunc import load_seed, verify_convergence

    digits = args.digits
    seed = load_seed(args.seed_file)
    records = []
    for report in verify_convergence(seed, args.eps, args.max_steps):
        cert = report.certificate
        error = None if report.ratio is None else decimal_str(abs(report.ratio - report.target), digits)
        result = {
            "target": report.target,
            "target_decimal": decimal_str(report.target, digits),
            "first_step": report.first_step,
            "converged": report.converged,
            "error_decimal": error,
            "certificate": None if cert is None else {"M": cert.M, "c": cert.c, "N": cert.N},
        }
        records.append(_fibfunc_record(params, seed, report.offset, result))
    return records


# ---------------------------------------------------------------------------
# the command table

# Flag kinds: argparse checks an int (an ASCII literal, through `_int`) or a
# choice (a list of words) and sets a SWITCH to True when given; `main` parses
# a RATIONAL or SURD itself, after argparse and in row order; a str stays text.
RATIONAL, SURD = parse_rational, _parse_surd
SWITCH = object()
# Defaults that are not values: the flag must be given, or exactly one of the
# leaf's EITHER flags must be.
REQUIRED, EITHER = object(), object()


def _flag(name, kind, default=REQUIRED, help=None) -> tuple:
    """A table flag, (name, kind[, default[, help]]), with its defaults filled in."""
    return name, kind, default, help


_RICCATI = [("p", RATIONAL), ("q", RATIONAL), ("branch", [PLUS, MINUS])]

_GROUPS = {
    "riccati": "orbits and structure of x -> q/(±p + x)",
    "limits": "ratio limits, certificates and convergents",
    "fibfunc": "period-k lattice recurrences from a seed file",
}

# command words: (help line, handler, whether the echo ends with digits, flags in order).
# A flag is (name, kind[, default[, help line]]), required when it has no default;
# its name is its `args` attribute and echo key, with "-" for "_" on the command line.
_COMMANDS = {
    "horadam": ("terms of w(n+2) = p*w(n+1) - q*w(n)", _cmd_horadam, False, [
        ("w0", RATIONAL), ("w1", RATIONAL), ("p", RATIONAL), ("q", RATIONAL),
        ("n", str, REQUIRED, "index or inclusive range like 0..7"),
        ("fast", SWITCH, False, "accepted for compatibility and echoed; no effect"),
    ]),
    "riccati solve": ("closed form next to the iterated trajectory", _cmd_riccati_solve, False,
                      [*_RICCATI, ("x0", RATIONAL), ("n", int)]),
    "riccati orbit": ("iterated trajectory with pole reporting", _cmd_riccati_orbit, False,
                      [*_RICCATI, ("x0", RATIONAL), ("n", int)]),
    "riccati forbidden": ("backward orbit of the pole", _cmd_riccati_forbidden, False, [*_RICCATI, ("depth", int)]),
    "riccati classify": ("fixed point / forbidden / regular for an initial value", _cmd_riccati_classify, False, [
        *_RICCATI, ("depth", int),
        ("x0", RATIONAL, EITHER, "rational initial value"),
        ("surd", SURD, EITHER, "quadratic-surd initial value as a,b,d (use --surd=...)"),
    ]),
    "riccati subst-check": ("verify the linearising substitution step by step", _cmd_riccati_subst_check, False,
                            [("p", RATIONAL), ("q", RATIONAL), ("t0", RATIONAL), ("t1", RATIONAL), ("n", int)]),
    "limits certificate": ("Cauchy certificate (M, c, N) for a golden seed pair", _cmd_limits_certificate, False,
                           [("f0", RATIONAL), ("fk", RATIONAL), ("eps", RATIONAL)]),
    "limits rho": ("positive root of x**2 = r*x + s", _cmd_limits_rho, True, [("r", RATIONAL), ("s", RATIONAL)]),
    "limits cf": ("convergent of the all-ones continued fraction", _cmd_limits_cf, True, [("m", int)]),
    "limits estimate": ("final recurrence ratio next to its exact limit", _cmd_limits_estimate, True, [
        ("r", RATIONAL), ("s", RATIONAL), ("parity", [STANDARD, ODD]), ("direction", [FORWARD, BACKWARD]),
        ("n", int), ("seed0", RATIONAL, "1"), ("seed1", RATIONAL, "1"),
    ]),
    "fibfunc extend": ("lattice values per offset", _cmd_fibfunc_extend, False,
                       [("seed_file", str), ("nmin", int), ("nmax", int)]),
    "fibfunc trace": ("ratio orbit per offset", _cmd_fibfunc_trace, False,
                      [("seed_file", str), ("nmin", int, 0), ("nmax", int, 32), ("offset_index", int, None)]),
    "fibfunc verify": ("per-offset convergence to the predicted root", _cmd_fibfunc_verify, True,
                       [("seed_file", str), ("eps", RATIONAL), ("max_steps", int, 512)]),
}


# ---------------------------------------------------------------------------
# parser


def _output_flags(parser: argparse.ArgumentParser, format_default, digits_default) -> None:
    parser.add_argument("--format", choices=["json", "csv"], default=format_default,
                        help="output format (default json)")
    parser.add_argument("--digits", type=_int, default=digits_default,
                        help="decimal digits for rendered values (default 12)")


def build_parser() -> _Parser:
    """The parser tree of `_COMMANDS`.

    A subparser copies its whole namespace over its parent's: that is how a
    leaf's full `command` name replaces the top level's first word, and why a
    leaf's output flags default to SUPPRESS, so they override the top-level
    ones only when given.
    """
    parser = _Parser(prog="aurea", description="Exact Riccati-type recurrence toolkit")
    _output_flags(parser, "json", 12)
    top = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for command, (help_text, _, _, flags) in _COMMANDS.items():
        *group, word = command.split()
        sub = top
        if group:
            if group[0] not in groups:
                group_parser = top.add_parser(group[0], help=_GROUPS[group[0]])
                groups[group[0]] = group_parser.add_subparsers(dest="subcommand", required=True)
            sub = groups[group[0]]
        leaf = sub.add_parser(word, help=help_text)
        _output_flags(leaf, argparse.SUPPRESS, argparse.SUPPRESS)
        either = None
        for name, kind, default, flag_help in (_flag(*flag) for flag in flags):
            options = {"help": flag_help}
            if kind is SWITCH:
                options["action"] = "store_true"
            elif isinstance(kind, list):
                options["choices"] = kind
            elif kind is int:
                options["type"] = _int
            target = leaf
            if default is EITHER:
                either = either or leaf.add_mutually_exclusive_group(required=True)
                target = either
            elif default is REQUIRED:
                options["required"] = True
            else:
                options["default"] = default
            target.add_argument("--" + name.replace("_", "-"), **options)
        leaf.set_defaults(command=command)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.digits < 1 or args.digits > 1000:
        sys.stderr.write("error: --digits must be between 1 and 1000\n")
        return 3
    _, handler, echo_digits, flags = _COMMANDS[args.command]
    try:
        # every literal is parsed before the handler runs the library, so a
        # malformed one exits 3 even when another flag is out of domain
        params = {}
        for name, kind, *_ in flags:
            value = getattr(args, name)
            if value is not None and kind in (RATIONAL, SURD):
                value = kind(value)
                setattr(args, name, value)
            if value is not None:
                params[name] = value
        if echo_digits:
            params["digits"] = args.digits
        result = handler(args, params)
        records = result if isinstance(result, list) else [{"params": params, "result": result}]
        text = _emit([{"command": args.command, **record} for record in records], args.format)
    except (DomainError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    sys.stdout.write(text)
    return 0


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
