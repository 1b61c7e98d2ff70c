"""Command-line surface: every operation reachable as a subcommand with
machine-readable output (JSON lines by default, CSV on request).

Handlers return `{"params", "result"}` records holding plain library values
(`Fraction`, `QuadraticSurd`, int, str, bool, None and lists of these);
`_emit` alone writes the wire form, a rational as "num/den" and a surd as
`{a, b, d}`, after `main` puts the command name first in each record.

Exit codes: 0 success, 2 domain error (pole, forbidden seed, degenerate
input), 3 argument or parse error.  Records go to stdout, diagnostics to
stderr.  Output is deterministic for identical arguments.

One process runs one command, so each handler imports the library modules
it calls when it runs, and `_emit` the one output format it writes: a
process loads `exact` and only the modules its command needs.
"""

from __future__ import annotations

import argparse
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

_BRANCHES = [PLUS, MINUS]


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


def _parse_index_range(text: str) -> tuple[int, int]:
    """Either a single index "7" or an inclusive range "0..7"; returns (start, count)."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty index range {text!r}")
        return lo, hi - lo + 1
    return int(text), 1


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
# handlers (each returns a list of {"params", "result"} records)


def _cmd_horadam(args) -> list[dict]:
    from .horadam import RecurrenceParams, window

    params = RecurrenceParams(
        parse_rational(args.w0), parse_rational(args.w1), parse_rational(args.p), parse_rational(args.q)
    )
    start, count = _parse_index_range(args.n)
    return [
        {
            "params": {"w0": params.w0, "w1": params.w1, "p": params.p, "q": params.q, "n": args.n, "fast": args.fast},
            "result": {"start": start, "terms": window(params, start, count).values},
        }
    ]


def _riccati_params(args):
    from .riccati import RiccatiParams

    return RiccatiParams(parse_rational(args.p), parse_rational(args.q), args.branch)


def _riccati_echo(params, **extra) -> dict:
    return {"p": params.p, "q": params.q, "branch": params.branch, **extra}


def _cmd_riccati_orbit(args) -> list[dict]:
    from .riccati import iterate_orbit

    params = _riccati_params(args)
    x0 = parse_rational(args.x0)
    report = iterate_orbit(params, x0, args.n)
    return [
        {
            "params": _riccati_echo(params, x0=x0, n=args.n),
            "result": {
                "trajectory": report.trajectory,
                "status": report.status(),
                "classification": report.classification.label(),
            },
        }
    ]


def _cmd_riccati_solve(args) -> list[dict]:
    from .riccati import closed_form_trajectory, iterate_orbit

    params = _riccati_params(args)
    x0 = parse_rational(args.x0)
    closed = closed_form_trajectory(params, x0, args.n)
    orbit = iterate_orbit(params, x0, args.n)
    return [
        {
            "params": _riccati_echo(params, x0=x0, n=args.n),
            "result": {
                "closed_form": closed,
                "orbit": orbit.trajectory,
                "status": orbit.status(),
                "match": list(closed) == list(orbit.trajectory),
            },
        }
    ]


def _cmd_riccati_forbidden(args) -> list[dict]:
    from .riccati import forbidden_set

    params = _riccati_params(args)
    return [
        {
            "params": _riccati_echo(params, depth=args.depth),
            "result": {"elements": forbidden_set(params, args.depth)},
        }
    ]


def _cmd_riccati_classify(args) -> list[dict]:
    from .riccati import classify_initial

    params = _riccati_params(args)
    if args.surd is not None:
        value = _parse_surd(args.surd)
        echo = _riccati_echo(params, depth=args.depth, surd=value)
    else:
        value = parse_rational(args.x0)
        echo = _riccati_echo(params, depth=args.depth, x0=value)
    return [{"params": echo, "result": {"classification": classify_initial(params, value, args.depth).label()}}]


def _cmd_riccati_subst_check(args) -> list[dict]:
    from .riccati import RiccatiParams, substitution_check

    params = RiccatiParams(parse_rational(args.p), parse_rational(args.q), PLUS)
    t0, t1 = parse_rational(args.t0), parse_rational(args.t1)
    report = substitution_check(params, t0, t1, args.n)
    return [
        {
            "params": {"p": params.p, "q": params.q, "t0": t0, "t1": t1, "n": args.n},
            "result": {
                "t_values": report.t_values,
                "ratios": report.ratio_values,
                "status": report.status(),
                "orbit_match": all(report.orbit_matches),
                "closed_form_match": all(report.closed_form_matches),
                "passed": report.passed,
            },
        }
    ]


def _cmd_limits_certificate(args) -> list[dict]:
    from .limits import certificate

    f0, fk = parse_rational(args.f0), parse_rational(args.fk)
    cert = certificate(f0, fk, parse_rational(args.eps))
    return [
        {
            "params": {"f0": f0, "fk": fk, "eps": cert.epsilon},
            "result": {"M": cert.M, "c": cert.c, "N": cert.N},
        }
    ]


def _cmd_limits_rho(args) -> list[dict]:
    from .limits import dominant_root

    r, s = parse_rational(args.r), parse_rational(args.s)
    root = dominant_root(r, s)
    return [
        {
            "params": {"r": r, "s": s, "digits": args.digits},
            "result": {"rho": root, "decimal": decimal_str(root, args.digits)},
        }
    ]


def _cmd_limits_cf(args) -> list[dict]:
    from .limits import cf_convergent

    value = cf_convergent(args.m)
    return [
        {
            "params": {"m": args.m, "digits": args.digits},
            "result": {"convergent": value, "decimal": decimal_str(value, args.digits)},
        }
    ]


def _cmd_limits_estimate(args) -> list[dict]:
    from .limits import RatioParams, limit_estimate

    digits = args.digits
    params = RatioParams(parse_rational(args.r), parse_rational(args.s), args.parity)
    seed = (parse_rational(args.seed0), parse_rational(args.seed1))
    estimate = limit_estimate(params, seed, args.direction, args.n)
    claimed = estimate.claimed
    return [
        {
            "params": {
                "r": params.r,
                "s": params.s,
                "parity": params.parity,
                "direction": args.direction,
                "n": args.n,
                "seed": seed,
                "digits": digits,
            },
            "result": {
                "ratio": estimate.ratio,
                "estimate": decimal_str(estimate.ratio, digits),
                "target": estimate.target,
                "target_decimal": decimal_str(estimate.target, digits),
                "error_decimal": decimal_str(abs(estimate.ratio - estimate.target), digits),
                "claimed": claimed,
                "claimed_decimal": None if claimed is None else decimal_str(claimed, digits),
            },
        }
    ]


def _fibfunc_echo(args, seed, offset: Fraction, **extra) -> dict:
    kind = seed.kind
    return {
        "seed_file": args.seed_file,
        "k": seed.period,
        "kind": kind.parity,
        "r": kind.r,
        "s": kind.s,
        "offset": offset,
        **extra,
    }


def _cmd_fibfunc_extend(args) -> list[dict]:
    from .fibfunc import extend, load_seed

    seed = load_seed(args.seed_file)
    return [
        {
            "params": _fibfunc_echo(args, seed, trace.offset, nmin=args.nmin, nmax=args.nmax),
            "result": {"n_start": trace.n_start, "values": trace.values},
        }
        for trace in extend(seed, args.nmin, args.nmax)
    ]


def _cmd_fibfunc_trace(args) -> list[dict]:
    from .fibfunc import load_seed, ratio_trace

    seed = load_seed(args.seed_file)
    indices = range(len(seed.offsets)) if args.offset_index is None else [args.offset_index]
    traces = (ratio_trace(seed, index, args.nmin, args.nmax) for index in indices)
    return [
        {
            "params": _fibfunc_echo(args, seed, trace.offset, nmin=args.nmin, nmax=args.nmax),
            "result": {"ratios": trace.ratios or [], "undefined_at": trace.ratio_undefined_at},
        }
        for trace in traces
    ]


def _cmd_fibfunc_verify(args) -> list[dict]:
    from .fibfunc import load_seed, verify_convergence

    digits = args.digits
    seed = load_seed(args.seed_file)
    records = []
    for report in verify_convergence(seed, parse_rational(args.eps), args.max_steps):
        cert = report.certificate
        error = None if report.ratio is None else decimal_str(abs(report.ratio - report.target), digits)
        records.append(
            {
                "params": _fibfunc_echo(
                    args, seed, report.offset, eps=report.epsilon, max_steps=report.horizon, digits=digits
                ),
                "result": {
                    "target": report.target,
                    "target_decimal": decimal_str(report.target, digits),
                    "first_step": report.first_step,
                    "converged": report.converged,
                    "error_decimal": error,
                    "certificate": None if cert is None else {"M": cert.M, "c": cert.c, "N": cert.N},
                },
            }
        )
    return records


# ---------------------------------------------------------------------------
# parser


def _output_flags(parser: argparse.ArgumentParser, format_default, digits_default) -> None:
    parser.add_argument("--format", choices=["json", "csv"], default=format_default,
                        help="output format (default json)")
    parser.add_argument("--digits", type=int, default=digits_default,
                        help="decimal digits for rendered values (default 12)")


def _leaf(sub, command: str, handler, help_text: str, **required) -> argparse.ArgumentParser:
    """The parser of one command: its output flags, its required flags (a str
    by default, else the type given or one of the choices listed) and its handler.

    A subparser copies its whole namespace over its parent's: that is how the
    leaf's full `command` name replaces the top level's first word, and why the
    leaf's output flags default to SUPPRESS, so they override the top-level
    ones only when given.
    """
    leaf = sub.add_parser(command.split()[-1], help=help_text)
    _output_flags(leaf, argparse.SUPPRESS, argparse.SUPPRESS)
    for name, kind in required.items():
        spec = {"choices": kind} if isinstance(kind, list) else {"type": kind}
        leaf.add_argument("--" + name.replace("_", "-"), required=True, **spec)
    leaf.set_defaults(command=command, handler=handler)
    return leaf


def build_parser() -> _Parser:
    parser = _Parser(prog="aurea", description="Exact Riccati-type recurrence toolkit")
    _output_flags(parser, "json", 12)
    sub = parser.add_subparsers(dest="command", required=True)

    leaf = _leaf(sub, "horadam", _cmd_horadam, "terms of w(n+2) = p*w(n+1) - q*w(n)", w0=str, w1=str, p=str, q=str)
    leaf.add_argument("--n", required=True, help="index or inclusive range like 0..7")
    leaf.add_argument("--fast", action="store_true", help="accepted for compatibility and echoed; no effect")

    rsub = sub.add_parser("riccati", help="orbits and structure of x -> q/(±p + x)").add_subparsers(
        dest="subcommand", required=True
    )
    _leaf(rsub, "riccati solve", _cmd_riccati_solve, "closed form next to the iterated trajectory",
          p=str, q=str, branch=_BRANCHES, x0=str, n=int)
    _leaf(rsub, "riccati orbit", _cmd_riccati_orbit, "iterated trajectory with pole reporting",
          p=str, q=str, branch=_BRANCHES, x0=str, n=int)
    _leaf(rsub, "riccati forbidden", _cmd_riccati_forbidden, "backward orbit of the pole",
          p=str, q=str, branch=_BRANCHES, depth=int)
    leaf = _leaf(rsub, "riccati classify", _cmd_riccati_classify,
                 "fixed point / forbidden / regular for an initial value", p=str, q=str, branch=_BRANCHES, depth=int)
    value = leaf.add_mutually_exclusive_group(required=True)
    value.add_argument("--x0", help="rational initial value")
    value.add_argument("--surd", help="quadratic-surd initial value as a,b,d (use --surd=...)")
    _leaf(rsub, "riccati subst-check", _cmd_riccati_subst_check, "verify the linearising substitution step by step",
          p=str, q=str, t0=str, t1=str, n=int)

    lsub = sub.add_parser("limits", help="ratio limits, certificates and convergents").add_subparsers(
        dest="subcommand", required=True
    )
    _leaf(lsub, "limits certificate", _cmd_limits_certificate, "Cauchy certificate (M, c, N) for a golden seed pair",
          f0=str, fk=str, eps=str)
    _leaf(lsub, "limits rho", _cmd_limits_rho, "positive root of x**2 = r*x + s", r=str, s=str)
    _leaf(lsub, "limits cf", _cmd_limits_cf, "convergent of the all-ones continued fraction", m=int)
    leaf = _leaf(lsub, "limits estimate", _cmd_limits_estimate, "final recurrence ratio next to its exact limit",
                 r=str, s=str, parity=[STANDARD, ODD], direction=[FORWARD, BACKWARD], n=int)
    leaf.add_argument("--seed0", default="1")
    leaf.add_argument("--seed1", default="1")

    fsub = sub.add_parser("fibfunc", help="period-k lattice recurrences from a seed file").add_subparsers(
        dest="subcommand", required=True
    )
    _leaf(fsub, "fibfunc extend", _cmd_fibfunc_extend, "lattice values per offset", seed_file=str, nmin=int, nmax=int)
    leaf = _leaf(fsub, "fibfunc trace", _cmd_fibfunc_trace, "ratio orbit per offset", seed_file=str)
    leaf.add_argument("--nmin", type=int, default=0)
    leaf.add_argument("--nmax", type=int, default=32)
    leaf.add_argument("--offset-index", type=int, default=None)
    leaf = _leaf(fsub, "fibfunc verify", _cmd_fibfunc_verify, "per-offset convergence to the predicted root",
                 seed_file=str, eps=str)
    leaf.add_argument("--max-steps", type=int, default=512)

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
    try:
        text = _emit([{"command": args.command, **record} for record in args.handler(args)], args.format)
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
