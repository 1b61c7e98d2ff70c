"""Command-line surface: every operation reachable as a subcommand with
machine-readable output (JSON lines by default, CSV on request).

Exit codes: 0 success, 2 domain error (pole, forbidden seed, degenerate
input), 3 argument or parse error.  Records go to stdout, diagnostics to
stderr.  Output is deterministic for identical arguments.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .exact import (
    DomainError,
    QuadraticSurd,
    decimal_str,
    format_rational,
    parse_rational,
)
from .fibfunc import extend, load_seed, ratio_trace, verify_convergence
from .horadam import RecurrenceParams, fast_term, window
from .limits import (
    RatioParams,
    certificate,
    cf_convergent,
    dominant_root,
    limit_estimate,
)
from .riccati import (
    RiccatiParams,
    classify_initial,
    closed_form_trajectory,
    forbidden_set,
    iterate_orbit,
    substitution_check,
)

__all__ = ["main", "run"]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argument errors exit 3, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(3)


def _rats(values) -> list[str]:
    return [format_rational(v) for v in values]


def _parse_surd(text: str) -> QuadraticSurd:
    fields = text.split(",")
    if len(fields) != 3:
        raise ValueError(f"expected 'a,b,d', got {text!r}")
    return QuadraticSurd(parse_rational(fields[0]), parse_rational(fields[1]), int(fields[2]))


def _parse_index_range(text: str) -> tuple[int, int]:
    """Either a single index "7" or an inclusive range "0..7"; returns (start, count)."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty index range {text!r}")
        return lo, hi - lo + 1
    return int(text), 1


def _flatten(record: dict, prefix: str = "") -> dict[str, str]:
    flat: dict[str, str] = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, name + "."))
        elif isinstance(value, (list, tuple)):
            flat[name] = ";".join(str(item) for item in value)
        elif isinstance(value, bool):
            flat[name] = "true" if value else "false"
        elif value is None:
            flat[name] = ""
        else:
            flat[name] = str(value)
    return flat


def _emit(records: list[dict], fmt: str) -> None:
    if fmt == "json":
        for record in records:
            sys.stdout.write(json.dumps(record) + "\n")
        return
    rows = [_flatten(record) for record in records]
    fieldnames: list[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    writer = csv.DictWriter(sys.stdout, fieldnames=fieldnames, restval="", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


# ---------------------------------------------------------------------------
# handlers (each returns a list of output records)


def _cmd_horadam(args, digits: int) -> list[dict]:
    params = RecurrenceParams(
        parse_rational(args.w0), parse_rational(args.w1), parse_rational(args.p), parse_rational(args.q)
    )
    start, count = _parse_index_range(args.n)
    if args.fast:
        values = [fast_term(params, k) for k in range(start, start + count)]
    else:
        values = list(window(params, start, count).values)
    return [
        {
            "command": "horadam",
            "params": {
                "w0": format_rational(params.w0),
                "w1": format_rational(params.w1),
                "p": format_rational(params.p),
                "q": format_rational(params.q),
                "n": args.n,
                "fast": bool(args.fast),
            },
            "result": {"start": start, "terms": _rats(values)},
        }
    ]


def _riccati_params(args) -> RiccatiParams:
    return RiccatiParams(parse_rational(args.p), parse_rational(args.q), args.branch)


def _riccati_echo(params: RiccatiParams, **extra) -> dict:
    echo = {
        "p": format_rational(params.p),
        "q": format_rational(params.q),
        "branch": params.branch,
    }
    echo.update(extra)
    return echo


def _cmd_riccati_orbit(args, digits: int) -> list[dict]:
    params = _riccati_params(args)
    x0 = parse_rational(args.x0)
    report = iterate_orbit(params, x0, args.n)
    return [
        {
            "command": "riccati orbit",
            "params": _riccati_echo(params, x0=format_rational(x0), n=args.n),
            "result": {
                "trajectory": _rats(report.trajectory),
                "status": report.status(),
                "classification": report.classification.label(),
            },
        }
    ]


def _cmd_riccati_solve(args, digits: int) -> list[dict]:
    params = _riccati_params(args)
    x0 = parse_rational(args.x0)
    closed = closed_form_trajectory(params, x0, args.n)
    orbit = iterate_orbit(params, x0, args.n)
    return [
        {
            "command": "riccati solve",
            "params": _riccati_echo(params, x0=format_rational(x0), n=args.n),
            "result": {
                "closed_form": _rats(closed),
                "orbit": _rats(orbit.trajectory),
                "status": orbit.status(),
                "match": list(closed) == list(orbit.trajectory),
            },
        }
    ]


def _cmd_riccati_forbidden(args, digits: int) -> list[dict]:
    params = _riccati_params(args)
    elements = forbidden_set(params, args.depth)
    return [
        {
            "command": "riccati forbidden",
            "params": _riccati_echo(params, depth=args.depth),
            "result": {"elements": _rats(elements)},
        }
    ]


def _cmd_riccati_classify(args, digits: int) -> list[dict]:
    params = _riccati_params(args)
    if args.surd is not None:
        value = _parse_surd(args.surd)
        echo_value = {"surd": value.to_record()}
    elif args.x0 is not None:
        value = parse_rational(args.x0)
        echo_value = {"x0": format_rational(value)}
    else:
        raise ValueError("one of --x0 or --surd is required")
    result = classify_initial(params, value, args.depth)
    return [
        {
            "command": "riccati classify",
            "params": _riccati_echo(params, depth=args.depth, **echo_value),
            "result": {"classification": result.label()},
        }
    ]


def _cmd_riccati_subst_check(args, digits: int) -> list[dict]:
    params = RiccatiParams(parse_rational(args.p), parse_rational(args.q), "plus")
    t0, t1 = parse_rational(args.t0), parse_rational(args.t1)
    report = substitution_check(params, t0, t1, args.n)
    status = "completed" if report.pole_step is None else f"pole_at_step({report.pole_step})"
    return [
        {
            "command": "riccati subst-check",
            "params": {
                "p": format_rational(params.p),
                "q": format_rational(params.q),
                "t0": format_rational(t0),
                "t1": format_rational(t1),
                "n": args.n,
            },
            "result": {
                "t_values": _rats(report.t_values),
                "ratios": _rats(report.ratio_values),
                "status": status,
                "orbit_match": all(report.orbit_matches),
                "closed_form_match": all(report.closed_form_matches),
                "passed": report.passed,
            },
        }
    ]


def _cmd_limits_certificate(args, digits: int) -> list[dict]:
    f0, fk = parse_rational(args.f0), parse_rational(args.fk)
    cert = certificate(f0, fk, parse_rational(args.eps))
    return [
        {
            "command": "limits certificate",
            "params": {
                "f0": format_rational(f0),
                "fk": format_rational(fk),
                "eps": format_rational(cert.epsilon),
            },
            "result": {
                "M": format_rational(cert.M),
                "c": format_rational(cert.c),
                "N": cert.N,
            },
        }
    ]


def _cmd_limits_rho(args, digits: int) -> list[dict]:
    r, s = parse_rational(args.r), parse_rational(args.s)
    root = dominant_root(r, s)
    return [
        {
            "command": "limits rho",
            "params": {
                "r": format_rational(r),
                "s": format_rational(s),
                "digits": digits,
            },
            "result": {"rho": root.to_record(), "decimal": decimal_str(root, digits)},
        }
    ]


def _cmd_limits_cf(args, digits: int) -> list[dict]:
    value = cf_convergent(args.m)
    return [
        {
            "command": "limits cf",
            "params": {"m": args.m, "digits": digits},
            "result": {
                "convergent": format_rational(value),
                "decimal": decimal_str(value, digits),
            },
        }
    ]


def _cmd_limits_estimate(args, digits: int) -> list[dict]:
    params = RatioParams(parse_rational(args.r), parse_rational(args.s), args.parity)
    seed = (parse_rational(args.seed0), parse_rational(args.seed1))
    estimate = limit_estimate(params, seed, args.direction, args.n)
    result = {
        "ratio": format_rational(estimate.ratio),
        "estimate": decimal_str(estimate.ratio, digits),
        "target": estimate.target.to_record(),
        "target_decimal": decimal_str(estimate.target, digits),
        "error_decimal": decimal_str(abs(estimate.ratio - estimate.target), digits),
        "claimed": None,
        "claimed_decimal": None,
    }
    if estimate.claimed is not None:
        result["claimed"] = estimate.claimed.to_record()
        result["claimed_decimal"] = decimal_str(estimate.claimed, digits)
    return [
        {
            "command": "limits estimate",
            "params": {
                "r": format_rational(params.r),
                "s": format_rational(params.s),
                "parity": params.parity,
                "direction": args.direction,
                "n": args.n,
                "seed": [format_rational(seed[0]), format_rational(seed[1])],
                "digits": digits,
            },
            "result": result,
        }
    ]


def _fibfunc_echo(args, seed, **extra) -> dict:
    echo = {
        "seed_file": args.seed_file,
        "k": format_rational(seed.period),
        "kind": seed.kind.parity,
        "r": format_rational(seed.kind.r),
        "s": format_rational(seed.kind.s),
    }
    echo.update(extra)
    return echo


def _cmd_fibfunc_extend(args, digits: int) -> list[dict]:
    seed = load_seed(args.seed_file)
    records = []
    for trace in extend(seed, args.nmin, args.nmax):
        records.append(
            {
                "command": "fibfunc extend",
                "params": _fibfunc_echo(
                    args, seed, offset=format_rational(trace.offset), nmin=args.nmin, nmax=args.nmax
                ),
                "result": {"n_start": trace.n_start, "values": _rats(trace.values)},
            }
        )
    return records


def _cmd_fibfunc_trace(args, digits: int) -> list[dict]:
    seed = load_seed(args.seed_file)
    if args.offset_index is None:
        indices = range(len(seed.offsets))
    elif 0 <= args.offset_index < len(seed.offsets):
        indices = [args.offset_index]
    else:
        raise ValueError(f"offset index {args.offset_index} out of range (seed has {len(seed.offsets)} offsets)")
    records = []
    for index in indices:
        trace = ratio_trace(seed, index, args.nmin, args.nmax)
        records.append(
            {
                "command": "fibfunc trace",
                "params": _fibfunc_echo(
                    args, seed, offset=format_rational(trace.offset), nmin=args.nmin, nmax=args.nmax
                ),
                "result": {
                    "ratios": _rats(trace.ratios or ()),
                    "undefined_at": trace.ratio_undefined_at,
                },
            }
        )
    return records


def _cmd_fibfunc_verify(args, digits: int) -> list[dict]:
    seed = load_seed(args.seed_file)
    records = []
    for report in verify_convergence(seed, parse_rational(args.eps), args.max_steps):
        result = {
            "target": report.target.to_record(),
            "target_decimal": decimal_str(report.target, digits),
            "first_step": report.first_step,
            "converged": report.converged,
            "error_decimal": None,
            "certificate": None,
        }
        if report.ratio is not None:
            result["error_decimal"] = decimal_str(abs(report.ratio - report.target), digits)
        if report.certificate is not None:
            result["certificate"] = {
                "M": format_rational(report.certificate.M),
                "c": format_rational(report.certificate.c),
                "N": report.certificate.N,
            }
        records.append(
            {
                "command": "fibfunc verify",
                "params": _fibfunc_echo(
                    args,
                    seed,
                    offset=format_rational(report.offset),
                    eps=format_rational(report.epsilon),
                    max_steps=report.horizon,
                    digits=digits,
                ),
                "result": result,
            }
        )
    return records


# ---------------------------------------------------------------------------
# parser


def _add_output_flags(parser: argparse.ArgumentParser, top_level: bool = False) -> None:
    # subparsers copy their own defaults over the parent namespace, so leaf
    # parsers need distinct dests for the shared output flags
    suffix = "" if top_level else "_override"
    parser.add_argument(
        "--format",
        dest=f"format{suffix}",
        choices=["json", "csv"],
        default=None,
        help="output format (default json)",
    )
    parser.add_argument(
        "--digits",
        dest=f"digits{suffix}",
        type=int,
        default=None,
        help="decimal digits for rendered values (default 12)",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="aurea", description="Exact Riccati-type recurrence toolkit")
    _add_output_flags(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    h = sub.add_parser("horadam", help="terms of w(n+2) = p*w(n+1) - q*w(n)")
    _add_output_flags(h)
    h.add_argument("--w0", required=True)
    h.add_argument("--w1", required=True)
    h.add_argument("--p", required=True)
    h.add_argument("--q", required=True)
    h.add_argument("--n", required=True, help="index or inclusive range like 0..7")
    h.add_argument("--fast", action="store_true", help="use companion-matrix powering")
    h.set_defaults(handler=_cmd_horadam)

    r = sub.add_parser("riccati", help="orbits and structure of x -> q/(±p + x)")
    rsub = r.add_subparsers(dest="subcommand", required=True)

    def riccati_leaf(name: str, help_text: str):
        leaf = rsub.add_parser(name, help=help_text)
        _add_output_flags(leaf)
        leaf.add_argument("--p", required=True)
        leaf.add_argument("--q", required=True)
        return leaf

    leaf = riccati_leaf("solve", "closed form next to the iterated trajectory")
    leaf.add_argument("--branch", choices=["plus", "minus"], required=True)
    leaf.add_argument("--x0", required=True)
    leaf.add_argument("--n", type=int, required=True)
    leaf.set_defaults(handler=_cmd_riccati_solve)

    leaf = riccati_leaf("orbit", "iterated trajectory with pole reporting")
    leaf.add_argument("--branch", choices=["plus", "minus"], required=True)
    leaf.add_argument("--x0", required=True)
    leaf.add_argument("--n", type=int, required=True)
    leaf.set_defaults(handler=_cmd_riccati_orbit)

    leaf = riccati_leaf("forbidden", "backward orbit of the pole")
    leaf.add_argument("--branch", choices=["plus", "minus"], required=True)
    leaf.add_argument("--depth", type=int, required=True)
    leaf.set_defaults(handler=_cmd_riccati_forbidden)

    leaf = riccati_leaf("classify", "fixed point / forbidden / regular for an initial value")
    leaf.add_argument("--branch", choices=["plus", "minus"], required=True)
    leaf.add_argument("--x0", help="rational initial value")
    leaf.add_argument("--surd", help="quadratic-surd initial value as a,b,d (use --surd=...)")
    leaf.add_argument("--depth", type=int, required=True)
    leaf.set_defaults(handler=_cmd_riccati_classify)

    leaf = riccati_leaf("subst-check", "verify the linearising substitution step by step")
    leaf.add_argument("--t0", required=True)
    leaf.add_argument("--t1", required=True)
    leaf.add_argument("--n", type=int, required=True)
    leaf.set_defaults(handler=_cmd_riccati_subst_check)

    lim = sub.add_parser("limits", help="ratio limits, certificates and convergents")
    lsub = lim.add_subparsers(dest="subcommand", required=True)

    leaf = lsub.add_parser("certificate", help="Cauchy certificate (M, c, N) for a golden seed pair")
    _add_output_flags(leaf)
    leaf.add_argument("--f0", required=True)
    leaf.add_argument("--fk", required=True)
    leaf.add_argument("--eps", required=True)
    leaf.set_defaults(handler=_cmd_limits_certificate)

    leaf = lsub.add_parser("rho", help="positive root of x**2 = r*x + s")
    _add_output_flags(leaf)
    leaf.add_argument("--r", required=True)
    leaf.add_argument("--s", required=True)
    leaf.set_defaults(handler=_cmd_limits_rho)

    leaf = lsub.add_parser("cf", help="convergent of the all-ones continued fraction")
    _add_output_flags(leaf)
    leaf.add_argument("--m", type=int, required=True)
    leaf.set_defaults(handler=_cmd_limits_cf)

    leaf = lsub.add_parser("estimate", help="final recurrence ratio next to its exact limit")
    _add_output_flags(leaf)
    leaf.add_argument("--r", required=True)
    leaf.add_argument("--s", required=True)
    leaf.add_argument("--parity", choices=["standard", "odd"], required=True)
    leaf.add_argument("--direction", choices=["forward", "backward"], required=True)
    leaf.add_argument("--n", type=int, required=True)
    leaf.add_argument("--seed0", default="1")
    leaf.add_argument("--seed1", default="1")
    leaf.set_defaults(handler=_cmd_limits_estimate)

    f = sub.add_parser("fibfunc", help="period-k lattice recurrences from a seed file")
    fsub = f.add_subparsers(dest="subcommand", required=True)

    leaf = fsub.add_parser("extend", help="lattice values per offset")
    _add_output_flags(leaf)
    leaf.add_argument("--seed-file", required=True)
    leaf.add_argument("--nmin", type=int, required=True)
    leaf.add_argument("--nmax", type=int, required=True)
    leaf.set_defaults(handler=_cmd_fibfunc_extend)

    leaf = fsub.add_parser("trace", help="ratio orbit per offset")
    _add_output_flags(leaf)
    leaf.add_argument("--seed-file", required=True)
    leaf.add_argument("--nmin", type=int, default=0)
    leaf.add_argument("--nmax", type=int, default=32)
    leaf.add_argument("--offset-index", type=int, default=None)
    leaf.set_defaults(handler=_cmd_fibfunc_trace)

    leaf = fsub.add_parser("verify", help="per-offset convergence to the predicted root")
    _add_output_flags(leaf)
    leaf.add_argument("--seed-file", required=True)
    leaf.add_argument("--eps", required=True)
    leaf.add_argument("--max-steps", type=int, default=512)
    leaf.set_defaults(handler=_cmd_fibfunc_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    fmt = getattr(args, "format_override", None) or args.format or "json"
    digits = getattr(args, "digits_override", None)
    if digits is None:
        digits = args.digits if args.digits is not None else 12
    if digits < 1 or digits > 1000:
        sys.stderr.write("error: --digits must be between 1 and 1000\n")
        return 3
    try:
        records = args.handler(args, digits)
    except (DomainError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    _emit(records, fmt)
    return 0


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
