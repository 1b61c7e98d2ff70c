#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of aurea.

    python3 bench/run.py --workload {jump,sweep,surd,cli} --seed N --seconds S --trace {0,1}

One process, one closed-loop client, one request at a time.  Each request's
output is checked against a reference outside the timed region (the clock
stops while it runs).  Stdout carries a readable summary: a `run-info:` JSON
line with `n`, operand bit sizes, wall figures and host speed, then every
metric with its unit.  The last line is one JSON object
{"correct", "attempted", "failed", "metrics"}.

The end-to-end times are in reference seconds (units `ref_ms`, `1/ref_s`;
setup_s keeps the unit `s` that the benchmark's contract fixes for it).  The
host is shared and its speed moves by up to 2x over minutes, so a fixed
pure-int loop is timed every SLICE_INTERVAL_S between requests, outside the
timed region, and each wall interval is scaled by REFERENCE_SLICE_S over the
median of the last five loop times: a reference second is a wall second on a
host that runs the loop in REFERENCE_SLICE_S.  On a shared 2-CPU x86-64
container, over two sets of ten runs per workload (seeds 1-10, then 11-20), the
wall medians moved by up to 20% between the sets and the reference medians by
at most 8%; within a set the spread (IQR over median) reached 0.26 in wall time
and 0.14 in reference time.  The wall figures are in `run-info`, and
host.calib_ms is the median loop time.  Per-layer times are wall times.

The deck's first requests warm the process up untimed; the timed requests
follow them, so no input of a --trace 0 run is executed twice.

--trace 0 runs requests for S seconds of wall request time (and at least
MIN_REQUESTS, so at least 10 lie beyond p90), ending on a whole round of
ROUND_PER_KIND requests per kind, which covers each kind's size quartiles
once, or until the deck runs out, and reports the end-to-end metrics.  setup_s is the median over
SETUP_PROBES fresh processes of the time from process start to the first timed
request (imports, deck generation and warm-up).  peak_rss_mb is this process's
peak RSS, or the children's for cli.

--trace 1 runs the next `trace_requests` requests of the deck twice each, once
untraced and once with spans around every call into an aurea module, the two in
turn first, and reports the per-layer metrics of the traced executions,
trace_overhead (traced over untraced requests per second), fail_ratio,
refused_ratio, the CLI start-up costs and host.calib_ms.  Spans are written to
.bench_out/ in the checkout.

A failed request is one that raised, exited with an unexpected code, timed
out, or returned a wrong output; `correct` is false only for wrong outputs.
A refused request is one whose correct value `format_rational` would not
render because it passes the interpreter's int->str digit limit (a known
defect, seen on jump); its check proves both the value and that it is
past the limit.  It is not failed, but it is not counted in ops_per_s either.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_REQUESTS = 110
ROUND_PER_KIND = 4  # a run ends on a multiple of this many requests per kind
SETUP_PROBES = 7
START_PROBES = 7
SLICE_LOOPS = 20_000
SLICE_INTERVAL_S = 0.25
REFERENCE_SLICE_S = 0.005  # about the loop's median time over the seed's baseline runs

END_TO_END_UNITS = {
    "ops_per_s": "1/ref_s",
    "latency_p50_ms": "ref_ms",
    "latency_p90_ms": "ref_ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("bits") or name.endswith("bits_max"):
        return "bits"
    if name in ("trace_overhead", "fail_ratio", "refused_ratio"):
        return "ratio"
    return {"exact.digits_rendered": "chars", "cli.stdout_bytes": "bytes"}.get(name, "count")


def import_library():
    """Put the checkout's src/ first on the path; refuse to run without it."""
    sys.path.insert(0, str(SRC))
    try:
        import aurea
        import workloads
    except ImportError as exc:
        raise SystemExit(f"error: cannot import aurea from {SRC}: {exc}") from exc
    if Path(aurea.__file__).resolve().parent != SRC / "aurea":
        raise SystemExit(f"error: aurea was imported from {aurea.__file__}, not from {SRC}")
    return workloads


class HostClock:
    """Host speed from a fixed pure-int loop; `factor` turns wall seconds into reference seconds."""

    def __init__(self) -> None:
        self.slices: list[float] = []
        self.last = float("-inf")
        self.factor = 1.0

    def sample(self) -> None:
        start = time.perf_counter()
        x = 0
        for i in range(SLICE_LOOPS):
            x = (x * 1103515245 + i) % 2147483648
        self.last = time.perf_counter()
        self.slices.append(self.last - start)
        self.factor = REFERENCE_SLICE_S / statistics.median(self.slices[-5:])

    def tick(self) -> None:
        if time.perf_counter() - self.last >= SLICE_INTERVAL_S:
            self.sample()

    def calib_ms(self) -> float:
        return 1000 * statistics.median(self.slices)


@dataclass
class Pass:
    attempted: int = 0
    failed: int = 0
    refused: int = 0
    wrong: int = 0
    wall: float = 0.0
    latencies: list = field(default_factory=list)
    reference: float = 0.0
    ref_latencies: list = field(default_factory=list)
    sizes: list = field(default_factory=list)
    bits: int = 0
    errors: dict = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed - self.refused

    @property
    def ops_per_s(self) -> float:
        return self.completed / self.wall

    @property
    def ops_per_ref_s(self) -> float:
        return self.completed / self.reference


def run_request(workload, spec, tracer, clock: HostClock, result: Pass, request_id: int) -> None:
    """Time one request, then check its output with the clock stopped."""
    from oracles import Mismatch
    from workloads import refused

    workload.prepare(spec)
    clock.tick()
    error = None
    start = time.perf_counter()
    try:
        with tracer.request(request_id):
            output = workload.execute(spec, tracer)
    except Exception as exc:  # the library's failure is a measured outcome, not a crash
        error = exc
    elapsed = time.perf_counter() - start
    result.attempted += 1
    result.wall += elapsed
    result.latencies.append(elapsed)
    result.reference += elapsed * clock.factor
    result.ref_latencies.append(elapsed * clock.factor)
    result.sizes.append(spec[1])
    if error is None:
        try:
            result.bits = max(result.bits, workload.check(spec, output))
            result.refused += refused(output)
        except Exception as exc:  # a check that cannot even parse the output finds it wrong too
            error = exc if isinstance(exc, Mismatch) else Mismatch(f"{type(exc).__name__}: {exc}")
            result.wrong += 1
    if error is not None:
        result.failed += 1
        key = f"{spec[0]}: {type(error).__name__}: {str(error)[:120]}"
        result.errors[key] = result.errors.get(key, 0) + 1


def run_requests(workload, deck, tracer, clock: HostClock, start: int = 0, seconds: float | None = None,
                 count: int | None = None) -> Pass:
    """Closed loop over the deck from request `start`: either `count` requests, or until `seconds`
    of wall request time; stops early if the deck runs out."""
    result = Pass()
    round_size = ROUND_PER_KIND * len(workload.kinds)
    i = start
    while (i < start + count) if count is not None else (
            result.wall < seconds or result.attempted < MIN_REQUESTS or result.attempted % round_size):
        try:
            spec = deck[i]
        except IndexError:
            break
        run_request(workload, spec, tracer, clock, result, i)
        i += 1
    return result


def warm_up(workload, deck) -> None:
    """The deck's first `warmup_requests` requests, untimed."""
    from tracing import NULL

    for spec in (deck[i] for i in range(workload.warmup_requests)):
        workload.prepare(spec)
        try:
            workload.execute(spec, NULL)
        except Exception:  # noqa: BLE001 - failures are counted in the timed phase
            pass


def setup_seconds(args, clock: HostClock) -> float:
    """Median time from process start to the first timed request, over fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        clock.sample()
        start = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        ready = int(proc.stdout.split()[-1])  # the probe's CLOCK_MONOTONIC when it was ready
        samples.append((ready - start) / 1e9 * clock.factor)
    return statistics.median(samples)


def cli_start_ms() -> tuple[float, float]:
    """Median time of a bare interpreter, and of `import aurea.cli` beyond that."""

    def median_ms(code: str) -> float:
        samples = []
        for _ in range(START_PROBES):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
                           timeout=60)
            samples.append(1000 * (time.perf_counter() - start))
        return statistics.median(samples)

    spawn = median_ms("pass")
    return spawn, median_ms("import aurea.cli") - spawn


def end_to_end(workload, result: Pass, args, clock: HostClock) -> dict:
    deciles = statistics.quantiles([1000 * t for t in result.ref_latencies], n=10, method="inclusive")
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024  # before the setup probes add children
    return {
        "ops_per_s": result.ops_per_ref_s,
        "latency_p50_ms": deciles[4],
        "latency_p90_ms": deciles[8],
        "setup_s": setup_seconds(args, clock),
        "peak_rss_mb": peak_rss_mb,
    }


def traced(workload, deck, args, clock: HostClock) -> tuple[Pass, dict]:
    """Each request untraced and traced, the two in turn first, so warmth does not favour either."""
    from tracing import NULL, Tracer

    tracer = Tracer()
    untraced, result = Pass(), Pass()
    start = workload.warmup_requests
    for i in range(start, start + workload.trace_requests):
        spec = deck[i]
        order = ((NULL, untraced), (tracer, result))
        for which, into in order if i % 2 else order[::-1]:
            run_request(workload, spec, which, clock, into, i)
    metrics = tracer.metrics()
    metrics["trace_overhead"] = result.ops_per_s / untraced.ops_per_s
    metrics["fail_ratio"] = result.failed / result.attempted
    metrics["refused_ratio"] = result.refused / result.attempted
    metrics["cli.spawn_ms"], metrics["cli.import_ms"] = cli_start_ms()
    metrics["host.calib_ms"] = clock.calib_ms()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{workload.name}-{args.seed}.jsonl")
    return result, metrics


def summary(workload, result: Pass, metrics: dict, clock: HostClock, args) -> list[str]:
    """Readable lines; the first is `run-info: {json}` with the run's sizes, wall figures and host speed."""
    sizes = sorted(result.sizes)
    wall_deciles = statistics.quantiles([1000 * t for t in result.latencies], n=10, method="inclusive")
    info = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace, "attempted": result.attempted,
        "failed": result.failed, "wrong": result.wrong, "refused": result.refused,
        "n": {"min": sizes[0], "median": statistics.median(sizes), "max": sizes[-1]},
        "operand_bits_max": result.bits, "python": sys.version.split()[0],
        "wall": {"request_s": result.wall, "ops_per_s": result.ops_per_s,
                 "latency_p50_ms": wall_deciles[4], "latency_p90_ms": wall_deciles[8]},
        "host.calib_ms": {"min": 1000 * min(clock.slices), "median": clock.calib_ms(),
                          "max": 1000 * max(clock.slices), "slices": len(clock.slices)},
    }
    lines = [f"run-info: {json.dumps(info)}"]
    for name, value in metrics.items():
        lines.append(f"  {name}: {value:.6g} {unit_of(name)}")
    for key, count in sorted(result.errors.items(), key=lambda item: -item[1])[:8]:
        lines.append(f"  failure x{count}: {key}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = import_library()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".bench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    clock = HostClock()
    try:
        deck = workload.deck(args.seed)
        workload.setup(str(workdir))
        warm_up(workload, deck)
        if args.setup_probe:
            print(time.monotonic_ns(), flush=True)
            return 0
        if args.trace:
            result, metrics = traced(workload, deck, args, clock)
        else:
            from tracing import NULL

            result = run_requests(workload, deck, NULL, clock, start=workload.warmup_requests,
                                  seconds=args.seconds)
            metrics = end_to_end(workload, result, args, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print("\n".join(summary(workload, result, metrics, clock, args)))
    print(json.dumps({
        "correct": result.wrong == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
