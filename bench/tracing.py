"""In-memory spans around the benchmark's calls into each `aurea` module.

A span records (request id, span id, parent span id, layer, start, end).
A layer's busy time is its spans' self time: duration minus the part covered
by child spans.  Counters are kept at the same boundaries.  `NULL` has the
same interface and records nothing, so untraced runs pay one no-op call per
boundary.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from fractions import Fraction

LAYERS = ("exact", "horadam", "riccati", "limits", "fibfunc")
WORK_COUNTS = ("horadam.index_sum", "riccati.steps", "limits.cert_N_sum", "fibfunc.lattice_terms",
               "exact.digits_rendered", "cli.stdout_bytes")


class _Span:
    __slots__ = ("tracer", "layer", "span_id", "parent", "start", "child_time")

    def __init__(self, tracer: "Tracer", layer: str) -> None:
        self.tracer, self.layer = tracer, layer

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        tracer.next_id += 1
        self.span_id = tracer.next_id
        self.parent = tracer.stack[-1] if tracer.stack else None
        tracer.stack.append(self)
        self.child_time = 0.0
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.perf_counter()
        tracer = self.tracer
        tracer.stack.pop()
        duration = end - self.start
        if self.parent is not None:
            self.parent.child_time += duration
        tracer.busy[self.layer] += duration - self.child_time
        tracer.calls[self.layer] += 1
        if exc_type is not None:
            tracer.errors[self.layer] += 1
        parent_id = self.parent.span_id if self.parent is not None else None
        tracer.spans.append((tracer.request_id, self.span_id, parent_id, self.layer, self.start, end))


class Tracer:
    """Collects spans and per-layer counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[_Span] = []
        self.next_id = 0
        self.request_id = 0
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)

    def span(self, layer: str) -> _Span:
        return _Span(self, layer)

    def request(self, request_id: int) -> _Span:
        """Root span of one request; the spans it encloses share its id."""
        self.request_id = request_id
        return _Span(self, "request")

    def add(self, key: str, amount: int) -> None:
        self.work[key] += amount

    def peak(self, key: str, value: int) -> None:
        if value > self.peaks[key]:
            self.peaks[key] = value

    def bits(self, layer: str, value) -> None:
        """Track the largest numerator or denominator bit length in a returned value."""
        self.peak(f"{layer}.max_bits", _max_bits(value))

    def rendered(self, texts) -> None:
        self.work["exact.digits_rendered"] += sum(len(t) for t in texts)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.busy_ms"] = 1000 * self.busy[layer]
            out[f"{layer}.errors"] = self.errors[layer]
            out[f"{layer}.max_bits"] = self.peaks[f"{layer}.max_bits"]
        for key in WORK_COUNTS:
            out[key] = self.work[key]
        out["exact.radicand_bits_max"] = self.peaks["exact.radicand_bits_max"]
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for request_id, span_id, parent, layer, start, end in self.spans:
                handle.write(json.dumps({"request": request_id, "span": span_id, "parent": parent,
                                         "layer": layer, "start": start, "end": end}) + "\n")


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


class _NullTracer:
    _span = _NullSpan()

    def span(self, layer: str) -> _NullSpan:
        return self._span

    def request(self, request_id: int) -> _NullSpan:
        return self._span

    def add(self, key: str, amount: int) -> None:
        pass

    def peak(self, key: str, value: int) -> None:
        pass

    def bits(self, layer: str, value) -> None:
        pass

    def rendered(self, texts) -> None:
        pass


NULL = _NullTracer()


def _max_bits(value) -> int:
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, (list, tuple)):
        return max((_max_bits(v) for v in value), default=0)
    if hasattr(value, "b"):  # QuadraticSurd
        return max(_max_bits(value.a), _max_bits(value.b))
    return 0
