"""Checks of the benchmark itself: inputs repeat per seed and never within a
run, correct outputs pass their oracles, wrong ones count as failures, values
past the int->str limit count as refusals, and the metric names match
BENCHMARK.json.  Run with `python -m pytest bench`."""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

import run

workloads = run.import_library()
from oracles import Mismatch  # noqa: E402  (needs the path set up by import_library)
from tracing import NULL, Tracer  # noqa: E402

IN_PROCESS = ("jump", "sweep", "surd")
# requests per kind that a run may reach: about twice the most any 20 s run
# reached at the seed (surd, 504 per kind, on a fast spell of the host)
RUN_REQUESTS_PER_KIND = 1024


def _prefix(deck, count):
    specs = []
    for i in range(count):
        try:
            specs.append(deck[i])
        except IndexError:
            break
    return specs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    workload = workloads.WORKLOADS[name]
    count = workloads.STRATA * len(workload.kinds) + 1  # into the second round
    first = _prefix(workload.deck(7), count)
    assert first == _prefix(workload.deck(7), count)
    assert first != _prefix(workload.deck(8), count)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_run_never_repeats_an_input(name):
    workload = workloads.WORKLOADS[name]
    specs = _prefix(workload.deck(7), RUN_REQUESTS_PER_KIND * len(workload.kinds))
    assert len({repr(spec) for spec in specs}) == len(specs)
    if name == "sweep":  # nesting_check(n) has 551 inputs, n = 50..600, and ends the deck
        assert 500 <= sum(spec[0] == "nesting" for spec in specs) <= 551
    else:
        assert len(specs) == RUN_REQUESTS_PER_KIND * len(workload.kinds)


@pytest.mark.parametrize("name", IN_PROCESS)
def test_small_requests_pass_their_oracles(name):
    workload = workloads.WORKLOADS[name]
    deck = workload.deck(3)  # the first len(kinds) requests are each kind's smallest
    result = run.run_requests(workload, deck, Tracer(), run.HostClock(), count=len(workload.kinds))
    assert (result.failed, result.wrong) == (0, 0), result.errors


def test_cli_requests_pass_their_checks(tmp_path):
    workload = workloads.CLI
    deck = workload.deck(3)
    workload.setup(str(tmp_path))
    result = run.run_requests(workload, deck, NULL, run.HostClock(), count=len(workload.kinds))
    assert (result.failed, result.wrong) == (0, 0), result.errors
    spec = next(s for s in deck if s[0] == "horadam" and s[2][1] == "json")
    record = json.loads(workload.execute(spec, NULL))
    record["result"]["terms"][-1] += "0"  # k/d becomes k/(10d)
    with pytest.raises(Mismatch):
        workload.check(spec, json.dumps(record) + "\n")


def _planted(workload, kind_name, tamper):
    def wrap(kind):
        if kind.name != kind_name:
            return kind

        def run_tampered(tr, *args):
            return tamper(kind.run(tr, *args))

        return dataclasses.replace(kind, run=run_tampered)

    return workloads.Workload(workload.name, tuple(wrap(k) for k in workload.kinds), workload.trace_requests)


def test_planted_wrong_answer_counts_as_failure():
    planted = _planted(workloads.JUMP, "cf", lambda out: ["1/2"])
    count = len(planted.kinds)
    result = run.run_requests(planted, planted.deck(3), NULL, run.HostClock(), count=count)
    assert (result.failed, result.wrong) == (1, 1)
    assert result.ops_per_s == (count - 1) / result.wall


def test_planted_exception_counts_as_failure_but_not_wrong():
    def boom(out):
        raise ValueError("planted")

    planted = _planted(workloads.SURD, "decimal", boom)
    result = run.run_requests(planted, planted.deck(3), NULL, run.HostClock(), count=len(planted.kinds))
    assert (result.failed, result.wrong) == (1, 0)


def test_a_value_past_the_str_limit_is_refused_not_failed():
    fib = (F(0), F(1), F(1), F(-1))
    far = ("fast_int", 30_000, fib + (30_000,))  # F(30000) has 6270 digits
    result = run.Pass()
    run.run_request(workloads.JUMP, far, Tracer(), run.HostClock(), result, 0)
    assert (result.attempted, result.failed, result.refused) == (1, 0, 1), result.errors
    assert result.completed == 0


def test_a_refusal_is_checked_against_the_reference_and_the_limit():
    wrong = F(31) ** 3000  # past the limit, but not F(30000)
    with pytest.raises(Mismatch):
        workloads.JUMP.check(("fast_int", 30_000, (F(0), F(1), F(1), F(-1), 30_000)), [workloads.Refused(wrong)])
    with pytest.raises(Mismatch):  # F(20) = 6765 renders, so refusing it is wrong
        workloads.JUMP.check(("fast_int", 20, (F(0), F(1), F(1), F(-1), 20)), [workloads.Refused(F(6765))])


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    traced = set(Tracer().metrics()) | {"trace_overhead", "fail_ratio", "refused_ratio", "cli.spawn_ms",
                                        "cli.import_ms", "host.calib_ms"}
    assert {m["name"] for m in spec["per_layer"]} == traced
    for metric in spec["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
