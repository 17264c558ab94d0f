"""Self-tests of the harness (``python3 auditbench/run.py --self-test``).

They pin what the reported numbers rest on: the tail-sample rule, self
time under overlapping and concurrent children, and seeded inputs.
Each check raises ``AssertionError`` with a message; the exit code is
the number of failed checks.
"""

from __future__ import annotations

import filecmp
import itertools
import json
import shutil
from collections.abc import Callable

from layers import LAYER_METRICS
from measure import InsufficientSamples, percentile, self_time
from procs import ROOT, WORK_ROOT
from world import build_world, explain_stream, ingest_stream

WORK = WORK_ROOT / "selftest"


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_tail_needs_ten_samples_beyond() -> None:
    values = list(range(1, 200))  # p95 of 199 samples has 9 beyond it
    try:
        percentile(values, 95, tail=True)
    except InsufficientSamples:
        pass
    else:
        raise AssertionError("p95 of 199 samples was reported")
    check(percentile(range(1, 201), 95, tail=True) == 190, "p95 of 1..200 is 190")
    check(percentile(values, 50) == 100, "p50 of 1..199 is 100")


def test_self_time_overlapping_children() -> None:
    # parent [0, 10]; children overlap each other and run past the parent
    children = [(1, 4), (3, 6), (5, 7), (9, 12)]
    check(self_time(0, 10, children) == 10 - (6 + 1), "overlaps count once")


def test_self_time_concurrent_children() -> None:
    # two threads' children cover the same stretch concurrently
    children = [(2, 8), (2, 8), (4, 6)]
    check(self_time(0, 10, children) == 4, "concurrent children count once")
    check(self_time(0, 10, []) == 10, "no children: all self")
    check(self_time(0, 10, [(-5, 20)]) == 0, "a covering child leaves no self time")


def _streams(world, seed: int) -> tuple:
    explains = list(itertools.islice(explain_stream(world, seed, "explain0"), 500))
    ingests = list(itertools.islice(ingest_stream(world, seed), 500))
    return explains, ingests


def test_seeded_inputs() -> None:
    first = build_world(3, WORK / "a")
    again = build_world(3, WORK / "b")
    other = build_world(4, WORK / "c")
    names = sorted(p.name for p in first.directory.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(
        first.directory, again.directory, names, shallow=False
    )
    check(not mismatch and not errors, f"same seed, different files: {mismatch}")
    _, differ, _ = filecmp.cmpfiles(first.directory, other.directory, names, shallow=False)
    check("Log.csv" in differ, "another seed gave the same log")
    check(_streams(first, 3) == _streams(again, 3), "same seed, different streams")
    check(_streams(first, 3) != _streams(other, 4), "another seed gave the same streams")
    check(
        _streams(first, 3)[0] != list(itertools.islice(explain_stream(first, 3, "explain1"), 500)),
        "two connections drew the same lids",
    )


def test_benchmark_json_matches_harness() -> None:
    from workloads import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(
        [w["name"] for w in bench["workloads"]] == list(WORKLOADS),
        "BENCHMARK.json workloads differ from the harness's",
    )
    check(
        [(m["name"], m["unit"]) for m in bench["per_layer"]]
        == [(name, unit) for name, unit, _ in LAYER_METRICS],
        "BENCHMARK.json per_layer differs from layers.LAYER_METRICS",
    )


TESTS: list[Callable[[], None]] = [
    test_tail_needs_ten_samples_beyond,
    test_self_time_overlapping_children,
    test_self_time_concurrent_children,
    test_seeded_inputs,
    test_benchmark_json_matches_harness,
]


def main() -> int:
    failures = 0
    try:
        for test in TESTS:
            try:
                test()
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {test.__name__}: {exc}")
            else:
                print(f"ok   {test.__name__}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        if WORK.parent.is_dir() and not any(WORK.parent.iterdir()):
            WORK.parent.rmdir()
    return failures
