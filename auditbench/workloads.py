"""The four workloads: how each is loaded, measured and checked.

Each workload function returns a :class:`Run`: the end-to-end figures,
the extra figures the report prints, exact counter deltas, what was
attempted and failed, and (traced) the spans of the program.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.client import AuditClient

from load import (
    OP_TIMEOUT_S,
    ExplainStream,
    IngestStream,
    ScanStream,
    Stream,
    Window,
    counter_deltas,
    run_closed_loop,
)
from measure import InsufficientSamples, median, percentile
from hostspeed import Sampler
from procs import MineChild, Process, Server, Stopped, peak_rss_mb
from world import World, explain_stream, ingest_stream, sample_lids

#: Launches per run whose median is ``setup_s``.
SETUP_REPEATS = 3
#: Explains of seeded lids compared against the reference after an
#: ingest-mixed run.
END_SAMPLE_LIDS = 200


@dataclass
class Phase:
    """One measured stretch: the program started, loaded and stopped."""

    #: Set-up of each launch: CPU seconds normalised to the reference
    #: host speed (``setup_s``), as measured, and wall seconds.
    setup_s: list[float] = field(default_factory=list)
    setup_cpu_s: list[float] = field(default_factory=list)
    setup_wall_s: list[float] = field(default_factory=list)
    #: The host's slowdown over the load (:attr:`hostspeed.Sampler.slowdown`).
    slowdown: float = 1.0
    window: Window | None = None
    streams: list[Stream] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    stopped: list[Stopped] = field(default_factory=list)
    #: Headline operations (the ones the workload exists for) completed
    #: successfully in the window, and per second of it (the traced
    #: run's overhead compares the rate across phases).
    headline_ops: int = 0
    throughput: float = 0.0
    spans: list | None = None
    mining: dict | None = None
    #: What ``after_load`` read from the live program after the window.
    final: dict | None = None


@dataclass
class Run:
    """Everything one invocation measured and checked."""

    phases: list[Phase]
    #: Program CPU of the window per headline operation (per sweep on
    #: mine-offline), normalised to the reference host speed, and as
    #: measured.
    cpu_ms_per_op: float
    cpu_ms_per_op_measured: float
    #: ``(name, value or None, unit, note)`` lines for the report.
    figures: list[tuple[str, float | None, str, str]] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        if count:
            self.failed += count
            self.problems.append(problem)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _latencies(stream: Stream) -> list[float]:
    """Milliseconds of the stream's successful operations in the window."""
    return [(op.end - op.start) * 1000.0 for op in stream.window_ops() if op.ok]


def _explain_rps(stream: Stream, window: Window) -> float:
    """Successful explains of ``stream`` in the window per second."""
    return sum(op.ok for op in stream.window_ops()) / (window.end - window.start)


def _tail(values: list[float], q: float) -> float | None:
    try:
        return percentile(values, q, tail=True)
    except InsufficientSamples:
        return None


def _latency_figures(prefix: str, values: list[float]) -> list:
    return [
        (f"{prefix}_p50_ms", median(values), "ms", f"n={len(values)}"),
        (f"{prefix}_p95_ms", _tail(values, 95), "ms", f"n={len(values)}"),
    ]


def _cpu_ms_per_op(phase: Phase) -> tuple[float, float]:
    """The program's CPU over the window per headline operation,
    normalised and as measured: every connection's work is counted, so
    another connection's load shows as contention, but the headline path
    moves the figure in full."""
    measured = phase.window.cpu_s * 1000.0 / phase.headline_ops
    return measured / phase.slowdown, measured


def _account(run: Run, phase: Phase) -> None:
    """Count the phase's operations and transport failures."""
    for stream in phase.streams:
        run.attempted += len(stream.ops)
        errors = [op.error for op in stream.ops if not op.ok]
        if errors:
            run.fail(len(errors), f"{stream.name}: {len(errors)} failed, first: {errors[0]}")
    for stopped in phase.stopped:
        run.attempted += 1
        if stopped.returncode != 0:
            run.fail(1, f"program exited with {stopped.returncode}")


class Reference:
    """The in-process memory-backend service over the same CSV
    directory: the answers every response is compared with."""

    def __init__(self, world: World) -> None:
        from repro.api import AuditService

        self.service = AuditService.open(str(world.directory))
        self._explains: dict[Any, dict] = {}

    def explain(self, lid: Any) -> dict:
        if lid not in self._explains:
            self._explains[lid] = self.service.explain(lid).to_dict()
        return self._explains[lid]


def _check_explains(run: Run, stream: ExplainStream, reference: Reference) -> None:
    wrong = [
        lid for lid, result in stream.results
        if result.to_dict() != reference.explain(lid)
    ]
    run.fail(len(wrong), f"{len(wrong)} explain answers differ from the reference, first lid {wrong[:1]}")


def _launches(
    workdir: Path,
    tag: str,
    setups: int,
    traced: bool,
    launch: Callable[[int, Path | None], Process],
    load: Callable[[Process, Phase], None],
) -> Phase:
    """Launch the program ``setups`` times (all but the last only to
    time set-up), let ``load`` measure the last one, then stop it.

    ``launch(i, spans_path)`` starts launch ``i``; ``spans_path`` is
    where a traced program writes its spans, given to the last launch of
    a traced phase only.  ``load`` sets the phase's peak RSS.  The
    host's speed is probed during each set-up and during the load.
    """
    phase = Phase()
    spans_path = workdir / f"{tag}-spans.json" if traced else None
    for i in range(setups):
        last = i == setups - 1
        with Sampler() as host:
            proc = launch(i, spans_path if last else None)
        phase.setup_s.append(proc.setup_s / host.slowdown)
        phase.setup_cpu_s.append(proc.setup_s)
        phase.setup_wall_s.append(proc.setup_wall_s)
        if not last:
            phase.stopped.append(proc.stop())
    try:
        with Sampler() as host:
            load(proc, phase)
        phase.slowdown = host.slowdown
    finally:
        phase.stopped.append(proc.stop())
    if spans_path is not None:
        phase.spans = json.loads(spans_path.read_text())
    return phase


def _serve_phase(
    world: World,
    workdir: Path,
    tag: str,
    streams: list[Stream],
    headline: list[Stream],
    seconds: float,
    setups: int,
    extra: tuple[str, ...] = (),
    sqlite_file: Path | None = None,
    traced: bool = False,
    after_load: Callable[[int], dict] | None = None,
) -> Phase:
    """Serve the world, load the last launch with ``streams`` and let
    ``after_load`` read its final state.  ``headline`` are the streams
    whose operations the workload exists for."""

    def launch(i: int, spans_path: Path | None) -> Server:
        if sqlite_file is not None:
            for suffix in ("", "-journal", "-wal", "-shm"):
                Path(f"{sqlite_file}{suffix}").unlink(missing_ok=True)
        return Server(
            world.directory, workdir, workdir / f"{tag}-server{i}.log", extra, spans_path
        )

    def load(server: Server, phase: Phase) -> None:
        phase.streams = streams
        phase.window = window = run_closed_loop(server.port, server.pid, streams, seconds)
        phase.headline_ops = sum(op.ok for s in headline for op in s.window_ops())
        phase.throughput = phase.headline_ops / (window.end - window.start)
        if after_load is not None:
            phase.final = after_load(server.port)
        phase.peak_rss_mb = peak_rss_mb(server.pid)

    return _launches(workdir, tag, setups, traced, launch, load)


def _phases(
    trace: bool, make: Callable[[str, int, bool], Phase]
) -> list[Phase]:
    """Untraced: one phase with repeated set-up.  Traced: an untraced
    phase (for the tracing overhead), then the traced one."""
    if not trace:
        return [make("run", SETUP_REPEATS, False)]
    return [make("untraced", 1, False), make("traced", 1, True)]


def _finish(run: Run, phases: list[Phase]) -> None:
    for phase in phases:
        _account(run, phase)
    last = phases[-1]
    if last.window is not None:
        run.counts = counter_deltas(last.window)


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------
def explain_serve(world: World, seed: int, seconds: float, trace: bool, workdir: Path) -> Run:
    """Memory backend; two connections of point explains."""

    def make(tag: str, setups: int, traced: bool) -> Phase:
        streams = [
            ExplainStream(explain_stream(world, seed, f"explain{i}")) for i in range(2)
        ]
        return _serve_phase(
            world, workdir, tag, streams, streams, seconds, setups, traced=traced
        )

    phases = _phases(trace, make)
    last = phases[-1]
    latencies = [v for s in last.streams for v in _latencies(s)]
    run = Run(phases, *_cpu_ms_per_op(last))
    _finish(run, phases)
    explains = sum(len(s.window_ops()) for s in last.streams)
    run.figures = [
        ("explain_rps", last.throughput, "explains/s", f"{explains} in window"),
        *_latency_figures("explain", latencies),
        ("queries_per_explain", run.counts["queries_executed"] / explains, "queries", "from /v1/stats"),
    ]
    reference = Reference(world)
    for phase in phases:
        for stream in phase.streams:
            _check_explains(run, stream, reference)
    return run


def ingest_mixed(world: World, seed: int, seconds: float, trace: bool, workdir: Path) -> Run:
    """Memory backend; one connection ingests dated accesses while the
    other explains."""

    def make(tag: str, setups: int, traced: bool) -> Phase:
        ingest = IngestStream(ingest_stream(world, seed))
        explain = ExplainStream(explain_stream(world, seed, "explain0"))

        def final_state(port: int) -> dict:
            ingested = [r.lid for r in ingest.results if r is not None]
            lids = sample_lids([*world.lids, *ingested], seed, END_SAMPLE_LIDS)
            with AuditClient("127.0.0.1", port, timeout=OP_TIMEOUT_S) as client:
                return {
                    "report": client.report().to_dict(),
                    "explains": [(lid, client.explain(lid).to_dict()) for lid in lids],
                }

        return _serve_phase(
            world, workdir, tag, [ingest, explain], [ingest], seconds, setups,
            traced=traced, after_load=final_state,
        )

    phases = _phases(trace, make)
    last = phases[-1]
    ingest, explain = last.streams
    ingest_lat, explain_lat = _latencies(ingest), _latencies(explain)
    run = Run(phases, *_cpu_ms_per_op(last))
    _finish(run, phases)
    alerted = [r.alerted for r in ingest.results if r is not None]
    run.figures = [
        ("ingest_aps", last.throughput, "accesses/s", f"{len(ingest.window_ops())} in window"),
        *_latency_figures("ingest", ingest_lat),
        ("explain_rps", _explain_rps(explain, last.window), "explains/s", f"{len(explain.window_ops())} in window"),
        *_latency_figures("explain", explain_lat),
        ("alert_share", sum(alerted) / len(alerted), "share", f"of {len(alerted)} ingests"),
    ]
    for phase in phases:
        _check_ingest_phase(run, world, phase)
    return run


def _check_ingest_phase(run: Run, world: World, phase: Phase) -> None:
    """Every ingest verdict, the final report, and explains of a seeded
    sample must match a reference fed the same dated sequence."""
    from repro.api import AuditService

    ingest = phase.streams[0]
    reference = AuditService.open(str(world.directory))
    wrong = 0
    for access, result in zip(ingest.sent, ingest.results):
        expected = reference.ingest(*access).to_dict()
        if result is not None and result.to_dict() != expected:
            wrong += 1
    run.fail(wrong, f"{wrong} ingest results differ from the reference")
    final = phase.final
    run.attempted += 1 + len(final["explains"])
    if final["report"] != reference.report().to_dict():
        run.fail(1, "final /v1/report differs from the reference")
    bad = [lid for lid, got in final["explains"] if got != reference.explain(lid).to_dict()]
    run.fail(len(bad), f"{len(bad)} end-of-run explains differ, first lid {bad[:1]}")
    reference.close()


def audit_sqlite(world: World, seed: int, seconds: float, trace: bool, workdir: Path) -> Run:
    """SQLite backend; one connection walks the resumable scan while
    the other explains."""
    sqlite_file = workdir / "audit.db"
    extra = ("--backend", "sqlite", "--db-path", str(sqlite_file))

    def make(tag: str, setups: int, traced: bool) -> Phase:
        scan = ScanStream()
        explain = ExplainStream(explain_stream(world, seed, "explain0"))
        return _serve_phase(
            world, workdir, tag, [scan, explain], [explain], seconds, setups,
            extra=extra, sqlite_file=sqlite_file, traced=traced,
        )

    phases = _phases(trace, make)
    last = phases[-1]
    scan, explain = last.streams
    explain_lat = _latencies(explain)
    run = Run(phases, *_cpu_ms_per_op(last))
    _finish(run, phases)
    walks = [w for w in scan.walks if w.start >= last.window.start]
    scan_rate = (
        sum(w.rows for w in walks) / sum(w.end - w.start for w in walks)
        if walks else None
    )
    run.figures = [
        ("explain_rps", last.throughput, "explains/s", f"{len(explain.window_ops())} in window"),
        *_latency_figures("explain", explain_lat),
        ("scan_rows_per_s", scan_rate, "rows/s", f"{len(walks)} walks, {len(scan.window_ops())} slices in window"),
        ("queries_per_explain", run.counts["queries_executed"] / len(explain.window_ops()), "queries", "from /v1/stats; scan slices read cached sets"),
    ]
    if not walks:
        run.fail(1, "no scan walk completed in the window")
    reference = Reference(world)
    partition = reference.service.explain_all()
    for phase in phases:
        scan, explain = phase.streams
        _check_explains(run, explain, reference)
        bad = [
            w for w in scan.walks
            if w.explained != partition.explained or w.unexplained != partition.unexplained
        ]
        run.fail(len(bad), f"{len(bad)} scan walks differ from explain_all's partition")
    return run


def mine_offline(world: World, seed: int, seconds: float, trace: bool, workdir: Path) -> Run:
    """A child process opens the memory service once and repeats mining
    sweeps (one-way, two-way, bridge) over the same world."""

    def make(tag: str, setups: int, traced: bool) -> Phase:
        def launch(i: int, spans_path: Path | None) -> MineChild:
            return MineChild(
                world.directory, workdir, workdir / f"{tag}-mine{i}.log", seconds, spans_path
            )

        def load(child: MineChild, phase: Phase) -> None:
            phase.mining = child.run()
            phase.peak_rss_mb = phase.mining["peak_rss_mb"]
            sweeps = phase.mining["sweeps"]
            phase.headline_ops = len(sweeps)
            phase.throughput = len(sweeps) / sum(s["end"] - s["start"] for s in sweeps)

        return _launches(workdir, tag, setups, traced, launch, load)

    phases = _phases(trace, make)
    last = phases[-1]
    sweeps = last.mining["sweeps"]
    sweep_s = [s["end"] - s["start"] for s in sweeps]
    cpu_ms = sum(s["cpu_s"] for s in sweeps) * 1000.0 / len(sweeps)
    run = Run(phases, cpu_ms / last.slowdown, cpu_ms)
    _finish(run, phases)
    run.counts = dict(last.mining["counters"])
    run.figures = [
        ("mine_s", median(sweep_s), "s", f"median of {len(sweep_s)} sweeps"),
        ("sweeps_per_s", last.throughput, "sweeps/s", "over the time spent sweeping"),
    ]
    for phase in phases:
        sweeps = phase.mining["sweeps"]
        run.attempted += len(sweeps)
        first = [a["digest"] for a in sweeps[0]["algorithms"]]
        differ = sum(1 for s in sweeps if [a["digest"] for a in s["algorithms"]] != first)
        run.fail(differ, f"{differ} sweeps mined different templates or supports")
    return run


WORKLOADS: dict[str, Callable[..., Run]] = {
    "explain-serve": explain_serve,
    "ingest-mixed": ingest_mixed,
    "audit-sqlite": audit_sqlite,
    "mine-offline": mine_offline,
}
