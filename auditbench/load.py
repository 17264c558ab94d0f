"""Closed-loop load: one thread per keep-alive connection, each sending
its next request only after the previous reply arrived.

Every operation carries the client's socket timeout.  An operation that
raises (a non-2xx status arrives as a typed error, a timeout as an
``OSError``) is recorded as failed and its connection re-dialled;
wrong answers are found later, by the workload's correctness checks.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.client import AuditClient

from measure import stats_counters
from procs import cpu_seconds

#: Client timeout of every operation, in seconds.
OP_TIMEOUT_S = 30.0
#: Operations each connection sends before the measured window opens
#: (TCP set-up, compiled plans, first-touch caches).
WARMUP_OPS = 20


@dataclass
class Op:
    """One operation as the client saw it."""

    start: float
    end: float
    ok: bool
    measured: bool
    error: str | None = None


class Stream:
    """The requests of one connection.  ``step`` sends one request and
    returns its typed result; ``keep`` files the result for the checks
    (outside the op's timing)."""

    name = "stream"

    def __init__(self) -> None:
        self.ops: list[Op] = []

    def step(self, client: AuditClient) -> Any:
        raise NotImplementedError

    def keep(self, result: Any) -> None:
        pass

    def failed(self) -> None:
        """Called after a failed op, before the next one."""

    def window_ops(self) -> list[Op]:
        return [op for op in self.ops if op.measured]


class ExplainStream(Stream):
    """``POST /v1/explain`` for each lid of a seeded stream."""

    name = "explain"

    def __init__(self, lids: Any) -> None:
        super().__init__()
        self._lids = lids
        self._lid: Any = None
        #: ``(lid, ExplainResult)`` for every successful explain.
        self.results: list[tuple[Any, Any]] = []

    def step(self, client: AuditClient) -> Any:
        self._lid = next(self._lids)
        return client.explain(self._lid)

    def keep(self, result: Any) -> None:
        self.results.append((self._lid, result))


class IngestStream(Stream):
    """``POST /v1/ingest`` of one dated access at a time."""

    name = "ingest"

    def __init__(self, accesses: Any) -> None:
        super().__init__()
        self._accesses = accesses
        #: Every access sent, in order, and its result (None if failed).
        self.sent: list[tuple[Any, Any, Any]] = []
        self.results: list[Any] = []

    def step(self, client: AuditClient) -> Any:
        access = next(self._accesses)
        self.sent.append(access)
        self.results.append(None)
        return client.ingest(*access)

    def keep(self, result: Any) -> None:
        self.results[-1] = result


@dataclass
class Walk:
    """One completed walk of the resumable scan."""

    start: float
    end: float
    rows: int
    explained: frozenset
    unexplained: frozenset


class ScanStream(Stream):
    """Walks ``/v1/scan`` from the head of the log until ``done``, over
    and over; each request is one slice."""

    name = "scan"

    def __init__(self) -> None:
        super().__init__()
        self.walks: list[Walk] = []
        self._cursor: str | None = None
        self._begin_walk()

    def _begin_walk(self) -> None:
        self._cursor = None
        self._walk_start: float | None = None
        self._rows = 0
        self._explained: set = set()
        self._unexplained: set = set()

    def step(self, client: AuditClient) -> Any:
        if self._walk_start is None:
            self._walk_start = time.perf_counter()
        return client.scan_page(self._cursor)

    def keep(self, result: Any) -> None:
        page, cursor = result
        self._rows += page.rows
        self._explained.update(page.explained)
        self._unexplained.update(view.lid for view in page.unexplained)
        if cursor is not None:
            self._cursor = cursor
            return
        self.walks.append(
            Walk(
                self._walk_start,
                time.perf_counter(),
                self._rows,
                frozenset(self._explained),
                frozenset(self._unexplained),
            )
        )
        self._begin_walk()

    def failed(self) -> None:
        self._begin_walk()


@dataclass
class Window:
    """The measured interval of one closed-loop run."""

    start: float = 0.0
    deadline: float = 0.0
    end: float = 0.0
    #: CPU seconds the program's process used in the window.
    cpu_s: float = 0.0
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)


def _client(port: int) -> AuditClient:
    return AuditClient("127.0.0.1", port, timeout=OP_TIMEOUT_S)


def _attempt(stream: Stream, client: AuditClient, port: int, measured: bool) -> AuditClient:
    start = time.perf_counter()
    try:
        result = stream.step(client)
    except Exception as exc:  # noqa: BLE001 - every failure is counted, none stops the load
        end = time.perf_counter()
        stream.ops.append(Op(start, end, False, measured, f"{type(exc).__name__}: {exc}"))
        stream.failed()
        client.close()
        return _client(port)
    end = time.perf_counter()
    stream.ops.append(Op(start, end, True, measured))
    stream.keep(result)
    return client


def stats_snapshot(port: int) -> dict:
    """The service counters of ``/v1/stats`` the benchmark reads."""
    with _client(port) as client:
        return stats_counters(client.stats())


def run_closed_loop(
    port: int, pid: int, streams: list[Stream], seconds: float
) -> Window:
    """Warm every connection, then run all of them for ``seconds``.

    ``/v1/stats`` and the CPU time of process ``pid`` are read when
    every connection has finished warming and again after the last one
    stopped, so the deltas cover the measured window exactly (plus the
    closing stats call's own read lock, which :func:`counter_deltas`
    removes).
    """
    window = Window()
    cpu_before = 0.0

    def open_window() -> None:
        nonlocal cpu_before
        window.stats_before = stats_snapshot(port)
        cpu_before = cpu_seconds(pid)
        window.start = time.perf_counter()
        window.deadline = window.start + seconds

    barrier = threading.Barrier(len(streams), action=open_window)
    errors: list[BaseException] = []

    def drive(stream: Stream) -> None:
        client = _client(port)
        try:
            for _ in range(WARMUP_OPS):
                client = _attempt(stream, client, port, measured=False)
            barrier.wait()
            while time.perf_counter() < window.deadline:
                client = _attempt(stream, client, port, measured=True)
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)
            barrier.abort()
        finally:
            client.close()

    threads = [
        threading.Thread(target=drive, args=(s,), name=f"load-{s.name}")
        for s in streams
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    window.end = max(op.end for s in streams for op in s.window_ops())
    window.cpu_s = cpu_seconds(pid) - cpu_before
    window.stats_after = stats_snapshot(port)
    return window


def counter_deltas(window: Window) -> dict:
    """Counter growth over the window (exact counts)."""
    deltas = {
        key: window.stats_after[key] - window.stats_before[key]
        for key in window.stats_before
    }
    # the closing /v1/stats call took one read lock of its own
    deltas["read_acquisitions"] -= 1
    return deltas
