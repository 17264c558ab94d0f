"""In-memory span tracing around the public calls into each layer.

The program is not edited: :func:`install` replaces functions and
methods of the imported ``repro`` modules with wrappers that record a
span per call.  A span is ``(id, parent id, request id, name, start,
end, attr)``; ``attr`` is one number the layer's metric needs (rows
returned, bytes encoded, whether an explain found an explanation).

The parent and the request id travel in a context variable.  asyncio
tasks carry it across ``await``; the thread-pool hop of
``AuditAPI._call`` does not, so that method is replaced by an
equivalent that runs the call inside a copy of the caller's context
(and records how long the call waited for a pool thread).

Spans stay in memory and are written out once, when the process
exits (:meth:`Tracer.dump`).  Timestamps are ``time.perf_counter()``,
which on Linux is the system-wide monotonic clock, so the benchmark
process can cut them to its own measurement window.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import inspect
import itertools
import json
import time
from collections.abc import Callable
from typing import Any

#: ``(span id, request id)`` of the innermost open span, or None.
_current: contextvars.ContextVar[tuple[int | None, int | None] | None] = (
    contextvars.ContextVar("auditbench_span", default=None)
)


class Tracer:
    """Collects spans in memory; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)

    def _enter(self) -> tuple[int, int | None, int | None, contextvars.Token]:
        current = _current.get()
        parent, rid = current if current is not None else (None, None)
        sid = next(self._span_ids)
        return sid, parent, rid, _current.set((sid, rid))

    def record(
        self,
        sid: int | None,
        parent: int | None,
        rid: int | None,
        name: str,
        start: float,
        end: float,
        attr: Any = None,
    ) -> None:
        if sid is None:
            sid = next(self._span_ids)
        self.spans.append((sid, parent, rid, name, start, end, attr))

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        measure: Callable[[Any], Any] | None = None,
    ) -> None:
        """Replace ``owner.attr`` (a function or method, sync or async)
        with a wrapper recording one ``name`` span per call; ``measure``
        maps the return value to the span's attr."""
        original = getattr(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                sid, parent, rid, token = tracer._enter()
                start = time.perf_counter()
                result = None
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    end = time.perf_counter()
                    _current.reset(token)
                    tracer.record(
                        sid, parent, rid, name, start, end,
                        measure(result) if measure and result is not None else None,
                    )

            setattr(owner, attr, traced_async)
            return

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            sid, parent, rid, token = tracer._enter()
            start = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                _current.reset(token)
                tracer.record(
                    sid, parent, rid, name, start, end,
                    measure(result) if measure and result is not None else None,
                )

        setattr(owner, attr, traced)

    def dump(self, path: str) -> None:
        """Write every span as JSON (called once, at process exit)."""
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


class _FirstLineTimer:
    """Stream-reader proxy noting when a request's first line arrived,
    so parse time excludes the idle wait for the client's next request
    on a keep-alive connection."""

    def __init__(self, reader: Any) -> None:
        self._reader = reader
        self.first_at: float | None = None

    async def readline(self) -> bytes:
        line = await self._reader.readline()
        if self.first_at is None:
            self.first_at = time.perf_counter()
        return line

    def __getattr__(self, name: str) -> Any:
        return getattr(self._reader, name)


def _rows(result: Any) -> int:
    if isinstance(result, int):
        return 1
    return len(result)


def install_engine(tracer: Tracer) -> None:
    """Spans for the layers below the service facade; used by the traced
    server and by the traced mining child alike."""
    import repro.api.service as service_mod
    import repro.db.executor as executor_mod
    from repro.api.locks import RWLock
    from repro.api.service import AuditService
    from repro.audit.streaming import AccessMonitor
    from repro.core.engine import ExplanationEngine
    from repro.core.scan import LogScanner
    from repro.core.template import ExplanationTemplate
    from repro.db.drivers.sqlite import SqliteDriver
    from repro.db.executor import Executor
    from repro.db.sqlbackend import SqlExecutor
    from repro.db.table import Table

    for op in ("explain", "ingest", "scan", "mine"):
        tracer.wrap(AuditService, op, f"api.service.{op}")
    tracer.wrap(AuditService, "_warm", "api.service.warm")
    tracer.wrap(service_mod, "load_database", "db.csvio.load")
    tracer.wrap(service_mod, "open_sql_database", "db.sqlbackend.open")

    tracer.wrap(RWLock, "acquire_read", "api.locks.read_wait")
    tracer.wrap(RWLock, "acquire_write", "api.locks.write_wait")
    acquire_write, release_write = RWLock.acquire_write, RWLock.release_write

    def held_acquire(lock: RWLock) -> None:
        acquire_write(lock)
        lock._auditbench_held_at = time.perf_counter()  # type: ignore[attr-defined]

    def held_release(lock: RWLock) -> None:
        held_at = getattr(lock, "_auditbench_held_at", None)
        release_write(lock)
        if held_at is not None:
            current = _current.get()
            parent, rid = current if current is not None else (None, None)
            tracer.record(
                None, parent, rid, "api.locks.write_hold", held_at,
                time.perf_counter(),
            )

    RWLock.acquire_write = held_acquire  # type: ignore[method-assign]
    RWLock.release_write = held_release  # type: ignore[method-assign]

    tracer.wrap(
        ExplanationEngine, "explain", "core.engine.explain", lambda r: int(bool(r))
    )
    tracer.wrap(
        ExplanationEngine, "notify_appended_many", "core.engine.notify_appended"
    )
    tracer.wrap(ExplanationTemplate, "instance_query", "core.template.instance_query")
    tracer.wrap(AccessMonitor, "ingest_prepared", "audit.streaming.ingest")
    tracer.wrap(LogScanner, "slice", "core.scan.slice", lambda r: len(r.rows))
    tracer.wrap(Table, "insert_many", "db.table.insert")

    for method in ("execute", "count_distinct", "distinct_values", "distinct_values_in"):
        tracer.wrap(Executor, method, "db.executor.query", _rows)
        tracer.wrap(SqlExecutor, method, "db.sqlbackend.query", _rows)
    tracer.wrap(executor_mod, "build_plan", "db.optimizer.build_plan")
    tracer.wrap(SqlExecutor, "_compiled", "db.sqlbackend.compile")
    tracer.wrap(SqliteDriver, "execute", "db.drivers.sqlite.execute", _rows)


def install_server(tracer: Tracer) -> None:
    """Spans for the wire layers of ``repro-audit serve`` plus
    :func:`install_engine`."""
    import repro.cli as cli_mod
    import repro.server.app as app_mod
    from repro.server.app import AuditAPI, AuditServer

    install_engine(tracer)
    tracer.wrap(cli_mod, "load_database", "db.csvio.load")
    tracer.wrap(AuditServer, "_dispatch", "server.app.dispatch")
    tracer.wrap(app_mod, "dump_json", "server.http.encode", len)

    read_request = app_mod.read_request

    async def traced_read_request(reader: Any, writer: Any = None) -> Any:
        timer = _FirstLineTimer(reader)
        request = await read_request(timer, writer)
        if request is None or timer.first_at is None:
            return request
        rid = next(tracer._request_ids)
        # Set in the connection task's own context: the dispatch that
        # follows on this connection inherits the request id.
        _current.set((None, rid))
        tracer.record(
            None, None, rid, "server.http.parse", timer.first_at,
            time.perf_counter(),
        )
        return request

    app_mod.read_request = traced_read_request  # type: ignore[assignment]

    async def traced_call(api: AuditAPI, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        sid, parent, rid, token = tracer._enter()
        submitted = time.perf_counter()
        context = contextvars.copy_context()

        def run() -> Any:
            tracer.record(
                None, sid, rid, "server.app.pool_wait", submitted,
                time.perf_counter(),
            )
            return context.run(functools.partial(fn, *args, **kwargs))

        try:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(api._executor, run)
        finally:
            _current.reset(token)
            tracer.record(
                sid, parent, rid, "server.app.call", submitted, time.perf_counter()
            )

    AuditAPI._call = traced_call  # type: ignore[method-assign]
