"""Per-layer metrics of a traced run.

Spans come from the traced program (see :mod:`tracing`); a span is
``[id, parent, request id, name, start, end, attr]``.  Steady-state
metrics use only the spans inside the measured window; start-up
metrics (CSV load, SQLite open, warm) use the first such span.  A
layer the workload never enters reads 0.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from measure import mean, self_time

#: ``(name, unit, what it feeds)`` of every per-layer metric, in the
#: order reported.  "Feeds" names the end-to-end figure the layer's
#: time or count should move.
LAYER_METRICS: list[tuple[str, str, str]] = [
    ("server.http.parse_ms", "ms", "explain_p50_ms, explain_rps"),
    ("server.http.encode_ms", "ms", "explain_p50_ms, explain_rps"),
    ("server.http.resp_bytes", "bytes", "explain_p50_ms, explain_rps"),
    ("server.app.dispatch_self_ms", "ms", "explain_p95_ms"),
    ("server.app.pool_wait_ms", "ms", "explain_p95_ms"),
    ("client.wire_ms", "ms", "explain_p50_ms"),
    ("api.locks.read_wait_ms", "ms", "explain_p95_ms"),
    ("api.locks.write_wait_ms", "ms", "ingest_p95_ms"),
    ("api.locks.write_hold_ms", "ms", "explain_p95_ms, ingest_p95_ms"),
    ("api.service.explain_ms", "ms", "explain_p50_ms"),
    ("api.service.ingest_ms", "ms", "ingest_p50_ms"),
    ("api.service.scan_ms", "ms", "scan_rows_per_s"),
    ("core.template.instance_query_ms", "ms", "explain_rps"),
    ("core.engine.explain_self_ms", "ms", "explain_rps"),
    ("core.engine.queries_per_explained", "queries", "queries_per_explain"),
    ("core.engine.queries_per_unexplained", "queries", "queries_per_explain"),
    ("core.engine.notify_appended_ms", "ms", "ingest_p50_ms"),
    ("core.engine.warm_s", "s", "setup_s"),
    ("db.executor.execute_ms", "ms", "explain_rps, ingest_aps"),
    ("db.executor.calls_per_op", "calls", "explain_rps, ingest_aps"),
    ("db.executor.rows_per_call", "rows", "explain_rps, ingest_aps"),
    ("db.executor.plan_cache_hit_ratio", "ratio", "explain_rps"),
    ("db.optimizer.build_plan_calls", "calls/op", "explain_rps"),
    ("db.table.insert_ms", "ms", "ingest_p50_ms"),
    ("db.csvio.load_s", "s", "setup_s"),
    ("audit.streaming.ingest_self_ms", "ms", "ingest_p50_ms"),
    ("audit.streaming.alert_share", "ratio", "ingest_p50_ms"),
    ("db.sqlbackend.compile_ms", "ms", "explain_p50_ms"),
    ("db.sqlbackend.open_s", "s", "setup_s"),
    ("db.drivers.sqlite.execute_ms", "ms", "explain_p50_ms, scan_rows_per_s"),
    ("db.drivers.sqlite.stmts_per_op", "stmts", "explain_p50_ms"),
    ("db.drivers.sqlite.rows_per_stmt", "rows", "explain_p50_ms"),
    ("core.scan.slice_ms", "ms", "scan_rows_per_s"),
    ("core.scan.rows_per_slice", "rows", "scan_rows_per_s"),
    ("core.mining.round_s.L1", "s", "mine_s"),
    ("core.mining.round_s.L2", "s", "mine_s"),
    ("core.mining.round_s.L3", "s", "mine_s"),
    ("core.mining.round_s.L4", "s", "mine_s"),
    ("core.mining.supported_ratio", "ratio", "mine_s"),
    ("core.support.queries_run", "queries", "mine_s"),
    ("core.support.query_s", "s", "mine_s"),
    ("core.support.skipped", "count", "mine_s"),
    ("stats.queries_per_op", "queries", "queries_per_explain"),
    ("stats.plan_cache_misses", "count", "explain_rps"),
    ("stats.lock_reads_per_op", "count", "explain_p95_ms"),
    ("stats.lock_writes_per_op", "count", "ingest_p95_ms"),
    ("trace.overhead_ratio", "ratio", "explain_rps (the cost of tracing)"),
]

#: Service-level operations of the serving workloads; "per op" metrics
#: divide by their count (by the sweep count on mine-offline).
OP_SPANS = ("api.service.explain", "api.service.ingest", "api.service.scan")
QUERY_SPANS = ("db.executor.query", "db.sqlbackend.query")


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    rid: int | None
    name: str
    start: float
    end: float
    attr: float | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanIndex:
    """Spans by name and by parent, cut to a window."""

    def __init__(self, raw: list, start: float, end: float) -> None:
        spans = [Span(*row) for row in raw]
        self.children: dict[int, list[Span]] = defaultdict(list)
        self.first: dict[str, Span] = {}
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        for span in spans:
            if span.parent is not None:
                self.children[span.parent].append(span)
            self.first.setdefault(span.name, span)
            if span.start >= start and span.end <= end:
                self.by_name[span.name].append(span)

    def named(self, name: str) -> list[Span]:
        return self.by_name.get(name, [])

    def mean_ms(self, name: str) -> float:
        return mean([s.seconds for s in self.named(name)]) * 1000.0

    def mean_self_ms(self, name: str) -> float:
        return mean(
            [
                self_time(s.start, s.end, [(c.start, c.end) for c in self.children[s.sid]])
                for s in self.named(name)
            ]
        ) * 1000.0

    def mean_attr(self, name: str) -> float:
        return mean([s.attr for s in self.named(name) if s.attr is not None])

    def count(self, *names: str) -> int:
        return sum(len(self.named(n)) for n in names)

    def startup_s(self, name: str) -> float:
        span = self.first.get(name)
        return span.seconds if span is not None else 0.0

    def queries_under(self, span: Span) -> int:
        return sum(1 for c in self.children[span.sid] if c.name in QUERY_SPANS)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: list,
    window: tuple[float, float],
    *,
    ops: int,
    client_ms: list[float],
    counts: dict,
    alert_share: float,
    mining: dict | None,
    overhead_ratio: float,
) -> dict[str, float]:
    """Every metric of :data:`LAYER_METRICS` from one traced phase.

    ``ops`` is the number of service operations of the window (sweeps
    on mine-offline), ``client_ms`` the client round trips of the
    window, ``counts`` the exact ``/v1/stats`` deltas.
    """
    index = SpanIndex(spans, *window)
    service_ops = index.count(*OP_SPANS) or ops
    explains = index.named("core.engine.explain")
    explained = [index.queries_under(s) for s in explains if s.attr]
    unexplained = [index.queries_under(s) for s in explains if s.attr == 0]
    dispatch = index.named("server.app.dispatch")
    hits, misses = counts.get("plan_cache_hits", 0), counts.get("plan_cache_misses", 0)
    out = {
        "server.http.parse_ms": index.mean_ms("server.http.parse"),
        "server.http.encode_ms": index.mean_ms("server.http.encode"),
        "server.http.resp_bytes": index.mean_attr("server.http.encode"),
        "server.app.dispatch_self_ms": index.mean_self_ms("server.app.dispatch"),
        "server.app.pool_wait_ms": index.mean_ms("server.app.pool_wait"),
        "client.wire_ms": (
            mean(client_ms) - mean([s.seconds for s in dispatch]) * 1000.0
            if dispatch else 0.0
        ),
        "api.locks.read_wait_ms": index.mean_ms("api.locks.read_wait"),
        "api.locks.write_wait_ms": index.mean_ms("api.locks.write_wait"),
        "api.locks.write_hold_ms": index.mean_ms("api.locks.write_hold"),
        "api.service.explain_ms": index.mean_ms("api.service.explain"),
        "api.service.ingest_ms": index.mean_ms("api.service.ingest"),
        "api.service.scan_ms": index.mean_ms("api.service.scan"),
        "core.template.instance_query_ms": _ratio(
            sum(s.seconds for s in index.named("core.template.instance_query")) * 1000.0,
            len(explains),
        ),
        "core.engine.explain_self_ms": index.mean_self_ms("core.engine.explain"),
        "core.engine.queries_per_explained": mean(explained),
        "core.engine.queries_per_unexplained": mean(unexplained),
        "core.engine.notify_appended_ms": index.mean_ms("core.engine.notify_appended"),
        "core.engine.warm_s": index.startup_s("api.service.warm"),
        "db.executor.execute_ms": index.mean_ms("db.executor.query"),
        "db.executor.calls_per_op": _ratio(index.count("db.executor.query"), service_ops),
        "db.executor.rows_per_call": index.mean_attr("db.executor.query"),
        "db.executor.plan_cache_hit_ratio": _ratio(hits, hits + misses),
        "db.optimizer.build_plan_calls": _ratio(index.count("db.optimizer.build_plan"), service_ops),
        "db.table.insert_ms": index.mean_ms("db.table.insert"),
        "db.csvio.load_s": index.startup_s("db.csvio.load"),
        "audit.streaming.ingest_self_ms": index.mean_self_ms("audit.streaming.ingest"),
        "audit.streaming.alert_share": alert_share,
        "db.sqlbackend.compile_ms": _ratio(
            sum(s.seconds for s in index.named("db.sqlbackend.compile")) * 1000.0,
            service_ops,
        ),
        "db.sqlbackend.open_s": index.startup_s("db.sqlbackend.open"),
        "db.drivers.sqlite.execute_ms": index.mean_ms("db.drivers.sqlite.execute"),
        "db.drivers.sqlite.stmts_per_op": _ratio(
            index.count("db.drivers.sqlite.execute"), service_ops
        ),
        "db.drivers.sqlite.rows_per_stmt": index.mean_attr("db.drivers.sqlite.execute"),
        "core.scan.slice_ms": index.mean_ms("core.scan.slice"),
        "core.scan.rows_per_slice": index.mean_attr("core.scan.slice"),
        "stats.queries_per_op": _ratio(counts.get("queries_executed", 0), ops),
        "stats.plan_cache_misses": float(misses),
        "stats.lock_reads_per_op": _ratio(counts.get("read_acquisitions", 0), ops),
        "stats.lock_writes_per_op": _ratio(counts.get("write_acquisitions", 0), ops),
        "trace.overhead_ratio": overhead_ratio,
    }
    out.update(mining_metrics(mining))
    return out


def mining_metrics(mining: dict | None) -> dict[str, float]:
    """Round times and support counts per sweep, read from each
    ``MineResult.raw.rounds`` and ``support_stats`` of the child."""
    names = [n for n, _, _ in LAYER_METRICS if n.startswith(("core.mining.", "core.support."))]
    if not mining or not mining["sweeps"]:
        return dict.fromkeys(names, 0.0)
    sweeps = mining["sweeps"]
    round_s: dict[int, float] = defaultdict(float)
    candidates = supported = 0
    queries = query_s = skipped = 0.0
    for sweep in sweeps:
        for algorithm in sweep["algorithms"]:
            for length, cand, supp, seconds in algorithm["rounds"]:
                round_s[length] += seconds
                candidates += cand
                supported += supp
            queries += algorithm["support"]["queries_run"]
            query_s += algorithm["support"]["query_time"]
            skipped += algorithm["support"]["skipped"]
    n = len(sweeps)
    out = {f"core.mining.round_s.L{k}": round_s.get(k, 0.0) / n for k in (1, 2, 3, 4)}
    out["core.mining.supported_ratio"] = _ratio(supported, candidates)
    out["core.support.queries_run"] = queries / n
    out["core.support.query_s"] = query_s / n
    out["core.support.skipped"] = skipped / n
    return out
