"""Differential suite: the sharded service must be indistinguishable
from the single-node service.

For every shard count in {1, 2, 7} and both executor kinds
("thread", "process"), `ShardedAuditService` must return results
byte-identical (via ``to_dict()`` / set equality) to ``AuditService``
over the same database — for explain_all, coverage, reports, per-access
explanation, mining support — and stay identical after incremental
``ingest_many``/``ingest`` with parent-assigned global log ids.

Per-access explanation is checked on every log id plus foreign-typed
ids, against the single-node service and against a cold engine (whose
point path runs every template): the warm caches let a shard answer
from its explained sets, and only the owning shard issues queries.

The SQLite storage backend rides the same treatment: at shards {1, 2}
(``open_service`` builds the single-node service at 1) every read and
ingest surface must match the in-memory reference byte-identically.
"""

import datetime as dt

import pytest

from repro.api import (
    AuditConfig,
    AuditService,
    ShardedAuditService,
    UnsupportedOperationError,
    open_service,
)
from repro.api.messages import ExplainResult, ExplanationView
from repro.core import ExplanationEngine
from repro.ehr import SimulationConfig, simulate

SHARD_COUNTS = (1, 2, 7)
EXECUTOR_KINDS = ("thread", "process")


def _fresh_db():
    return simulate(SimulationConfig.tiny(seed=7)).db


_CLOCK_START = dt.datetime(2026, 7, 1)


def _ticking_clock(start=_CLOCK_START):
    state = {"n": 0}

    def clock():
        state["n"] += 1
        return start + dt.timedelta(minutes=state["n"])

    return clock


def _sample_patients(db, k=3):
    log = db.table("Log")
    patient_i = log.schema.column_index("Patient")
    seen = []
    for row in log.rows():
        if row[patient_i] not in seen:
            seen.append(row[patient_i])
        if len(seen) >= k:
            break
    return seen


#: Ids no shard holds, or holds only under Python equality (``5.0`` and
#: ``True`` equal the ints 5 and 1).
FOREIGN_LIDS = ("5", 5.0, True, -1, 10**9)


def _cold_answers(reference, lids) -> list[tuple]:
    """``(lid, explain envelope)`` pairs from an engine whose caches are
    all cold (explain never warms one), over the reference's data."""
    cold = ExplanationEngine(reference.db, reference.templates())
    out = []
    for lid in lids:
        views = tuple(ExplanationView.from_instance(i) for i in cold.explain(lid))
        out.append((lid, ExplainResult(lid=lid, explanations=views).to_dict()))
    return out


def _assert_explains_identical(service, reference, cold: list[tuple]) -> None:
    for lid, expected in cold:
        ours = service.explain(lid).to_dict()
        assert ours == expected == reference.explain(lid).to_dict(), lid


@pytest.fixture(scope="module")
def reference():
    """The single-node service over the shared read-only world."""
    return AuditService.open(_fresh_db())


@pytest.fixture(scope="module")
def cold_reference(reference):
    """Cold-engine answers for every logged id plus foreign ones."""
    every = sorted(reference.engine.all_lids())
    return _cold_answers(reference, every + list(FOREIGN_LIDS))


@pytest.mark.parametrize("kind", EXECUTOR_KINDS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_reads_identical(reference, cold_reference, shards, kind):
    config = AuditConfig(shards=shards, executor_kind=kind)
    with ShardedAuditService.open(_fresh_db(), config=config) as sharded:
        # aggregate views
        assert sharded.coverage() == reference.coverage()
        assert sharded.unexplained_lids() == reference.unexplained_lids()
        assert sharded.summary() == reference.summary()
        # whole-log partition
        ours = sharded.explain_all()
        theirs = reference.explain_all()
        assert ours.explained == theirs.explained
        assert ours.unexplained == theirs.unexplained
        # full compliance artifact, including queue order and user risk
        assert sharded.report().to_dict() == reference.report().to_dict()
        assert sharded.report(limit=5).to_dict() == reference.report(limit=5).to_dict()
        # patient portal screens route to one shard
        for patient in _sample_patients(reference.db):
            assert (
                sharded.patient_report(patient).to_dict()
                == reference.patient_report(patient).to_dict()
            )
            ours_text = sharded.render_patient_report(patient)
            assert ours_text == reference.render_patient_report(patient)
        # per-access explanation: every logged id, plus foreign ones
        _assert_explains_identical(sharded, reference, cold_reference)
        # batch partition with ids no shard holds
        some = sorted(reference.unexplained_lids())[:5] + [10**9]
        ours = sharded.explain_batch(some)
        theirs = reference.explain_batch(some)
        assert ours.explained == theirs.explained
        assert ours.unexplained == theirs.unexplained
        # mining support counts are per-shard sums
        templates = list(reference.templates())[:4]
        assert sharded.support_many(templates) == reference.support_many(templates)
        # template sets agree
        assert sharded.templates() == reference.templates()


@pytest.mark.parametrize("kind", EXECUTOR_KINDS)
@pytest.mark.parametrize("shards", (1, 2))
def test_sqlite_backend_sharded_reads_identical(
    reference, cold_reference, shards, kind
):
    """The SQLite backend under sharding: every shard converts its
    partition to a private (in-memory) SQLite database, and every read
    surface stays byte-identical to the single-node memory service."""
    config = AuditConfig(shards=shards, executor_kind=kind, backend="sqlite")
    with open_service(_fresh_db(), config=config) as service:
        assert service.coverage() == reference.coverage()
        assert service.unexplained_lids() == reference.unexplained_lids()
        ours = service.explain_all()
        theirs = reference.explain_all()
        assert ours.explained == theirs.explained
        assert ours.unexplained == theirs.unexplained
        assert service.report().to_dict() == reference.report().to_dict()
        for patient in _sample_patients(reference.db, k=2):
            assert (
                service.patient_report(patient).to_dict()
                == reference.patient_report(patient).to_dict()
            )
        _assert_explains_identical(service, reference, cold_reference)
        templates = list(reference.templates())[:4]
        assert service.support_many(templates) == reference.support_many(templates)


@pytest.mark.parametrize("shards", (1, 2))
def test_sqlite_backend_sharded_ingest_identical(shards):
    """Ingest through the SQLite backend (single-node and sharded)
    matches the memory reference: ids, dates, explanations, alerts."""
    base = AuditService.open(_fresh_db(), clock=_ticking_clock())
    config = AuditConfig(shards=shards, backend="sqlite")
    with open_service(
        _fresh_db(), config=config, clock=_ticking_clock()
    ) as service:
        patients = _sample_patients(base.db, k=3) + ["brand-new-patient"]
        batch = [
            (f"u{i % 2:04d}", patients[i % len(patients)], None)
            for i in range(8)
        ]
        ours = [r.to_dict() for r in service.ingest_many(batch)]
        theirs = [r.to_dict() for r in base.ingest_many(batch)]
        assert ours == theirs
        assert service.coverage() == base.coverage()
        assert service.report().to_dict() == base.report().to_dict()
        every = sorted(base.engine.all_lids())
        _assert_explains_identical(
            service, base, _cold_answers(base, every[-12:] + every[::9])
        )


@pytest.mark.parametrize("kind", EXECUTOR_KINDS)
@pytest.mark.parametrize("shards", (2, 7))
def test_sharded_ingest_identical(shards, kind):
    base = AuditService.open(_fresh_db(), clock=_ticking_clock())
    config = AuditConfig(shards=shards, executor_kind=kind)
    with ShardedAuditService.open(
        _fresh_db(), config=config, clock=_ticking_clock()
    ) as sharded:
        patients = _sample_patients(base.db, k=3) + ["brand-new-patient"]
        batch = [
            (f"u{i % 2:04d}", patients[i % len(patients)], None)
            for i in range(12)
        ]
        ours = [r.to_dict() for r in sharded.ingest_many(batch)]
        theirs = [r.to_dict() for r in base.ingest_many(batch)]
        assert ours == theirs  # ids, dates, explanations, alert flags
        one_ours = sharded.ingest("u0001", patients[0]).to_dict()
        one_theirs = base.ingest("u0001", patients[0]).to_dict()
        assert one_ours == one_theirs
        # post-ingest aggregates still agree
        assert sharded.coverage() == base.coverage()
        assert sharded.report().to_dict() == base.report().to_dict()
        assert sharded.unexplained_lids() == base.unexplained_lids()
        every = sorted(base.engine.all_lids())
        lids = every[-13:] + every[::9] + list(FOREIGN_LIDS)
        _assert_explains_identical(sharded, base, _cold_answers(base, lids))


@pytest.mark.parametrize("kind", EXECUTOR_KINDS)
def test_sharded_batch_semijoin_ingest_identical(kind):
    """The forced batch-semijoin ingest strategy survives sharding."""
    config = AuditConfig(batch_ingest=True)
    base = AuditService.open(
        _fresh_db(), config=config, clock=_ticking_clock()
    )
    sharded_config = config.replace(shards=3, executor_kind=kind)
    with ShardedAuditService.open(
        _fresh_db(), config=sharded_config, clock=_ticking_clock()
    ) as sharded:
        patients = _sample_patients(base.db, k=4)
        batch = [("u0001", patients[i % 4], None) for i in range(10)]
        ours = [r.to_dict() for r in sharded.ingest_many(batch)]
        theirs = [r.to_dict() for r in base.ingest_many(batch)]
        assert ours == theirs
        assert sharded.coverage() == base.coverage()


@pytest.mark.parametrize("kind", EXECUTOR_KINDS)
def test_sharded_point_explain_queries_only_the_owning_shard(reference, kind):
    """Warm non-owning shards answer from their caches: zero queries.
    The owner runs one query per template that explains the access."""
    log = reference.db.table("Log")
    lid_i = log.schema.column_index("Lid")
    patient_i = log.schema.column_index("Patient")
    owner_of = {row[lid_i]: row[patient_i] for row in log.rows()}
    sets = [reference.explained_lids(t) for t in reference.templates()]
    lids = sorted(owner_of)[::25] + sorted(reference.unexplained_lids())[:5]
    config = AuditConfig(shards=7, executor_kind=kind)
    with ShardedAuditService.open(_fresh_db(), config=config) as sharded:

        def queries() -> list[int]:
            return [s["queries_executed"] for s in sharded.stats()["per_shard"]]

        for lid in lids:
            before = queries()
            sharded.explain(lid)
            spent = [b - a for a, b in zip(before, queries())]
            owner = sharded.shard_for(owner_of[lid])
            expected = [0] * 7
            expected[owner] = sum(lid in s for s in sets)
            assert spent == expected, lid
        before = queries()
        sharded.explain(10**9)
        assert queries() == before


def test_sharded_alerts_fire_in_ingest_order():
    events = []
    config = AuditConfig(shards=3)
    with ShardedAuditService.open(_fresh_db(), config=config) as sharded:
        sharded.on_alert(lambda r: events.append(r.lid))
        results = sharded.ingest_many(
            [("nobody", f"ghost-patient-{i}", None) for i in range(4)]
        )
        alerted = [r.lid for r in results if r.alerted]
        assert events == alerted
        assert len(events) == 4  # ghost patients have no explanations


def test_sharded_add_templates_broadcasts(reference, cold_reference):
    with ShardedAuditService.open(
        _fresh_db(), templates=(), config=AuditConfig(shards=3)
    ) as sharded:
        before = sharded.coverage()
        assert before == 0.0
        offered = sharded.add_templates(list(reference.templates()))
        assert offered == len(reference.templates())
        assert sharded.coverage() == reference.coverage()
        _assert_explains_identical(sharded, reference, cold_reference)


def test_sharded_stats_aggregate(reference):
    with ShardedAuditService.open(
        _fresh_db(), config=AuditConfig(shards=4)
    ) as sharded:
        stats = sharded.stats()
        assert stats["shards"] == 4
        assert stats["executor_kind"] == "thread"
        assert stats["log_rows"] == reference.stats()["log_rows"]
        assert len(stats["per_shard"]) == 4
        assert stats["ingest"] is None  # nothing ingested yet
        per_shard_rows = sum(s["log_rows"] for s in stats["per_shard"])
        assert per_shard_rows == stats["log_rows"]
        sharded.ingest("u0001", "p-any")
        assert sharded.stats()["ingest"]["seen"] == 1


def test_sharded_lifecycle_and_unsupported_writers():
    service = ShardedAuditService.open(
        _fresh_db(), config=AuditConfig(shards=2)
    )
    # typed UnsupportedOperationError (a NotImplementedError subclass so
    # pre-wire callers keep working), carrying a remediation hint
    with pytest.raises(NotImplementedError) as excinfo:
        service.mine()
    assert isinstance(excinfo.value, UnsupportedOperationError)
    assert excinfo.value.code == "unsupported_operation"
    assert excinfo.value.http_status == 501
    assert "add_templates" in excinfo.value.hint
    with pytest.raises(UnsupportedOperationError) as excinfo:
        service.build_groups()
    assert "AuditService.open" in excinfo.value.hint
    service.close()
    service.close()  # idempotent
    with pytest.raises(RuntimeError):
        service.coverage()


def test_open_service_routes_by_shard_count():
    single = open_service(_fresh_db())
    assert isinstance(single, AuditService)
    with open_service(
        _fresh_db(), config=AuditConfig(shards=2)
    ) as sharded:
        assert isinstance(sharded, ShardedAuditService)


def test_cli_audit_json_identical_across_shards(tmp_path, capsys):
    from repro.api import save_database
    from repro.cli import main

    db_dir = str(tmp_path / "hospital")
    save_database(_fresh_db(), db_dir)
    assert main(["audit", "--db", db_dir, "--json"]) == 0
    single_out = capsys.readouterr().out
    sharded_args = ["--shards", "3", "--executor-kind", "thread"]
    assert main(["audit", "--db", db_dir, "--json"] + sharded_args) == 0
    assert capsys.readouterr().out == single_out
    assert main(["evaluate", "--db", db_dir, "--json", "--shards", "2"]) == 0
    assert "coverage" in capsys.readouterr().out
