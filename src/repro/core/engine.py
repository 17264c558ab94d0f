"""The explanation engine: apply templates to a log and explain accesses.

This is the user-facing facade of the paper's system.  Given a database
(including its access log) and a set of explanation templates — either
hand-crafted (Section 5.3.1) or mined (Section 3) — the engine answers:

* *Why did access L100 happen?* — :meth:`ExplanationEngine.explain`
  returns ranked natural-language instances (paper Example 1.1).
* *Which accesses does template t explain?* —
  :meth:`ExplanationEngine.explained_lids`.
* *Which accesses can nobody explain?* —
  :meth:`ExplanationEngine.unexplained_lids`, the paper's misuse-detection
  application (Section 1: "reduce the set of accesses that must be
  examined to those that are unexplained").

Three evaluation paths
----------------------
* **point** — :meth:`ExplanationEngine.explain` pins one log id into a
  template's query; the executor answers via index probes.  Right for
  rendering the explanation *instances* of a single access.  Once the
  caches below are warm, only the templates whose explained set holds
  the id run: an explained access costs one query per template that
  explains it (2.0 on average on the seed-7 benchmark world, against 11
  templates), and an unexplained or unknown id costs none.  A template
  whose cache is cold runs its query regardless.
* **delta-streaming** — :meth:`ExplanationEngine.notify_appended` patches
  the cached explained/unexplained sets with one point query per
  (template, log-ranging tuple variable) after an append.  Right for
  small, latency-sensitive streams.
* **batch-semijoin** — :meth:`ExplanationEngine.explain_batch` evaluates
  each template ONCE as a semijoin against a whole set of pending
  accesses (``L.Lid IN batch``) and partitions explained/unexplained in
  one pass; :meth:`ExplanationEngine.explain_all` is the whole-log case
  and backs the cold path of :meth:`all_explained_lids`.  Right for bulk
  audits, mining support, and large streamed batches — O(templates)
  queries total, independent of batch size.

Incremental maintenance contract
--------------------------------
The engine caches, per template, the set of log ids the template explains,
plus aggregate views (union of explained ids, the unexplained queue, the
log-id universe).  Two maintenance paths exist after the log grows:

* :meth:`ExplanationEngine.notify_appended` **delta-evaluates** each
  template against just the appended log row: for every tuple variable
  ranging over the log table the support query is re-run with that
  variable pinned to the new row (a point query the executor answers via
  index probes), and the resulting newly-explained ids are unioned into
  the caches.  Conjunctive queries are monotone under inserts, so the
  patched caches equal a from-scratch evaluation — the invariant pinned by
  ``tests/test_property_incremental.py``.
* :meth:`ExplanationEngine.invalidate_cache` drops everything, forcing a
  full rebuild on next read.  It remains the correct call after
  *destructive* changes (row deletion, table replacement), which delta
  maintenance deliberately does not model.

The point path reads these caches, so every write the engine is not
told about must be followed by :meth:`ExplanationEngine.invalidate_cache`.
That includes plain inserts made outside :meth:`notify_appended`, into
the log or into an event table: until the call, a warm engine keeps
answering from the old sets (pinned by
``tests/test_property_incremental.py``).  Sets cached for templates that
are not registered (support counting, :meth:`explained_lids` on any
template) are dropped by the next :meth:`notify_appended`, since only
registered templates are delta-maintained.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence
from typing import Any

from ..db.backend import AnyDatabase, ExecutorProtocol, make_executor
from ..db.query import AttrRef, Condition, ConjunctiveQuery, Literal
from .instance import ExplanationInstance, rank_instances
from .template import ExplanationTemplate

#: Batches at least this large take the semijoin path when
#: :meth:`ExplanationEngine.notify_appended_many` auto-selects a strategy.
SEMIJOIN_BATCH_MIN = 8


@dataclass(frozen=True)
class _Prepared:
    """A registered template's per-call constants, built once per
    template set and shared by the point, batch, and delta paths.

    ``instance_query`` is the lid-free instance query; :meth:`pinned`
    appends the one condition that varies per access, on ``lid_ref``,
    exactly as :meth:`ExplanationTemplate.instance_query` would.
    ``names`` and ``lid_pos`` describe its result columns (both executors
    return the query's projection as the columns).  ``log_refs`` are the
    log-id attributes of every tuple variable ranging over the log table
    — the variables the delta paths restrict.
    """

    template: ExplanationTemplate
    sig: tuple
    support_query: ConjunctiveQuery
    instance_query: ConjunctiveQuery
    names: tuple[str, ...]
    lid_pos: int
    lid_ref: AttrRef
    log_refs: tuple[AttrRef, ...]

    @classmethod
    def build(
        cls,
        template: ExplanationTemplate,
        sig: tuple,
        log_table: str,
        log_id_attr: str,
    ) -> "_Prepared":
        support = template.support_query()
        query = template.instance_query()
        return cls(
            template=template,
            sig=sig,
            support_query=support,
            instance_query=query,
            names=tuple(str(c) for c in query.projection),
            lid_pos=query.projection.index(AttrRef("L", log_id_attr)),
            lid_ref=AttrRef("L", template.log_id_attr),
            log_refs=tuple(
                AttrRef(var.alias, log_id_attr)
                for var in support.tuple_vars
                if var.table == log_table
            ),
        )

    def pinned(self, lid: Any) -> ConjunctiveQuery:
        """The instance query restricted to one log record (unrestricted
        for ``None``, as :meth:`ExplanationTemplate.instance_query`)."""
        if lid is None:
            return self.instance_query
        query = self.instance_query
        return ConjunctiveQuery(
            query.tuple_vars,
            query.conditions + (Condition(self.lid_ref, "=", Literal(lid)),),
            query.projection,
            query.distinct,
        )


@dataclass(frozen=True)
class BatchExplanation:
    """The one-pass partition of a batch of accesses.

    ``explained | unexplained`` is exactly the input batch; the two sets
    are disjoint.
    """

    explained: frozenset
    unexplained: frozenset

    def __len__(self) -> int:
        return len(self.explained) + len(self.unexplained)

    @property
    def coverage(self) -> float:
        """Fraction of the batch explained by at least one template."""
        total = len(self)
        if total == 0:
            return 0.0
        return len(self.explained) / total

    def is_explained(self, lid: Any) -> bool:
        """Whether one batched access found an explanation."""
        return lid in self.explained


class ExplanationEngine:
    """Evaluates a set of explanation templates against an access log."""

    def __init__(
        self,
        db: AnyDatabase,
        templates: Iterable[ExplanationTemplate] = (),
        log_table: str = "Log",
        log_id_attr: str = "Lid",
        use_batch_path: bool = True,
        executor: ExecutorProtocol | None = None,
        semijoin_batch_min: int = SEMIJOIN_BATCH_MIN,
    ) -> None:
        self.db = db
        self.log_table = log_table
        self.log_id_attr = log_id_attr
        #: The executor carries the pipeline toggles (pushdown, distinct
        #: reduction) and the plan cache; pass one in to control them —
        #: ``repro.api.AuditService`` builds it from an AuditConfig.
        #: Defaults to the right executor kind for the database backend.
        self.executor = executor if executor is not None else make_executor(db)
        #: Batches at least this large take the semijoin delta strategy
        #: when :meth:`notify_appended_many` auto-selects (``AuditConfig.
        #: semijoin_batch_min`` routes here).
        self.semijoin_batch_min = semijoin_batch_min
        #: When True (default), whole-log evaluation routes through the
        #: set-at-a-time :meth:`explain_all` semijoin path; False keeps
        #: the per-template point path (the CLI's ``--no-batch``, and the
        #: reference side of the batch differential tests).
        self.use_batch_path = use_batch_path
        self._templates: list[ExplanationTemplate] = []
        self._lid_cache: dict[tuple, set] = {}
        # Memoized derived state (template signatures are expensive to
        # recompute per streamed access; the aggregates are patched in
        # place by notify_appended).
        self._signatures: dict[ExplanationTemplate, tuple] = {}
        self._prepared: tuple[_Prepared, ...] | None = None
        # (row_count, keys, (key, row) pairs) — owned by
        # repro.core.scan.LogScanner, declared here so the strict scan
        # module may assign it.
        self._scan_order_cache: (
            tuple[int, list[tuple], list[tuple[tuple, Any]]] | None
        ) = None
        self._all_lids: set | None = None
        self._all_explained: set | None = None
        self._unexplained: set | None = None
        for template in templates:
            self.add_template(template)

    # ------------------------------------------------------------------
    # template management
    # ------------------------------------------------------------------
    def add_template(self, template: ExplanationTemplate) -> None:
        """Register one more explanation template.

        Per-template caches stay valid; aggregate views (union, coverage,
        unexplained queue) are recomputed lazily since the newcomer may
        explain accesses no existing template did.
        """
        self._templates.append(template)
        self._prepared = None
        self._all_explained = None
        self._unexplained = None

    @property
    def templates(self) -> tuple[ExplanationTemplate, ...]:
        """The registered templates, deduplicated by condition-set signature."""
        return tuple(p.template for p in self._prepared_templates())

    def _prepared_templates(self) -> tuple[_Prepared, ...]:
        """One :class:`_Prepared` per registered template
        (deduplicated by signature, first occurrence kept), rebuilt only
        when the template set changes."""
        if self._prepared is None:
            out: dict[tuple, _Prepared] = {}
            for template in self._templates:
                sig = self._sig(template)
                if sig not in out:
                    out[sig] = _Prepared.build(
                        template, sig, self.log_table, self.log_id_attr
                    )
            self._prepared = tuple(out.values())
        return self._prepared

    def _sig(self, template: ExplanationTemplate) -> tuple:
        """Memoized template signature (the per-template cache key)."""
        sig = self._signatures.get(template)
        if sig is None:
            sig = template.signature()
            self._signatures[template] = sig
        return sig

    # ------------------------------------------------------------------
    # whole-log queries
    # ------------------------------------------------------------------
    def explained_lids(self, template: ExplanationTemplate) -> set:
        """Distinct log ids the template explains (cached per template;
        treat as read-only)."""
        key = self._sig(template)
        if key not in self._lid_cache:
            self._lid_cache[key] = self.executor.distinct_values(
                template.support_query(), AttrRef("L", self.log_id_attr)
            )
        return self._lid_cache[key]

    def all_explained_lids(self) -> set:
        """Union of explained ids over every registered template (cached,
        patched in place by :meth:`notify_appended`; treat as read-only).

        The cold path is the set-at-a-time :meth:`explain_all` when
        ``use_batch_path`` is on (the default), else one full per-template
        evaluation — both warm the same caches and agree exactly (pinned
        by the batch differential suite).
        """
        if self._all_explained is None:
            if self.use_batch_path:
                self.explain_all()
            else:
                out: set = set()
                for template in self.templates:
                    out |= self.explained_lids(template)
                self._all_explained = out
        return self._all_explained

    def all_lids(self) -> set:
        """Every log id in the audited log table (cached; treat as
        read-only)."""
        if self._all_lids is None:
            self._all_lids = self.db.table(self.log_table).distinct_values(
                self.log_id_attr
            )
        return self._all_lids

    def unexplained_lids(self) -> set:
        """Accesses no template explains — the candidate-misuse queue
        (cached, patched in place by :meth:`notify_appended`; treat as
        read-only)."""
        if self._unexplained is None:
            self._unexplained = self.all_lids() - self.all_explained_lids()
        return self._unexplained

    def coverage(self) -> float:
        """Fraction of the log explained by at least one template (the
        paper's headline "over 94% of accesses" number)."""
        total = len(self.all_lids())
        if total == 0:
            return 0.0
        return (total - len(self.unexplained_lids())) / total

    def coverage_counts(self) -> tuple[int, int]:
        """``(total, unexplained)`` log-id counts — the additive form of
        :meth:`coverage`, so a scatter-gather layer can sum counts across
        shards and divide once (shard logs are disjoint)."""
        return len(self.all_lids()), len(self.unexplained_lids())

    def support_counts(
        self, templates: Sequence[ExplanationTemplate]
    ) -> list[int]:
        """Distinct explained-lid counts, one per given template (the
        mining *support* quantity, paper Section 3.1).

        The templates need not be registered; per-template caches are
        shared with :meth:`explained_lids`.  Counts are additive across
        patient-hash shards, so sharded mining support is the per-shard
        sum."""
        return [len(self.explained_lids(t)) for t in templates]

    # ------------------------------------------------------------------
    # per-access explanation
    # ------------------------------------------------------------------
    def explain(self, lid: Any) -> list[ExplanationInstance]:
        """Every explanation instance for one log record, ranked in
        ascending order of path length (paper Section 2.1).

        Once the log-id universe is warm, a template whose explained-set
        cache is warm and lacks ``lid`` cannot match it and costs no
        query: an explained access runs only the templates that explain
        it, and an access outside every warm set (unexplained, or absent
        from the log) costs zero queries.  Cold templates run their
        point query as before.  ``lid=None`` pins nothing and runs every
        template over the whole log.
        """
        warm = self._all_lids is not None and lid is not None
        instances: list[ExplanationInstance] = []
        for prep in self._prepared_templates():
            if warm:
                cached = self._lid_cache.get(prep.sig)
                if cached is not None and lid not in cached:
                    continue
            result = self.executor.execute(prep.pinned(lid))
            for row in result.rows:
                instances.append(
                    ExplanationInstance(
                        template=prep.template,
                        lid=row[prep.lid_pos],
                        bindings=dict(zip(prep.names, row)),
                    )
                )
        return rank_instances(instances)

    def explain_or_flag(self, lid: Any) -> tuple[list[ExplanationInstance], bool]:
        """Instances plus a *suspicious* flag (True when unexplained)."""
        instances = self.explain(lid)
        return instances, not instances

    # ------------------------------------------------------------------
    # set-at-a-time (batch semijoin) evaluation
    # ------------------------------------------------------------------
    def explain_batch(self, accesses: Iterable[Any]) -> BatchExplanation:
        """Partition a set of accesses into explained/unexplained in one
        pass, evaluating each template ONCE as a batch semijoin.

        Instead of one point query per (access, template), the executor
        restricts the template's log variable to the whole batch
        (``L.Lid IN accesses``) and returns the explained subset in a
        single pipeline run — O(templates) queries total, independent of
        batch size.  A template whose explained-set cache is warm costs a
        set intersection, no query at all, and templates stop being
        consulted once every batched access is explained.

        Results are identical to the per-access point path (same
        explained sets, same NULL semantics — NULL ids never match and
        land in ``unexplained``); ids absent from the log are simply
        unexplained.  Caches are read, and warmed only when the batch
        covers the whole log (then a template's semijoin result *is* its
        full explained set).
        """
        batch = set(accesses)
        if not batch:
            return BatchExplanation(frozenset(), frozenset())
        target = AttrRef("L", self.log_id_attr)
        covers_all = batch >= self.all_lids()
        explained: set = set()
        for prep in self._prepared_templates():
            cached = self._lid_cache.get(prep.sig)
            if cached is not None:
                hits = batch & cached
            else:
                hits = self.executor.distinct_values_in(
                    prep.support_query, target, target, batch
                )
                if covers_all:
                    self._lid_cache[prep.sig] = set(hits)
            explained |= hits
            if len(explained) == len(batch):
                break
        return BatchExplanation(
            frozenset(explained), frozenset(batch - explained)
        )

    def explain_all(self) -> BatchExplanation:
        """The whole-log partition, one batch semijoin per template.

        This is the set-at-a-time implementation behind
        :meth:`all_explained_lids`, :meth:`unexplained_lids`, and
        :meth:`coverage` — the aggregate caches are (re)materialized from
        the returned partition.
        """
        result = self.explain_batch(self.all_lids())
        self._all_explained = set(result.explained)
        self._unexplained = set(result.unexplained)
        return result

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def notify_appended(self, lid: Any) -> set:
        """Delta-maintain every cache after appending one log row.

        Re-evaluates each template against just the new row and patches the
        cached explained-id sets, the unexplained queue, and the log-id
        universe in place.  Returns the set of log ids newly explained by
        this append — note that via log self-joins (e.g. the repeat-access
        template) a new row can retroactively explain *older* accesses, all
        of which appear in the returned set.

        Caveat: a template whose cache is cold is warmed over the *full*
        log (one-time cost), and since its pre-append explained set is
        unknowable at that point, its entire explained set is folded into
        the returned value.  Callers needing a strict per-append delta
        should warm the caches first (e.g. via :meth:`all_explained_lids`).
        """
        return self.notify_appended_many([lid])

    def notify_appended_many(
        self, lids: Sequence[Any], use_semijoin: bool | None = None
    ) -> set:
        """Delta-maintain every cache after a batch of log appends.

        One maintenance pass for the whole batch, with two strategies:

        * **point** (``use_semijoin=False``): per (template, appended row,
          log-ranging tuple variable) the executor answers one point
          query — O(templates × len(lids)) total;
        * **semijoin** (``use_semijoin=True``): per (template, log-ranging
          tuple variable) ONE batch semijoin restricts that variable to
          the whole appended set — O(templates) queries, independent of
          batch size.

        ``use_semijoin=None`` (the default) picks semijoin for batches of
        at least ``SEMIJOIN_BATCH_MIN`` ids.  Both strategies compute the
        same delta (the semijoin is exactly the union of the point
        queries; pinned by the property suite), including self-join
        templates retroactively explaining *older* accesses.  The
        appended rows must already be in the log table.  Returns the
        union of newly explained log ids (cold-cache caveat of
        :meth:`notify_appended` applies: templates warmed by this call
        contribute their full explained set).
        """
        lids = list(lids)
        if use_semijoin is None:
            use_semijoin = len(lids) >= self.semijoin_batch_min
        if self._all_lids is not None:
            self._all_lids.update(lids)
        batch = set(lids)
        target = AttrRef("L", self.log_id_attr)
        prepared = self._prepared_templates()
        # Sets cached for templates evaluated while unregistered (support
        # counting, explained_lids) are not patched below: drop them so
        # no later read or add_template adopts a pre-append set.
        registered = {prep.sig for prep in prepared}
        for key in [k for k in self._lid_cache if k not in registered]:
            del self._lid_cache[key]
        newly: set = set()
        for prep in prepared:
            cached = self._lid_cache.get(prep.sig)
            if cached is None:
                # Never evaluated: warm over the full log (which already
                # contains the new rows); one-time cost, delta thereafter.
                newly |= self.explained_lids(prep.template)
                continue
            delta: set = set()
            if use_semijoin:
                for ref in prep.log_refs:
                    delta |= self.executor.distinct_values_in(
                        prep.support_query, target, ref, batch
                    )
            else:
                for lid in lids:
                    for restricted in self._point_queries(prep, lid):
                        delta |= self.executor.distinct_values(restricted, target)
            delta -= cached
            cached |= delta
            newly |= delta
        if self._all_explained is not None:
            self._all_explained |= newly
        if self._unexplained is not None:
            self._unexplained -= newly
            self._unexplained.update(
                lid for lid in lids if lid not in self.all_explained_lids()
            )
        return newly

    @staticmethod
    def _point_queries(prep: _Prepared, lid: Any) -> list[ConjunctiveQuery]:
        """The template's support query pinned to one appended log row.

        One restriction per tuple variable ranging over the log table: an
        explanation involving the new row must bind it to at least one of
        them, so the union of these point queries is exactly the append's
        delta (conjunctive queries are monotone under inserts).
        """
        query = prep.support_query
        return [
            ConjunctiveQuery(
                query.tuple_vars,
                query.conditions + (Condition(ref, "=", Literal(lid)),),
                query.projection,
                query.distinct,
            )
            for ref in prep.log_refs
        ]

    def invalidate_cache(self) -> None:
        """Drop every cached set, forcing a full rebuild on next read.

        Appends should use :meth:`notify_appended` instead; this remains
        for destructive log mutations (deletes, truncation, reloads)."""
        self._lid_cache.clear()
        self._all_lids = None
        self._all_explained = None
        self._unexplained = None
