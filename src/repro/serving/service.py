"""The articulation service: shared engine state behind the HTTP tier.

:class:`ArticulationService` owns everything the server's request
threads share — the articulation, the inference engine, the per-source
instance stores, the query engine, the result cache, and the session
table — and arbitrates access with one readers-writer lock:

* **reads** (queries, inference, stats) take the read side and run
  concurrently; the service saturates before every publish, so a read
  never mutates engine state;
* **writes** (churn batches, refreshes, raw fact diffs, ontology and
  instance registration) take the write side, run one at a time, and
  end in :meth:`_publish` — saturate to fixpoint, bump the publication
  counter, invalidate the result cache;
* **session reads** take no lock at all: a session answers from a
  frozen snapshot store (see :mod:`repro.serving.session`), and a
  write that will mutate a store a session pins first detaches the
  live engine onto a private copy
  (:meth:`~repro.inference.horn.HornEngine.detach_store`: fact by
  fact in memory, a page-level SQLite backup when paged).  Writes
  that leave the pinned store alone — installing a new articulation
  (a new engine replaces the old one), a refresh whose stamp has not
  moved — skip the copy.

Durability comes from the churn journal, a SQLite database:
constructed with a journal path, every published diff is write-ahead
journaled by the Horn engine's
:meth:`~repro.inference.horn.HornEngine.apply_batch`, one committed
transaction per record, and a service started over a non-empty journal
recovers straight to the pre-crash fixpoint
(:meth:`ChurnJournal.recover`) and serves inference from it before any
articulation is even installed.  The journal holds only the Horn
layer, so a recovered service is served as it is: installing an
articulation over it starts a new history.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from time import perf_counter

from repro.core.articulation import Articulation, ArticulationGenerator
from repro.core.maintenance import ArticulationMaintainer
from repro.core.rules import parse_rules
from repro.errors import ProtocolError, ServingError
from repro.formats import adjacency
from repro.inference.engine import IMPLIES, OntologyInferenceEngine
from repro.inference.horn import HornEngine, is_ground, query_store
from repro.query.engine import QueryEngine
from repro.reliability.journal import ChurnJournal
from repro.serving.cache import QueryResultCache
from repro.serving.protocol import (
    INFER_OPS,
    parse_atom,
    parse_atoms,
    require,
    optional,
    row_to_wire,
)
from repro.serving.session import Session, SessionManager
from repro.workloads.churn import apply_churn

__all__ = ["ArticulationService", "load_paper_workload"]

_ENGINE_EPOCH = "onion-serving/1"  # protocol+engine revision in cache keys

#: journaled batches between snapshots: bounds what recovery replays
SNAPSHOT_EVERY = 32


class _RWLock:
    """A writer-preferring readers-writer lock.

    Queries share the read side; churn serializes on the write side.
    A waiting writer blocks *new* readers, so a steady query stream
    cannot starve churn.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    @contextmanager
    def read(self):
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextmanager
    def write(self):
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            with self._cond:
                self._writer_active = False
                self._cond.notify_all()


class ArticulationService:
    """Thread-safe facade over one articulation's engines."""

    def __init__(
        self,
        *,
        pushdown: bool = False,
        result_cache_size: int = 512,
        session_limit: int = 256,
        journal_path: str | None = None,
        storage: str = "memory",
        storage_path: str | None = None,
        buffer_facts: int | None = None,
    ) -> None:
        self.pushdown = pushdown
        self.storage = storage
        self.storage_path = storage_path
        self.buffer_facts = buffer_facts

        self._rw = _RWLock()
        self.sessions = SessionManager(limit=session_limit)
        self.cache = QueryResultCache(maxsize=result_cache_size)

        self._ontologies: dict[str, object] = {}
        self._articulation: Articulation | None = None
        self._maintainer: ArticulationMaintainer | None = None
        self._inference: OntologyInferenceEngine | None = None
        self._recovered: HornEngine | None = None
        self._stores: dict[str, object] = {}
        self._query_engine: QueryEngine | None = None

        #: publication counter — part of every result-cache key, so a
        #: key minted before a write can never hit after it.
        self.engine_version = 0
        self.started = perf_counter()
        self._counts = {
            "queries": 0,
            "infers": 0,
            "churn_batches": 0,
            "fact_batches": 0,
            "detaches": 0,
            "snapshots": 0,
        }
        self._batches_since_snapshot = 0
        self.recovery: dict[str, object] | None = None

        self.journal: ChurnJournal | None = None
        if journal_path is not None:
            self.journal = ChurnJournal(journal_path)
            if not self.journal.empty():
                horn, report = self.journal.recover(
                    storage=storage,
                    storage_path=storage_path,
                    buffer_facts=buffer_facts,
                )
                self._recovered = horn
                self.recovery = report
                self.engine_version += 1

    # ------------------------------------------------------------------
    # engine plumbing
    # ------------------------------------------------------------------
    def _horn(self) -> HornEngine:
        """The live Horn engine: articulation-backed or recovered."""
        if self._inference is not None:
            return self._inference.engine
        if self._recovered is not None:
            return self._recovered
        raise ServingError(
            "no articulation loaded (and no journal to recover from)"
        )

    def _fingerprint(self) -> object:
        if self._articulation is not None:
            return self._articulation.fingerprint()
        return None

    def _prepare_write(self) -> None:
        """Freeze the current store if any live session pins it.

        Called under the write lock, before the first mutation of the
        live engine.  The engine moves onto a private copy of its
        store; pinned sessions keep answering the frozen fixpoint
        untouched.
        """
        try:
            horn = self._horn()
        except ServingError:
            return
        if self.sessions.pins(horn.store):
            horn.detach_store()
            self._counts["detaches"] += 1

    def _publish(self, *, journaled_batch: bool = False) -> None:
        """Reach fixpoint and make the new state visible to readers."""
        horn = self._horn()
        horn.saturate()
        self.engine_version += 1
        self.cache.invalidate()
        if self.journal is None:
            return
        if journaled_batch:
            self._batches_since_snapshot += 1
            if self._batches_since_snapshot < SNAPSHOT_EVERY:
                return
        # Compact: either the mutation bypassed apply_batch (rebuild,
        # install, instance edits) or the log grew long enough that
        # replay would dominate recovery.
        self.journal.snapshot(horn)
        self._counts["snapshots"] += 1
        self._batches_since_snapshot = 0

    # ------------------------------------------------------------------
    # state installation (write side)
    # ------------------------------------------------------------------
    def register_ontology(self, name: str, text: str) -> dict[str, object]:
        """Parse and stage an adjacency-format ontology for articulation."""
        ontology = adjacency.loads(text, name=name)
        with self._rw.write():
            self._ontologies[name] = ontology
        return {
            "name": ontology.name,
            "terms": ontology.term_count(),
            "edges": ontology.graph.edge_count(),
        }

    def articulate(
        self, name: str, sources: list[str], rules_text: str = ""
    ) -> dict[str, object]:
        """Generate and install an articulation over staged ontologies."""
        with self._rw.write():
            missing = [s for s in sources if s not in self._ontologies]
            if missing:
                raise ServingError(
                    f"unregistered source ontologies: {sorted(missing)}"
                )
            generator = ArticulationGenerator(
                [self._ontologies[s] for s in sources], name=name
            )
            articulation = generator.generate(parse_rules(rules_text))
            return self._install_locked(articulation, stores=None)

    def install(
        self,
        articulation: Articulation,
        stores: dict[str, object] | None = None,
    ) -> dict[str, object]:
        """Install a ready-made articulation (plus instance stores).

        An articulation from
        :func:`~repro.lexicon.skat.articulate_with_expert` carries the
        loop's saturated engine.  A memory-storage service without a
        journal serves that engine, refreshed (``refresh.mode`` is
        ``"noop"`` unless the articulation moved after the loop);
        any other service drops it and builds its own.
        """
        with self._rw.write():
            return self._install_locked(articulation, stores)

    def _install_locked(
        self,
        articulation: Articulation,
        stores: dict[str, object] | None,
    ) -> dict[str, object]:
        # No detach: the current engine is replaced, never mutated, so
        # a store pinned by sessions stays frozen as it is.
        self._articulation = articulation
        self._maintainer = ArticulationMaintainer(articulation)
        for source_name, ontology in articulation.sources.items():
            self._ontologies[source_name] = ontology
        # the expert loop's engine is the one this service would build
        # when both keep facts in memory and neither journals
        engine = articulation.take_engine()
        if (
            engine is not None
            and self.storage == engine.storage == "memory"
            and self.journal is None
            and engine.journal is None
        ):
            self._inference = engine
        else:
            # an explicit storage_path belongs to journal recovery (the
            # ingest handoff); a freshly installed articulation must
            # start from an empty store, so its paged engine gets a
            # temp file
            self._inference = OntologyInferenceEngine(
                storage=self.storage,
                buffer_facts=self.buffer_facts,
                journal=self.journal,
            )
        self._inference.refresh_from_articulation(articulation)
        self._recovered = None
        self._stores = dict(stores or {})
        self._query_engine = QueryEngine(
            articulation, self._stores, pushdown=self.pushdown
        )
        self._publish()
        return {
            "articulation": articulation.name,
            "sources": sorted(articulation.sources),
            "facts": self._inference.fact_count(),
            "engine_version": self.engine_version,
            "refresh": dict(self._inference.last_refresh),
        }

    def add_instances(
        self, source: str, instances: list[dict]
    ) -> dict[str, object]:
        """Load instance rows into one source's knowledge base."""
        with self._rw.write():
            store = self._stores.get(source)
            if store is None:
                raise ServingError(
                    f"no instance store for source {source!r}; "
                    f"known: {sorted(self._stores)}"
                )
            added = 0
            for item in instances:
                if not isinstance(item, dict):
                    raise ProtocolError(
                        f"an instance is an object, got {item!r}"
                    )
                instance_id = require(item, "id")
                cls = require(item, "cls")
                values = item.get("values", {})
                if not isinstance(values, dict):
                    raise ProtocolError("instance 'values' must be an object")
                store.add(instance_id, cls, **values)
                added += 1
            # instance rows feed /query results but not the closure, so
            # this publish is cache bookkeeping, not engine work
            self.engine_version += 1
            self.cache.invalidate()
            return {"source": source, "added": added}

    # ------------------------------------------------------------------
    # mutation (write side)
    # ------------------------------------------------------------------
    def refresh(self) -> dict[str, object]:
        """Re-extract the loaded articulation; incremental when possible."""
        with self._rw.write():
            if self._inference is None or self._articulation is None:
                raise ServingError("no articulation loaded")
            if not self._inference.is_current(self._articulation):
                self._prepare_write()
            report = self._inference.refresh_from_articulation(
                self._articulation
            )
            mode = str(report["mode"])
            if mode == "noop":
                return {"refresh": dict(report), "engine_version": self.engine_version}
            self._publish(
                journaled_batch=mode
                in ("incremental", "retract", "replay", "batch-rebuild")
            )
            return {
                "refresh": dict(report),
                "engine_version": self.engine_version,
            }

    def churn(
        self,
        source: str,
        mutations: int,
        seed: int = 0,
        *,
        add_weight: float = 0.35,
        delete_weight: float = 0.25,
        edge_weight: float = 0.4,
    ) -> dict[str, object]:
        """One background-churn batch: mutate a source, repair, refresh.

        The weights control the mutation mix (see
        :func:`~repro.workloads.churn.apply_churn`); a load generator
        that must keep its query classes alive sets ``delete_weight``
        to zero — edge deletions still flow, so the DRed retraction
        path stays exercised.
        """
        with self._rw.write():
            if self._articulation is None or self._maintainer is None:
                raise ServingError("no articulation loaded")
            if source not in self._articulation.sources:
                raise ServingError(
                    f"unknown source {source!r}; known: "
                    f"{sorted(self._articulation.sources)}"
                )
            if mutations < 1:
                raise ServingError(
                    f"mutations must be >= 1, got {mutations!r}"
                )
            self._prepare_write()
            report = apply_churn(
                self._articulation.sources[source],
                n_mutations=mutations,
                seed=seed,
                add_weight=add_weight,
                delete_weight=delete_weight,
                edge_weight=edge_weight,
            )
            maintenance = self._maintainer.apply_source_changes(
                source, report.touched_terms()
            )
            refresh = self._inference.refresh_from_articulation(
                self._articulation
            )
            mode = str(refresh["mode"])
            self._publish(
                journaled_batch=mode
                in ("incremental", "retract", "replay", "batch-rebuild")
            )
            self._counts["churn_batches"] += 1
            return {
                "source": source,
                "mutations": len(report),
                "touched": sorted(report.touched_terms()),
                "repaired": bool(maintenance.required_work),
                "refresh": dict(refresh),
                "engine_version": self.engine_version,
            }

    def apply_facts(
        self,
        adds: list[tuple[str, ...]],
        retracts: list[tuple[str, ...]],
    ) -> dict[str, object]:
        """Apply a raw journaled fact diff to the live Horn engine.

        The escape hatch below the articulation layer: diffs land as
        one write-ahead-journaled
        :meth:`~repro.inference.horn.HornEngine.apply_batch`, which is
        what the kill-and-restart recovery contract exercises.
        """
        for atom in list(adds) + list(retracts):
            if not is_ground(atom):
                raise ProtocolError(
                    f"fact diffs must be ground atoms, got {atom!r}"
                )
        with self._rw.write():
            horn = self._horn()
            self._prepare_write()
            report = horn.apply_batch(adds, retracts, saturate=True)
            self._publish(journaled_batch=True)
            self._counts["fact_batches"] += 1
            out = {
                "added": int(report["added"]),
                "retracted": int(report["retracted"]),
                "decision": report["decision"],
                "engine_version": self.engine_version,
            }
            if "journal_seq" in report:
                out["journal_seq"] = report["journal_seq"]
            return out

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def create_session(self) -> dict[str, object]:
        """Open a session pinned to the current published fixpoint.

        Takes the write side: session creation is rare, and creating
        under the writer lock makes pin-tracking race-free — a writer
        can never be mid-mutation while a session pins the store.
        """
        with self._rw.write():
            horn = self._horn()
            horn.saturate()
            session = self.sessions.create(horn.store, self.engine_version)
            return {
                "session": session.session_id,
                "engine_version": session.engine_version,
            }

    def refresh_session(self, session_id: str) -> dict[str, object]:
        """Re-pin a session onto the currently published fixpoint."""
        with self._rw.write():
            horn = self._horn()
            horn.saturate()
            session = self.sessions.refresh(
                session_id, horn.store, self.engine_version
            )
            return {
                "session": session.session_id,
                "engine_version": session.engine_version,
            }

    def close_session(self, session_id: str) -> dict[str, object]:
        return {"closed": self.sessions.close(session_id)}

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def infer(self, payload: dict) -> dict[str, object]:
        """Answer one inference request (optionally inside a session)."""
        op = require(payload, "op")
        if op not in INFER_OPS:
            raise ProtocolError(
                f"unknown op {op!r}; known: {sorted(INFER_OPS)}"
            )
        session_id = optional(payload, "session")
        self._counts["infers"] += 1
        text = json.dumps(
            {k: payload[k] for k in sorted(payload) if k != "session"},
            sort_keys=True,
        )
        if session_id is not None:
            session = self.sessions.get(session_id)
            # The version in the key is the session's *pinned* one,
            # read from the session state itself — never
            # self.engine_version, which a concurrent publication can
            # bump between our version-read and the cache insert and
            # so file a pinned-snapshot answer under the live version.
            # The pinned version fully identifies the frozen fixpoint,
            # so no live field (fingerprint included) belongs here.
            cache_key = QueryResultCache.key(
                "infer-session",
                text,
                None,
                (session.engine_version, _ENGINE_EPOCH),
            )
            cached = self.cache.get(cache_key)
            if cached is not None:
                result = dict(cached)
                result["cached"] = True
                return result
            result = self._infer_against(payload, op, session=session)
            self.cache.put(cache_key, result)
            result = dict(result)
            result["cached"] = False
            return result

        provisional = QueryResultCache.key(
            "infer",
            text,
            self._fingerprint(),
            (self.engine_version, _ENGINE_EPOCH),
        )
        cached = self.cache.get(provisional)
        if cached is not None:
            result = dict(cached)
            result["cached"] = True
            return result
        with self._rw.read():
            # Re-mint under the read lock: writers are excluded here,
            # so the version, the fingerprint, the computed answer and
            # the inserted entry all describe the same publication —
            # the provisional key above is only a lock-free fast path.
            cache_key = QueryResultCache.key(
                "infer",
                text,
                self._fingerprint(),
                (self.engine_version, _ENGINE_EPOCH),
            )
            result = self._infer_against(payload, op, session=None)
            self.cache.put(cache_key, result)
        result = dict(result)
        result["cached"] = False
        return result

    def _infer_against(
        self, payload: dict, op: str, session: Session | None
    ) -> dict[str, object]:
        """Evaluate one op on the live engine or a session snapshot.

        Both paths evaluate the *same* ``implies`` patterns, so a
        session's answers differ from the live engine's only by the
        fixpoint they observe — the isolation contract the tests pin.
        """

        def bindings(pattern: tuple[str, ...]) -> list[dict[str, str]]:
            if session is not None:
                return session.query(pattern)
            return self._horn().query(pattern)

        if op == "pattern":
            pattern = parse_atom(require(payload, "atom", list))
            if is_ground(pattern):
                if session is not None:
                    holds = session.holds(pattern)
                else:
                    holds = self._horn().holds(pattern)
                return {"op": op, "holds": holds}
            return {"op": op, "bindings": bindings(pattern)}
        if op == "implies":
            specific = require(payload, "term")
            general = require(payload, "general")
            holds = specific == general or bool(
                bindings((IMPLIES, specific, general))
            )
            return {"op": op, "holds": bool(holds)}
        term = require(payload, "term")
        if op == "generalizations":
            pattern = (IMPLIES, term, "?x")
        else:  # specializations
            pattern = (IMPLIES, "?x", term)
        terms = sorted({b["?x"] for b in bindings(pattern)})
        return {"op": op, "term": term, "terms": terms}

    def query(self, text: str) -> tuple[list[dict], dict[str, object]]:
        """Run a cross-source query; returns wire rows plus metadata."""
        if self._query_engine is None:
            raise ServingError("no articulation loaded; queries unavailable")
        self._counts["queries"] += 1
        provisional = QueryResultCache.key(
            "query",
            text,
            self._fingerprint(),
            (self.engine_version, _ENGINE_EPOCH),
        )
        cached = self.cache.get(provisional)
        if cached is not None:
            return list(cached), {
                "rows": len(cached),
                "cached": True,
                "engine_version": self.engine_version,
            }
        with self._rw.read():
            # same discipline as infer(): key minted where writers are
            # excluded, so key and rows describe one publication
            cache_key = QueryResultCache.key(
                "query",
                text,
                self._fingerprint(),
                (self.engine_version, _ENGINE_EPOCH),
            )
            rows = [
                row_to_wire(row) for row in self._query_engine.execute(text)
            ]
            self.cache.put(cache_key, rows)
        return rows, {
            "rows": len(rows),
            "cached": False,
            "engine_version": self.engine_version,
        }

    def session_closure_terms(self, session_id: str, term: str) -> list[str]:
        """A session's view of ``generalizations(term)`` (test hook)."""
        session = self.sessions.get(session_id)
        return sorted(
            {b["?x"] for b in query_store(session.store, (IMPLIES, term, "?x"))}
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def health(self) -> dict[str, object]:
        ready = self._inference is not None or self._recovered is not None
        body: dict[str, object] = {
            "status": "ok" if ready else "empty",
            "articulation": (
                self._articulation.name if self._articulation else None
            ),
            "recovered": self._recovered is not None,
            "engine_version": self.engine_version,
            "uptime_s": perf_counter() - self.started,
        }
        if ready:
            with self._rw.read():
                body["facts"] = self._horn().fact_count()
        return body

    def stats(self) -> dict[str, object]:
        body: dict[str, object] = {
            "engine_version": self.engine_version,
            "counts": dict(self._counts),
            "cache": self.cache.stats(),
            "sessions": self.sessions.stats(),
            "ontologies": sorted(self._ontologies),
            "stores": sorted(self._stores),
        }
        if self.recovery is not None:
            body["recovery"] = dict(self.recovery)
        if self.journal is not None:
            body["journal"] = {
                "path": str(self.journal.path),
                "pending": len(self.journal.pending()),
            }
        return body


def load_paper_workload(
    service: ArticulationService,
    *,
    backend_factory=None,
) -> dict[str, object]:
    """Install the paper's Fig. 2 transport articulation and stores.

    The one-call serving fixture: the carrier/factory ontologies, the
    currency/weight conversion bridges, and both instance stores
    (optionally cloned onto backends from ``backend_factory(name)``).
    """
    from repro.workloads.paper_example import (
        carrier_store,
        factory_store,
        generate_transport_articulation,
    )

    articulation = generate_transport_articulation()
    stores = {"carrier": carrier_store(), "factory": factory_store()}
    if backend_factory is not None:
        stores = {
            name: store.clone(backend_factory(name))
            for name, store in stores.items()
        }
    return service.install(articulation, stores=stores)
