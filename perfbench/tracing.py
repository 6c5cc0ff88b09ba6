"""Span tracing for the benchmark's ``--trace 1`` runs.

The wrappers are installed from the benchmark's own files, around the
public entry points of each layer of the program; nothing in ``src/``
knows about them.  A span is ``(name, start, end, parent, seq)``: the
parent is the enclosing span on the same thread, and ``seq`` numbers
the request (or operation) the span belongs to.  Spans stay in memory
until the run ends; self time (duration minus the time covered by
child spans) is folded per name as spans close.
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter, defaultdict

MAX_SPANS = 400_000  # records kept for the run; self time is never dropped


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.self_ms: dict[str, float] = defaultdict(float)
        self.incl_ms: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.roots: list[float] = []  # root span durations (ms), in seq order
        self.seq = 0

    def reset(self) -> None:
        self.spans.clear()
        self.dropped = 0
        self.self_ms.clear()
        self.incl_ms.clear()
        self.calls.clear()
        self.counts.clear()
        self.roots.clear()
        self.seq = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, *, before=None, after=None, root=False):
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack()
            if root and not stack:
                tracer.seq += 1
            state = before(args, kwargs) if before is not None else None
            frame = [name, time.perf_counter(), 0.0]  # name, start, child ms
            parent = stack[-1] if stack else None
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = (end - frame[1]) * 1000.0
                tracer.self_ms[name] += duration - frame[2]
                tracer.incl_ms[name] += duration
                tracer.calls[name] += 1
                if parent is not None:
                    parent[2] += duration
                elif root:
                    tracer.roots.append(duration)
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append(
                        (name, frame[1], end, parent[0] if parent else None, tracer.seq)
                    )
                else:
                    tracer.dropped += 1
            if after is not None:
                after(result, args, state)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)

    def snapshot(self) -> dict:
        return {
            "self_ms": dict(self.self_ms),
            "incl_ms": dict(self.incl_ms),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


def install_program_wrappers(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (program side)."""
    from repro.core.articulation import Articulation, ArticulationGenerator
    from repro.core.maintenance import ArticulationMaintainer
    from repro.inference.engine import OntologyInferenceEngine
    from repro.inference.horn import HornEngine
    from repro.kb import ingest as ingest_module
    from repro.kb.pagestore import PagedFactStore
    from repro.lexicon import skat
    from repro.lexicon.expert import GroundTruthPolicy
    from repro.query.engine import QueryEngine
    from repro.reliability.journal import ChurnJournal
    from repro.serving import server, service
    from repro.serving.session import Session

    counts = tracer.counts
    w = tracer.wrap

    w(server._Handler, "do_POST", "http.handler", root=True)
    w(server._Handler, "do_GET", "http.handler", root=True)
    w(service.ArticulationService, "infer", "service.infer")
    w(service.ArticulationService, "query", "service.query")
    w(service.ArticulationService, "churn", "service.churn")
    w(service.ArticulationService, "refresh_session", "service.refresh_session")
    w(service.ArticulationService, "install", "service.install")
    w(service, "apply_churn", "churn.mutate")
    w(Articulation, "fingerprint", "art.fingerprint")
    w(ArticulationGenerator, "generate", "art.generate")
    w(ArticulationGenerator, "extend", "art.generate")
    w(QueryEngine, "plan", "query.plan")
    w(QueryEngine, "run", "query.exec")
    w(HornEngine, "query", "horn.query")
    w(HornEngine, "holds", "horn.query")
    w(Session, "query", "horn.query")
    w(Session, "holds", "horn.query")
    w(HornEngine, "apply_batch", "horn.apply_batch")
    w(HornEngine, "detach_store", "session.detach")

    def stats_before(args, kwargs):
        return id(args[0].last_stats)

    def stats_after(result, args, before_id):
        stats = args[0].last_stats
        if id(stats) == before_id:
            return  # a no-op saturate leaves last_stats untouched
        counts["horn.join_candidates"] += int(stats.get("candidates", 0))
        counts["horn.derived"] += int(stats.get("derived", 0))
        counts["horn.overdeleted"] += int(stats.get("overdeleted", 0))
        counts["horn.rederived"] += int(stats.get("rederived", 0))

    w(HornEngine, "saturate", "horn.saturate", before=stats_before, after=stats_after)

    def refresh_after(result, args, state):
        counts[f"refresh.mode_{result.get('mode')}"] += 1

    w(OntologyInferenceEngine, "refresh_from_articulation", "refresh", after=refresh_after)
    w(ArticulationMaintainer, "apply_source_changes", "maint.repair")

    stores: list = []
    original_init = PagedFactStore.__init__

    def register_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        stores.append(self)

    PagedFactStore.__init__ = register_init
    tracer.paged_stores = stores
    w(PagedFactStore, "bulk_load", "pages.bulk_load")

    def ingest_after(result, args, state):
        counts["ingest.facts"] += int(result.get("added", 0)) + int(
            result.get("deduplicated", 0)
        )

    w(ingest_module, "ingest_facts", "ingest", after=ingest_after)

    def journal_size(args, kwargs):
        try:
            return os.path.getsize(args[0].path)
        except OSError:
            return 0

    def begin_after(result, args, size_before):
        counts["journal.batches"] += 1
        try:
            counts["journal.bytes"] += os.path.getsize(args[0].path) - size_before
        except OSError:
            pass

    w(ChurnJournal, "begin", "journal.begin", before=journal_size, after=begin_after)
    w(ChurnJournal, "commit", "journal.commit")
    w(ChurnJournal, "snapshot_state", "journal.snapshot")
    w(ChurnJournal, "recover", "journal.recover")

    def propose_after(result, args, state):
        stats = args[0].last_stats
        counts["skat.rounds"] += 1
        counts["skat.candidate_pairs"] += int(stats.get("candidate_pairs", 0))
        counts["skat.all_pairs"] += int(stats.get("all_pairs", 0))

    w(skat.SkatEngine, "propose", "skat.propose", after=propose_after)
    w(skat.ExactLabelMatcher, "propose", "skat.exact")
    w(skat.SynonymMatcher, "propose", "skat.synonym")
    w(skat.HypernymMatcher, "propose", "skat.hypernym")
    w(skat.StructuralMatcher, "propose", "skat.structural")
    w(GroundTruthPolicy, "review", "expert.review")


def page_counters(tracer: Tracer) -> dict:
    hits = misses = evictions = 0
    for store in getattr(tracer, "paged_stores", ()):
        stats = store.buffer_stats()
        hits += stats["hits"]
        misses += stats["misses"]
        evictions += stats["evictions"]
    return {"pages.hits": hits, "pages.misses": misses, "pages.evictions": evictions}
