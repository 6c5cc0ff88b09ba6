"""Incremental articulation maintenance (paper §5.3, §6).

"If a change to a source ontology, say O1, occurs in the difference of
O1 with other ontologies, no change needs to occur in any of the
articulation ontologies.  If on the other hand a node occurs in O1 but
not in O1 − O2 then any change related to the node ... must also be
reflected in the articulation ontologies."

:class:`ArticulationMaintainer` turns that sentence into machinery:
given a batch of source changes (a churn report, or just the touched
term set), it

1. *classifies* every change as **free** (lands in the difference — no
   articulation work) or **affecting** (touches an articulated term,
   or a term whose edit can change the common subclasses a
   single-source conjunction rule bridges);
2. *repairs* the articulation: drops bridges dangling from deleted
   terms, deletes rules that can no longer be applied, and rebuilds
   the articulation from the still-valid rules when that would change
   it;
3. *reports* the work it did in the same graph-op currency the
   benchmarks use.

Generation reads from a source only the existence of the terms rules
name and, for a single-source conjunction rule, the common subclasses
of its conjuncts.  So when the edited source has no such conjunction
rule, no affected term was deleted, and the articulation is still
exactly rule-generated
(:meth:`~repro.core.articulation.Articulation.is_generated`), the
articulation is kept as it is: generation from the same rules would
rebuild it unchanged.  Every other affecting change is repaired by
reconstruction: the still-valid rules are re-run through the
deterministic generator, so the repaired articulation equals the one
generated from scratch with the surviving rule set.  Either way the
*decision* costs a set intersection plus an existence check per
affected term, which is the paper's maintenance win.

The touched terms must include every term the batch added or deleted.
Keeping needs no more: every source term a rule names is a bridge
endpoint, so its deletion is always an affecting change.  A
conjunction rule's common subclasses can also change through an edge
between two unbridged terms: :meth:`ArticulationMaintainer.classify`
catches that when both ends of every added or removed edge are
reported, a deleted term's edges included, as
:func:`~repro.workloads.churn.apply_churn` does.

The maintainer also keeps one :class:`OntologyInferenceEngine` alive
across passes for semantic checks (disjointness violations, §1's
articulation errors): free changes leave it untouched, and after an
affecting change it is *refreshed* — the engine brings each program
part (source edges, articulation edges, bridges, rules) up to date
from what moved, pushes new facts through the Horn evaluator's
incremental delta propagation, and queues disappeared facts (dropped
bridges, dropped rules, shed source edges) as *retractions* for the
DRed overdelete/rederive pass (``inference_mode == "retract"``).  The
whole shrink+grow diff rides one
:meth:`~repro.inference.horn.HornEngine.apply_batch`, so a repair
pays a single coalesced pass however many bridges and rules it moved —
and when the diff's retraction count crosses the engine's measured
rebuild crossover, the engine replays from base instead
(``inference_mode == "batch-rebuild"``).  A full rebuild happens only
when the axiom set itself changed.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.articulation import Articulation, ArticulationGenerator
from repro.core.ontology import qualify
from repro.core.rules import (
    AndOperand,
    ArticulationRuleSet,
    FunctionalRule,
    ImplicationRule,
    Rule,
)
from repro.errors import ArticulationError

__all__ = ["MaintenanceReport", "ArticulationMaintainer"]


@dataclass
class MaintenanceReport:
    """What one maintenance pass classified and did.

    A pass that kept the articulation as it was reports no dropped
    rules or bridges and zero replayed rules and ops, even though it
    counts as work (``required_work``): the cached inference engine is
    still refreshed, because source edges moved.
    """

    free_terms: set[str] = field(default_factory=set)
    affected_terms: set[str] = field(default_factory=set)
    # rules naming a term that no longer exists
    dropped_rules: list[Rule] = field(default_factory=list)
    # bridges the reconstruction no longer generated
    dropped_bridges: int = 0
    # surviving rules re-run through the generator (0 when kept)
    replayed_rules: int = 0
    # graph operations the reconstruction spent (0 when kept)
    repair_ops: int = 0
    # "" / "initial" / "incremental" / "retract" / "replay" /
    # "batch-rebuild" (the shrink+grow diff crossed the engine's
    # measured rebuild crossover) / "rebuild" (axiom change)
    inference_mode: str = ""

    @property
    def required_work(self) -> bool:
        return bool(self.affected_terms)

    def summary(self) -> str:
        return (
            f"free={len(self.free_terms)} affected={len(self.affected_terms)} "
            f"dropped_rules={len(self.dropped_rules)} "
            f"dropped_bridges={self.dropped_bridges} "
            f"replayed={self.replayed_rules} ops={self.repair_ops}"
        )


class ArticulationMaintainer:
    """Keeps one articulation consistent with its evolving sources."""

    def __init__(self, articulation: Articulation) -> None:
        self.articulation = articulation
        self._engine = None  # lazily-built OntologyInferenceEngine
        # ((rule set, its version, articulation name), conjunctions)
        self._conjunctions: tuple | None = None

    # ------------------------------------------------------------------
    # single-source AND rules: generation bridges their conjuncts'
    # common subclasses, so it reads the source's structure there
    # ------------------------------------------------------------------
    def _conjunctions_by_source(self) -> dict[str, list[tuple[str, ...]]]:
        """Source -> the conjunct terms of each single-source AND rule
        over it, cached against the rule set's version."""
        rules = self.articulation.rules
        key = (rules, rules.version, self.articulation.name)
        if self._conjunctions is not None and self._conjunctions[0] == key:
            return self._conjunctions[1]
        conjunctions: dict[str, list[tuple[str, ...]]] = {}
        for rule in rules:
            if not isinstance(rule, ImplicationRule):
                continue
            for step in rule.steps:
                if not isinstance(step, AndOperand):
                    continue
                ontologies = {ref.ontology for ref in step.terms()}
                if len(ontologies) == 1 and not ontologies & {
                    None,
                    self.articulation.name,
                }:
                    conjunctions.setdefault(ontologies.pop(), []).append(
                        tuple(ref.term for ref in step.terms())
                    )
        self._conjunctions = (key, conjunctions)
        return conjunctions

    def _conjunction_region(self, source_name: str) -> set[str]:
        """Terms of one source whose edits can change the common
        subclasses of a single-source AND rule over it: the conjuncts
        and their descendants.  An edit that changes a common-subclass
        set adds or removes a subclass edge whose target lies here."""
        source = self.articulation.sources[source_name]
        region: set[str] = set()
        for conjuncts in self._conjunctions_by_source().get(source_name, ()):
            for term in conjuncts:
                region.add(term)
                if source.has_term(term):
                    region |= source.descendants(term)
        return region

    # ------------------------------------------------------------------
    # classification (the cheap §5.3 decision)
    # ------------------------------------------------------------------
    def classify(
        self, source_name: str, touched_terms: Iterable[str]
    ) -> tuple[set[str], set[str]]:
        """Split touched terms into (free, affected).

        A term is *affected* when a bridge references it — i.e. it lies
        outside the difference of its source with the articulated
        world — or when it lies in the region of a single-source AND
        rule over ``source_name`` (see :meth:`_conjunction_region`).
        Everything else is free: the paper's no-maintenance region.
        The covered-term set is cached on the articulation against its
        bridge stamp, so back-to-back change batches classify without
        re-walking the bridges.
        """
        if source_name not in self.articulation.sources:
            raise ArticulationError(
                f"unknown source ontology {source_name!r}"
            )
        covered = self.articulation.covered_source_terms()
        region = self._conjunction_region(source_name)
        free: set[str] = set()
        affected: set[str] = set()
        for term in touched_terms:
            if term in region or qualify(source_name, term) in covered:
                affected.add(term)
            else:
                free.add(term)
        return free, affected

    # ------------------------------------------------------------------
    # rule validity against the current source state
    # ------------------------------------------------------------------
    def _rule_still_valid(self, rule: Rule) -> bool:
        """Does every source term the rule references still exist?"""
        if isinstance(rule, ImplicationRule):
            refs = list(rule.terms())
        elif isinstance(rule, FunctionalRule):
            refs = [rule.source, rule.target]
        else:  # pragma: no cover - defensive
            return False
        for ref in refs:
            onto_name = ref.ontology
            if onto_name is None or onto_name == self.articulation.name:
                continue  # articulation terms are (re)created on demand
            source = self.articulation.sources.get(onto_name)
            if source is None or not source.has_term(ref.term):
                return False
        return True

    # ------------------------------------------------------------------
    # the maintenance pass
    # ------------------------------------------------------------------
    def apply_source_changes(
        self, source_name: str, touched_terms: Iterable[str]
    ) -> MaintenanceReport:
        """React to a batch of changes in one source.

        ``touched_terms`` must name every term the batch added or
        deleted, and both ends of every edge it added or removed (see
        the module docstring).  Free changes return immediately
        (``repair_ops == 0``).  Affecting changes keep or reconstruct
        the articulation as the module docstring describes.
        """
        report = MaintenanceReport()
        free, affected = self.classify(source_name, touched_terms)
        report.free_terms = free
        report.affected_terms = affected
        if not affected:
            return report  # cached inference engine stays valid as-is
        self._repair(report, source_name)
        return report

    # ------------------------------------------------------------------
    # semantic checks over a reused incremental inference engine
    # ------------------------------------------------------------------
    def inference_engine(self):
        """The maintainer's :class:`OntologyInferenceEngine` (cached).

        Built on first use and *refreshed* — not rebuilt — after
        repairs: additions flow through the Horn engine's incremental
        delta propagation, removals through its DRed retraction pass.
        """
        if self._engine is None:
            from repro.inference.engine import OntologyInferenceEngine

            self._engine = OntologyInferenceEngine.from_articulation(
                self.articulation
            )
        return self._engine

    def semantic_verify(self) -> list[str]:
        """Inference-level invariants; empty list means consistent.

        Reports every term implied into two declared-disjoint classes
        — the articulation errors §1 promises to surface.  The cached
        engine is refreshed first: *free* source changes skip repairs
        but can still add graph edges the engine's program loads, and
        additions are exactly the cheap incremental case.
        """
        engine = self.inference_engine()
        engine.refresh_from_articulation(self.articulation)
        return [
            f"contradiction: {term!r} implied into disjoint "
            f"{class_a!r} / {class_b!r}"
            for term, class_a, class_b in engine.contradictions()
        ]

    def _repair(self, report: MaintenanceReport, source_name: str) -> None:
        if not self._keeps(source_name, report.affected_terms):
            self._reconstruct(report)
        if self._engine is not None:
            refresh = self._engine.refresh_from_articulation(
                self.articulation
            )
            report.inference_mode = str(refresh["mode"])

    def _keeps(self, source_name: str, affected: set[str]) -> bool:
        """Would generation rebuild the articulation unchanged?

        Yes when it is still exactly rule-generated, the edited source
        has no single-source AND rule, and every affected term still
        exists.  In such a source the covered terms are exactly the
        terms rules name, so no named term vanished and generation
        would read what it read before (see the module docstring).
        """
        source = self.articulation.sources[source_name]
        return (
            self.articulation.is_generated()
            and source_name not in self._conjunctions_by_source()
            and all(source.has_term(term) for term in affected)
        )

    def _reconstruct(self, report: MaintenanceReport) -> None:
        articulation = self.articulation
        # The full scan also drops a rule whose term vanished in an
        # earlier, under-reported batch: generation would raise on it.
        surviving = ArticulationRuleSet()
        for rule in articulation.rules:
            if self._rule_still_valid(rule):
                surviving.add(rule)
            else:
                report.dropped_rules.append(rule)

        report.dropped_bridges = len(articulation.bridges)

        generator = ArticulationGenerator(
            articulation.sources.values(), name=articulation.name
        )
        rebuilt = generator.generate(surviving)

        # Swap the rebuilt state into the existing articulation object,
        # so callers holding a reference observe the repair.  The
        # version stamp must move: the swapped-in graphs carry their
        # own mutation counters, which could coincide with the old
        # fingerprint and make cached unified views / inference
        # programs (wrongly) look current.
        articulation.ontology = rebuilt.ontology
        articulation.bridges = rebuilt.bridges
        articulation.functions = rebuilt.functions
        articulation.rules = rebuilt.rules
        articulation.log = rebuilt.log
        articulation.bump_version()
        articulation.mark_generated()

        report.dropped_bridges -= len(rebuilt.bridges)
        report.dropped_bridges = max(report.dropped_bridges, 0)
        report.replayed_rules = len(surviving)
        report.repair_ops = rebuilt.cost()

    def verify(self) -> list[str]:
        """Post-repair invariants; empty list means consistent.

        * no bridge references a missing term;
        * every stored rule is applicable against the current sources.
        """
        issues = [
            f"dangling bridge: {edge}"
            for edge in self.articulation.dangling_bridges()
        ]
        for rule in self.articulation.rules:
            if not self._rule_still_valid(rule):
                issues.append(f"stale rule: {rule}")
        return issues
