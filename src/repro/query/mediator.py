"""Automatic derivation of ODMG-compliant mediators (paper §1, §2.2).

"Our framework ... will derive ODMG-compliant mediators
automatically."  And §2.2: the expert may "direct the system to
generate wrappers for inclusion in concrete applications using the
onion query engine."

A **mediator specification** is everything an application needs to
program against the articulation as if it were a single ODMG source:

* an ODL interface per articulation class, with the attributes
  available for it (the union of attributes declared on the bridged
  source classes, normalized to lowercase);
* a mapping table: articulation class -> per-source scan lists (the
  same fan-out the query reformulator computes) plus the conversion
  chain for each attribute;
* the articulation's internal SubclassOf structure as ODL inheritance.

:func:`generate_mediator` derives the spec from an articulation alone
— no hand-written views, which is the §1 contrast with Infomaster-
style mediation.
"""

from __future__ import annotations

import logging
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.core.articulation import Articulation
from repro.core.ontology import qualify, split_qualified
from repro.core.relations import ATTRIBUTE_OF, SUBCLASS_OF
from repro.core.unified import UnifiedOntology
from repro.errors import QueryError
from repro.query.ast import Query
from repro.query.reformulate import SourcePlan, reformulate

__all__ = ["MediatorClass", "MediatorSpec", "generate_mediator"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MediatorClass:
    """One exported articulation class and how to answer for it."""

    name: str
    superclasses: tuple[str, ...]
    attributes: tuple[str, ...]
    # source name -> local class terms to scan (with subclass closure)
    scans: Mapping[str, tuple[str, ...]]
    # attribute -> human-readable conversion description per source
    conversions: Mapping[str, tuple[str, ...]]

    def reachable_sources(self) -> tuple[str, ...]:
        return tuple(sorted(self.scans))


@dataclass(frozen=True)
class MediatorSpec:
    """A full mediator: exported classes plus provenance."""

    articulation_name: str
    classes: tuple[MediatorClass, ...]
    sources: tuple[str, ...]

    def get(self, class_name: str) -> MediatorClass | None:
        for cls in self.classes:
            if cls.name == class_name:
                return cls
        return None

    # ------------------------------------------------------------------
    # ODL rendering
    # ------------------------------------------------------------------
    def to_odl(self) -> str:
        """Render as an ODMG ODL module, mappings as comments."""
        lines = [f"module {self.articulation_name} {{"]
        for cls in self.classes:
            inherit = (
                f" : {', '.join(cls.superclasses)}"
                if cls.superclasses
                else ""
            )
            lines.append(f"  interface {cls.name}{inherit} {{")
            for attribute in cls.attributes:
                lines.append(f"    attribute any {attribute};")
            lines.append("  };")
            for source, classes in sorted(cls.scans.items()):
                lines.append(
                    f"  // {cls.name} <- {source}: {', '.join(classes)}"
                )
            for attribute, chains in sorted(cls.conversions.items()):
                for chain in chains:
                    lines.append(f"  // convert {attribute}: {chain}")
        lines.append("};")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MediatorSpec {self.articulation_name!r} "
            f"classes={len(self.classes)} sources={list(self.sources)}>"
        )


def _attributes_for(
    articulation: Articulation, plans: list[SourcePlan]
) -> tuple[str, ...]:
    """Union of attribute terms declared on the scanned source classes
    (including inherited ones), lowercased."""
    attributes: set[str] = set()
    for plan in plans:
        source = articulation.sources[plan.source]
        code = ATTRIBUTE_OF.code
        for cls in plan.classes:
            terms = {cls} | source.ancestors(cls) | source.descendants(cls)
            for term in terms:
                attributes.update(
                    a.lower() for a in source.graph.predecessors(term, code)
                )
    return tuple(sorted(attributes))


def generate_mediator(articulation: Articulation) -> MediatorSpec:
    """Derive the mediator specification from an articulation.

    Classes with no bridged source (pure structural terms like the
    synthesized ``Euro`` unit) are exported without scans — they exist
    for typing, not for extents.
    """
    unified = UnifiedOntology(articulation)
    classes: list[MediatorClass] = []
    for term in sorted(articulation.ontology.terms()):
        superclasses = tuple(
            sorted(articulation.ontology.superclasses(term))
        )
        # Every term is a distinct one-shot query, so this calls the
        # logical layer directly.
        try:
            plans = reformulate(
                Query.over(qualify(articulation.name, term)), unified
            )
        except QueryError as exc:
            # unplannable term (no bridged source): exported without
            # scans.  Anything else — a KeyError, a bug in the planner
            # — must surface, not silently produce an empty mediator.
            logger.debug("term %r exported without scans: %s", term, exc)
            plans = []
        scans = {
            plan.source: plan.classes for plan in plans
        }
        # Conversion descriptions come from a SELECT * style plan.
        conversions: dict[str, list[str]] = {}
        for plan in plans:
            for attribute, conversion in plan.conversions.items():
                conversions.setdefault(attribute, []).append(
                    conversion.describe()
                )
        classes.append(
            MediatorClass(
                name=term,
                superclasses=superclasses,
                attributes=_attributes_for(articulation, plans),
                scans=scans,
                conversions={
                    attr: tuple(sorted(chains))
                    for attr, chains in conversions.items()
                },
            )
        )
    return MediatorSpec(
        articulation_name=articulation.name,
        classes=tuple(classes),
        sources=tuple(sorted(articulation.sources)),
    )
