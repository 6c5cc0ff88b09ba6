"""Synthetic ontology families with known ground-truth alignment.

The scalability, maintenance, composition and SKAT-quality experiments
need many source ontologies whose semantic overlap is *controlled* and
*known*.  The generator builds them from a shared **concept universe**:

1. a random concept tree of ``universe_size`` concepts (each concept a
   node with a base name and a synonym family for per-source variants);
2. per source, a sample of concepts — a fraction ``overlap`` drawn
   from a designated shared core (concepts every source carries) and
   the rest private — connected by SubclassOf edges to the nearest
   sampled ancestor, plus attribute terms;
3. per-source *labels* for each concept: the base name, or a synonym
   variant, so sources disagree on vocabulary the way real ontologies
   do (``identical_fraction`` controls how often labels match exactly);
4. the ground-truth alignment (which source terms co-refer), exportable
   as articulation rules, as a baseline alignment, or as a lexicon for
   SKAT (optionally degraded with ``noise`` for the SKAT benchmark).

Everything is deterministic in ``seed``.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.ontology import Ontology, qualify
from repro.core.rules import (
    ArticulationRuleSet,
    ImplicationRule,
    TermOperand,
    TermRef,
)
from repro.errors import OnionError
from repro.lexicon.wordnet import MiniWordNet

__all__ = [
    "WorkloadConfig",
    "Concept",
    "SyntheticWorkload",
    "generate_workload",
]

# Label variants per concept: base plus distinct per-variant suffix
# morphology, so normalized forms differ across variants.
_VARIANT_STYLES = (
    "{base}",
    "{base}Item",
    "{base}Entry",
    "The{base}",
    "{base}Obj",
    "{base}Rec",
    "{base}Node",
    "{base}Elem",
)


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of one synthetic workload."""

    universe_size: int = 200
    n_sources: int = 2
    terms_per_source: int = 60
    overlap: float = 0.3  # fraction of each source drawn from the shared core
    attr_fraction: float = 0.25  # fraction of universe concepts that are attributes
    identical_fraction: float = 0.5  # shared concepts labeled identically
    seed: int = 7

    def __post_init__(self) -> None:
        if self.universe_size < 2:
            raise OnionError("universe_size must be at least 2")
        if not 0.0 <= self.overlap <= 1.0:
            raise OnionError("overlap must be in [0, 1]")
        if not 0.0 <= self.identical_fraction <= 1.0:
            raise OnionError("identical_fraction must be in [0, 1]")
        if self.terms_per_source > self.universe_size:
            raise OnionError(
                "terms_per_source cannot exceed universe_size"
            )
        if self.n_sources < 1:
            raise OnionError("need at least one source")


@dataclass(frozen=True)
class Concept:
    """One universe concept: identity, tree parent, role, labels."""

    index: int
    parent: int | None
    is_attribute: bool
    labels: tuple[str, ...]  # one label per variant style, labels[0] = base

    @property
    def base(self) -> str:
        return self.labels[0]


@dataclass
class SyntheticWorkload:
    """The generated sources plus everything derived from the truth."""

    config: WorkloadConfig
    concepts: list[Concept]
    sources: list[Ontology]
    # per source: concept index -> the label used in that source
    labels_by_source: list[dict[int, str]]
    shared_core: frozenset[int]

    # ------------------------------------------------------------------
    # ground truth exports
    # ------------------------------------------------------------------
    def co_referring(self, i: int, j: int) -> list[tuple[str, str]]:
        """(term_i, term_j) pairs denoting the same concept."""
        labels_i = self.labels_by_source[i]
        labels_j = self.labels_by_source[j]
        common = sorted(set(labels_i) & set(labels_j))
        return [(labels_i[c], labels_j[c]) for c in common]

    def truth_rules(
        self, i: int, j: int, *, bidirectional: bool = True
    ) -> ArticulationRuleSet:
        """Rules aligning every shared concept between two sources.

        ``bidirectional`` (default) states both directions — full
        equivalence, what a perfectly informed expert would assert.
        One direction suffices for interoperation (the generator's
        simple-rule semantics already creates an articulation copy
        equivalent to the consequence term), and is what the
        scalability experiments use as the minimal rule set.
        """
        rules = ArticulationRuleSet()
        name_i = self.sources[i].name
        name_j = self.sources[j].name
        for term_i, term_j in self.co_referring(i, j):
            rules.add(
                ImplicationRule(
                    (
                        TermOperand(TermRef(name_i, term_i)),
                        TermOperand(TermRef(name_j, term_j)),
                    ),
                    source="truth",
                )
            )
            if bidirectional:
                rules.add(
                    ImplicationRule(
                        (
                            TermOperand(TermRef(name_j, term_j)),
                            TermOperand(TermRef(name_i, term_i)),
                        ),
                        source="truth",
                    )
                )
        return rules

    def truth_alignment(self, i: int, j: int) -> list[tuple[str, str]]:
        """Qualified co-reference pairs, for the global-schema baseline."""
        name_i = self.sources[i].name
        name_j = self.sources[j].name
        return [
            (qualify(name_i, term_i), qualify(name_j, term_j))
            for term_i, term_j in self.co_referring(i, j)
        ]

    def lexicon(self, *, noise: float = 0.0, seed: int = 0) -> MiniWordNet:
        """A lexicon whose synsets are the concept synonym families.

        ``noise`` drops that fraction of concepts from the lexicon
        entirely — simulating vocabulary WordNet does not know — which
        degrades SKAT's synonym matcher in a controlled way.
        """
        rng = random.Random(seed)
        lexicon = MiniWordNet()
        for concept in self.concepts:
            if noise > 0.0 and rng.random() < noise:
                continue
            parent = (
                f"c{concept.parent}"
                if concept.parent is not None
                else None
            )
            lexicon.add_synset(
                f"c{concept.index}",
                list(dict.fromkeys(concept.labels)),
                hypernyms=(parent,) if parent else (),
            )
        return lexicon


def _build_universe(config: WorkloadConfig, rng: random.Random) -> list[Concept]:
    concepts: list[Concept] = []
    for index in range(config.universe_size):
        parent = rng.randrange(index) if index > 0 else None
        is_attribute = index > 0 and rng.random() < config.attr_fraction
        base = f"Concept{index}"
        labels = tuple(
            style.format(base=base) for style in _VARIANT_STYLES
        )
        concepts.append(Concept(index, parent, is_attribute, labels))
    return concepts


def _sample_source_concepts(
    config: WorkloadConfig,
    rng: random.Random,
    shared_core: list[int],
) -> list[int]:
    n_shared = min(
        len(shared_core), int(round(config.terms_per_source * config.overlap))
    )
    chosen = set(rng.sample(shared_core, n_shared)) if n_shared else set()
    private_pool = [
        index
        for index in range(config.universe_size)
        if index not in chosen
    ]
    n_private = config.terms_per_source - len(chosen)
    chosen.update(rng.sample(private_pool, n_private))
    return sorted(chosen)


def _nearest_sampled_ancestor(
    concept: Concept, concepts: list[Concept], sampled: set[int]
) -> int | None:
    cursor = concept.parent
    while cursor is not None:
        if cursor in sampled:
            return cursor
        cursor = concepts[cursor].parent
    return None


def generate_workload(config: WorkloadConfig) -> SyntheticWorkload:
    """Build the universe and every source ontology."""
    rng = random.Random(config.seed)
    concepts = _build_universe(config, rng)

    # The shared core: concepts available for cross-source overlap.
    core_size = max(1, int(config.universe_size * 0.5))
    shared_core = sorted(rng.sample(range(config.universe_size), core_size))

    sources: list[Ontology] = []
    labels_by_source: list[dict[int, str]] = []
    for source_index in range(config.n_sources):
        source_rng = random.Random(config.seed * 1000 + source_index)
        sampled = set(
            _sample_source_concepts(config, source_rng, shared_core)
        )
        onto = Ontology(f"src{source_index}")
        labels: dict[int, str] = {}
        for index in sorted(sampled):
            concept = concepts[index]
            if source_rng.random() < config.identical_fraction:
                label = concept.base
            else:
                variant = 1 + (
                    (index + source_index) % (len(concept.labels) - 1)
                )
                label = concept.labels[variant]
            # Synonym variants of two different concepts never collide
            # (labels embed the concept index), so ensure_term is safe.
            onto.ensure_term(label)
            labels[index] = label
        for index in sorted(sampled):
            concept = concepts[index]
            ancestor = _nearest_sampled_ancestor(concept, concepts, sampled)
            if ancestor is None:
                continue
            if concept.is_attribute:
                onto.add_attribute(labels[index], labels[ancestor])
            else:
                onto.add_subclass(labels[index], labels[ancestor])
        sources.append(onto)
        labels_by_source.append(labels)

    return SyntheticWorkload(
        config=config,
        concepts=concepts,
        sources=sources,
        labels_by_source=labels_by_source,
        shared_core=frozenset(shared_core),
    )
