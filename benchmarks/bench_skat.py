"""Experiment SKAT: suggestion quality vs lexicon coverage (§2.4).

SKAT proposes bridges between two synthetic sources whose true
alignment is known.  We degrade the lexicon (fraction of concept
families unknown to it) and report precision/recall of the raw
suggestions, plus the DESIGN.md ablation: lexical matchers alone vs
lexical + structural.

The blocking ablation at the bottom measures the inverted-index
candidate generation against the all-pairs loops of
``tests.support.baselines``: identical proposals, candidate-pair
counts proportional to output instead of ``|o1| x |o2|`` (recorded
into ``BENCH_articulation.json``).
"""

from __future__ import annotations

import time

import pytest

from repro.core.rules import ImplicationRule
from repro.lexicon.skat import (
    ExactLabelMatcher,
    SkatEngine,
    StructuralMatcher,
    SynonymMatcher,
)
from repro.workloads.generator import WorkloadConfig, generate_workload

from tests.support.baselines import all_pairs_skat


def make_workload():
    return generate_workload(
        WorkloadConfig(
            universe_size=120,
            n_sources=2,
            terms_per_source=50,
            overlap=0.5,
            identical_fraction=0.3,
            seed=53,
        )
    )


def simple_pairs(candidates) -> set[tuple[str, str]]:
    pairs = set()
    for candidate in candidates:
        rule = candidate.rule
        if isinstance(rule, ImplicationRule) and rule.is_simple():
            refs = list(rule.terms())
            pairs.add((str(refs[0]), str(refs[1])))
    return pairs


def truth_pairs(workload) -> set[tuple[str, str]]:
    pairs = set()
    for t0, t1 in workload.co_referring(0, 1):
        pairs.add((f"src0:{t0}", f"src1:{t1}"))
        pairs.add((f"src1:{t1}", f"src0:{t0}"))
    return pairs


def precision_recall(suggested, truth) -> tuple[float, float]:
    if not suggested:
        return 0.0, 0.0
    hit = len(suggested & truth)
    return hit / len(suggested), hit / len(truth)


@pytest.mark.parametrize("noise", [0.0, 0.3, 0.6])
def test_skat_quality_vs_lexicon_noise(benchmark, table, noise) -> None:
    workload = make_workload()
    lexicon = workload.lexicon(noise=noise, seed=7)
    skat = SkatEngine(
        matchers=[ExactLabelMatcher(), SynonymMatcher(lexicon)]
    )
    candidates = benchmark(
        lambda: skat.propose(workload.sources[0], workload.sources[1])
    )
    precision, recall = precision_recall(
        simple_pairs(candidates), truth_pairs(workload)
    )
    table(
        f"SKAT quality at lexicon noise={noise}",
        ["metric", "value"],
        [
            ("suggestions", len(candidates)),
            ("precision", f"{precision:.2f}"),
            ("recall", f"{recall:.2f}"),
        ],
    )
    # Synthetic labels embed concept ids, so lexical matches are exact:
    # precision stays perfect; recall degrades with noise.
    assert precision == pytest.approx(1.0)
    if noise == 0.0:
        assert recall > 0.9


def test_ablation_structural_matcher(benchmark, table) -> None:
    """Lexical-only vs lexical+structural at heavy lexicon noise: the
    structural matcher recovers pairs the lexicon lost."""
    workload = make_workload()
    noisy_lexicon = workload.lexicon(noise=0.6, seed=7)
    truth = truth_pairs(workload)

    lexical = [ExactLabelMatcher(), SynonymMatcher(noisy_lexicon)]
    skat_lexical = SkatEngine(matchers=list(lexical))
    benchmark(
        lambda: skat_lexical.propose(workload.sources[0],
                                     workload.sources[1])
    )
    skat_full = SkatEngine(
        matchers=[*lexical, StructuralMatcher(seeds=lexical)]
    )

    pairs_lexical = simple_pairs(
        skat_lexical.propose(workload.sources[0], workload.sources[1])
    )
    pairs_full = simple_pairs(
        skat_full.propose(workload.sources[0], workload.sources[1])
    )
    _, recall_lexical = precision_recall(pairs_lexical, truth)
    precision_full, recall_full = precision_recall(pairs_full, truth)

    table(
        "SKAT ablation: +structural matcher (lexicon noise 0.6)",
        ["pipeline", "recall", "precision"],
        [
            ("lexical only", f"{recall_lexical:.2f}", "1.00"),
            ("lexical + structural", f"{recall_full:.2f}",
             f"{precision_full:.2f}"),
        ],
    )
    assert recall_full >= recall_lexical


def sized_workload(terms_per_source: int):
    return generate_workload(
        WorkloadConfig(
            universe_size=terms_per_source * 3,
            n_sources=2,
            terms_per_source=terms_per_source,
            overlap=0.5,
            identical_fraction=0.3,
            seed=53,
        )
    )


def test_blocked_vs_all_pairs(table, record_bench) -> None:
    """The acceptance ablation: blocked candidate generation against
    the all-pairs baseline at growing source sizes.  Proposals must be
    identical; the pairs the blocked pipeline examines must stay a
    small, shrinking fraction of |o1| x |o2|."""
    rows = []
    series = {}
    for terms in (50, 100, 200):
        workload = sized_workload(terms)
        lexicon = workload.lexicon(noise=0.0, seed=7)
        o1, o2 = workload.sources

        blocked = SkatEngine.default(lexicon)
        scan = all_pairs_skat(lexicon)

        t0 = time.perf_counter()
        scan_proposals = scan.propose(o1, o2)
        t_scan = time.perf_counter() - t0
        t0 = time.perf_counter()
        blocked_proposals = blocked.propose(o1, o2)
        t_blocked = time.perf_counter() - t0

        assert [
            (c.key(), c.score, c.matcher) for c in blocked_proposals
        ] == [(c.key(), c.score, c.matcher) for c in scan_proposals]

        all_pairs = o1.term_count() * o2.term_count()
        blocked_pairs = blocked.last_stats["candidate_pairs"]
        scan_pairs = scan.last_stats["candidate_pairs"]
        fraction = blocked_pairs / all_pairs
        series[terms] = {
            "all_pairs_bound": all_pairs,
            "blocked_pairs": blocked_pairs,
            "scan_pairs": scan_pairs,
            "pair_fraction": round(fraction, 4),
            "pairs_by_matcher": blocked.last_stats["pairs_by_matcher"],
            "blocked_ms": round(1e3 * t_blocked, 2),
            "scan_ms": round(1e3 * t_scan, 2),
            "proposals": len(blocked_proposals),
            "speedup": round(t_scan / t_blocked, 1),
        }
        rows.append(
            (
                terms,
                all_pairs,
                scan_pairs,
                blocked_pairs,
                f"{100 * fraction:.1f}%",
                f"{1e3 * t_scan:.1f}ms",
                f"{1e3 * t_blocked:.1f}ms",
            )
        )
    table(
        "SKAT blocked vs all-pairs candidate generation",
        ["terms/src", "|o1|x|o2|", "scan pairs", "blocked pairs",
         "fraction", "scan t", "blocked t"],
        rows,
    )
    record_bench("skat", {"blocked_vs_all_pairs": series})
    # Sub-quadratic growth: the examined fraction of the cross product
    # must shrink as the sources grow, and stay well below it.
    fractions = [series[t]["pair_fraction"] for t in (50, 100, 200)]
    assert fractions[-1] < fractions[0]
    assert fractions[-1] < 0.2, (
        f"blocked pipeline examined {100 * fractions[-1]:.1f}% of the "
        "cross product at the largest size"
    )
