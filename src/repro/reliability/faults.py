"""Deterministic, seedable fault injection for chaos testing.

A :class:`FaultPlan` is the single source of simulated trouble in the
runtime: the SQLite backend asks it whether the next statement should
see a locked database;
:meth:`~repro.inference.horn.HornEngine.apply_batch` asks it whether
the process should "die" between journaling a diff and applying it.
Every decision comes from a per-site :class:`random.Random` stream
derived from one seed, so a chaos run replays bit-for-bit: same seed,
same faults, same recovery path.

Fault *sites* (the strings the hooks draw on):

========================  ====================================================
``sqlite_lock``           the next statement raises ``OperationalError:
                          database is locked`` before reaching SQLite
``batch_crash``           ``apply_batch`` aborts after the write-ahead
                          journal record, before mutating the engine
========================  ====================================================

Plans are either *rate-based* (each draw fires with probability
``rates[site]``) or *scripted* (draw numbers listed in
``script[site]`` fire, everything else does not); ``max_fires`` caps
the total fires per site so a hostile rate cannot starve a campaign
forever.  ``fired``/``draws`` counters make tests and the chaos
harness report injected trouble honestly.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Mapping

from repro.errors import OnionError

__all__ = [
    "FAULT_SITES",
    "FaultInjected",
    "FaultPlan",
]

FAULT_SITES = ("sqlite_lock", "batch_crash")


class FaultInjected(OnionError):
    """An injected fault fired (never raised outside chaos testing)."""


class FaultPlan:
    """A seeded schedule of injected faults across the runtime.

    ``rates`` maps fault sites to per-draw probabilities; ``script``
    maps sites to the exact (0-based) draw indexes that fire and takes
    precedence over ``rates`` for the sites it names.  Unknown site
    names are rejected up front — a typoed site would otherwise be a
    chaos test that silently tests nothing.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        rates: Mapping[str, float] | None = None,
        script: Mapping[str, Iterable[int]] | None = None,
        max_fires: int | None = None,
    ) -> None:
        self.seed = seed
        self.rates = dict(rates or {})
        self.script = {
            site: frozenset(indexes)
            for site, indexes in (script or {}).items()
        }
        for site in (*self.rates, *self.script):
            if site not in FAULT_SITES:
                raise OnionError(
                    f"unknown fault site {site!r}; "
                    f"known sites: {', '.join(FAULT_SITES)}"
                )
        self.max_fires = max_fires
        # Independent per-site streams: drawing at one site never
        # shifts another site's sequence, so adding a hook upstream
        # cannot silently reschedule every fault downstream.
        self._rngs = {
            site: random.Random(f"{seed}:{site}") for site in FAULT_SITES
        }
        self.draws: dict[str, int] = {site: 0 for site in FAULT_SITES}
        self.fired: dict[str, int] = {site: 0 for site in FAULT_SITES}

    @classmethod
    def scripted(
        cls, script: Mapping[str, Iterable[int]], **kwargs: object
    ) -> "FaultPlan":
        """A plan that fires exactly the listed draws and nothing else."""
        return cls(script=script, **kwargs)  # type: ignore[arg-type]

    def fire(self, site: str) -> bool:
        """Consume one draw at ``site``; True when the fault fires."""
        if site not in FAULT_SITES:
            raise OnionError(f"unknown fault site {site!r}")
        index = self.draws[site]
        self.draws[site] = index + 1
        if site in self.script:
            fires = index in self.script[site]
        else:
            rate = self.rates.get(site, 0.0)
            # the stream advances even when it cannot fire, so the
            # schedule is a pure function of (seed, draw index)
            fires = self._rngs[site].random() < rate if rate > 0 else False
        if fires and (
            self.max_fires is not None
            and self.fired[site] >= self.max_fires
        ):
            fires = False
        if fires:
            self.fired[site] = self.fired[site] + 1
        return fires

    # ------------------------------------------------------------------
    # the hooks the runtime draws on
    # ------------------------------------------------------------------
    def sqlite_fault(self) -> bool:
        """Should the next SQLite statement see a locked database?"""
        return self.fire("sqlite_lock")

    def batch_crash(self) -> bool:
        """Should ``apply_batch`` die after journaling, before mutating?"""
        return self.fire("batch_crash")

    def summary(self) -> dict[str, dict[str, int]]:
        """Non-zero draw/fire counters, for reports and assertions."""
        return {
            "draws": {s: n for s, n in self.draws.items() if n},
            "fired": {s: n for s, n in self.fired.items() if n},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fired = sum(self.fired.values())
        return (
            f"<FaultPlan seed={self.seed} fired={fired} "
            f"rates={self.rates} script="
            f"{ {s: sorted(v) for s, v in self.script.items()} }>"
        )
