"""Articulation-as-a-service (ROADMAP item 1).

The serving subsystem turns the in-process ONION stack into a small
concurrent network service:

* :mod:`repro.serving.service` — the shared-state core: one
  readers-writer-locked :class:`ArticulationService` owning the
  articulation, engines, result cache and session table;
* :mod:`repro.serving.session` — copy-free snapshot sessions that
  pin the published store;
* :mod:`repro.serving.cache` — the server-wide query-result LRU keyed
  on articulation fingerprint + publication counter;
* :mod:`repro.serving.protocol` — the JSON / JSON-lines wire codec;
* :mod:`repro.serving.server` — the stdlib threaded HTTP front.
"""

from repro.serving.cache import QueryResultCache
from repro.serving.server import ArticulationServer
from repro.serving.service import ArticulationService, load_paper_workload
from repro.serving.session import Session, SessionManager

__all__ = [
    "ArticulationServer",
    "ArticulationService",
    "QueryResultCache",
    "Session",
    "SessionManager",
    "load_paper_workload",
]
