"""Reliability layer: fault injection, retry policy, churn journal.

Batched churn write-ahead journals its diffs so a crash mid-batch
replays to the last consistent fixpoint, and the SQLite backend waits
out and retries locked databases.  This package holds the three
shared pieces:

* :class:`~repro.reliability.policy.RetryPolicy` — deterministic
  bounded retry/backoff knobs;
* :class:`~repro.reliability.faults.FaultPlan` — seeded, replayable
  fault injection threaded through test-only hooks in the engine and
  the backend;
* :class:`~repro.reliability.journal.ChurnJournal` — the write-ahead
  log behind crash-safe :meth:`HornEngine.apply_batch`.
"""

from repro.reliability.faults import FAULT_SITES, FaultInjected, FaultPlan
from repro.reliability.journal import ChurnJournal, JournalError
from repro.reliability.policy import SQLITE_RETRY_POLICY, RetryPolicy

__all__ = [
    "FAULT_SITES",
    "SQLITE_RETRY_POLICY",
    "ChurnJournal",
    "FaultInjected",
    "FaultPlan",
    "JournalError",
    "RetryPolicy",
]
