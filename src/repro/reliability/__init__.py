"""Reliability layer: retry policy and churn journal.

Batched churn write-ahead journals its diffs so a process killed
mid-batch recovers to the last consistent fixpoint, and the SQLite
backend waits out and retries locked databases.  This package holds
the two shared pieces:

* :class:`~repro.reliability.policy.RetryPolicy` — deterministic
  bounded retry/backoff knobs;
* :class:`~repro.reliability.journal.ChurnJournal` — the SQLite
  write-ahead log behind crash-safe :meth:`HornEngine.apply_batch`.
"""

from repro.reliability.journal import ChurnJournal, JournalError
from repro.reliability.policy import SQLITE_RETRY_POLICY, RetryPolicy

__all__ = [
    "SQLITE_RETRY_POLICY",
    "ChurnJournal",
    "JournalError",
    "RetryPolicy",
]
