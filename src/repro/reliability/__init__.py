"""Reliability layer: the churn journal.

Batched churn write-ahead journals its diffs so a process killed
mid-batch recovers to the last consistent fixpoint:
:class:`~repro.reliability.journal.ChurnJournal` is the SQLite
write-ahead log behind crash-safe :meth:`HornEngine.apply_batch`.
"""

from repro.reliability.journal import ChurnJournal, JournalError

__all__ = [
    "ChurnJournal",
    "JournalError",
]
