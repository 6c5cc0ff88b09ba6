"""A write-ahead journal making batched churn crash-safe.

:meth:`~repro.inference.horn.HornEngine.apply_batch` with a journal
attached records the coalesced shrink+grow diff durably *before*
touching the engine, and marks it committed once the batch reached its
fixpoint.  A process that dies anywhere in between loses only volatile
state: :meth:`ChurnJournal.recover` folds the last snapshot plus every
journaled batch — committed or not — back into a fresh engine and
saturates it, landing exactly on the fixpoint the interrupted batch
was driving toward.  The DB-nets line of work grounds the semantics:
a batch is a transaction whose effects either fully appear (the begin
record is durable, so recovery replays it) or never started (the
record never made it to disk, so the base state stands).

The journal is a JSON-lines file with three record types::

    {"type": "snapshot", "facts": [...], "clauses": [...]}
    {"type": "begin", "seq": N, "adds": [...], "retracts": [...]}
    {"type": "commit", "seq": N}

Every append is flushed and fsynced before ``apply_batch`` proceeds.
Reads tolerate a torn tail — a half-written last line (the crash
happened mid-append) is discarded, which is the correct transactional
outcome: an un-durable begin record is a batch that never happened.
The next append *truncates* that torn tail before writing (rather
than sealing it into the file with a newline), which keeps the format
unambiguous: an undecodable line **followed by valid records** can
only mean genuine mid-file corruption (disk rot, a compaction crash
racing an append).  Reads then trust only the contiguous prefix —
replaying diffs on top of a hole would apply them to the wrong base —
surface the dropped record count as ``truncated_records``, and
compact the file back to the trusted prefix so later appends land on
clean ground.  :meth:`snapshot` compacts the file (atomically, via
rename) so long campaigns do not replay their entire history on
recovery.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import OnionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.inference.horn import Atom, HornEngine

__all__ = ["ChurnJournal", "JournalError"]


class JournalError(OnionError):
    """The churn journal is unusable (bad record shape, bad path)."""


def _atom_to_json(atom: "Atom") -> list[str]:
    return list(atom)


def _atom_from_json(parts: object) -> "Atom":
    if not isinstance(parts, list) or not all(
        isinstance(p, str) for p in parts
    ):
        raise JournalError(f"malformed atom in journal: {parts!r}")
    return tuple(parts)


def _clause_to_json(clause) -> dict[str, object]:
    return {
        "head": list(clause.head),
        "body": [list(atom) for atom in clause.body],
    }


def _clause_from_json(payload: object):
    from repro.core.rules import HornClause

    if not isinstance(payload, dict):
        raise JournalError(f"malformed clause in journal: {payload!r}")
    head = _atom_from_json(payload.get("head"))
    body = payload.get("body")
    if not isinstance(body, list):
        raise JournalError(f"malformed clause body in journal: {payload!r}")
    return HornClause(head, tuple(_atom_from_json(atom) for atom in body))


class ChurnJournal:
    """Durable intent log for :meth:`HornEngine.apply_batch` diffs."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._next_seq = 1
        records, truncated = self._scan()
        #: records dropped because they followed mid-file corruption
        #: (0 for a clean file or a merely torn tail)
        self.truncated_records = truncated
        if truncated:
            # Compact to the trusted prefix now: without this, every
            # *future* append would also sit after the corruption and
            # be unreadable to the next open.
            self._rewrite(records)
        for record in records:
            if record.get("type") == "begin":
                seq = record.get("seq")
                if isinstance(seq, int) and seq >= self._next_seq:
                    self._next_seq = seq + 1

    # ------------------------------------------------------------------
    # the durable write path
    # ------------------------------------------------------------------
    def _append(self, record: dict[str, object]) -> None:
        line = json.dumps(record, sort_keys=True)
        self._heal_torn_tail()
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def _heal_torn_tail(self) -> None:
        """Cut off a half-written final line before appending.

        The torn line was never durable, so removing it is sound and
        idempotent.  Truncating (instead of sealing the garbage in
        with a newline) is what keeps mid-file corruption detectable:
        in a healthy journal no valid record ever follows an
        undecodable line.
        """
        try:
            with open(self.path, "rb+") as handle:
                handle.seek(0, os.SEEK_END)
                if handle.tell() == 0:
                    return
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) == b"\n":
                    return
                handle.seek(0)
                data = handle.read()
                handle.truncate(data.rfind(b"\n") + 1)
                handle.flush()
                os.fsync(handle.fileno())
        except FileNotFoundError:
            return

    def begin(
        self, adds: list["Atom"], retracts: list["Atom"]
    ) -> int:
        """Durably record a batch's full diff; returns its sequence id."""
        seq = self._next_seq
        self._next_seq += 1
        self._append(
            {
                "type": "begin",
                "seq": seq,
                "adds": [_atom_to_json(a) for a in adds],
                "retracts": [_atom_to_json(a) for a in retracts],
            }
        )
        return seq

    def commit(self, seq: int) -> None:
        """Mark a journaled batch as fully applied (fixpoint reached)."""
        self._append({"type": "commit", "seq": seq})

    def snapshot(self, engine: "HornEngine") -> None:
        """Compact: replace the log with the engine's current program.

        Atomic (write-temp-then-rename), so a crash mid-snapshot leaves
        the previous journal intact.  Call after a batch commits; the
        snapshot plus later records fully determine the engine.
        """
        self.snapshot_state(engine.base_facts(), engine.clauses())

    def snapshot_state(self, facts, clauses=()) -> int:
        """Compact to an explicit ``(facts, clauses)`` program.

        The engine-free flavor of :meth:`snapshot`, used by the bulk
        ingest path — a just-loaded fact base has no engine yet, but
        recovery must still find one snapshot that fully determines
        it.  Returns the number of facts written.
        """
        atoms = sorted(facts)
        record = {
            "type": "snapshot",
            "facts": [_atom_to_json(a) for a in atoms],
            "clauses": [_clause_to_json(c) for c in clauses],
        }
        self._rewrite([record])
        return len(atoms)

    def _rewrite(self, records: list[dict[str, object]]) -> None:
        """Atomically replace the file with exactly these records."""
        temp = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(temp, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, self.path)

    # ------------------------------------------------------------------
    # reading the log back
    # ------------------------------------------------------------------
    def _scan(self) -> tuple[list[dict[str, object]], int]:
        """(contiguous-prefix records, records dropped after corruption).

        Only the prefix before the first undecodable line is trusted:
        diffs are replayed in order onto the state the earlier records
        built, so a record *after* a hole would be applied to the
        wrong base.  A torn tail — garbage with nothing decodable
        after it — drops silently (count 0): that record was never
        durable, so nothing was lost.
        """
        records: list[dict[str, object]] = []
        truncated = 0
        corrupted = False
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return records, truncated
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                corrupted = True
                continue
            if not (
                isinstance(record, dict)
                and isinstance(record.get("type"), str)
            ):
                corrupted = True
                continue
            if corrupted:
                truncated += 1  # durable but unreachable: after a hole
                continue
            records.append(record)
        return records, truncated

    def _load(self) -> list[dict[str, object]]:
        """The trusted (contiguous-prefix) records, in order."""
        records, _ = self._scan()
        return records

    def records(self) -> list[dict[str, object]]:
        return self._load()

    def pending(self) -> list[int]:
        """Sequence ids journaled but never committed (crash victims)."""
        begun: list[int] = []
        committed: set[int] = set()
        for record in self._load():
            if record.get("type") == "begin":
                begun.append(int(record["seq"]))  # type: ignore[arg-type]
            elif record.get("type") == "commit":
                committed.add(int(record["seq"]))  # type: ignore[arg-type]
        return [seq for seq in begun if seq not in committed]

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self, **engine_kwargs: object) -> tuple["HornEngine", dict]:
        """Rebuild an engine at the journal's last consistent fixpoint.

        Folds the latest snapshot and every durable batch — committed
        and pending alike; a durable begin record is a promise the diff
        survives the crash — into a fresh :class:`HornEngine`
        (constructed with ``engine_kwargs``, e.g. ``storage="paged"``),
        saturates it, then commits the replayed pending batches so a
        second recovery is a no-op.  Returns the engine and a report:
        ``batches`` (diffs folded), ``replayed_pending`` (how many were
        crash victims), ``facts`` (base facts after the fold), and
        ``truncated_records`` (durable records dropped because they
        sat beyond mid-file corruption — recovery stops at the last
        contiguous prefix).
        """
        from repro.inference.horn import HornEngine

        records, truncated = self._scan()
        if truncated:
            # same healing as __init__: make the surviving prefix the
            # whole file so later appends stay readable
            self._rewrite(records)
            self.truncated_records = truncated

        facts: set[Atom] = set()
        clauses: list = []
        batches = 0
        committed: set[int] = set()
        begun: list[int] = []
        for record in records:
            kind = record.get("type")
            if kind == "snapshot":
                facts = {
                    _atom_from_json(a) for a in record.get("facts", [])
                }
                clauses = [
                    _clause_from_json(c)
                    for c in record.get("clauses", [])
                ]
                batches = 0
                committed.clear()
                begun.clear()
            elif kind == "begin":
                batches += 1
                begun.append(int(record["seq"]))  # type: ignore[arg-type]
                # retract-then-add: the order apply_batch applies diffs
                for atom in record.get("retracts", []):
                    facts.discard(_atom_from_json(atom))
                for atom in record.get("adds", []):
                    facts.add(_atom_from_json(atom))
            elif kind == "commit":
                committed.add(int(record["seq"]))  # type: ignore[arg-type]
        engine = HornEngine(journal=self, **engine_kwargs)  # type: ignore[arg-type]
        engine.add_clauses(clauses)
        engine.add_facts(sorted(facts))
        engine.saturate()
        pending = [seq for seq in begun if seq not in committed]
        for seq in pending:
            self.commit(seq)
        return engine, {
            "batches": batches,
            "replayed_pending": len(pending),
            "facts": len(facts),
            "truncated_records": self.truncated_records,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ChurnJournal path={str(self.path)!r}>"
