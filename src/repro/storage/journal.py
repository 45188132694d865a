"""Protocol message journal.

"For non-repudiation, and recovery, protocol messages are held in local
persistent storage at sender and recipient" (section 4.2).  The journal
records every protocol message a party sends or receives, grouped by
protocol run, and tracks which runs are still open.  After a crash, a
recovering node replays its open runs from the journal and resumes
participation.

Records are stored in record format v2 (see
:class:`~repro.storage.backends.PartIndex`): a signed part already held
by the journal, or by its party's evidence log, is stored as a reference
to it by content digest.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from repro.obs.hooks import NULL_INSTRUMENTATION, Instrumentation
from repro.storage.backends import (
    FORMAT_VERSION,
    MemoryRecordStore,
    PartIndex,
    RecordStore,
)
from repro.util.encoding import Encoded, canonical_bytes

if TYPE_CHECKING:
    from repro.storage.log import NonRepudiationLog

SENT = "sent"
RECEIVED = "received"


class MessageJournal:
    """Durable per-run message history for one party.

    With *evidence* given, records may refer to signed parts held in
    that evidence log, so reading them back needs the same log.
    """

    def __init__(self, owner: str, store: "RecordStore | None" = None,
                 obs: "Instrumentation | None" = None,
                 evidence: "NonRepudiationLog | None" = None) -> None:
        self.owner = owner
        self._store = store if store is not None else MemoryRecordStore()
        self._obs = obs if obs is not None else NULL_INSTRUMENTATION
        self._parts = PartIndex(
            self._store, evidence.parts if evidence is not None else None)
        self._open_runs: "set[str]" = set()
        self._closed_runs: "set[str]" = set()
        for index, blob in enumerate(self._store.blobs()):
            self._parts.add(index, blob)
            self._apply(self._store.decode(blob))

    def close(self) -> None:
        """Close the underlying store (idempotent)."""
        self._store.close()

    def _apply(self, record: dict) -> None:
        run_id = record["run_id"]
        if record["event"] == "close":
            self._open_runs.discard(run_id)
            self._closed_runs.add(run_id)
        elif run_id not in self._closed_runs:
            self._open_runs.add(run_id)

    def record_message(self, run_id: str, direction: str, peer: str,
                       message: "dict | Encoded",
                       parts: "Iterable" = ()) -> int:
        """Journal one protocol message before acting on it.

        *message* may be given as its canonical bytes (an ``Encoded``)
        when it was already encoded, e.g. once for every recipient of a
        broadcast.  *parts* names the signed parts the message holds,
        which are stored once.  Returns the record's index, for
        :meth:`message_at`.
        """
        if direction not in (SENT, RECEIVED):
            raise ValueError(f"direction must be 'sent' or 'received', got {direction!r}")
        record = {
            "event": "message",
            "run_id": run_id,
            "direction": direction,
            "peer": peer,
            "message": message,
            "v": FORMAT_VERSION,
        }
        blob = canonical_bytes(record)
        if self._obs.enabled:
            started = time.perf_counter()
            index, stored = self._parts.append(blob, parts)
            self._obs.journal_append(self.owner, run_id, direction, len(stored),
                                     time.perf_counter() - started)
        else:
            index, _ = self._parts.append(blob, parts)
        self._apply(record)
        return index

    def message_at(self, index: int) -> dict:
        """The message journalled as record *index* (a fresh dict)."""
        return self._parts.decode(self._store.get(index))["message"]

    def close_run(self, run_id: str, outcome: str) -> None:
        """Mark a protocol run finished (valid / invalid / aborted)."""
        record = {"event": "close", "run_id": run_id, "outcome": outcome,
                  "v": FORMAT_VERSION}
        self._store.append(record)
        if self._obs.enabled:
            self._obs.journal_closed(self.owner, run_id, outcome)
        self._apply(record)

    def open_runs(self) -> "set[str]":
        """Runs with journalled messages but no close record."""
        return set(self._open_runs)

    def is_open(self, run_id: str) -> bool:
        return run_id in self._open_runs

    def messages(self, run_id: str) -> "list[dict]":
        """All journalled message records for one run, in order."""
        found = []
        for blob in self._store.blobs():
            record = self._store.decode(blob)
            if record["run_id"] == run_id and record["event"] == "message":
                found.append(self._parts.decode(blob))
        return found

    def outcome(self, run_id: str) -> "Optional[str]":
        """The recorded outcome of a closed run, if any."""
        result = None
        for record in self._store.scan():
            if record["run_id"] == run_id and record["event"] == "close":
                result = record["outcome"]
        return result

    def all_records(self) -> "Iterator[dict]":
        for blob in self._store.blobs():
            yield self._parts.decode(blob)
