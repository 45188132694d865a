"""Non-repudiation evidence log.

"Evidence is stored systematically in local non-repudiation logs"
(section 3).  Each entry records a protocol artefact (message sent or
received, decision, time-stamp token) and is chained to its predecessor by
hash, so any after-the-fact tampering with local evidence is detectable —
an organisation cannot quietly rewrite its own history before presenting
it to an arbiter.

Entries are stored in record format v2 (:class:`PartIndex`): a signed
part is held inline at its first occurrence in the log and referred to by
content digest after that.  The chain hash covers each payload as
written, parts in full, so a stored reference must resolve to exactly the
bytes that were hashed.  The log is self-contained: its references only
point at its own earlier entries, so the log file alone can be verified.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional

from repro.crypto.hashing import hash_value
from repro.errors import LogCorruptionError, StorageError
from repro.obs.hooks import NULL_INSTRUMENTATION, Instrumentation
from repro.storage.backends import (
    FORMAT_VERSION,
    MemoryRecordStore,
    PartIndex,
    RecordStore,
)
from repro.util.encoding import Encoded, canonical_bytes

GENESIS_HASH = b"\x00" * 32


@dataclass(frozen=True)
class LogEntry:
    """One evidence record in the hash chain."""

    index: int
    prev_hash: bytes
    entry_hash: bytes
    kind: str
    payload: dict

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "prev_hash": self.prev_hash,
            "entry_hash": self.entry_hash,
            "kind": self.kind,
            "payload": self.payload,
        }

    @staticmethod
    def from_dict(data: dict) -> "LogEntry":
        return LogEntry(
            index=int(data["index"]),
            prev_hash=bytes(data["prev_hash"]),
            entry_hash=bytes(data["entry_hash"]),
            kind=str(data["kind"]),
            payload=dict(data["payload"]),
        )


def _chain_hash(index: int, prev_hash: bytes, kind: str, payload: "dict | Encoded") -> bytes:
    return hash_value(["log-entry", index, prev_hash, kind, payload])


class NonRepudiationLog:
    """Hash-chained append-only evidence log for one party."""

    def __init__(self, owner: str, store: "RecordStore | None" = None,
                 obs: "Instrumentation | None" = None) -> None:
        self.owner = owner
        self._store = store if store is not None else MemoryRecordStore()
        self._obs = obs if obs is not None else NULL_INSTRUMENTATION
        self._head = GENESIS_HASH
        self._count = 0
        #: Where the log's signed parts sit; a journal may refer into it.
        self.parts = PartIndex(self._store)
        # Index, chain hash and append form one step: two threads of one
        # party (shard workers, a client proposing while the reactor
        # settles another object) must not chain onto the same head.
        self._lock = threading.Lock()
        # Rebuild chain head and part index from a pre-existing store
        # (recovery path).
        for entry in self._verified(self.parts):
            self._head = entry.entry_hash
            self._count += 1

    def _verified(self, parts: PartIndex) -> "Iterator[LogEntry]":
        """Check the stored chain entry by entry, indexing into *parts*.

        A reference resolves only against entries already checked, so a
        part that was altered, removed or first referred to before it is
        held breaks verification.
        """
        head = GENESIS_HASH
        for count, blob in enumerate(self._store.blobs()):
            try:
                entry = LogEntry.from_dict(parts.decode(blob))
            except StorageError as exc:
                raise LogCorruptionError(
                    f"{self.owner}: entry {count}: {exc}") from exc
            if entry.index != count:
                raise LogCorruptionError(
                    f"{self.owner}: entry index {entry.index} != expected {count}"
                )
            if entry.prev_hash != head:
                raise LogCorruptionError(
                    f"{self.owner}: broken prev-hash link at index {entry.index}"
                )
            expected = _chain_hash(entry.index, entry.prev_hash, entry.kind,
                                   entry.payload)
            if entry.entry_hash != expected:
                raise LogCorruptionError(
                    f"{self.owner}: entry hash mismatch at index {entry.index}"
                )
            parts.add(count, blob)
            head = entry.entry_hash
            yield entry

    def close(self) -> None:
        """Close the underlying store (idempotent)."""
        self._store.close()

    @property
    def head(self) -> bytes:
        """Hash of the most recent entry (GENESIS_HASH when empty)."""
        return self._head

    def __len__(self) -> int:
        return self._count

    def record(self, kind: str, payload: dict,
               parts: "Iterable" = ()) -> LogEntry:
        """Append an evidence record and return the chained entry.

        The payload is encoded once; its canonical bytes are spliced into
        both the chain-hash preimage and the stored record.  *parts* names
        the signed parts the payload holds (as their ``to_dict()`` or
        ``encoded`` form), which the log stores once.
        """
        encoded = Encoded(canonical_bytes(payload))
        with self._lock:
            index = self._count
            prev_hash = self._head
            entry_hash = _chain_hash(index, prev_hash, kind, encoded)
            record = canonical_bytes({
                "index": index,
                "prev_hash": prev_hash,
                "entry_hash": entry_hash,
                "kind": kind,
                "payload": encoded,
                "v": FORMAT_VERSION,
            })
            if self._obs.enabled:
                started = time.perf_counter()
                _, stored = self.parts.append(record, parts)
                self._obs.evidence_append(self.owner, kind, len(stored),
                                          time.perf_counter() - started)
            else:
                self.parts.append(record, parts)
            self._head = entry_hash
            self._count = index + 1
        return LogEntry(index=index, prev_hash=prev_hash,
                        entry_hash=entry_hash, kind=kind, payload=payload)

    def entries(self, kind: "str | None" = None) -> "Iterator[LogEntry]":
        """Iterate entries in order, optionally filtered by kind."""
        for blob in self._store.blobs():
            entry = LogEntry.from_dict(self.parts.decode(blob))
            if kind is None or entry.kind == kind:
                yield entry

    def find(self, kind: str, **payload_match: Any) -> "Optional[LogEntry]":
        """First entry of *kind* whose payload matches all given fields."""
        for entry in self.entries(kind):
            if all(entry.payload.get(key) == value for key, value in payload_match.items()):
                return entry
        return None

    def verify_chain(self) -> int:
        """Re-verify the whole chain; returns the entry count.

        Raises :class:`LogCorruptionError` on the first broken link or
        unresolvable part.  An arbiter runs this before trusting any
        evidence a party presents.
        """
        with self._lock:  # a record() in between would look like tampering
            count = 0
            head = GENESIS_HASH
            for entry in self._verified(PartIndex(self._store)):
                head = entry.entry_hash
                count += 1
            if count != self._count or head != self._head:
                raise LogCorruptionError(f"{self.owner}: in-memory head disagrees with store")
            return count
