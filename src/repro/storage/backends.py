"""Record storage backends.

The storage substrate persists three kinds of records (evidence log
entries, state checkpoints, journalled protocol messages).  All three sit
on this minimal append/scan abstraction, with an in-memory backend for
simulation and a crash-safe file backend (JSON-lines with fsync) for real
deployments and recovery tests.
"""

from __future__ import annotations

import os
import threading
from typing import Iterator, Union

from repro.errors import StorageError
from repro.util.encoding import canonical_bytes, from_canonical_bytes

#: What ``append`` accepts: a canonical-encodable record, or the record's
#: canonical bytes when the caller has already encoded it.
Record = Union[dict, bytes]


def _record_bytes(record: Record) -> bytes:
    return bytes(record) if isinstance(record, bytes) else canonical_bytes(record)


class RecordStore:
    """Append-only sequence of canonical-encodable records."""

    #: Encoded size in bytes of the most recent append.  Stores encode
    #: every record anyway, so instrumentation reads this instead of
    #: re-serialising the record just to size it.
    last_append_size = 0

    def append(self, record: Record) -> int:
        """Persist *record* (or its canonical bytes), returning its index."""
        raise NotImplementedError

    def scan(self) -> "Iterator[dict]":
        """Iterate every record in append order."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def close(self) -> None:
        """Release any underlying resources (idempotent)."""


class MemoryRecordStore(RecordStore):
    """Volatile in-process store used by the simulation runtime."""

    def __init__(self) -> None:
        self._records: "list[bytes]" = []

    def append(self, record: Record) -> int:
        # Records are stored encoded so that mutation of the caller's dict
        # after append cannot retroactively alter "persisted" history.
        blob = _record_bytes(record)
        self.last_append_size = len(blob)
        self._records.append(blob)
        return len(self._records) - 1

    def scan(self) -> "Iterator[dict]":
        for blob in self._records:
            yield from_canonical_bytes(blob)

    def __len__(self) -> int:
        return len(self._records)


class FileRecordStore(RecordStore):
    """Crash-safe JSON-lines file store.

    Each record is one canonical-JSON line, flushed and fsync'd on append
    (non-repudiation evidence must survive the crash-recovery model of
    section 4.2).  On open, a trailing partial line from a mid-write crash
    is detected and truncated away.
    """

    def __init__(self, path: str, fsync: bool = True) -> None:
        self._path = path
        self._fsync = fsync
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._count = self._repair_and_count()
        self._file = open(path, "ab")
        # A line's index is its position in the file: write and count
        # advance together.
        self._lock = threading.Lock()

    def _repair_and_count(self) -> int:
        if not os.path.exists(self._path):
            return 0
        with open(self._path, "rb") as handle:
            data = handle.read()
        if not data:
            return 0
        if not data.endswith(b"\n"):
            # A crash interrupted the final append; the record never became
            # durable, so drop the partial line.
            keep = data.rfind(b"\n") + 1
            with open(self._path, "wb") as handle:
                handle.write(data[:keep])
            data = data[:keep]
        return data.count(b"\n")

    def append(self, record: Record) -> int:
        line = _record_bytes(record) + b"\n"
        with self._lock:
            self.last_append_size = len(line) - 1
            self._file.write(line)
            self._file.flush()
            if self._fsync:
                os.fsync(self._file.fileno())
            index = self._count
            self._count += 1
        return index

    def scan(self) -> "Iterator[dict]":
        self._file.flush()
        with open(self._path, "rb") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    yield from_canonical_bytes(line)
                except ValueError as exc:
                    raise StorageError(f"corrupt record in {self._path}: {exc}") from exc

    def __len__(self) -> int:
        return self._count

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()
