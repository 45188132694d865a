"""Record storage backends.

The storage substrate persists three kinds of records (evidence log
entries, state checkpoints, journalled protocol messages).  All three sit
on this minimal append/scan abstraction, with an in-memory backend for
simulation and a crash-safe file backend (JSON-lines with fsync) for real
deployments and recovery tests.
"""

from __future__ import annotations

import base64
import json
import os
import threading
from array import array
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Union

from repro.crypto.hashing import secure_hash
from repro.errors import StorageError
from repro.util.encoding import (
    PART_TAG,
    REF_TAG,
    canonical_bytes,
    from_canonical_bytes,
    from_stored_bytes,
)

#: What ``append`` accepts: a canonical-encodable record, or the record's
#: canonical bytes when the caller has already encoded it.
Record = Union[dict, bytes]

#: The record format evidence logs and journals write: each signed part
#: is held once per store (see :class:`PartIndex`).  Records without a
#: ``v`` field are format 1 and hold every part in full.
FORMAT_VERSION = 2
_CURRENT_END = b',"v":%d}' % FORMAT_VERSION  # "v" sorts last in every record
_INLINE = b'{"%s":' % PART_TAG.encode("ascii")
_REF = b'{"%s":"%%s"}' % REF_TAG.encode("ascii")
_SCANNER = json.JSONDecoder()


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

    def blobs(self) -> "Iterator[bytes]":
        """Every record's stored bytes, in append order."""
        raise NotImplementedError

    def get(self, index: int) -> bytes:
        """The stored bytes of record *index*."""
        raise NotImplementedError

    def decode(self, blob: bytes) -> dict:
        """One record's stored bytes as a dict (part tags as stored)."""
        try:
            return from_canonical_bytes(blob)
        except ValueError as exc:
            raise StorageError(f"corrupt record in {self}: {exc}") from exc

    def scan(self) -> "Iterator[dict]":
        """Iterate every record in append order."""
        for blob in self.blobs():
            yield self.decode(blob)

    def __len__(self) -> int:
        raise NotImplementedError

    def close(self) -> None:
        """Release any underlying resources (idempotent)."""


class MemoryRecordStore(RecordStore):
    """Volatile in-process store used by the simulation runtime."""

    def __init__(self) -> None:
        self._records: "list[bytes]" = []
        # The returned index must be the record's own, also when several
        # threads append at once: part references are located by it.
        self._lock = threading.Lock()

    def append(self, record: Record) -> int:
        # Records are stored encoded so that mutation of the caller's dict
        # after append cannot retroactively alter "persisted" history.
        blob = _record_bytes(record)
        with self._lock:
            self.last_append_size = len(blob)
            self._records.append(blob)
            return len(self._records) - 1

    def blobs(self) -> "Iterator[bytes]":
        return iter(list(self._records))

    def get(self, index: int) -> bytes:
        return self._records[index]

    def __len__(self) -> int:
        return len(self._records)


def _find(record: bytes, data: bytes) -> int:
    """Where *data* first occurs in *record*, or -1.

    Searching for a long needle costs more than the search itself, so
    this looks for the part's last bytes (its signatures) and compares
    the rest in place.
    """
    tail = data[-64:]
    pos = record.find(tail, len(data) - len(tail))
    while pos >= 0:
        start = pos + len(tail) - len(data)
        if record.startswith(data, start):
            return start
        pos = record.find(tail, pos + 1)
    return -1


class PartIndex:
    """Signed parts held once per store: record format v2.

    A writer names the signed parts a record holds (objects with the
    ``encoded`` bytes and ``content_digest`` of a
    :class:`~repro.protocol.messages.SignedPart`).  The first time a
    store holds a part, the record keeps it inline as
    ``{"__part__": part}``; a later record holds ``{"__ref__": digest}``
    in its place.  A reference only names a part already durable in this
    store, or in the *fallback* store a journal may refer into (its
    party's evidence log), so references always point backwards.  The
    index maps each digest to where its bytes sit and is rebuilt from the
    records on open; it holds no record content.
    """

    def __init__(self, store: RecordStore,
                 fallback: "Optional[PartIndex]" = None) -> None:
        self._store = store
        self._fallback = fallback
        self._where: "dict[bytes, tuple[int, int, int]]" = {}

    def holds(self, digest: bytes) -> bool:
        return digest in self._where or (self._fallback is not None
                                         and self._fallback.holds(digest))

    def append(self, record: bytes,
               parts: "Iterable" = ()) -> "tuple[int, bytes]":
        """Append a record's canonical bytes, storing each of *parts* once.

        The first exact occurrence of a part's canonical bytes is
        replaced, and a tag reads back as exactly those bytes.  Returns
        the record's index and its stored bytes.
        """
        found = sorted([(_find(record, part.encoded), part) for part in parts],
                       key=itemgetter(0))
        pieces: "list[bytes]" = []
        inline = []
        size = done = 0  # stored bytes so far; record bytes consumed
        for at, part in found:
            if at < done:  # absent, or the same part named twice
                continue
            data = part.encoded
            digest = part.content_digest
            size += at - done
            if self.holds(digest):
                tag = _REF % base64.b64encode(digest)
            else:
                tag = _INLINE + data + b"}"
                inline.append((digest, size + len(_INLINE), len(data)))
            pieces += (record[done:at], tag)
            size += len(tag)
            done = at + len(data)
        if pieces:
            record = b"".join(pieces) + record[done:]
        index = self._store.append(record)
        for digest, start, length in inline:
            self._where.setdefault(digest, (index, start, start + length))
        return index, record

    def add(self, index: int, record: bytes) -> None:
        """Index the parts record *index* holds inline (on open)."""
        if not record.endswith(_CURRENT_END):
            return
        text = record.decode("ascii")
        pos = record.find(_INLINE)
        while pos >= 0:
            start = pos + len(_INLINE)
            try:
                end = _SCANNER.raw_decode(text, start)[1]
            except ValueError as exc:
                raise StorageError(f"corrupt part in {self._store}: {exc}") from exc
            self._where.setdefault(secure_hash(record[start:end]),
                                   (index, start, end))
            pos = record.find(_INLINE, end)

    def resolve(self, ref: str) -> bytes:
        """The canonical bytes of the part a stored reference names."""
        return self._part(base64.b64decode(ref), ref)

    def _part(self, digest: bytes, ref: str) -> bytes:
        where = self._where.get(digest)
        if where is not None:
            index, start, end = where
            return self._store.get(index)[start:end]
        if self._fallback is not None:
            return self._fallback._part(digest, ref)
        raise StorageError(f"record refers to part {ref}, which no earlier "
                           f"record holds")

    def decode(self, record: bytes) -> dict:
        """A stored record as the dict it was written from."""
        if not record.endswith(_CURRENT_END):
            return self._store.decode(record)
        try:
            value = from_stored_bytes(record, self.resolve)
        except ValueError as exc:
            raise StorageError(f"corrupt record in {self._store}: {exc}") from exc
        del value["v"]
        return value


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
        self._offsets = array("q")  # where each line starts
        self._size = self._repair_and_index()
        self._file = open(path, "ab")
        # A line's index is its position in the file: write and count
        # advance together.
        self._lock = threading.Lock()

    def _repair_and_index(self) -> int:
        """Drop a torn final line, index line starts; returns the size."""
        if not os.path.exists(self._path):
            return 0
        with open(self._path, "rb") as handle:
            data = handle.read()
        if data and not data.endswith(b"\n"):
            # A crash interrupted the final append; the record never became
            # durable, so drop the partial line.
            keep = data.rfind(b"\n") + 1
            with open(self._path, "wb") as handle:
                handle.write(data[:keep])
            data = data[:keep]
        start = 0
        while start < len(data):
            end = data.index(b"\n", start) + 1
            if data[start:end].strip():  # as blobs() skips blank lines
                self._offsets.append(start)
            start = end
        return len(data)

    def append(self, record: Record) -> int:
        line = _record_bytes(record) + b"\n"
        with self._lock:
            self.last_append_size = len(line) - 1
            self._file.write(line)
            self._file.flush()
            if self._fsync:
                os.fsync(self._file.fileno())
            index = len(self._offsets)
            self._offsets.append(self._size)
            self._size += len(line)
        return index

    def blobs(self) -> "Iterator[bytes]":
        self._file.flush()
        with open(self._path, "rb") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    yield line

    def get(self, index: int) -> bytes:
        with open(self._path, "rb") as handle:
            handle.seek(self._offsets[index])
            return handle.readline().rstrip(b"\n")

    def __str__(self) -> str:
        return self._path

    def __len__(self) -> int:
        return len(self._offsets)

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()
