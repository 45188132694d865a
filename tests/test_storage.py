"""Storage substrate: record stores, evidence log, checkpoints, journal."""

from __future__ import annotations

import os
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.signature import generate_party_keypair
from repro.crypto.timestamp import TimestampService
from repro.errors import CheckpointError, LogCorruptionError, StorageError
from repro.protocol.messages import SignedPart, make_signed
from repro.storage.backends import FileRecordStore, MemoryRecordStore
from repro.storage.checkpoint import CheckpointStore
from repro.storage.journal import RECEIVED, SENT, MessageJournal
from repro.storage.log import GENESIS_HASH, NonRepudiationLog
from repro.util.clocks import VirtualClock
from repro.util.encoding import Encoded, canonical_bytes, from_canonical_bytes


class TestMemoryRecordStore:
    def test_append_and_scan(self):
        store = MemoryRecordStore()
        assert store.append({"a": 1}) == 0
        assert store.append({"b": 2}) == 1
        assert list(store.scan()) == [{"a": 1}, {"b": 2}]
        assert len(store) == 2

    def test_later_mutation_does_not_affect_store(self):
        store = MemoryRecordStore()
        record = {"a": [1]}
        store.append(record)
        record["a"].append(2)
        assert list(store.scan()) == [{"a": [1]}]


class TestCanonicalBytesAppend:
    @pytest.mark.parametrize("make", [
        lambda tmp_path: MemoryRecordStore(),
        lambda tmp_path: FileRecordStore(str(tmp_path / "r.jsonl"), fsync=False),
    ])
    def test_bytes_and_dict_appends_store_the_same_record(self, tmp_path, make):
        store = make(tmp_path)
        record = {"run_id": "r", "message": {"sig": b"\x01", "n": [1, 2]}}
        store.append(record)
        store.append(canonical_bytes(record))
        store.append({"run_id": "r",
                      "message": Encoded(canonical_bytes(record["message"]))})
        assert list(store.scan()) == [record, record, record]
        assert store.last_append_size == len(canonical_bytes(record))
        store.close()


class TestConcurrentAppends:
    """Several threads of one party append to the same store or log."""

    THREADS = 4
    PER_THREAD = 150

    @pytest.fixture(autouse=True)
    def _frequent_thread_switches(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    def _run_concurrently(self, work) -> None:
        barrier = threading.Barrier(self.THREADS)

        def worker(thread: int) -> None:
            barrier.wait()
            for item in range(self.PER_THREAD):
                work(thread, item)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)

    def test_log_chain_verifies_after_concurrent_records(self):
        log = NonRepudiationLog("OrgA")
        self._run_concurrently(
            lambda thread, item: log.record("note", {"thread": thread, "item": item})
        )
        assert log.verify_chain() == self.THREADS * self.PER_THREAD
        assert len({entry.entry_hash for entry in log.entries()}) == len(log)

    def test_journal_run_sets_match_replay_after_concurrent_runs(self, tmp_path):
        store = FileRecordStore(str(tmp_path / "journal.jsonl"), fsync=False)
        journal = MessageJournal("OrgA", store)

        def run(thread, item):
            run_id = f"run-{thread}-{item}"
            journal.record_message(run_id, SENT, "OrgB", {"m": item})
            journal.record_message(run_id, RECEIVED, "OrgB", {"m": item})
            if item % 3:
                journal.close_run(run_id, "valid")

        self._run_concurrently(run)
        expected_open = {f"run-{t}-{i}" for t in range(self.THREADS)
                         for i in range(self.PER_THREAD) if i % 3 == 0}
        assert journal.open_runs() == expected_open
        assert MessageJournal("OrgA", store).open_runs() == expected_open
        store.close()

    def test_memory_store_indices_follow_store_order(self):
        store = MemoryRecordStore()
        indices = {}

        def append(thread, item):
            indices[(thread, item)] = store.append({"t": thread, "i": item})

        self._run_concurrently(append)
        assert len(store) == self.THREADS * self.PER_THREAD
        for position, record in enumerate(store.scan()):
            assert indices[(record["t"], record["i"])] == position

    def test_journal_parts_resolve_after_concurrent_records(self):
        log = NonRepudiationLog("OrgA")
        journal = MessageJournal("OrgA", evidence=log)
        parts = [_part({"n": n}) for n in range(8)]
        indices = {}

        def record(thread, item):
            part = parts[(thread + item) % len(parts)]
            indices[(thread, item)] = journal.record_message(
                f"run-{thread}", SENT, "OrgB",
                {"m": item, "part": part.encoded}, (part,))

        self._run_concurrently(record)
        for (thread, item), index in indices.items():
            part = parts[(thread + item) % len(parts)]
            assert journal.message_at(index) == {"m": item, "part": part.to_dict()}

    def test_file_store_indices_follow_file_order(self, tmp_path):
        store = FileRecordStore(str(tmp_path / "r.jsonl"), fsync=False)
        indices = {}

        def append(thread, item):
            indices[(thread, item)] = store.append({"t": thread, "i": item})

        self._run_concurrently(append)
        assert len(store) == self.THREADS * self.PER_THREAD
        for position, record in enumerate(store.scan()):
            assert indices[(record["t"], record["i"])] == position
        store.close()


_TSA = TimestampService(clock=VirtualClock(), keypair=generate_party_keypair("TSA"))
_SIGNER = generate_party_keypair("OrgB").signer()


def _part(payload: dict) -> SignedPart:
    return make_signed(payload, _SIGNER, _TSA)


def _stored(store) -> bytes:
    return b"\n".join(store.blobs())


class TestSignedPartsStoredOnce:
    """Record format v2: each signed part is held once per store."""

    def test_later_records_refer_to_the_part(self):
        part = _part({"n": 1})
        log = NonRepudiationLog("OrgA")
        log.record("proposal-received", {"proposal": part.encoded}, (part,))
        log.record("decision", {"proposal": part.to_dict(), "n": 2}, (part,))
        assert _stored(log._store).count(part.encoded) == 1
        assert b"__ref__" in log._store.get(1)
        assert [entry.payload["proposal"] for entry in log.entries()] == \
            [part.to_dict(), part.to_dict()]
        assert log.verify_chain() == 2

    def test_part_restamped_over_the_same_payload_is_stored_separately(self):
        part = _part({"n": 1})
        _TSA._clock.advance(5.0)
        restamped = SignedPart(part.payload, part.signature,
                               _TSA.stamp(part.signature.to_dict()))
        assert restamped.digest() == part.digest()
        assert restamped.content_digest != part.content_digest
        log = NonRepudiationLog("OrgA")
        for each in (part, restamped, part):
            log.record("response-received", {"response": each.encoded}, (each,))
        stored = _stored(log._store)
        assert stored.count(part.encoded) == stored.count(restamped.encoded) == 1
        assert [entry.payload["response"] for entry in log.entries()] == \
            [part.to_dict(), restamped.to_dict(), part.to_dict()]
        assert log.verify_chain() == 3

    def test_journal_refers_into_the_evidence_log(self, tmp_path):
        part = _part({"n": 1})
        log = NonRepudiationLog("OrgA", FileRecordStore(str(tmp_path / "e.jsonl")))
        log.record("response-sent", {"response": part.encoded}, (part,))
        store = FileRecordStore(str(tmp_path / "j.jsonl"))
        journal = MessageJournal("OrgA", store, evidence=log)
        index = journal.record_message("r1", SENT, "OrgB",
                                       {"response": part.to_dict()}, (part,))
        assert part.encoded not in store.get(index)
        assert journal.message_at(index) == {"response": part.to_dict()}
        log.close()
        journal.close()
        log = NonRepudiationLog("OrgA", FileRecordStore(str(tmp_path / "e.jsonl")))
        reopened = MessageJournal("OrgA", FileRecordStore(str(tmp_path / "j.jsonl")),
                                  evidence=log)
        assert reopened.messages("r1")[0]["message"] == {"response": part.to_dict()}
        # A journal that refers into a log cannot be read without it.
        alone = MessageJournal("OrgA", FileRecordStore(str(tmp_path / "j.jsonl")))
        with pytest.raises(StorageError):
            list(alone.all_records())
        for owner in (log, reopened, alone):
            owner.close()

    def test_evidence_log_never_refers_into_the_journal(self):
        part = _part({"n": 1})
        log = NonRepudiationLog("OrgA")
        journal = MessageJournal("OrgA", evidence=log)
        journal.record_message("r1", RECEIVED, "OrgB", {"p": part.encoded}, (part,))
        log.record("proposal-received", {"proposal": part.encoded}, (part,))
        assert log._store.get(0).count(part.encoded) == 1

    def test_a_part_is_replaced_only_where_its_bytes_occur(self):
        part = _part({"n": 1})
        log = NonRepudiationLog("OrgA")
        log.record("note", {"proposal": part.encoded}, (part,))
        # Named but absent, or present with other bytes: stored as given.
        log.record("note", {"other": 1}, (part,))
        altered = dict(part.to_dict(), extra=True)
        log.record("note", {"proposal": altered}, (part,))
        assert [entry.payload for entry in log.entries()] == [
            {"proposal": part.to_dict()}, {"other": 1}, {"proposal": altered}]
        assert log.verify_chain() == 3


class TestFileRecordStore:
    def test_append_scan_reopen(self, tmp_path):
        path = str(tmp_path / "records.jsonl")
        store = FileRecordStore(path)
        store.append({"x": 1, "blob": b"\x00"})
        store.append({"x": 2})
        store.close()
        reopened = FileRecordStore(path)
        assert list(reopened.scan()) == [{"x": 1, "blob": b"\x00"}, {"x": 2}]
        assert len(reopened) == 2
        reopened.close()

    def test_partial_trailing_line_is_repaired(self, tmp_path):
        path = str(tmp_path / "records.jsonl")
        store = FileRecordStore(path)
        store.append({"x": 1})
        store.close()
        with open(path, "ab") as handle:
            handle.write(b'{"x": 2')  # simulated mid-write crash
        reopened = FileRecordStore(path)
        assert list(reopened.scan()) == [{"x": 1}]
        reopened.append({"x": 3})
        assert list(reopened.scan()) == [{"x": 1}, {"x": 3}]
        reopened.close()

    def test_creates_parent_directories(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "r.jsonl")
        store = FileRecordStore(path)
        store.append({"ok": True})
        store.close()
        assert os.path.exists(path)


class TestNonRepudiationLog:
    def test_chain_grows_and_verifies(self):
        log = NonRepudiationLog("OrgA")
        assert log.head == GENESIS_HASH
        log.record("proposal-sent", {"run_id": "r1"})
        log.record("response-received", {"run_id": "r1"})
        assert log.verify_chain() == 2
        assert log.head != GENESIS_HASH

    def test_entries_filtered_by_kind(self):
        log = NonRepudiationLog("OrgA")
        log.record("a", {"i": 1})
        log.record("b", {"i": 2})
        log.record("a", {"i": 3})
        assert [e.payload["i"] for e in log.entries("a")] == [1, 3]

    def test_find_by_payload(self):
        log = NonRepudiationLog("OrgA")
        log.record("decision", {"run_id": "r1", "valid": True})
        log.record("decision", {"run_id": "r2", "valid": False})
        entry = log.find("decision", run_id="r2")
        assert entry is not None and entry.payload["valid"] is False
        assert log.find("decision", run_id="zzz") is None

    def test_tampering_detected(self):
        log = NonRepudiationLog("OrgA")
        for i in range(5):
            log.record("evt", {"i": i})
        store = log._store
        record = from_canonical_bytes(store._records[2])
        record["payload"]["i"] = 99
        store._records[2] = canonical_bytes(record)
        with pytest.raises(LogCorruptionError, match="hash mismatch"):
            log.verify_chain()

    def test_reordering_detected(self):
        log = NonRepudiationLog("OrgA")
        log.record("evt", {"i": 0})
        log.record("evt", {"i": 1})
        store = log._store
        store._records[0], store._records[1] = store._records[1], store._records[0]
        with pytest.raises(LogCorruptionError):
            log.verify_chain()

    def test_truncation_detected(self):
        log = NonRepudiationLog("OrgA")
        log.record("evt", {"i": 0})
        log.record("evt", {"i": 1})
        log._store._records.pop()
        with pytest.raises(LogCorruptionError, match="disagrees"):
            log.verify_chain()

    def test_reload_from_store(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        log = NonRepudiationLog("OrgA", FileRecordStore(path))
        log.record("evt", {"i": 0})
        head = log.head
        log._store.close()
        reloaded = NonRepudiationLog("OrgA", FileRecordStore(path))
        assert reloaded.head == head
        assert len(reloaded) == 1
        reloaded.record("evt", {"i": 1})
        assert reloaded.verify_chain() == 2

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=9),
           st.integers(min_value=0, max_value=9))
    def test_any_single_field_tamper_detected(self, entries, victim):
        entries = max(entries, victim + 1)
        log = NonRepudiationLog("OrgA")
        for i in range(entries):
            log.record("evt", {"i": i})
        store = log._store
        record = from_canonical_bytes(store._records[victim])
        record["payload"]["i"] = 1000 + victim
        store._records[victim] = canonical_bytes(record)
        with pytest.raises(LogCorruptionError):
            log.verify_chain()


class TestCheckpointStore:
    def test_save_and_latest(self):
        store = CheckpointStore()
        store.save("order", {"seq": 1, "rh": b"r", "sh": b"s"}, {"x": 1})
        store.save("order", {"seq": 2, "rh": b"r2", "sh": b"s2"}, {"x": 2})
        latest = store.require_latest("order")
        assert latest.sequence == 2 and latest.state == {"x": 2}
        assert store.history_length("order") == 2

    def test_sequence_must_advance(self):
        store = CheckpointStore()
        store.save("order", {"seq": 2, "rh": b"", "sh": b""}, {})
        with pytest.raises(CheckpointError, match="advance"):
            store.save("order", {"seq": 2, "rh": b"", "sh": b""}, {})

    def test_objects_are_independent(self):
        store = CheckpointStore()
        store.save("a", {"seq": 5, "rh": b"", "sh": b""}, "A")
        store.save("b", {"seq": 1, "rh": b"", "sh": b""}, "B")
        assert store.require_latest("a").state == "A"
        assert store.require_latest("b").state == "B"

    def test_missing_object(self):
        with pytest.raises(CheckpointError):
            CheckpointStore().require_latest("ghost")
        assert CheckpointStore().latest("ghost") is None

    def test_history_and_digest(self):
        store = CheckpointStore()
        store.save("a", {"seq": 1, "rh": b"", "sh": b""}, {"v": 1})
        store.save("a", {"seq": 2, "rh": b"", "sh": b""}, {"v": 2})
        history = store.history("a")
        assert [c.state for c in history] == [{"v": 1}, {"v": 2}]
        assert store.state_digest("a") is not None
        assert store.state_digest("ghost") is None

    def test_recovery_from_store(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        store = CheckpointStore(FileRecordStore(path))
        store.save("a", {"seq": 3, "rh": b"", "sh": b""}, {"v": 3})
        store._store.close()
        recovered = CheckpointStore(FileRecordStore(path))
        assert recovered.require_latest("a").state == {"v": 3}


class TestMessageJournal:
    def test_open_and_close_runs(self):
        journal = MessageJournal("OrgA")
        journal.record_message("r1", SENT, "OrgB", {"m": 1})
        journal.record_message("r2", RECEIVED, "OrgC", {"m": 2})
        assert journal.open_runs() == {"r1", "r2"}
        journal.close_run("r1", "valid")
        assert journal.open_runs() == {"r2"}
        assert journal.outcome("r1") == "valid"
        assert journal.outcome("r2") is None

    def test_messages_in_order(self):
        journal = MessageJournal("OrgA")
        journal.record_message("r1", SENT, "OrgB", {"m": 1})
        journal.record_message("r1", RECEIVED, "OrgB", {"m": 2})
        messages = journal.messages("r1")
        assert [m["message"]["m"] for m in messages] == [1, 2]
        assert [m["direction"] for m in messages] == [SENT, RECEIVED]

    def test_direction_validated(self):
        journal = MessageJournal("OrgA")
        with pytest.raises(ValueError):
            journal.record_message("r1", "sideways", "OrgB", {})

    def test_late_message_on_closed_run_stays_closed(self):
        journal = MessageJournal("OrgA")
        journal.record_message("r1", SENT, "OrgB", {"m": 1})
        journal.close_run("r1", "valid")
        journal.record_message("r1", RECEIVED, "OrgB", {"m": 2})
        assert not journal.is_open("r1")

    def test_recovery_from_store(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = MessageJournal("OrgA", FileRecordStore(path))
        journal.record_message("r1", SENT, "OrgB", {"m": 1})
        journal.record_message("r2", SENT, "OrgB", {"m": 2})
        journal.close_run("r2", "invalid")
        journal._store.close()
        recovered = MessageJournal("OrgA", FileRecordStore(path))
        assert recovered.open_runs() == {"r1"}
        assert recovered.outcome("r2") == "invalid"
