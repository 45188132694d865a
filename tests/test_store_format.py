"""Stored formats: records written by an earlier version still verify,
and the current code writes its own format byte for byte the same.

``tests/fixtures/stores`` holds record format 1, written by the two-pass
encoder that preceded the single-pass emitter; ``tests/fixtures/stores_v2``
holds record format 2, where each signed part is held once per store
(see ``tests/store_fixture.py``).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import shutil

import pytest

import repro.core.community as community_module
from repro.cli import main
from repro.core.community import Community
from repro.core.object import DictB2BObject
from repro.core.runtime import SimRuntime
from repro.errors import LogCorruptionError
from repro.protocol.dispute import Arbiter
from repro.crypto.signature import generate_party_keypair
from repro.protocol.evidence import verify_authenticated_decision
from repro.storage.backends import FileRecordStore
from repro.storage.checkpoint import CheckpointStore
from repro.storage.journal import MessageJournal
from repro.storage.log import NonRepudiationLog
from repro.util.encoding import canonical_bytes, from_canonical_bytes

from tests.store_fixture import KINDS, OBJECT, ORGS, write_stores

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "stores")
FIXTURE_V2 = os.path.join(os.path.dirname(__file__), "fixtures", "stores_v2")
INLINE = b'{"__part__":'


def _path(root: str, org: str, kind: str) -> str:
    return os.path.join(root, org, f"{kind}.jsonl")


def _lines(path: str) -> "list[bytes]":
    with open(path, "rb") as handle:
        return handle.read().splitlines()


@pytest.fixture
def stores(tmp_path):
    """A scratch copy of the fixture (opening a store may repair it)."""
    root = str(tmp_path / "stores")
    shutil.copytree(FIXTURE, root)
    return root


@pytest.fixture
def stores_v2(tmp_path):
    root = str(tmp_path / "stores_v2")
    shutil.copytree(FIXTURE_V2, root)
    return root


@pytest.fixture
def seeded_keys(monkeypatch):
    """The suite's key cache hands out keys in test order; the fixture
    deployment needs the seeded keys it derives itself."""
    monkeypatch.setattr(community_module, "generate_party_keypair",
                        generate_party_keypair)


@pytest.fixture
def regenerated(tmp_path, seeded_keys):
    """The fixture deployment run again by the current code."""
    root = str(tmp_path / "regenerated")
    community = write_stores(root)
    return root, community


def _open(root: str, org: str):
    """An organisation's evidence log and journal, read from *root*."""
    log = NonRepudiationLog(org, FileRecordStore(_path(root, org, "evidence"),
                                                 fsync=False))
    journal = MessageJournal(org, FileRecordStore(_path(root, org, "journal"),
                                                  fsync=False), evidence=log)
    return log, journal


def _close(*owners) -> None:
    for owner in owners:
        owner.close()


def _write_lines(path: str, lines: "list[bytes]") -> None:
    with open(path, "wb") as handle:
        handle.write(b"".join(line + b"\n" for line in lines))


def _inline_part(line: bytes) -> "tuple[bytes, bytes] | None":
    """The first part *line* holds inline, and the tag referring to it."""
    start = line.find(INLINE)
    if start < 0:
        return None
    start += len(INLINE)
    end = json.JSONDecoder().raw_decode(line.decode("ascii"), start)[1]
    part = line[start:end]
    digest = base64.b64encode(hashlib.sha256(part).digest())
    return part, b'{"__ref__":"' + digest + b'"}'


def _part_referred_to_later(lines: "list[bytes]"):
    """(i, j, part, ref): line i holds *part* inline, line j refers to it."""
    for i, line in enumerate(lines):
        found = _inline_part(line)
        if found is None:
            continue
        part, ref = found
        for j in range(i + 1, len(lines)):
            if ref in lines[j]:
                return i, j, part, ref
    raise AssertionError("no part is referred to by a later record")


class TestFixtureStillVerifies:
    @pytest.mark.parametrize("org", ORGS)
    def test_logs_replay_and_verify(self, stores, org):
        path = _path(stores, org, "evidence")
        store = FileRecordStore(path, fsync=False)
        log = NonRepudiationLog(org, store)  # replay checks every link
        assert log.verify_chain() == len(_lines(path)) > 0
        store.close()

    @pytest.mark.parametrize("org", ORGS)
    def test_verify_log_command(self, stores, org, capsys):
        assert main(["verify-log", _path(stores, org, "evidence"),
                     "--owner", org]) == 0
        assert "chain intact" in capsys.readouterr().out

    @pytest.mark.parametrize("org", ORGS)
    def test_journal_and_checkpoints_replay(self, stores, org):
        journal_store = FileRecordStore(_path(stores, org, "journal"), fsync=False)
        journal = MessageJournal(org, journal_store)
        assert journal.open_runs() == set()
        run_ids = {record["run_id"] for record in journal.all_records()}
        assert run_ids and all(journal.outcome(run) == "valid" for run in run_ids)
        checkpoint_store = FileRecordStore(_path(stores, org, "checkpoints"),
                                           fsync=False)
        latest = CheckpointStore(checkpoint_store).require_latest(OBJECT)
        assert latest.state["count"] == 5
        assert latest.state["blob"] == b"\x00\xff"
        journal_store.close()
        checkpoint_store.close()

    @pytest.mark.parametrize("org", ORGS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_record_reencodes_to_its_stored_bytes(self, org, kind):
        for line in _lines(_path(FIXTURE, org, kind)):
            assert canonical_bytes(from_canonical_bytes(line)) == line

    def test_decisions_verify_under_the_deployment_keys(self, stores, regenerated):
        _, community = regenerated
        resolver = community.node("A").ctx.resolver
        store = FileRecordStore(_path(stores, "A", "evidence"), fsync=False)
        decisions = list(NonRepudiationLog("A", store).entries("authenticated-decision"))
        assert len(decisions) == 4
        for entry in decisions:
            verdict = verify_authenticated_decision(
                entry.payload, resolver, tsa_verifier=community.tsa.verifier,
                expected_recipients={"B", "C", "A"} - {entry.payload["proposal"]
                                                       ["payload"]["proposer"]},
            )
            assert verdict.authentic and verdict.valid, verdict.problems
        store.close()


class TestSameInputsSameBytes:
    @pytest.mark.parametrize("org", ORGS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_regenerated_stores_are_byte_identical(self, regenerated, org, kind):
        root, _ = regenerated
        assert _lines(_path(root, org, kind)) == _lines(_path(FIXTURE_V2, org, kind))


class TestRecordFormatV2:
    @pytest.mark.parametrize("org", ORGS)
    def test_reads_back_the_records_format_1_holds(self, org):
        # The same deployment wrote both fixtures: resolving every part
        # tag gives back exactly the records format 1 stores in full.
        old_log, old_journal = _open(FIXTURE, org)
        log, journal = _open(FIXTURE_V2, org)
        assert [e.to_dict() for e in log.entries()] == \
            [e.to_dict() for e in old_log.entries()]
        assert list(journal.all_records()) == list(old_journal.all_records())
        assert journal.messages(next(iter(journal.all_records()))["run_id"])
        _close(old_log, old_journal, log, journal)

    @pytest.mark.parametrize("org", ORGS)
    @pytest.mark.parametrize("kind", ["evidence", "journal"])
    def test_each_part_is_held_once_per_store(self, org, kind):
        held = []
        for line in _lines(_path(FIXTURE_V2, org, kind)):
            assert line.endswith(b',"v":2}')
            text = line.decode("ascii")
            pos = line.find(INLINE)
            while pos >= 0:
                end = json.JSONDecoder().raw_decode(text, pos + len(INLINE))[1]
                held.append(hashlib.sha256(line[pos + len(INLINE):end]).digest())
                pos = line.find(INLINE, end)
        assert held and len(held) == len(set(held))
        assert b"__ref__" in b"".join(_lines(_path(FIXTURE_V2, org, kind)))

    @pytest.mark.parametrize("org", ORGS)
    def test_logs_verify_from_the_file_alone(self, stores_v2, org, capsys):
        log, journal = _open(stores_v2, org)
        assert log.verify_chain() == len(_lines(_path(stores_v2, org, "evidence")))
        assert journal.open_runs() == set()
        _close(log, journal)
        assert main(["verify-log", _path(stores_v2, org, "evidence"),
                     "--owner", org]) == 0
        assert "chain intact" in capsys.readouterr().out

    @pytest.mark.parametrize("tamper", ["altered", "deleted", "forward"])
    def test_part_tampering_breaks_verification(self, stores_v2, tamper, capsys):
        path = _path(stores_v2, "A", "evidence")
        lines = _lines(path)
        i, j, part, ref = _part_referred_to_later(lines)
        if tamper == "altered":
            # One character of the signature value changed where the part
            # is held.
            at = (lines[i].index(part) + part.index(b'"signature"')
                  + part[part.index(b'"signature"'):].index(b'"value"') + 25)
            flipped = b"A" if lines[i][at:at + 1] != b"A" else b"B"
            lines[i] = lines[i][:at] + flipped + lines[i][at + 1:]
        elif tamper == "deleted":
            # Held as plain bytes: record i still hashes the same, but
            # record j refers to a part the log no longer holds.
            lines[i] = lines[i].replace(INLINE + part + b"}", part)
        else:
            # Held inline only after the first reference to it: every
            # payload and chain hash is unchanged.
            lines[i] = lines[i].replace(INLINE + part + b"}", ref)
            lines[j] = lines[j].replace(ref, INLINE + part + b"}", 1)
        _write_lines(path, lines)
        store = FileRecordStore(path, fsync=False)
        with pytest.raises(LogCorruptionError):
            NonRepudiationLog("A", store)
        store.close()
        assert main(["verify-log", path, "--owner", "A"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_tampering_after_open_fails_verify_chain(self, stores_v2):
        log, journal = _open(stores_v2, "A")
        path = _path(stores_v2, "A", "evidence")
        lines = _lines(path)
        i, _, part, _ = _part_referred_to_later(lines)
        lines[i] = lines[i].replace(INLINE + part + b"}", part)
        _write_lines(path, lines)
        with pytest.raises(LogCorruptionError):
            log.verify_chain()
        _close(log, journal)

    def test_arbiter_verifies_decisions_from_the_evidence_file(
            self, stores_v2, regenerated):
        _, community = regenerated
        for org in ORGS:
            store = FileRecordStore(_path(stores_v2, org, "evidence"), fsync=False)
            log = NonRepudiationLog(org, store)
            arbiter = Arbiter(community.resolver, tsa_verifier=community.tsa.verifier)
            arbiter.submit(org, log)
            decisions = list(log.entries("authenticated-decision"))
            assert len(decisions) == 4
            for entry in decisions:
                ruling = arbiter.rule_on_state_validity(
                    OBJECT, entry.payload["run_id"], org)
                assert ruling.upheld, ruling.reasons
            store.close()

    def test_format_1_store_continued_in_format_2(self, stores, seeded_keys):
        """Reopen the format 1 deployment, settle more updates, verify."""
        runtime = SimRuntime(seed=12)
        community = Community(ORGS, runtime=runtime, seed="store-fixture",
                              storage_dir=stores)
        for org in ORGS:
            community.node(org).restore_object(OBJECT, DictB2BObject())
        community.node("B").propagate_update(OBJECT, {"count": 6})
        community.settle(1.0)
        community.node("A").propagate_update(OBJECT, {"count": 7})
        community.settle(1.0)
        community.close()
        for org in ORGS:
            ctx = community.node(org).ctx
            assert ctx.checkpoints.require_latest(OBJECT).state["count"] == 7
            _close(ctx.evidence, ctx.journal, ctx.checkpoints)
        for org in ORGS:
            lines = _lines(_path(stores, org, "evidence"))
            versions = [line.endswith(b',"v":2}') for line in lines]
            assert versions[0] is False and versions[-1] is True
            assert versions == sorted(versions)  # format 1, then format 2
            log, journal = _open(stores, org)
            assert log.verify_chain() == len(lines)
            assert journal.open_runs() == set()
            decisions = list(log.entries("authenticated-decision"))
            assert len(decisions) == 6
            for entry in decisions:
                proposer = entry.payload["proposal"]["payload"]["proposer"]
                verdict = verify_authenticated_decision(
                    entry.payload, community.resolver,
                    tsa_verifier=community.tsa.verifier,
                    expected_recipients=set(ORGS) - {proposer},
                )
                assert verdict.authentic and verdict.valid, verdict.problems
            _close(log, journal)
