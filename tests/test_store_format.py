"""Stored formats: records written by an earlier encoder still verify,
and the current code writes them byte for byte the same.

``tests/fixtures/stores`` was written by the two-pass encoder that
preceded the single-pass emitter (see ``tests/store_fixture.py``).
"""

from __future__ import annotations

import os
import shutil

import pytest

import repro.core.community as community_module
from repro.cli import main
from repro.crypto.signature import generate_party_keypair
from repro.protocol.evidence import verify_authenticated_decision
from repro.storage.backends import FileRecordStore
from repro.storage.checkpoint import CheckpointStore
from repro.storage.journal import MessageJournal
from repro.storage.log import NonRepudiationLog
from repro.util.encoding import canonical_bytes, from_canonical_bytes

from tests.store_fixture import KINDS, OBJECT, ORGS, write_stores

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "stores")


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
def regenerated(tmp_path, monkeypatch):
    """The fixture deployment run again by the current code.

    The suite's key cache hands out keys in test order; the fixture needs
    the seeded keys the deployment itself derives.
    """
    monkeypatch.setattr(community_module, "generate_party_keypair",
                        generate_party_keypair)
    root = str(tmp_path / "regenerated")
    community = write_stores(root)
    return root, community


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
        assert _lines(_path(root, org, kind)) == _lines(_path(FIXTURE, org, kind))
