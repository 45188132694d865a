"""Full process restart: rebuilding engines from durable state.

Beyond transient crash/recovery (tested in test_faults_and_recovery),
these tests model losing *all in-memory state*: a node is rebuilt from
its checkpoint store, journal and evidence log via
``Community.restart_node`` + ``OrganisationNode.restore_object``.
"""

from __future__ import annotations

import pytest

from repro.core import (
    DEFERRED_SYNCHRONOUS,
    Community,
    DictB2BObject,
    SimRuntime,
)
from repro.errors import CheckpointError, MembershipError
from repro.protocol.validation import CallbackValidator, Decision


def build(names=("A", "B", "C"), seed=0, mode=DEFERRED_SYNCHRONOUS):
    community = Community(list(names), runtime=SimRuntime(seed=seed))
    objects = {name: DictB2BObject() for name in names}
    controllers = community.found_object("ledger", objects, mode=mode)
    return community, controllers, objects


def write(community, controllers, objects, org, wait=True, **attrs):
    controller = controllers[org]
    controller.enter()
    controller.overwrite()
    for key, value in attrs.items():
        objects[org].set_attribute(key, value)
    ticket = controller.leave()
    if wait:
        controller.coord_commit(ticket)
        community.settle(1.0)
    return ticket


class TestQuiescentRestart:
    def test_agreed_state_and_group_restored(self):
        community, controllers, objects = build(seed=1)
        write(community, controllers, objects, "A", k=1)
        write(community, controllers, objects, "B", m=2)

        node = community.restart_node("B")
        replica = DictB2BObject()
        controller = node.restore_object("ledger", replica)
        assert replica.attributes() == {"k": 1, "m": 2}
        session = node.party.session("ledger")
        assert session.group.members == ["A", "B", "C"]
        assert session.state.agreed_sid.seq == 2

    def test_restarted_node_can_propose(self):
        community, controllers, objects = build(seed=2)
        write(community, controllers, objects, "A", k=1)
        node = community.restart_node("B")
        replica = DictB2BObject()
        controller = node.restore_object("ledger", replica)
        controller.enter()
        controller.overwrite()
        replica.set_attribute("after", "restart")
        controller.coord_commit(controller.leave())
        community.settle(1.0)
        assert objects["A"].get_attribute("after") == "restart"

    def test_restarted_node_can_respond(self):
        community, controllers, objects = build(seed=3)
        write(community, controllers, objects, "A", k=1)
        node = community.restart_node("C")
        node.restore_object("ledger", DictB2BObject())
        write(community, controllers, objects, "A", k2=2)
        assert node.party.session("ledger").state.agreed_state == {
            "k": 1, "k2": 2}

    def test_restore_without_checkpoints_fails(self):
        community, controllers, objects = build(seed=4)
        node = community.restart_node("A")
        with pytest.raises(CheckpointError):
            node.restore_object("ghost-object", DictB2BObject())

    def test_double_restore_rejected(self):
        community, controllers, objects = build(seed=5)
        write(community, controllers, objects, "A", k=1)
        node = community.restart_node("A")
        node.restore_object("ledger", DictB2BObject())
        with pytest.raises(MembershipError):
            node.restore_object("ledger", DictB2BObject())

    def test_unknown_node_restart_rejected(self):
        community, controllers, objects = build(seed=6)
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            community.restart_node("Nobody")


class TestInFlightProposerRestart:
    def test_open_run_resumes_and_completes(self):
        community, controllers, objects = build(seed=10)
        write(community, controllers, objects, "A", k=1)
        # C is down; A's next proposal blocks mid-run.
        community.runtime.network.crash("C")
        ticket = write(community, controllers, objects, "A", wait=False, k=2)
        community.settle(1.0)
        assert not ticket.done
        # Full restart of A: in-memory run state is gone.
        node = community.restart_node("A")
        replica = DictB2BObject()
        node.restore_object("ledger", replica)
        engine = node.party.session("ledger").state
        assert engine.busy  # the run was resumed from the journal
        assert engine.current_state == {"k": 2}  # invariant 2 preserved
        assert engine.agreed_state == {"k": 1}
        # C returns; the resumed run completes everywhere.
        community.runtime.network.recover("C")
        community.node("C").recover()
        community.settle(5.0)
        for name in community.names():
            state = community.node(name).party.session("ledger").state
            assert state.agreed_state == {"k": 2}, name
        assert replica.get_attribute("k") == 2

    def test_recovered_run_reuses_original_identifiers(self):
        community, controllers, objects = build(seed=11)
        community.runtime.network.crash("C")
        ticket = write(community, controllers, objects, "A", wait=False, k=1)
        community.settle(1.0)
        original = community.node("A").party.session("ledger").state
        original_sid = original.active_run().new_sid
        node = community.restart_node("A")
        node.restore_object("ledger", DictB2BObject())
        resumed = node.party.session("ledger").state.active_run()
        assert resumed.new_sid == original_sid
        assert resumed.auth is not None  # authenticator survived via journal

    def test_responses_received_before_restart_are_kept(self):
        community, controllers, objects = build(seed=12)
        community.runtime.network.crash("C")
        write(community, controllers, objects, "A", wait=False, k=1)
        community.settle(1.0)  # B's response arrives, C's does not
        node = community.restart_node("A")
        node.restore_object("ledger", DictB2BObject())
        run = node.party.session("ledger").state.active_run()
        assert "B" in run.responses
        assert run.waiting_on() == ["C"]

    def test_stale_open_run_is_discarded(self):
        # A proposes while C is down, then A crashes; the OTHERS later
        # move on is impossible under unanimity, but the group moving past
        # the run is modelled by completing it before the restart: here we
        # simply verify a run whose seq is not beyond agreed is closed.
        community, controllers, objects = build(seed=13)
        write(community, controllers, objects, "A", k=1)
        community.runtime.network.crash("C")
        ticket = write(community, controllers, objects, "A", wait=False, k=2)
        community.settle(1.0)
        # Manually mark the agreed state as having advanced to seq 2
        # (as if the run had completed but the close record was lost).
        node_a = community.node("A")
        engine = node_a.party.session("ledger").state
        run = engine.active_run()
        from repro.protocol.events import Output
        output = Output()
        engine._settle(run, True, [], output)
        node_a._process_output(output)
        node = community.restart_node("A")
        node.restore_object("ledger", DictB2BObject())
        restored = node.party.session("ledger").state
        assert not restored.busy
        assert restored.agreed_state == {"k": 2}


class TestInFlightResponderRestart:
    def test_responder_rebuilds_and_answers_retransmission(self):
        from repro.transport.inmemory import LinkProfile
        community, controllers, objects = build(seed=20)
        write(community, controllers, objects, "A", k=1)
        # B receives A's proposal but its outbound responses are lost
        # before B's process dies: an asymmetric B -> A fault.
        network = community.runtime.network
        network.set_link_profile("B", "A", LinkProfile(drop_probability=0.999999))
        ticket = write(community, controllers, objects, "A", wait=False, k2=2)
        community.settle(1.0)
        assert not ticket.done
        engine_old = community.node("B").party.session("ledger").state
        open_runs = [r for r in engine_old.runs() if r.outcome is None]
        assert open_runs  # B accepted and is awaiting m3
        node = community.restart_node("B")
        node.restore_object("ledger", DictB2BObject())
        engine = node.party.session("ledger").state
        # B re-drove the proposal from its journal: decision recomputed
        # and the run is live again.
        assert any(r.outcome is None for r in engine.runs())
        network.set_link_profile("B", "A", LinkProfile())
        community.settle(10.0)
        for name in community.names():
            state = community.node(name).party.session("ledger").state
            assert state.agreed_state == {"k": 1, "k2": 2}, (
                name, state.agreed_state)
        assert ticket.done and ticket.valid

    def test_replay_protection_survives_restart(self):
        community, controllers, objects = build(seed=21)
        from repro.faults import MessageRecorder
        recorder = MessageRecorder(community.node("A"), msg_type="propose")
        write(community, controllers, objects, "A", k=1)
        node = community.restart_node("B")
        node.restore_object("ledger", DictB2BObject())
        engine = node.party.session("ledger").state
        before = engine.agreed_sid
        recorder.replay()  # replay the old m1 at the restarted B
        community.settle(1.0)
        assert engine.agreed_sid == before
        # the replayed tuple was already in the recovered seen-set
        assert engine._proposal_key(before) in engine._seen_proposal_keys


class TestFileBackedRestart:
    def test_restart_from_disk_stores(self, tmp_path):
        """End-to-end durability: all three stores on disk, node rebuilt
        from files only."""
        from repro.storage.backends import FileRecordStore
        from repro.storage.checkpoint import CheckpointStore
        from repro.storage.journal import MessageJournal
        from repro.storage.log import NonRepudiationLog

        community = Community(["A", "B"], runtime=SimRuntime(seed=30))
        # rewire A's context onto file-backed stores before any activity
        ctx = community.node("A").ctx
        ctx.evidence = NonRepudiationLog(
            "A", FileRecordStore(str(tmp_path / "ev.jsonl")))
        ctx.journal = MessageJournal(
            "A", FileRecordStore(str(tmp_path / "jr.jsonl")))
        ctx.checkpoints = CheckpointStore(
            FileRecordStore(str(tmp_path / "ck.jsonl")))

        objects = {name: DictB2BObject() for name in community.names()}
        controllers = community.found_object("ledger", objects)
        controller = controllers["A"]
        controller.enter()
        controller.overwrite()
        objects["A"].set_attribute("k", 1)
        controller.leave()
        community.settle(1.0)

        # "power cycle": close files, rebuild stores from disk
        ctx.evidence._store.close()
        ctx.journal._store.close()
        ctx.checkpoints._store.close()
        ctx.evidence = NonRepudiationLog(
            "A", FileRecordStore(str(tmp_path / "ev.jsonl")))
        ctx.journal = MessageJournal(
            "A", FileRecordStore(str(tmp_path / "jr.jsonl")))
        ctx.checkpoints = CheckpointStore(
            FileRecordStore(str(tmp_path / "ck.jsonl")))

        node = community.restart_node("A")
        replica = DictB2BObject()
        node.restore_object("ledger", replica)
        assert replica.get_attribute("k") == 1
        assert node.ctx.evidence.verify_chain() > 0


class TestStorageDirCommunity:
    def test_community_with_storage_dir_is_durable(self, tmp_path):
        import os

        from repro.core import Community, SimRuntime

        storage = str(tmp_path / "stores")
        community = Community(["A", "B"], runtime=SimRuntime(seed=50),
                              storage_dir=storage)
        objects = {name: DictB2BObject() for name in community.names()}
        controllers = community.found_object("ledger", objects)
        controller = controllers["A"]
        controller.enter()
        controller.overwrite()
        objects["A"].set_attribute("k", 7)
        controller.leave()
        community.settle(1.0)
        # the durable files exist on disk
        for kind in ("evidence", "journal", "checkpoints"):
            assert os.path.exists(os.path.join(storage, "A", f"{kind}.jsonl"))
        # restart A over the same stores and restore the object
        node = community.restart_node("A")
        replica = DictB2BObject()
        node.restore_object("ledger", replica)
        assert replica.get_attribute("k") == 7
        assert node.ctx.evidence.verify_chain() > 0

    def test_restart_reopens_stores_from_disk(self, tmp_path):
        """Three parties on file stores; a responder restarts between runs
        from its files alone, then takes part in (and proposes) more runs."""
        from repro.core import Community, SimRuntime

        community = Community(["A", "B", "C"], runtime=SimRuntime(seed=51),
                              storage_dir=str(tmp_path / "stores"))
        objects = {name: DictB2BObject({"count": 0})
                   for name in community.names()}
        community.found_object("ledger", objects)
        for count in (1, 2):
            community.node("A").propagate_update("ledger", {"count": count})
            community.settle(1.0)

        old_ctx = community.node("B").ctx
        node = community.restart_node("B")
        assert node.ctx.evidence is not old_ctx.evidence
        assert node.ctx.journal is not old_ctx.journal
        assert node.ctx.checkpoints is not old_ctx.checkpoints
        objects["B"] = DictB2BObject()
        node.restore_object("ledger", objects["B"])
        assert objects["B"].get_state() == {"count": 2}

        for proposer, count in (("C", 3), ("B", 4), ("A", 5)):
            community.node(proposer).propagate_update("ledger", {"count": count})
            community.settle(1.0)

        assert all(obj.get_state() == {"count": 5} for obj in objects.values())
        for name in community.names():
            party = community.node(name)
            assert party.ctx.evidence.verify_chain() > 0
            assert party.ctx.journal.open_runs() == set()
            assert party.misbehaviour_reports == []
        community.close()
        for party in community.nodes.values():
            for records in (party.ctx.evidence, party.ctx.journal,
                            party.ctx.checkpoints):
                records.close()
