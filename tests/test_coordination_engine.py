"""The state coordination protocol at the engine level (sections 4.2-4.4)."""

from __future__ import annotations

import pytest

from repro.errors import ConcurrencyError
from repro.protocol.coordination import OUTCOME_INVALID, OUTCOME_VALID
from repro.protocol.events import (
    MisbehaviourEvent,
    RunBlocked,
    RunCompleted,
    StateInstalled,
    StateRolledBack,
)
from repro.protocol.validation import CallbackValidator, Decision

from tests.engine_helpers import EngineHarness, found


def make_harness(n=3, initial=None, seed=0, **kwargs):
    names = [f"P{i + 1}" for i in range(n)]
    harness = EngineHarness(names, seed=seed)
    found(harness, "obj", names, initial if initial is not None else {"v": 0},
          **kwargs)
    return harness


def engine(harness, name):
    return harness.party(name).session("obj").state


class TestHappyPath:
    def test_unanimous_overwrite_installs_everywhere(self):
        harness = make_harness(3)
        run_id, output = engine(harness, "P1").propose_overwrite({"v": 1})
        harness.pump("P1", output)
        for name in harness.names:
            assert engine(harness, name).agreed_state == {"v": 1}
            assert engine(harness, name).current_state == {"v": 1}
        completed = harness.events_of("P1", RunCompleted)
        assert completed and completed[0].valid and completed[0].run_id == run_id

    def test_all_parties_share_the_agreed_identifier(self):
        harness = make_harness(4)
        _, output = engine(harness, "P2").propose_overwrite({"v": 9})
        harness.pump("P2", output)
        sids = {engine(harness, n).agreed_sid for n in harness.names}
        assert len(sids) == 1
        assert next(iter(sids)).seq == 1

    def test_sequence_numbers_advance_across_proposers(self):
        harness = make_harness(3)
        for index, proposer in enumerate(["P1", "P2", "P3", "P1"]):
            _, output = engine(harness, proposer).propose_overwrite(
                {"v": index + 1}
            )
            harness.pump(proposer, output)
        assert engine(harness, "P2").agreed_sid.seq == 4

    def test_update_mode(self):
        harness = make_harness(3, initial={"a": 1})
        _, output = engine(harness, "P1").propose_update({"b": 2})
        harness.pump("P1", output)
        for name in harness.names:
            assert engine(harness, name).agreed_state == {"a": 1, "b": 2}

    def test_singleton_group_trivially_valid(self):
        harness = EngineHarness(["Solo"])
        found(harness, "obj", ["Solo"], {"v": 0})
        run_id, output = engine(harness, "Solo").propose_overwrite({"v": 1})
        harness.pump("Solo", output)
        assert engine(harness, "Solo").agreed_state == {"v": 1}
        assert engine(harness, "Solo").run(run_id).outcome == OUTCOME_VALID

    def test_two_party(self):
        harness = make_harness(2)
        _, output = engine(harness, "P2").propose_overwrite({"v": 5})
        harness.pump("P2", output)
        assert engine(harness, "P1").agreed_state == {"v": 5}

    def test_states_are_frozen_copies(self):
        harness = make_harness(2)
        state = {"v": 1, "nested": [1, 2]}
        _, output = engine(harness, "P1").propose_overwrite(state)
        state["nested"].append(3)  # caller mutates afterwards
        harness.pump("P1", output)
        assert engine(harness, "P2").agreed_state == {"v": 1, "nested": [1, 2]}

    def test_evidence_and_journal_written(self):
        harness = make_harness(2)
        run_id, output = engine(harness, "P1").propose_overwrite({"v": 1})
        harness.pump("P1", output)
        log = harness.party("P1").ctx.evidence
        assert log.find("proposal-sent", run_id=run_id) is not None
        assert log.find("authenticated-decision", run_id=run_id) is not None
        assert log.verify_chain() > 0
        journal = harness.party("P1").ctx.journal
        assert journal.outcome(run_id) == OUTCOME_VALID
        assert not journal.open_runs()

    def test_checkpoint_saved_on_install(self):
        harness = make_harness(2)
        _, output = engine(harness, "P1").propose_overwrite({"v": 1})
        harness.pump("P1", output)
        for name in harness.names:
            checkpoint = harness.party(name).ctx.checkpoints.require_latest("obj")
            assert checkpoint.state == {"v": 1} and checkpoint.sequence == 1


class TestVetoAndRollback:
    def test_single_veto_invalidates(self):
        harness = make_harness(3)
        engine(harness, "P3").validator = CallbackValidator(
            state=lambda p, c, proposer: Decision.reject("policy says no")
        )
        run_id, output = engine(harness, "P1").propose_overwrite({"v": 1})
        harness.pump("P1", output)
        for name in harness.names:
            assert engine(harness, name).agreed_state == {"v": 0}
        completed = harness.events_of("P1", RunCompleted)[0]
        assert not completed.valid
        assert any("policy says no" in d for d in completed.diagnostics)

    def test_proposer_rolls_back(self):
        harness = make_harness(2)
        engine(harness, "P2").validator = CallbackValidator(
            state=lambda p, c, proposer: Decision.reject("no")
        )
        _, output = engine(harness, "P1").propose_overwrite({"v": 1})
        # invariant 2: pre-applied before responses arrive
        harness.pump("P1", output)
        rollbacks = harness.events_of("P1", StateRolledBack)
        assert rollbacks and rollbacks[0].state == {"v": 0}
        assert engine(harness, "P1").current_state == {"v": 0}
        assert engine(harness, "P1").current_sid == engine(harness, "P1").agreed_sid

    def test_rejected_run_leaves_engines_unblocked(self):
        harness = make_harness(3)
        engine(harness, "P2").validator = CallbackValidator(
            state=lambda p, c, proposer: Decision.reject("no")
        )
        _, output = engine(harness, "P1").propose_overwrite({"v": 1})
        harness.pump("P1", output)
        for name in harness.names:
            assert not engine(harness, name).busy
        # and a subsequent valid proposal succeeds
        engine(harness, "P2").validator = CallbackValidator()
        _, output = engine(harness, "P1").propose_overwrite({"v": 2})
        harness.pump("P1", output)
        assert engine(harness, "P3").agreed_state == {"v": 2}

    def test_update_veto(self):
        harness = make_harness(2, initial={"a": 1})
        engine(harness, "P2").validator = CallbackValidator(
            update=lambda u, r, c, proposer: Decision.reject("bad delta")
        )
        _, output = engine(harness, "P1").propose_update({"b": 2})
        harness.pump("P1", output)
        assert engine(harness, "P2").agreed_state == {"a": 1}
        assert engine(harness, "P1").current_state == {"a": 1}


class TestInvariants:
    def test_invariant_1_mid_transition_proposer_rejected(self):
        """A responder whose replica is mid-transition rejects (busy)."""
        harness = make_harness(3)
        # P1's proposal never reaches anyone: P1 is mid-transition
        # (invariant 2 pre-apply) while P2 and P3 remain free.
        harness.blocked_edges = {("P1", "P2"), ("P1", "P3")}
        _, output = engine(harness, "P1").propose_overwrite({"v": 1})
        harness.pump("P1", output)
        harness.blocked_edges = set()
        _, output = engine(harness, "P2").propose_overwrite({"v": 2})
        harness.pump("P2", output)
        completed = harness.events_of("P2", RunCompleted)[0]
        assert not completed.valid
        assert any("invariant-1" in d or "busy" in d
                   for d in completed.diagnostics)

    def test_invariant_3_stale_sequence_rejected(self):
        harness = make_harness(2)
        stale = engine(harness, "P1")
        # Drive a real run to advance both parties to seq 1.
        _, output = engine(harness, "P2").propose_overwrite({"v": 7})
        harness.pump("P2", output)
        # Forge a proposal with seq <= agreed by resetting the counter.
        stale.highest_seq_seen = 0
        _, output = stale.propose_overwrite({"v": 8})
        harness.pump("P1", output)
        completed = [e for e in harness.events_of("P1", RunCompleted)
                     if e.role == "proposer"]
        assert completed and not completed[-1].valid
        assert any("invariant-3" in d for d in completed[-1].diagnostics)

    def test_invariant_4_replayed_tuple_rejected(self, ):
        harness = make_harness(2)
        proposer = engine(harness, "P1")
        run_id, output = proposer.propose_overwrite({"v": 1})
        original_m1 = None
        for recipient, message in output.messages:
            if message.get("msg_type") == "propose":
                original_m1 = message
        harness.pump("P1", output)
        # Replay the original m1: the engine re-handles idempotently and
        # re-sends its stored response, not a second acceptance.
        before = len(harness.party("P2").ctx.evidence._store._records)
        harness.deliver("P1", "P2", original_m1)
        assert engine(harness, "P2").agreed_state == {"v": 1}
        # no new proposal-received evidence (idempotent path)
        log = harness.party("P2").ctx.evidence
        received = [e for e in log.entries("proposal-received")]
        assert len(received) == 1

    def test_null_transition_rejected(self):
        harness = make_harness(2, initial={"v": 0})
        _, output = engine(harness, "P1").propose_overwrite({"v": 0})
        harness.pump("P1", output)
        completed = harness.events_of("P1", RunCompleted)[0]
        assert not completed.valid
        assert any("null state transition" in d for d in completed.diagnostics)

    def test_null_transition_allowed_when_configured(self):
        names = ["P1", "P2"]
        harness = EngineHarness(names)
        found(harness, "obj", names, {"v": 0}, reject_null_transitions=False)
        _, output = engine(harness, "P1").propose_overwrite({"v": 0})
        harness.pump("P1", output)
        assert harness.events_of("P1", RunCompleted)[0].valid

    def test_reinstalling_an_earlier_state_is_legitimate(self):
        # uniqueness refers to the proposal tuple, not the proposed state
        harness = make_harness(2, initial={"v": 0})
        _, output = engine(harness, "P1").propose_overwrite({"v": 1})
        harness.pump("P1", output)
        _, output = engine(harness, "P2").propose_overwrite({"v": 0})
        harness.pump("P2", output)
        assert engine(harness, "P1").agreed_state == {"v": 0}
        assert engine(harness, "P1").agreed_sid.seq == 2


class TestConcurrencyControl:
    def test_proposer_cannot_start_two_runs(self):
        harness = make_harness(3)
        harness.blocked_edges = {("P2", "P1"), ("P3", "P1")}
        _, output = engine(harness, "P1").propose_overwrite({"v": 1})
        harness.pump("P1", output)
        with pytest.raises(ConcurrencyError):
            engine(harness, "P1").propose_overwrite({"v": 2})

    def test_busy_responder_rejects_competing_proposal(self):
        harness = make_harness(3)
        # P1 proposes but its commit never reaches P3
        harness.blocked_edges = {("P1", "P3")}
        _, output = engine(harness, "P1").propose_overwrite({"v": 1})
        harness.pump("P1", output)
        assert engine(harness, "P3").busy is False  # P3 never saw m1
        assert engine(harness, "P2").busy  # P2 accepted, waiting for m3
        harness.blocked_edges = set()
        _, output = engine(harness, "P3").propose_overwrite({"v": 2})
        harness.pump("P3", output)
        completed = harness.events_of("P3", RunCompleted)[-1]
        assert not completed.valid
        assert any("busy" in d or "invariant-1" in d
                   for d in completed.diagnostics)

    def test_concurrent_runs_converge_to_one_winner(self):
        # Proposals from P1 and P2 race; serialisation ensures at most one
        # installs and all replicas agree afterwards.
        harness = make_harness(3)
        _, out1 = engine(harness, "P1").propose_overwrite({"v": 1})
        _, out2 = engine(harness, "P2").propose_overwrite({"v": 2})
        harness.pump("P1", out1)
        harness.pump("P2", out2)
        states = {tuple(sorted(engine(harness, n).agreed_state.items()))
                  for n in harness.names}
        assert len(states) == 1


class TestIdempotenceAndRecovery:
    def test_duplicate_m1_resends_response(self):
        harness = make_harness(2)
        run_id, output = engine(harness, "P1").propose_overwrite({"v": 1})
        m1 = output.messages[0][1]
        harness.pump("P1", output)
        # duplicate m1 handled idempotently; still settled once
        harness.deliver("P1", "P2", m1)
        assert engine(harness, "P2").run(run_id).outcome == OUTCOME_VALID
        completions = harness.events_of("P2", RunCompleted)
        assert len(completions) == 1

    def test_resend_outstanding_completes_after_loss(self):
        harness = make_harness(3)
        harness.blocked_edges = {("P1", "P3")}  # P3 misses m1
        _, output = engine(harness, "P1").propose_overwrite({"v": 1})
        harness.pump("P1", output)
        assert engine(harness, "P1").busy
        harness.blocked_edges = set()
        resend = harness.party("P1").resend_outstanding()
        harness.pump("P1", resend)
        for name in harness.names:
            assert engine(harness, name).agreed_state == {"v": 1}

    def test_late_response_after_settlement_triggers_commit_resend(self):
        harness = make_harness(3)
        # P3's first response is lost; P1 can't finish until resend.
        harness.blocked_edges = {("P3", "P1")}
        _, output = engine(harness, "P1").propose_overwrite({"v": 1})
        harness.pump("P1", output)
        assert engine(harness, "P1").busy
        harness.blocked_edges = set()
        resend = harness.party("P3").resend_outstanding()
        harness.pump("P3", resend)
        assert engine(harness, "P1").agreed_state == {"v": 1}
        assert engine(harness, "P3").agreed_state == {"v": 1}

    def test_check_progress_reports_blocked_runs(self):
        harness = make_harness(2)
        harness.blocked_edges = {("P2", "P1")}
        _, output = engine(harness, "P1").propose_overwrite({"v": 1})
        harness.pump("P1", output)
        harness.clock.advance(100.0)
        progress = engine(harness, "P1").check_progress(timeout=10.0)
        blocked = [e for e in progress.events if isinstance(e, RunBlocked)]
        assert blocked and blocked[0].waiting_on == ["P2"]
        assert blocked[0].age >= 100.0

    def test_abort_active_run(self):
        harness = make_harness(2)
        harness.blocked_edges = {("P2", "P1")}
        run_id, output = engine(harness, "P1").propose_overwrite({"v": 1})
        harness.pump("P1", output)
        output = engine(harness, "P1").abort_active_run("operator decision")
        harness.pump("P1", output)
        run = engine(harness, "P1").run(run_id)
        assert run.outcome == OUTCOME_INVALID
        assert engine(harness, "P1").current_state == {"v": 0}
        assert not engine(harness, "P1").busy


class TestMisbehaviourDetection:
    def test_impersonated_proposal_dropped(self):
        harness = make_harness(3)
        run_id, output = engine(harness, "P1").propose_overwrite({"v": 1})
        m1 = output.messages[0][1]
        # P3 relays P1's proposal claiming to be the proposer transport-wise
        harness.deliver("P3", "P2", m1)
        events = harness.events_of("P2", MisbehaviourEvent)
        assert any(e.kind == "impersonation" for e in events)
        assert engine(harness, "P2").agreed_state == {"v": 0}

    def test_unsolicited_response_detected(self):
        harness = make_harness(3)
        run_id, output = engine(harness, "P1").propose_overwrite({"v": 1})
        harness.pump("P1", output)
        # P2 sends its (now stale) response for a non-existent run at P3
        response = engine(harness, "P2").run(run_id).own_response
        from repro.protocol.messages import respond_message
        harness.deliver("P2", "P3", respond_message(response))
        events = harness.events_of("P3", MisbehaviourEvent)
        assert any(e.kind == "unsolicited-response" for e in events)

    def test_malformed_message_detected(self):
        harness = make_harness(2)
        harness.deliver("P1", "P2", {"msg_type": "propose", "object": "obj",
                                     "proposal": "junk"})
        events = harness.events_of("P2", MisbehaviourEvent)
        assert any(e.kind == "malformed-message" for e in events)

    def test_unknown_message_type_detected(self):
        harness = make_harness(2)
        output = engine(harness, "P2").handle("P1", {"msg_type": "sabotage"})
        assert any(isinstance(e, MisbehaviourEvent)
                   and e.kind == "unknown-message" for e in output.events)

    def test_unroutable_message_ignored(self):
        harness = make_harness(2)
        harness.deliver("P1", "P2", {"msg_type": "propose"})  # no object
        assert harness.events_of("P2") == []

    def test_commit_for_unknown_run_flags_selective_send(self):
        # Build a genuine commit in a twin deployment (same parties/keys),
        # then present it to a replica that never saw the proposal — the
        # situation a selectively-sending proposer creates.
        twin = make_harness(2, seed=1)
        commit_holder = {}
        run_id, output = engine(twin, "P1").propose_overwrite({"v": 1})
        twin.pump("P1", output)
        run = engine(twin, "P1").run(run_id)
        assert run.commit is not None
        victim_harness = make_harness(2, seed=2)
        harness = victim_harness
        harness.deliver("P1", "P2", run.commit)
        events = harness.events_of("P2", MisbehaviourEvent)
        assert any(e.kind == "selective-send" for e in events)
        assert engine(harness, "P2").agreed_state == {"v": 0}


def _commits_held_back(harness, run_output):
    """Deliver ``m1`` and every ``m2``; return the ``m3`` per recipient."""
    responses = []
    for recipient, m1 in run_output.messages:
        reply = harness.party(recipient).handle("P1", m1)
        responses += [(recipient, m2) for _, m2 in reply.messages]
    commits = {}
    for responder, m2 in responses:
        out = harness.party("P1").handle(responder, m2)
        commits.update(out.messages)
    return commits


class TestSettledRuns:
    """What a run keeps once settled, and the paths that still read it."""

    def test_settled_runs_release_state_and_body(self):
        harness = make_harness(3)
        run_id, output = engine(harness, "P1").propose_update({"v": 1})
        harness.pump("P1", output)
        for name in harness.names:
            run = engine(harness, name).run(run_id)
            assert run.outcome == OUTCOME_VALID
            assert run.new_state is None and run.body is None
            assert run.body_hash
            assert run.commit["msg_type"] == "commit"
            assert engine(harness, name).agreed_state == {"v": 1}

    def test_commit_is_the_m3_sent_and_journalled(self):
        harness = make_harness(3)
        run_id, output = engine(harness, "P1").propose_update({"v": 1})
        commits = _commits_held_back(harness, output)
        assert engine(harness, "P1").run(run_id).commit == commits["P2"]
        harness.deliver("P1", "P2", commits["P2"])
        journalled = [record["message"] for record
                      in harness.party("P2").ctx.journal.messages(run_id)
                      if record["message"].get("msg_type") == "commit"]
        assert journalled == [commits["P2"]]
        assert engine(harness, "P2").run(run_id).commit == commits["P2"]

    def test_late_response_gets_the_same_commit(self):
        harness = make_harness(3)
        run_id, output = engine(harness, "P1").propose_update({"v": 1})
        commits = _commits_held_back(harness, output)  # P3 misses m3
        own_response = engine(harness, "P3").run(run_id).own_response
        resend = harness.party("P1").handle(
            "P3", {"msg_type": "respond", "response": own_response.to_dict()})
        assert resend.messages == [("P3", commits["P3"])]
        harness.pump("P1", resend)
        assert engine(harness, "P3").agreed_state == {"v": 1}


class TestOwnResponseInBundle:
    """A responder skips re-verifying its own response only when the
    bundle returns it byte for byte; any change is still caught."""

    def _held_commit(self):
        harness = make_harness(3)
        run_id, output = engine(harness, "P1").propose_overwrite({"v": 1})
        commit = _commits_held_back(harness, output)["P2"]
        own = [r for r in commit["responses"]
               if r["payload"]["responder"] == "P2"][0]
        return harness, run_id, commit, own

    def test_unaltered_bundle_installs(self):
        harness, run_id, commit, _ = self._held_commit()
        harness.deliver("P1", "P2", commit)
        assert engine(harness, "P2").agreed_state == {"v": 1}
        assert harness.events_of("P2", MisbehaviourEvent) == []

    def test_altered_own_response_is_evidence_tampering(self):
        harness, run_id, commit, own = self._held_commit()
        own["payload"]["decision"] = {"verdict": "reject", "diagnostics": ["forged"]}
        harness.deliver("P1", "P2", commit)
        events = harness.events_of("P2", MisbehaviourEvent)
        assert [e.kind for e in events] == ["evidence-tampering"]
        assert events[0].party == "P1"
        assert engine(harness, "P2").agreed_state == {"v": 0}

    @pytest.mark.parametrize("retype", [float, bool], ids=["float", "bool"])
    def test_retyped_int_in_own_response_is_evidence_tampering(self, retype):
        # 1 == 1.0 == True in Python, but each has different canonical
        # bytes, so our signature no longer covers the returned payload.
        harness, run_id, commit, own = self._held_commit()
        new_sid = own["payload"]["new_sid"]
        assert new_sid["seq"] == 1
        own["payload"]["new_sid"] = dict(new_sid, seq=retype(new_sid["seq"]))
        harness.deliver("P1", "P2", commit)
        events = harness.events_of("P2", MisbehaviourEvent)
        assert [e.kind for e in events] == ["evidence-tampering"]
        assert engine(harness, "P2").agreed_state == {"v": 0}
        assert engine(harness, "P2").run(run_id).outcome == OUTCOME_INVALID

    @pytest.mark.parametrize("field", ["signature", "timestamp"])
    def test_altered_own_signature_or_stamp_is_verified_and_rejected(self, field):
        harness, run_id, commit, own = self._held_commit()
        part = own[field] if field == "signature" else own[field]["signature"]
        part["value"] = bytes(len(part["value"]))
        harness.deliver("P1", "P2", commit)
        events = harness.events_of("P2", MisbehaviourEvent)
        assert [e.kind for e in events] == ["invalid-signature"]
        assert engine(harness, "P2").agreed_state == {"v": 0}
        assert engine(harness, "P2").run(run_id).outcome == OUTCOME_INVALID
