"""Provider onboarding, post filtering, porting, disclosure, recovery."""

import dataclasses
import hashlib

import pytest

from coopattest import crypto
from coopattest.attestation import canonical_bytes
from coopattest.cooperative import STATUS_REVOKED, Cooperative, MemberRecord
from coopattest.dsn import (
    OUTCOME_DELIVER,
    REASON_ATTESTED,
    REASON_EXPIRED,
    REASON_INVALID,
    REASON_NO_MATCH,
    REASON_ORIGIN,
    REASON_REVOKED,
    VERDICTS,
    FilterDecision,
    Post,
    Provider,
    recovery_message,
)
from coopattest.errors import (
    BadRecoverySignature,
    DanglingAttestationPointer,
    HandleMismatch,
    HandleTaken,
    InvalidAttestation,
    UnknownSender,
    Untraceable,
)
from coopattest.ledger import AttestationRecord, PostRecord, RecordPointer
from coopattest.notary import OUTCOME_DENIED, OUTCOME_DISCLOSED, Notary

from conftest import ledger_records


class Capture:
    def __init__(self):
        self.events = []

    def bind(self, actor):
        name = actor.name
        actor._emit = lambda kind, payload: self.events.append((name, kind, payload))

    def of_kind(self, kind):
        return [e for e in self.events if e[1] == kind]

    def decisions(self, provider, body):
        """The filter decisions *provider* logged for posts with *body*,
        each logged with the outcome its reason gives."""
        logged = [e[2] for e in self.of_kind("filter-decision")
                  if e[0] == provider and e[2]["post_digest"] == crypto.digest(body)]
        decisions = [FilterDecision(payload["reason"]) for payload in logged]
        assert [d.outcome for d in decisions] == [p["outcome"] for p in logged]
        return decisions


class Stack:
    """Cooperative, notary, and three providers with a follower topology."""

    def __init__(self, provider_names=("P1", "P2", "P3"), followers=None, jurisdictions=None):
        self.keys = crypto.KeyDirectory()
        self.coop = Cooperative("coop1", b"coop1", "notary-1")
        self.notary = Notary(
            "notary-1", b"notary-1", "US", frozenset({"US", "EU"}),
        )
        self.notary.represent(self.coop.public_key, self.coop.revalidation_status)
        self.keys.add(self.coop.public_key)
        self.keys.add(self.notary.public_key)
        self.ledgers = {}
        self.providers = {}
        followers = followers or {"@sender": ("P2", "P3")}
        jurisdictions = jurisdictions or {}
        for name in provider_names:
            provider = Provider(
                name, jurisdictions.get(name, "US"), crypto.keygen(name.encode()),
                keys=self.keys, notaries={"notary-1": self.notary},
                ledger_registry=self.ledgers,
                followers=followers if name == "P1" else {},
            )
            self.providers[name] = provider
        for provider in self.providers.values():
            provider.peers = {n: p for n, p in self.providers.items() if n != provider.name}

    def member(self, member_id="alice", handle="@sender",
               identity="alice-legal-00000001"):
        self.coop.register_member(MemberRecord(
            member_id, identity, {"date-of-birth": -9000, "residence": "NL"}, handle=handle,
        ))

    def issue_csa(self, member_id="alice", now=10, ttl=90):
        plain, blinded = self.coop.issue_blinded(
            member_id, ["age-over-18"], "handle", now, ttl
        )
        return self.notary.witness_and_countersign(plain, blinded, now)

    def onboard(self, handle="@sender", member_id="alice", provider="P1", now=10):
        csa = self.issue_csa(member_id, now=now)
        recovery = crypto.keygen(f"recovery:{handle}".encode())
        account = self.providers[provider].onboard_sender(handle, csa, recovery.public_key, now)
        return account, csa, recovery


class TestOnboarding:
    def test_account_resolves_on_ledger(self):
        stack = Stack()
        stack.member()
        account, csa, _ = stack.onboard()
        record = stack.providers["P1"].ledger.get(account.attestation_ptr)
        assert record.payload.csa == csa

    def test_handle_mismatch(self):
        stack = Stack()
        stack.member(handle="@other")
        csa = stack.issue_csa()
        with pytest.raises(HandleMismatch):
            stack.providers["P1"].onboard_sender(
                "@sender", csa, b"rk", 10
            )

    def test_absent_subject_rejected(self):
        stack = Stack()
        stack.member()
        plain, blinded = stack.coop.issue_blinded("alice", ["age-over-18"], "absent", 10, 90)
        csa = stack.notary.witness_and_countersign(plain, blinded, 10)
        with pytest.raises(HandleMismatch):
            stack.providers["P1"].onboard_sender(
                "@sender", csa, b"rk", 10
            )

    def test_handle_taken(self):
        stack = Stack()
        stack.member()
        stack.onboard()
        with pytest.raises(HandleTaken):
            stack.providers["P1"].onboard_sender(
                "@sender", stack.issue_csa(), b"rk", 10
            )

    def test_expired_attestation_rejected(self):
        stack = Stack()
        stack.member()
        csa = stack.issue_csa(now=10)
        with pytest.raises(InvalidAttestation):
            stack.providers["P1"].onboard_sender(
                "@sender", csa, b"rk", 100
            )


class TestPublish:
    def test_post_record_digest(self):
        stack = Stack()
        stack.member()
        stack.onboard()
        ptr = stack.providers["P1"].publish_post("@sender", b"hello", 20)
        record = stack.providers["P1"].ledger.get(ptr)
        assert record.payload.post_digest == hashlib.sha256(b"hello").digest()

    def test_propagates_only_to_follower_providers(self):
        stack = Stack(provider_names=("P1", "P2", "P3", "P4"),
                      followers={"@sender": ("P2", "P3")})
        stack.member()
        stack.onboard()
        capture = Capture()
        for name in ("P2", "P3", "P4"):
            capture.bind(stack.providers[name])
        stack.providers["P1"].publish_post("@sender", b"hello", 20)
        assert [e[0] for e in capture.of_kind("filter-decision")] == ["P2", "P3"]

    def test_unknown_sender(self):
        stack = Stack()
        with pytest.raises(UnknownSender):
            stack.providers["P1"].publish_post("@ghost", b"x", 20)

    def test_empty_body_rejected(self):
        stack = Stack()
        stack.member()
        stack.onboard()
        with pytest.raises(ValueError):
            stack.providers["P1"].publish_post("@sender", b"", 20)

    def test_a_post_record_may_not_point_at_another_providers_attestation(self):
        stack = Stack()
        stack.member()
        account, _, _ = stack.onboard(provider="P1")
        p2 = stack.providers["P2"]
        with pytest.raises(DanglingAttestationPointer):
            p2.ledger.append(p2.writer,
                             PostRecord(crypto.digest(b"hello"), account.attestation_ptr, 20))
        assert ledger_records(p2.ledger) == ()

    def test_each_actor_hashes_a_post_body_once(self, monkeypatch):
        stack = Stack(followers={"@sender": ("P2",)})
        stack.member()
        stack.onboard()
        body = b"hashed once"
        hashed = []
        real = crypto.digest

        def counting(data):
            hashed.append(data)
            return real(data)

        monkeypatch.setattr(crypto, "digest", counting)
        stack.providers["P1"].publish_post("@sender", body, 20)
        # The publisher hashes it for the ledger and its log, the follower
        # provider for the search and its decision.
        assert hashed.count(body) == 2
        hashed.clear()
        decision = stack.providers["P3"].receive_post(Post(body, "@sender", "P1", 21), 21)
        assert decision == FilterDecision(REASON_ATTESTED)
        assert hashed.count(body) == 1


class TestFiltering:
    def test_happy_path_delivered(self):
        stack = Stack()
        stack.member()
        stack.onboard()
        capture = Capture()
        capture.bind(stack.providers["P3"])
        stack.providers["P1"].publish_post("@sender", b"hello", 20)
        assert capture.decisions("P3", b"hello") == [
            FilterDecision(REASON_ATTESTED)]

    def test_bot_injection_dropped(self):
        stack = Stack()
        bot_post = Post(b"buy coin now", "@bot", "P1", 20)
        decision = stack.providers["P2"].receive_post(bot_post, 20)
        assert decision == FilterDecision(REASON_NO_MATCH)

    def test_unknown_origin_dropped(self):
        stack = Stack()
        decision = stack.providers["P2"].receive_post(Post(b"x", "@bot", "P9", 20), 20)
        assert decision.reason == REASON_NO_MATCH

    def test_duplicate_digest_imposter(self):
        """Same body, forged author: the imposter drops with origin-mismatch,
        the attested sender's delivery is unaffected."""
        stack = Stack()
        stack.member()
        stack.onboard()
        capture = Capture()
        capture.bind(stack.providers["P3"])
        stack.providers["P1"].publish_post("@sender", b"same words", 20)
        imposter = Post(b"same words", "@imposter", "P1", 21)
        decision = stack.providers["P3"].receive_post(imposter, 21)
        assert decision == FilterDecision(REASON_ORIGIN)
        assert capture.decisions("P3", b"same words") == [
            FilterDecision(REASON_ATTESTED), decision]
        genuine = [e[2]["author_handle"] for e in capture.of_kind("filter-decision")
                   if e[2]["outcome"] == OUTCOME_DELIVER]
        assert genuine == ["@sender"]

    def test_revoked_attestation_drops(self):
        stack = Stack()
        stack.member()
        _, csa, _ = stack.onboard()
        stack.providers["P1"].publish_post("@sender", b"hello", 20)
        stack.coop.revoke(csa.blinded.attestation_id, 30)
        replay = Post(b"hello", "@sender", "P1", 35)
        decision = stack.providers["P2"].receive_post(replay, 35)
        assert decision == FilterDecision(REASON_REVOKED)

    def test_expired_attestation_drops(self):
        stack = Stack()
        stack.member()
        stack.onboard(now=10)  # expires at 100
        stack.providers["P1"].publish_post("@sender", b"hello", 20)
        late = Post(b"hello", "@sender", "P1", 100)
        decision = stack.providers["P2"].receive_post(late, 100)
        assert decision == FilterDecision(REASON_EXPIRED)

    def test_filter_is_stateless_per_call(self):
        stack = Stack()
        stack.member()
        stack.onboard()
        stack.providers["P1"].publish_post("@sender", b"hello", 20)
        post = Post(b"hello", "@sender", "P1", 20)
        first = stack.providers["P2"].filter_incoming(post, 25)
        second = stack.providers["P2"].filter_incoming(post, 25)
        assert first == second

    # Each reason a filter decision may give, and its outcome: deliver exactly when attested.
    DECLARED = {"attested": "deliver", "no-ledger-match": "drop", "attestation-invalid": "drop",
                "attestation-expired": "drop", "attestation-revoked": "drop",
                "origin-mismatch": "drop"}

    def test_each_declared_reason_gives_its_outcome(self):
        assert VERDICTS == self.DECLARED
        for reason, outcome in self.DECLARED.items():
            decision = FilterDecision(reason)
            assert (decision.outcome, decision.reason) == (outcome, reason)

    # A post a follower provider judges with each reason, and the tick it judges it at.
    @pytest.mark.parametrize("reason, author, body, now", [
        (REASON_ATTESTED, "@sender", b"hello", 25),
        (REASON_NO_MATCH, "@sender", b"never recorded", 25),
        (REASON_ORIGIN, "@imposter", b"hello", 25),
        (REASON_REVOKED, "@sender", b"hello", 35),
        (REASON_EXPIRED, "@sender", b"hello", 100),
    ])
    def test_a_verdict_returns_its_reasons_decision_frozen(self, reason, author, body, now):
        stack = Stack()
        stack.member()
        _, csa, _ = stack.onboard(now=10)  # expires at 100
        stack.providers["P1"].publish_post("@sender", b"hello", 20)
        stack.coop.revoke(csa.blinded.attestation_id, 30)
        decision = stack.providers["P2"].receive_post(Post(body, author, "P1", now), now)
        assert decision == FilterDecision(reason)
        with pytest.raises(dataclasses.FrozenInstanceError):
            decision.outcome = OUTCOME_DELIVER
        with pytest.raises(dataclasses.FrozenInstanceError):
            decision.reason = REASON_ATTESTED
        assert decision == FilterDecision(reason)

    # A text no filter decision gives: a revalidation status, nothing, an
    # outcome, a transfer decision's reason, and a declared reason respelled.
    @pytest.mark.parametrize("reason", ["valid", "", OUTCOME_DELIVER, "below-threshold",
                                        "Attested"])
    def test_an_undeclared_reason_is_refused(self, reason):
        with pytest.raises(ValueError, match="undeclared filter reason"):
            FilterDecision(reason)


class TestPorting:
    def test_ported_bytes_identical(self):
        stack = Stack()
        stack.member()
        account, csa, _ = stack.onboard()
        local_ptr = stack.providers["P3"].port_attestation("P1", account.attestation_ptr)
        ported = stack.providers["P3"].ledger.get(local_ptr)
        assert canonical_bytes(ported.payload.csa) == canonical_bytes(csa)

    @pytest.mark.parametrize("origin, pointer", [
        ("P1", "post"),
        ("P9", "attestation"),
        ("P2", "attestation"),
        ("P1", "past-the-end"),
    ], ids=["post-record", "unknown-origin-ledger", "other-ledger-than-origin",
            "index-past-the-end"])
    def test_porting_a_post_record_rejected(self, origin, pointer):
        stack = Stack()
        stack.member()
        account, _, _ = stack.onboard()
        post_ptr = stack.providers["P1"].publish_post("@sender", b"hello", 20)
        ptr = {
            "post": post_ptr,
            "attestation": account.attestation_ptr,
            "past-the-end": RecordPointer("P1", len(ledger_records(stack.providers["P1"].ledger))),
        }[pointer]
        with pytest.raises(DanglingAttestationPointer):
            stack.providers["P3"].port_attestation(origin, ptr)
        assert ledger_records(stack.providers["P3"].ledger) == ()

    def test_with_a_port_origin_is_not_read(self):
        stack = Stack()
        stack.member()
        account, _, _ = stack.onboard()
        p3 = stack.providers["P3"]
        capture = Capture()
        capture.bind(p3)
        p3.port_attestation("P1", account.attestation_ptr)
        reads_during_port = len(capture.of_kind("ledger-read"))
        assert reads_during_port == 1  # the port itself reads the origin once
        stack.providers["P1"].publish_post("@sender", b"hello", 20)
        post = Post(b"hello", "@sender", "P1", 20)
        assert p3.filter_incoming(post, 25).outcome == OUTCOME_DELIVER
        post_filter_reads = [
            e for e in capture.of_kind("ledger-read")[reads_during_port:]
            if e[2]["ledger"] == "P1"
        ]
        assert post_filter_reads == []  # zero origin-ledger reads while filtering

    def test_without_a_port_origin_is_read(self):
        stack = Stack()
        stack.member()
        account, _, _ = stack.onboard()
        p3 = stack.providers["P3"]
        capture = Capture()
        capture.bind(p3)
        stack.providers["P1"].publish_post("@sender", b"hello", 20)
        p3.filter_incoming(Post(b"hello", "@sender", "P1", 20), 25)
        assert any(e[2]["ledger"] == "P1" for e in capture.of_kind("ledger-read"))


class TestDisclosure:
    def test_traceable_post_disclosed(self):
        stack = Stack()
        stack.member(identity="alice-legal-00000001")
        stack.onboard()
        stack.providers["P1"].publish_post("@sender", b"hello", 20)
        post = Post(b"hello", "@sender", "P1", 20)
        response = stack.providers["P2"].request_sender_disclosure(post, 30)
        assert response.outcome == OUTCOME_DISCLOSED
        assert response.subject == "alice-legal-00000001"

    def test_incompatible_jurisdiction_denied(self):
        stack = Stack(jurisdictions={"P2": "XX"})
        stack.member()
        stack.onboard()
        stack.providers["P1"].publish_post("@sender", b"hello", 20)
        post = Post(b"hello", "@sender", "P1", 20)
        response = stack.providers["P2"].request_sender_disclosure(post, 30)
        assert response.outcome == OUTCOME_DENIED
        assert response.subject is None

    def test_bot_post_untraceable(self):
        stack = Stack()
        with pytest.raises(Untraceable):
            stack.providers["P2"].request_sender_disclosure(Post(b"spam", "@bot", "P1", 5), 5)


class TestRecovery:
    def _recover(self, stack, signer=None):
        account, old_csa, recovery = stack.onboard()
        new_csa = stack.issue_csa(now=30)
        signer = signer if signer is not None else recovery
        recovery_sig = crypto.sign(
            signer, crypto.TAG_RECOVER,
            recovery_message("@sender", new_csa.blinded.attestation_id)
        )
        fresh = stack.providers["P1"].recover_account("@sender", recovery_sig, new_csa, 30)
        return account, old_csa, new_csa, fresh

    def test_recovery_rotates_account(self):
        stack = Stack()
        stack.member()
        account, old_csa, new_csa, fresh = self._recover(stack)
        assert fresh.attestation_ptr != account.attestation_ptr
        ledger = stack.providers["P1"].ledger
        payloads = [r.payload for r in ledger_records(ledger)
                    if isinstance(r.payload, AttestationRecord)]
        assert [p.csa for p in payloads] == [old_csa, new_csa]  # append-only history
        assert stack.providers["P1"].accounts["@sender"] == fresh

    def test_a_key_other_than_the_recovery_key_cannot_recover(self):
        stack = Stack()
        stack.member()
        other = crypto.keygen(b"signing:@sender")
        with pytest.raises(BadRecoverySignature):
            self._recover(stack, signer=other)

    def test_the_recovery_signature_binds_the_attestation_it_installs(self):
        stack = Stack()
        stack.member()
        account, _, recovery = stack.onboard()
        signed_for, passed = stack.issue_csa(now=30), stack.issue_csa(now=31)
        assert passed.blinded.attestation_id != signed_for.blinded.attestation_id
        assert passed.blinded.subject == signed_for.blinded.subject  # both bind @sender
        sig = crypto.sign(recovery, crypto.TAG_RECOVER,
                          recovery_message("@sender", signed_for.blinded.attestation_id))
        p1 = stack.providers["P1"]
        before = ledger_records(p1.ledger)
        with pytest.raises(BadRecoverySignature):
            p1.recover_account("@sender", sig, passed, 31)
        assert ledger_records(p1.ledger) == before
        assert p1.accounts["@sender"] == account

    def test_recovery_notifies_all_providers(self):
        stack = Stack()
        stack.member()
        capture = Capture()
        capture.bind(stack.providers["P1"])
        self._recover(stack)
        notices = [(e[2]["to"], e[2]["body"]) for e in capture.of_kind("send")
                   if e[2]["channel"] == "recovery-notice"]
        assert notices == [("P2", {"handle": "@sender"}), ("P3", {"handle": "@sender"})]

    def test_post_recovery_flow(self):
        """Posts recorded under the old attestation drop as revoked once the
        cooperative revokes it; posts via the fresh record deliver."""
        stack = Stack()
        stack.member()
        _, old_csa, recovery = stack.onboard()
        stack.providers["P1"].publish_post("@sender", b"old words", 20)
        new_csa = stack.issue_csa(now=30)
        sig = crypto.sign(recovery, crypto.TAG_RECOVER,
                          recovery_message("@sender", new_csa.blinded.attestation_id))
        stack.providers["P1"].recover_account("@sender", sig, new_csa, 30)
        stack.coop.revoke(old_csa.blinded.attestation_id, 30)
        assert stack.coop.revalidation_status(
            old_csa.blinded.attestation_id, 31) == STATUS_REVOKED
        replay = Post(b"old words", "@sender", "P1", 35)
        assert stack.providers["P2"].receive_post(replay, 35).reason == REASON_REVOKED
        capture = Capture()
        capture.bind(stack.providers["P2"])
        stack.providers["P1"].publish_post("@sender", b"new words", 40)
        assert capture.decisions("P2", b"new words") == [
            FilterDecision(REASON_ATTESTED)]

    def test_recovery_with_wrong_handle_attestation(self):
        stack = Stack()
        stack.member()
        stack.member(member_id="bob", handle="@bob", identity="bob-legal-00000002")
        _, _, recovery = stack.onboard()
        bob_csa = stack.issue_csa(member_id="bob", now=30)
        sig = crypto.sign(recovery, crypto.TAG_RECOVER,
                          recovery_message("@sender", bob_csa.blinded.attestation_id))
        with pytest.raises(InvalidAttestation):
            stack.providers["P1"].recover_account("@sender", sig, bob_csa, 30)
