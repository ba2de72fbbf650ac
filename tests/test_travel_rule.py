"""Exchange-to-exchange travel-rule protocol over blinded attestations."""

import dataclasses

import pytest

from coopattest import crypto
from coopattest.attestation import canonical_bytes
from coopattest.cooperative import Cooperative, MemberRecord
from coopattest.errors import (
    DuplicateAccount,
    DuplicateTransfer,
    InvalidAttestation,
    UnknownAccount,
    UnknownTransfer,
)
from coopattest.notary import Notary
from coopattest.travel_rule import (
    ACCEPTED,
    HELD,
    REJECTED,
    VERDICTS,
    Exchange,
    TransferDecision,
    TransferRequest,
    TravelRuleRecord,
)

THRESHOLD = 1_000_000


class Stack:
    """A cooperative, its notary, and two linked exchanges."""

    def __init__(self, compatible=("US", "EU"), beneficiary_jurisdiction="US"):
        self.keys = crypto.KeyDirectory()
        self.coop = Cooperative("coop1", b"coop1", "notary-1")
        self.notary = Notary(
            "notary-1", b"notary-1", "US", frozenset(compatible),
        )
        self.notary.represent(self.coop.public_key, self.coop.revalidation_status)
        self.keys.add(self.coop.public_key)
        self.keys.add(self.notary.public_key)
        notaries = {"notary-1": self.notary}
        self.e1 = Exchange("E1", "US", disclosure_threshold=THRESHOLD,
                           keys=self.keys, notaries=notaries)
        self.e2 = Exchange("E2", beneficiary_jurisdiction, disclosure_threshold=THRESHOLD,
                           keys=self.keys, notaries=notaries)
        self.coop.register_member(MemberRecord(
            "alice", "alice-legal-0001",
            {"date-of-birth": -9000, "residence": "NL", "income": 50_000},
        ))
        self.e2.register_beneficiary("acct-bob", "bob-legal-0002")

    def issue_csa(self, member="alice", queries=("age-over-18", "residence-country"),
                  now=10, ttl=90):
        plain, blinded = self.coop.issue_blinded(member, list(queries), "absent", now, ttl)
        return self.notary.witness_and_countersign(plain, blinded, now)

    def registered(self, account="acct-alice", now=10):
        csa = self.issue_csa(now=now)
        self.e1.register_customer(account, csa, now)
        return csa

    def transfer(self, amount, transfer_id="t1", now=20):
        req = TransferRequest(
            transfer_id=transfer_id, originator_account="acct-alice",
            beneficiary_account="acct-bob", beneficiary_exchange="E2",
            asset="coin", amount=amount, requested_at=now,
        )
        return self.e1.originate_transfer(req, self.e2, now)


class TestRegistration:
    def test_valid_csa_registered(self):
        stack = Stack()
        stack.registered()
        assert stack.e1.customer_attestation("acct-alice") is not None

    def test_expired_at_registration_rejected(self):
        stack = Stack()
        csa = stack.issue_csa(now=10, ttl=90)
        with pytest.raises(InvalidAttestation):
            stack.e1.register_customer("acct-alice", csa, now=100)

    def test_duplicate_account_rejected(self):
        stack = Stack()
        stack.registered()
        with pytest.raises(DuplicateAccount):
            stack.e1.register_customer("acct-alice", stack.issue_csa(), 10)

    def test_unknown_keys_rejected(self):
        stack = Stack()
        csa = stack.issue_csa()
        bare = Exchange("E3", "US", disclosure_threshold=THRESHOLD,
                        keys=crypto.KeyDirectory(), notaries={})
        with pytest.raises(InvalidAttestation):
            bare.register_customer("acct-x", csa, 10)


class TestTransferPlumbing:
    def test_originate_delivers_to_beneficiary(self):
        stack = Stack()
        stack.registered()
        req = TransferRequest("t1", "acct-alice", "acct-bob", "E2", "coin", 100, 20)
        decision = stack.e1.originate_transfer(req, stack.e2, 20)
        assert (decision.outcome, decision.reason) == (ACCEPTED, "below-threshold")

    def test_unknown_account(self):
        stack = Stack()
        with pytest.raises(UnknownAccount):
            stack.e1.originate_transfer(
                TransferRequest("t1", "ghost", "acct-bob", "E2", "coin", 100, 20), stack.e2, 20
            )

    # The exchange handed in is the origin itself, or not the one the request names.
    @pytest.mark.parametrize("named, beneficiary", [("E1", "e1"), ("E2", "e1"), ("E3", "e2")])
    def test_a_transfer_goes_only_to_the_exchange_it_names(self, named, beneficiary):
        stack = Stack()
        stack.registered()
        req = TransferRequest("t1", "acct-alice", "acct-bob", named, "coin", 100, 20)
        with pytest.raises(ValueError, match="not reachable"):
            stack.e1.originate_transfer(req, getattr(stack, beneficiary), 20)
        # Refused before it was recorded: the id is still free.
        req = TransferRequest("t1", "acct-alice", "acct-bob", "E2", "coin", 100, 20)
        assert stack.e1.originate_transfer(req, stack.e2, 20).reason == "below-threshold"

    def test_duplicate_transfer_id(self):
        stack = Stack()
        stack.registered()
        req = TransferRequest("t1", "acct-alice", "acct-bob", "E2", "coin", 100, 20)
        stack.e1.originate_transfer(req, stack.e2, 20)
        with pytest.raises(DuplicateTransfer):
            stack.e1.originate_transfer(req, stack.e2, 20)

    def test_attestation_request_is_byte_faithful(self):
        stack = Stack()
        registered_csa = stack.registered()
        delivered = []  # the origin sends the delivery
        stack.e1._emit = lambda kind, payload: delivered.extend(
            [payload["body"]["attestation"]] if payload["channel"] == "attestation-delivery" else [])
        stack.e1.originate_transfer(
            TransferRequest("t1", "acct-alice", "acct-bob", "E2", "coin", 100, 20), stack.e2, 20
        )
        assert [canonical_bytes(csa) for csa in delivered] == [canonical_bytes(registered_csa)]

    def test_unknown_transfer(self):
        stack = Stack()
        with pytest.raises(UnknownTransfer):
            stack.e1.provide_attestation("nope")

    def test_amount_must_be_positive(self):
        with pytest.raises(ValueError):
            TransferRequest("t1", "a", "b", "E2", "coin", 0, 20)


class TestEvaluation:
    def test_below_threshold_accepted_without_disclosure(self):
        stack = Stack()
        stack.registered()
        decision = stack.transfer(amount=THRESHOLD - 1)
        assert decision.outcome == ACCEPTED
        assert decision.reason == "below-threshold"
        assert decision.travel_record is None
        assert stack.notary.audit_log == []  # no disclosure request was ever made

    def test_above_threshold_accepted_with_full_record(self):
        stack = Stack()
        stack.registered()
        decision = stack.transfer(amount=THRESHOLD)
        assert decision.outcome == ACCEPTED
        record = decision.travel_record
        assert record == TravelRuleRecord(
            originator_name="alice-legal-0001",
            originator_account="acct-alice",
            originator_address_or_id="NL",
            beneficiary_name="bob-legal-0002",
            beneficiary_account="acct-bob",
        )
        assert len(stack.notary.audit_log) == 1

    def test_revoked_between_registration_and_evaluation(self):
        stack = Stack()
        csa = stack.registered()
        stack.coop.revoke(csa.blinded.attestation_id, 15)
        decision = stack.transfer(amount=100, now=20)
        assert decision.outcome == REJECTED
        assert decision.reason == "revoked"

    def test_incompatible_jurisdiction_held(self):
        stack = Stack(beneficiary_jurisdiction="XX")
        stack.registered()
        decision = stack.transfer(amount=THRESHOLD)
        assert decision.outcome == HELD
        assert decision.reason == "denied-jurisdiction"
        assert decision.travel_record is None

    def test_expired_at_evaluation(self):
        stack = Stack()
        stack.registered(now=10)  # expires at 100
        decision = stack.transfer(amount=100, now=100)
        assert decision.outcome == REJECTED
        assert decision.reason == "expired"

    def test_tampered_attestation_rejected(self):
        stack = Stack()
        csa = stack.registered()
        forged = dataclasses.replace(
            csa, blinded=dataclasses.replace(csa.blinded, legal_rep_id="evil")
        )
        stack.e1.inject_attestation("acct-alice", forged)
        decision = stack.transfer(amount=100)
        assert decision.outcome == REJECTED
        assert decision.reason == "verification-failed"

    def test_no_residence_claim_is_rejected_before_any_disclosure(self):
        stack = Stack()
        csa = stack.issue_csa(queries=("age-over-18",))
        stack.e1.register_customer("acct-alice", csa, 10)
        assert stack.transfer(amount=100).reason == "below-threshold"
        decision = stack.transfer(amount=THRESHOLD, transfer_id="t2")
        assert (decision.outcome, decision.reason) == (REJECTED, "missing-residence")
        assert stack.notary.audit_log == []

    def test_unknown_notary_rejected(self):
        stack = Stack()
        stack.registered()
        stack.e2.notaries = {}
        decision = stack.transfer(amount=100)
        assert (decision.outcome, decision.reason) == (REJECTED, "unknown-notary")

    def test_rejection_safety_matrix(self):
        """No fault variant ever reaches the accepted state."""
        for fault in ("tampered", "expired", "revoked", "unknown-notary"):
            stack = Stack()
            csa = stack.registered(now=10)
            now = 20
            if fault == "expired":
                now = 150
            elif fault == "revoked":
                stack.coop.revoke(csa.blinded.attestation_id, 15)
            elif fault == "unknown-notary":
                stack.e2.notaries = {}
            elif fault == "tampered":
                stack.e1.inject_attestation("acct-alice", dataclasses.replace(
                    csa, blinded=dataclasses.replace(csa.blinded, issued_at=9,
                                                     expires_at=999999)
                ))
            decision = stack.transfer(amount=5, now=now)
            assert decision.outcome == REJECTED, fault

    @pytest.mark.parametrize("reason", ["denied-jurisdiction", "missing-residence"],
                             ids=[HELD, REJECTED])
    def test_a_travel_record_accompanies_only_an_accepted_transfer(self, reason):
        record = TravelRuleRecord("alice", "acct-alice", "NL", "bob", "acct-bob")
        with pytest.raises(ValueError, match="only accompanies an accepted transfer"):
            TransferDecision(reason, record)
        assert TransferDecision(reason).travel_record is None
        assert TransferDecision("disclosed", record).travel_record == record

    # Each reason a transfer decision may give, and its outcome.
    DECLARED = {
        "unknown-beneficiary": REJECTED, "verification-failed": REJECTED, "expired": REJECTED,
        "unknown-notary": REJECTED, "revoked": REJECTED, "unknown": REJECTED,
        "below-threshold": ACCEPTED, "missing-residence": REJECTED, "disclosed": ACCEPTED,
        "denied-jurisdiction": HELD, "unknown-attestation": REJECTED,
    }

    def test_each_declared_reason_gives_its_outcome(self):
        assert VERDICTS == self.DECLARED
        for reason, outcome in self.DECLARED.items():
            decision = TransferDecision(reason)
            assert (decision.outcome, decision.reason) == (outcome, reason)

    @pytest.mark.parametrize("reason", [
        "below-threshold", "disclosed", "denied-jurisdiction", "missing-residence", "revoked",
        "expired", "verification-failed", "unknown-notary", "unknown-beneficiary"])
    def test_a_verdict_returns_its_reasons_decision_frozen(self, reason):
        stack = Stack(beneficiary_jurisdiction="XX" if reason == "denied-jurisdiction" else "US")
        residence = () if reason == "missing-residence" else ("residence-country",)
        csa = stack.issue_csa(queries=("age-over-18", *residence), now=10)  # expires at 100
        stack.e1.register_customer("acct-alice", csa, 10)
        above = reason in ("disclosed", "denied-jurisdiction", "missing-residence")
        if reason == "revoked":
            stack.coop.revoke(csa.blinded.attestation_id, 15)
        elif reason == "verification-failed":
            stack.e1.inject_attestation("acct-alice", dataclasses.replace(
                csa, blinded=dataclasses.replace(csa.blinded, legal_rep_id="evil")))
        elif reason == "unknown-notary":
            stack.e2.notaries = {}
        now = 100 if reason == "expired" else 20
        beneficiary = "acct-ghost" if reason == "unknown-beneficiary" else "acct-bob"
        decision = stack.e1.originate_transfer(TransferRequest(
            "t1", "acct-alice", beneficiary, "E2", "coin", THRESHOLD if above else 100, now),
            stack.e2, now)
        assert decision == TransferDecision(reason, decision.travel_record)
        assert (decision.travel_record is not None) == (reason == "disclosed")
        with pytest.raises(dataclasses.FrozenInstanceError):
            decision.outcome = ACCEPTED
        with pytest.raises(dataclasses.FrozenInstanceError):
            decision.travel_record = None
        assert decision == TransferDecision(reason, decision.travel_record)

    # A text no transfer decision gives: a revalidation status, nothing, an
    # outcome, a filter decision's reason, and a declared reason respelled.
    @pytest.mark.parametrize("reason", ["valid", "", ACCEPTED, "attested", "Disclosed"])
    def test_an_undeclared_reason_is_refused(self, reason):
        with pytest.raises(ValueError, match="undeclared transfer reason"):
            TransferDecision(reason)


class TestTravelRuleRecord:
    def test_empty_field_rejected(self):
        with pytest.raises(ValueError):
            TravelRuleRecord("", "a", "NL", "b", "c")
