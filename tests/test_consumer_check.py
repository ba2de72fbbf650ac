"""What each consumer makes of a countersigned attestation.

A DSN provider and a travel-rule exchange trust an attestation on the
same grounds: both keys known, both signatures good and not expired, the
notary named inside reachable, and that notary still vouching for it.
Each row below is one way that fails (or does not), judged by both
consumers: the provider's drop reason, the exchange's reject reason, and
whether either asked the notary to revalidate.
"""

import dataclasses
import re
from pathlib import Path

import pytest

from coopattest import crypto, dsn, travel_rule
from coopattest.attestation import countersign
from coopattest.cooperative import (
    STATUS_EXPIRED,
    STATUS_REVOKED,
    STATUS_UNKNOWN,
    STATUS_VALID,
    Cooperative,
    MemberRecord,
)
from coopattest.dsn import FilterDecision, Post, Provider
from coopattest.ledger import AttestationRecord, PostRecord
from coopattest.notary import UNKNOWN_NOTARY, VERIFICATION_FAILED, VOUCH_STAGES, Notary
from coopattest.travel_rule import Exchange, TransferDecision, TransferRequest

README = Path(__file__).resolve().parent.parent / "README.md"

HANDLE = "@alice"
BODY = b"hello"
THRESHOLD = 1_000_000


class World:
    """A cooperative and its notary; an origin and a remote provider; an
    origin and a beneficiary exchange.  The remote provider and the
    beneficiary exchange are the consumers, and share a key directory."""

    def __init__(self):
        self.keys = crypto.KeyDirectory()
        self.coop = Cooperative("coop1", b"coop1", "notary-1")
        self.notary = Notary("notary-1", b"notary-1", "US", frozenset({"US"}))
        self.notary.represent(self.coop.public_key, self.coop.revalidation_status)
        self.keys.add(self.coop.public_key)
        self.keys.add(self.notary.public_key)
        self.coop.register_member(MemberRecord(
            "alice", "alice-legal-0001", {"date-of-birth": -9000, "residence": "NL"},
            handle=HANDLE))
        notaries = {"notary-1": self.notary}
        ledgers = {}
        self.origin = Provider("P1", "US", crypto.keygen(b"P1"), keys=self.keys,
                               notaries=notaries, ledger_registry=ledgers)
        self.provider = Provider("P2", "US", crypto.keygen(b"P2"), keys=self.keys,
                                 notaries=notaries, ledger_registry=ledgers)
        self.e1 = Exchange("E1", "US", disclosure_threshold=THRESHOLD,
                           keys=self.keys, notaries=notaries)
        self.e2 = Exchange("E2", "US", disclosure_threshold=THRESHOLD,
                           keys=self.keys, notaries=notaries)
        self.e1.peers["E2"] = self.e2
        self.e2.register_beneficiary("acct-bob", "bob-legal-0002")
        self.sends = []
        for consumer in (self.provider, self.e2):
            consumer._emit = lambda kind, payload: self.sends.append(
                payload["channel"]) if kind == "send" else None

    def issue(self, now=10, ttl=90, notary=None):
        """A handle-bound attestation, countersigned by *notary* (ours by default)."""
        plain, blinded = self.coop.issue_blinded("alice", ["age-over-18"], "handle", now, ttl)
        notary = notary or self.notary
        return notary.witness_and_countersign(plain, blinded, now)

    def set_consumers(self, **settings):
        for consumer in (self.provider, self.e2):
            for name, value in settings.items():
                setattr(consumer, name, value)

    def record_post(self, csa, now):
        """A post record on the origin ledger whose attestation is *csa*,
        recorded as it is, unchecked."""
        ptr = self.origin.ledger.append(self.origin.writer, AttestationRecord(csa))
        self.origin.ledger.append(self.origin.writer, PostRecord(crypto.digest(BODY), ptr, now))

    def filter(self, now) -> FilterDecision:
        return self.provider.filter_incoming(Post(BODY, HANDLE, "P1", now), now)

    def evaluate(self, csa, now) -> TransferDecision:
        """The beneficiary's verdict on a transfer whose originator's
        attestation on file at the origin is *csa*."""
        self.e1.register_customer("acct-alice", self.issue(), 10)
        self.e1.inject_attestation("acct-alice", csa)
        return self.e1.originate_transfer(
            TransferRequest("t1", "acct-alice", "acct-bob", "E2", "coin", 5, now), now)


def _only_keys(world, *public_keys):
    keys = crypto.KeyDirectory()
    for public_key in public_keys:
        keys.add(public_key)
    world.set_consumers(keys=keys)


def _forged(csa):
    claims = list(csa.blinded.attributes)
    claims[0] = dataclasses.replace(claims[0], value=claims[0].value + "~")
    return dataclasses.replace(csa, blinded=dataclasses.replace(csa.blinded,
                                                                attributes=tuple(claims)))


def _unwitnessed(world, csa):
    """An attestation countersigned with its notary's key, but never
    witnessed: the notary does not know it."""
    _, blinded = world.coop.issue_blinded("alice", ["age-over-18"], "handle", 10, 90)
    return countersign(blinded, world.notary.keypair, "notary-1", 10)


def _expired_at_its_notary(world, csa):
    """A notary whose cooperative answers ``expired``, stubbed: under the
    harness that answer cannot follow a passed signatures stage, which sees
    the same ``expires_at`` at the same tick."""
    world.notary.represent(world.coop.public_key, lambda attestation_id, now: STATUS_EXPIRED)
    return csa


# Each row: how the attestation or the consumers are set up (from a world
# and a valid attestation issued at tick 10, expiring at 100), the tick of
# the verdict, then the provider's reason, the exchange's reason, and
# whether the notary was asked to revalidate.
ROWS = {
    "issuer key unknown": (lambda w, csa: _only_keys(w, w.notary.public_key) or csa, 20,
                           "attestation-invalid", "verification-failed", False),
    "notary key unknown": (lambda w, csa: _only_keys(w, w.coop.public_key) or csa, 20,
                           "attestation-invalid", "verification-failed", False),
    "forged attribute": (lambda w, csa: _forged(csa), 20,
                         "attestation-invalid", "verification-failed", False),
    "expired at the verdict": (lambda w, csa: csa, 150,
                               "attestation-expired", "expired", False),
    "notary unreachable": (lambda w, csa: w.set_consumers(notaries={}) or csa, 20,
                           "attestation-invalid", "unknown-notary", False),
    "revoked": (lambda w, csa: w.coop.revoke(csa.blinded.attestation_id, 15) or csa, 20,
                "attestation-revoked", "revoked", True),
    "expired at its notary": (_expired_at_its_notary, 20, "attestation-expired", "expired", True),
    "unknown to its notary": (_unwitnessed, 20, "attestation-invalid", "unknown", True),
    "valid": (lambda w, csa: csa, 20, "attested", "below-threshold", True),
}


@pytest.mark.parametrize("row", ROWS)
def test_both_consumers_judge_an_attestation_alike(row):
    setup, now, dsn_reason, travel_reason, revalidated = ROWS[row]
    world = World()
    csa = setup(world, world.issue())
    world.record_post(csa, 10)
    assert world.filter(now).reason == dsn_reason
    assert ("revalidation" in world.sends) == revalidated
    world.sends.clear()
    assert world.evaluate(csa, now).reason == travel_reason
    assert ("revalidation" in world.sends) == revalidated


@pytest.mark.parametrize("expired_first", [True, False])
def test_a_stop_at_the_notary_outranks_an_expiry_at_the_signatures(expired_first):
    """Of two matching records, the one that got further names the drop: an
    attestation the provider cannot ask its notary about got past the
    signatures, where an expired one stopped."""
    world = World()
    elsewhere = Notary("notary-2", b"notary-2", "US", frozenset({"US"}))
    elsewhere.issuers.add(world.coop.public_key)
    world.keys.add(elsewhere.public_key)
    expired = world.issue(ttl=20)
    unreachable = world.issue(notary=elsewhere)
    for csa in (expired, unreachable) if expired_first else (unreachable, expired):
        world.record_post(csa, 10)
    assert world.filter(50) == FilterDecision("attestation-invalid")
    assert "revalidation" not in world.sends


# --- the README's tables -----------------------------------------------------------

def _readme_tables() -> dict:
    """The tables of README "Consumer verdicts", each keyed by its first
    header cell: a list of its rows, each a list of its cells."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Consumer verdicts", 1)[1].split("\n## ", 1)[0]
    tables, rows = {}, None
    for line in section.splitlines():
        if not line.startswith("|"):
            rows = None
        elif rows is None:
            rows = tables.setdefault(line.split("|")[1].strip(), [])
        elif not line.startswith("| ---"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return tables


def _code(cell: str) -> list[str]:
    return re.findall(r"`([^`]*)`", cell)


@pytest.mark.parametrize("header, verdicts", [("DSN reason", dsn.VERDICTS),
                                              ("travel reason", travel_rule.VERDICTS)],
                         ids=["dsn", "travel_rule"])
def test_the_readme_table_of_a_consumers_verdicts_is_its_declaration(header, verdicts):
    rows = [(_code(reason), _code(outcome)) for reason, outcome in _readme_tables()[header]]
    assert len(rows) == len(verdicts)
    assert {reason: outcome for [reason], [outcome] in rows} == verdicts


def test_the_readme_puts_each_answer_of_vouch_in_each_consumers_words():
    """Each row's DSN drop reason is the one the provider gives that answer;
    its travel reject reason is the answer itself, which an exchange
    rejects, but for ``valid``, on which the transfer goes on."""
    answers = set()
    for stage, _, answer, dsn_reason, travel_reason, _ in _readme_tables()["stage"]:
        [stage], [answer] = _code(stage), _code(answer)
        assert stage in VOUCH_STAGES
        answers.add(answer)
        assert _code(dsn_reason) == [dsn._DROP_REASONS.get(answer, dsn.REASON_INVALID)]
        if answer == STATUS_VALID:
            assert travel_reason.startswith("none")
            assert all(reason in travel_rule.VERDICTS for reason in _code(travel_reason))
        else:
            assert _code(travel_reason) == [answer]
            assert travel_rule.VERDICTS[answer] == travel_rule.REJECTED
    assert answers == {VERIFICATION_FAILED, UNKNOWN_NOTARY, STATUS_VALID, STATUS_REVOKED,
                       STATUS_EXPIRED, STATUS_UNKNOWN}
