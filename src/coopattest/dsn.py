"""Decentralized social-network providers.

A sender onboards at a home provider with a handle-bound countersigned
attestation, which the provider records on its own ledger.  Every post
gets its body digest recorded next to a pointer at that attestation
record, on the same ledger, then travels to whichever providers host
followers.  A remote provider never trusts the wire: it recomputes the
body digest, searches the origin provider's ledger for it, resolves the
attestation behind the match, and delivers only when the handle binds
and ``notary.vouch`` passes it, as an exchange's transfer check does.
Anything else drops, which is what keeps bot traffic out without the
remote provider ever having authenticated the sender itself.
``filter_incoming`` logs each decision it makes.  Only a provider reads
another provider's ledger (``Provider._resolve``), and it logs each read.

A provider may port an attestation record onto its own ledger; from
then on it resolves that attestation from the local copy instead of
re-reading the origin chain.  A recovery key rotates a lost account: it
signs the id of a fresh handle-bound attestation, whose record lands on
the ledger (append-only, the old record stays), a new account bound to
it replaces the old one, and a notice goes to every other provider.
The notices are logged; no provider keeps them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from . import crypto
from .attestation import MODE_HANDLE, CounterSignedAttestation
from .attestation import verify_countersigned  # noqa: F401 (only perfbench/smoke.py uses it)
from .canonical import canonical_serialize
from .cooperative import STATUS_EXPIRED, STATUS_REVOKED, STATUS_VALID
from .crypto import KeyDirectory, KeyPair, Signature
from .errors import (
    BadRecoverySignature,
    DanglingAttestationPointer,
    HandleMismatch,
    HandleTaken,
    InvalidAttestation,
    OutOfBounds,
    UnknownSender,
    Untraceable,
)
from .events import no_emit, send_message
from .ledger import AttestationRecord, Ledger, LedgerRecord, PostRecord, RecordPointer
from .notary import (
    PURPOSE_DSN_DISPUTE,
    VOUCH_STAGES,
    DisclosureResponse,
    Notary,
    request_disclosure,
    require_verified,
    vouch,
)

OUTCOME_DELIVER = "deliver"
OUTCOME_DROP = "drop"

REASON_ATTESTED = "attested"
REASON_NO_MATCH = "no-ledger-match"
REASON_INVALID = "attestation-invalid"
REASON_EXPIRED = "attestation-expired"
REASON_REVOKED = "attestation-revoked"
REASON_ORIGIN = "origin-mismatch"

# Each reason a filter decision may give, and its outcome.
VERDICTS = {REASON_ATTESTED: OUTCOME_DELIVER,
            **dict.fromkeys((REASON_NO_MATCH, REASON_INVALID, REASON_EXPIRED, REASON_REVOKED,
                             REASON_ORIGIN), OUTCOME_DROP)}

STAGE_FETCH, STAGE_ORIGIN = "fetch", "origin"   # a provider's own stages, before vouch's

# The drop reason for each answer of notary.vouch; any other is REASON_INVALID.
_DROP_REASONS = {STATUS_VALID: REASON_ATTESTED, STATUS_EXPIRED: REASON_EXPIRED,
                 STATUS_REVOKED: REASON_REVOKED}
# The stages a matching post record's attestation goes through, in order,
# ranked from 1: of several matches, the furthest names a drop's reason.
_RANK = {stage: rank for rank, stage in enumerate((STAGE_FETCH, STAGE_ORIGIN, *VOUCH_STAGES), 1)}


@dataclass(frozen=True)
class SenderAccount:
    handle: str
    recovery_public_key: bytes
    attestation_ptr: RecordPointer


@dataclass(frozen=True)
class Post:
    body: bytes
    author_handle: str
    origin_provider: str
    sent_at: int

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("post body must be non-empty")


@dataclass(frozen=True)
class FilterDecision:
    outcome: str = field(init=False)
    reason: str

    def __post_init__(self) -> None:
        outcome = VERDICTS.get(self.reason)
        if outcome is None:
            raise ValueError(f"undeclared filter reason {self.reason!r}")
        object.__setattr__(self, "outcome", outcome)


# A reason fixes every field of its decision, so each is built once and shared.
_DECISIONS = {reason: FilterDecision(reason) for reason in VERDICTS}


def recovery_message(handle: str, attestation_id: bytes) -> bytes:
    """Canonical bytes a sender's recovery key signs to rotate an account
    onto the attestation *attestation_id*."""
    return canonical_serialize(["recover", handle, attestation_id])


class Provider:
    """One social-media provider plus its ledger; single-threaded actor."""

    def __init__(
        self,
        name: str,
        jurisdiction: str,
        writer: KeyPair,
        *,
        keys: KeyDirectory,
        notaries: Mapping[str, Notary],
        ledger_registry: dict[str, Ledger],
        followers: Mapping[str, Iterable[str]] | None = None,
    ) -> None:
        self.name = name
        self.jurisdiction = jurisdiction
        self.writer = writer
        self.keys = keys
        self.notaries = notaries
        self.followers: dict[str, tuple[str, ...]] = {
            handle: tuple(targets) for handle, targets in (followers or {}).items()
        }
        self._ledgers = ledger_registry
        self.ledger = Ledger(name, writer.public_key)
        ledger_registry[name] = self.ledger
        self.accounts: dict[str, SenderAccount] = {}
        self._ported: dict[tuple[str, int], RecordPointer] = {}
        self._emit = no_emit

    # --- onboarding -----------------------------------------------------------

    @staticmethod
    def _binds(csa: CounterSignedAttestation, handle: str) -> bool:
        subject = csa.blinded.subject
        return subject.mode == MODE_HANDLE and subject.value == handle

    def _open_account(self, kind: str, handle: str, csa: CounterSignedAttestation,
                      recovery_public_key: bytes, now: int) -> SenderAccount:
        """Record a handle-bound, valid attestation on the ledger and make
        the account of *handle* point at it; log it as *kind*."""
        if not self._binds(csa, handle):
            subject = csa.blinded.subject
            raise HandleMismatch(
                f"attestation subject is {subject.mode}:{subject.value!r}, expected {handle!r}"
            )
        require_verified(self, csa, now)
        ptr = self.ledger.append(self.writer, AttestationRecord(csa))
        account = SenderAccount(handle, recovery_public_key, ptr)
        self.accounts[handle] = account
        self._emit(kind, {"handle": handle, "ledger_index": ptr.index})
        return account

    def onboard_sender(
        self,
        handle: str,
        csa: CounterSignedAttestation,
        recovery_public_key: bytes,
        now: int,
    ) -> SenderAccount:
        """Record the sender's attestation on the ledger and open the
        account.  Must happen before the handle transmits any post."""
        if handle in self.accounts:
            raise HandleTaken(handle)
        return self._open_account("onboard", handle, csa, recovery_public_key, now)

    # --- publishing ------------------------------------------------------------

    def publish_post(self, handle: str, body: bytes, now: int,
                     providers: Mapping[str, Provider]) -> RecordPointer:
        """Hash the post onto the ledger, then forward it to each provider of
        *providers* that hosts at least one follower of the handle."""
        account = self.accounts.get(handle)
        if account is None:
            raise UnknownSender(handle)
        post = Post(body=body, author_handle=handle, origin_provider=self.name, sent_at=now)
        body_digest = crypto.digest(body)
        ptr = self.ledger.append(self.writer, PostRecord(body_digest, account.attestation_ptr, now))
        self._emit("post-recorded", {
            "handle": handle, "post_digest": body_digest, "ledger_index": ptr.index,
        })
        for target in self.followers.get(handle, ()):
            peer = providers[target]
            send_message(self, peer, "post", vars(post))
            peer.receive_post(post, now)
        return ptr

    def receive_post(self, post: Post, now: int) -> FilterDecision:
        return self.filter_incoming(post, now)

    # --- filtering -------------------------------------------------------------

    def _matches(self, post: Post, body_digest: bytes) -> list[LedgerRecord]:
        """The post records on the post's origin ledger with its body digest."""
        origin_ledger = self._ledgers.get(post.origin_provider)
        if origin_ledger is None:
            return []
        self._emit("ledger-search", {"ledger": origin_ledger.ledger_id,
                                     "post_digest": body_digest})
        return origin_ledger.post_matches(body_digest)

    def _resolve(self, ptr: RecordPointer) -> CounterSignedAttestation | None:
        """The attestation held by the record a pointer names, or None.
        A read of another provider's ledger is logged."""
        ledger = self._ledgers.get(ptr.ledger_id)
        if ledger is None:
            return None
        try:
            record = ledger.get(ptr)
        except OutOfBounds:
            return None
        if ledger is not self.ledger:
            self._emit("ledger-read", {"ledger": ptr.ledger_id, "index": ptr.index})
        if not isinstance(record.payload, AttestationRecord):
            return None
        return record.payload.csa

    def _fetch_attestation(self, att_ptr: RecordPointer) -> CounterSignedAttestation | None:
        """Resolve an attestation pointer, through its local ported copy
        if there is one."""
        return self._resolve(self._ported.get((att_ptr.ledger_id, att_ptr.index), att_ptr))

    def filter_incoming(self, post: Post, now: int) -> FilterDecision:
        """Re-derive the post's standing from the origin ledger.

        Deliver iff some matching post record resolves to a valid,
        handle-matching, unrevoked attestation.  With several matches the
        drop reason comes from whichever candidate got furthest through
        the pipeline.  The decision is logged as ``filter-decision``.
        """
        body_digest = crypto.digest(post.body)
        best_stage, reason = 0, REASON_NO_MATCH
        for record in self._matches(post, body_digest):
            stage, why = self._judge_match(record, post, now)
            if why == REASON_ATTESTED:
                reason = why
                break
            if stage > best_stage:
                best_stage, reason = stage, why
        decision = _DECISIONS[reason]
        self._emit("filter-decision", {
            "author_handle": post.author_handle,
            "origin_provider": post.origin_provider,
            "post_digest": body_digest,
            **vars(decision),
        })
        return decision

    def _judge_match(self, record: LedgerRecord, post: Post, now: int) -> tuple[int, str]:
        """The rank of the stage *record*'s attestation got to, and why it stopped."""
        csa = self._fetch_attestation(record.payload.attestation_ptr)
        if csa is None:
            return _RANK[STAGE_FETCH], REASON_INVALID
        if not self._binds(csa, post.author_handle):
            return _RANK[STAGE_ORIGIN], REASON_ORIGIN
        stage, why = vouch(self, csa, now)
        return _RANK[stage], _DROP_REASONS.get(why, REASON_INVALID)

    # --- porting ---------------------------------------------------------------

    def port_attestation(self, origin_ledger: str, ptr: RecordPointer) -> RecordPointer:
        """Copy an attestation record from a remote ledger onto this one."""
        if origin_ledger not in self._ledgers:
            raise DanglingAttestationPointer(f"unknown ledger {origin_ledger!r}")
        csa = self._resolve(ptr) if ptr.ledger_id == origin_ledger else None
        if csa is None:
            raise DanglingAttestationPointer(f"{ptr} is not an attestation record")
        local_ptr = self.ledger.append(self.writer, AttestationRecord(csa))
        self._ported[ptr.ledger_id, ptr.index] = local_ptr
        self._emit("ported", {
            "origin_ledger": ptr.ledger_id, "origin_index": ptr.index,
            "local_index": local_ptr.index,
        })
        return local_ptr

    # --- disclosure ---------------------------------------------------------------

    def _trace_attestation(self, post: Post) -> CounterSignedAttestation | None:
        for record in self._matches(post, crypto.digest(post.body)):
            csa = self._fetch_attestation(record.payload.attestation_ptr)
            if csa is not None and self._binds(csa, post.author_handle):
                return csa
        return None

    def request_sender_disclosure(self, post: Post, now: int) -> DisclosureResponse:
        """Trace the post to its attestation and ask the legal contact named
        in the envelope to disclose the sender's identity."""
        csa = self._trace_attestation(post)
        if csa is None:
            raise Untraceable("post matches no resolvable attested record")
        notary = self.notaries.get(csa.notary_id)
        if notary is None:
            raise Untraceable(f"legal contact {csa.notary_id!r} is not reachable")
        return request_disclosure(self, notary, csa.blinded.attestation_id,
                                  PURPOSE_DSN_DISPUTE, now)

    # --- recovery ---------------------------------------------------------------

    def recover_account(self, handle: str, recovery_signature: Signature,
                        new_csa: CounterSignedAttestation, now: int,
                        providers: Mapping[str, Provider]) -> SenderAccount:
        """Rotate a lost account under the recovery key, whose signature
        must cover *new_csa*'s id: record that attestation, replace the
        account with one bound to it, and notify each other provider of *providers*."""
        account = self.accounts.get(handle)
        if account is None:
            raise UnknownSender(handle)
        message = recovery_message(handle, new_csa.blinded.attestation_id)
        if not crypto.verify(account.recovery_public_key, crypto.TAG_RECOVER,
                             message, recovery_signature):
            raise BadRecoverySignature(handle)
        try:
            fresh = self._open_account("recover", handle, new_csa, account.recovery_public_key,
                                       now)
        except HandleMismatch as exc:
            raise InvalidAttestation(str(exc)) from exc
        for peer in providers.values():
            if peer is not self:
                send_message(self, peer, "recovery-notice", {"handle": handle})
        return fresh
