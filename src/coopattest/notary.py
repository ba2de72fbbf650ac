"""The legal-representative actor.

The notary witnesses plain/blinded pairs, countersigns the blinded copy
unmodified, and archives all three artifacts.  It asserts nothing about
whether the attributes are true; it only witnesses that a matching pair
signed by the cooperative exists.  Because it holds the plain artifact
it can later answer identity-disclosure requests, gated on jurisdiction
compatibility, and revalidation requests from its mirror of the
cooperative's revocation registry (forwarding to the cooperative when
wired, since the mirror may lag).  Its consumers' round trips are here
too, with ``vouch``: the one check by which a DSN provider and a
travel-rule exchange trust a countersigned attestation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import crypto
from .attestation import (
    AttributeClaim,
    BlindedAttestation,
    CounterSignedAttestation,
    PlainAttestation,
    countersign,
    verify_countersigned,
    verify_pair,
)
from .canonical import read_record, record_bytes, write_canonical
from .cooperative import Status
from .crypto import Digest
from .errors import ExpiredAtWitnessing, InvalidAttestation, PairMismatch
from .events import no_emit, send_message

OUTCOME_DISCLOSED = "disclosed"
OUTCOME_DENIED = "denied-jurisdiction"
OUTCOME_UNKNOWN = "unknown-attestation"

PURPOSE_TRAVEL_RULE = "travel-rule"
PURPOSE_DSN_DISPUTE = "dsn-dispute"
PURPOSES = (PURPOSE_TRAVEL_RULE, PURPOSE_DSN_DISPUTE)


@dataclass(frozen=True)
class JurisdictionPolicy:
    notary_jurisdiction: str
    compatible: frozenset[str]

    def is_compatible(self, code: str) -> bool:
        return code in self.compatible


@dataclass(frozen=True)
class ArchiveEntry:
    """One witnessed triple; its fields are its layout in the state file."""

    plain: PlainAttestation
    blinded: BlindedAttestation
    countersigned: CounterSignedAttestation
    received_at: int


@dataclass
class DisclosureResponse:
    """Answer to an identity-disclosure request.

    ``subject`` and ``attributes`` are present exactly when the request was
    honored; ``attributes`` carries the attested claims so a travel-rule
    consumer can pull the residence attribute out of the same response that
    named the member.
    """

    outcome: str
    subject: str | None = None
    attributes: tuple[AttributeClaim, ...] | None = None

    def __post_init__(self) -> None:
        if (self.subject is not None) != (self.outcome == OUTCOME_DISCLOSED):
            raise ValueError("subject must be present exactly when disclosed")


@dataclass(frozen=True)
class AuditEntry:
    """One disclosure request, honored or not; its fields are its layout
    in the state file."""

    at: int
    attestation_id: Digest
    jurisdiction: str
    purpose: str
    outcome: str


@dataclass(frozen=True)
class RejectionEntry:
    """One pair the notary refused to countersign, and the checks it
    failed; its fields are its layout in the state file."""

    at: int
    attestation_id: Digest
    failing: tuple[str, ...]


@dataclass(frozen=True)
class NotaryState:
    """The notary's state file; its fields are the file's layout.
    ``issuers`` are the public keys of the cooperatives it witnesses for,
    and ``mirror`` maps attestation id hex to the tick of revocation."""

    notary_id: str
    key_seed: bytes
    jurisdiction: str
    compatible: frozenset[str] = frozenset()
    issuers: tuple[bytes, ...] = ()
    archive: tuple[ArchiveEntry, ...] = ()
    mirror: dict[str, int] = field(default_factory=dict)
    audit: tuple[AuditEntry, ...] = ()
    rejections: tuple[RejectionEntry, ...] = ()


class Notary:
    """Single-threaded state machine; messages serialized by the harness."""

    def __init__(
        self,
        notary_id: str,
        key_seed: bytes,
        policy: JurisdictionPolicy,
        *,
        revocation_source: Callable[[Digest, int], Status] | None = None,
        known_issuers: list[bytes] | None = None,
    ) -> None:
        self.notary_id = notary_id
        self.key_seed = key_seed
        self.keypair = crypto.keygen(key_seed)
        self.policy = policy
        self.revocation_source = revocation_source
        self.known_issuers = list(known_issuers or [])
        self._entries: list[ArchiveEntry] = []
        self._by_id: dict[Digest, int] = {}
        self.mirror: dict[Digest, int] = {}
        self.audit_log: list[AuditEntry] = []
        self.rejection_log: list[RejectionEntry] = []
        self._emit = no_emit

    def resolve_issuer(self, key_id: Digest) -> bytes | None:
        """Resolver over the notary's own directory of cooperative keys."""
        for public_key in self.known_issuers:
            if crypto.digest(public_key) == key_id:
                return public_key
        return None

    @property
    def name(self) -> str:
        return self.notary_id

    @property
    def public_key(self) -> bytes:
        return self.keypair.public_key

    def _archived(self, attestation_id: Digest) -> ArchiveEntry | None:
        index = self._by_id.get(attestation_id)
        return None if index is None else self._entries[index]

    # --- witnessing -----------------------------------------------------------

    def witness_and_countersign(
        self,
        plain: PlainAttestation,
        blinded: BlindedAttestation,
        issuer_public_key: bytes,
        now: int,
    ) -> CounterSignedAttestation:
        """Compare the pair, countersign the blinded copy, archive all three.

        Rejections leave the archive untouched and land in a separate
        rejection log.
        """
        report = verify_pair(plain, blinded, issuer_public_key)
        if not report.passed:
            self.rejection_log.append(
                RejectionEntry(now, blinded.attestation_id, tuple(report.failing())))
            raise PairMismatch(report)
        if now >= blinded.expires_at:
            self.rejection_log.append(
                RejectionEntry(now, blinded.attestation_id, ("expired-at-witnessing",)))
            raise ExpiredAtWitnessing(f"expired at tick {blinded.expires_at}, witnessed at {now}")
        csa = countersign(blinded, self.keypair, self.notary_id, now,
                          issuer_public_key=issuer_public_key)
        self._archive(ArchiveEntry(plain=plain, blinded=blinded, countersigned=csa,
                                   received_at=now))
        return csa

    def _archive(self, entry: ArchiveEntry) -> None:
        index = len(self._entries)
        self._entries.append(entry)
        self._by_id[entry.blinded.attestation_id] = index
        self._by_id[entry.plain.attestation_id] = index

    # --- revalidation -----------------------------------------------------------

    def sync_revocations(self, snapshot: dict[Digest, int]) -> None:
        """Merge revocation entries from the cooperative: *snapshot* holds
        all of its registry or only the entries new since the last sync.
        First tick wins."""
        for attestation_id, tick in snapshot.items():
            self.mirror.setdefault(attestation_id, tick)

    def respond_revalidation(self, attestation_id: Digest, now: int) -> Status:
        entry = self._archived(attestation_id)
        if entry is None:
            return Status.UNKNOWN
        revoked_at = self.mirror.get(attestation_id)
        if revoked_at is not None and revoked_at <= now:
            return Status.REVOKED
        if self.revocation_source is not None:
            # The mirror only ever lags towards "not yet revoked"; forward.
            return self.revocation_source(attestation_id, now)
        if now >= entry.blinded.expires_at:
            return Status.EXPIRED
        return Status.VALID

    # --- disclosure -----------------------------------------------------------

    def respond_disclosure(
        self,
        attestation_id: Digest,
        requester_jurisdiction: str,
        purpose: str,
        now: int,
    ) -> DisclosureResponse:
        """Disclose the member's legal identity iff the attestation is archived
        and the requester's jurisdiction is compatible.  Every request is
        audited, honored or not; denied responses carry no identity."""
        if purpose not in PURPOSES:
            raise ValueError(f"unknown disclosure purpose {purpose!r}")
        entry = self._archived(attestation_id)
        if entry is None:
            outcome = OUTCOME_UNKNOWN
            response = DisclosureResponse(outcome=outcome)
        elif not self.policy.is_compatible(requester_jurisdiction):
            outcome = OUTCOME_DENIED
            response = DisclosureResponse(outcome=outcome)
        else:
            outcome = OUTCOME_DISCLOSED
            response = DisclosureResponse(
                outcome=outcome,
                subject=entry.plain.subject.value,
                attributes=entry.plain.attributes,
            )
        self.audit_log.append(
            AuditEntry(now, attestation_id, requester_jurisdiction, purpose, outcome))
        return response

    # --- persistence -------------------------------------------------------------

    def save_state(self, path: str | Path) -> None:
        """Write the whole state to *path* atomically; load_state reads it."""
        write_canonical(path, record_bytes(NotaryState, {
            "notary_id": self.notary_id, "key_seed": self.key_seed,
            "jurisdiction": self.policy.notary_jurisdiction,
            "compatible": self.policy.compatible, "issuers": self.known_issuers,
            "archive": self._entries,
            "mirror": {d.hex(): tick for d, tick in self.mirror.items()},
            "audit": self.audit_log, "rejections": self.rejection_log,
        }))

    @classmethod
    def load_state(cls, path: str | Path) -> "Notary":
        """The notary whose state file is *path*.  Raises DecodeError for a
        file that does not hold a valid state."""
        return read_record(path, NotaryState, cls._from_state)

    @classmethod
    def _from_state(cls, state: NotaryState) -> "Notary":
        notary = cls(state.notary_id, state.key_seed,
                     JurisdictionPolicy(state.jurisdiction, state.compatible),
                     known_issuers=list(state.issuers))
        for entry in state.archive:
            notary._archive(entry)
        notary.mirror = {Digest.from_hex(hex_id): tick for hex_id, tick in state.mirror.items()}
        notary.audit_log = list(state.audit)
        notary.rejection_log = list(state.rejections)
        return notary


# --- a consumer's round trips -----------------------------------------------------
#
# An exchange or a provider asks the notary named in a countersigned
# attestation about it: a request and the notary's reply, both sends.  Each
# trusts one through vouch, by its ``keys`` and the ``notaries`` it reaches.

VOUCH_STAGES = ("signatures", "notary", "revalidation")   # vouch's stages, in order


def _verify(requester, csa: CounterSignedAttestation, now: int):
    """*csa*'s signatures checked at tick *now*; None if *requester* lacks a key."""
    keys = requester.keys.get(csa.blinded.issuer_key_id), requester.keys.get(csa.notary_key_id)
    return None if None in keys else verify_countersigned(csa, *keys, now)


def require_verified(requester, csa: CounterSignedAttestation, now: int) -> None:
    """Raise InvalidAttestation unless *csa* passes vouch's signatures stage
    at tick *now*, as a consumer registering it requires."""
    report = _verify(requester, csa, now)
    if report is None or not report.passed:
        raise InvalidAttestation("issuer or notary key unknown" if report is None
                                 else f"failing checks: {report.failing()}")


def vouch(requester, csa: CounterSignedAttestation, now: int) -> tuple[str, str]:
    """The stage of VOUCH_STAGES where *csa* stopped at tick *now*, and why:
    ``verification-failed`` or ``expired`` (signatures), ``unknown-notary``
    (notary), or the status the notary named in *csa* gives it (revalidation),
    which is ``valid`` when that notary vouches for it to *requester*."""
    report = _verify(requester, csa, now)
    if report is None or not report.passed:
        expired = report is not None and report.expired_only
        return "signatures", "expired" if expired else "verification-failed"
    notary = requester.notaries.get(csa.notary_id)
    if notary is None:
        return "notary", "unknown-notary"
    return "revalidation", revalidate(requester, notary, csa.blinded.attestation_id, now).value


def revalidate(requester, notary: Notary, attestation_id: Digest, now: int) -> Status:
    """The notary's status of *attestation_id* at tick *now*."""
    send_message(requester, notary, "revalidation", {"attestation_id": attestation_id.value})
    status = notary.respond_revalidation(attestation_id, now)
    send_message(notary, requester, "revalidation-status",
                 {"attestation_id": attestation_id.value, "status": status.value})
    return status


def request_disclosure(requester, notary: Notary, attestation_id: Digest, purpose: str,
                       now: int) -> DisclosureResponse:
    """The notary's answer to *requester*, from its ``jurisdiction``, asking
    for the identity behind *attestation_id* for *purpose*."""
    jurisdiction = requester.jurisdiction
    send_message(requester, notary, "disclosure-request",
                 {"attestation_id": attestation_id.value, "jurisdiction": jurisdiction,
                  "purpose": purpose})
    response = notary.respond_disclosure(attestation_id, jurisdiction, purpose, now)
    send_message(notary, requester, "disclosure-response",
                 {"attestation_id": attestation_id.value, "outcome": response.outcome})
    return response
