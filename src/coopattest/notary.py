"""The legal-representative actor.

The notary witnesses plain/blinded pairs from the cooperatives it
represents, whose keys are its ``issuers``, countersigns the blinded copy
unmodified, and archives all three artifacts.  It asserts nothing about
whether the attributes are true; it only witnesses that a matching pair
signed by the cooperative exists.  Because it holds the plain artifact
it can later answer identity-disclosure requests, gated on jurisdiction
compatibility, and revalidation requests, which it forwards to the
cooperative that issued the attestation, found by the issuer key id its
archive entry holds: the cooperative is the one revocation authority.
Its consumers' round trips are here too, with ``vouch``: the one check by
which a DSN provider and a travel-rule exchange trust a countersigned
attestation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import crypto
from .attestation import (
    BlindedAttestation,
    CounterSignedAttestation,
    PlainAttestation,
    countersign,
    verify_countersigned,
    verify_pair,
)
from .canonical import read_record, record_bytes, write_canonical
from .cooperative import STATUS_EXPIRED, STATUS_UNKNOWN
from .crypto import Digest
from .errors import ExpiredAtWitnessing, InvalidAttestation, NoRevocationSource, PairMismatch
from .events import no_emit, send_message

OUTCOME_DISCLOSED = "disclosed"
OUTCOME_DENIED = "denied-jurisdiction"
OUTCOME_UNKNOWN = "unknown-attestation"

PURPOSE_TRAVEL_RULE = "travel-rule"
PURPOSE_DSN_DISPUTE = "dsn-dispute"
PURPOSES = (PURPOSE_TRAVEL_RULE, PURPOSE_DSN_DISPUTE)


@dataclass(frozen=True)
class ArchiveEntry:
    """One witnessed triple; its fields are its layout in the state file."""

    plain: PlainAttestation
    blinded: BlindedAttestation
    countersigned: CounterSignedAttestation
    received_at: int


@dataclass
class DisclosureResponse:
    """Answer to an identity-disclosure request: its outcome, and the
    member's legal identity, ``subject``, present exactly when the request
    was honored.  The notary, the legal point of contact, discloses that
    identity and nothing else; the attested claims travel in the blinded
    attestation the requester already checked.
    """

    outcome: str
    subject: str | None = None

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
    ``issuers`` are the public keys of the cooperatives it witnesses for."""

    notary_id: str
    key_seed: bytes
    jurisdiction: str
    compatible: frozenset[str] = frozenset()
    issuers: tuple[bytes, ...] = ()
    archive: tuple[ArchiveEntry, ...] = ()
    audit: tuple[AuditEntry, ...] = ()
    rejections: tuple[RejectionEntry, ...] = ()


class Notary:
    """Single-threaded state machine; messages serialized by the harness."""

    def __init__(
        self,
        name: str,
        key_seed: bytes,
        jurisdiction: str,
        compatible: frozenset[str],
    ) -> None:
        self.name = name
        self.key_seed = key_seed
        self.keypair = crypto.keygen(key_seed)
        self.jurisdiction = jurisdiction
        self.compatible = compatible   # requester jurisdictions it discloses to
        self.issuers = crypto.KeyDirectory()   # the cooperatives it represents
        # Issuer key id -> where revalidations of what it issued go (represent).
        self._revocation_sources: dict[bytes, Callable[[bytes, int], str]] = {}
        self._entries: list[ArchiveEntry] = []
        self._by_id: dict[bytes, ArchiveEntry] = {}   # either half's id -> its entry
        self.audit_log: list[AuditEntry] = []
        self.rejection_log: list[RejectionEntry] = []
        self._emit = no_emit

    @property
    def public_key(self) -> bytes:
        return self.keypair.public_key

    # --- witnessing -----------------------------------------------------------

    def witness_and_countersign(
        self,
        plain: PlainAttestation,
        blinded: BlindedAttestation,
        now: int,
    ) -> CounterSignedAttestation:
        """Compare the pair, countersign the blinded copy, archive all three.

        A pair from an issuer not in ``issuers`` raises InvalidAttestation
        and leaves no trace.  Other rejections leave the archive untouched
        and land in a separate rejection log.
        """
        issuer_public_key = self.issuers.get(blinded.issuer_key_id)
        if issuer_public_key is None:
            raise InvalidAttestation(
                f"issuer key {blinded.issuer_key_id.hex()} not in the notary's directory")
        report = verify_pair(plain, blinded, issuer_public_key)
        if not report.passed:
            self.rejection_log.append(
                RejectionEntry(now, blinded.attestation_id, tuple(report.failing())))
            raise PairMismatch(report)
        if now >= blinded.expires_at:
            self.rejection_log.append(
                RejectionEntry(now, blinded.attestation_id, ("expired-at-witnessing",)))
            raise ExpiredAtWitnessing(f"expired at tick {blinded.expires_at}, witnessed at {now}")
        csa = countersign(blinded, self.keypair, self.name, now)
        self._archive(ArchiveEntry(plain=plain, blinded=blinded, countersigned=csa,
                                   received_at=now))
        return csa

    def _archive(self, entry: ArchiveEntry) -> None:
        self._entries.append(entry)
        self._by_id[entry.blinded.attestation_id] = entry
        self._by_id[entry.plain.attestation_id] = entry

    # --- revalidation -----------------------------------------------------------

    def represent(self, public_key: bytes,
                  revocation_source: Callable[[bytes, int], str]) -> None:
        """Witness for the cooperative whose key is *public_key*, and forward
        each revalidation of an attestation it issued to *revocation_source*,
        its ``revalidation_status``."""
        self._revocation_sources[self.issuers.add(public_key)] = revocation_source

    def respond_revalidation(self, attestation_id: bytes, now: int) -> str:
        """``unknown`` for an attestation this notary never witnessed; else what
        the revocation source of its issuer answers; with none (as for an
        issuer a notary loaded from a state file witnesses for),
        NoRevocationSource."""
        entry = self._by_id.get(attestation_id)
        if entry is None:
            return STATUS_UNKNOWN
        source = self._revocation_sources.get(entry.blinded.issuer_key_id)
        if source is None:
            raise NoRevocationSource(f"no revocation source for attestation {attestation_id.hex()}")
        return source(attestation_id, now)

    # --- disclosure -----------------------------------------------------------

    def respond_disclosure(
        self,
        attestation_id: bytes,
        requester_jurisdiction: str,
        purpose: str,
        now: int,
    ) -> DisclosureResponse:
        """Disclose the member's legal identity iff the attestation is archived
        and the requester's jurisdiction is compatible.  Every request is
        audited, honored or not; denied responses carry no identity."""
        if purpose not in PURPOSES:
            raise ValueError(f"unknown disclosure purpose {purpose!r}")
        entry = self._by_id.get(attestation_id)
        if entry is None:
            outcome = OUTCOME_UNKNOWN
            response = DisclosureResponse(outcome=outcome)
        elif requester_jurisdiction not in self.compatible:
            outcome = OUTCOME_DENIED
            response = DisclosureResponse(outcome=outcome)
        else:
            outcome = OUTCOME_DISCLOSED
            response = DisclosureResponse(outcome=outcome, subject=entry.plain.subject.value)
        self.audit_log.append(
            AuditEntry(now, attestation_id, requester_jurisdiction, purpose, outcome))
        return response

    # --- persistence -------------------------------------------------------------

    def save_state(self, path: str | Path) -> None:
        """Write the whole state to *path* atomically; load_state reads it."""
        write_canonical(path, record_bytes(NotaryState, NotaryState(
            self.name, self.key_seed, self.jurisdiction, self.compatible,
            tuple(self.issuers), tuple(self._entries), tuple(self.audit_log),
            tuple(self.rejection_log))))

    @classmethod
    def load_state(cls, path: str | Path) -> "Notary":
        """The notary whose state file is *path*.  Raises DecodeError for a
        file that does not hold a valid state."""
        return read_record(path, NotaryState, cls._from_state)

    @classmethod
    def _from_state(cls, state: NotaryState) -> "Notary":
        notary = cls(state.notary_id, state.key_seed, state.jurisdiction, state.compatible)
        for public_key in state.issuers:
            notary.issuers.add(public_key)
        for entry in state.archive:
            notary._archive(entry)
        notary.audit_log = list(state.audit)
        notary.rejection_log = list(state.rejections)
        return notary


# --- a consumer's round trips -----------------------------------------------------
#
# An exchange or a provider asks the notary named in a countersigned
# attestation about it: a request and the notary's reply, both sends.  Each
# trusts one through vouch, by its ``keys`` and the ``notaries`` it reaches.

VOUCH_STAGES = ("signatures", "notary", "revalidation")   # vouch's stages, in order
STAGE_SIGNATURES, STAGE_NOTARY, STAGE_REVALIDATION = VOUCH_STAGES
VERIFICATION_FAILED, UNKNOWN_NOTARY = "verification-failed", "unknown-notary"  # its refusals


def _signatures(requester, csa: CounterSignedAttestation, now: int) -> str | None:
    """None if *csa* passes vouch's signatures stage at tick *now*, under
    its issuer and notary public keys in *requester*'s directory, else why
    not: VERIFICATION_FAILED (a key is missing, or the check failed) or
    STATUS_EXPIRED.  Once *csa* is ``signed`` under a key pair, a check under
    that pair compares *now* with its expiry and nothing else."""
    blinded, get = csa.blinded, requester.keys.get
    issuer_key, notary_key = get(blinded.issuer_key_id), get(csa.notary_key_id)
    if issuer_key is None or notary_key is None or \
            not csa._signed_under(issuer_key, notary_key, now):
        return VERIFICATION_FAILED
    return None if now < blinded.expires_at else STATUS_EXPIRED


def require_verified(requester, csa: CounterSignedAttestation, now: int) -> None:
    """Raise InvalidAttestation unless *csa* passes vouch's signatures stage
    at tick *now*, as a consumer registering it requires."""
    if _signatures(requester, csa, now) is not None:
        get = requester.keys.get
        keys = get(csa.blinded.issuer_key_id), get(csa.notary_key_id)
        raise InvalidAttestation("issuer or notary key unknown" if None in keys else
                                 f"failing checks: {verify_countersigned(csa, *keys, now).failing()}")


def vouch(requester, csa: CounterSignedAttestation, now: int) -> tuple[str, str]:
    """The stage of VOUCH_STAGES where *csa* stopped at tick *now*, and why:
    VERIFICATION_FAILED or STATUS_EXPIRED (signatures), UNKNOWN_NOTARY (notary),
    or the status the notary named in *csa* gives it (revalidation), which is
    STATUS_VALID when that notary vouches for it to *requester*."""
    refusal = _signatures(requester, csa, now)
    if refusal is not None:
        return STAGE_SIGNATURES, refusal
    notary = requester.notaries.get(csa.notary_id)
    if notary is None:
        return STAGE_NOTARY, UNKNOWN_NOTARY
    return STAGE_REVALIDATION, revalidate(requester, notary, csa.blinded.attestation_id, now)


def revalidate(requester, notary: Notary, attestation_id: bytes, now: int) -> str:
    """The notary's status of *attestation_id* at tick *now*."""
    send_message(requester, notary, "revalidation", {"attestation_id": attestation_id})
    status = notary.respond_revalidation(attestation_id, now)
    send_message(notary, requester, "revalidation-status",
                 {"attestation_id": attestation_id, "status": status})
    return status


def request_disclosure(requester, notary: Notary, attestation_id: bytes, purpose: str,
                       now: int) -> DisclosureResponse:
    """The notary's answer to *requester*, from its ``jurisdiction``, asking
    for the identity behind *attestation_id* for *purpose*."""
    jurisdiction = requester.jurisdiction
    send_message(requester, notary, "disclosure-request",
                 {"attestation_id": attestation_id, "jurisdiction": jurisdiction,
                  "purpose": purpose})
    response = notary.respond_disclosure(attestation_id, jurisdiction, purpose, now)
    send_message(notary, requester, "disclosure-response",
                 {"attestation_id": attestation_id, "outcome": response.outcome})
    return response
