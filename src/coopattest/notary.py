"""The legal-representative actor.

The notary witnesses plain/blinded pairs, countersigns the blinded copy
unmodified, and archives all three artifacts.  It asserts nothing about
whether the attributes are true; it only witnesses that a matching pair
signed by the cooperative exists.  Because it holds the plain artifact
it can later answer identity-disclosure requests, gated on jurisdiction
compatibility, and revalidation requests from its mirror of the
cooperative's revocation registry (forwarding to the cooperative when
wired, since the mirror may lag).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import crypto
from .attestation import (
    AttributeClaim,
    BlindedAttestation,
    CounterSignedAttestation,
    PlainAttestation,
    countersign,
    verify_pair,
    write_attestation,
)
from .canonical import (
    canonical_parse,
    canonical_serialize,
    record_from_map,
    record_map,
    require,
    write_canonical,
)
from .cooperative import Status
from .crypto import Digest, KeyPair
from .errors import DecodeError, ExpiredAtWitnessing, PairMismatch
from .events import no_emit

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


@dataclass(frozen=True)
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


# The entries of the audit and rejection logs, as the notary writes them.
_AUDIT_LAYOUT = {"at": int, "attestation_id": bytes, "jurisdiction": str,
                 "purpose": str, "outcome": str}
_REJECTION_LAYOUT = {"at": int, "attestation_id": bytes, "failing": list}


class Notary:
    """Single-threaded state machine; messages serialized by the harness."""

    def __init__(
        self,
        notary_id: str,
        keypair: KeyPair,
        policy: JurisdictionPolicy,
        *,
        revocation_source: Callable[[Digest, int], Status] | None = None,
        known_issuers: list[bytes] | None = None,
    ) -> None:
        self.notary_id = notary_id
        self.keypair = keypair
        self.policy = policy
        self.revocation_source = revocation_source
        self.known_issuers = list(known_issuers or [])
        self._entries: list[ArchiveEntry] = []
        self._by_id: dict[Digest, int] = {}
        self.mirror: dict[Digest, int] = {}
        self.audit_log: list[dict] = []
        self.rejection_log: list[dict] = []
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

    @property
    def archive(self) -> tuple[ArchiveEntry, ...]:
        return tuple(self._entries)

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
            self.rejection_log.append({
                "at": now,
                "attestation_id": blinded.attestation_id.value,
                "failing": report.failing(),
            })
            raise PairMismatch(report)
        if now >= blinded.expires_at:
            self.rejection_log.append({
                "at": now,
                "attestation_id": blinded.attestation_id.value,
                "failing": ["expired-at-witnessing"],
            })
            raise ExpiredAtWitnessing(f"expired at tick {blinded.expires_at}, witnessed at {now}")
        csa = countersign(blinded, self.keypair, self.notary_id, now,
                          issuer_public_key=issuer_public_key)
        entry = ArchiveEntry(plain=plain, blinded=blinded, countersigned=csa, received_at=now)
        index = len(self._entries)
        self._entries.append(entry)
        self._by_id[blinded.attestation_id] = index
        self._by_id[plain.attestation_id] = index
        return csa

    # --- revalidation -----------------------------------------------------------

    def sync_revocations(self, snapshot: dict[Digest, int]) -> None:
        """Merge a registry snapshot from the cooperative; first tick wins."""
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
        self.audit_log.append({
            "at": now,
            "attestation_id": attestation_id.value,
            "jurisdiction": requester_jurisdiction,
            "purpose": purpose,
            "outcome": outcome,
        })
        return response

    # --- exports ---------------------------------------------------------------

    def export_archive(self, directory: str | Path) -> None:
        """Write the archive as .att triples plus an index file."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        index_map: dict[str, dict] = {}
        for entry in self._entries:
            stem = entry.blinded.attestation_id.hex()[:16]
            names = {
                "plain": f"{stem}.plain.att",
                "blinded": f"{stem}.blinded.att",
                "countersigned": f"{stem}.countersigned.att",
            }
            write_attestation(directory / names["plain"], entry.plain)
            write_attestation(directory / names["blinded"], entry.blinded)
            write_attestation(directory / names["countersigned"], entry.countersigned)
            index_map[entry.blinded.attestation_id.hex()] = {
                **names,
                "received_at": entry.received_at,
            }
        (directory / "archive.index").write_bytes(canonical_serialize(index_map))

    def export_audit_log(self, path: str | Path) -> None:
        with open(path, "wb") as fh:
            for record in self.audit_log:
                fh.write(canonical_serialize(record))
                fh.write(b"\n")

    # --- persistence -------------------------------------------------------------

    def to_state_map(self, key_seed: bytes) -> dict:
        return {
            "notary_id": self.notary_id,
            "key_seed": key_seed,
            "jurisdiction": self.policy.notary_jurisdiction,
            "compatible": sorted(self.policy.compatible),
            "issuers": list(self.known_issuers),
            "archive": [record_map(ArchiveEntry, e) for e in self._entries],
            "mirror": {d.hex(): tick for d, tick in self.mirror.items()},
            "audit": list(self.audit_log),
            "rejections": list(self.rejection_log),
        }

    @classmethod
    def from_state_map(cls, raw: dict) -> "Notary":
        if not isinstance(raw, dict):
            raise DecodeError("notary state must be a map")

        def field(name: str, types, default=None):
            if default is not None and name not in raw:
                return default
            return require(raw, name, types, "notary state")

        def entries(name: str, layout: dict) -> list:
            # A list of maps with exactly the keys of *layout*, each of its type.
            value = field(name, list, [])
            for entry in value:
                if not (isinstance(entry, dict) and entry.keys() == layout.keys()):
                    raise DecodeError(f"notary state field {name!r} must be a list of "
                                      f"maps with keys {sorted(layout)}")
                for key, types in layout.items():
                    require(entry, key, types, f"notary state {name} entry")
            return value

        compatible = field("compatible", list, [])
        if not all(type(code) is str for code in compatible):
            raise DecodeError("notary state field 'compatible' must be a list of text")
        issuers = field("issuers", list, [])
        if not all(type(key) is bytes for key in issuers):
            raise DecodeError("notary state field 'issuers' must be a list of byte-strings")
        mirror = field("mirror", dict, {})
        if not all(type(tick) is int for tick in mirror.values()):
            raise DecodeError("notary state field 'mirror' must map ids to integer ticks")
        audit = entries("audit", _AUDIT_LAYOUT)
        rejections = entries("rejections", _REJECTION_LAYOUT)
        if not all(type(check) is str for entry in rejections for check in entry["failing"]):
            raise DecodeError("notary state field 'rejections' must list failing checks as text")
        try:
            notary = cls(
                notary_id=field("notary_id", str),
                keypair=crypto.keygen(field("key_seed", bytes)),
                policy=JurisdictionPolicy(
                    notary_jurisdiction=field("jurisdiction", str),
                    compatible=frozenset(compatible),
                ),
                known_issuers=issuers,
            )
            for entry_raw in field("archive", list, []):
                entry = record_from_map(ArchiveEntry, entry_raw)
                index = len(notary._entries)
                notary._entries.append(entry)
                notary._by_id[entry.blinded.attestation_id] = index
                notary._by_id[entry.plain.attestation_id] = index
            for hex_id, tick in mirror.items():
                notary.mirror[Digest.from_hex(hex_id)] = tick
            notary.audit_log = list(audit)
            notary.rejection_log = list(rejections)
            return notary
        except (KeyError, TypeError, ValueError) as exc:
            raise DecodeError(f"malformed notary state: {exc}") from exc

    def save_state(self, path: str | Path, key_seed: bytes) -> None:
        write_canonical(path, self.to_state_map(key_seed))

    @classmethod
    def load_state(cls, path: str | Path) -> "Notary":
        return cls.from_state_map(canonical_parse(Path(path).read_bytes()))
