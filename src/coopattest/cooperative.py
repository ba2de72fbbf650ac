"""The data-cooperative actor.

Holds the member registry and their personal data stores, derives
attribute claims from raw data under a fixed set of registered rules,
issues plain/blinded attestation pairs, and answers revocation and
revalidation queries.  The cooperative is the one authority on
revocation: its notary forwards every revalidation query to it.  It
keeps each revoked id with the tick it was first revoked at, the map its
state file holds as ``revoked``.

Derivation rules are fixed: age-over-18 and income-bracket compute from
raw fields on a 365-tick year, residence-country and
membership-in-good-standing are projections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import crypto
from .attestation import (
    MODE_ABSENT,
    MODE_HANDLE,
    AttributeClaim,
    BlindedAttestation,
    PlainAttestation,
    SubjectRef,
    blind,
    build_plain,
)
from .canonical import read_record, record_bytes, write_canonical
from .errors import (
    DuplicateMember,
    InsufficientData,
    MissingHandle,
    UnknownAttestation,
    UnknownMember,
    UnknownQuery,
)
from .events import no_emit

# Every rule _derive_value implements, the only queries a config may name.
QUERIES = (
    "age-over-18",
    "residence-country",
    "income-bracket",
    "membership-in-good-standing",
)

YEAR_TICKS = 365
ADULT_YEARS = 18
INCOME_BANDS = ((30_000, "low"), (100_000, "middle"))
INCOME_TOP_BAND = "high"


# What a revalidation of an attestation answers, the text the log writes.
STATUS_VALID = "valid"
STATUS_REVOKED = "revoked"
STATUS_EXPIRED = "expired"
STATUS_UNKNOWN = "unknown"


@dataclass(frozen=True)
class MemberRecord:
    """One member; its fields are its layout in the state file."""

    member_id: str
    legal_identity: str
    personal_data: dict
    handle: str | None = None

    def __post_init__(self) -> None:
        if not self.member_id:
            raise ValueError("member_id must be non-empty")
        if not self.legal_identity:
            raise ValueError("legal_identity must be non-empty")
        if self.handle is not None and not self.handle.startswith("@"):
            raise ValueError("handle must begin with '@'")


@dataclass(frozen=True)
class IssuanceEntry:
    """One issued pair; its fields are its layout in the state file."""

    plain: PlainAttestation
    blinded: BlindedAttestation


@dataclass(frozen=True)
class CooperativeState:
    """The cooperative's state file; its fields are the file's layout.
    ``revoked`` maps attestation id hex to the tick of revocation, and
    ``nonce_seed``, when set, replaces ``key_seed`` in nonce derivation."""

    name: str
    key_seed: bytes
    legal_rep: str
    members: tuple[MemberRecord, ...] = ()
    issuances: tuple[IssuanceEntry, ...] = ()
    revoked: dict[str, int] = field(default_factory=dict)
    nonce_counter: int = 0
    nonce_seed: bytes | None = None

    def __post_init__(self) -> None:
        # A nonce's counter is written in eight bytes.
        if not 0 <= self.nonce_counter < 2**64:
            raise ValueError("nonce_counter must be in [0, 2**64)")


class Cooperative:
    """Single-threaded state machine; the harness serializes messages to it."""

    def __init__(
        self,
        name: str,
        key_seed: bytes,
        legal_rep_id: str,
        *,
        nonce_seed: bytes | None = None,
    ) -> None:
        self.name = name
        self.key_seed = key_seed
        self.keypair = crypto.keygen(key_seed)
        self.legal_rep_id = legal_rep_id
        self.nonce_seed = nonce_seed
        self._nonce_seed = nonce_seed if nonce_seed is not None else key_seed
        self._nonce_counter = 0
        self._members: dict[str, MemberRecord] = {}
        self._issuances: list[IssuanceEntry] = []
        self._by_id: dict[bytes, IssuanceEntry] = {}   # either half's id -> its pair
        self._revoked: dict[bytes, int] = {}   # attestation id -> tick it was revoked at
        self._emit = no_emit

    @property
    def public_key(self) -> bytes:
        return self.keypair.public_key

    # --- members ---------------------------------------------------------------

    def register_member(self, record: MemberRecord) -> str:
        if record.member_id in self._members:
            raise DuplicateMember(record.member_id)
        self._members[record.member_id] = record
        return record.member_id

    def member(self, member_id: str) -> MemberRecord:
        try:
            return self._members[member_id]
        except KeyError:
            raise UnknownMember(member_id) from None

    # --- attribute derivation -----------------------------------------------------

    def derive_attribute(self, member_id: str, query: str, now: int) -> AttributeClaim:
        member = self.member(member_id)
        value = self._derive_value(member.personal_data, query, now)
        return AttributeClaim(name=query, value=value, method=f"pds-rule:{query}")

    def _raw_field(self, data: dict, name: str, types) -> object:
        value = data.get(name)
        if not isinstance(value, types) or isinstance(value, bool) or value == "":
            raise InsufficientData(f"personal data field {name!r} missing or unusable")
        return value

    def _derive_value(self, data: dict, query: str, now: int) -> str:
        if query == "age-over-18":
            born = self._raw_field(data, "date-of-birth", int)
            adult = (now - born) >= ADULT_YEARS * YEAR_TICKS
            return "true" if adult else "false"
        if query == "residence-country":
            return self._raw_field(data, "residence", str)
        if query == "income-bracket":
            income = self._raw_field(data, "income", int)
            for upper, label in INCOME_BANDS:
                if income < upper:
                    return label
            return INCOME_TOP_BAND
        if query == "membership-in-good-standing":
            standing = self._raw_field(data, "standing", str)
            return "true" if standing == "good" else "false"
        raise UnknownQuery(query)

    # --- issuance ---------------------------------------------------------------

    def _next_nonce(self) -> bytes:
        counter = self._nonce_counter
        self._nonce_counter += 1
        material = b"coop-attest/nonce/v1:" + self._nonce_seed + counter.to_bytes(8, "big")
        return crypto.digest(material)

    def issue_blinded(
        self,
        member_id: str,
        queries: list[str] | tuple[str, ...],
        substitute_mode: str,
        now: int,
        ttl: int,
    ) -> tuple[PlainAttestation, BlindedAttestation]:
        """Issue a signed pair: the identity-bearing plain attestation and its
        blinded counterpart, both retained in the issuance log."""
        member = self.member(member_id)
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        if substitute_mode == MODE_HANDLE:
            if not member.handle:
                raise MissingHandle(member_id)
            substitute = SubjectRef.handle(member.handle)
        elif substitute_mode == MODE_ABSENT:
            substitute = SubjectRef.absent()
        else:
            raise ValueError(f"substitute_mode must be {MODE_ABSENT!r} or {MODE_HANDLE!r}, "
                             f"got {substitute_mode!r}")
        claims = [self.derive_attribute(member_id, q, now) for q in queries]
        plain = build_plain(
            SubjectRef.legal(member.legal_identity),
            claims,
            self.keypair,
            self.legal_rep_id,
            now,
            now + ttl,
            self._next_nonce(),
        )
        blinded = blind(plain, substitute, self.keypair)
        self._log_issuance(IssuanceEntry(plain=plain, blinded=blinded))
        return plain, blinded

    def _log_issuance(self, entry: IssuanceEntry) -> None:
        self._issuances.append(entry)
        self._by_id[entry.plain.attestation_id] = entry
        self._by_id[entry.blinded.attestation_id] = entry

    # --- revocation and revalidation ---------------------------------------------

    def revoke(self, attestation_id: bytes, at: int) -> None:
        """Revoke an issued attestation; both halves of the pair are marked."""
        entry = self._by_id.get(attestation_id)
        if entry is None:
            raise UnknownAttestation(attestation_id.hex())
        for half in (entry.plain, entry.blinded):
            # A revoked id is never un-revoked and keeps its first tick.
            self._revoked.setdefault(half.attestation_id, at)

    def revalidation_status(self, attestation_id: bytes, now: int) -> str:
        entry = self._by_id.get(attestation_id)
        if entry is None:
            return STATUS_UNKNOWN
        revoked_at = self._revoked.get(attestation_id)
        if revoked_at is not None and revoked_at <= now:
            return STATUS_REVOKED
        if now >= entry.blinded.expires_at:
            return STATUS_EXPIRED
        return STATUS_VALID

    # --- persistence ---------------------------------------------------------------

    def save_state(self, path: str | Path) -> None:
        """Write the whole state to *path* atomically; load_state reads it."""
        write_canonical(path, record_bytes(CooperativeState, CooperativeState(
            self.name, self.key_seed, self.legal_rep_id, tuple(self._members.values()),
            tuple(self._issuances), {key.hex(): tick for key, tick in self._revoked.items()},
            self._nonce_counter, self.nonce_seed)))

    @classmethod
    def load_state(cls, path: str | Path) -> "Cooperative":
        """The cooperative whose state file is *path*.  Raises DecodeError
        for a file that does not hold a valid state."""
        return read_record(path, CooperativeState, cls._from_state)

    @classmethod
    def _from_state(cls, state: CooperativeState) -> "Cooperative":
        coop = cls(state.name, state.key_seed, state.legal_rep, nonce_seed=state.nonce_seed)
        for member in state.members:
            coop.register_member(member)
        for entry in state.issuances:
            coop._log_issuance(entry)
        coop._revoked = {crypto.digest_from_hex(hex_id): tick
                         for hex_id, tick in state.revoked.items()}
        coop._nonce_counter = state.nonce_counter
        return coop
