"""The data-cooperative actor.

Holds the member registry and their personal data stores, derives
attribute claims from raw data under a fixed set of registered rules,
issues plain/blinded attestation pairs, and answers revocation and
revalidation queries.  The cooperative is the source of truth for
revocation state; the notary mirrors it.

Derivation rules are registered per instance: age-over-18 and
income-bracket compute from raw fields on a configurable tick calendar,
residence-country and membership-in-good-standing are projections.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import islice
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
from .crypto import Digest
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
DEFAULT_QUERIES = (
    "age-over-18",
    "residence-country",
    "income-bracket",
    "membership-in-good-standing",
)

DEFAULT_YEAR_TICKS = 365
ADULT_YEARS = 18
DEFAULT_INCOME_BANDS = ((30_000, "low"), (100_000, "middle"))
INCOME_TOP_BAND = "high"


class Status(enum.Enum):
    VALID = "valid"
    REVOKED = "revoked"
    EXPIRED = "expired"
    UNKNOWN = "unknown"


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


@dataclass
class RevocationRegistry:
    """Append-only map from attestation id to the tick it was revoked at;
    ``entries`` changes only through ``mark``."""

    entries: dict[Digest, int] = field(default_factory=dict)

    def mark(self, attestation_id: Digest, at: int) -> None:
        # A revoked id is never un-revoked and keeps its first tick.
        self.entries.setdefault(attestation_id, at)

    def revoked_at(self, attestation_id: Digest) -> int | None:
        return self.entries.get(attestation_id)

    def since(self, count: int) -> dict[Digest, int]:
        """The entries marked after the first *count*, in marking order: what
        a mirror that holds the first *count* lacks (a delta, as in RFC 5280
        section 5.2.4)."""
        return dict(islice(self.entries.items(), count, None))


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
    queries: tuple[str, ...] = DEFAULT_QUERIES
    year_ticks: int = DEFAULT_YEAR_TICKS
    income_bands: tuple[tuple[int, str], ...] = DEFAULT_INCOME_BANDS
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
        queries: tuple[str, ...] = DEFAULT_QUERIES,
        year_ticks: int = DEFAULT_YEAR_TICKS,
        income_bands: tuple[tuple[int, str], ...] = DEFAULT_INCOME_BANDS,
        nonce_seed: bytes | None = None,
    ) -> None:
        self.name = name
        self.key_seed = key_seed
        self.keypair = crypto.keygen(key_seed)
        self.legal_rep_id = legal_rep_id
        self.queries = tuple(queries)
        self.year_ticks = year_ticks
        self.income_bands = tuple(income_bands)
        self.nonce_seed = nonce_seed
        self._nonce_seed = nonce_seed if nonce_seed is not None else key_seed
        self._nonce_counter = 0
        self._members: dict[str, MemberRecord] = {}
        self._issuances: list[IssuanceEntry] = []
        self._by_id: dict[Digest, int] = {}
        self.revocations = RevocationRegistry()
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
        if query not in self.queries:
            raise UnknownQuery(query)
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
            adult = (now - born) >= ADULT_YEARS * self.year_ticks
            return "true" if adult else "false"
        if query == "residence-country":
            return self._raw_field(data, "residence", str)
        if query == "income-bracket":
            income = self._raw_field(data, "income", int)
            for upper, label in self.income_bands:
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
        return crypto.digest(material).value

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
        index = len(self._issuances)
        self._issuances.append(entry)
        self._by_id[entry.plain.attestation_id] = index
        self._by_id[entry.blinded.attestation_id] = index

    # --- revocation and revalidation ---------------------------------------------

    def revoke(self, attestation_id: Digest, at: int) -> None:
        """Revoke an issued attestation; both halves of the pair are marked."""
        index = self._by_id.get(attestation_id)
        if index is None:
            raise UnknownAttestation(attestation_id.hex())
        entry = self._issuances[index]
        self.revocations.mark(entry.plain.attestation_id, at)
        self.revocations.mark(entry.blinded.attestation_id, at)

    def revalidation_status(self, attestation_id: Digest, now: int) -> Status:
        index = self._by_id.get(attestation_id)
        if index is None:
            return Status.UNKNOWN
        revoked_at = self.revocations.revoked_at(attestation_id)
        if revoked_at is not None and revoked_at <= now:
            return Status.REVOKED
        if now >= self._issuances[index].blinded.expires_at:
            return Status.EXPIRED
        return Status.VALID

    # --- persistence ---------------------------------------------------------------

    def save_state(self, path: str | Path) -> None:
        """Write the whole state to *path* atomically; load_state reads it."""
        write_canonical(path, record_bytes(CooperativeState, {
            "name": self.name, "key_seed": self.key_seed, "legal_rep": self.legal_rep_id,
            "queries": self.queries, "year_ticks": self.year_ticks,
            "income_bands": self.income_bands, "members": self._members.values(),
            "issuances": self._issuances,
            "revoked": {d.hex(): tick for d, tick in self.revocations.entries.items()},
            "nonce_counter": self._nonce_counter, "nonce_seed": self.nonce_seed,
        }))

    @classmethod
    def load_state(cls, path: str | Path) -> "Cooperative":
        """The cooperative whose state file is *path*.  Raises DecodeError
        for a file that does not hold a valid state."""
        return read_record(path, CooperativeState, cls._from_state)

    @classmethod
    def _from_state(cls, state: CooperativeState) -> "Cooperative":
        coop = cls(state.name, state.key_seed, state.legal_rep, queries=state.queries,
                   year_ticks=state.year_ticks, income_bands=state.income_bands,
                   nonce_seed=state.nonce_seed)
        for member in state.members:
            coop.register_member(member)
        for entry in state.issuances:
            coop._log_issuance(entry)
        for hex_id, tick in state.revoked.items():
            coop.revocations.mark(Digest.from_hex(hex_id), tick)
        coop._nonce_counter = state.nonce_counter
        return coop
