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
from pathlib import Path

from . import crypto
from .attestation import (
    AttributeClaim,
    BlindedAttestation,
    PlainAttestation,
    SubjectRef,
    blind,
    build_plain,
    write_attestation,
)
from .canonical import (
    Encoded,
    canonical_parse,
    canonical_text,
    record_from_map,
    record_map,
    require,
    write_canonical,
)
from .crypto import Digest, KeyPair
from .errors import (
    DecodeError,
    DuplicateMember,
    InsufficientData,
    MissingHandle,
    UnknownAttestation,
    UnknownMember,
    UnknownQuery,
)
from .events import no_emit

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
    member_id: str
    legal_identity: str
    personal_data: dict
    handle: str | None = None

    def __post_init__(self) -> None:
        if not self.member_id:
            raise ValueError("member_id must be non-empty")
        if not self.legal_identity:
            raise ValueError("legal_identity must be non-empty")

    def to_map(self) -> dict:
        raw = {
            "member_id": self.member_id,
            "legal_identity": self.legal_identity,
            "personal_data": dict(self.personal_data),
        }
        if self.handle is not None:
            raw["handle"] = self.handle
        return raw

    @classmethod
    def from_map(cls, raw: dict) -> "MemberRecord":
        return cls(
            member_id=require(raw, "member_id", str, "member"),
            legal_identity=require(raw, "legal_identity", str, "member"),
            personal_data=dict(require(raw, "personal_data", dict, "member")),
            handle=require(raw, "handle", str, "member") if "handle" in raw else None,
        )


@dataclass
class RevocationRegistry:
    """Append-only map from attestation id to the tick it was revoked at;
    ``entries`` changes only through ``mark``."""

    entries: dict[Digest, int] = field(default_factory=dict)
    # wire_entries's map and its text, built at most once per change.
    _wire: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def mark(self, attestation_id: Digest, at: int) -> None:
        # A revoked id is never un-revoked and keeps its first tick.
        if attestation_id not in self.entries:
            self.entries[attestation_id] = at
            self._wire = None

    def wire_entries(self) -> tuple[dict[str, int], Encoded]:
        """The entries as a revocation-sync message carries them, id hex to
        tick: a fresh map, and the canonical text of such a map."""
        if self._wire is None:
            entries = {d.hex(): tick for d, tick in self.entries.items()}
            self._wire = entries, Encoded(canonical_text(entries))
        entries, encoded = self._wire
        return dict(entries), encoded

    def revoked_at(self, attestation_id: Digest) -> int | None:
        return self.entries.get(attestation_id)

    def snapshot(self) -> dict[Digest, int]:
        return dict(self.entries)


@dataclass(frozen=True)
class IssuanceEntry:
    """One issued pair; its fields are its layout in the state file."""

    plain: PlainAttestation
    blinded: BlindedAttestation


class Cooperative:
    """Single-threaded state machine; the harness serializes messages to it."""

    def __init__(
        self,
        name: str,
        keypair: KeyPair,
        legal_rep_id: str,
        *,
        queries: tuple[str, ...] = DEFAULT_QUERIES,
        year_ticks: int = DEFAULT_YEAR_TICKS,
        income_bands: tuple[tuple[int, str], ...] = DEFAULT_INCOME_BANDS,
        nonce_seed: bytes | None = None,
    ) -> None:
        self.name = name
        self.keypair = keypair
        self.legal_rep_id = legal_rep_id
        self.queries = tuple(queries)
        self.year_ticks = year_ticks
        self.income_bands = tuple(income_bands)
        self._nonce_seed = nonce_seed if nonce_seed is not None else keypair.secret_key
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

    def load_members(self, path: str | Path) -> int:
        """Load member records from a canonical fixture file (a list of maps)."""
        raw = canonical_parse(Path(path).read_bytes())
        if not isinstance(raw, list):
            raise DecodeError("member fixture must be a list of records")
        for item in raw:
            self.register_member(MemberRecord.from_map(item))
        return len(raw)

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
        if substitute_mode == "handle":
            if not member.handle:
                raise MissingHandle(member_id)
            substitute = SubjectRef.handle(member.handle)
        elif substitute_mode == "absent":
            substitute = SubjectRef.absent()
        else:
            raise ValueError(f"substitute_mode must be 'absent' or 'handle', got {substitute_mode!r}")
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
        entry = IssuanceEntry(plain=plain, blinded=blinded)
        index = len(self._issuances)
        self._issuances.append(entry)
        self._by_id[plain.attestation_id] = index
        self._by_id[blinded.attestation_id] = index
        return plain, blinded

    @property
    def issuance_log(self) -> tuple[IssuanceEntry, ...]:
        return tuple(self._issuances)

    def export_issuance_log(self, directory: str | Path) -> list[tuple[str, str]]:
        """Write each logged pair as two .att files; returns the file names."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        names = []
        for entry in self._issuances:
            stem = entry.blinded.attestation_id.hex()[:16]
            plain_name = f"{stem}.plain.att"
            blinded_name = f"{stem}.blinded.att"
            write_attestation(directory / plain_name, entry.plain)
            write_attestation(directory / blinded_name, entry.blinded)
            names.append((plain_name, blinded_name))
        return names

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

    def registry_snapshot(self) -> dict[Digest, int]:
        return self.revocations.snapshot()

    # --- persistence ---------------------------------------------------------------

    def to_state_map(self, key_seed: bytes) -> dict:
        """Full state as a canonical map; *key_seed* re-derives the key pair."""
        return {
            "name": self.name,
            "key_seed": key_seed,
            "legal_rep": self.legal_rep_id,
            "queries": list(self.queries),
            "year_ticks": self.year_ticks,
            "income_bands": [[upper, label] for upper, label in self.income_bands],
            "members": [m.to_map() for m in self._members.values()],
            "issuances": [record_map(IssuanceEntry, e) for e in self._issuances],
            "revoked": {d.hex(): tick for d, tick in self.revocations.entries.items()},
            "nonce_counter": self._nonce_counter,
        }

    @classmethod
    def from_state_map(cls, raw: dict) -> "Cooperative":
        if not isinstance(raw, dict):
            raise DecodeError("cooperative state must be a map")

        def field(name: str, types, default=None):
            if default is not None and name not in raw:
                return default
            return require(raw, name, types, "cooperative state")

        key_seed = field("key_seed", bytes)
        queries = field("queries", list, DEFAULT_QUERIES)
        if not all(type(query) is str for query in queries):
            raise DecodeError("cooperative state field 'queries' must be a list of text")
        bands = field("income_bands", list, DEFAULT_INCOME_BANDS)
        if not all(isinstance(band, (list, tuple)) and len(band) == 2
                   and type(band[0]) is int and type(band[1]) is str for band in bands):
            raise DecodeError("cooperative state field 'income_bands' must be a list of "
                              "[integer, text] pairs")
        revoked = field("revoked", dict, {})
        if not all(type(tick) is int for tick in revoked.values()):
            raise DecodeError("cooperative state field 'revoked' must map ids to integer ticks")
        try:
            coop = cls(
                name=field("name", str),
                keypair=crypto.keygen(key_seed),
                legal_rep_id=field("legal_rep", str),
                queries=tuple(queries),
                year_ticks=field("year_ticks", int, DEFAULT_YEAR_TICKS),
                income_bands=tuple(map(tuple, bands)),
                nonce_seed=field("nonce_seed", bytes, key_seed),
            )
            for member_raw in raw.get("members", []):
                coop.register_member(MemberRecord.from_map(member_raw))
            for pair in raw.get("issuances", []):
                entry = record_from_map(IssuanceEntry, pair)
                index = len(coop._issuances)
                coop._issuances.append(entry)
                coop._by_id[entry.plain.attestation_id] = index
                coop._by_id[entry.blinded.attestation_id] = index
            for hex_id, tick in revoked.items():
                coop.revocations.mark(Digest.from_hex(hex_id), tick)
            coop._nonce_counter = field("nonce_counter", int, 0)
            return coop
        except (KeyError, TypeError, ValueError) as exc:
            raise DecodeError(f"malformed cooperative state: {exc}") from exc

    def save_state(self, path: str | Path, key_seed: bytes) -> None:
        write_canonical(path, self.to_state_map(key_seed))

    @classmethod
    def load_state(cls, path: str | Path) -> "Cooperative":
        return cls.from_state_map(canonical_parse(Path(path).read_bytes()))
